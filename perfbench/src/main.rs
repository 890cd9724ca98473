//! Repository benchmark for the TIP simulator and its service.
//!
//! Usage: `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--work-dir DIR]`. Runs one workload, checks its outputs, and prints
//! one JSON line last on stdout: `--trace 0` reports the end-to-end
//! metrics, `--trace 1` the per-layer metrics from a traced run. A table
//! with units and sample counts goes to stderr. `perfbench/run.sh` builds
//! this binary and runs it with its work dir on a private tmpfs; see
//! `perfbench/README.md` for the workloads and metrics.

mod harness;
mod replay;
mod serve;
mod spans;
mod stats;
mod suite;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Opts, Report, E2E, LAYERS};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "suite-small",
    "suite-ckpt-dense",
    "serve-daemon",
    "serve-fleet",
];

fn parse_args(args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        work: PathBuf::from(".bench_work/tmpfs"),
    };
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value `{value}`");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if opts.seconds.is_nan() || opts.seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--work-dir" => opts.work = PathBuf::from(&value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(opts)
}

/// The result line: every metric of the catalogue the run reports, in
/// catalogue order. A missing end-to-end metric is a failed check; a layer
/// the workload does not exercise reads 0.
fn render(report: &mut Report, trace: bool) -> String {
    let catalogue: &[(&str, &str)] = if trace { &LAYERS } else { &E2E };
    let mut metrics = Vec::new();
    let mut table = String::new();
    for &(name, unit) in catalogue {
        let (value, samples) = match report.metrics.get(name) {
            Some(m) if m.value.is_finite() => (m.value, m.samples),
            _ => {
                if !trace {
                    report.fail(format!("{name}: not measured"));
                }
                (0.0, 0)
            }
        };
        let _ = writeln!(table, "  {name:<26} {value:>16.6} {unit:<9} n={samples}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    eprint!("{table}");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR]"
            );
            return ExitCode::from(2);
        }
    };
    // Campaign and ledger dirs fsync every commit; on a disk the fsyncs,
    // not the program, would dominate every latency measured here.
    if !harness::on_tmpfs(&opts.work) {
        eprintln!(
            "perfbench: FATAL: work dir {} is not on tmpfs; run through perfbench/run.sh, \
             which mounts a private tmpfs there",
            opts.work.display()
        );
        return ExitCode::from(2);
    }
    eprintln!(
        "perfbench: {} seed={} seconds={} trace={}",
        opts.workload, opts.seed, opts.seconds, opts.trace
    );
    let result = match opts.workload.as_str() {
        "suite-small" => suite::run(&suite::small(), &opts),
        "suite-ckpt-dense" => suite::run(&suite::ckpt_dense(), &opts),
        "serve-daemon" => serve::run(false, &opts),
        _ => serve::run(true, &opts),
    };
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            return ExitCode::from(1);
        }
    };
    let line = render(&mut report, opts.trace);
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_owned)
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = parse_args(args(
            "--workload serve-fleet --seed 7 --seconds 12 --trace 1",
        ))
        .expect("parses");
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("serve-fleet", 7, 12.0, true)
        );
        assert!(parse_args(args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(args("--workload suite-small --trace 2")).is_err());
        assert!(parse_args(args("--workload suite-small --seconds 0")).is_err());
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench");
        for (name, unit) in E2E.iter().chain(&LAYERS) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{w}\"")),
                "BENCHMARK.json lacks {w}"
            );
        }
    }

    #[test]
    fn result_line_has_every_metric_and_flags_missing_ones() {
        let mut report = Report::default();
        report.set("setup_s", 1.25, 3);
        let line = render(&mut report, false);
        assert!(
            line.starts_with("{\"correct\": false, \"attempted\": 6, \"failed\": 6,"),
            "{line}"
        );
        assert!(
            line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"),
            "{line}"
        );
        let mut report = Report::default();
        let line = render(&mut report, true);
        assert!(line.starts_with("{\"correct\": true,"), "{line}");
        assert_eq!(line.matches("\"value\"").count(), LAYERS.len());
    }
}
