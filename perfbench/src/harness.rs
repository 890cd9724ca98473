//! What every workload shares: the run context, the metric catalogue, the
//! round loop, the report, and the output checks.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tip_bench::checkpoint::load_checkpoint;
use tip_bench::ProfiledRun;
use tip_core::{BankResult, ProfilerBank, SamplerConfig};
use tip_isa::{Executor, Program};
use tip_ooo::{Core, CoreConfig};

use crate::spans::Tracer;
use crate::stats;

/// The benchmark that every workload's job list submits as a
/// profile-guided-optimization job instead of a plain run.
pub const PGO_BENCH: &str = "imagick";

/// Rounds every timed phase runs at least, so that the plain jobs (26 per
/// round) leave ten samples beyond the 90th percentile. `peak_rss_mb` is
/// read after this many rounds, so it covers the same work on any host.
pub const MIN_ROUNDS: usize = 4;

/// Round pairs (untraced + traced) every traced suite phase runs at least.
pub const MIN_TRACED_PAIRS: usize = 2;

/// End-to-end metrics: name and unit, printed by `--trace 0`.
pub const E2E: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("peak_rss_mb", "MB"),
    ("tip_error_pct", "%"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p90_ms", "ms"),
    ("pgo_latency_ms", "ms"),
];

/// Per-layer metrics: name and unit, printed by `--trace 1`. Times and
/// counts are per round (the mean over the traced rounds); a layer a
/// workload does not exercise reads 0.
pub const LAYERS: [(&str, &str); 42] = [
    ("workloads.build_s", "s"),
    ("ooo.sim_s", "s"),
    ("ooo.ns_per_cycle", "ns"),
    ("ooo.cycles", "count"),
    ("ooo.instructions", "count"),
    ("ooo.mispredicts", "count"),
    ("ooo.csr_flushes", "count"),
    ("mem.l1d_miss_rate", "ratio"),
    ("mem.llc_miss_rate", "ratio"),
    ("mem.dram_accesses", "count"),
    ("core.bank_s", "s"),
    ("core.bank_ns_per_cycle", "ns"),
    ("core.latch_s", "s"),
    ("core.on_sample_s", "s"),
    ("core.samples", "count"),
    ("core.flush_s", "s"),
    ("core.flushes", "count"),
    ("core.finish_s", "s"),
    ("ooo.snapshot_s", "s"),
    ("ooo.snapshot_bytes", "bytes"),
    ("core.snapshot_s", "s"),
    ("core.snapshot_bytes", "bytes"),
    ("trace.encode_s", "s"),
    ("trace.bytes", "bytes"),
    ("trace.mb_per_s", "MB/s"),
    ("bench.checkpoint_write_s", "s"),
    ("bench.checkpoints", "count"),
    ("bench.commit_s", "s"),
    ("bench.job_wall_ms", "ms"),
    ("bench.queue_wait_ms", "ms"),
    ("bench.retries", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.dispatch_ms", "ms"),
    ("serve.commit_ms", "ms"),
    ("serve.query_ms", "ms"),
    ("serve.reassigned", "count"),
    ("serve.start_ms", "ms"),
    ("serve.drain_ms", "ms"),
    ("fleet.register_ms", "ms"),
    ("fleet.drain_s", "s"),
    ("pgo.job_wall_ms", "ms"),
    ("traced.overhead_pct", "%"),
];

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Base seed; round `r` runs with `seed + r`.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Directory on tmpfs for campaign and ledger dirs.
    pub work: PathBuf,
}

/// One reported metric with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Value as measured.
    pub value: f64,
    /// Samples the value summarizes (1 for a plain total).
    pub samples: usize,
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations (jobs) attempted, including setup and check runs.
    pub attempted: u64,
    /// Operations that failed or produced wrong output.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<&'static str, Metric>,
}

impl Report {
    /// Records a failed operation.
    pub fn fail(&mut self, what: String) {
        eprintln!("perfbench: CHECK FAILED: {what}");
        self.attempted += 1;
        self.failed += 1;
    }

    /// Records one more operation, failed when `check` is an error.
    pub fn check(&mut self, check: Result<(), String>) {
        match check {
            Ok(()) => self.attempted += 1,
            Err(e) => self.fail(e),
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, Metric { value, samples });
    }

    /// Sets the end-to-end metrics every workload derives alike: the mean
    /// TIP error over the committed results (fractions, reported in %),
    /// the plain jobs' median and 90th-percentile latency, and the pgo
    /// job's median latency.
    pub fn set_outcomes(&mut self, tip_errors: &[f64], job_ms: &[f64], pgo_ms: &[f64]) {
        if !tip_errors.is_empty() {
            let mean = tip_errors.iter().sum::<f64>() / tip_errors.len() as f64;
            self.set("tip_error_pct", mean * 100.0, tip_errors.len());
        }
        self.set_median("job_latency_p50_ms", job_ms);
        if let Some(p90) = stats::tail_percentile(job_ms, 90.0) {
            self.set("job_latency_p90_ms", p90, job_ms.len());
        }
        self.set_median("pgo_latency_ms", pgo_ms);
    }

    /// Sets a metric to the median of `xs`, if any.
    pub fn set_median(&mut self, name: &'static str, xs: &[f64]) {
        if let Some(m) = stats::median(xs) {
            self.set(name, m, xs.len());
        }
    }
}

/// Simulated counts summed over runs; they depend only on the simulated
/// machine, never on the host, so a host-only change must leave them equal.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SimCounts {
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// CSR pipeline flushes.
    pub csr_flushes: u64,
    /// L1D (misses, accesses).
    pub l1d: (u64, u64),
    /// LLC (misses, accesses).
    pub llc: (u64, u64),
    /// DRAM line transfers.
    pub dram: u64,
}

impl SimCounts {
    /// Adds one run's counters.
    pub fn add(&mut self, run: &ProfiledRun) {
        self.cycles += run.stats.cycles;
        self.committed += run.stats.committed;
        self.mispredicts += run.stats.mispredicts;
        self.csr_flushes += run.stats.csr_flushes;
        self.l1d.0 += run.mem_stats.l1d.misses;
        self.l1d.1 += run.mem_stats.l1d.accesses;
        self.llc.0 += run.mem_stats.llc.misses;
        self.llc.1 += run.mem_stats.llc.accesses;
        self.dram += run.mem_stats.dram_accesses;
    }

    /// Reports the counts per round over `rounds` rounds.
    pub fn report(&self, report: &mut Report, rounds: usize) {
        let n = rounds.max(1) as f64;
        let ratio = |(misses, accesses): (u64, u64)| {
            if accesses == 0 {
                0.0
            } else {
                misses as f64 / accesses as f64
            }
        };
        report.set("ooo.cycles", self.cycles as f64 / n, rounds);
        report.set("ooo.instructions", self.committed as f64 / n, rounds);
        report.set("ooo.mispredicts", self.mispredicts as f64 / n, rounds);
        report.set("ooo.csr_flushes", self.csr_flushes as f64 / n, rounds);
        report.set("mem.l1d_miss_rate", ratio(self.l1d), rounds);
        report.set("mem.llc_miss_rate", ratio(self.llc), rounds);
        report.set("mem.dram_accesses", self.dram as f64 / n, rounds);
    }
}

/// Runs `round(r)` for `r = 0, 1, ...`: at least `min` times and then for
/// as long as another round of mean length still ends within `seconds`.
/// Returns the number of rounds run.
///
/// # Errors
///
/// The first error a round returns.
pub fn rounds(
    seconds: f64,
    min: usize,
    mut round: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut n = 0;
    loop {
        if n >= min {
            let spent = start.elapsed().as_secs_f64();
            if spent + spent / n as f64 > seconds {
                eprintln!("perfbench: {n} rounds in {spent:.2} s");
                return Ok(n);
            }
        }
        round(n)?;
        n += 1;
    }
}

/// Times `setup` `times` times and returns the durations in seconds.
///
/// # Errors
///
/// The first error a setup pass returns.
pub fn time_setups(
    times: usize,
    mut setup: impl FnMut() -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let secs = (0..times)
        .map(|_| {
            let t = Instant::now();
            setup()?;
            Ok(t.elapsed().as_secs_f64())
        })
        .collect::<Result<Vec<f64>, String>>()?;
    eprintln!("perfbench: set-up passes {secs:.3?} s");
    Ok(secs)
}

/// A fresh, empty directory `work/name`.
///
/// # Errors
///
/// An I/O error, rendered.
pub fn fresh_dir(work: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = work.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Checks a committed `instructions=` against the dynamic instruction count
/// of the functional ISA model, which is independent of the timing core.
///
/// # Errors
///
/// A message naming the benchmark and both counts.
pub fn check_instructions(
    bench: &str,
    program: &Program,
    seed: u64,
    committed: u64,
) -> Result<(), String> {
    let expected = Executor::new(program, seed).count() as u64;
    if committed == expected {
        Ok(())
    } else {
        Err(format!(
            "{bench} (seed {seed}): committed {committed} instructions, the functional model runs {expected}"
        ))
    }
}

/// Oracle cycle conservation: every simulated cycle is attributed, so the
/// attributed cycles sum to `cycles` (up to the unresolved drain at the end
/// of the run, which the Oracle may drop).
///
/// # Errors
///
/// A message naming the benchmark and the totals.
pub fn check_conservation(bench: &str, bank: &BankResult, cycles: u64) -> Result<(), String> {
    let attributed: f64 = bank.oracle.per_instr().iter().sum();
    if bank.oracle.total_cycles() == cycles && (attributed - cycles as f64).abs() < 64.0 {
        Ok(())
    } else {
        Err(format!(
            "{bench}: Oracle attributed {attributed:.1} of {cycles} cycles (counted {})",
            bank.oracle.total_cycles()
        ))
    }
}

/// Loads a `.tips` checkpoint and restores both the core and the bank from
/// it.
///
/// # Errors
///
/// A message naming the file and what failed.
pub fn check_restores(
    path: &Path,
    program: &Program,
    sampler: SamplerConfig,
) -> Result<(), String> {
    let ck = load_checkpoint(path).map_err(|e| format!("{}: load: {e}", path.display()))?;
    Core::restore(program, CoreConfig::default(), &ck.core)
        .map_err(|e| format!("{}: Core::restore: {e}", path.display()))?;
    ProfilerBank::restore(program, sampler, &ck.bank)
        .map_err(|e| format!("{}: ProfilerBank::restore: {e}", path.display()))?;
    Ok(())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Whether `dir` is on a tmpfs mount, from this process's mount table
/// (the longest mount point that prefixes the canonical path wins).
pub fn on_tmpfs(dir: &Path) -> bool {
    let Ok(dir) = dir.canonicalize() else {
        return false;
    };
    let Ok(table) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return false;
    };
    let mut best: Option<(usize, bool)> = None;
    for line in table.lines() {
        // `id parent major:minor root mount-point options ... - fstype ...`
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (Some(mount), Some(dash)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let mount = mount.replace("\\040", " ");
        if dir.starts_with(&mount) && best.is_none_or(|(len, _)| mount.len() >= len) {
            best = Some((mount.len(), fields.get(dash + 1) == Some(&"tmpfs")));
        }
    }
    best.is_some_and(|(_, tmpfs)| tmpfs)
}

/// A shared tracer with the clock overhead calibrated.
pub fn calibrated_tracer() -> Tracer {
    let tracer = Tracer::new();
    tracer.add("timer_ns", crate::replay::timer_overhead_ns());
    tracer
}
