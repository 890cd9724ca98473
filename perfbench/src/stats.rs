//! Order statistics and the parsers for the ledger's text artifacts.
//!
//! Everything here is pure so it can be unit-tested without running a
//! simulation: the percentile rule the benchmark reports under, and the
//! readers for `metrics.txt` rows and `<bench>.result` files.

use std::collections::BTreeMap;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-th percentile of `xs` (`0 < p < 100`), reported
/// only when at least [`MIN_BEYOND`] samples lie strictly above its rank.
/// With fewer samples the tail is not measured, so the answer is `None`.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile out of range: {p}");
    let n = xs.len();
    if n == 0 {
        return None;
    }
    // 1-based nearest rank: the smallest rank covering p% of the samples.
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// One row of a campaign's `metrics.txt` (`bench=... status=... wall_ms=...`).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRow {
    /// Benchmark name.
    pub bench: String,
    /// Attempts made.
    pub attempts: u32,
    /// Host wall-clock of the job, milliseconds.
    pub wall_ms: f64,
    /// Host time the job waited for a worker, milliseconds.
    pub queue_wait_ms: f64,
}

/// Parses the per-job rows of a `metrics.txt` body, skipping the campaign
/// header lines (`jobs=`, `workers=`, ...).
///
/// # Errors
///
/// A message naming the first row with a missing or malformed field.
pub fn parse_metrics(body: &str) -> Result<Vec<MetricsRow>, String> {
    let mut rows = Vec::new();
    for line in body.lines().filter(|l| l.starts_with("bench=")) {
        let kv: BTreeMap<&str, &str> = line
            .split_whitespace()
            .filter_map(|tok| tok.split_once('='))
            .collect();
        let get = |k: &str| {
            kv.get(k)
                .copied()
                .ok_or_else(|| format!("metrics row lacks `{k}`: {line}"))
        };
        let num = |k: &str| -> Result<f64, String> {
            get(k)?
                .parse::<f64>()
                .map_err(|_| format!("metrics row has a bad `{k}`: {line}"))
        };
        rows.push(MetricsRow {
            bench: get("bench")?.to_owned(),
            attempts: get("attempts")?
                .parse()
                .map_err(|_| format!("metrics row has a bad `attempts`: {line}"))?,
            wall_ms: num("wall_ms")?,
            queue_wait_ms: num("queue_wait_ms")?,
        });
    }
    Ok(rows)
}

/// The fields of a committed `<bench>.result` file the benchmark checks.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    /// Attempts the committed run took.
    pub attempts: u32,
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub instructions: u64,
    /// Instruction-level error of the TIP profiler against the Oracle, as a
    /// fraction.
    pub tip_error: f64,
}

/// Parses a `<bench>.result` body (`key=value` lines).
///
/// # Errors
///
/// A message naming the missing or malformed key; a failed result (which
/// carries no counts) is an error too.
pub fn parse_result(body: &str) -> Result<ResultFile, String> {
    let kv: BTreeMap<&str, &str> = body.lines().filter_map(|l| l.split_once('=')).collect();
    let get = |k: &str| {
        kv.get(k)
            .copied()
            .ok_or_else(|| format!("result lacks `{k}`"))
    };
    let status = get("status")?;
    if status != "ok" {
        return Err(format!(
            "result status is `{status}`: {}",
            kv.get("error").unwrap_or(&"")
        ));
    }
    let int = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse::<u64>()
            .map_err(|_| format!("result has a bad `{k}`"))
    };
    Ok(ResultFile {
        attempts: int("attempts")? as u32,
        cycles: int("cycles")?,
        instructions: int("instructions")?,
        tip_error: get("error.instr.Tip")?
            .parse::<f64>()
            .map_err(|_| "result has a bad `error.instr.Tip`".to_owned())?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 99 samples: rank ceil(89.1) = 90 leaves 9 above — not reported.
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 90.0), None);
        // 100 samples: rank 90 leaves exactly 10 above — reported.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 90.0), Some(90.0));
    }

    #[test]
    fn p50_rule_and_order_independence() {
        let xs: Vec<f64> = (1..=19).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 50.0), None, "rank 10 leaves 9 above");
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 50.0), Some(10.0));
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn p99_on_a_thousand_samples() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&xs[..999], 99.0), None);
    }

    const METRICS: &str = "jobs=2\nworkers=1\nwall_ms=12.5\ncpu_ms=12.0\n\
        speedup=0.96\ntotal_cycles=300\n\
        bench=mcf status=ok attempts=1 wall_ms=7.3 cycles=200 instructions=150 \
        ipc=0.750000 queue_wait_ms=0.2 worker=0 assignments=1 daemon=0\n\
        bench=gcc status=failed attempts=2 wall_ms=4.1 cycles=0 instructions=0 \
        ipc=0.000000 queue_wait_ms=1.5 worker=0 assignments=3 daemon=1\n";

    #[test]
    fn metrics_rows_parse_and_skip_the_header() {
        let rows = parse_metrics(METRICS).expect("parses");
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            MetricsRow {
                bench: "mcf".into(),
                attempts: 1,
                wall_ms: 7.3,
                queue_wait_ms: 0.2,
            }
        );
        assert_eq!((rows[1].bench.as_str(), rows[1].attempts), ("gcc", 2));
    }

    #[test]
    fn metrics_row_missing_a_field_is_an_error() {
        let err = parse_metrics("bench=mcf status=ok attempts=1\n").unwrap_err();
        assert!(err.contains("wall_ms"), "{err}");
        let err = parse_metrics("bench=mcf status=ok attempts=x wall_ms=1 queue_wait_ms=1\n")
            .unwrap_err();
        assert!(err.contains("attempts"), "{err}");
    }

    #[test]
    fn result_file_parses() {
        let body = "status=ok\nbench=mcf\nattempts=2\ncycles=86093\ninstructions=60001\n\
                    ipc=0.696921\nerror.instr.Software=0.101000\nerror.instr.Tip=0.012500\n";
        let r = parse_result(body).expect("parses");
        assert_eq!((r.attempts, r.cycles, r.instructions), (2, 86093, 60001));
        assert!((r.tip_error - 0.0125).abs() < 1e-12);
    }

    #[test]
    fn failed_or_incomplete_result_is_an_error() {
        let err =
            parse_result("status=failed\nbench=mcf\nattempts=2\nerror=livelock\n").unwrap_err();
        assert!(err.contains("livelock"), "{err}");
        let err = parse_result("status=ok\nbench=mcf\nattempts=1\ncycles=5\ninstructions=4\n")
            .unwrap_err();
        assert!(err.contains("error.instr.Tip"), "{err}");
    }
}
