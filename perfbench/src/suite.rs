//! The in-process suite workloads: `suite-small` and `suite-ckpt-dense`.
//!
//! A round runs the workload's job list through `tip_bench`'s
//! `run_campaign` on one worker thread, with the campaign dir on tmpfs and
//! streaming into a live aggregate. The set-up warm-up and every timed
//! round run the production `SpecRunner`. A traced run alternates an
//! untraced production round with a traced [`Replay`] round on the same
//! seed, and requires their result files to be byte-identical.
//!
//! The production runner deletes a checkpointed run's final snapshot, so
//! the `.tips` restore check of `suite-ckpt-dense` runs on [`Replay`]
//! rounds, never inside a timed phase: on every traced round, and on one
//! extra round after the timed phase of an untraced run, whose results
//! must equal the first timed round's byte for byte.

use std::fs;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tip_bench::campaign::{run_campaign, CampaignConfig, CampaignOutcome};
use tip_bench::ledger::{result_path, METRICS_FILE};
use tip_bench::live::LiveAggregate;
use tip_bench::{Job, ProfiledRun, RunCtx, RunError, Runner, SpecRunner};
use tip_core::{ProfilerId, SamplerConfig};
use tip_workloads::{suite, Benchmark, SuiteScale};

use crate::harness::{
    self, calibrated_tracer, fresh_dir, rounds, time_setups, Opts, Report, SimCounts, MIN_ROUNDS,
    MIN_TRACED_PAIRS, PGO_BENCH,
};
use crate::replay::Replay;
use crate::spans::Tracer;
use crate::stats;

/// How one suite workload runs its campaign.
#[derive(Debug, Clone)]
pub struct SuiteSpec {
    /// Suite scale of the timed rounds.
    pub scale: SuiteScale,
    /// Profilers besides the always-on Oracle.
    pub profilers: Vec<ProfilerId>,
    /// Periodic sampling interval, cycles.
    pub interval: u64,
    /// Checkpoint period, cycles, when checkpointing.
    pub checkpoint: Option<u64>,
}

/// `suite-small`: the fig08 campaign — all 27 benchmarks at Small scale,
/// the six fig08 profilers plus the Oracle, interval 149, streaming.
pub fn small() -> SuiteSpec {
    SuiteSpec {
        scale: SuiteScale::Small,
        profilers: vec![
            ProfilerId::Software,
            ProfilerId::Dispatch,
            ProfilerId::Lci,
            ProfilerId::Nci,
            ProfilerId::TipIlp,
            ProfilerId::Tip,
        ],
        interval: 149,
        checkpoint: None,
    }
}

/// `suite-ckpt-dense`: all 27 benchmarks at Test scale under all seven
/// profilers, interval 13, a checkpoint every 20 000 cycles.
pub fn ckpt_dense() -> SuiteSpec {
    SuiteSpec {
        scale: SuiteScale::Test,
        profilers: ProfilerId::ALL.to_vec(),
        interval: 13,
        checkpoint: Some(20_000),
    }
}

/// Runs every job of the list as given, except that [`PGO_BENCH`] runs as
/// a profile-guided-optimization job, and records how long each job's
/// runner call took (in-process there is no wire, so this is a job's
/// latency).
pub struct WithPgo<R> {
    runner: R,
    /// `(benchmark, milliseconds)` per runner call, in call order.
    pub walls: Arc<Mutex<Vec<(&'static str, f64)>>>,
}

impl<R> WithPgo<R> {
    /// Wraps `runner`.
    pub fn new(runner: R) -> Self {
        WithPgo {
            runner,
            walls: Arc::default(),
        }
    }
}

impl<R: Runner> Runner for WithPgo<R> {
    fn run(&self, job: &Job, ctx: &RunCtx) -> Result<ProfiledRun, RunError> {
        let t = Instant::now();
        let result = if job.bench.name == PGO_BENCH && !job.pgo {
            let mut job = job.clone();
            job.pgo = true;
            self.runner.run(&job, ctx)
        } else {
            self.runner.run(job, ctx)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.walls
            .lock()
            .expect("walls lock")
            .push((job.bench.name, ms));
        result
    }
}

/// What one campaign round left behind.
struct Round {
    wall: f64,
    outcome: CampaignOutcome,
    /// Runner-call milliseconds per job.
    walls: Vec<(&'static str, f64)>,
}

/// Everything the rounds of one run accumulate.
#[derive(Default)]
struct Totals {
    rounds: usize,
    wall: f64,
    instructions: u64,
    tip_errors: Vec<f64>,
    job_ms: Vec<f64>,
    pgo_ms: Vec<f64>,
    job_wall_ms: Vec<f64>,
    pgo_wall_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    retries: u64,
    counts: SimCounts,
}

impl SuiteSpec {
    fn config(&self, seed: u64, dir: &Path, live: &Arc<LiveAggregate>) -> CampaignConfig {
        CampaignConfig {
            seed,
            max_attempts: 2,
            sampler: SamplerConfig::periodic(self.interval),
            profilers: self.profilers.clone(),
            jobs: 1,
            out_dir: Some(dir.to_path_buf()),
            checkpoint_cycles: self.checkpoint,
            resume: false,
            live: Some(Arc::clone(live)),
        }
    }

    /// Runs one campaign over `benches` into `dir`.
    ///
    /// With a tracer the campaign call is a `bench.campaign` span, whose
    /// self time is what the committer and executor add around the jobs.
    fn round(
        &self,
        benches: &[Benchmark],
        seed: u64,
        dir: &Path,
        runner: WithPgo<impl Runner>,
        tracer: Option<&Tracer>,
    ) -> Round {
        let walls = Arc::clone(&runner.walls);
        let live = Arc::new(LiveAggregate::new());
        let config = self.config(seed, dir, &live);
        let benches = benches.to_vec();
        let t = Instant::now();
        let outcome = {
            let _span = tracer.map(|t| t.span("bench.campaign"));
            run_campaign(benches, &config, runner)
        };
        let wall = t.elapsed().as_secs_f64();
        let walls = std::mem::take(&mut *walls.lock().expect("walls lock"));
        Round {
            wall,
            outcome,
            walls,
        }
    }

    /// Checks one finished round and folds it into `totals`.
    fn verify(
        &self,
        benches: &[Benchmark],
        seed: u64,
        dir: &Path,
        round: &Round,
        report: &mut Report,
        totals: &mut Totals,
    ) {
        totals.rounds += 1;
        totals.wall += round.wall;
        for &(bench, ms) in &round.walls {
            if bench == PGO_BENCH {
                totals.pgo_ms.push(ms);
            } else {
                totals.job_ms.push(ms);
            }
        }
        for f in &round.outcome.failed {
            report.fail(format!("{} failed: {}", f.name, f.error));
        }
        for c in &round.outcome.completed {
            let run = &c.run.run;
            report.check(harness::check_conservation(
                c.run.bench.name,
                &run.bank,
                run.summary.cycles,
            ));
            totals.counts.add(run);
        }
        // TIP error over a fixed seed set, whatever the host's speed.
        let fixed_seeds = totals.rounds <= MIN_ROUNDS;
        for b in benches {
            let parsed = fs::read_to_string(result_path(dir, b.name))
                .map_err(|e| format!("{}: result file: {e}", b.name))
                .and_then(|body| stats::parse_result(&body));
            let r = match parsed {
                Ok(r) => r,
                Err(e) => {
                    report.fail(format!("{}: {e}", b.name));
                    continue;
                }
            };
            totals.instructions += r.instructions;
            if fixed_seeds {
                totals.tip_errors.push(r.tip_error);
            }
            if b.name != PGO_BENCH {
                let used_seed = seed + u64::from(r.attempts) - 1;
                report.check(harness::check_instructions(
                    b.name,
                    &b.program,
                    used_seed,
                    r.instructions,
                ));
            }
        }
        match fs::read_to_string(dir.join(METRICS_FILE))
            .map_err(|e| format!("metrics.txt: {e}"))
            .and_then(|body| stats::parse_metrics(&body))
        {
            Ok(rows) => {
                for row in rows {
                    totals.retries += u64::from(row.attempts.saturating_sub(1));
                    totals.queue_ms.push(row.queue_wait_ms);
                    if row.bench == PGO_BENCH {
                        totals.pgo_wall_ms.push(row.wall_ms);
                    } else {
                        totals.job_wall_ms.push(row.wall_ms);
                    }
                }
            }
            Err(e) => report.fail(e),
        }
    }

    /// The last checkpoint a [`Replay`] round left in `dir` must load and
    /// restore. A no-op without checkpoints.
    fn check_last_checkpoint(&self, benches: &[Benchmark], dir: &Path, report: &mut Report) {
        if self.checkpoint.is_none() {
            return;
        }
        let last = benches
            .iter()
            .rev()
            .map(|b| (b, dir.join(format!("{}.tips", b.name))))
            .find(|(_, p)| p.exists());
        report.check(match last {
            Some((b, path)) => {
                harness::check_restores(&path, &b.program, SamplerConfig::periodic(self.interval))
            }
            None => Err("no checkpoint was written in the round".to_owned()),
        });
    }
}

/// Byte-compares the result files of two rounds of the same seed.
pub fn same_results(benches: &[Benchmark], a: &Path, b: &Path) -> Result<(), String> {
    for bench in benches {
        let read = |d: &Path| fs::read(result_path(d, bench.name)).unwrap_or_default();
        if read(a) != read(b) {
            return Err(format!(
                "{}: result files of {} and {} differ",
                bench.name,
                a.display(),
                b.display()
            ));
        }
    }
    Ok(())
}

/// Runs a suite workload.
///
/// # Errors
///
/// A message when the run could not be carried out at all.
pub fn run(spec: &SuiteSpec, opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let mut benches = Vec::new();
    let mut build_s = Vec::new();

    // Set-up: generate the job list, then one untimed warm-up campaign at
    // Test scale in a fresh tmpfs dir.
    let setups = time_setups(3, || {
        let t = Instant::now();
        benches = suite(spec.scale);
        build_s.push(t.elapsed().as_secs_f64());
        let warm = if spec.scale == SuiteScale::Test {
            benches.clone()
        } else {
            suite(SuiteScale::Test)
        };
        let dir = fresh_dir(&opts.work, "setup")?;
        let r = spec.round(&warm, opts.seed, &dir, WithPgo::new(SpecRunner), None);
        report.attempted += r.outcome.completed.len() as u64;
        for f in &r.outcome.failed {
            report.fail(format!("warm-up {} failed: {}", f.name, f.error));
        }
        let _ = fs::remove_dir_all(&dir);
        Ok(())
    })?;

    let min_rounds = if opts.trace {
        MIN_TRACED_PAIRS
    } else {
        MIN_ROUNDS
    };
    if opts.trace {
        let tracer = calibrated_tracer();
        let mut traced = Totals::default();
        let mut untraced_wall = 0.0;
        rounds(opts.seconds, min_rounds, |r| {
            let seed = opts.seed + r as u64;
            let plain_dir = fresh_dir(&opts.work, "plain")?;
            let plain = spec.round(&benches, seed, &plain_dir, WithPgo::new(SpecRunner), None);
            untraced_wall += plain.wall;
            let dir = fresh_dir(&opts.work, "traced")?;
            let replay = WithPgo::new(Replay {
                tracer: Some(tracer.clone()),
            });
            let round = spec.round(&benches, seed, &dir, replay, Some(&tracer));
            report.check(same_results(&benches, &plain_dir, &dir));
            report.check(same_counts(&plain.outcome, &round.outcome));
            spec.verify(&benches, seed, &dir, &round, &mut report, &mut traced);
            spec.check_last_checkpoint(&benches, &dir, &mut report);
            let _ = fs::remove_dir_all(&plain_dir);
            let _ = fs::remove_dir_all(&dir);
            Ok(())
        })?;
        layer_metrics(&mut report, &tracer, &traced, untraced_wall);
        report.set_median("workloads.build_s", &build_s);
        write_spans(opts, &tracer);
    } else {
        let mut totals = Totals::default();
        let mut peak_rss_mb = 0.0;
        rounds(opts.seconds, min_rounds, |r| {
            let seed = opts.seed + r as u64;
            // The first round's dir is kept for the replay check below.
            let dir = fresh_dir(&opts.work, if r == 0 { "first" } else { "round" })?;
            let round = spec.round(&benches, seed, &dir, WithPgo::new(SpecRunner), None);
            spec.verify(&benches, seed, &dir, &round, &mut report, &mut totals);
            if r > 0 {
                let _ = fs::remove_dir_all(&dir);
            }
            if r + 1 == MIN_ROUNDS {
                peak_rss_mb = harness::peak_rss_mb();
            }
            Ok(())
        })?;
        let first = opts.work.join("first");
        if spec.checkpoint.is_some() {
            // After the timed phase and the peak RSS reading: the
            // checkpoint restore check on a replay of the first round.
            let dir = fresh_dir(&opts.work, "replay")?;
            let replay = spec.round(
                &benches,
                opts.seed,
                &dir,
                WithPgo::new(Replay::default()),
                None,
            );
            for f in &replay.outcome.failed {
                report.fail(format!("replay {} failed: {}", f.name, f.error));
            }
            report.check(same_results(&benches, &first, &dir));
            spec.check_last_checkpoint(&benches, &dir, &mut report);
            let _ = fs::remove_dir_all(&dir);
        }
        let _ = fs::remove_dir_all(&first);
        report.set_median("setup_s", &setups);
        report.set("peak_rss_mb", peak_rss_mb, 1);
        e2e_metrics(&mut report, &totals);
    }
    Ok(report)
}

/// The simulated counts of two rounds of the same seed must be identical.
fn same_counts(a: &CampaignOutcome, b: &CampaignOutcome) -> Result<(), String> {
    let key = |o: &CampaignOutcome| {
        o.completed
            .iter()
            .map(|c| {
                let r = &c.run.run;
                (
                    c.run.bench.name,
                    r.summary,
                    r.stats,
                    r.mem_stats.dram_accesses,
                )
            })
            .collect::<Vec<_>>()
    };
    if key(a) == key(b) {
        Ok(())
    } else {
        Err("traced and untraced rounds simulated different counts".to_owned())
    }
}

fn e2e_metrics(report: &mut Report, t: &Totals) {
    report.set(
        "sim_minstr_per_s",
        t.instructions as f64 / t.wall / 1e6,
        t.rounds,
    );
    report.set_outcomes(&t.tip_errors, &t.job_ms, &t.pgo_ms);
}

fn layer_metrics(report: &mut Report, tracer: &Tracer, t: &Totals, untraced_wall: f64) {
    let n = t.rounds.max(1) as f64;
    let times = tracer.times();
    let total = |name: &str| times.get(name).map_or(0.0, |v| v.0);
    let own = |name: &str| times.get(name).map_or(0.0, |v| v.1);
    let c = |name: &str| tracer.counter(name);
    let sink_cycles = c("sink.cycles").max(1.0);
    let bank_s = c("sink.latch_s") + c("sink.on_sample_s");
    let sim_s = (own("ooo.run") - bank_s - c("sink.writer_s") - c("sink.timer_s")).max(0.0);
    let per_round = |v: f64| v / n;
    let mut set = |name: &'static str, v: f64| report.set(name, v, t.rounds);
    set("ooo.sim_s", per_round(sim_s));
    set("ooo.ns_per_cycle", sim_s / sink_cycles * 1e9);
    set("core.bank_s", per_round(bank_s));
    set("core.bank_ns_per_cycle", bank_s / sink_cycles * 1e9);
    set("core.latch_s", per_round(c("sink.latch_s")));
    set("core.on_sample_s", per_round(c("sink.on_sample_s")));
    set("core.samples", per_round(c("sink.samples")));
    set("core.flush_s", per_round(total("core.flush")));
    set("core.flushes", per_round(c("core.flushes")));
    set("core.finish_s", per_round(total("core.finish")));
    set("ooo.snapshot_s", per_round(total("ooo.snapshot")));
    set("ooo.snapshot_bytes", per_round(c("ooo.snapshot_bytes")));
    set("core.snapshot_s", per_round(total("core.snapshot")));
    set("core.snapshot_bytes", per_round(c("core.snapshot_bytes")));
    set("trace.encode_s", per_round(c("sink.writer_s")));
    set("trace.bytes", per_round(c("trace.bytes")));
    let mb_per_s = if c("sink.writer_s") > 0.0 && c("trace.bytes") > 0.0 {
        c("trace.bytes") / c("sink.writer_s") / 1e6
    } else {
        0.0
    };
    set("trace.mb_per_s", mb_per_s);
    set(
        "bench.checkpoint_write_s",
        per_round(total("bench.checkpoint_write")),
    );
    set("bench.checkpoints", per_round(c("bench.checkpoints")));
    set("bench.commit_s", per_round(own("bench.campaign")));
    set("bench.retries", per_round(t.retries as f64));
    set(
        "traced.overhead_pct",
        (t.wall / untraced_wall.max(1e-9) - 1.0) * 100.0,
    );
    t.counts.report(report, t.rounds);
    report.set_median("bench.job_wall_ms", &t.job_wall_ms);
    report.set_median("bench.queue_wait_ms", &t.queue_ms);
    report.set_median("pgo.job_wall_ms", &t.pgo_wall_ms);
}

/// Writes the recorded spans next to the tmpfs mount, once, at the end.
pub fn write_spans(opts: &Opts, tracer: &Tracer) {
    let Some(parent) = opts.work.parent() else {
        return;
    };
    let path = parent.join(format!("spans-{}-seed{}.tsv", opts.workload, opts.seed));
    if let Err(e) = fs::write(&path, tracer.render()) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
