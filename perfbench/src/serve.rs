//! The service workloads: `serve-daemon` and `serve-fleet`.
//!
//! Each round starts a fresh in-process `tip_serve::serve` on a fresh
//! tmpfs campaign dir — a daemon treats a benchmark name it has already
//! run as done, so a second round on one daemon would measure nothing.
//! `serve-daemon` runs the local engine with one worker; `serve-fleet`
//! runs a coordinator with one in-process `run_agent` (one worker). One
//! generator thread runs a closed loop over the 27 Test-scale benchmarks
//! (submit, watch to `Done`, submit the next; imagick as a pgo job) while a
//! second thread sends `TopN` queries every 10 ms. Rounds are shut down
//! over the wire: an in-process shutdown of a coordinator closes the
//! listener before the agent hears the drain.
//!
//! Latencies are measured by the client; daemon start and drain are timed
//! separately and excluded. After the first rounds, a round drains while
//! the next one runs, so the coordinator's settle window does not take
//! most of a run's time.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use tip_bench::campaign::{run_campaign, CampaignConfig};
use tip_bench::ledger::{result_path, METRICS_FILE};
use tip_bench::{run_profiled, SpecRunner, DEFAULT_INTERVAL};
use tip_core::{ProfilerId, SamplerConfig};
use tip_ooo::CoreConfig;
use tip_serve::{
    run_agent, serve, AgentConfig, Client, JobSpec, JobState, QueryKind, ServerConfig,
};
use tip_workloads::{suite, Benchmark, SuiteScale};

use crate::harness::{
    self, fresh_dir, rounds, time_setups, Opts, Report, SimCounts, MIN_ROUNDS, PGO_BENCH,
};
use crate::stats::{self, MetricsRow, ResultFile};
use crate::suite::WithPgo;

/// How often the reader thread sends a `TopN` query.
const QUERY_PERIOD: Duration = Duration::from_millis(10);

/// How long a round waits for the fleet agent to register.
const REGISTER_TIMEOUT: Duration = Duration::from_secs(10);

/// One job as the client saw it.
struct JobTiming {
    bench: &'static str,
    job: u64,
    final_state: JobState,
    submit_ms: f64,
    /// Submit returned → first `Running` seen.
    dispatch_ms: f64,
    /// `submit` called → `Done` seen.
    latency_ms: f64,
}

/// What one round measured.
struct ServeRound {
    jobs: Vec<JobTiming>,
    /// First submit → last `Done`.
    window_s: f64,
    start_ms: f64,
    register_ms: Option<f64>,
    /// Wire shutdown → server joined.
    drain_ms: f64,
    /// Wire shutdown → fleet agent exited.
    agent_drain_s: Option<f64>,
    queries_ms: Vec<f64>,
    query_errors: Vec<String>,
    reassigned: u32,
    /// Result bytes fetched over the wire, per benchmark.
    wire: BTreeMap<&'static str, String>,
}

fn spec_for(bench: &str, seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(bench, SuiteScale::Test);
    spec.seed = seed;
    spec.pgo = bench == PGO_BENCH;
    spec
}

/// Sends a `TopN` query every [`QUERY_PERIOD`] until `stop`.
fn query_loop(client: &Client, stop: &AtomicBool) -> (Vec<f64>, Vec<String>) {
    let (mut ms, mut errors) = (Vec::new(), Vec::new());
    while !stop.load(Ordering::SeqCst) {
        let t = Instant::now();
        match client.query(QueryKind::TopN, "", None, 10) {
            Ok(_) => ms.push(t.elapsed().as_secs_f64() * 1e3),
            Err(e) => errors.push(format!("query: {e}")),
        }
        thread::sleep(QUERY_PERIOD);
    }
    (ms, errors)
}

/// A round whose server (and fleet agent) has been told over the wire to
/// shut down and may still be draining. A coordinator's drain waits out
/// its settle window, about twice as long as the round's jobs, so the next
/// round runs while this one drains. The round's `metrics.txt` is complete
/// only once it has been joined.
struct Draining {
    round: ServeRound,
    drain: thread::JoinHandle<Result<(f64, Option<f64>), String>>,
}

impl Draining {
    /// Waits for the drain and returns the finished round.
    fn join(self) -> Result<ServeRound, String> {
        let (drain_ms, agent_drain_s) = self.drain.join().expect("drain thread")?;
        Ok(ServeRound {
            drain_ms,
            agent_drain_s,
            ..self.round
        })
    }
}

/// Runs the job list once against a fresh server in `dir`, and shuts the
/// server down without waiting for its drain.
fn round(fleet: bool, benches: &[Benchmark], seed: u64, dir: &Path) -> Result<Draining, String> {
    let t0 = Instant::now();
    let mut config = ServerConfig::new(dir.to_path_buf());
    config.workers = 1;
    config.coordinator = fleet;
    let handle = serve(&config).map_err(|e| format!("serve: {e}"))?;
    let addr = handle.addr().to_string();
    let client = Client::new(&addr);
    let agent = fleet.then(|| {
        let mut agent = AgentConfig::new(addr.clone());
        agent.workers = 1;
        thread::spawn(move || run_agent(&agent))
    });
    let stop = AtomicBool::new(false);
    let measured = thread::scope(|s| {
        let register_ms = if fleet {
            let t = Instant::now();
            loop {
                if client.stats().map_err(|e| format!("stats: {e}"))?.daemons >= 1 {
                    break Some(t.elapsed().as_secs_f64() * 1e3);
                }
                if t.elapsed() > REGISTER_TIMEOUT {
                    return Err("the fleet agent never registered".to_owned());
                }
                thread::sleep(Duration::from_millis(1));
            }
        } else {
            None
        };
        let start_ms = t0.elapsed().as_secs_f64() * 1e3;

        let reader = s.spawn(|| query_loop(&Client::new(&addr), &stop));
        let mut jobs = Vec::with_capacity(benches.len());
        let window = Instant::now();
        let mut failure = None;
        for b in benches {
            let t = Instant::now();
            let job = match client.submit(&spec_for(b.name, seed)) {
                Ok(job) => job,
                Err(e) => {
                    failure = Some(format!("{}: submit: {e}", b.name));
                    break;
                }
            };
            let submitted = Instant::now();
            let mut running = None;
            let watched = client.watch(job, |state| {
                if matches!(state, JobState::Running { .. }) && running.is_none() {
                    running = Some(Instant::now());
                }
            });
            let done = Instant::now();
            let final_state = match watched {
                Ok(state) => state,
                Err(e) => {
                    failure = Some(format!("{}: watch: {e}", b.name));
                    break;
                }
            };
            let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
            jobs.push(JobTiming {
                bench: b.name,
                job,
                final_state,
                submit_ms: ms(t, submitted),
                dispatch_ms: running.map_or(0.0, |r| ms(submitted, r)),
                latency_ms: ms(t, done),
            });
        }
        let window_s = window.elapsed().as_secs_f64();
        stop.store(true, Ordering::SeqCst);
        let (queries_ms, query_errors) = reader.join().expect("query thread");

        let mut wire = BTreeMap::new();
        for j in &jobs {
            match client.result(j.job) {
                Ok(body) => {
                    wire.insert(j.bench, body);
                }
                Err(e) => failure = failure.or(Some(format!("{}: result: {e}", j.bench))),
            }
        }
        let reassigned = client.stats().map(|st| st.reassigned).unwrap_or(0);
        if let Some(f) = failure {
            return Err(f);
        }
        Ok(ServeRound {
            jobs,
            window_s,
            start_ms,
            register_ms,
            drain_ms: 0.0,
            agent_drain_s: None,
            queries_ms,
            query_errors,
            reassigned,
            wire,
        })
    });
    let t = Instant::now();
    client
        .shutdown(true)
        .map_err(|e| format!("shutdown: {e}"))?;
    let drain = thread::spawn(move || {
        handle.join();
        let drain_ms = t.elapsed().as_secs_f64() * 1e3;
        let agent_drain_s = match agent {
            Some(agent) => {
                agent
                    .join()
                    .expect("agent thread")
                    .map_err(|e| format!("agent: {e}"))?;
                Some(t.elapsed().as_secs_f64())
            }
            None => None,
        };
        Ok((drain_ms, agent_drain_s))
    });
    match measured {
        Ok(round) => Ok(Draining { round, drain }),
        Err(e) => {
            let _ = drain.join();
            Err(e)
        }
    }
}

/// Everything the rounds of one run accumulate.
#[derive(Default)]
struct Totals {
    rounds: usize,
    window_s: f64,
    instructions: u64,
    tip_errors: Vec<f64>,
    latency_ms: Vec<f64>,
    pgo_ms: Vec<f64>,
    queries_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    dispatch_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    start_ms: Vec<f64>,
    register_ms: Vec<f64>,
    drain_ms: Vec<f64>,
    agent_drain_s: Vec<f64>,
    job_wall_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    pgo_wall_ms: Vec<f64>,
    retries: u64,
    reassigned: u64,
}

/// Checks one round's outputs and folds its timings into `totals`.
fn verify(
    benches: &[Benchmark],
    seed: u64,
    dir: &Path,
    r: &ServeRound,
    report: &mut Report,
    totals: &mut Totals,
) {
    totals.rounds += 1;
    totals.window_s += r.window_s;
    totals.queries_ms.extend(&r.queries_ms);
    totals.start_ms.push(r.start_ms);
    totals.register_ms.extend(r.register_ms);
    totals.drain_ms.push(r.drain_ms);
    totals.agent_drain_s.extend(r.agent_drain_s);
    totals.reassigned += u64::from(r.reassigned);
    for e in &r.query_errors {
        report.fail(e.clone());
    }
    let rows: BTreeMap<String, MetricsRow> = match fs::read_to_string(dir.join(METRICS_FILE))
        .map_err(|e| format!("metrics.txt: {e}"))
        .and_then(|body| stats::parse_metrics(&body))
    {
        Ok(rows) => rows.into_iter().map(|m| (m.bench.clone(), m)).collect(),
        Err(e) => {
            report.fail(e);
            BTreeMap::new()
        }
    };
    // TIP error over a fixed seed set, whatever the host's speed.
    let fixed_seeds = totals.rounds <= MIN_ROUNDS;
    for j in &r.jobs {
        report.check(check_job(benches, seed, dir, r, j).map(|result| {
            totals.instructions += result.instructions;
            if fixed_seeds {
                totals.tip_errors.push(result.tip_error);
            }
            totals.retries += u64::from(result.attempts - 1);
        }));
        let wall = rows.get(j.bench).map_or(0.0, |m| m.wall_ms);
        if let Some(m) = rows.get(j.bench) {
            totals.queue_ms.push(m.queue_wait_ms);
        }
        if j.bench == PGO_BENCH {
            totals.pgo_ms.push(j.latency_ms);
            totals.pgo_wall_ms.push(wall);
            continue;
        }
        totals.latency_ms.push(j.latency_ms);
        totals.submit_ms.push(j.submit_ms);
        totals.dispatch_ms.push(j.dispatch_ms);
        totals.job_wall_ms.push(wall);
        totals
            .commit_ms
            .push(j.latency_ms - j.submit_ms - j.dispatch_ms - wall);
    }
    if r.jobs.len() != benches.len() {
        report.fail(format!("{} of {} jobs ran", r.jobs.len(), benches.len()));
    }
}

/// One job's checks: `Done{ok}`, wire bytes equal the disk bytes, the
/// committed instruction count equals the functional model's, and the pgo
/// job beats the plain run of its benchmark.
fn check_job(
    benches: &[Benchmark],
    seed: u64,
    dir: &Path,
    r: &ServeRound,
    j: &JobTiming,
) -> Result<ResultFile, String> {
    if !matches!(j.final_state, JobState::Done { ok: true, .. }) {
        return Err(format!("{}: ended {:?}", j.bench, j.final_state));
    }
    let disk = fs::read_to_string(result_path(dir, j.bench))
        .map_err(|e| format!("{}: result file: {e}", j.bench))?;
    if r.wire.get(j.bench) != Some(&disk) {
        return Err(format!(
            "{}: wire result differs from the disk file",
            j.bench
        ));
    }
    let result = stats::parse_result(&disk).map_err(|e| format!("{}: {e}", j.bench))?;
    let bench = benches
        .iter()
        .find(|b| b.name == j.bench)
        .ok_or_else(|| format!("{}: not in the job list", j.bench))?;
    let used_seed = seed + u64::from(result.attempts) - 1;
    if j.bench == PGO_BENCH {
        let plain = run_profiled(
            &bench.program,
            CoreConfig::default(),
            SamplerConfig::periodic(DEFAULT_INTERVAL),
            &ProfilerId::ALL,
            used_seed,
        )
        .map_err(|e| format!("plain {}: {e}", j.bench))?;
        if result.cycles >= plain.summary.cycles {
            return Err(format!(
                "pgo {} took {} cycles, the plain run {}",
                j.bench, result.cycles, plain.summary.cycles
            ));
        }
    } else {
        harness::check_instructions(j.bench, &bench.program, used_seed, result.instructions)?;
    }
    Ok(result)
}

/// The first round's result files must equal, byte for byte, those of an
/// in-process campaign over the same specs; its runs also give the Oracle
/// conservation check and the simulated counts.
fn check_against_campaign(
    benches: &[Benchmark],
    seed: u64,
    served: &Path,
    work: &Path,
    report: &mut Report,
) -> Result<SimCounts, String> {
    let dir = fresh_dir(work, "campaign")?;
    let config = CampaignConfig {
        seed,
        max_attempts: 2,
        sampler: SamplerConfig::periodic(DEFAULT_INTERVAL),
        profilers: ProfilerId::ALL.to_vec(),
        jobs: 1,
        out_dir: Some(dir.clone()),
        checkpoint_cycles: None,
        resume: false,
        live: None,
    };
    let outcome = run_campaign(benches.to_vec(), &config, WithPgo::new(SpecRunner));
    let mut counts = SimCounts::default();
    for c in &outcome.completed {
        let run = &c.run.run;
        counts.add(run);
        report.check(harness::check_conservation(
            c.run.bench.name,
            &run.bank,
            run.summary.cycles,
        ));
    }
    for b in benches {
        let read = |d: &Path| fs::read(result_path(d, b.name)).ok();
        report.check(match (read(served), read(&dir)) {
            (Some(a), Some(c)) if a == c => Ok(()),
            _ => Err(format!(
                "{}: served result differs from the in-process campaign",
                b.name
            )),
        });
    }
    let _ = fs::remove_dir_all(&dir);
    Ok(counts)
}

/// Runs a service workload.
///
/// # Errors
///
/// A message when a round could not be carried out at all.
pub fn run(fleet: bool, opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let mut benches = Vec::new();
    let mut build_s = Vec::new();
    let setups = time_setups(3, || {
        let t = Instant::now();
        benches = suite(SuiteScale::Test);
        build_s.push(t.elapsed().as_secs_f64());
        let dir = fresh_dir(&opts.work, "setup")?;
        let warm = round(fleet, &benches, opts.seed, &dir)?.join()?;
        for j in &warm.jobs {
            report.check(
                if matches!(j.final_state, JobState::Done { ok: true, .. }) {
                    Ok(())
                } else {
                    Err(format!("warm-up {}: ended {:?}", j.bench, j.final_state))
                },
            );
        }
        let _ = fs::remove_dir_all(&dir);
        Ok(())
    })?;

    let mut totals = Totals::default();
    let mut peak_rss_mb = 0.0;
    // Joins a drained round, checks it, and removes its dir; the first
    // round's dir is kept for the campaign check below.
    let mut settle = |(n, dir, draining): (usize, PathBuf, Draining)| {
        let r = draining.join()?;
        verify(
            &benches,
            opts.seed + n as u64,
            &dir,
            &r,
            &mut report,
            &mut totals,
        );
        if n > 0 {
            let _ = fs::remove_dir_all(&dir);
        }
        Ok::<_, String>(())
    };
    // A traced run's rounds are the timed run's rounds: the per-layer
    // numbers come from the same client-side timestamps and metrics.txt.
    let mut draining = None;
    rounds(opts.seconds, MIN_ROUNDS, |n| {
        let dir = fresh_dir(&opts.work, &format!("round{n}"))?;
        let next = round(fleet, &benches, opts.seed + n as u64, &dir)?;
        let current = (n, dir, next);
        if let Some(previous) = draining.take() {
            settle(previous)?;
        }
        // The first rounds drain before the next one starts, so that
        // `peak_rss_mb`, read after them, sees one server at a time.
        if n < MIN_ROUNDS {
            settle(current)?;
        } else {
            draining = Some(current);
        }
        if n + 1 == MIN_ROUNDS {
            peak_rss_mb = harness::peak_rss_mb();
        }
        Ok(())
    })?;
    if let Some(last) = draining {
        settle(last)?;
    }
    // After the timed rounds, so the campaign's memory is not part of
    // `peak_rss_mb`.
    let first = opts.work.join("round0");
    let counts = check_against_campaign(&benches, opts.seed, &first, &opts.work, &mut report)?;
    let _ = fs::remove_dir_all(&first);

    let t = &totals;
    if opts.trace {
        let n = t.rounds.max(1) as f64;
        report.set_median("workloads.build_s", &build_s);
        // The simulations run inside the server; their counts come from the
        // in-process campaign over the first round's specs.
        counts.report(&mut report, 1);
        report.set_median("bench.job_wall_ms", &t.job_wall_ms);
        report.set_median("bench.queue_wait_ms", &t.queue_ms);
        report.set("bench.retries", t.retries as f64 / n, t.rounds);
        report.set_median("serve.submit_ms", &t.submit_ms);
        report.set_median("serve.dispatch_ms", &t.dispatch_ms);
        report.set_median("serve.commit_ms", &t.commit_ms);
        report.set_median("serve.query_ms", &t.queries_ms);
        report.set("serve.reassigned", t.reassigned as f64 / n, t.rounds);
        report.set_median("serve.start_ms", &t.start_ms);
        report.set_median("serve.drain_ms", &t.drain_ms);
        report.set_median("fleet.register_ms", &t.register_ms);
        report.set_median("fleet.drain_s", &t.agent_drain_s);
        report.set_median("pgo.job_wall_ms", &t.pgo_wall_ms);
        // The traced rounds carry no instrumentation of their own.
        report.set("traced.overhead_pct", 0.0, t.rounds);
    } else {
        report.set_median("setup_s", &setups);
        report.set(
            "sim_minstr_per_s",
            t.instructions as f64 / t.window_s / 1e6,
            t.rounds,
        );
        report.set("peak_rss_mb", peak_rss_mb, 1);
        report.set_outcomes(&t.tip_errors, &t.latency_ms, &t.pgo_ms);
    }
    Ok(report)
}
