//! Chaos suite: every single-fault scenario the service claims to survive,
//! each asserted against the same oracle — the deterministic campaign
//! artifacts (`journal.txt`, `<bench>.result`, `failures.txt`) must be
//! byte-identical to an uninterrupted *local* [`run_campaign`] over the
//! same job sequence, and a job settled in the ledger must never have
//! executed twice (asserted via the per-bench `assignments` counter in
//! `metrics.txt` and the engine's stale-result counter).
//!
//! The six faults, one test each:
//!
//! 1. frame corruption on the wire (chaosnet `CorruptChunks`)
//! 2. connection drop mid-watch (chaosnet `Disconnect`)
//! 3. worker panic mid-job (a panic payload that escapes attempt isolation)
//! 4. lease expiry after a worker hang (slow runner outlives its lease)
//! 5. daemon SIGKILL + restart `--resume` (real `tipd` subprocess)
//! 6. Overloaded shed + client retry (queue-depth watermark)
//!
//! `metrics.txt` is host wall-clock timing and excluded from the byte
//! diff, exactly as in `crates/bench/tests/parallel_kill_resume.rs` — its
//! `assignments` column is instead asserted directly.

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufRead, BufReader, Read};
use std::panic;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use tip_bench::campaign::{run_campaign, CampaignConfig};
use tip_bench::executor::{Job, RunCtx, Runner, SpecRunner};
use tip_core::ProfilerId;
use tip_serve::{
    chaos_proxy, serve, serve_with_runner, ChaosConfig, Client, Engine, EngineConfig, JobSpec,
    JobState, ServerConfig,
};
use tip_trace::fault::{Fault, FaultPlan};
use tip_workloads::{benchmark, SuiteScale, BENCHMARK_NAMES};

/// Enough benches that faults land mid-campaign; small enough to keep six
/// scenarios quick at `Test` scale.
const SUITE_LEN: usize = 5;

const DEADLINE: Duration = Duration::from_secs(300);

fn names() -> &'static [&'static str] {
    &BENCHMARK_NAMES[..SUITE_LEN]
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tip-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn spec_for(name: &str) -> JobSpec {
    let mut spec = JobSpec::new(name, SuiteScale::Test);
    spec.profilers = vec![ProfilerId::Tip];
    spec
}

/// The fault-free local oracle: same benches, same order, same specs.
fn reference_dir(tag: &str) -> PathBuf {
    let dir = tmp_dir(&format!("{tag}-ref"));
    let config = CampaignConfig {
        profilers: vec![ProfilerId::Tip],
        out_dir: Some(dir.clone()),
        ..CampaignConfig::default()
    };
    let benches = names()
        .iter()
        .map(|&n| benchmark(n, SuiteScale::Test))
        .collect();
    let outcome = run_campaign(benches, &config, SpecRunner);
    assert_eq!(outcome.completed.len(), SUITE_LEN, "oracle run is clean");
    dir
}

/// The deterministic artifacts; `metrics.txt` is host timing and excluded.
fn artifacts(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .expect("campaign dir exists")
        .map(|e| e.expect("dir entry"))
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.ends_with(".result") || name == "journal.txt" || name == "failures.txt"
        })
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).expect("artifact readable"),
            )
        })
        .collect()
}

fn done_lines(dir: &Path) -> Vec<String> {
    fs::read_to_string(dir.join("journal.txt"))
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.strip_prefix("done ").map(str::to_owned))
        .collect()
}

/// Per-bench `assignments` column of `metrics.txt` — how many workers each
/// job actually burned. "Never executed twice" means every bench the fault
/// did *not* touch shows 1, and a reassigned bench shows exactly 2.
fn assignments_by_bench(dir: &Path) -> BTreeMap<String, u32> {
    fs::read_to_string(dir.join("metrics.txt"))
        .expect("metrics.txt exists")
        .lines()
        .filter(|l| l.starts_with("bench="))
        .map(|l| {
            let mut name = String::new();
            let mut assignments = 0u32;
            for tok in l.split_whitespace() {
                if let Some(v) = tok.strip_prefix("bench=") {
                    name = v.to_owned();
                }
                if let Some(v) = tok.strip_prefix("assignments=") {
                    assignments = v.parse().expect("assignments count");
                }
            }
            (name, assignments)
        })
        .collect()
}

fn assert_identical(dir: &Path, reference: &Path) {
    assert_eq!(
        done_lines(dir).len(),
        SUITE_LEN,
        "journal covers the whole suite"
    );
    assert_eq!(
        artifacts(reference),
        artifacts(dir),
        "artifacts byte-identical to the fault-free local run"
    );
    let _ = fs::remove_dir_all(reference);
}

fn wait_engine_done(engine: &Engine, job: u64) -> JobState {
    let deadline = Instant::now() + DEADLINE;
    loop {
        let state = engine.status(job).expect("known job");
        if state.is_terminal() {
            return state;
        }
        assert!(Instant::now() < deadline, "job {job} never settled");
        thread::sleep(Duration::from_millis(10));
    }
}

/// Status polling that shrugs off wire damage: on a chaotic link a poll
/// may fail even after the client's own retries — only the deadline gives
/// up.
fn wait_wire_done(client: &Client, job: u64) -> JobState {
    let deadline = Instant::now() + DEADLINE;
    loop {
        if let Ok(state) = client.status(job) {
            if state.is_terminal() {
                return state;
            }
        }
        assert!(Instant::now() < deadline, "job {job} never settled");
        thread::sleep(Duration::from_millis(10));
    }
}

/// Fault 1: every frame risks a flipped byte, in both directions. CRC
/// classification turns each hit into a typed refusal or a dead
/// connection; the client's retry + request-id dedup must still land
/// every submit exactly once.
#[test]
fn frame_corruption_retries_to_identical_artifacts() {
    let reference = reference_dir("corrupt");
    let srv_dir = tmp_dir("corrupt-srv");
    let mut cfg = ServerConfig::new(srv_dir.clone());
    cfg.workers = 2;
    let handle = serve(&cfg).expect("bind");

    let proxy = chaos_proxy(&ChaosConfig::new(
        &handle.addr().to_string(),
        FaultPlan::new(0xC0DE, vec![Fault::CorruptChunks { one_in: 6 }]),
    ))
    .expect("proxy bind");

    let client = Client::new(&proxy.addr().to_string())
        .with_retry(12, Duration::from_millis(5))
        .with_request_retries(12)
        .with_seed(1);
    let mut ids = Vec::new();
    for &name in names() {
        ids.push(client.submit(&spec_for(name)).expect("submit survives"));
    }
    // Dedup proof: retried submits never enqueued a duplicate.
    assert_eq!(ids, (1..=SUITE_LEN as u64).collect::<Vec<_>>());

    for &id in &ids {
        let state = wait_wire_done(&client, id);
        assert!(matches!(
            state,
            JobState::Done {
                ok: true,
                attempts: 1
            }
        ));
    }
    handle.shutdown();

    let stats = proxy.stats();
    assert!(
        stats.total().corrupted_chunks >= 1,
        "the fault actually fired"
    );
    proxy.shutdown();

    // No fault reached a worker: every bench ran on exactly one.
    assert!(assignments_by_bench(&srv_dir).values().all(|&a| a == 1));
    assert_identical(&srv_dir, &reference);
    let _ = fs::remove_dir_all(&srv_dir);
}

/// Fault 2: the watch connection is cut every 56 response bytes — just
/// over one v4 `Progress` frame (45 bytes with the streamed-cycles
/// tail), so at most one frame survives per connection. The client must
/// reconnect with `Watch{from_seq}` and resume the stream without
/// replaying or losing states.
#[test]
fn connection_drop_mid_watch_resumes_the_stream() {
    let reference = reference_dir("drop");
    let srv_dir = tmp_dir("drop-srv");
    // One worker and a 100 ms runner: the last job's watch provably spans
    // several progress frames.
    let slow = |job: &Job, ctx: &RunCtx| {
        thread::sleep(Duration::from_millis(100));
        SpecRunner.run(job, ctx)
    };
    let mut cfg = ServerConfig::new(srv_dir.clone());
    cfg.workers = 1;
    let handle = serve_with_runner(&cfg, slow).expect("bind");
    let direct = Client::new(&handle.addr().to_string());
    let mut ids = Vec::new();
    for &name in names() {
        ids.push(direct.submit(&spec_for(name)).expect("submit"));
    }

    let mut chaos = ChaosConfig::new(
        &handle.addr().to_string(),
        FaultPlan::new(7, vec![Fault::Disconnect { after_bytes: 56 }]),
    );
    chaos.fault_upstream = false; // requests arrive; replies get cut
    let proxy = chaos_proxy(&chaos).expect("proxy bind");

    let watcher = Client::new(&proxy.addr().to_string())
        .with_retry(8, Duration::from_millis(5))
        .with_request_retries(64)
        .with_seed(2);
    let mut seen = Vec::new();
    let last = watcher
        .watch(*ids.last().expect("ids"), |s| seen.push(s))
        .expect("watch survives the cuts");
    assert_eq!(
        last,
        JobState::Done {
            ok: true,
            attempts: 1
        }
    );
    assert!(!seen.is_empty(), "progress streamed");
    assert!(
        proxy.stats().total().disconnects >= 1,
        "the stream was actually cut at least once"
    );
    proxy.shutdown();

    for &id in &ids {
        let state = wait_wire_done(&direct, id);
        assert!(matches!(
            state,
            JobState::Done {
                ok: true,
                attempts: 1
            }
        ));
    }
    handle.shutdown();

    assert!(assignments_by_bench(&srv_dir).values().all(|&a| a == 1));
    assert_identical(&srv_dir, &reference);
    let _ = fs::remove_dir_all(&srv_dir);
}

/// A panic payload that detonates again when dropped: `run_job`'s
/// per-attempt `catch_unwind` catches the first panic, then dies for real
/// dropping the payload — the worker *thread* is gone mid-job, exactly
/// the fault the lease reaper exists for.
struct Grenade;

impl Drop for Grenade {
    fn drop(&mut self) {
        if !thread::panicking() {
            panic!("grenade payload detonated on drop: the worker thread dies");
        }
    }
}

/// Fault 3: a worker thread dies mid-job. The reaper must requeue its job
/// under a fresh epoch, a surviving worker re-runs it from attempt 1, and
/// the committed artifacts show no trace of the dead assignment.
#[test]
fn worker_panic_mid_job_is_reassigned() {
    let reference = reference_dir("panic");
    let dir = tmp_dir("panic-srv");
    let armed = Arc::new(AtomicBool::new(true));
    let grenade = {
        let armed = Arc::clone(&armed);
        move |job: &Job, ctx: &RunCtx| {
            if armed.swap(false, Ordering::SeqCst) {
                panic::panic_any(Grenade);
            }
            SpecRunner.run(job, ctx)
        }
    };
    let engine = Engine::start_with_runner(
        &EngineConfig {
            out_dir: dir.clone(),
            workers: 2,
            resume: false,
            lease: Duration::from_millis(100),
        },
        grenade,
    );
    let mut ids = Vec::new();
    for &name in names() {
        ids.push(engine.submit(&spec_for(name)).expect("submit"));
    }
    for &id in &ids {
        let state = wait_engine_done(&engine, id);
        // attempts=1: the committed run is the clean reassignment, not a
        // retry of the dead one.
        assert!(
            matches!(
                state,
                JobState::Done {
                    ok: true,
                    attempts: 1
                }
            ),
            "job {id} ended {state:?}"
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.reassigned, 1, "exactly one lease expired");
    assert_eq!(engine.stale_results(), 0, "the dead worker never settled");
    // Shutdown terminates even though one worker thread is gone.
    engine.shutdown();

    let assignments = assignments_by_bench(&dir);
    assert_eq!(
        assignments.values().filter(|&&a| a == 2).count(),
        1,
        "exactly one bench burned a second worker: {assignments:?}"
    );
    assert!(assignments.values().all(|&a| a <= 2));
    assert_identical(&dir, &reference);
    let _ = fs::remove_dir_all(&dir);
}

/// Fault 4: a worker hangs past its lease, then wakes and finishes. The
/// reaper reassigns the job; the straggler's late result must be
/// discarded as stale — exactly one assignment's result reaches the
/// ledger.
#[test]
fn lease_expiry_after_hang_discards_the_stale_result() {
    let reference = reference_dir("hang");
    let dir = tmp_dir("hang-srv");
    let armed = Arc::new(AtomicBool::new(true));
    let hang = {
        let armed = Arc::clone(&armed);
        move |job: &Job, ctx: &RunCtx| {
            if armed.swap(false, Ordering::SeqCst) {
                // Well past the 100 ms lease: the reaper fires mid-sleep.
                thread::sleep(Duration::from_millis(1200));
            }
            SpecRunner.run(job, ctx)
        }
    };
    let engine = Engine::start_with_runner(
        &EngineConfig {
            out_dir: dir.clone(),
            workers: 2,
            resume: false,
            lease: Duration::from_millis(100),
        },
        hang,
    );
    let mut ids = Vec::new();
    for &name in names() {
        ids.push(engine.submit(&spec_for(name)).expect("submit"));
    }
    for &id in &ids {
        let state = wait_engine_done(&engine, id);
        assert!(
            matches!(
                state,
                JobState::Done {
                    ok: true,
                    attempts: 1
                }
            ),
            "job {id} ended {state:?}"
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.reassigned, 1, "the hung worker's lease expired");
    // The straggler woke, finished, and its result was discarded.
    let deadline = Instant::now() + DEADLINE;
    while engine.stale_results() < 1 {
        assert!(Instant::now() < deadline, "stale result never surfaced");
        thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(engine.stale_results(), 1);
    engine.shutdown();

    let assignments = assignments_by_bench(&dir);
    assert_eq!(
        assignments.values().filter(|&&a| a == 2).count(),
        1,
        "exactly one bench was reassigned: {assignments:?}"
    );
    assert_identical(&dir, &reference);
    let _ = fs::remove_dir_all(&dir);
}

fn spawn_tipd(dir: &Path, resume: bool) -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tipd"));
    cmd.arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--out")
        .arg(dir)
        .arg("--jobs")
        .arg("2")
        .stderr(Stdio::piped());
    if resume {
        cmd.arg("--resume");
    }
    let mut child = cmd.spawn().expect("spawn tipd");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(
            lines.read_line(&mut line).expect("tipd stderr") > 0,
            "tipd exited before announcing its address"
        );
        if let Some(rest) = line.trim().strip_prefix("tipd: listening on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("addr token")
                .to_owned();
        }
    };
    // Keep draining stderr so the daemon never blocks on a full pipe.
    thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = lines.read_to_end(&mut sink);
    });
    (child, addr)
}

/// Fault 5: SIGKILL the daemon mid-campaign — no drain, no goodbye — then
/// restart with `--resume`. The journal's committed prefix is skipped,
/// the rest re-runs, and the artifacts match the uninterrupted oracle.
#[test]
fn daemon_sigkill_resumes_to_identical_artifacts() {
    let reference = reference_dir("kill");
    let dir = tmp_dir("kill-srv");

    let (mut child, addr) = spawn_tipd(&dir, false);
    let client = Client::new(&addr);
    for &name in names() {
        client.submit(&spec_for(name)).expect("submit");
    }
    // Let the campaign commit something, then pull the plug (SIGKILL).
    let deadline = Instant::now() + DEADLINE;
    while done_lines(&dir).is_empty() {
        assert!(Instant::now() < deadline, "no job ever committed");
        thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL tipd");
    let _ = child.wait();
    let at_kill = done_lines(&dir);
    assert!(!at_kill.is_empty());

    let (mut child, addr) = spawn_tipd(&dir, true);
    let client = Client::new(&addr);
    let mut ids = Vec::new();
    for &name in names() {
        ids.push(client.submit(&spec_for(name)).expect("resubmit"));
    }
    for &id in &ids {
        let state = wait_wire_done(&client, id);
        assert!(
            matches!(state, JobState::Done { ok: true, .. }),
            "job {id} ended {state:?}"
        );
    }
    // The journalled prefix was acknowledged, not re-executed.
    if at_kill.len() < SUITE_LEN {
        assert_eq!(
            client.status(ids[0]).expect("status"),
            JobState::Done {
                ok: true,
                attempts: 0
            }
        );
    }
    client.shutdown(true).expect("wire shutdown");
    let status = child.wait().expect("tipd exit");
    assert!(status.success(), "drained daemon exits clean: {status:?}");

    assert_identical(&dir, &reference);
    let _ = fs::remove_dir_all(&dir);
}

/// Fault 6: the submit queue hits the shed watermark. Surplus submits get
/// a typed `Overloaded{retry_after_ms}`; the client honors the hint and
/// retries until the queue drains — every job still runs exactly once.
#[test]
fn overload_shed_then_client_retry_completes_the_suite() {
    let reference = reference_dir("shed");
    let srv_dir = tmp_dir("shed-srv");
    // One worker holding each job 100 ms, shedding beyond one queued job:
    // a burst of submits is guaranteed to hit the watermark.
    let slow = |job: &Job, ctx: &RunCtx| {
        thread::sleep(Duration::from_millis(100));
        SpecRunner.run(job, ctx)
    };
    let mut cfg = ServerConfig::new(srv_dir.clone());
    cfg.workers = 1;
    cfg.shed_watermark = 1;
    cfg.retry_after_ms = 25;
    let handle = serve_with_runner(&cfg, slow).expect("bind");
    let client = Client::new(&handle.addr().to_string())
        .with_retry(5, Duration::from_millis(10))
        .with_request_retries(40)
        .with_seed(3);

    let mut ids = Vec::new();
    for &name in names() {
        ids.push(client.submit(&spec_for(name)).expect("submit after shed"));
    }
    assert_eq!(ids, (1..=SUITE_LEN as u64).collect::<Vec<_>>());
    for &id in &ids {
        let state = wait_wire_done(&client, id);
        assert!(matches!(
            state,
            JobState::Done {
                ok: true,
                attempts: 1
            }
        ));
    }
    let stats = client.stats().expect("stats");
    assert!(stats.shed >= 1, "the watermark actually shed a submit");
    assert_eq!(stats.done, SUITE_LEN as u32);
    handle.shutdown();

    assert!(assignments_by_bench(&srv_dir).values().all(|&a| a == 1));
    assert_identical(&srv_dir, &reference);
    let _ = fs::remove_dir_all(&srv_dir);
}
