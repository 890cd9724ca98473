//! The agent half of the fleet: what `tipd --join` runs.
//!
//! A coordinator is an ordinary [`crate::engine::Engine`] started with
//! zero local workers; fleet daemons are its remote holders. An agent
//! registers, then its worker threads poll for assignments, run each one
//! through `run_assignment` — the same function the engine's local
//! workers run — and push the rendered outcome back under the
//! assignment's epoch. The coordinator's committer writes those bytes
//! through the shared [`tip_bench::ledger::Ledger`] in submission order,
//! so `journal.txt`, every `<bench>.result` and `failures.txt` are
//! byte-identical to a local [`tip_bench::campaign`] run at any
//! (daemon × worker) fan-out.
//!
//! # Failure domains
//!
//! * **Daemon death / partition** — every frame from a daemon ticks its
//!   heartbeat, which all of its leases watch; one process-level beacon
//!   thread keeps it ticking however long the simulations run. The
//!   engine's reaper requeues a silent daemon's assignments under a bumped
//!   epoch, and a resurrected daemon pushing under the old epoch is refused
//!   (`accepted=false`) and counted in `stale`.
//! * **Coordinator death** — the ledger is crash-consistent. A restarted
//!   coordinator with `resume` skips the journalled prefix; daemons
//!   holding pre-crash assignments get [`ErrorCode::UnknownDaemon`],
//!   re-register, and drop their stale results.
//! * **Drain** — `PollJob` answers `NoWork{draining:true}` and the agent
//!   exits clean; in-flight pushes still commit.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::client::{Client, ClientError};
use crate::engine::{resolve_core, PollReply};
use crate::proto::{DeltaFrame, ErrorCode, JobSpec, RemoteOutcome};
use tip_bench::campaign::{CompletedBench, FailedBench};
use tip_bench::executor::{run_job_streaming, Heartbeat, Job, Runner, SpecRunner};
use tip_bench::experiments::SuiteRun;
use tip_bench::ledger::{one_line, render_completed, render_failed};
use tip_bench::live::DeltaSink;
use tip_bench::run::MAX_CYCLES;
use tip_workloads::{benchmark, BENCHMARK_NAMES};

/// Default assignment lease for a coordinator. Shorter than the engine's
/// worker lease: a daemon beacons at `lease / 4` from a dedicated thread
/// regardless of how long its simulations run, so the lease only has to
/// outlive network jitter, not a benchmark attempt.
pub const DEFAULT_FLEET_LEASE: Duration = Duration::from_secs(10);

/// How a fleet agent runs.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Coordinator address (`host:port`).
    pub coordinator: String,
    /// Self-reported name (host:port or free text) sent with `Register`.
    pub name: String,
    /// Worker threads pulling assignments.
    pub workers: usize,
    /// Give up after this long without a single successful call — the
    /// coordinator is gone for good, not restarting. Generous by default
    /// so a `kill -9` + `--resume` restart window never strands the fleet.
    pub give_up_after: Duration,
}

impl AgentConfig {
    /// A config with production defaults: 1 worker, 60 s give-up window.
    #[must_use]
    pub fn new(coordinator: String) -> Self {
        AgentConfig {
            name: format!("agent@{coordinator}"),
            coordinator,
            workers: 1,
            give_up_after: Duration::from_secs(60),
        }
    }
}

/// Shared agent session: the current daemon id, re-registered on
/// [`ErrorCode::UnknownDaemon`] by whichever thread hits it first.
struct Session {
    client: Client,
    daemon: AtomicU64,
    lease_ms: AtomicU64,
    /// Set when the coordinator says it is draining; all threads exit.
    done: AtomicBool,
    /// Last successful call, for the give-up window.
    last_ok: Mutex<Instant>,
    registration: Mutex<()>,
    name: String,
    workers: u32,
}

impl Session {
    fn mark_ok(&self) {
        *self.last_ok.lock().expect("agent clock") = Instant::now();
    }

    fn silent_for(&self) -> Duration {
        self.last_ok.lock().expect("agent clock").elapsed()
    }

    /// (Re-)registers with the coordinator. Serialized so a burst of
    /// `UnknownDaemon` refusals across threads yields one new id, not N.
    fn reregister(&self, stale_id: u64) -> Result<(), ClientError> {
        let _guard = self.registration.lock().expect("agent registration");
        if self.daemon.load(Ordering::SeqCst) != stale_id {
            return Ok(()); // Another thread already re-registered.
        }
        let (daemon, lease_ms) = self.client.register(&self.name, self.workers)?;
        self.lease_ms.store(lease_ms.max(1), Ordering::SeqCst);
        self.daemon.store(daemon, Ordering::SeqCst);
        self.mark_ok();
        Ok(())
    }
}

/// Runs a fleet agent against `config.coordinator` until the coordinator
/// drains (clean exit) or stays unreachable past the give-up window.
///
/// Worker threads poll for assignments, regenerate and run the benchmark
/// locally through the exact [`run_job`] retry ladder a local campaign
/// uses, render the result-file bytes on the spot, and push them back. One
/// beacon thread heartbeats at a quarter of the coordinator's lease —
/// process-level liveness, since a dead process takes every worker with
/// it. Any thread refused with `UnknownDaemon` re-registers (the
/// coordinator restarted); in-flight results pushed under the old
/// registration are discarded by the coordinator's epoch check, and the
/// re-dispatched assignment re-runs them deterministically.
///
/// # Errors
///
/// [`ClientError`] when registration never succeeds or the coordinator
/// stays unreachable past `config.give_up_after`.
pub fn run_agent(config: &AgentConfig) -> Result<(), ClientError> {
    let client = Client::new(&config.coordinator);
    #[allow(clippy::cast_possible_truncation)]
    let workers = config.workers.max(1) as u32;
    let (daemon, lease_ms) = client.register(&config.name, workers)?;
    let session = Arc::new(Session {
        client,
        daemon: AtomicU64::new(daemon),
        lease_ms: AtomicU64::new(lease_ms.max(1)),
        done: AtomicBool::new(false),
        last_ok: Mutex::new(Instant::now()),
        registration: Mutex::new(()),
        name: config.name.clone(),
        workers,
    });
    let give_up = config.give_up_after;

    let beacon = {
        let session = Arc::clone(&session);
        thread::spawn(move || beacon_loop(&session, give_up))
    };
    let mut workers_joined = Vec::new();
    for worker in 0..config.workers.max(1) {
        let session = Arc::clone(&session);
        workers_joined.push(thread::spawn(move || {
            worker_loop(&session, worker, give_up)
        }));
    }
    let mut result = Ok(());
    for t in workers_joined {
        if let Ok(Err(e)) = t.join().map_err(|_| ()) {
            result = Err(e);
        }
    }
    session.done.store(true, Ordering::SeqCst);
    let _ = beacon.join();
    result
}

/// One call's outcome, folded into the agent's liveness accounting.
fn note<T>(session: &Session, res: &Result<T, ClientError>) {
    if res.is_ok() {
        session.mark_ok();
    }
}

/// Handles an `UnknownDaemon` refusal: re-register under a fresh id.
/// Returns whether the caller should retry its operation.
fn handle_unknown(session: &Session, stale_id: u64) -> bool {
    match session.reregister(stale_id) {
        Ok(()) => true,
        Err(_) => false,
    }
}

fn is_unknown_daemon(err: &ClientError) -> bool {
    matches!(
        err,
        ClientError::Server {
            code: ErrorCode::UnknownDaemon,
            ..
        }
    )
}

fn beacon_loop(session: &Session, give_up: Duration) {
    loop {
        let lease_ms = session.lease_ms.load(Ordering::SeqCst);
        let pause = Duration::from_millis((lease_ms / 4).max(1));
        let deadline = Instant::now() + pause;
        while Instant::now() < deadline {
            if session.done.load(Ordering::SeqCst) {
                return;
            }
            thread::sleep(Duration::from_millis(10));
        }
        let id = session.daemon.load(Ordering::SeqCst);
        let res = session.client.beacon(id);
        note(session, &res);
        match res {
            Ok(_) => {}
            Err(e) if is_unknown_daemon(&e) => {
                let _ = handle_unknown(session, id);
            }
            Err(_) => {
                if session.silent_for() > give_up {
                    return;
                }
            }
        }
    }
}

/// Pause between empty polls: short enough to keep Test-scale campaigns
/// snappy, long enough not to hammer the coordinator.
const POLL_PAUSE: Duration = Duration::from_millis(20);

fn worker_loop(
    session: &Arc<Session>,
    worker: usize,
    give_up: Duration,
) -> Result<(), ClientError> {
    loop {
        if session.done.load(Ordering::SeqCst) {
            return Ok(());
        }
        let id = session.daemon.load(Ordering::SeqCst);
        let res = session.client.poll_job(id);
        note(session, &res);
        let (task, epoch, spec) = match res {
            Ok(PollReply::Assignment { task, epoch, spec }) => (task, epoch, spec),
            Ok(PollReply::NoWork { draining: true }) => {
                session.done.store(true, Ordering::SeqCst);
                return Ok(());
            }
            Ok(PollReply::NoWork { draining: false }) => {
                thread::sleep(POLL_PAUSE);
                continue;
            }
            Err(e) if is_unknown_daemon(&e) => {
                if !handle_unknown(session, id) && session.silent_for() > give_up {
                    return Err(e);
                }
                continue;
            }
            Err(e) => {
                if session.silent_for() > give_up {
                    return Err(e);
                }
                thread::sleep(POLL_PAUSE);
                continue;
            }
        };
        // Stream delta flushes to the coordinator as the run progresses —
        // the "piggybacked on pushes" half of fleet liveness: each flush
        // extends the leases like a beacon. Best-effort by design: a lost
        // or refused frame costs live visibility, never correctness (the
        // authoritative result still travels in the final push).
        let sink = {
            let session = Arc::clone(session);
            DeltaSink::new(move |event| {
                let id = session.daemon.load(Ordering::SeqCst);
                let frame = DeltaFrame::from_event(&event);
                let res = session.client.push_delta(id, &frame);
                note(&session, &res);
            })
        };
        let outcome = run_assignment(&spec, &SpecRunner, worker, &Heartbeat::noop(), &sink);
        // Push until acked; a lost ack retries idempotently, a stale epoch
        // or unknown-task refusal just drops the result (the coordinator
        // reassigned it).
        loop {
            let id = session.daemon.load(Ordering::SeqCst);
            let res = session.client.push_result(id, task, epoch, &outcome);
            note(session, &res);
            match res {
                Ok(_accepted) => break,
                Err(e) if is_unknown_daemon(&e) => {
                    // The coordinator restarted: this result belongs to a
                    // dead incarnation's assignment. Re-register and drop
                    // it; the re-dispatched job re-runs deterministically.
                    let _ = handle_unknown(session, id);
                    break;
                }
                Err(e) => {
                    if session.silent_for() > give_up {
                        return Err(e);
                    }
                    thread::sleep(POLL_PAUSE);
                }
            }
        }
    }
}

/// Runs one assignment exactly like a local campaign worker would and
/// renders the result-file bytes the committer will persist verbatim. Both
/// holder kinds run jobs through here: an engine's local workers and fleet
/// agents. `heartbeat` ticks at every attempt boundary; delta flushes
/// stream through `sink` while the run progresses.
pub(crate) fn run_assignment<R: Runner>(
    spec: &JobSpec,
    runner: &R,
    worker: usize,
    heartbeat: &Heartbeat,
    sink: &DeltaSink,
) -> RemoteOutcome {
    let Some(&name) = BENCHMARK_NAMES.iter().find(|&&n| n == spec.bench) else {
        return refused_outcome(worker, &format!("unknown bench {:?}", spec.bench));
    };
    let Ok(core) = resolve_core(&spec.core) else {
        return refused_outcome(worker, &format!("unknown core {:?}", spec.core));
    };
    let bench = benchmark(name, spec.scale);
    let job = Job {
        bench,
        seed: spec.seed,
        core,
        sampler: spec.sampler,
        profilers: spec.profilers.clone(),
        checkpoint: None,
        max_attempts: spec.max_attempts.max(1),
        max_cycles: MAX_CYCLES,
        pgo: spec.pgo,
    };
    let outcome = run_job_streaming(0, &job, runner, Duration::ZERO, worker, heartbeat, sink);
    let attempts = outcome.attempts;
    let metrics = outcome.metrics;
    #[allow(clippy::cast_possible_truncation)]
    let worker = worker as u32;
    match outcome.result {
        Ok(run) => {
            let completed = CompletedBench {
                run: SuiteRun {
                    bench: job.bench,
                    run,
                },
                attempts,
            };
            let body = render_completed(&completed, &spec.profilers);
            RemoteOutcome {
                ok: true,
                attempts,
                body,
                error_line: String::new(),
                wall_ms: metrics.wall.as_secs_f64() * 1e3,
                worker,
                cycles: metrics.cycles,
                instructions: metrics.instructions,
                ipc: metrics.ipc,
            }
        }
        Err(error) => {
            let failed = FailedBench {
                name,
                attempts,
                error,
            };
            let body = render_failed(&failed);
            let error_line = one_line(&failed.error.to_string());
            RemoteOutcome {
                ok: false,
                attempts,
                body,
                error_line,
                wall_ms: metrics.wall.as_secs_f64() * 1e3,
                worker,
                cycles: 0,
                instructions: 0,
                ipc: 0.0,
            }
        }
    }
}

/// An assignment the agent could not even start (a spec that validates on
/// the coordinator but not here means skewed builds). Reported as a failed
/// job rather than dropped, so the campaign settles instead of wedging.
fn refused_outcome(worker: usize, message: &str) -> RemoteOutcome {
    #[allow(clippy::cast_possible_truncation)]
    RemoteOutcome {
        ok: false,
        attempts: 0,
        body: format!("status=failed\nerror={message}\n"),
        error_line: message.to_owned(),
        wall_ms: 0.0,
        worker: worker as u32,
        cycles: 0,
        instructions: 0,
        ipc: 0.0,
    }
}
