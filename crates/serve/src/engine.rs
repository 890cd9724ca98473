//! The job scheduler behind every `tipd`: one queue, one phase machine, one
//! lease reaper and one in-order committer, whether jobs run on this host's
//! worker threads or on fleet daemons that dial in.
//!
//! # Holders
//!
//! Work is done by *holders* of two kinds, and the scheduler treats them
//! alike from claim to commit:
//!
//! * **Local workers** — threads of this process. They claim in-process and
//!   block on the scheduler's condvar while the queue is empty.
//! * **Remote daemons** — fleet agents that `Register` over the wire, claim
//!   with `PollJob` and settle with `PushResult` ([`crate::fleet`] is the
//!   agent half). An engine started with zero local workers is a fleet
//!   coordinator.
//!
//! Both kinds run a claimed job through the same [`crate::fleet`]
//! `run_assignment` — the exact retry ladder of [`tip_bench::run_job`] —
//! and settle a rendered [`RemoteOutcome`]. One committer thread writes
//! settled outcomes through the campaign [`Ledger`] in submission order,
//! so `journal.txt`, every `<bench>.result` and `failures.txt` are
//! byte-identical to a local [`tip_bench::campaign`] run over the same job
//! sequence, at any worker count or fleet fan-out.
//!
//! Claiming is **FIFO**: the claimed set is always a contiguous prefix of
//! submission order, plus reassigned jobs, which go out first. **Drain**
//! stops fresh claims, lets in-flight and reassigned jobs settle and
//! commit, and leaves queued jobs unjournaled, so a restarted daemon with
//! `resume` skips exactly the settled prefix and re-runs the rest.
//!
//! # Leases, epochs, and the reaper
//!
//! Every claim carries a **lease** tied to its holder's [`Heartbeat`]: a
//! local worker's ticks at every attempt boundary (cooperative runners
//! also tick mid-attempt through `RunCtx::heartbeat`); a daemon's ticks on
//! every frame it sends. The **reaper** is the only code that extends or
//! expires a lease: beats seen since its last scan push the deadline out;
//! a silent holder past the deadline is declared dead, the job's **epoch**
//! is bumped, and the job is requeued. A settle under a stale epoch is
//! refused and counted in `stale`, so exactly one assignment's result ever
//! reaches the ledger; a duplicate settle under the live epoch (a daemon
//! retrying a lost ack) is acknowledged without committing twice. A
//! committed job is terminal and can never be requeued.
//!
//! # Progress history and idempotent submission
//!
//! Every externally visible state of a job is appended to a per-job
//! **history**; `Watch{from_seq}` replays it from any point and then
//! streams live, so a reconnecting client resumes with no gaps or
//! duplicates. A submit may carry a nonzero request id; a dedup table
//! (`req_id → job id`) makes resubmission after a lost reply safe.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use crate::fleet::run_assignment;
use crate::proto::{ErrorCode, JobSpec, JobState, RemoteOutcome, ServerStats};
use tip_bench::executor::{ExecSummary, Heartbeat, JobMetrics, Runner, SpecRunner};
use tip_bench::ledger::{result_path, Ledger};
use tip_bench::live::{DeltaEvent, DeltaSink, LiveAggregate};
use tip_isa::{Granularity, SymbolId};
use tip_ooo::CoreConfig;
use tip_workloads::{benchmark, BENCHMARK_NAMES};

/// Default job lease: generous enough that a full-scale benchmark attempt
/// (which beats only at attempt boundaries) never trips it on a healthy
/// host, short enough that a genuinely wedged worker is reaped within
/// operational patience.
pub const DEFAULT_LEASE: Duration = Duration::from_secs(300);

/// How many leases of total silence before a daemon's *registration* is
/// dropped (its assignments were already requeued after one lease); a
/// dropped daemon's next call gets `UnknownDaemon` and it re-registers.
const DEREGISTER_LEASES: u32 = 4;

/// How the engine runs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Campaign directory: journal, result files, failure report, metrics.
    pub out_dir: PathBuf,
    /// Local worker threads. Zero starts a fleet coordinator: jobs then
    /// run only on daemons that register over the wire.
    pub workers: usize,
    /// Skip benchmarks the directory's journal already records as done.
    pub resume: bool,
    /// Job lease: a claimed job whose holder neither finishes nor
    /// heartbeats within this window is reassigned.
    pub lease: Duration,
}

impl EngineConfig {
    /// A config with production defaults: 1 worker, fresh (no resume),
    /// [`DEFAULT_LEASE`].
    #[must_use]
    pub fn new(out_dir: PathBuf) -> Self {
        EngineConfig {
            out_dir,
            workers: 1,
            resume: false,
            lease: DEFAULT_LEASE,
        }
    }
}

/// Why a submit was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The benchmark name is not in [`BENCHMARK_NAMES`].
    UnknownBench(String),
    /// The core preset name is not known.
    UnknownCore(String),
    /// The engine is draining and accepts no new work.
    Draining,
}

/// Resolves a [`JobSpec::core`] preset name.
pub(crate) fn resolve_core(preset: &str) -> Result<CoreConfig, SubmitError> {
    match preset {
        "" | "default" | "boom-4w" => Ok(CoreConfig::default()),
        other => Err(SubmitError::UnknownCore(other.to_owned())),
    }
}

/// What a fleet poll handed out.
#[derive(Debug, Clone, PartialEq)]
pub enum PollReply {
    /// One leased assignment.
    Assignment {
        /// Task id (echoed back in the push).
        task: u64,
        /// Lease epoch (echoed back in the push).
        epoch: u64,
        /// The job to run.
        spec: JobSpec,
    },
    /// Nothing assignable; `draining` means nothing ever will be again.
    NoWork {
        /// The coordinator is draining.
        draining: bool,
    },
}

/// Who runs a claimed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Holder {
    /// A worker thread of this process, by index.
    Local(usize),
    /// A registered fleet daemon, by id.
    Remote(u64),
}

impl Holder {
    /// The figure watchers see in `Running{worker}`.
    #[allow(clippy::cast_possible_truncation)]
    fn label(self) -> u32 {
        match self {
            Holder::Local(worker) => worker as u32,
            Holder::Remote(daemon) => daemon as u32,
        }
    }
}

/// A running claim's liveness record.
#[derive(Debug)]
struct Lease {
    /// When the claim is declared dead unless the beacon beats first.
    deadline: Instant,
    /// The holder's beacon.
    beacon: Heartbeat,
    /// Beats observed at the last reaper scan.
    beats_seen: u64,
}

/// Internal lifecycle of one queue entry.
#[derive(Debug)]
enum Phase {
    /// Waiting for a holder (or, if the resume journal already covers it,
    /// for the committer to acknowledge the skip).
    Queued {
        skip: bool,
    },
    Running {
        holder: Holder,
        lease: Lease,
    },
    /// Outcome parked for the committer; `daemon` ran it (0 = locally).
    Settled {
        daemon: u32,
    },
    /// Committed to the ledger; result file on disk.
    Done {
        ok: bool,
        attempts: u32,
    },
    Cancelled,
}

struct Entry {
    spec: JobSpec,
    /// The benchmark's canonical name (validated at submit).
    name: &'static str,
    phase: Phase,
    enqueued: Instant,
    /// Queue wait of the latest claim.
    queue_wait: Duration,
    outcome: Option<RemoteOutcome>,
    /// Bumped on every reassignment; a settle under an older epoch is
    /// stale and discarded.
    epoch: u64,
    /// Times the job was claimed (`assignments=` in `metrics.txt`).
    assignments: u32,
    /// Every externally visible state, in order; the index is the `Watch`
    /// stream's sequence number.
    history: Vec<JobState>,
}

/// One registered fleet daemon.
#[derive(Debug)]
struct DaemonInfo {
    /// Worker threads the daemon runs (sizes the stats `workers` figure).
    workers: u32,
    /// Ticked by every frame from the daemon; every lease it holds
    /// watches this beacon.
    beacon: Heartbeat,
    /// Last time any frame arrived from this daemon.
    last_seen: Instant,
    /// Whether a poll has been answered `NoWork{draining: true}` — the
    /// daemon knows to exit, so a graceful shutdown may close the
    /// listener without stranding it.
    told_draining: bool,
}

#[derive(Default)]
struct State {
    entries: Vec<Entry>,
    next_claim: usize,
    /// Jobs whose lease expired, claimed before the FIFO prefix: they
    /// already waited in the queue once, and their watchers are stalled.
    requeued: VecDeque<usize>,
    next_commit: usize,
    draining: bool,
    shutdown: bool,
    /// Local worker threads still alive.
    live_workers: usize,
    daemons: HashMap<u64, DaemonInfo>,
    last_daemon: u64,
    /// Bench names the resume journal covers plus names settled in this
    /// run — consulted at submit time so a resubmitted suite skips exactly
    /// what a resumed local campaign would.
    done_names: HashSet<String>,
    /// Idempotent-submit dedup: request id → job id.
    dedup: HashMap<u64, u64>,
    busy: Duration,
    wait_sum: Duration,
    settled: u32,
    done: u32,
    failed: u32,
    cancelled: u32,
    /// Lease expiries that requeued a job.
    reassigned: u32,
    /// Settles discarded because their claim's epoch was stale.
    stale_results: u32,
    /// A daemon was reaped without ever being told the queue is draining
    /// — it may be partitioned rather than dead, so a graceful drain waits
    /// a full deregistration cutoff for it to re-register.
    reaped_untold: bool,
}

impl State {
    fn index(&self, job: u64) -> Option<usize> {
        let index = usize::try_from(job.checked_sub(1)?).ok()?;
        (index < self.entries.len()).then_some(index)
    }

    fn queued(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.phase, Phase::Queued { .. }))
            .count()
    }

    fn running(&self, holder: impl Fn(Holder) -> bool) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.phase, Phase::Running { holder: h, .. } if holder(h)))
            .count()
    }

    /// No holder can settle anything any more: every local worker has
    /// exited and no daemon holds an assignment.
    fn quiesced(&self) -> bool {
        self.live_workers == 0 && self.running(|h| matches!(h, Holder::Remote(_))) == 0
    }

    fn job_state(&self, index: usize) -> JobState {
        match &self.entries[index].phase {
            Phase::Queued { .. } => JobState::Queued {
                ahead: self.entries[self.next_claim.min(index)..index]
                    .iter()
                    .filter(|e| matches!(e.phase, Phase::Queued { .. }))
                    .count() as u32,
            },
            Phase::Running { holder, .. } => JobState::Running {
                worker: holder.label(),
            },
            // Settled-but-uncommitted reports as still running: `Done`
            // must imply the result file is on disk.
            Phase::Settled { .. } => JobState::Running { worker: 0 },
            &Phase::Done { ok, attempts } => JobState::Done { ok, attempts },
            Phase::Cancelled => JobState::Cancelled,
        }
    }

    fn history_tail(&self, index: usize, from_seq: u64) -> Vec<(u64, JobState)> {
        let start = usize::try_from(from_seq).unwrap_or(usize::MAX);
        self.entries[index]
            .history
            .iter()
            .enumerate()
            .skip(start)
            .map(|(i, &s)| (i as u64, s))
            .collect()
    }

    /// Marks contact from a daemon and ticks its beacon, returning the
    /// beacon.
    fn touch(&mut self, daemon: u64) -> Result<Heartbeat, ErrorCode> {
        let info = self
            .daemons
            .get_mut(&daemon)
            .ok_or(ErrorCode::UnknownDaemon)?;
        info.last_seen = Instant::now();
        info.beacon.tick();
        Ok(info.beacon.clone())
    }

    /// Hands `holder` the next job — a reassigned one first, then the FIFO
    /// head unless draining — under a lease watching `beacon`. Returns
    /// `(index, epoch, spec)`.
    fn claim(
        &mut self,
        holder: Holder,
        beacon: Heartbeat,
        lease: Duration,
    ) -> Option<(usize, u64, JobSpec)> {
        let index = match self.requeued.pop_front() {
            Some(index) => index,
            None => {
                // Skip entries that will never need a holder: cancelled
                // ones and resume-skips (the committer acknowledges those).
                while self.next_claim < self.entries.len()
                    && !matches!(
                        self.entries[self.next_claim].phase,
                        Phase::Queued { skip: false }
                    )
                {
                    self.next_claim += 1;
                }
                if self.next_claim == self.entries.len() || self.draining {
                    return None;
                }
                self.next_claim += 1;
                self.next_claim - 1
            }
        };
        let entry = &mut self.entries[index];
        entry.queue_wait = entry.enqueued.elapsed();
        entry.assignments += 1;
        entry.history.push(JobState::Running {
            worker: holder.label(),
        });
        entry.phase = Phase::Running {
            holder,
            lease: Lease {
                deadline: Instant::now() + lease,
                beats_seen: beacon.beats(),
                beacon,
            },
        };
        Some((index, entry.epoch, entry.spec.clone()))
    }

    /// Parks a holder's outcome for the committer. `false` means the epoch
    /// is stale (the job was reassigned) and the outcome is discarded; a
    /// duplicate settle under the live epoch is acknowledged without
    /// parking twice.
    fn settle(&mut self, index: usize, epoch: u64, outcome: RemoteOutcome) -> bool {
        let entry = &mut self.entries[index];
        if entry.epoch == epoch {
            match entry.phase {
                Phase::Running { holder, .. } => {
                    let daemon = match holder {
                        Holder::Local(_) => 0,
                        Holder::Remote(_) => holder.label(),
                    };
                    entry.outcome = Some(outcome);
                    entry.phase = Phase::Settled { daemon };
                    return true;
                }
                Phase::Settled { .. } | Phase::Done { .. } => return true,
                _ => {}
            }
        }
        self.stale_results += 1;
        false
    }

    /// Declares a running claim dead: the epoch bump invalidates whatever
    /// its holder eventually settles.
    fn expire(&mut self, index: usize) {
        let entry = &mut self.entries[index];
        entry.epoch += 1;
        entry.phase = Phase::Queued { skip: false };
        entry.history.push(JobState::Queued { ahead: 0 });
    }

    /// Whether `holder` currently runs a job for `bench` — the fence on
    /// streamed deltas, so a reaped holder's stream cannot pollute the
    /// fresh claim's live slot.
    fn holds(&self, holder: Holder, bench: &str) -> bool {
        self.entries.iter().any(|e| {
            e.name == bench && matches!(e.phase, Phase::Running { holder: h, .. } if h == holder)
        })
    }
}

struct Inner {
    state: Mutex<State>,
    /// Workers, committer, reaper, and watchers sleep here for any state
    /// change.
    changed: Condvar,
    /// Local worker threads started.
    workers: usize,
    lease: Duration,
    started: Instant,
    out_dir: PathBuf,
    /// The streaming aggregate holders' delta flushes land in.
    live: Arc<LiveAggregate>,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("scheduler lock poisoned")
    }

    fn notify(&self) {
        self.changed.notify_all();
    }

    /// Local workers plus every registered daemon's workers.
    fn workers(&self, state: &State) -> u32 {
        self.workers as u32 + state.daemons.values().map(|d| d.workers).sum::<u32>()
    }

    /// Folds a holder's delta flush into the live aggregate if the holder
    /// still runs a job for that benchmark.
    fn ingest_from(&self, holder: Holder, event: &DeltaEvent) -> bool {
        let holds = self.lock().holds(holder, &event.bench);
        if holds {
            self.live.ingest(event);
        }
        holds
    }
}

/// The shared job scheduler. Cheap to clone; all clones drive one queue.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<Inner>,
    threads: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
}

impl Engine {
    /// Starts the engine with the production [`SpecRunner`].
    #[must_use]
    pub fn start(config: &EngineConfig) -> Engine {
        Engine::start_with_runner(config, SpecRunner)
    }

    /// Opens the ledger (resuming the settled prefix if asked) and starts
    /// the local workers, the committer, and the lease reaper with a
    /// caller-chosen runner (tests inject faults the same way the chaos
    /// campaign does).
    #[must_use]
    pub fn start_with_runner<R>(config: &EngineConfig, runner: R) -> Engine
    where
        R: Runner + Send + Clone + 'static,
    {
        let ledger = Ledger::open(Some(&config.out_dir), config.resume);
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                live_workers: config.workers,
                done_names: ledger.done_names().into_iter().collect(),
                ..State::default()
            }),
            changed: Condvar::new(),
            workers: config.workers,
            lease: config.lease.max(Duration::from_millis(1)),
            started: Instant::now(),
            out_dir: config.out_dir.clone(),
            live: Arc::default(),
        });
        let mut threads = Vec::with_capacity(config.workers + 2);
        for worker in 0..config.workers {
            let inner = Arc::clone(&inner);
            let runner = runner.clone();
            threads.push(thread::spawn(move || {
                let _exit = WorkerExit(&inner);
                worker_loop(&inner, worker, &runner);
            }));
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(thread::spawn(move || committer_loop(&inner, ledger)));
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(thread::spawn(move || reaper_loop(&inner)));
        }
        Engine {
            inner,
            threads: Arc::new(Mutex::new(threads)),
        }
    }

    /// Whether this engine was started without local workers, so jobs run
    /// only on registered fleet daemons.
    #[must_use]
    pub(crate) fn is_coordinator(&self) -> bool {
        self.inner.workers == 0
    }

    /// Enqueues a job, returning its 1-based id. A benchmark the resume
    /// journal (or this run) already settled is acknowledged as done
    /// without re-running — its artifacts are already on disk.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] for an unknown benchmark or core preset, or when
    /// the engine is draining.
    pub fn submit(&self, spec: &JobSpec) -> Result<u64, SubmitError> {
        self.submit_deduped(spec, 0)
    }

    /// [`Self::submit`] with an idempotency key: a repeated submit carrying
    /// the same nonzero `req_id` returns the originally assigned job id
    /// instead of enqueueing a second copy — the server-side half of
    /// "resubmit on timeout without double-running". The program is not
    /// generated here: the holder generates it from the spec.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] for an unknown benchmark or core preset, or when
    /// the engine is draining.
    pub fn submit_deduped(&self, spec: &JobSpec, req_id: u64) -> Result<u64, SubmitError> {
        let Some(&name) = BENCHMARK_NAMES.iter().find(|&&n| n == spec.bench) else {
            return Err(SubmitError::UnknownBench(spec.bench.clone()));
        };
        resolve_core(&spec.core)?;
        let mut state = self.inner.lock();
        if req_id != 0 {
            if let Some(&id) = state.dedup.get(&req_id) {
                return Ok(id);
            }
        }
        if state.draining || state.shutdown {
            return Err(SubmitError::Draining);
        }
        let skip = state.done_names.contains(name);
        let ahead = state.queued() as u32;
        state.entries.push(Entry {
            spec: spec.clone(),
            name,
            phase: Phase::Queued { skip },
            enqueued: Instant::now(),
            queue_wait: Duration::ZERO,
            outcome: None,
            epoch: 0,
            assignments: 0,
            history: vec![JobState::Queued { ahead }],
        });
        let id = state.entries.len() as u64;
        if req_id != 0 {
            state.dedup.insert(req_id, id);
        }
        drop(state);
        self.inner.notify();
        Ok(id)
    }

    /// The job's current externally visible state, or `None` for an
    /// unknown id.
    #[must_use]
    pub fn status(&self, job: u64) -> Option<JobState> {
        let state = self.inner.lock();
        Some(state.job_state(state.index(job)?))
    }

    /// The benchmark name a job runs, for live-view lookups. `None` for an
    /// unknown id.
    #[must_use]
    pub fn bench_of(&self, job: u64) -> Option<String> {
        let state = self.inner.lock();
        Some(state.entries[state.index(job)?].name.to_owned())
    }

    /// Blocks until the job's history grows past `from_seq` (or the
    /// timeout elapses, returning whatever is there — possibly empty).
    /// `None` for an unknown id.
    #[must_use]
    pub fn wait_history(
        &self,
        job: u64,
        from_seq: u64,
        timeout: Duration,
    ) -> Option<Vec<(u64, JobState)>> {
        let deadline = Instant::now() + timeout;
        let mut state = self.inner.lock();
        let index = state.index(job)?;
        loop {
            let tail = state.history_tail(index, from_seq);
            let left = deadline.saturating_duration_since(Instant::now());
            if !tail.is_empty() || left.is_zero() {
                return Some(tail);
            }
            state = self
                .inner
                .changed
                .wait_timeout(state, left)
                .expect("scheduler lock poisoned")
                .0;
        }
    }

    /// Jobs waiting in the queue right now — the figure the server's
    /// load-shedding watermark compares against.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.inner.lock().queued()
    }

    /// Cancels a still-queued job. Returns `false` if the job is unknown,
    /// already claimed (including a reassigned one), or already settled.
    #[must_use]
    pub fn cancel(&self, job: u64) -> bool {
        let mut state = self.inner.lock();
        let Some(index) = state.index(job) else {
            return false;
        };
        // A resume-skip is already settled work — its artifacts exist —
        // so only a genuinely queued entry can be cancelled. An index below
        // `next_claim` has been claimed at least once (a requeued job is
        // considered claimed: a holder may still be finishing it).
        if index < state.next_claim
            || !matches!(state.entries[index].phase, Phase::Queued { skip: false })
        {
            return false;
        }
        state.entries[index].phase = Phase::Cancelled;
        state.entries[index].history.push(JobState::Cancelled);
        state.cancelled += 1;
        drop(state);
        // The committer may be parked waiting for exactly this index.
        self.inner.notify();
        true
    }

    /// Reads a finished job's result file back.
    ///
    /// # Errors
    ///
    /// A one-line reason when the job is unknown, not finished, cancelled,
    /// or its file cannot be read.
    pub fn result(&self, job: u64) -> Result<String, String> {
        let bench = {
            let state = self.inner.lock();
            let Some(index) = state.index(job) else {
                return Err(format!("unknown job {job}"));
            };
            match state.entries[index].phase {
                Phase::Done { .. } => state.entries[index].name,
                Phase::Cancelled => return Err(format!("job {job} was cancelled")),
                _ => return Err(format!("job {job} has not finished")),
            }
        };
        std::fs::read_to_string(result_path(&self.inner.out_dir, bench))
            .map_err(|e| format!("result file unreadable: {e}"))
    }

    /// A snapshot of the engine's counters (`connections`, `shed`,
    /// `deltas` and `streamed` are left 0 for the server layer to fill
    /// in).
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        let state = self.inner.lock();
        let workers = self.inner.workers(&state);
        let uptime = self.inner.started.elapsed();
        let worker_seconds = uptime.as_secs_f64() * f64::from(workers.max(1));
        ServerStats {
            queued: state.queued() as u32,
            running: state.running(|_| true) as u32,
            done: state.done,
            failed: state.failed,
            cancelled: state.cancelled,
            workers,
            connections: 0,
            mean_queue_wait_ms: if state.settled > 0 {
                state.wait_sum.as_secs_f64() * 1e3 / f64::from(state.settled)
            } else {
                0.0
            },
            worker_utilization: if worker_seconds > 0.0 {
                (state.busy.as_secs_f64() / worker_seconds).min(1.0)
            } else {
                0.0
            },
            uptime_ms: uptime.as_millis() as u64,
            reassigned: state.reassigned,
            shed: 0,
            daemons: state.daemons.len() as u32,
            stale: state.stale_results,
            deltas: 0,
            streamed: 0,
        }
    }

    /// The engine's live streaming aggregate.
    #[must_use]
    pub fn live(&self) -> Arc<LiveAggregate> {
        Arc::clone(&self.inner.live)
    }

    /// Human-readable names for `syms` of `bench` at granularity `g`,
    /// resolved from a regenerated program at the submitted scale — callers
    /// should cache. `None` until a job for that benchmark was submitted.
    #[must_use]
    pub fn symbol_names(&self, bench: &str, g: Granularity, syms: &[u32]) -> Option<Vec<String>> {
        let (name, scale) = {
            let state = self.inner.lock();
            let entry = state.entries.iter().find(|e| e.name == bench)?;
            (entry.name, entry.spec.scale)
        };
        let program = benchmark(name, scale).program;
        let n = program.num_symbols(g) as u32;
        Some(
            syms.iter()
                .map(|&s| {
                    if s < n {
                        program.symbol_name(g, SymbolId(s))
                    } else {
                        format!("sym{s}")
                    }
                })
                .collect(),
        )
    }

    /// Settles discarded because their claim's lease had already expired
    /// and the job was reassigned (test observability).
    #[must_use]
    pub fn stale_results(&self) -> u32 {
        self.inner.lock().stale_results
    }

    /// Stops fresh claims; in-flight jobs keep running, reassigned jobs
    /// still go out so surviving holders fill holes, and settles still
    /// commit. Queued jobs stay queued (and unjournaled) — a restarted
    /// daemon re-runs them.
    pub fn drain(&self) {
        self.inner.lock().draining = true;
        self.inner.notify();
    }

    /// Blocks until every registered daemon has been answered with a
    /// draining `NoWork` — or has lapsed and been reaped — so a graceful
    /// shutdown can close the listener without stranding agents: they
    /// dial per request, and a listener that vanishes before the drain
    /// broadcast leaves them spinning out their give-up window. Returns at
    /// once when no daemon is registered.
    ///
    /// Sending the notice is not the same as the agent decoding it: a
    /// chaotic link can corrupt the one reply that carried it, and the
    /// agent's retry must still find the listener up. A told agent that
    /// got the notice exits and goes silent; one that missed it keeps
    /// dialing. So beyond `told_draining`, every registered daemon must
    /// also have been *quiet* for a settle window (longer than the
    /// client's retry backoff) before the wait releases.
    ///
    /// If any daemon was ever reaped *without* hearing the notice, it may
    /// be partitioned rather than dead (a chaotic link can silence an
    /// agent past the deregistration cutoff), so the wait holds for the
    /// full window regardless — a live agent re-registers well within it,
    /// gets its `NoWork{draining}`, and exits clean. Bounded either way:
    /// one deregistration cutoff (plus a settle window) past the call, a
    /// daemon that never contacted again is exactly a dead one.
    pub fn wait_agents_released(&self) {
        let lease = self.inner.lease;
        let settle = lease.clamp(Duration::from_secs(1), Duration::from_secs(2));
        let deadline = Instant::now() + lease * (DEREGISTER_LEASES + 1);
        let hard_cap = deadline + settle;
        let mut state = self.inner.lock();
        loop {
            let now = Instant::now();
            if now >= hard_cap {
                return;
            }
            let released = state
                .daemons
                .values()
                .all(|d| d.told_draining && now.duration_since(d.last_seen) >= settle);
            if released && (!state.reaped_untold || now >= deadline) {
                return;
            }
            let wait = (hard_cap - now).min(Duration::from_millis(50));
            state = self
                .inner
                .changed
                .wait_timeout(state, wait)
                .expect("scheduler lock poisoned")
                .0;
        }
    }

    /// Drains, waits for in-flight jobs to settle and commit, joins every
    /// thread, and writes the final `metrics.txt`. Idempotent.
    pub fn shutdown(&self) {
        self.stop(true);
    }

    /// [`Self::shutdown`]; without `drain`, daemons' assignments are
    /// force-expired so anything they push afterwards is discarded as
    /// stale. Local in-flight jobs always finish and commit: their workers
    /// are threads of this process, and abandoning them buys nothing.
    pub(crate) fn stop(&self, drain: bool) {
        {
            let mut state = self.inner.lock();
            state.draining = true;
            state.shutdown = true;
            if !drain {
                for index in 0..state.entries.len() {
                    if matches!(
                        state.entries[index].phase,
                        Phase::Running {
                            holder: Holder::Remote(_),
                            ..
                        }
                    ) {
                        state.expire(index);
                    }
                }
            }
        }
        self.inner.notify();
        let threads = std::mem::take(&mut *self.threads.lock().expect("engine threads"));
        for t in threads {
            let _ = t.join();
        }
    }

    /// Registers a daemon, returning its fresh id and the lease duration
    /// in milliseconds. Every registration gets a new id — a restarted
    /// daemon never aliases its dead predecessor's leases.
    pub fn register(&self, workers: u32) -> (u64, u64) {
        let mut state = self.inner.lock();
        state.last_daemon += 1;
        let id = state.last_daemon;
        state.daemons.insert(
            id,
            DaemonInfo {
                workers: workers.max(1),
                beacon: Heartbeat::live(),
                last_seen: Instant::now(),
                told_draining: false,
            },
        );
        drop(state);
        self.inner.notify();
        (id, self.inner.lease.as_millis() as u64)
    }

    /// A daemon's heartbeat: returns how many assignments it holds.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownDaemon`] if the id is not registered (the
    /// coordinator restarted or dropped the daemon as dead) — the daemon
    /// must re-register.
    pub fn beacon(&self, daemon: u64) -> Result<u32, ErrorCode> {
        let mut state = self.inner.lock();
        state.touch(daemon)?;
        Ok(state.running(|h| h == Holder::Remote(daemon)) as u32)
    }

    /// Hands the daemon one leased assignment, or `NoWork`. Polling also
    /// counts as a heartbeat.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownDaemon`] — see [`Engine::beacon`].
    pub fn poll_job(&self, daemon: u64) -> Result<PollReply, ErrorCode> {
        let mut state = self.inner.lock();
        let beacon = state.touch(daemon)?;
        let reply = match state.claim(Holder::Remote(daemon), beacon, self.inner.lease) {
            Some((index, epoch, spec)) => PollReply::Assignment {
                task: index as u64 + 1,
                epoch,
                spec,
            },
            None if state.draining || state.shutdown => {
                if let Some(info) = state.daemons.get_mut(&daemon) {
                    info.told_draining = true;
                }
                PollReply::NoWork { draining: true }
            }
            None => return Ok(PollReply::NoWork { draining: false }),
        };
        drop(state);
        self.inner.notify();
        Ok(reply)
    }

    /// Accepts one pushed result. Returns whether it was (or already had
    /// been) committed under this epoch; `false` means the epoch was stale
    /// — the task was reassigned while the daemon was silent — and the
    /// result was discarded.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownDaemon`] — see [`Engine::beacon`].
    pub fn push_result(
        &self,
        daemon: u64,
        task: u64,
        epoch: u64,
        outcome: RemoteOutcome,
    ) -> Result<bool, ErrorCode> {
        let mut state = self.inner.lock();
        state.touch(daemon)?;
        let Some(index) = state.index(task) else {
            return Ok(false);
        };
        let accepted = state.settle(index, epoch, outcome);
        drop(state);
        self.inner.notify();
        Ok(accepted)
    }

    /// Folds one daemon-pushed delta flush into the live aggregate.
    /// Counts as a heartbeat (streaming *is* liveness). Returns whether
    /// the flush was accepted: a daemon pushing for a benchmark it does
    /// not currently hold — its lease expired and the job was reassigned —
    /// is refused. Purely observational either way.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownDaemon`] — see [`Engine::beacon`].
    pub fn accept_delta(&self, daemon: u64, event: &DeltaEvent) -> Result<bool, ErrorCode> {
        self.inner.lock().touch(daemon)?;
        Ok(self.inner.ingest_from(Holder::Remote(daemon), event))
    }
}

/// Counts a local worker out however its thread ends — a normal return at
/// drain, or a panic escaping the per-attempt isolation — so the committer
/// knows when no local holder can settle any more. A dead worker's job
/// keeps a silent beacon, and the reaper requeues it.
struct WorkerExit<'a>(&'a Inner);

impl Drop for WorkerExit<'_> {
    fn drop(&mut self) {
        // The lock may be poisoned by the same panic; every critical
        // section leaves the state consistent, so recover the guard.
        let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.live_workers -= 1;
        drop(state);
        self.0.notify();
    }
}

fn worker_loop<R: Runner>(inner: &Arc<Inner>, worker: usize, runner: &R) {
    let holder = Holder::Local(worker);
    loop {
        let beacon = Heartbeat::live();
        let (index, epoch, spec) = {
            let mut state = inner.lock();
            loop {
                if let Some(claimed) = state.claim(holder, beacon.clone(), inner.lease) {
                    break claimed;
                }
                if state.draining || state.shutdown {
                    return;
                }
                state = inner.changed.wait(state).expect("scheduler lock poisoned");
            }
        };
        inner.notify();
        let sink = {
            let inner = Arc::clone(inner);
            DeltaSink::new(move |event| {
                inner.ingest_from(holder, &event);
            })
        };
        let outcome = run_assignment(&spec, runner, worker, &beacon, &sink);
        inner.lock().settle(index, epoch, outcome);
        inner.notify();
    }
}

/// The lease reaper: beats seen since the last scan extend a lease;
/// silence past the deadline requeues the job under a bumped epoch. Also
/// drops daemon registrations silent for [`DEREGISTER_LEASES`] leases.
fn reaper_loop(inner: &Inner) {
    let interval = (inner.lease / 4).clamp(Duration::from_millis(5), Duration::from_secs(1));
    let mut state = inner.lock();
    loop {
        if state.shutdown && state.quiesced() {
            return;
        }
        let now = Instant::now();
        let mut changed = false;
        for index in 0..state.entries.len() {
            let Phase::Running { lease, .. } = &mut state.entries[index].phase else {
                continue;
            };
            let beats = lease.beacon.beats();
            if beats > lease.beats_seen {
                lease.beats_seen = beats;
                lease.deadline = now + inner.lease;
            } else if now >= lease.deadline {
                state.expire(index);
                state.requeued.push_back(index);
                state.reassigned += 1;
                changed = true;
            }
        }
        let cutoff = inner.lease * DEREGISTER_LEASES;
        let mut reaped_untold = false;
        state.daemons.retain(|_, info| {
            let keep = now.duration_since(info.last_seen) < cutoff;
            // A daemon that vanished without hearing the drain notice may
            // be partitioned, not dead: a graceful drain must hold the
            // listener open long enough for it to re-register and be told.
            reaped_untold |= !keep && !info.told_draining;
            keep
        });
        state.reaped_untold |= reaped_untold;
        if changed || reaped_untold {
            inner.notify();
        }
        state = inner
            .changed
            .wait_timeout(state, interval)
            .expect("scheduler lock poisoned")
            .0;
    }
}

/// The single committer: applies settled entries through the ledger in
/// submission order, then writes `metrics.txt` once shutdown leaves no
/// holder that could settle the next entry. Anything still unsettled then
/// stays unjournaled; a restarted daemon re-runs it from the journal.
fn committer_loop(inner: &Inner, mut ledger: Ledger) {
    let mut state = inner.lock();
    loop {
        let i = state.next_commit;
        match state.entries.get(i).map(|e| &e.phase) {
            Some(Phase::Queued { skip: true }) => {
                // The resume journal already records this benchmark: count
                // it like campaign's skip path so a converging failures.txt
                // reports the same completed total.
                ledger.note_skipped();
                state.done += 1;
                finish_entry(&mut state.entries[i], true, 0);
            }
            Some(Phase::Cancelled) => {}
            Some(&Phase::Settled { daemon }) => {
                let entry = &mut state.entries[i];
                let outcome = entry
                    .outcome
                    .take()
                    .expect("a settled entry holds its outcome");
                let wall = Duration::from_secs_f64(outcome.wall_ms.max(0.0) / 1e3);
                let metrics = JobMetrics {
                    wall,
                    queue_wait: entry.queue_wait,
                    worker: outcome.worker as usize,
                    assignments: entry.assignments,
                    daemon,
                    cycles: outcome.cycles,
                    instructions: outcome.instructions,
                    ipc: outcome.ipc,
                };
                let name = entry.name;
                state.busy += wall;
                state.wait_sum += metrics.queue_wait;
                state.settled += 1;
                // The ledger's atomic writes run outside the lock.
                drop(state);
                ledger.commit_remote(
                    name,
                    outcome.ok,
                    outcome.attempts,
                    &outcome.body,
                    &outcome.error_line,
                    metrics,
                );
                inner.live.mark_settled(name, outcome.ok);
                state = inner.lock();
                state.done_names.insert(name.to_owned());
                if outcome.ok {
                    state.done += 1;
                } else {
                    state.failed += 1;
                }
                finish_entry(&mut state.entries[i], outcome.ok, outcome.attempts);
            }
            _ => {
                if state.shutdown && state.quiesced() {
                    break;
                }
                state = inner.changed.wait(state).expect("scheduler lock poisoned");
                continue;
            }
        }
        state.next_commit += 1;
        inner.notify();
    }
    let workers = inner.workers(&state).max(1) as usize;
    drop(state);
    ledger.finish(ExecSummary {
        workers,
        wall: inner.started.elapsed(),
    });
}

fn finish_entry(entry: &mut Entry, ok: bool, attempts: u32) {
    entry.phase = Phase::Done { ok, attempts };
    entry.history.push(JobState::Done { ok, attempts });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use tip_workloads::SuiteScale;

    fn spec(bench: &str) -> JobSpec {
        let mut s = JobSpec::new(bench, SuiteScale::Test);
        s.profilers = vec![tip_core::ProfilerId::Tip];
        s
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tip-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    /// An engine with no local workers: every claim in these tests is made
    /// by hand, so each test forces the interleaving it checks.
    fn coordinator(dir: &Path, resume: bool, lease: Duration) -> Engine {
        Engine::start(&EngineConfig {
            out_dir: dir.to_path_buf(),
            workers: 0,
            resume,
            lease,
        })
    }

    /// The outcome any holder renders for `spec` (deterministic).
    fn outcome_for(spec: &JobSpec) -> RemoteOutcome {
        run_assignment(spec, &SpecRunner, 0, &Heartbeat::noop(), &DeltaSink::noop())
    }

    /// Claims the next job as `holder`: a daemon polls; a local worker
    /// claims in-process, under a beacon that never beats.
    fn claim(c: &Engine, holder: Holder) -> PollReply {
        match holder {
            Holder::Remote(daemon) => c.poll_job(daemon).expect("registered daemon"),
            Holder::Local(_) => {
                let mut state = c.inner.lock();
                match state.claim(holder, Heartbeat::live(), c.inner.lease) {
                    Some((index, epoch, spec)) => PollReply::Assignment {
                        task: index as u64 + 1,
                        epoch,
                        spec,
                    },
                    None => PollReply::NoWork {
                        draining: state.draining,
                    },
                }
            }
        }
    }

    /// Settles `outcome` as `holder`: a daemon pushes; a local worker
    /// settles in-process.
    fn settle(
        c: &Engine,
        holder: Holder,
        task: u64,
        epoch: u64,
        outcome: RemoteOutcome,
    ) -> Result<bool, ErrorCode> {
        match holder {
            Holder::Remote(daemon) => c.push_result(daemon, task, epoch, outcome),
            Holder::Local(_) => {
                let index = usize::try_from(task - 1).expect("task id");
                let accepted = c.inner.lock().settle(index, epoch, outcome);
                c.inner.notify();
                Ok(accepted)
            }
        }
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !done() {
            assert!(Instant::now() < deadline, "{what} timed out");
            thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn register_assign_push_commits_in_order() {
        for local in [false, true] {
            let dir = fresh_dir(if local { "order-local" } else { "order" });
            let c = coordinator(&dir, false, Duration::from_secs(30));
            let holder = if local {
                Holder::Local(0)
            } else {
                let (daemon, lease_ms) = c.register(2);
                assert!(daemon >= 1);
                assert_eq!(lease_ms, 30_000);
                Holder::Remote(daemon)
            };
            let a = c.submit_deduped(&spec("mcf"), 0).expect("submit");
            let b = c.submit_deduped(&spec("exchange2"), 0).expect("submit");
            assert_eq!((a, b), (1, 2));

            // Pull both, settle out of order; the committer still writes in
            // submission order and both reach Done.
            let PollReply::Assignment {
                task: t1,
                epoch: e1,
                spec: s1,
            } = claim(&c, holder)
            else {
                panic!("expected assignment")
            };
            let PollReply::Assignment {
                task: t2,
                epoch: e2,
                spec: s2,
            } = claim(&c, holder)
            else {
                panic!("expected assignment")
            };
            assert_eq!((t1, t2), (1, 2));
            let o2 = outcome_for(&s2);
            let o1 = outcome_for(&s1);
            assert!(settle(&c, holder, t2, e2, o2).expect("push"));
            assert!(settle(&c, holder, t1, e1, o1.clone()).expect("push"));
            // Duplicate settle (lost ack): still acked, not double-committed,
            // not stale.
            assert!(settle(&c, holder, t1, e1, o1).expect("push"));
            assert_eq!(c.stale_results(), 0);

            wait_until("commit", || {
                matches!(c.status(1), Some(JobState::Done { ok: true, .. }))
                    && matches!(c.status(2), Some(JobState::Done { ok: true, .. }))
            });
            c.shutdown();
            let journal = std::fs::read_to_string(dir.join("journal.txt")).expect("journal");
            assert_eq!(journal, "done mcf\ndone exchange2\n");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn expired_lease_reassigns_and_discards_the_stale_push() {
        for local in [false, true] {
            let dir = fresh_dir(if local { "stale-local" } else { "stale" });
            let c = coordinator(&dir, false, Duration::from_millis(40));
            let dead = if local {
                Holder::Local(0)
            } else {
                Holder::Remote(c.register(1).0)
            };
            assert_eq!(c.submit_deduped(&spec("mcf"), 0).expect("submit"), 1);
            let PollReply::Assignment {
                task,
                epoch,
                spec: s,
            } = claim(&c, dead)
            else {
                panic!("expected assignment")
            };
            // Go silent past the lease; the reaper requeues under a new epoch.
            wait_until("reaper", || c.stats().reassigned >= 1);
            // A dead daemon may have been deregistered outright (silence past
            // DEREGISTER_LEASES); both refusal shapes discard the result.
            let o = outcome_for(&s);
            match settle(&c, dead, task, epoch, o.clone()) {
                Ok(accepted) => {
                    assert!(!accepted, "stale push must be refused");
                    assert_eq!(c.stale_results(), 1);
                }
                Err(code) => {
                    assert!(!local);
                    assert_eq!(code, ErrorCode::UnknownDaemon);
                }
            }
            // A live holder picks the job back up and settles it for real.
            let live = if local {
                Holder::Local(1)
            } else {
                Holder::Remote(c.register(1).0)
            };
            let PollReply::Assignment {
                task: t2,
                epoch: e2,
                spec: s2,
            } = claim(&c, live)
            else {
                panic!("expected reassignment")
            };
            assert_eq!(t2, task);
            assert!(e2 > epoch);
            assert_eq!(s2, s);
            // The result bytes are deterministic — same spec, same task — so
            // the dead holder's rendered outcome is exactly what the live one
            // would produce. The tiny test lease may keep expiring while we
            // push, so chase the epoch until a push lands.
            let mut accepted = settle(&c, live, t2, e2, o.clone()).expect("push");
            let deadline = Instant::now() + Duration::from_secs(30);
            while !accepted {
                assert!(Instant::now() < deadline, "push never landed");
                match claim(&c, live) {
                    PollReply::Assignment {
                        task: t, epoch: e, ..
                    } => {
                        assert_eq!(t, task);
                        accepted = settle(&c, live, t, e, o.clone()).expect("push");
                    }
                    PollReply::NoWork { .. } => thread::sleep(Duration::from_millis(5)),
                }
            }
            wait_until("commit", || {
                matches!(c.status(1), Some(JobState::Done { ok: true, .. }))
            });
            assert!(c.stats().reassigned >= 1);
            c.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn resume_skips_the_settled_prefix_and_unknown_daemons_must_reregister() {
        for local in [false, true] {
            let dir = fresh_dir(if local { "resume-local" } else { "resume" });
            std::fs::write(dir.join("journal.txt"), "done mcf\n").expect("seed journal");
            let c = coordinator(&dir, true, Duration::from_secs(30));
            // A daemon id from a previous coordinator incarnation is unknown.
            assert_eq!(c.beacon(99), Err(ErrorCode::UnknownDaemon));
            assert_eq!(c.poll_job(99).unwrap_err(), ErrorCode::UnknownDaemon);

            assert_eq!(c.submit_deduped(&spec("mcf"), 7).expect("submit"), 1);
            // Idempotent resubmission returns the same id.
            assert_eq!(c.submit_deduped(&spec("mcf"), 7).expect("submit"), 1);
            let holder = if local {
                Holder::Local(0)
            } else {
                Holder::Remote(c.register(1).0)
            };
            // The journalled bench is a resume-skip: no assignment goes out.
            assert_eq!(claim(&c, holder), PollReply::NoWork { draining: false });
            wait_until("skip-ack", || {
                matches!(
                    c.status(1),
                    Some(JobState::Done {
                        ok: true,
                        attempts: 0
                    })
                )
            });
            c.shutdown();
            let journal = std::fs::read_to_string(dir.join("journal.txt")).expect("journal");
            assert_eq!(journal, "done mcf\n");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn accept_delta_requires_the_daemon_to_hold_the_assignment() {
        use tip_core::{BankDeltas, ProfileDelta, NUM_CATEGORIES};

        let event = |seq: u64| DeltaEvent {
            bench: "mcf".to_owned(),
            attempt: 1,
            deltas: BankDeltas {
                seq,
                per_profiler: vec![(
                    tip_core::ProfilerId::Tip,
                    ProfileDelta::from_entries(Granularity::Function, 8, [(0, 840)]),
                )],
                oracle: ProfileDelta::from_entries(Granularity::Function, 8, [(1, 840)]),
                stack: vec![0; NUM_CATEGORIES],
                cycles: seq * 1_000,
            },
        };

        let dir = fresh_dir("delta");
        let c = coordinator(&dir, false, Duration::from_secs(30));
        let (holder, _) = c.register(1);
        assert_eq!(c.submit_deduped(&spec("mcf"), 0).expect("submit"), 1);

        // Before the assignment goes out nobody holds the bench: the push is
        // acked-but-dropped, and nothing reaches the aggregate.
        assert_eq!(c.accept_delta(holder, &event(1)), Ok(false));
        assert!(c.live().view().bench("mcf").is_none());
        // A daemon the coordinator never met is refused outright.
        assert_eq!(c.accept_delta(99, &event(1)), Err(ErrorCode::UnknownDaemon));

        let Ok(PollReply::Assignment { .. }) = c.poll_job(holder) else {
            panic!("expected assignment")
        };
        assert_eq!(c.accept_delta(holder, &event(1)), Ok(true));
        let view = c.live().view();
        assert_eq!(view.bench("mcf").map(|b| b.flushes), Some(1));

        // A registered bystander that does not hold the lease is fenced off:
        // its (stale-epoch) stream must not corrupt the holder's slot. So is
        // a local worker that does not hold it.
        let (bystander, _) = c.register(1);
        assert_eq!(c.accept_delta(bystander, &event(2)), Ok(false));
        assert!(!c.inner.ingest_from(Holder::Local(0), &event(2)));
        assert_eq!(c.live().view().bench("mcf").map(|b| b.flushes), Some(1));
        c.stop(false);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Shutdown joins every thread, and nothing the engine started may keep
    /// its live aggregate alive afterwards.
    #[test]
    fn shutdown_releases_the_live_aggregate() {
        for workers in [1, 0] {
            let dir = fresh_dir(&format!("release-{workers}"));
            let config = EngineConfig {
                out_dir: dir.clone(),
                workers,
                resume: false,
                lease: Duration::from_secs(30),
            };
            let engine = Engine::start(&config);
            let live = engine.live();
            if workers > 0 {
                let job = engine.submit(&spec("mcf")).expect("submit");
                wait_until("job", || {
                    matches!(engine.status(job), Some(JobState::Done { ok: true, .. }))
                });
            } else {
                let _ = engine.register(1);
            }
            engine.shutdown();
            drop(engine);
            assert_eq!(Arc::strong_count(&live), 1, "{workers} local workers");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
