//! The `tipd` TCP server: bounded acceptor, thread-per-connection pool,
//! per-connection I/O timeouts, request-size caps, typed backpressure, and
//! graceful drain.
//!
//! Layering: this module owns sockets and nothing else. Every decision
//! about jobs — queueing, claiming, committing, resume — lives in
//! [`crate::engine`]; every byte on the wire is framed by
//! [`crate::proto`]. A connection handler is a loop of
//! `read_request → dispatch → write_response`, where `Watch` is the one
//! request that streams multiple frames back.
//!
//! Shutdown is wire-driven (a [`Request::Shutdown`] frame) or in-process
//! ([`ServerHandle::shutdown`]), both through one path: a draining
//! coordinator first lets its fleet agents hear the drain, then the
//! acceptor stops, handlers finish their in-flight request within one I/O
//! timeout, and the engine drains — in-flight jobs settle and commit,
//! queued jobs stay unjournaled for a restarted daemon to resume.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::engine::{Engine, EngineConfig, PollReply, SubmitError, DEFAULT_LEASE};
use crate::proto::{
    read_request, write_response, ErrorCode, JobState, QueryKind, QueryRow, Request, Response,
    ServerStats,
};
use tip_core::{CycleCategory, ProfilerId};
use tip_isa::Granularity;
use tip_trace::TraceError;

/// Rows per benchmark a `Query{TopN, n: 0}` answers with.
const DEFAULT_TOP_N: usize = 10;

/// How the server listens and bounds its resources.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Worker threads for the job engine.
    pub workers: usize,
    /// Campaign directory for the engine's ledger.
    pub out_dir: PathBuf,
    /// Resume the directory's journal instead of starting fresh.
    pub resume: bool,
    /// Maximum concurrently served connections; excess connections get a
    /// typed [`Response::Busy`] and are closed.
    pub max_conns: usize,
    /// Per-connection read timeout. Idle connections survive (the
    /// handler re-arms after a timeout); a wedged peer cannot hold a
    /// handler thread hostage past this, and shutdown latency is bounded
    /// by it.
    pub io_timeout: Duration,
    /// Per-connection write deadline: a client that stops reading (a
    /// slow-loris consumer of a `Watch` stream) is disconnected once a
    /// single frame write blocks this long, freeing the handler thread.
    pub write_timeout: Duration,
    /// Job lease for the engine's reaper (see [`EngineConfig::lease`]).
    pub lease: Duration,
    /// Load-shedding watermark: while the engine's queue depth is at or
    /// past this, `Submit` is refused with a typed
    /// [`Response::Overloaded`] (Status/Result/Watch still serve).
    pub shed_watermark: usize,
    /// The pause `Overloaded` suggests to shedded clients, milliseconds.
    pub retry_after_ms: u32,
    /// Per-connection request-rate cap: requests beyond this many in one
    /// second get a typed [`ErrorCode::RateLimited`] refusal and the
    /// handler sleeps out the window, so one hot client cannot starve the
    /// rest of the pool.
    pub max_frames_per_sec: u32,
    /// Run as a fleet coordinator: the engine starts with no local workers
    /// (`workers` is ignored); jobs are sharded across daemons that
    /// `Register` over the wire, and `lease` governs *daemon* liveness.
    /// Setting this leaves `lease` alone ([`ServerConfig::new`]'s
    /// [`DEFAULT_LEASE`]); `tipd --coordinator` picks the shorter
    /// [`crate::fleet::DEFAULT_FLEET_LEASE`] itself, since a daemon beacons
    /// from a dedicated thread and its lease only has to outlive network
    /// jitter.
    pub coordinator: bool,
}

impl ServerConfig {
    /// A config with production defaults for `out_dir`, listening on an
    /// ephemeral localhost port.
    #[must_use]
    pub fn new(out_dir: PathBuf) -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".to_owned(),
            workers: 1,
            out_dir,
            resume: false,
            max_conns: 32,
            io_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            lease: DEFAULT_LEASE,
            shed_watermark: 256,
            retry_after_ms: 500,
            max_frames_per_sec: 200,
            coordinator: false,
        }
    }
}

struct Shared {
    engine: Engine,
    /// Symbol-name cache for `Query{TopN}` labels, keyed by benchmark: the
    /// engine regenerates the workload program per lookup, so labels are
    /// resolved once and reused.
    labels: Mutex<HashMap<String, Vec<String>>>,
    shutdown: AtomicBool,
    /// Whether the requested shutdown drains in-flight fleet assignments
    /// (wire `Shutdown{drain:false}` force-expires them instead).
    drain_on_shutdown: AtomicBool,
    active_conns: AtomicUsize,
    max_conns: usize,
    io_timeout: Duration,
    write_timeout: Duration,
    shed_watermark: usize,
    retry_after_ms: u32,
    max_frames_per_sec: u32,
    /// Submits refused at the overload watermark (for the stats endpoint).
    shed: AtomicU32,
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] or send a wire `Shutdown`.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
}

/// Binds, starts the engine, and spawns the acceptor.
///
/// # Errors
///
/// Propagates bind failures.
pub fn serve(config: &ServerConfig) -> io::Result<ServerHandle> {
    serve_with_runner(config, tip_bench::executor::SpecRunner)
}

/// [`serve`] with a caller-chosen runner — the chaos tests inject slow or
/// faulty runners behind a real socket exactly as the engine tests do.
///
/// # Errors
///
/// Propagates bind failures.
pub fn serve_with_runner<R>(config: &ServerConfig, runner: R) -> io::Result<ServerHandle>
where
    R: tip_bench::executor::Runner + Send + Clone + 'static,
{
    let listener = TcpListener::bind(&config.listen)?;
    let addr = listener.local_addr()?;
    let engine = Engine::start_with_runner(
        &EngineConfig {
            out_dir: config.out_dir.clone(),
            workers: if config.coordinator {
                0
            } else {
                config.workers.max(1)
            },
            resume: config.resume,
            lease: config.lease,
        },
        runner,
    );
    let shared = Arc::new(Shared {
        engine,
        labels: Mutex::new(HashMap::new()),
        shutdown: AtomicBool::new(false),
        drain_on_shutdown: AtomicBool::new(true),
        active_conns: AtomicUsize::new(0),
        max_conns: config.max_conns.max(1),
        io_timeout: config.io_timeout,
        write_timeout: config.write_timeout,
        shed_watermark: config.shed_watermark.max(1),
        retry_after_ms: config.retry_after_ms,
        max_frames_per_sec: config.max_frames_per_sec.max(1),
        shed: AtomicU32::new(0),
    });
    let handlers = Arc::new(Mutex::new(Vec::new()));
    let acceptor = {
        let shared = Arc::clone(&shared);
        let handlers = Arc::clone(&handlers);
        thread::spawn(move || acceptor_loop(&listener, &shared, &handlers))
    };
    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        handlers,
    })
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine, for in-process inspection (tests, the daemon's exit
    /// report).
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// Whether a shutdown (wire or in-process) has been requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until a wire `Shutdown` request stops the server, then
    /// finishes the drain. This is the daemon's main loop.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.finish();
    }

    /// In-process equivalent of the wire `Shutdown{drain: true}` request:
    /// release fleet agents, stop accepting, finish handlers, drain and
    /// commit in-flight jobs.
    pub fn shutdown(mut self) {
        shut_down(&self.shared, self.addr, true);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.finish();
    }

    fn finish(&self) {
        let handlers = std::mem::take(&mut *self.handlers.lock().expect("handler registry"));
        for h in handlers {
            let _ = h.join();
        }
        let drain = self.shared.drain_on_shutdown.load(Ordering::SeqCst);
        self.shared.engine.stop(drain);
    }
}

/// Starts a shutdown, wire-driven or in-process: drains the engine, then
/// flags shutdown and unblocks the acceptor's blocking `accept` with a
/// throwaway self-connection. A draining coordinator first keeps the
/// listener up until every registered agent has polled a
/// `NoWork{draining}` (or lapsed): agents dial per request, so closing the
/// listener first would strand them spinning out their give-up window.
/// Only the calling thread blocks; polls keep being served.
fn shut_down(shared: &Shared, addr: SocketAddr, drain: bool) {
    shared.drain_on_shutdown.store(drain, Ordering::SeqCst);
    shared.engine.drain();
    if drain {
        shared.engine.wait_agents_released();
    }
    shared.shutdown.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
}

fn acceptor_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    handlers: &Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Backpressure: over the limit, answer with a typed Busy so the
        // client can back off, then close. The frame write is best-effort
        // on purpose — the peer may already be gone.
        let active = shared.active_conns.load(Ordering::SeqCst);
        if active >= shared.max_conns {
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(shared.write_timeout));
            let _ = write_response(
                &mut stream,
                &Response::Busy {
                    active: active as u32,
                    limit: shared.max_conns as u32,
                },
            );
            continue;
        }
        shared.active_conns.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::clone(shared);
        let handle = thread::spawn(move || {
            handle_connection(stream, &shared);
            shared.active_conns.fetch_sub(1, Ordering::SeqCst);
        });
        handlers.lock().expect("handler registry").push(handle);
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.write_timeout));
    let _ = stream.set_nodelay(true);
    let window = Duration::from_secs(1);
    let mut window_start = Instant::now();
    let mut frames_in_window: u32 = 0;
    loop {
        match read_request(&mut stream) {
            Ok(None) => break,
            Ok(Some(req)) => {
                // Per-connection frame-rate cap: a request beyond the
                // budget gets a typed refusal (the stream stays aligned)
                // and the handler sleeps out the window, so one hot client
                // cannot monopolise the pool.
                let elapsed = window_start.elapsed();
                if elapsed >= window {
                    window_start = Instant::now();
                    frames_in_window = 0;
                }
                frames_in_window += 1;
                if frames_in_window > shared.max_frames_per_sec {
                    let refused = write_response(
                        &mut stream,
                        &Response::Error {
                            code: ErrorCode::RateLimited,
                            message: format!(
                                "over {} requests/s on this connection; retry shortly",
                                shared.max_frames_per_sec
                            ),
                        },
                    );
                    if refused.is_err() {
                        break;
                    }
                    thread::sleep(window.saturating_sub(elapsed));
                    continue;
                }
                let stop = dispatch(&mut stream, shared, req);
                if stop {
                    break;
                }
            }
            Err(TraceError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle between requests: re-arm unless we're going down.
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(e) => {
                // A zero-length frame leaves the stream aligned on the
                // next header, so a typed reply and another read are safe.
                // Everything else (bad magic, CRC, truncation) may have
                // desynced the framing: reply once and close.
                let recoverable = matches!(e, TraceError::BadLength { len: 0, .. });
                let _ = write_response(
                    &mut stream,
                    &Response::Error {
                        code: ErrorCode::BadRequest,
                        message: e.to_string(),
                    },
                );
                if !recoverable {
                    break;
                }
            }
        }
    }
}

/// Serves one request; returns `true` when the connection must close
/// (shutdown acknowledged).
fn dispatch(stream: &mut TcpStream, shared: &Shared, req: Request) -> bool {
    let engine = &shared.engine;
    let fleet_frame = matches!(
        req,
        Request::Register { .. }
            | Request::Beacon { .. }
            | Request::PollJob { .. }
            | Request::PushResult { .. }
            | Request::PushDelta { .. }
    );
    if fleet_frame && !engine.is_coordinator() {
        let refused = Response::Error {
            code: ErrorCode::BadRequest,
            message: "not a coordinator".to_owned(),
        };
        return write_response(stream, &refused).is_err();
    }
    match req {
        Request::Submit { spec, req_id } => {
            // Load shedding: past the watermark, refuse new work with a
            // typed pause hint while Status/Result/Watch keep serving —
            // degradation, not collapse. (An idempotent resubmit of an
            // already-queued job still dedups below the watermark later.)
            if engine.queue_depth() >= shared.shed_watermark {
                shared.shed.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Overloaded {
                    retry_after_ms: shared.retry_after_ms,
                    queued: engine.queue_depth() as u32,
                };
                return write_response(stream, &resp).is_err();
            }
            let resp = match engine.submit_deduped(&spec, req_id) {
                Ok(job) => Response::Submitted { job },
                Err(SubmitError::UnknownBench(b)) => Response::Error {
                    code: ErrorCode::UnknownBench,
                    message: format!("unknown benchmark `{b}`"),
                },
                Err(SubmitError::UnknownCore(c)) => Response::Error {
                    code: ErrorCode::UnknownCore,
                    message: format!("unknown core preset `{c}`"),
                },
                Err(SubmitError::Draining) => Response::Error {
                    code: ErrorCode::Draining,
                    message: "server is draining".to_owned(),
                },
            };
            write_response(stream, &resp).is_err()
        }
        Request::Status { job } => {
            let resp = match engine.status(job) {
                Some(state) => Response::Status { job, state },
                None => unknown_job(job),
            };
            write_response(stream, &resp).is_err()
        }
        Request::Watch { job, from_seq } => watch(stream, shared, job, from_seq),
        Request::Result { job } => {
            let resp = match engine.result(job) {
                Ok(body) => Response::ResultBody { job, body },
                Err(message) => Response::Error {
                    code: if message.starts_with("unknown job") {
                        ErrorCode::UnknownJob
                    } else {
                        ErrorCode::NotReady
                    },
                    message,
                },
            };
            write_response(stream, &resp).is_err()
        }
        Request::Cancel { job } => {
            let ok = engine.cancel(job);
            write_response(stream, &Response::Cancelled { job, ok }).is_err()
        }
        Request::Stats => {
            let mut stats: ServerStats = engine.stats();
            stats.connections = shared.active_conns.load(Ordering::SeqCst) as u32;
            stats.shed = shared.shed.load(Ordering::Relaxed);
            let view = engine.live().view();
            stats.deltas = view.total_flushes();
            stats.streamed = view.benches.len() as u32;
            write_response(stream, &Response::Stats(stats)).is_err()
        }
        Request::Shutdown { drain } => {
            let _ = write_response(stream, &Response::ShuttingDown { drain });
            let addr = stream
                .local_addr()
                .unwrap_or_else(|_| SocketAddr::from(([127, 0, 0, 1], 0)));
            shut_down(shared, addr, drain);
            true
        }
        Request::Register { workers, .. } => {
            let (daemon, lease_ms) = engine.register(workers);
            write_response(stream, &Response::Registered { daemon, lease_ms }).is_err()
        }
        Request::Beacon { daemon } => {
            let resp = match engine.beacon(daemon) {
                Ok(tasks) => Response::BeaconAck { tasks },
                Err(_) => unknown_daemon(daemon),
            };
            write_response(stream, &resp).is_err()
        }
        Request::PollJob { daemon } => {
            let resp = match engine.poll_job(daemon) {
                Ok(PollReply::Assignment { task, epoch, spec }) => {
                    Response::Assignment { task, epoch, spec }
                }
                Ok(PollReply::NoWork { draining }) => Response::NoWork { draining },
                Err(_) => unknown_daemon(daemon),
            };
            write_response(stream, &resp).is_err()
        }
        Request::PushResult {
            daemon,
            task,
            epoch,
            outcome,
        } => {
            let resp = match engine.push_result(daemon, task, epoch, outcome) {
                Ok(accepted) => Response::ResultAck { accepted },
                Err(_) => unknown_daemon(daemon),
            };
            write_response(stream, &resp).is_err()
        }
        Request::PushDelta { daemon, frame } => {
            // A fleet daemon's flushes are fenced: the daemon must still
            // hold the benchmark's assignment, so a resurrected daemon's
            // stale stream cannot pollute the fresh slot.
            let resp = match engine.accept_delta(daemon, &frame.into_event()) {
                Ok(accepted) => Response::DeltaAck { accepted },
                Err(_) => unknown_daemon(daemon),
            };
            write_response(stream, &resp).is_err()
        }
        Request::Query {
            kind,
            bench,
            profiler,
            n,
        } => {
            let rows = answer_query(shared, kind, &bench, profiler, n);
            write_response(stream, &Response::QueryReply { rows }).is_err()
        }
    }
}

/// Answers a live query from the current aggregate snapshot. An empty
/// `bench` means every streamed benchmark; `n` caps `TopN` rows per
/// benchmark (0 = [`DEFAULT_TOP_N`]) and, when non-zero, keeps only the
/// trailing `n` points of each `ErrorTrajectory`.
fn answer_query(
    shared: &Shared,
    kind: QueryKind,
    bench: &str,
    profiler: Option<ProfilerId>,
    n: u32,
) -> Vec<QueryRow> {
    let view = shared.engine.live().view();
    let mut rows = Vec::new();
    for b in view
        .benches
        .iter()
        .filter(|b| bench.is_empty() || b.bench == bench)
    {
        match kind {
            QueryKind::TopN => {
                let cap = if n == 0 { DEFAULT_TOP_N } else { n as usize };
                let top = b.top_n(profiler, cap);
                let syms: Vec<u32> = top.iter().map(|&(s, _, _)| s).collect();
                let labels = symbol_labels(shared, &b.bench, b.granularity, b.num_symbols, &syms);
                for ((_, units, share), label) in top.into_iter().zip(labels) {
                    rows.push(QueryRow {
                        bench: b.bench.clone(),
                        profiler,
                        label,
                        value: units as f64,
                        share,
                    });
                }
            }
            QueryKind::ErrorTrajectory => {
                let ids: Vec<ProfilerId> = match profiler {
                    Some(id) => vec![id],
                    None => b.per_profiler.iter().map(|(id, _)| *id).collect(),
                };
                for id in ids {
                    let mut points = b.error_trajectory(id);
                    if n != 0 && points.len() > n as usize {
                        points.drain(..points.len() - n as usize);
                    }
                    for (cycles, error) in points {
                        rows.push(QueryRow {
                            bench: b.bench.clone(),
                            profiler: Some(id),
                            label: id.label().to_owned(),
                            value: cycles as f64,
                            share: error,
                        });
                    }
                }
            }
            QueryKind::CycleStack => {
                let total: i64 = b.stack.iter().filter(|&&u| u > 0).sum();
                for (cat, &units) in CycleCategory::ALL.iter().zip(&b.stack) {
                    rows.push(QueryRow {
                        bench: b.bench.clone(),
                        profiler: None,
                        label: cat.label().to_owned(),
                        value: units as f64,
                        share: if total > 0 {
                            units.max(0) as f64 / total as f64
                        } else {
                            0.0
                        },
                    });
                }
            }
        }
    }
    rows
}

/// Resolves symbol ids to display names via the engine, caching the full
/// name table per benchmark. Unresolvable symbols (or a benchmark the
/// engine does not know yet) fall back to `sym<N>` without caching, so a
/// later resolution can still land.
fn symbol_labels(
    shared: &Shared,
    bench: &str,
    g: Granularity,
    num_symbols: u32,
    syms: &[u32],
) -> Vec<String> {
    let fallback = |s: u32| format!("sym{s}");
    let mut cache = shared.labels.lock().expect("label cache");
    if !cache.contains_key(bench) {
        let all: Vec<u32> = (0..num_symbols).collect();
        match shared.engine.symbol_names(bench, g, &all) {
            Some(names) => {
                cache.insert(bench.to_owned(), names);
            }
            None => return syms.iter().map(|&s| fallback(s)).collect(),
        }
    }
    let names = &cache[bench];
    syms.iter()
        .map(|&s| {
            names
                .get(s as usize)
                .cloned()
                .unwrap_or_else(|| fallback(s))
        })
        .collect()
}

fn unknown_daemon(daemon: u64) -> Response {
    Response::Error {
        code: ErrorCode::UnknownDaemon,
        message: format!("unknown daemon {daemon}; re-register"),
    }
}

/// Streams `Progress` frames — replaying the job's history from
/// `from_seq`, then live — until the job settles, the peer vanishes, or
/// the server shuts down (a drained-away queued job would otherwise never
/// terminate the stream). Every frame carries its history sequence number,
/// so a client whose connection dropped reconnects with
/// `Watch{from_seq: last_seen + 1}` and resumes without gaps or
/// duplicates.
fn watch(stream: &mut TcpStream, shared: &Shared, job: u64, from_seq: u64) -> bool {
    let engine = &shared.engine;
    let bench = engine.bench_of(job);
    let mut next_seq = from_seq;
    loop {
        let Some(batch) = engine.wait_history(job, next_seq, Duration::from_millis(200)) else {
            return write_response(stream, &unknown_job(job)).is_err();
        };
        // Streamed simulated cycles for the job's benchmark, refreshed per
        // batch: watchers see the live view advance between state changes.
        let cycles = bench
            .as_deref()
            .and_then(|name| engine.live().view().bench(name).map(|b| b.cycles))
            .unwrap_or(0);
        let mut last = None;
        for (seq, state) in batch {
            let frame = Response::Progress {
                job,
                state,
                seq,
                cycles,
            };
            if write_response(stream, &frame).is_err() {
                return true;
            }
            next_seq = seq + 1;
            last = Some(state);
        }
        if last.is_some_and(|s| s.is_terminal()) {
            return false;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            // The stream ends without a terminal state; the client sees a
            // clean EOF and knows to reconnect (possibly to a restarted
            // daemon) and resume from its last seen sequence number.
            return true;
        }
    }
}

fn unknown_job(job: u64) -> Response {
    Response::Error {
        code: ErrorCode::UnknownJob,
        message: format!("unknown job {job}"),
    }
}

const _: () = {
    const fn send<T: Send>() {}
    const fn sync<T: Sync>() {}
    send::<JobState>();
    sync::<Shared>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::fleet::{run_agent, AgentConfig};
    use crate::proto::{read_response, write_request, DeltaFrame, JobSpec, RemoteOutcome};
    use std::sync::mpsc;
    use tip_workloads::SuiteScale;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tip-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    /// A one-flush delta for `mcf`, which the server under test never runs.
    fn mcf_delta() -> DeltaFrame {
        DeltaFrame {
            bench: "mcf".to_owned(),
            attempt: 1,
            seq: 1,
            granularity: Granularity::Instruction,
            num_symbols: 4,
            per_profiler: vec![(ProfilerId::Tip, vec![(0, 840)])],
            oracle: vec![(0, 840)],
            stack: Vec::new(),
            cycles: 1,
        }
    }

    /// Sends `req` on `stream` and returns the error code it was refused
    /// with (`None` if it was answered).
    fn refusal(stream: &mut TcpStream, req: &Request) -> Option<ErrorCode> {
        write_request(stream, req).expect("write");
        match read_response(stream).expect("read") {
            Some(Response::Error { code, .. }) => Some(code),
            _ => None,
        }
    }

    /// A daemon with local workers is no coordinator: fleet frames —
    /// daemon 0's deltas included — get a typed `BadRequest`, no daemon is
    /// ever counted, and nothing reaches the live aggregate.
    #[test]
    fn a_plain_daemon_refuses_fleet_frames() {
        let dir = tmp_dir("plain");
        let handle = serve(&ServerConfig::new(dir.clone())).expect("bind");
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        for req in [
            Request::Register { workers: 1 },
            Request::Beacon { daemon: 1 },
            Request::PollJob { daemon: 1 },
            Request::PushResult {
                daemon: 1,
                task: 1,
                epoch: 1,
                outcome: RemoteOutcome {
                    ok: false,
                    attempts: 1,
                    body: String::new(),
                    error_line: "injected".to_owned(),
                    wall_ms: 0.0,
                    worker: 0,
                    cycles: 0,
                    instructions: 0,
                    ipc: 0.0,
                },
            },
            Request::PushDelta {
                daemon: 0,
                frame: mcf_delta(),
            },
        ] {
            assert_eq!(
                refusal(&mut stream, &req),
                Some(ErrorCode::BadRequest),
                "{req:?}"
            );
        }
        assert_eq!(handle.engine().stats().daemons, 0);
        assert!(handle.engine().live().view().benches.is_empty());
        drop(stream);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A coordinator fences every delta by its sender's registration:
    /// daemon 0 is never registered, so its flush is refused and the live
    /// aggregate stays empty.
    #[test]
    fn a_coordinator_refuses_unregistered_deltas() {
        let dir = tmp_dir("fence");
        let mut config = ServerConfig::new(dir.clone());
        config.coordinator = true;
        let handle = serve(&config).expect("bind");
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        let req = Request::PushDelta {
            daemon: 0,
            frame: mcf_delta(),
        };
        assert_eq!(refusal(&mut stream, &req), Some(ErrorCode::UnknownDaemon));
        assert!(handle.engine().live().view().benches.is_empty());
        drop(stream);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An in-process shutdown tells a coordinator's agents to exit, as a
    /// wire `Shutdown{drain: true}` does, instead of closing the listener
    /// on them.
    #[test]
    fn in_process_shutdown_releases_fleet_agents() {
        let dir = tmp_dir("agents");
        let mut config = ServerConfig::new(dir.clone());
        config.coordinator = true;
        let handle = serve(&config).expect("bind");
        let addr = handle.addr().to_string();
        let (done_tx, done_rx) = mpsc::channel();
        let agent = {
            let mut agent = AgentConfig::new(addr.clone());
            agent.give_up_after = Duration::from_secs(30);
            thread::spawn(move || {
                let _ = done_tx.send(run_agent(&agent).is_ok());
            })
        };
        let client = Client::new(&addr);
        let job = client
            .submit(&JobSpec::new("mcf", SuiteScale::Test))
            .expect("submit");
        let state = client.watch(job, |_| {}).expect("watch");
        assert!(
            matches!(state, JobState::Done { ok: true, .. }),
            "{state:?}"
        );

        handle.shutdown();
        let released = done_rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(released, Ok(true), "the agent exits clean within 10 s");
        agent.join().expect("agent thread");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
