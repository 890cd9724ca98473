//! The `tipctl` client library: one connection per request, bounded
//! capped-backoff dialing with deterministic seeded jitter, idempotent
//! retrying submission, reconnecting watch streams, and typed errors for
//! everything the server can say.
//!
//! The client is deliberately stateless — each call dials, sends one
//! request, reads the reply (or the `Progress` stream for
//! [`Client::watch`]), and closes. That keeps the protocol trivially
//! restartable: a daemon restart between calls is invisible except for job
//! ids, which restart from 1 with the resume journal deciding what
//! actually re-runs.
//!
//! # Fault tolerance
//!
//! Three mechanisms make every call survive transient wire damage:
//!
//! * **Retry with capped backoff and seeded jitter.** Retryable failures —
//!   transport errors, damaged frames, a closed stream, `Busy`,
//!   `Overloaded`, rate limiting — are retried up to a bounded count, with
//!   delays growing exponentially to a cap and jittered by a deterministic
//!   seeded generator (reproducible in tests, desynchronised in fleets).
//! * **Idempotent submission.** [`Client::submit`] stamps each logical
//!   submit with a fresh nonzero request id and reuses it across retries;
//!   the server's dedup table maps a resubmission to the original job id,
//!   so "timed out waiting for `Submitted`" never double-runs a job.
//! * **Resuming watch.** [`Client::watch`] tracks the last `Progress`
//!   sequence number it saw; when the stream dies it reconnects and asks
//!   for `Watch{from_seq: last + 1}`, so the caller observes every
//!   transition exactly once, across any number of connection drops.

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, SystemTime};

use crate::engine::PollReply;
use crate::proto::{
    read_response, write_request, DeltaFrame, ErrorCode, JobSpec, JobState, QueryKind, QueryRow,
    RemoteOutcome, Request, Response, ServerStats,
};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use tip_core::ProfilerId;
use tip_trace::TraceError;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Could not reach the server (after all connect retries).
    Io(io::Error),
    /// The server's bytes did not decode as TIPW.
    Proto(TraceError),
    /// The server answered with a typed refusal.
    Server {
        /// Machine-readable reason.
        code: ErrorCode,
        /// One-line detail.
        message: String,
    },
    /// The server is at its connection limit.
    Busy {
        /// Connections it is serving.
        active: u32,
        /// Its limit.
        limit: u32,
    },
    /// The server is shedding load: the queue is past its watermark.
    Overloaded {
        /// Suggested pause before resubmitting, milliseconds.
        retry_after_ms: u32,
        /// Its queue depth when it refused.
        queued: u32,
    },
    /// The server closed the stream or answered with the wrong frame.
    UnexpectedReply(String),
}

impl ClientError {
    /// Whether retrying the same request can plausibly succeed: transport
    /// failures, damaged or truncated frames, a closed stream, `Busy`,
    /// `Overloaded`, rate limiting — and `BadRequest`, which for this
    /// client (whose encoder always emits well-formed frames) means the
    /// request was damaged *in flight*.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_)
            | ClientError::Proto(_)
            | ClientError::UnexpectedReply(_)
            | ClientError::Busy { .. }
            | ClientError::Overloaded { .. } => true,
            ClientError::Server { code, .. } => {
                matches!(code, ErrorCode::BadRequest | ErrorCode::RateLimited)
            }
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection failed: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server refused ({code:?}): {message}")
            }
            ClientError::Busy { active, limit } => {
                write!(f, "server busy ({active}/{limit} connections)")
            }
            ClientError::Overloaded {
                retry_after_ms,
                queued,
            } => write!(
                f,
                "server overloaded ({queued} queued); retry in {retry_after_ms} ms"
            ),
            ClientError::UnexpectedReply(what) => write!(f, "unexpected reply: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A TIPW client for one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    /// Connect attempts before giving up.
    connect_attempts: u32,
    /// Delay before the second attempt; doubles each retry up to the cap.
    backoff: Duration,
    /// Ceiling on any single backoff sleep.
    backoff_cap: Duration,
    /// Per-attempt TCP connect deadline.
    connect_timeout: Duration,
    /// Socket read/write timeout. `watch` reads wait up to this long per
    /// frame, so it bounds how stale a silent stream can get.
    io_timeout: Duration,
    /// Request-level retries for retryable failures (≥ 1 tries total).
    request_retries: u32,
    /// Seed for the deterministic backoff jitter.
    seed: u64,
}

impl Client {
    /// A client for `addr` (`host:port`) with default retry policy:
    /// 5 connect attempts with 100 ms initial backoff doubling to a 2 s
    /// cap, a 2 s per-attempt connect deadline, and 3 request-level tries.
    #[must_use]
    pub fn new(addr: &str) -> Self {
        Client {
            addr: addr.to_owned(),
            connect_attempts: 5,
            backoff: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(30),
            request_retries: 3,
            seed: 0x7150_c0de,
        }
    }

    /// Overrides the connect retry policy (tests use tiny backoffs).
    #[must_use]
    pub fn with_retry(mut self, attempts: u32, backoff: Duration) -> Self {
        self.connect_attempts = attempts.max(1);
        self.backoff = backoff;
        self
    }

    /// Overrides the per-attempt TCP connect deadline.
    #[must_use]
    pub fn with_connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = timeout.max(Duration::from_millis(1));
        self
    }

    /// Overrides the ceiling on any single backoff sleep.
    #[must_use]
    pub fn with_backoff_cap(mut self, cap: Duration) -> Self {
        self.backoff_cap = cap.max(Duration::from_millis(1));
        self
    }

    /// Overrides how many times a retryable request failure is retried
    /// (total tries; clamped to ≥ 1).
    #[must_use]
    pub fn with_request_retries(mut self, tries: u32) -> Self {
        self.request_retries = tries.max(1);
        self
    }

    /// Overrides the jitter seed, making every backoff sleep of this
    /// client reproducible.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The `k`-th (1-based) backoff sleep: exponential from `backoff`,
    /// capped, with deterministic full jitter in `[cap/2, cap]` so a fleet
    /// of clients sharing a failure doesn't retry in lockstep.
    fn backoff_delay(&self, k: u32) -> Duration {
        let exp = self
            .backoff
            .saturating_mul(1u32 << k.saturating_sub(1).min(16));
        let capped = exp.min(self.backoff_cap);
        let mut rng =
            SmallRng::seed_from_u64(self.seed ^ u64::from(k).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let half_ms = (capped.as_millis() as u64) / 2;
        let jitter = if half_ms > 0 {
            rng.random_range(0..=half_ms)
        } else {
            0
        };
        capped / 2 + Duration::from_millis(jitter)
    }

    /// Connects with bounded capped backoff: attempt `k` (0-based) sleeps
    /// [`Self::backoff_delay`]`(k)` first, and each TCP connect is bounded
    /// by the connect timeout (a black-holed address fails fast instead of
    /// hanging in the kernel's default).
    fn dial(&self) -> Result<TcpStream, ClientError> {
        let mut last = None;
        for attempt in 0..self.connect_attempts {
            if attempt > 0 {
                thread::sleep(self.backoff_delay(attempt));
            }
            match self.connect_once() {
                Ok(stream) => {
                    let _ = stream.set_read_timeout(Some(self.io_timeout));
                    let _ = stream.set_write_timeout(Some(self.io_timeout));
                    let _ = stream.set_nodelay(true);
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ClientError::Io(last.unwrap_or_else(|| {
            io::Error::other("no connect attempt ran")
        })))
    }

    fn connect_once(&self) -> io::Result<TcpStream> {
        let addrs: Vec<SocketAddr> = self.addr.to_socket_addrs()?.collect();
        let mut last = None;
        for addr in addrs {
            match TcpStream::connect_timeout(&addr, self.connect_timeout) {
                Ok(stream) => return Ok(stream),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("address resolved to nothing")))
    }

    /// One request, one reply, one connection.
    fn call_once(&self, req: &Request) -> Result<Response, ClientError> {
        let mut stream = self.dial()?;
        write_request(&mut stream, req).map_err(ClientError::Io)?;
        self.read_reply(&mut stream)
    }

    /// [`Self::call_once`] with bounded retries for retryable failures.
    /// Only safe for idempotent requests — which every TIPW request is,
    /// given `Submit` carries a request id (status/result/stats/cancel are
    /// naturally idempotent; a repeated `Shutdown` is a no-op).
    fn call(&self, req: &Request) -> Result<Response, ClientError> {
        let mut last = None;
        for attempt in 0..self.request_retries {
            if attempt > 0 {
                thread::sleep(self.retry_delay(attempt, last.as_ref()));
            }
            match self.call_once(req) {
                Ok(resp) => return Ok(resp),
                Err(e) if e.is_retryable() && attempt + 1 < self.request_retries => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or(ClientError::UnexpectedReply("no attempt ran".to_owned())))
    }

    /// The sleep before retry `attempt`, honouring the server's
    /// `Overloaded` pause hint but never exceeding the backoff cap — a
    /// hostile or confused `retry_after_ms` must not stall the client past
    /// its own configured ceiling.
    fn retry_delay(&self, attempt: u32, last: Option<&ClientError>) -> Duration {
        let mut delay = self.backoff_delay(attempt);
        if let Some(ClientError::Overloaded { retry_after_ms, .. }) = last {
            delay = delay.max(Duration::from_millis(u64::from(*retry_after_ms)));
        }
        delay.min(self.backoff_cap)
    }

    fn read_reply(&self, stream: &mut TcpStream) -> Result<Response, ClientError> {
        match read_response(stream) {
            Ok(Some(Response::Busy { active, limit })) => Err(ClientError::Busy { active, limit }),
            Ok(Some(Response::Overloaded {
                retry_after_ms,
                queued,
            })) => Err(ClientError::Overloaded {
                retry_after_ms,
                queued,
            }),
            Ok(Some(Response::Error { code, message })) => {
                Err(ClientError::Server { code, message })
            }
            Ok(Some(resp)) => Ok(resp),
            Ok(None) => Err(ClientError::UnexpectedReply(
                "server closed the stream".to_owned(),
            )),
            Err(e) => Err(ClientError::Proto(e)),
        }
    }

    /// Submits a job; returns its server-assigned id. Each call stamps a
    /// fresh request id and reuses it across retries, so a reply lost to
    /// the wire resubmits *idempotently* — the server returns the original
    /// job id instead of enqueueing twice.
    ///
    /// # Errors
    ///
    /// [`ClientError`] for connect, protocol, or server refusals.
    pub fn submit(&self, spec: &JobSpec) -> Result<u64, ClientError> {
        self.submit_with_id(spec, fresh_req_id(self.seed))
    }

    /// [`Self::submit`] with a caller-chosen idempotency key (`0` disables
    /// dedup). Callers that persist the key can resubmit safely across
    /// their own restarts, not just across this call's retries.
    ///
    /// # Errors
    ///
    /// [`ClientError`] for connect, protocol, or server refusals.
    pub fn submit_with_id(&self, spec: &JobSpec, req_id: u64) -> Result<u64, ClientError> {
        match self.call(&Request::Submit {
            spec: spec.clone(),
            req_id,
        })? {
            Response::Submitted { job } => Ok(job),
            other => Err(unexpected(&other)),
        }
    }

    /// One-shot job state query.
    ///
    /// # Errors
    ///
    /// [`ClientError`] for connect, protocol, or server refusals.
    pub fn status(&self, job: u64) -> Result<JobState, ClientError> {
        match self.call(&Request::Status { job })? {
            Response::Status { state, .. } => Ok(state),
            other => Err(unexpected(&other)),
        }
    }

    /// Streams the job's progress, invoking `on_progress` per state
    /// transition, until a terminal state (returned). The stream resumes
    /// transparently: a dropped connection reconnects (bounded retries)
    /// and asks for `Watch{from_seq: last_seen + 1}`, so every transition
    /// is observed exactly once across any number of drops. A server that
    /// stays down past the retry budget surfaces the underlying error.
    ///
    /// # Errors
    ///
    /// [`ClientError`] for connect, protocol, or server refusals.
    pub fn watch(
        &self,
        job: u64,
        mut on_progress: impl FnMut(JobState),
    ) -> Result<JobState, ClientError> {
        self.watch_live(job, |state, _cycles| on_progress(state))
    }

    /// [`Client::watch`] with the live cycle count: `on_progress` also
    /// receives the simulated cycles the job's benchmark had streamed when
    /// the frame was sent (0 before the first delta flush lands).
    ///
    /// # Errors
    ///
    /// [`ClientError`] for connect, protocol, or server refusals.
    pub fn watch_live(
        &self,
        job: u64,
        mut on_progress: impl FnMut(JobState, u64),
    ) -> Result<JobState, ClientError> {
        let mut from_seq = 0u64;
        let mut reconnects = 0u32;
        'redial: loop {
            let mut stream = self.dial()?;
            if let Err(e) = write_request(&mut stream, &Request::Watch { job, from_seq }) {
                if reconnects + 1 < self.request_retries {
                    reconnects += 1;
                    thread::sleep(self.backoff_delay(reconnects));
                    continue 'redial;
                }
                return Err(ClientError::Io(e));
            }
            loop {
                match self.read_reply(&mut stream) {
                    Ok(Response::Progress {
                        state, seq, cycles, ..
                    }) => {
                        from_seq = seq + 1;
                        on_progress(state, cycles);
                        if state.is_terminal() {
                            return Ok(state);
                        }
                    }
                    Ok(other) => return Err(unexpected(&other)),
                    Err(e) if e.is_retryable() && reconnects + 1 < self.request_retries => {
                        // The stream died mid-watch (drop, corruption,
                        // server restart): reconnect and resume from the
                        // next unseen sequence number.
                        reconnects += 1;
                        thread::sleep(self.backoff_delay(reconnects));
                        continue 'redial;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
    }

    /// Fetches a finished job's result-file bytes.
    ///
    /// # Errors
    ///
    /// [`ClientError`]; notably [`ErrorCode::NotReady`] while the job is
    /// still queued or running.
    pub fn result(&self, job: u64) -> Result<String, ClientError> {
        match self.call(&Request::Result { job })? {
            Response::ResultBody { body, .. } => Ok(body),
            other => Err(unexpected(&other)),
        }
    }

    /// Cancels a still-queued job; `Ok(false)` means it was too late.
    ///
    /// # Errors
    ///
    /// [`ClientError`] for connect, protocol, or server refusals.
    pub fn cancel(&self, job: u64) -> Result<bool, ClientError> {
        match self.call(&Request::Cancel { job })? {
            Response::Cancelled { ok, .. } => Ok(ok),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the server's counters.
    ///
    /// # Errors
    ///
    /// [`ClientError`] for connect, protocol, or server refusals.
    pub fn stats(&self) -> Result<ServerStats, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the server to shut down (draining in-flight jobs when `drain`).
    ///
    /// # Errors
    ///
    /// [`ClientError`] for connect, protocol, or server refusals.
    pub fn shutdown(&self, drain: bool) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown { drain })? {
            Response::ShuttingDown { .. } => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Registers a fleet daemon with a coordinator; returns
    /// `(daemon_id, lease_ms)`.
    ///
    /// # Errors
    ///
    /// [`ClientError`]; notably `BadRequest` from a server that is not a
    /// coordinator.
    pub fn register(&self, workers: u32) -> Result<(u64, u64), ClientError> {
        match self.call(&Request::Register { workers })? {
            Response::Registered { daemon, lease_ms } => Ok((daemon, lease_ms)),
            other => Err(unexpected(&other)),
        }
    }

    /// Heartbeats a registered fleet daemon; returns how many assignments
    /// the coordinator has leased to it.
    ///
    /// # Errors
    ///
    /// [`ClientError`]; notably [`ErrorCode::UnknownDaemon`] after a
    /// coordinator restart, which means "re-register".
    pub fn beacon(&self, daemon: u64) -> Result<u32, ClientError> {
        match self.call(&Request::Beacon { daemon })? {
            Response::BeaconAck { tasks } => Ok(tasks),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the coordinator for one assignment.
    ///
    /// # Errors
    ///
    /// [`ClientError`]; notably [`ErrorCode::UnknownDaemon`] after a
    /// coordinator restart.
    pub fn poll_job(&self, daemon: u64) -> Result<PollReply, ClientError> {
        match self.call(&Request::PollJob { daemon })? {
            Response::Assignment { task, epoch, spec } => {
                Ok(PollReply::Assignment { task, epoch, spec })
            }
            Response::NoWork { draining } => Ok(PollReply::NoWork { draining }),
            other => Err(unexpected(&other)),
        }
    }

    /// Pushes one finished assignment back to the coordinator; `Ok(false)`
    /// means the epoch was stale and the result was discarded. Safe to
    /// retry: a duplicate push for an already-committed task is acked
    /// without committing twice.
    ///
    /// # Errors
    ///
    /// [`ClientError`]; notably [`ErrorCode::UnknownDaemon`] after a
    /// coordinator restart.
    pub fn push_result(
        &self,
        daemon: u64,
        task: u64,
        epoch: u64,
        outcome: &RemoteOutcome,
    ) -> Result<bool, ClientError> {
        match self.call(&Request::PushResult {
            daemon,
            task,
            epoch,
            outcome: outcome.clone(),
        })? {
            Response::ResultAck { accepted } => Ok(accepted),
            other => Err(unexpected(&other)),
        }
    }

    /// Streams one fleet daemon's profile-delta flush into the
    /// coordinator's live aggregate; `Ok(false)` means the coordinator
    /// discarded it (the daemon no longer holds the benchmark's
    /// assignment). Best-effort by contract: callers may drop errors —
    /// deltas carry live visibility, never correctness.
    ///
    /// # Errors
    ///
    /// [`ClientError`] for connect, protocol, or server refusals.
    pub fn push_delta(&self, daemon: u64, frame: &DeltaFrame) -> Result<bool, ClientError> {
        match self.call(&Request::PushDelta {
            daemon,
            frame: frame.clone(),
        })? {
            Response::DeltaAck { accepted } => Ok(accepted),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the server's live aggregate a question; rows come back in the
    /// server's deterministic order. An empty `bench` means "all streamed
    /// benchmarks"; `n` caps `TopN` rows per benchmark (0 = server
    /// default).
    ///
    /// # Errors
    ///
    /// [`ClientError`] for connect, protocol, or server refusals.
    pub fn query(
        &self,
        kind: QueryKind,
        bench: &str,
        profiler: Option<ProfilerId>,
        n: u32,
    ) -> Result<Vec<QueryRow>, ClientError> {
        match self.call(&Request::Query {
            kind,
            bench: bench.to_owned(),
            profiler,
            n,
        })? {
            Response::QueryReply { rows } => Ok(rows),
            other => Err(unexpected(&other)),
        }
    }
}

/// A process-unique nonzero request id: wall-clock nanos mixed with a
/// process-wide counter and the client seed through a splitmix64 round.
/// Uniqueness needs only "never repeats for distinct logical submits",
/// which the counter guarantees within a process and the clock makes
/// overwhelmingly likely across processes.
fn fresh_req_id(seed: u64) -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let t = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let mut x = t ^ n.rotate_left(32) ^ seed;
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x.max(1)
}

fn unexpected(resp: &Response) -> ClientError {
    ClientError::UnexpectedReply(format!("{resp:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_jittered_and_deterministic() {
        let c = Client::new("127.0.0.1:1")
            .with_retry(8, Duration::from_millis(100))
            .with_backoff_cap(Duration::from_millis(400))
            .with_seed(7);
        for k in 1..8 {
            let d = c.backoff_delay(k);
            assert!(d <= Duration::from_millis(400), "k={k} d={d:?}");
            assert!(d >= Duration::from_millis(25), "k={k} d={d:?}");
            // Deterministic: the same client computes the same delay.
            assert_eq!(d, c.backoff_delay(k));
        }
        // A different seed jitters differently somewhere in the ladder.
        let other = c.clone().with_seed(8);
        assert!(
            (1..8).any(|k| other.backoff_delay(k) != c.backoff_delay(k)),
            "seed must move the jitter"
        );
    }

    #[test]
    fn overloaded_pause_hint_cannot_exceed_the_backoff_cap() {
        let c = Client::new("127.0.0.1:1")
            .with_retry(4, Duration::from_millis(10))
            .with_backoff_cap(Duration::from_millis(200));
        // A server (or a corrupted frame) claiming an hour-long pause is
        // clamped to the client's own ceiling.
        let overloaded = ClientError::Overloaded {
            retry_after_ms: 3_600_000,
            queued: 10,
        };
        for attempt in 1..4 {
            let d = c.retry_delay(attempt, Some(&overloaded));
            assert!(d <= Duration::from_millis(200), "attempt={attempt} d={d:?}");
        }
        // A modest hint below the cap is honoured as a floor.
        let modest = ClientError::Overloaded {
            retry_after_ms: 150,
            queued: 1,
        };
        let d = c.retry_delay(1, Some(&modest));
        assert!(d >= Duration::from_millis(150), "hint is a floor: {d:?}");
        assert!(d <= Duration::from_millis(200), "cap still binds: {d:?}");
    }

    #[test]
    fn retryability_matches_the_failure_taxonomy() {
        assert!(ClientError::Io(io::Error::other("x")).is_retryable());
        assert!(ClientError::Busy {
            active: 1,
            limit: 1
        }
        .is_retryable());
        assert!(ClientError::Overloaded {
            retry_after_ms: 1,
            queued: 9
        }
        .is_retryable());
        assert!(ClientError::Server {
            code: ErrorCode::BadRequest,
            message: String::new()
        }
        .is_retryable());
        assert!(ClientError::Server {
            code: ErrorCode::RateLimited,
            message: String::new()
        }
        .is_retryable());
        for code in [
            ErrorCode::UnknownBench,
            ErrorCode::UnknownCore,
            ErrorCode::UnknownJob,
            ErrorCode::NotReady,
            ErrorCode::Draining,
            ErrorCode::Internal,
        ] {
            assert!(
                !ClientError::Server {
                    code,
                    message: String::new()
                }
                .is_retryable(),
                "{code:?} must not retry"
            );
        }
    }

    #[test]
    fn fresh_req_ids_are_nonzero_and_distinct() {
        let a = fresh_req_id(1);
        let b = fresh_req_id(1);
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b, "the counter must separate same-instant ids");
    }
}
