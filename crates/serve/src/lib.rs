//! Networked profiling service for the TIP reproduction.
//!
//! TIP's overhead argument (§3.2: ~1% runtime, hundreds of KB/s of
//! samples) is an argument for profiling *as a service* — and related
//! systems like CAPSim frame fast simulation as a shared backend serving
//! many clients. This crate is that layer for the reproduction: a
//! long-lived `tipd` daemon that accepts profiling jobs over TCP, fans
//! them out through `tip-bench`'s executor machinery, and streams results
//! back to the `tipctl` client.
//!
//! Three modules, strictly layered:
//!
//! * [`proto`] — the `TIPW` wire protocol: versioned, length-prefixed,
//!   CRC-32-framed messages sharing `tip-trace`'s framing primitives and
//!   error vocabulary ([`tip_trace::TraceError`] classifies socket damage
//!   exactly like trace-file damage).
//! * [`engine`] — the one job scheduler behind a plain daemon and a fleet
//!   coordinator: FIFO claiming, leases and epochs, one lease reaper, a
//!   single ordered committer through [`tip_bench::ledger::Ledger`],
//!   graceful drain, journal-driven resume. Jobs are run by *holders* of
//!   two kinds — local worker threads, which claim in-process, and remote
//!   fleet daemons, which claim over TIPW frames — and both run the same
//!   [`tip_bench::run_job`] ladder and settle the same rendered outcome. A
//!   coordinator is the engine started with zero local workers. Same job
//!   sequence ⇒ byte-identical artifacts, local or remote, including
//!   across a daemon kill-and-resume.
//! * [`server`]/[`client`] — `std::net` TCP + `std::thread` only: bounded
//!   acceptor, thread-per-connection, per-connection timeouts, typed
//!   `Busy`/`Overloaded` backpressure; the client retries with capped,
//!   seeded-jitter backoff, resubmits idempotently, and resumes watch
//!   streams across connection drops.
//! * [`chaosnet`] — a seeded fault-injecting TCP proxy speaking
//!   `tip-trace`'s [`tip_trace::fault::FaultPlan`] vocabulary at the wire:
//!   drop/delay/corrupt/split chunks, mid-stream disconnect, half-close.
//!   The harness that proves the other three layers' fault story — on the
//!   client↔daemon hop and the coordinator↔daemon hop alike.
//! * [`fleet`] — the agent that `tipd --join` runs: it registers with a
//!   coordinator over TIPW fleet frames (register/beacon/poll/push), runs
//!   its assignments, and pushes the rendered results back — the engine's
//!   remote holder.
//!
//! The service also *streams*: engine workers (in-process) and fleet
//! agents (`PushDelta` frames) flush quantized [`tip_bench::live`]
//! profile deltas into a server-side [`tip_bench::LiveAggregate`],
//! and `Query{TopN, ErrorTrajectory, CycleStack}` frames answer live
//! questions mid-campaign (`tipctl top --live`, `tipctl watch`).
//! Streaming is pure observation — final artifacts stay byte-identical
//! with it on or off, at any worker count or fleet fan-out.
//!
//! The fault-tolerance contract across all of it: any *single* fault —
//! a corrupted frame, a dropped connection, a hung or panicking worker, a
//! SIGKILLed daemon or fleet member, a partitioned coordinator↔daemon
//! link, a shed submit — leaves the campaign artifacts byte-identical to
//! an uninterrupted local run, and never runs a settled job twice
//! (per-worker *and* per-daemon leases with epoch fencing, request-id
//! dedup for resubmission, journal-driven resume across restarts of
//! daemon and coordinator alike).
//!
//! Everything is offline-friendly: no async runtime, no external
//! dependencies, just the standard library over the existing crates.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaosnet;
pub mod client;
pub mod engine;
pub mod fleet;
pub mod proto;
pub mod server;

pub use chaosnet::{chaos_proxy, ChaosConfig, ChaosHandle, ChaosStats, DirStats};
pub use client::{Client, ClientError};
pub use engine::{Engine, EngineConfig, PollReply, SubmitError, DEFAULT_LEASE};
pub use fleet::{run_agent, AgentConfig, DEFAULT_FLEET_LEASE};
pub use proto::{
    DeltaFrame, ErrorCode, JobSpec, JobState, QueryKind, QueryRow, RemoteOutcome, Request,
    Response, ServerStats,
};
pub use server::{serve, serve_with_runner, ServerConfig, ServerHandle};
