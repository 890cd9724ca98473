//! The benchmark's own job runner: replays a campaign job from the layers'
//! public calls so each call can be wrapped in a span.
//!
//! [`Replay`] does what the production `SpecRunner` does — `Core::run` in
//! slices, the profiler bank (and, when checkpointing, the trace writer)
//! as the sink, `flush_deltas` at every slice boundary when streaming,
//! `Core::snapshot` / `ProfilerBank::snapshot` / `save_checkpoint` at
//! every checkpoint boundary, and `finish` at the end — with the same call
//! order, so its results are identical to the production runner's. Two
//! differences: the final snapshot of a checkpointed run is kept (the
//! production runner consumes it), so the benchmark can check that it
//! restores; and with a [`Tracer`] attached every call is timed. No timed
//! end-to-end round runs it: those all run the production runner.
//!
//! The per-cycle sinks are timed by sampling: timing a call costs about
//! as much as a latch, so every sample cycle is timed (those are the
//! expensive `on_sample` calls) and every [`STRIDE`]-th other cycle; the
//! rest is extrapolated from the timed ones.

use std::fs::File;
use std::io::Write;
use std::time::Instant;

use tip_bench::checkpoint::save_checkpoint;
use tip_bench::live::DeltaEvent;
use tip_bench::{Job, ProfiledRun, RunCtx, RunError, Runner, DEFAULT_STREAM_CYCLES};
use tip_core::{ProfilerBank, SampleSchedule};
use tip_isa::Granularity;
use tip_ooo::{Core, CycleRecord, RunExit, SimError, TraceSink};
use tip_trace::{TraceError, TraceWriter};

use crate::spans::Tracer;

/// Every this many non-sample cycles one sink call is timed. Prime, so it
/// does not alias with the (prime) sampling intervals.
pub const STRIDE: u64 = 61;

/// The benchmark's runner; see the module docs.
#[derive(Clone, Default)]
pub struct Replay {
    /// Records spans and sink timings when set.
    pub tracer: Option<Tracer>,
}

/// Per-job accumulators of the sampled sink timing.
struct SinkClock {
    schedule: SampleSchedule,
    /// Whether a trace writer is attached (else its interval is empty).
    has_writer: bool,
    /// Nanoseconds one `Instant::now` pair adds to a timed interval.
    timer_ns: f64,
    latch_calls: u64,
    latch_timed: u64,
    latch_bank_ns: u64,
    latch_writer_ns: u64,
    sample_calls: u64,
    sample_bank_ns: u64,
    sample_writer_ns: u64,
}

impl SinkClock {
    fn new(schedule: SampleSchedule, has_writer: bool, timer_ns: f64) -> Self {
        SinkClock {
            schedule,
            has_writer,
            timer_ns,
            latch_calls: 0,
            latch_timed: 0,
            latch_bank_ns: 0,
            latch_writer_ns: 0,
            sample_calls: 0,
            sample_bank_ns: 0,
            sample_writer_ns: 0,
        }
    }

    /// Books the extrapolated per-layer seconds into the tracer.
    fn book(&self, tracer: &Tracer) {
        let scale = if self.latch_timed == 0 {
            0.0
        } else {
            self.latch_calls as f64 / self.latch_timed as f64
        };
        let net = |ns: u64, calls: u64| (ns as f64 - calls as f64 * self.timer_ns).max(0.0) * 1e-9;
        let latch_s = net(self.latch_bank_ns, self.latch_timed) * scale;
        let sample_s = net(self.sample_bank_ns, self.sample_calls);
        let writer_s = if self.has_writer {
            net(self.latch_writer_ns, self.latch_timed) * scale
                + net(self.sample_writer_ns, self.sample_calls)
        } else {
            0.0
        };
        // Three clock reads per timed call run inside `Core::run`'s span.
        let timed = (self.latch_timed + self.sample_calls) as f64;
        tracer.add("sink.latch_s", latch_s);
        tracer.add("sink.on_sample_s", sample_s);
        tracer.add("sink.writer_s", writer_s);
        tracer.add("sink.timer_s", timed * 1.5 * self.timer_ns * 1e-9);
        tracer.add("sink.samples", self.sample_calls as f64);
        tracer.add("sink.cycles", (self.latch_calls + self.sample_calls) as f64);
    }
}

/// The per-cycle sink: optional trace writer, then the bank (the order the
/// production checkpointed runner uses), optionally timed.
struct Sinks<'a, W: Write> {
    writer: Option<&'a mut TraceWriter<W>>,
    bank: &'a mut ProfilerBank,
    clock: Option<&'a mut SinkClock>,
}

impl<W: Write> TraceSink for Sinks<'_, W> {
    #[inline]
    fn on_cycle(&mut self, record: &CycleRecord) {
        let Some(clock) = self.clock.as_deref_mut() else {
            if let Some(w) = self.writer.as_deref_mut() {
                w.on_cycle(record);
            }
            self.bank.on_cycle(record);
            return;
        };
        let sample = clock.schedule.is_sample(record.cycle);
        if !sample {
            clock.latch_calls += 1;
            if clock.latch_calls % STRIDE != 0 {
                if let Some(w) = self.writer.as_deref_mut() {
                    w.on_cycle(record);
                }
                self.bank.on_cycle(record);
                return;
            }
        }
        let t0 = Instant::now();
        if let Some(w) = self.writer.as_deref_mut() {
            w.on_cycle(record);
        }
        let t1 = Instant::now();
        self.bank.on_cycle(record);
        let t2 = Instant::now();
        let writer_ns = (t1 - t0).as_nanos() as u64;
        let bank_ns = (t2 - t1).as_nanos() as u64;
        if sample {
            clock.sample_calls += 1;
            clock.sample_writer_ns += writer_ns;
            clock.sample_bank_ns += bank_ns;
        } else {
            clock.latch_timed += 1;
            clock.latch_writer_ns += writer_ns;
            clock.latch_bank_ns += bank_ns;
        }
    }
}

/// Mean cost of one `Instant::now` pair, in nanoseconds.
pub fn timer_overhead_ns() -> f64 {
    const N: u32 = 20_000;
    let mut total = 0u128;
    for _ in 0..N {
        let a = Instant::now();
        let b = Instant::now();
        total += (b - a).as_nanos();
    }
    total as f64 / f64::from(N)
}

impl Replay {
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &self.tracer {
            Some(t) => t.time(name, f),
            None => f(),
        }
    }

    fn count(&self, name: &'static str, v: f64) {
        if let Some(t) = &self.tracer {
            t.add(name, v);
        }
    }
}

impl Runner for Replay {
    fn run(&self, job: &Job, ctx: &RunCtx) -> Result<ProfiledRun, RunError> {
        let _job = self.tracer.as_ref().map(|t| t.span("bench.job"));
        let bench = job.bench.name;
        let program = &job.bench.program;
        if job.pgo {
            return self.span("pgo.run", || {
                tip_bench::pgo::pgo_run(
                    bench,
                    program,
                    job.core.clone(),
                    job.sampler,
                    &job.profilers,
                    ctx.seed,
                    job.max_cycles,
                )
            });
        }
        let sim_err = |source| RunError::Sim {
            bench: bench.to_owned(),
            source,
        };
        let ckpt_err = |e: std::io::Error| RunError::Checkpoint {
            bench: bench.to_owned(),
            source: TraceError::Io(e),
        };
        let mut core = Core::new(program, job.core.clone(), ctx.seed);
        let mut bank = ProfilerBank::new(program, job.sampler, &job.profilers);
        let mut writer = match &ctx.checkpoint {
            Some(spec) => Some(TraceWriter::new(
                File::create(&spec.trace_path).map_err(ckpt_err)?,
            )),
            None => None,
        };
        let streaming = ctx.delta_sink.is_live();
        let map = streaming.then(|| program.symbol_map(Granularity::Function));
        let every = match &ctx.checkpoint {
            Some(spec) => spec.every_cycles.max(1),
            None if streaming => DEFAULT_STREAM_CYCLES,
            None => job.max_cycles,
        };
        let timer_ns = self.tracer.as_ref().map_or(0.0, |t| t.counter("timer_ns"));
        let mut clock = self
            .tracer
            .as_ref()
            .map(|_| SinkClock::new(job.sampler.schedule(), writer.is_some(), timer_ns));
        loop {
            let stop = core
                .stats()
                .cycles
                .saturating_add(every)
                .min(job.max_cycles);
            let summary = self.span("ooo.run", || {
                let mut sinks = Sinks {
                    writer: writer.as_mut(),
                    bank: &mut bank,
                    clock: clock.as_mut(),
                };
                core.run(&mut sinks, stop)
            });
            if let Some(map) = &map {
                let deltas = self.span("core.flush", || bank.flush_deltas(map));
                self.count("core.flushes", 1.0);
                ctx.delta_sink.emit(DeltaEvent {
                    bench: bench.to_owned(),
                    attempt: ctx.attempt,
                    deltas,
                });
            }
            match summary.exit {
                RunExit::Halted | RunExit::StreamEnd => {
                    if let Some(w) = writer.as_mut() {
                        w.flush().map_err(ckpt_err)?;
                        self.count("trace.bytes", w.bytes() as f64);
                    }
                    if let (Some(clock), Some(tracer)) = (&clock, &self.tracer) {
                        clock.book(tracer);
                    }
                    let stats = *core.stats();
                    let mem_stats = core.mem_stats();
                    let result = self.span("core.finish", || {
                        let result = bank.finish();
                        // Traced, the span also times the error computation
                        // the ledger does on commit.
                        if self.tracer.is_some() {
                            for &p in &job.profilers {
                                let _ = result.error_of(program, p, Granularity::Instruction);
                            }
                        }
                        result
                    });
                    return Ok(ProfiledRun {
                        bank: result,
                        summary,
                        stats,
                        mem_stats,
                    });
                }
                RunExit::Stuck(diag) => return Err(sim_err(SimError::Livelock(diag))),
                RunExit::CycleLimit if stop >= job.max_cycles => {
                    return Err(sim_err(SimError::CycleLimit {
                        max_cycles: job.max_cycles,
                        committed: summary.instructions,
                    }));
                }
                RunExit::CycleLimit => {
                    let (Some(spec), Some(w)) = (&ctx.checkpoint, writer.as_mut()) else {
                        continue;
                    };
                    w.flush().map_err(ckpt_err)?;
                    let core_bytes = self.span("ooo.snapshot", || core.snapshot());
                    let bank_bytes = self.span("core.snapshot", || bank.snapshot());
                    self.span("bench.checkpoint_write", || {
                        save_checkpoint(
                            &spec.snapshot_path,
                            summary.cycles,
                            &core_bytes,
                            &bank_bytes,
                            w.position(),
                        )
                    })
                    .map_err(ckpt_err)?;
                    self.count("ooo.snapshot_bytes", core_bytes.len() as f64);
                    self.count("core.snapshot_bytes", bank_bytes.len() as f64);
                    self.count("bench.checkpoints", 1.0);
                }
            }
        }
    }
}
