//! Running many profilers over one simulation in lock-step.
//!
//! The paper evaluates up to 19 profiler configurations in a single FireSim
//! run so that every profiler samples the exact same cycles; differences
//! between their profiles are then purely systematic. [`ProfilerBank`] does
//! the same: it owns the shared sampling schedule, the always-on Oracle, and
//! any set of sampled profilers, and implements
//! [`TraceSink`] so it can be attached directly to a
//! [`tip_ooo::Core`] run.

use crate::oracle::{OracleProfiler, OracleResult};
use crate::profile::Profile;
use crate::profilers::{AnyProfiler, ProfilerId, SampledProfiler};
use crate::sample::Sample;
use crate::sampler::{SampleSchedule, SamplerConfig};
use tip_isa::snap::{self, SnapError, SnapReader};
use tip_isa::{Granularity, Program};
use tip_ooo::{CycleRecord, TraceSink};

/// The Oracle plus a set of sampled profilers sharing one schedule.
pub struct ProfilerBank {
    schedule: SampleSchedule,
    oracle: OracleProfiler,
    /// Statically-dispatched profilers: the per-cycle latch fan-out inlines
    /// into [`TraceSink::on_cycle`] instead of going through seven separate
    /// vtable calls (see [`ProfilerId::build_static`]).
    profilers: Vec<(ProfilerId, AnyProfiler)>,
    cycles: u64,
    /// Streaming flushes taken so far. Deliberately not snapshotted: after
    /// a restore the counter (like the profilers' delta trackers) restarts,
    /// and the next flush re-reports cumulative totals with `seq == 1`.
    stream_seq: u64,
}

// A bank moves to an executor worker thread with the run it instruments;
// `SampledProfiler: Send` makes boxed profilers — and the concrete enum the
// bank stores — `Send` by construction. Regressions fail the build here.
const _: () = {
    const fn send<T: Send>() {}
    send::<ProfilerBank>();
    send::<Box<dyn SampledProfiler>>();
    send::<AnyProfiler>();
};

impl ProfilerBank {
    /// Creates a bank for `program` with the given schedule and profilers.
    #[must_use]
    pub fn new(program: &Program, sampler: SamplerConfig, ids: &[ProfilerId]) -> Self {
        ProfilerBank {
            schedule: sampler.schedule(),
            oracle: OracleProfiler::new(program.len()),
            profilers: ids.iter().map(|&id| (id, id.build_static())).collect(),
            cycles: 0,
            stream_seq: 0,
        }
    }

    /// Serializes the bank's complete mid-run state — schedule position,
    /// Oracle accumulators, and every profiler's in-flight state — for a
    /// checkpoint. [`Self::restore`] continues the run bit-identically.
    ///
    /// Each profiler serializes straight into the single output buffer; its
    /// length prefix is reserved up front and patched back afterwards
    /// (`snap::put_len` is a fixed-width u32), instead of staging every
    /// state in a temporary `Vec` — checkpoints are taken mid-run, so the
    /// snapshot path avoids per-profiler allocations.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.schedule.snapshot_into(&mut out);
        self.oracle.snapshot_into(&mut out);
        snap::put_len(&mut out, self.profilers.len());
        for (id, p) in &self.profilers {
            snap::put_u8(&mut out, id.tag());
            let len_at = out.len();
            snap::put_len(&mut out, 0);
            let state_at = out.len();
            p.snapshot_into(&mut out);
            let state_len =
                u32::try_from(out.len() - state_at).expect("profiler state exceeds u32");
            out[len_at..state_at].copy_from_slice(&state_len.to_le_bytes());
        }
        snap::put_u64(&mut out, self.cycles);
        out
    }

    /// Restores a bank captured by [`Self::snapshot`] for the same program
    /// and sampler configuration. The profiler set is recovered from the
    /// snapshot itself.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] when the bytes are damaged, captured under a
    /// different sampler configuration, sized for another program, or name
    /// an unknown profiler.
    pub fn restore(
        program: &Program,
        sampler: SamplerConfig,
        data: &[u8],
    ) -> Result<Self, SnapError> {
        let r = &mut SnapReader::new(data);
        let schedule = SampleSchedule::restore(r)?;
        if *schedule.config() != sampler {
            return Err(SnapError::Malformed("sampler config mismatch"));
        }
        let oracle = OracleProfiler::restore(program.len(), r)?;
        let n = r.len()?;
        let mut profilers = Vec::with_capacity(n);
        for _ in 0..n {
            let id = ProfilerId::from_tag(r.u8()?)
                .ok_or(SnapError::Malformed("unknown profiler tag"))?;
            let state_len = r.len()?;
            let mut p = id.build_static();
            let state = &mut SnapReader::new(r.bytes(state_len)?);
            p.restore_from(state, program.len())?;
            if !state.is_empty() {
                return Err(SnapError::Malformed("trailing bytes in profiler state"));
            }
            profilers.push((id, p));
        }
        let bank = ProfilerBank {
            schedule,
            oracle,
            profilers,
            cycles: r.u64()?,
            stream_seq: 0,
        };
        if !r.is_empty() {
            return Err(SnapError::Malformed("trailing bytes after bank state"));
        }
        Ok(bank)
    }

    /// Finishes the run: resolves sample weights (each sample represents the
    /// interval since the previous one) and returns everything.
    #[must_use]
    pub fn finish(self) -> BankResult {
        let mut samples = Vec::with_capacity(self.profilers.len());
        for (id, mut p) in self.profilers {
            let mut s = p.drain_samples();
            // Samples are produced in trigger order; sort defensively, then
            // weight each by the interval since the previous trigger.
            crate::sample::weight_by_intervals(&mut s);
            samples.push((id, s));
        }
        BankResult {
            oracle: self.oracle.finish(),
            samples,
            total_cycles: self.cycles,
        }
    }

    /// Flushes a streaming delta from every attached profiler and the
    /// Oracle at `map`'s granularity: each profiler's cumulative profile so
    /// far, quantized to integer units, minus what it last reported.
    ///
    /// This is a pure observation path: it never drains samples or touches
    /// any state that [`Self::finish`], [`Self::snapshot`], or the result
    /// files see, so enabling streaming cannot change final artifacts. The
    /// flush sequence number restarts at 1 whenever the bank (and with it
    /// the un-snapshotted trackers) is rebuilt — aggregators treat that as
    /// a slot reset, which keeps checkpoint/resume double-count-free.
    pub fn flush_deltas(&mut self, map: &tip_isa::SymbolMap) -> BankDeltas {
        self.stream_seq += 1;
        let per_profiler = self
            .profilers
            .iter_mut()
            .map(|(id, p)| (*id, p.flush_delta(map)))
            .collect();
        BankDeltas {
            seq: self.stream_seq,
            per_profiler,
            oracle: self.oracle.flush_delta(map),
            stack: self.oracle.flush_stack_delta(),
            cycles: self.cycles,
        }
    }
}

/// One streaming flush: every profiler's [`ProfileDelta`] since the last
/// flush, plus the Oracle's delta, its cycle-stack delta, and the cycle
/// count reached. Merging the flushes of a run (in any order) reproduces
/// the whole-run profiles exactly — see `proptest_core`'s slice-merge
/// byte-identity property.
#[derive(Debug, Clone, PartialEq)]
pub struct BankDeltas {
    /// 1-based flush sequence number within this bank instance. A sequence
    /// restarting at 1 signals "cumulative from zero again" (fresh attempt
    /// or checkpoint restore); aggregators reset the slot before applying.
    pub seq: u64,
    /// Per-profiler deltas, in the bank's profiler order.
    pub per_profiler: Vec<(ProfilerId, crate::profile::ProfileDelta)>,
    /// The Oracle's delta over the same symbol space.
    pub oracle: crate::profile::ProfileDelta,
    /// Oracle cycle-stack increments per [`crate::CycleCategory`], in units
    /// of 1/[`crate::profile::UNITS_PER_CYCLE`] cycle.
    pub stack: Vec<i64>,
    /// Total cycles simulated when the flush was taken.
    pub cycles: u64,
}

impl ProfilerBank {
    /// Reference observation path: polls the schedule on every cycle and
    /// sends each profiler the cycle through `on_sample` or `latch`.
    /// Semantically identical to the [`TraceSink::on_cycle`] fast path —
    /// the `fast_path_matches_reference_fanout` proptest holds the two
    /// bit-equal on arbitrary programs and sampler configs.
    pub fn on_cycle_reference(&mut self, record: &CycleRecord) {
        self.cycles += 1;
        let sampled = self.schedule.is_sample(record.cycle);
        self.oracle.on_cycle(record);
        for (_, p) in &mut self.profilers {
            if sampled {
                p.on_sample(record);
            } else {
                p.latch(record);
            }
        }
    }
}

impl TraceSink for ProfilerBank {
    #[inline]
    fn on_cycle(&mut self, record: &CycleRecord) {
        self.cycles += 1;
        self.oracle.on_cycle(record);
        // The schedule precomputes its next sample cycle and advances only
        // when it is reached (see `SampleSchedule::is_sample`), so
        // non-sampled cycles skip the schedule entirely and pay only the
        // Oracle update plus each profiler's cheap latch — the full
        // attribution fan-out runs on the ~1/interval sampled cycles.
        if record.cycle == self.schedule.next_sample_cycle() {
            let hit = self.schedule.is_sample(record.cycle);
            debug_assert!(hit, "the precomputed sample cycle must hit");
            for (_, p) in &mut self.profilers {
                p.on_sample(record);
            }
        } else {
            for (_, p) in &mut self.profilers {
                p.latch(record);
            }
        }
    }
}

impl std::fmt::Debug for ProfilerBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfilerBank")
            .field("cycles", &self.cycles)
            .field(
                "profilers",
                &self.profilers.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

/// Everything a profiled run produced.
#[derive(Debug)]
pub struct BankResult {
    /// The golden-reference accounting.
    pub oracle: OracleResult,
    /// Per-profiler resolved samples.
    pub samples: Vec<(ProfilerId, Vec<Sample>)>,
    /// Total cycles simulated.
    pub total_cycles: u64,
}

impl BankResult {
    /// The samples of one profiler, or `None` if `id` was not in the bank.
    #[must_use]
    pub fn try_samples_of(&self, id: ProfilerId) -> Option<&[Sample]> {
        self.samples
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, s)| s.as_slice())
    }

    /// The samples of one profiler.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not part of the bank — use [`Self::try_samples_of`]
    /// when the profiler set is not statically known.
    #[must_use]
    pub fn samples_of(&self, id: ProfilerId) -> &[Sample] {
        self.try_samples_of(id)
            .unwrap_or_else(|| panic!("profiler {id} was not in the bank"))
    }

    /// Builds `id`'s profile at `granularity`, or `None` if `id` was not in
    /// the bank.
    #[must_use]
    pub fn try_profile_of(
        &self,
        program: &Program,
        id: ProfilerId,
        granularity: Granularity,
    ) -> Option<Profile> {
        self.try_samples_of(id)
            .map(|s| Profile::from_samples(s, &program.symbol_map(granularity)))
    }

    /// Builds `id`'s profile at `granularity`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not part of the bank — use [`Self::try_profile_of`]
    /// when the profiler set is not statically known.
    #[must_use]
    pub fn profile_of(
        &self,
        program: &Program,
        id: ProfilerId,
        granularity: Granularity,
    ) -> Profile {
        Profile::from_samples(self.samples_of(id), &program.symbol_map(granularity))
    }

    /// The paper's profile error of `id` against the Oracle at
    /// `granularity`.
    #[must_use]
    pub fn error_of(&self, program: &Program, id: ProfilerId, granularity: Granularity) -> f64 {
        let oracle = self.oracle.profile(program, granularity);
        self.profile_of(program, id, granularity).error_vs(&oracle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tip_isa::{BranchBehavior, Instr, ProgramBuilder, Reg};
    use tip_ooo::{Core, CoreConfig};

    fn simple_program() -> Program {
        let mut b = ProgramBuilder::named("bank-test");
        let main = b.function("main");
        let blk = b.block(main);
        for i in 0..4 {
            b.push(blk, Instr::int_alu(Some(Reg::int(i + 1)), [None, None]));
        }
        b.push(
            blk,
            Instr::branch(blk, BranchBehavior::Loop { taken_iters: 5_000 }),
        );
        let exit = b.block(main);
        b.push(exit, Instr::halt());
        b.build().expect("valid")
    }

    #[test]
    fn bank_runs_all_profilers_in_lockstep() {
        let p = simple_program();
        let mut bank = ProfilerBank::new(&p, SamplerConfig::periodic(50), &ProfilerId::ALL);
        let mut core = Core::new(&p, CoreConfig::default(), 3);
        core.run(&mut bank, 1_000_000);
        let result = bank.finish();

        assert!(result.total_cycles > 0);
        for (id, samples) in &result.samples {
            assert!(!samples.is_empty(), "{id} produced no samples");
            // Fractions in each sample sum to 1.
            for s in samples {
                let sum: f64 = s.targets.iter().map(|t| t.1).sum();
                assert!(
                    (sum - 1.0).abs() < 1e-9,
                    "{id} sample fractions sum to {sum}"
                );
                assert!(s.weight_cycles > 0.0);
            }
        }
    }

    #[test]
    fn tip_beats_heuristics_on_simple_loop() {
        let p = simple_program();
        let mut bank = ProfilerBank::new(&p, SamplerConfig::periodic(37), &ProfilerId::ALL);
        let mut core = Core::new(&p, CoreConfig::default(), 3);
        core.run(&mut bank, 1_000_000);
        let result = bank.finish();

        let g = Granularity::Instruction;
        let tip = result.error_of(&p, ProfilerId::Tip, g);
        let software = result.error_of(&p, ProfilerId::Software, g);
        assert!(
            tip < software,
            "TIP ({tip:.3}) must beat Software ({software:.3}) at instruction level"
        );
        assert!(
            tip < 0.2,
            "TIP error should be small on a simple loop, got {tip:.3}"
        );
    }

    #[test]
    fn bank_snapshot_resumes_identically() {
        let p = simple_program();
        let sampler = SamplerConfig::random(41, 11);
        let ids: Vec<ProfilerId> = ProfilerId::ALL.to_vec();

        // Uninterrupted reference.
        let mut full = ProfilerBank::new(&p, sampler, &ids);
        let mut core = Core::new(&p, CoreConfig::default(), 3);
        core.run(&mut full, 1_000_000);
        let want = full.finish();

        // Same run, checkpointed and restored mid-flight (twice).
        let mut bank = ProfilerBank::new(&p, sampler, &ids);
        let mut core = Core::new(&p, CoreConfig::default(), 3);
        core.run(&mut bank, 1_009);
        let core_snap = core.snapshot();
        let bank_snap = bank.snapshot();
        drop((core, bank));
        let mut core = Core::restore(&p, CoreConfig::default(), &core_snap).expect("core");
        let mut bank = ProfilerBank::restore(&p, sampler, &bank_snap).expect("bank");
        core.run(&mut bank, 1_000_000);
        let got = bank.finish();

        assert_eq!(got.total_cycles, want.total_cycles);
        assert_eq!(got.oracle, want.oracle);
        assert_eq!(got.samples.len(), want.samples.len());
        for ((gid, gs), (wid, ws)) in got.samples.iter().zip(&want.samples) {
            assert_eq!(gid, wid);
            assert_eq!(gs, ws, "{gid} samples diverge after restore");
        }
    }

    #[test]
    fn bank_restore_rejects_damage_and_mismatch() {
        let p = simple_program();
        let sampler = SamplerConfig::periodic(50);
        let mut bank = ProfilerBank::new(&p, sampler, &ProfilerId::ALL);
        let mut core = Core::new(&p, CoreConfig::default(), 3);
        core.run(&mut bank, 2_000);
        let snap = bank.snapshot();

        // A different sampler configuration must be rejected.
        assert!(ProfilerBank::restore(&p, SamplerConfig::periodic(51), &snap).is_err());
        // Truncation anywhere is an error, never a panic.
        for cut in (0..snap.len()).step_by(snap.len() / 19 + 1) {
            assert!(ProfilerBank::restore(&p, sampler, &snap[..cut]).is_err());
        }
        assert!(ProfilerBank::restore(&p, sampler, &snap[..snap.len() - 1]).is_err());
    }

    #[test]
    fn sample_weights_cover_the_sampled_span() {
        let p = simple_program();
        let mut bank = ProfilerBank::new(&p, SamplerConfig::periodic(100), &[ProfilerId::Tip]);
        let mut core = Core::new(&p, CoreConfig::default(), 3);
        core.run(&mut bank, 1_000_000);
        let result = bank.finish();
        let samples = result.samples_of(ProfilerId::Tip);
        let total_weight: f64 = samples.iter().map(|s| s.weight_cycles).sum();
        let last_cycle = samples.last().expect("samples exist").cycle;
        assert!((total_weight - (last_cycle as f64 + 1.0)).abs() < 1e-6);
    }
}
