//! The sampled profilers evaluated in the paper.
//!
//! All profilers observe the same per-cycle commit-stage trace and are
//! triggered on the same sample cycles (by [`crate::ProfilerBank`]), so any
//! difference between their profiles is *systematic* attribution error —
//! the paper's methodology (Section 4).

mod simple;
mod tip;

pub use simple::{Dispatch, Lci, Nci, Software};
pub use tip::{DrainedPolicy, Tip, TipFlags, TipRegisters};

use crate::sample::Sample;
use serde::{Deserialize, Serialize};
use std::fmt;
use tip_isa::snap::{SnapError, SnapReader};
use tip_ooo::CycleRecord;

/// A statistical profiler driven by the commit-stage trace.
///
/// Implementations keep whatever running state their hardware would (e.g.
/// LCI's last-committed register, TIP's OIR) by observing every cycle, and
/// produce a [`Sample`] for every sampled cycle — possibly later, when the
/// needed event occurs (NCI waits for the next commit, TIP's Front-end state
/// waits for the next dispatch).
///
/// `Send` is a supertrait so a boxed profiler — and therefore a whole
/// [`crate::ProfilerBank`] — can move to an executor worker thread; an
/// implementation with thread-bound state (`Rc`, raw pointers) is rejected
/// at the trait boundary instead of at a distant `thread::scope`.
pub trait SampledProfiler: Send {
    /// Observes one *non-sampled* cycle: the cheap always-on state tracking
    /// a real implementation would keep in hardware registers (LCI's
    /// last-committed latch, NCI's pending-sample drain, TIP's OIR update).
    /// This is the only per-cycle cost a profiler pays on the
    /// [`crate::ProfilerBank`] fast path, so implementations keep it
    /// allocation-free and early-out as soon as the cycle is irrelevant.
    fn latch(&mut self, record: &CycleRecord);

    /// Observes one *sampled* cycle: full attribution work. Implementations
    /// embed this cycle's latch updates at the exact point the hardware
    /// would perform them, so a cycle is observed by `latch` *or*
    /// `on_sample`, never both.
    fn on_sample(&mut self, record: &CycleRecord);

    /// Takes the samples resolved so far (in trigger order).
    fn drain_samples(&mut self) -> Vec<Sample>;

    /// Emits the streaming increment since the last flush: the cumulative
    /// profile over every sample resolved so far (weighted exactly as the
    /// end of a run would weight it), quantized to integer units, minus
    /// what the previous flush reported. See [`crate::ProfileDelta`].
    ///
    /// Non-destructive with respect to [`drain_samples`](Self::drain_samples)
    /// — streaming observes, it never consumes — and excluded from
    /// [`snapshot_into`](Self::snapshot_into): after a restore the next
    /// flush re-reports the full cumulative profile. The default
    /// implementation reports nothing (for profilers without sample
    /// streams).
    fn flush_delta(&mut self, map: &tip_isa::SymbolMap) -> crate::profile::ProfileDelta {
        crate::profile::ProfileDelta::zero(map.granularity(), map.num_symbols() as u32)
    }

    /// Serializes the profiler's complete mid-run state (resolved samples,
    /// in-flight samples, hardware registers) for a checkpoint.
    fn snapshot_into(&self, out: &mut Vec<u8>);

    /// Restores state captured by [`snapshot_into`](Self::snapshot_into)
    /// into a freshly built profiler of the same kind, for a program with
    /// `num_instrs` static instructions.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] when the stream is damaged, names an
    /// instruction outside the program, or was captured from a different
    /// profiler variant.
    fn restore_from(&mut self, r: &mut SnapReader<'_>, num_instrs: usize) -> Result<(), SnapError>;
}

/// Identifies one of the evaluated profiling strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ProfilerId {
    /// Interrupt-based profiling (Linux perf without hardware support):
    /// samples the instruction the front-end is fetching — skid.
    Software,
    /// Tag-at-dispatch (AMD IBS, Arm SPE, ProfileMe).
    Dispatch,
    /// Last-Committed Instruction (Arm CoreSight-style external monitors).
    Lci,
    /// Next-Committing Instruction (Intel PEBS).
    Nci,
    /// NCI made commit-parallelism-aware (the Figure 11c ablation).
    NciIlp,
    /// TIP without ILP accounting (the paper's TIP-ILP ablation).
    TipIlp,
    /// Time-Proportional Instruction Profiling (the paper's proposal).
    Tip,
    /// TIP with the Drained-state write-enable trick disabled: front-end
    /// samples blame the last-committed instruction instead of the first
    /// dispatched one (an ablation of the paper's design; not in
    /// [`ProfilerId::ALL`]).
    TipLastCommitDrain,
}

impl ProfilerId {
    /// All strategies in the order the paper's figures list them.
    pub const ALL: [ProfilerId; 7] = [
        ProfilerId::Software,
        ProfilerId::Dispatch,
        ProfilerId::Lci,
        ProfilerId::Nci,
        ProfilerId::NciIlp,
        ProfilerId::TipIlp,
        ProfilerId::Tip,
    ];

    /// The label used in the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ProfilerId::Software => "Software",
            ProfilerId::Dispatch => "Dispatch",
            ProfilerId::Lci => "LCI",
            ProfilerId::Nci => "NCI",
            ProfilerId::NciIlp => "NCI+ILP",
            ProfilerId::TipIlp => "TIP-ILP",
            ProfilerId::Tip => "TIP",
            ProfilerId::TipLastCommitDrain => "TIP-noWE",
        }
    }

    /// The stable one-byte tag identifying this kind in snapshots
    /// (append-only numbering; never reorder).
    pub(crate) fn tag(self) -> u8 {
        match self {
            ProfilerId::Software => 0,
            ProfilerId::Dispatch => 1,
            ProfilerId::Lci => 2,
            ProfilerId::Nci => 3,
            ProfilerId::NciIlp => 4,
            ProfilerId::TipIlp => 5,
            ProfilerId::Tip => 6,
            ProfilerId::TipLastCommitDrain => 7,
        }
    }

    /// The profiler kind a snapshot tag names, if any.
    pub(crate) fn from_tag(tag: u8) -> Option<ProfilerId> {
        match tag {
            0 => Some(ProfilerId::Software),
            1 => Some(ProfilerId::Dispatch),
            2 => Some(ProfilerId::Lci),
            3 => Some(ProfilerId::Nci),
            4 => Some(ProfilerId::NciIlp),
            5 => Some(ProfilerId::TipIlp),
            6 => Some(ProfilerId::Tip),
            7 => Some(ProfilerId::TipLastCommitDrain),
            _ => None,
        }
    }

    /// Builds a fresh profiler of this kind behind dynamic dispatch.
    #[must_use]
    pub fn build(self) -> Box<dyn SampledProfiler> {
        Box::new(self.build_static())
    }

    /// Builds a fresh profiler of this kind with *static* dispatch.
    ///
    /// [`crate::ProfilerBank`] stores these instead of boxed trait objects:
    /// the per-cycle `latch` fan-out is then a match over inlined bodies
    /// (each a few loads and an early-out) rather than seven indirect calls
    /// through separate heap allocations.
    #[must_use]
    pub fn build_static(self) -> AnyProfiler {
        match self {
            ProfilerId::Software => AnyProfiler::Software(Software::new()),
            ProfilerId::Dispatch => AnyProfiler::Dispatch(Dispatch::new()),
            ProfilerId::Lci => AnyProfiler::Lci(Lci::new()),
            ProfilerId::Nci => AnyProfiler::Nci(Nci::new(false)),
            ProfilerId::NciIlp => AnyProfiler::Nci(Nci::new(true)),
            ProfilerId::TipIlp => AnyProfiler::Tip(Tip::new(false)),
            ProfilerId::Tip => AnyProfiler::Tip(Tip::new(true)),
            ProfilerId::TipLastCommitDrain => {
                AnyProfiler::Tip(Tip::new(true).with_drained_policy(DrainedPolicy::LastCommitted))
            }
        }
    }
}

/// A sampled profiler with static dispatch: one variant per concrete
/// implementation ([`Nci`] and [`Tip`] cover several [`ProfilerId`]s via
/// construction flags). Exists purely so the hot per-cycle fan-out in
/// [`crate::ProfilerBank`] compiles to direct, inlinable calls; behaviour is
/// identical to the boxed form by construction.
#[allow(missing_docs)]
#[derive(Debug)]
pub enum AnyProfiler {
    Software(Software),
    Dispatch(Dispatch),
    Lci(Lci),
    Nci(Nci),
    Tip(Tip),
}

impl SampledProfiler for AnyProfiler {
    #[inline]
    fn latch(&mut self, record: &CycleRecord) {
        match self {
            AnyProfiler::Software(p) => p.latch(record),
            AnyProfiler::Dispatch(p) => p.latch(record),
            AnyProfiler::Lci(p) => p.latch(record),
            AnyProfiler::Nci(p) => p.latch(record),
            AnyProfiler::Tip(p) => p.latch(record),
        }
    }

    #[inline]
    fn on_sample(&mut self, record: &CycleRecord) {
        match self {
            AnyProfiler::Software(p) => p.on_sample(record),
            AnyProfiler::Dispatch(p) => p.on_sample(record),
            AnyProfiler::Lci(p) => p.on_sample(record),
            AnyProfiler::Nci(p) => p.on_sample(record),
            AnyProfiler::Tip(p) => p.on_sample(record),
        }
    }

    fn drain_samples(&mut self) -> Vec<Sample> {
        match self {
            AnyProfiler::Software(p) => p.drain_samples(),
            AnyProfiler::Dispatch(p) => p.drain_samples(),
            AnyProfiler::Lci(p) => p.drain_samples(),
            AnyProfiler::Nci(p) => p.drain_samples(),
            AnyProfiler::Tip(p) => p.drain_samples(),
        }
    }

    fn flush_delta(&mut self, map: &tip_isa::SymbolMap) -> crate::profile::ProfileDelta {
        match self {
            AnyProfiler::Software(p) => p.flush_delta(map),
            AnyProfiler::Dispatch(p) => p.flush_delta(map),
            AnyProfiler::Lci(p) => p.flush_delta(map),
            AnyProfiler::Nci(p) => p.flush_delta(map),
            AnyProfiler::Tip(p) => p.flush_delta(map),
        }
    }

    fn snapshot_into(&self, out: &mut Vec<u8>) {
        match self {
            AnyProfiler::Software(p) => p.snapshot_into(out),
            AnyProfiler::Dispatch(p) => p.snapshot_into(out),
            AnyProfiler::Lci(p) => p.snapshot_into(out),
            AnyProfiler::Nci(p) => p.snapshot_into(out),
            AnyProfiler::Tip(p) => p.snapshot_into(out),
        }
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>, num_instrs: usize) -> Result<(), SnapError> {
        match self {
            AnyProfiler::Software(p) => p.restore_from(r, num_instrs),
            AnyProfiler::Dispatch(p) => p.restore_from(r, num_instrs),
            AnyProfiler::Lci(p) => p.restore_from(r, num_instrs),
            AnyProfiler::Nci(p) => p.restore_from(r, num_instrs),
            AnyProfiler::Tip(p) => p.restore_from(r, num_instrs),
        }
    }
}

impl fmt::Display for ProfilerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(ProfilerId::Tip.label(), "TIP");
        assert_eq!(ProfilerId::TipIlp.label(), "TIP-ILP");
        assert_eq!(ProfilerId::NciIlp.label(), "NCI+ILP");
        assert_eq!(ProfilerId::ALL.len(), 7);
    }

    #[test]
    fn snapshot_tags_roundtrip() {
        for id in ProfilerId::ALL
            .into_iter()
            .chain([ProfilerId::TipLastCommitDrain])
        {
            assert_eq!(ProfilerId::from_tag(id.tag()), Some(id));
        }
        assert_eq!(ProfilerId::from_tag(8), None);
    }

    #[test]
    fn build_constructs_every_kind() {
        for id in ProfilerId::ALL
            .into_iter()
            .chain([ProfilerId::TipLastCommitDrain])
        {
            let mut p = id.build();
            p.latch(&CycleRecord::empty(0));
            assert!(p.drain_samples().is_empty());
        }
    }
}
