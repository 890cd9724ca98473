//! The Time-Proportional Instruction Profiler (TIP) and its hardware model.
//!
//! TIP applies the Oracle's attribution policies at statistically sampled
//! cycles using a small hardware unit sitting between the PMU and the ROB
//! (Figures 5 and 6 of the paper): an Offending Instruction Register (OIR)
//! that continuously latches the youngest committing (or excepting)
//! instruction with its flags, a sample-selection unit that snapshots the
//! head ROB column into per-bank address CSRs, and a flags CSR
//! (Stalled / Mispredicted / Flush / Exception / Front-end).
//!
//! This module models those registers explicitly ([`TipRegisters`]) and then
//! post-processes them into samples, exactly as perf-style software would
//! (Section 3.1): Computing samples split 1/n across the valid addresses,
//! Stalled samples go to the Oldest-ID address, Flushed samples to the OIR
//! address, and Drained (Front-end) samples to the first instruction
//! dispatched after the stall — the address CSR's write-enable stays
//! asserted until that dispatch happens.

use super::SampledProfiler;
use crate::category::{CycleCategory, Oir};
use crate::profile::{DeltaTracker, ProfileDelta};
use crate::sample::Sample;
use crate::snapshot::{get_idx, get_oir, get_samples, put_oir, put_samples};
use std::collections::VecDeque;
use tip_isa::snap::{self, SnapError, SnapReader};
use tip_isa::{InstrAddr, InstrIdx};
use tip_ooo::{CycleRecord, MAX_COMMIT};

/// The TIP flags CSR (one bit per condition, merged into a single CSR as in
/// Section 3.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TipFlags {
    /// No instruction committed in the sampled cycle (Stall state).
    pub stalled: bool,
    /// The ROB emptied because of a mispredicted branch.
    pub mispredicted: bool,
    /// The ROB emptied because of a flush-at-commit instruction.
    pub flush: bool,
    /// The ROB emptied because of an exception.
    pub exception: bool,
    /// The ROB drained because the front-end stopped delivering.
    pub frontend: bool,
}

impl TipFlags {
    /// Encodes the flags as the 64-bit CSR value software reads.
    #[must_use]
    pub fn encode(self) -> u64 {
        u64::from(self.stalled)
            | u64::from(self.mispredicted) << 1
            | u64::from(self.flush) << 2
            | u64::from(self.exception) << 3
            | u64::from(self.frontend) << 4
    }

    /// Decodes a CSR value.
    #[must_use]
    pub fn decode(raw: u64) -> Self {
        TipFlags {
            stalled: raw & 1 != 0,
            mispredicted: raw & 2 != 0,
            flush: raw & 4 != 0,
            exception: raw & 8 != 0,
            frontend: raw & 16 != 0,
        }
    }
}

/// The CSR bank a TIP sample exposes to software (Figure 5): the cycle
/// counter, flags, per-bank addresses with valid bits, and the Oldest-ID
/// register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TipRegisters {
    /// Cycle the sample was taken.
    pub cycle: u64,
    /// The flags CSR.
    pub flags: TipFlags,
    /// Per-ROB-bank instruction addresses.
    pub addrs: [InstrAddr; MAX_COMMIT],
    /// Per-bank valid bits (commit signals in the Computing state, entry
    /// valid signals in the Stall state).
    pub valid: [bool; MAX_COMMIT],
    /// Bank id of the oldest instruction.
    pub oldest: u8,
}

impl TipRegisters {
    fn empty(cycle: u64) -> Self {
        TipRegisters {
            cycle,
            flags: TipFlags::default(),
            addrs: [InstrAddr::new(0); MAX_COMMIT],
            valid: [false; MAX_COMMIT],
            oldest: 0,
        }
    }

    fn snapshot_into(&self, out: &mut Vec<u8>) {
        snap::put_u64(out, self.cycle);
        snap::put_u64(out, self.flags.encode());
        for addr in self.addrs {
            snap::put_u64(out, addr.raw());
        }
        for v in self.valid {
            snap::put_bool(out, v);
        }
        snap::put_u8(out, self.oldest);
    }

    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let cycle = r.u64()?;
        let raw_flags = r.u64()?;
        if raw_flags >= 32 {
            return Err(SnapError::Malformed("TIP flags CSR"));
        }
        let mut regs = TipRegisters::empty(cycle);
        regs.flags = TipFlags::decode(raw_flags);
        for addr in &mut regs.addrs {
            *addr = InstrAddr::new(r.u64()?);
        }
        for v in &mut regs.valid {
            *v = r.bool()?;
        }
        regs.oldest = r.u8()?;
        if regs.oldest as usize >= MAX_COMMIT {
            return Err(SnapError::Malformed("oldest bank id"));
        }
        Ok(regs)
    }
}

/// A sample whose address CSRs are still write-enabled, waiting for the
/// first instruction to dispatch (Drained state).
#[derive(Debug, Clone, Copy)]
struct OpenSample {
    registers: TipRegisters,
}

/// What a Drained-state (Front-end) sample is attributed to.
///
/// The paper's TIP holds the address CSRs write-enabled until the first
/// instruction dispatches and attributes the sample to it (the instruction
/// the front-end stall delayed). The ablation attributes to the OIR's
/// last-committed instruction instead — hardware-simpler, but it blames the
/// *previous* instruction for the front-end's problem, LCI-style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DrainedPolicy {
    /// Wait for the first dispatched instruction (the paper's design).
    #[default]
    FirstDispatched,
    /// Attribute to the last-committed instruction (ablation).
    LastCommitted,
}

/// TIP (and its ILP-oblivious ablation, TIP-ILP).
#[derive(Debug)]
pub struct Tip {
    ilp_aware: bool,
    drained_policy: DrainedPolicy,
    oir: Oir,
    resolved: Vec<Sample>,
    /// Samples waiting in the Front-end state for the next dispatch.
    open: VecDeque<OpenSample>,
    /// Instruction indices matching the last snapshot's address CSRs (the
    /// post-processing step would recover these from the binary).
    idx_of: [InstrIdx; MAX_COMMIT],
    kind_of: [tip_isa::InstrKind; MAX_COMMIT],
    tracker: DeltaTracker,
}

impl Tip {
    /// Creates TIP; `ilp_aware = false` gives the TIP-ILP ablation that
    /// attributes multi-commit samples to a single instruction.
    #[must_use]
    pub fn new(ilp_aware: bool) -> Self {
        Tip {
            ilp_aware,
            drained_policy: DrainedPolicy::FirstDispatched,
            oir: Oir::default(),
            resolved: Vec::new(),
            open: VecDeque::new(),
            idx_of: [InstrIdx::new(0); MAX_COMMIT],
            kind_of: [tip_isa::InstrKind::Nop; MAX_COMMIT],
            tracker: DeltaTracker::new(),
        }
    }

    /// Sets the Drained-state attribution policy (ablation knob; the default
    /// is the paper's design).
    #[must_use]
    pub fn with_drained_policy(mut self, policy: DrainedPolicy) -> Self {
        self.drained_policy = policy;
        self
    }

    /// The sample-selection unit (Figure 6): snapshot the commit stage into
    /// the CSR bank. Returns `None` registers fully formed except for the
    /// Drained case, where the sample stays open.
    fn select(&mut self, record: &CycleRecord) -> (TipRegisters, bool) {
        let mut regs = TipRegisters::empty(record.cycle);

        let any_valid = record.banks.iter().any(|b| b.valid);
        if any_valid {
            for (i, bank) in record.banks.iter().enumerate() {
                regs.addrs[i] = bank.addr;
                self.idx_of[i] = bank.idx;
                self.kind_of[i] = bank.kind;
                regs.valid[i] = if record.is_committing() {
                    bank.committing
                } else {
                    bank.valid
                };
            }
            regs.oldest = record.oldest_bank;
            regs.flags.stalled = !record.is_committing();
            return (regs, false);
        }

        // All head entries invalid: flushed or drained. The exception check
        // comes first (the OIR-update unit latches it in the same cycle).
        let oir_entry = if let Some((addr, idx)) = record.exception {
            regs.flags.exception = true;
            Some((addr, idx))
        } else if let Some(e) = self.oir.entry {
            regs.flags.mispredicted = e.mispredicted;
            regs.flags.flush = e.flush;
            regs.flags.exception = e.exception;
            Some((e.addr, e.idx))
        } else {
            None
        };

        if regs.flags.mispredicted || regs.flags.flush || regs.flags.exception {
            let (addr, idx) = oir_entry.expect("flagged OIR entry present");
            regs.addrs[0] = addr;
            self.idx_of[0] = idx;
            regs.valid[0] = true;
            regs.oldest = 0;
            (regs, false)
        } else {
            // Drained: Front-end flag set.
            regs.flags.frontend = true;
            match (self.drained_policy, oir_entry) {
                // Ablation: blame the last-committed instruction instead of
                // waiting for the first dispatch.
                (DrainedPolicy::LastCommitted, Some((addr, idx))) => {
                    regs.addrs[0] = addr;
                    self.idx_of[0] = idx;
                    regs.valid[0] = true;
                    regs.oldest = 0;
                    (regs, false)
                }
                // The paper's design: the address CSRs stay write-enabled
                // until the first instruction dispatches.
                _ => (regs, true),
            }
        }
    }

    /// Post-processing (Section 3.1): registers to an attributed sample.
    fn attribute(&self, regs: &TipRegisters) -> Sample {
        if regs.flags.frontend {
            // Resolved open sample: address 0 holds the first dispatched
            // instruction.
            return Sample::single(regs.cycle, self.idx_of[0], Some(CycleCategory::FrontEnd));
        }
        if regs.flags.mispredicted {
            return Sample::single(regs.cycle, self.idx_of[0], Some(CycleCategory::Mispredict));
        }
        if regs.flags.flush || regs.flags.exception {
            return Sample::single(regs.cycle, self.idx_of[0], Some(CycleCategory::MiscFlush));
        }
        if regs.flags.stalled {
            let oldest = regs.oldest as usize;
            let kind = self.kind_of[oldest];
            return Sample::single(
                regs.cycle,
                self.idx_of[oldest],
                Some(CycleCategory::stall_for(kind)),
            );
        }
        // Computing: split across the valid (committing) addresses.
        let targets: Vec<InstrIdx> = (0..MAX_COMMIT)
            .filter(|&i| regs.valid[i])
            .map(|i| self.idx_of[i])
            .collect();
        if self.ilp_aware {
            Sample::split(regs.cycle, &targets, Some(CycleCategory::Execution))
        } else {
            // TIP-ILP: a single instruction — the oldest committing one.
            let oldest = self.idx_of[regs.oldest as usize];
            Sample::single(regs.cycle, oldest, Some(CycleCategory::Execution))
        }
    }
}

impl Tip {
    /// Resolves open (Front-end) samples on the first dispatch: the head
    /// of the refilled ROB is the first instruction that entered it.
    #[inline]
    fn resolve_open(&mut self, record: &CycleRecord) {
        if !self.open.is_empty() {
            if let Some(head) = &record.head {
                while let Some(mut open) = self.open.pop_front() {
                    open.registers.addrs[0] = head.addr;
                    open.registers.valid[0] = true;
                    open.registers.oldest = 0;
                    self.idx_of[0] = head.idx;
                    self.resolved.push(self.attribute(&open.registers));
                }
            }
        }
    }
}

impl SampledProfiler for Tip {
    #[inline]
    fn latch(&mut self, record: &CycleRecord) {
        self.resolve_open(record);
        // The OIR-update unit runs every cycle regardless of sampling.
        self.oir.update(record);
    }

    fn on_sample(&mut self, record: &CycleRecord) {
        self.resolve_open(record);

        let (regs, open) = self.select(record);
        if open {
            self.open.push_back(OpenSample { registers: regs });
        } else {
            self.resolved.push(self.attribute(&regs));
        }

        // The OIR-update unit latches *after* sample selection, as in
        // `observe`'s historical ordering: the sampled cycle's own commits
        // become visible to the OIR only on the next cycle.
        self.oir.update(record);
    }

    fn drain_samples(&mut self) -> Vec<Sample> {
        std::mem::take(&mut self.resolved)
    }

    fn flush_delta(&mut self, map: &tip_isa::SymbolMap) -> ProfileDelta {
        self.tracker.flush_samples(&self.resolved, map)
    }

    fn snapshot_into(&self, out: &mut Vec<u8>) {
        snap::put_bool(out, self.ilp_aware);
        snap::put_bool(out, self.drained_policy == DrainedPolicy::LastCommitted);
        put_oir(out, &self.oir);
        put_samples(out, &self.resolved);
        snap::put_len(out, self.open.len());
        for open in &self.open {
            open.registers.snapshot_into(out);
        }
        for idx in self.idx_of {
            snap::put_u32(out, idx.raw());
        }
        for kind in self.kind_of {
            snap::put_kind(out, kind);
        }
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>, num_instrs: usize) -> Result<(), SnapError> {
        if r.bool()? != self.ilp_aware {
            return Err(SnapError::Malformed("TIP variant mismatch"));
        }
        let last_committed = r.bool()?;
        if last_committed != (self.drained_policy == DrainedPolicy::LastCommitted) {
            return Err(SnapError::Malformed("TIP drained-policy mismatch"));
        }
        self.oir = get_oir(r, num_instrs)?;
        self.resolved = get_samples(r, num_instrs)?;
        let n = r.len()?;
        self.open = (0..n)
            .map(|_| {
                Ok(OpenSample {
                    registers: TipRegisters::restore(r)?,
                })
            })
            .collect::<Result<_, SnapError>>()?;
        for idx in &mut self.idx_of {
            *idx = get_idx(r, num_instrs)?;
        }
        for kind in &mut self.kind_of {
            *kind = snap::get_kind(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tip_isa::InstrKind;
    use tip_ooo::{BankView, CommitView, HeadView};

    fn commit(cycle: u64, idxs: &[u32], mispredicted_last: bool, flush_last: bool) -> CycleRecord {
        let mut r = CycleRecord::empty(cycle);
        for (i, &idx) in idxs.iter().enumerate() {
            let last = i + 1 == idxs.len();
            let view = CommitView {
                addr: InstrAddr::new(0x1000 + 4 * u64::from(idx)),
                idx: InstrIdx::new(idx),
                kind: if last && flush_last {
                    InstrKind::CsrFlush
                } else {
                    InstrKind::IntAlu
                },
                mispredicted: last && mispredicted_last,
                flush: last && flush_last,
            };
            r.committed[i] = view;
            r.banks[i] = BankView {
                valid: true,
                committing: true,
                addr: view.addr,
                idx: view.idx,
                kind: view.kind,
            };
        }
        r.n_committed = idxs.len() as u8;
        r.oldest_bank = 0;
        r.rob_len = 0;
        r
    }

    fn stalled(cycle: u64, idx: u32, kind: InstrKind) -> CycleRecord {
        let mut r = CycleRecord::empty(cycle);
        r.rob_len = 2;
        let addr = InstrAddr::new(0x1000 + 4 * u64::from(idx));
        r.head = Some(HeadView {
            addr,
            idx: InstrIdx::new(idx),
            kind,
            executed: false,
        });
        r.banks[0] = BankView {
            valid: true,
            committing: false,
            addr,
            idx: InstrIdx::new(idx),
            kind,
        };
        r.oldest_bank = 0;
        r
    }

    #[test]
    fn computing_sample_splits_across_commits() {
        let mut tip = Tip::new(true);
        tip.on_sample(&commit(0, &[1, 2], false, false));
        let s = tip.drain_samples();
        assert_eq!(
            s[0].targets,
            vec![(InstrIdx::new(1), 0.5), (InstrIdx::new(2), 0.5)]
        );
        assert_eq!(s[0].category, Some(CycleCategory::Execution));
    }

    #[test]
    fn tip_ilp_picks_single_instruction() {
        let mut tip = Tip::new(false);
        tip.on_sample(&commit(0, &[1, 2], false, false));
        let s = tip.drain_samples();
        assert_eq!(s[0].targets, vec![(InstrIdx::new(1), 1.0)]);
    }

    #[test]
    fn stalled_sample_goes_to_oldest_with_stall_category() {
        let mut tip = Tip::new(true);
        tip.on_sample(&stalled(3, 7, InstrKind::Load));
        let s = tip.drain_samples();
        assert_eq!(s[0].targets, vec![(InstrIdx::new(7), 1.0)]);
        assert_eq!(s[0].category, Some(CycleCategory::LoadStall));
    }

    #[test]
    fn flushed_sample_uses_oir() {
        let mut tip = Tip::new(true);
        // A mispredicted branch commits, then the ROB is empty.
        tip.latch(&commit(0, &[5], true, false));
        tip.on_sample(&CycleRecord::empty(1));
        let s = tip.drain_samples();
        assert_eq!(s[0].targets, vec![(InstrIdx::new(5), 1.0)]);
        assert_eq!(s[0].category, Some(CycleCategory::Mispredict));
    }

    #[test]
    fn csr_flush_sample_is_misc_flush() {
        let mut tip = Tip::new(true);
        tip.latch(&commit(0, &[5], false, true));
        tip.on_sample(&CycleRecord::empty(1));
        let s = tip.drain_samples();
        assert_eq!(s[0].category, Some(CycleCategory::MiscFlush));
        assert_eq!(s[0].targets, vec![(InstrIdx::new(5), 1.0)]);
    }

    #[test]
    fn exception_sample_targets_excepting_instruction() {
        let mut tip = Tip::new(true);
        tip.latch(&commit(0, &[1], false, false));
        let mut r = CycleRecord::empty(1);
        r.exception = Some((InstrAddr::new(0x2000), InstrIdx::new(9)));
        tip.on_sample(&r);
        let s = tip.drain_samples();
        assert_eq!(s[0].targets, vec![(InstrIdx::new(9), 1.0)]);
        assert_eq!(s[0].category, Some(CycleCategory::MiscFlush));
    }

    #[test]
    fn drained_sample_waits_for_first_dispatch() {
        let mut tip = Tip::new(true);
        tip.latch(&commit(0, &[1], false, false));
        tip.on_sample(&CycleRecord::empty(1)); // drained sample, open
        assert!(tip.drain_samples().is_empty());
        tip.latch(&CycleRecord::empty(2));
        tip.latch(&stalled(3, 12, InstrKind::IntAlu)); // refill
        let s = tip.drain_samples();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].cycle, 1, "sample keeps its trigger cycle");
        assert_eq!(s[0].targets, vec![(InstrIdx::new(12), 1.0)]);
        assert_eq!(s[0].category, Some(CycleCategory::FrontEnd));
    }

    #[test]
    fn drained_ablation_blames_last_commit() {
        let mut tip = Tip::new(true).with_drained_policy(DrainedPolicy::LastCommitted);
        tip.latch(&commit(0, &[3], false, false));
        tip.on_sample(&CycleRecord::empty(1)); // drained
        let s = tip.drain_samples();
        assert_eq!(s.len(), 1, "ablation resolves immediately");
        assert_eq!(
            s[0].targets,
            vec![(InstrIdx::new(3), 1.0)],
            "last-committed blamed"
        );
        assert_eq!(s[0].category, Some(CycleCategory::FrontEnd));
    }

    #[test]
    fn flags_encode_decode_roundtrip() {
        for bits in 0..32u64 {
            let f = TipFlags::decode(bits);
            assert_eq!(f.encode(), bits);
        }
    }

    #[test]
    fn storage_is_six_csrs_plus_oir() {
        // Section 3.2: cycle + flags + b address CSRs = 6 CSRs of 8 B for a
        // 4-wide core, plus the 9 B OIR = 57 B. Kept in sync with
        // crate::overhead.
        assert_eq!(crate::overhead::tip_storage_bytes(4), 57);
    }
}
