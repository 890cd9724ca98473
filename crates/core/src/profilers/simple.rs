//! The heuristic profilers of existing hardware: Software (interrupt skid),
//! Dispatch tagging (AMD IBS / Arm SPE), LCI (external monitors), and NCI
//! (Intel PEBS) with its commit-parallelism-aware variant.

use super::SampledProfiler;
use crate::profile::{DeltaTracker, ProfileDelta};
use crate::sample::Sample;
use crate::snapshot::{get_idx, get_samples, put_samples};
use std::collections::VecDeque;
use tip_isa::snap::{self, SnapError, SnapReader};
use tip_isa::InstrIdx;
use tip_ooo::CycleRecord;

/// Serializes a queue of pending trigger cycles.
fn put_cycles(out: &mut Vec<u8>, cycles: impl IntoIterator<Item = u64>, len: usize) {
    snap::put_len(out, len);
    for c in cycles {
        snap::put_u64(out, c);
    }
}

/// Reads a queue of pending trigger cycles.
fn get_cycles<C: FromIterator<u64>>(r: &mut SnapReader<'_>) -> Result<C, SnapError> {
    let n = r.len_of(8)?;
    (0..n).map(|_| r.u64()).collect()
}

/// Software (interrupt-based) profiling, e.g. plain Linux perf.
///
/// On an interrupt the in-flight instructions drain and the handler records
/// the program counter execution will resume from — an instruction *being
/// fetched* around the sample, tens to hundreds of instructions past the one
/// the core was actually spending time on (skid, Section 2.1).
#[derive(Debug, Default)]
pub struct Software {
    resolved: Vec<Sample>,
    pending: VecDeque<u64>,
    tracker: DeltaTracker,
}

impl Software {
    /// Creates the profiler.
    #[must_use]
    pub fn new() -> Self {
        Software::default()
    }
}

impl SampledProfiler for Software {
    #[inline]
    fn latch(&mut self, record: &CycleRecord) {
        // Off-sample the handler only has work when an earlier interrupt is
        // still waiting for fetch to resume.
        if self.pending.is_empty() {
            return;
        }
        if let Some((_, idx)) = record.next_to_fetch {
            while let Some(cycle) = self.pending.pop_front() {
                self.resolved.push(Sample::single(cycle, idx, None));
            }
        }
    }

    fn on_sample(&mut self, record: &CycleRecord) {
        if let Some((_, idx)) = record.next_to_fetch {
            while let Some(cycle) = self.pending.pop_front() {
                self.resolved.push(Sample::single(cycle, idx, None));
            }
            self.resolved.push(Sample::single(record.cycle, idx, None));
        } else {
            // Fetch has nothing (program ending / redirect pending): the PC
            // is captured when fetch resumes.
            self.pending.push_back(record.cycle);
        }
    }

    fn drain_samples(&mut self) -> Vec<Sample> {
        std::mem::take(&mut self.resolved)
    }

    fn flush_delta(&mut self, map: &tip_isa::SymbolMap) -> ProfileDelta {
        self.tracker.flush_samples(&self.resolved, map)
    }

    fn snapshot_into(&self, out: &mut Vec<u8>) {
        put_samples(out, &self.resolved);
        put_cycles(out, self.pending.iter().copied(), self.pending.len());
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>, num_instrs: usize) -> Result<(), SnapError> {
        self.resolved = get_samples(r, num_instrs)?;
        self.pending = get_cycles(r)?;
        Ok(())
    }
}

/// Dispatch tagging (AMD IBS, Arm SPE, ProfileMe).
///
/// A sample tags the instruction sitting at the dispatch boundary and is
/// *retrieved when the tagged instruction commits* (this is what lets IBS
/// report how the instruction flowed through the back-end). During a long
/// stall the ROB backs up and the same instruction sits at dispatch for the
/// whole stall — so *it* attracts the samples rather than the stalling
/// instruction (Figure 2b). Wrong-path tags are discarded and re-tagged, as
/// IBS drops samples for squashed instructions.
#[derive(Debug, Default)]
pub struct Dispatch {
    resolved: Vec<Sample>,
    tracker: DeltaTracker,
    /// Samples waiting for something correct-path at the dispatch boundary.
    untagged: VecDeque<u64>,
    /// Tagged samples waiting for their instruction to commit:
    /// (trigger cycle, tag cycle, tagged instruction).
    tagged: VecDeque<(u64, u64, InstrIdx)>,
    /// Tag-to-commit latency of each resolved sample.
    latencies: Vec<u64>,
}

impl Dispatch {
    /// Creates the profiler.
    #[must_use]
    pub fn new() -> Self {
        Dispatch::default()
    }

    /// Tag-to-commit latencies of resolved samples (the per-instruction
    /// back-end flow data IBS exposes); in trigger order.
    #[must_use]
    pub fn tag_to_commit_latencies(&self) -> &[u64] {
        &self.latencies
    }
}

impl Dispatch {
    /// Tags waiting samples at the dispatch boundary and retrieves tags
    /// whose instruction commits this cycle — the always-on half of the
    /// IBS-style machinery, shared by both observation paths.
    #[inline]
    fn tag_and_retrieve(&mut self, record: &CycleRecord) {
        // Tag pending samples with the correct-path instruction at the
        // dispatch boundary.
        if !self.untagged.is_empty() {
            if let Some((_, idx, false)) = record.next_to_dispatch {
                while let Some(cycle) = self.untagged.pop_front() {
                    self.tagged.push_back((cycle, record.cycle, idx));
                }
            }
        }
        // Retrieve samples whose tagged instruction commits this cycle. A
        // squash-and-refetch re-executes the same static instruction, so the
        // tag still resolves (matching IBS re-tagging behaviour closely
        // enough for attribution purposes).
        if !self.tagged.is_empty() && record.is_committing() {
            while let Some(&(cycle, tag_cycle, idx)) = self.tagged.front() {
                if record.committed_iter().any(|c| c.idx == idx) {
                    self.tagged.pop_front();
                    self.latencies.push(record.cycle - tag_cycle);
                    self.resolved.push(Sample::single(cycle, idx, None));
                } else {
                    break;
                }
            }
        }
    }
}

impl SampledProfiler for Dispatch {
    #[inline]
    fn latch(&mut self, record: &CycleRecord) {
        self.tag_and_retrieve(record);
    }

    fn on_sample(&mut self, record: &CycleRecord) {
        self.untagged.push_back(record.cycle);
        self.tag_and_retrieve(record);
    }

    fn drain_samples(&mut self) -> Vec<Sample> {
        std::mem::take(&mut self.resolved)
    }

    fn flush_delta(&mut self, map: &tip_isa::SymbolMap) -> ProfileDelta {
        self.tracker.flush_samples(&self.resolved, map)
    }

    fn snapshot_into(&self, out: &mut Vec<u8>) {
        put_samples(out, &self.resolved);
        put_cycles(out, self.untagged.iter().copied(), self.untagged.len());
        snap::put_len(out, self.tagged.len());
        for &(cycle, tag_cycle, idx) in &self.tagged {
            snap::put_u64(out, cycle);
            snap::put_u64(out, tag_cycle);
            snap::put_u32(out, idx.raw());
        }
        put_cycles(out, self.latencies.iter().copied(), self.latencies.len());
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>, num_instrs: usize) -> Result<(), SnapError> {
        self.resolved = get_samples(r, num_instrs)?;
        self.untagged = get_cycles(r)?;
        let n = r.len_of(20)?;
        self.tagged = (0..n)
            .map(|_| Ok((r.u64()?, r.u64()?, get_idx(r, num_instrs)?)))
            .collect::<Result<_, SnapError>>()?;
        self.latencies = get_cycles(r)?;
        Ok(())
    }
}

/// Last-Committed Instruction (Arm CoreSight-style external monitors).
///
/// Samples the youngest instruction that has committed so far. During a
/// stall this is the instruction *before* the stalling one, so long-latency
/// instructions are systematically blamed on their predecessors
/// (Figure 4b).
#[derive(Debug, Default)]
pub struct Lci {
    last_committed: Option<InstrIdx>,
    resolved: Vec<Sample>,
    pending: VecDeque<u64>,
    tracker: DeltaTracker,
}

impl Lci {
    /// Creates the profiler.
    #[must_use]
    pub fn new() -> Self {
        Lci::default()
    }
}

impl SampledProfiler for Lci {
    #[inline]
    fn latch(&mut self, record: &CycleRecord) {
        // The monitor's last-committed register latches every cycle.
        if let Some(c) = record.youngest_committed() {
            self.last_committed = Some(c.idx);
        }
        if !self.pending.is_empty() {
            if let Some(idx) = self.last_committed {
                while let Some(cycle) = self.pending.pop_front() {
                    self.resolved.push(Sample::single(cycle, idx, None));
                }
            }
        }
    }

    fn on_sample(&mut self, record: &CycleRecord) {
        // The monitor reads the last-committed instruction as of the sampled
        // cycle; commits in the sampled cycle itself are visible.
        if let Some(c) = record.youngest_committed() {
            self.last_committed = Some(c.idx);
        }
        if let Some(idx) = self.last_committed {
            while let Some(cycle) = self.pending.pop_front() {
                self.resolved.push(Sample::single(cycle, idx, None));
            }
            self.resolved.push(Sample::single(record.cycle, idx, None));
        } else {
            // Nothing has committed yet (cold start): resolve at first commit.
            self.pending.push_back(record.cycle);
        }
    }

    fn drain_samples(&mut self) -> Vec<Sample> {
        std::mem::take(&mut self.resolved)
    }

    fn flush_delta(&mut self, map: &tip_isa::SymbolMap) -> ProfileDelta {
        self.tracker.flush_samples(&self.resolved, map)
    }

    fn snapshot_into(&self, out: &mut Vec<u8>) {
        match self.last_committed {
            None => snap::put_u8(out, 0),
            Some(idx) => {
                snap::put_u8(out, 1);
                snap::put_u32(out, idx.raw());
            }
        }
        put_samples(out, &self.resolved);
        put_cycles(out, self.pending.iter().copied(), self.pending.len());
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>, num_instrs: usize) -> Result<(), SnapError> {
        self.last_committed = match r.u8()? {
            0 => None,
            1 => Some(get_idx(r, num_instrs)?),
            _ => return Err(SnapError::Malformed("LCI register tag")),
        };
        self.resolved = get_samples(r, num_instrs)?;
        self.pending = get_cycles(r)?;
        Ok(())
    }
}

/// Next-Committing Instruction (Intel PEBS), optionally made
/// commit-parallelism-aware (the paper's NCI+ILP ablation, Figure 11c).
///
/// A sample resolves at the first commit at or after the sampled cycle. NCI
/// attributes everything to the oldest instruction committing in that cycle;
/// NCI+ILP splits the sample 1/n across all of them.
#[derive(Debug)]
pub struct Nci {
    ilp_aware: bool,
    resolved: Vec<Sample>,
    pending: VecDeque<u64>,
    tracker: DeltaTracker,
}

impl Nci {
    /// Creates the profiler; `ilp_aware` selects the NCI+ILP variant.
    #[must_use]
    pub fn new(ilp_aware: bool) -> Self {
        Nci {
            ilp_aware,
            resolved: Vec::new(),
            pending: VecDeque::new(),
            tracker: DeltaTracker::new(),
        }
    }

    fn resolve(&mut self, cycle: u64, record: &CycleRecord) {
        // A record can claim `n_committed > 0` yet carry no commit entries
        // if it came from a damaged or perturbed trace; drop the sample
        // instead of panicking (replays must degrade, not die).
        let sample = if self.ilp_aware {
            let targets: Vec<InstrIdx> = record.committed_iter().map(|c| c.idx).collect();
            if targets.is_empty() {
                return;
            }
            Sample::split(cycle, &targets, None)
        } else {
            let Some(oldest) = record.committed_iter().next() else {
                return;
            };
            Sample::single(cycle, oldest.idx, None)
        };
        self.resolved.push(sample);
    }
}

impl SampledProfiler for Nci {
    #[inline]
    fn latch(&mut self, record: &CycleRecord) {
        if !self.pending.is_empty() && record.is_committing() {
            while let Some(cycle) = self.pending.pop_front() {
                self.resolve(cycle, record);
            }
        }
    }

    fn on_sample(&mut self, record: &CycleRecord) {
        self.pending.push_back(record.cycle);
        if record.is_committing() {
            while let Some(cycle) = self.pending.pop_front() {
                self.resolve(cycle, record);
            }
        }
    }

    fn drain_samples(&mut self) -> Vec<Sample> {
        std::mem::take(&mut self.resolved)
    }

    fn flush_delta(&mut self, map: &tip_isa::SymbolMap) -> ProfileDelta {
        self.tracker.flush_samples(&self.resolved, map)
    }

    fn snapshot_into(&self, out: &mut Vec<u8>) {
        snap::put_bool(out, self.ilp_aware);
        put_samples(out, &self.resolved);
        put_cycles(out, self.pending.iter().copied(), self.pending.len());
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>, num_instrs: usize) -> Result<(), SnapError> {
        if r.bool()? != self.ilp_aware {
            return Err(SnapError::Malformed("NCI variant mismatch"));
        }
        self.resolved = get_samples(r, num_instrs)?;
        self.pending = get_cycles(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tip_isa::{InstrAddr, InstrKind};
    use tip_ooo::CommitView;

    fn commit(cycle: u64, idxs: &[u32]) -> CycleRecord {
        let mut r = CycleRecord::empty(cycle);
        for (i, &idx) in idxs.iter().enumerate() {
            r.committed[i] = CommitView {
                addr: InstrAddr::new(0x1000 + 4 * u64::from(idx)),
                idx: InstrIdx::new(idx),
                kind: InstrKind::IntAlu,
                mispredicted: false,
                flush: false,
            };
        }
        r.n_committed = idxs.len() as u8;
        r
    }

    #[test]
    fn nci_waits_for_next_commit() {
        let mut nci = Nci::new(false);
        nci.on_sample(&CycleRecord::empty(0)); // sample on an idle cycle
        assert!(nci.drain_samples().is_empty());
        nci.latch(&commit(1, &[7, 8]));
        let s = nci.drain_samples();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].cycle, 0);
        assert_eq!(
            s[0].targets,
            vec![(InstrIdx::new(7), 1.0)],
            "oldest committing wins"
        );
    }

    #[test]
    fn nci_same_cycle_commit_resolves_immediately() {
        let mut nci = Nci::new(false);
        nci.on_sample(&commit(5, &[3]));
        let s = nci.drain_samples();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].targets, vec![(InstrIdx::new(3), 1.0)]);
    }

    #[test]
    fn nci_survives_hostile_commit_counts() {
        // With the plain commit array a "count without entries" record is
        // unrepresentable — the array always holds values, so the old
        // sparse-record hazard is gone by construction. The remaining
        // hostile shape is an out-of-range count on a hand-built or
        // damaged record: `committed_slice`'s clamp must keep both NCI
        // variants panic-free (they resolve against the filler entries).
        let mut hostile = CycleRecord::empty(1);
        hostile.n_committed = 200;
        for ilp in [false, true] {
            let mut nci = Nci::new(ilp);
            nci.on_sample(&CycleRecord::empty(0));
            nci.latch(&hostile);
            let _ = nci.drain_samples(); // no panic is the assertion
        }
    }

    #[test]
    fn nci_ilp_splits_across_committers() {
        let mut nci = Nci::new(true);
        nci.on_sample(&commit(5, &[3, 4]));
        let s = nci.drain_samples();
        assert_eq!(
            s[0].targets,
            vec![(InstrIdx::new(3), 0.5), (InstrIdx::new(4), 0.5)]
        );
    }

    #[test]
    fn lci_samples_last_committed() {
        let mut lci = Lci::new();
        lci.latch(&commit(0, &[1, 2]));
        lci.on_sample(&CycleRecord::empty(1)); // stall-ish cycle
        let s = lci.drain_samples();
        assert_eq!(
            s[0].targets,
            vec![(InstrIdx::new(2), 1.0)],
            "youngest committed"
        );
    }

    #[test]
    fn lci_cold_start_defers_to_first_commit() {
        let mut lci = Lci::new();
        lci.on_sample(&CycleRecord::empty(0));
        assert!(lci.drain_samples().is_empty());
        lci.latch(&commit(1, &[4]));
        let s = lci.drain_samples();
        assert_eq!(s[0].targets, vec![(InstrIdx::new(4), 1.0)]);
    }

    #[test]
    fn dispatch_tags_then_resolves_at_commit() {
        let mut d = Dispatch::new();
        let mut r = CycleRecord::empty(0);
        r.next_to_dispatch = Some((InstrAddr::new(0x1028), InstrIdx::new(10), false));
        d.on_sample(&r);
        assert!(
            d.drain_samples().is_empty(),
            "sample waits for the tagged commit"
        );
        d.latch(&commit(7, &[9])); // some other instruction
        assert!(d.drain_samples().is_empty());
        d.latch(&commit(9, &[10])); // the tagged one commits
        let s = d.drain_samples();
        assert_eq!(s[0].cycle, 0, "sample keeps its trigger cycle");
        assert_eq!(s[0].targets, vec![(InstrIdx::new(10), 1.0)]);
        assert_eq!(d.tag_to_commit_latencies(), &[9]);
    }

    #[test]
    fn dispatch_skips_wrong_path_tags() {
        let mut d = Dispatch::new();
        let mut r = CycleRecord::empty(0);
        r.next_to_dispatch = Some((InstrAddr::new(0x1028), InstrIdx::new(10), true));
        d.on_sample(&r);
        assert!(d.drain_samples().is_empty(), "wrong-path tag is discarded");
        let mut r2 = CycleRecord::empty(1);
        r2.next_to_dispatch = Some((InstrAddr::new(0x102c), InstrIdx::new(11), false));
        d.latch(&r2);
        d.latch(&commit(4, &[11]));
        let s = d.drain_samples();
        assert_eq!(s[0].cycle, 0);
        assert_eq!(s[0].targets, vec![(InstrIdx::new(11), 1.0)]);
    }

    #[test]
    fn software_samples_the_fetch_pc() {
        let mut sw = Software::new();
        let mut r = CycleRecord::empty(0);
        r.next_to_fetch = Some((InstrAddr::new(0x1100), InstrIdx::new(64)));
        sw.on_sample(&r);
        let s = sw.drain_samples();
        assert_eq!(s[0].targets, vec![(InstrIdx::new(64), 1.0)]);
    }

    #[test]
    fn pending_samples_resolve_in_order() {
        let mut nci = Nci::new(false);
        nci.on_sample(&CycleRecord::empty(0));
        nci.on_sample(&CycleRecord::empty(1));
        nci.latch(&commit(2, &[9]));
        let s = nci.drain_samples();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].cycle, s[1].cycle), (0, 1));
    }
}
