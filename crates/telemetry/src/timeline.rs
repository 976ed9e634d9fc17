//! Per-instruction stage timestamps.
//!
//! A bounded collector of one record per dispatched instruction, filled in
//! by the pipeline as the instruction moves through fetch → dispatch →
//! issue → complete → commit (or squash). The Chrome and Konata exporters
//! render these records; the collector itself knows nothing about stages
//! beyond the timestamps.

/// Stage timestamps for one dispatched instruction. `None` means the
/// instruction never reached that stage (squashed first, or the run ended).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstRecord {
    /// Pipeline sequence number (unique per core per run).
    pub seq: u64,
    /// Fetch PC.
    pub pc: u64,
    /// Disassembly.
    pub disasm: String,
    /// Cycle the instruction was fetched.
    pub fetch: Option<u64>,
    /// Cycle it entered the ROB.
    pub dispatch: Option<u64>,
    /// Cycle it issued to a functional unit / the memory system.
    pub issue: Option<u64>,
    /// Cycle its result became available.
    pub complete: Option<u64>,
    /// Cycle it retired.
    pub commit: Option<u64>,
    /// Cycle it was squashed (mutually exclusive with `commit`).
    pub squashed: Option<u64>,
    /// Cycle the tag-check handler withheld its data (an unsafe speculative
    /// access under SpecASan: the TSH sets SSA=0 and the load waits).
    pub unsafe_block: Option<u64>,
}

/// A bounded per-core collector of [`InstRecord`]s, indexed by seq.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    records: Vec<InstRecord>,
    /// Seq of `records[0]`; records are stored contiguously by seq.
    base_seq: u64,
    cap: usize,
    dropped: u64,
}

impl Timeline {
    /// Creates a collector holding at most `cap` instructions; later
    /// dispatches are counted in [`Timeline::dropped`] instead of recorded.
    pub fn new(cap: usize) -> Timeline {
        Timeline { records: Vec::new(), base_seq: 0, cap: cap.max(1), dropped: 0 }
    }

    /// Starts a record at dispatch. `fetch` is the fetch cycle if known.
    pub fn on_dispatch(
        &mut self,
        seq: u64,
        pc: u64,
        disasm: String,
        fetch: Option<u64>,
        cycle: u64,
    ) {
        if self.records.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        if self.records.is_empty() {
            self.base_seq = seq;
        }
        self.records.push(InstRecord {
            seq,
            pc,
            disasm,
            fetch,
            dispatch: Some(cycle),
            issue: None,
            complete: None,
            commit: None,
            squashed: None,
            unsafe_block: None,
        });
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut InstRecord> {
        // Seqs are dispatched in order with no gaps, so the record for
        // `seq` normally sits at a fixed offset; fall back to a search if
        // a caller ever violates that.
        let idx = seq.checked_sub(self.base_seq)? as usize;
        if self.records.get(idx).is_some_and(|r| r.seq == seq) {
            return self.records.get_mut(idx);
        }
        self.records.iter_mut().rev().find(|r| r.seq == seq)
    }

    /// Records issue for `seq` (first call wins; replays keep the original).
    pub fn on_issue(&mut self, seq: u64, cycle: u64) {
        if let Some(r) = self.get_mut(seq) {
            if r.issue.is_none() {
                r.issue = Some(cycle);
            }
        }
    }

    /// Records result availability for `seq`.
    pub fn on_complete(&mut self, seq: u64, cycle: u64) {
        if let Some(r) = self.get_mut(seq) {
            if r.complete.is_none() {
                r.complete = Some(cycle);
            }
        }
    }

    /// Records the TSH withholding `seq`'s data.
    pub fn on_unsafe_block(&mut self, seq: u64, cycle: u64) {
        if let Some(r) = self.get_mut(seq) {
            r.unsafe_block = Some(cycle);
        }
    }

    /// Records retirement for `seq`.
    pub fn on_commit(&mut self, seq: u64, cycle: u64) {
        if let Some(r) = self.get_mut(seq) {
            r.commit = Some(cycle);
        }
    }

    /// Records a squash for `seq`.
    pub fn on_squash(&mut self, seq: u64, cycle: u64) {
        if let Some(r) = self.get_mut(seq) {
            if r.commit.is_none() {
                r.squashed = Some(cycle);
            }
        }
    }

    /// The recorded instructions, in dispatch order.
    pub fn records(&self) -> &[InstRecord] {
        &self.records
    }

    /// Dispatches that arrived after the collector filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of recorded instructions that retired.
    pub fn committed(&self) -> usize {
        self.records.iter().filter(|r| r.commit.is_some()).count()
    }

    /// Serializes the collector, including in-flight (not yet retired or
    /// squashed) records, so a restored timeline keeps filling them in.
    pub fn encode(&self, e: &mut sas_snap::Enc) {
        e.usz(self.cap);
        e.uv(self.base_seq);
        e.uv(self.dropped);
        e.seq(&self.records, |e, r| {
            e.uv(r.seq);
            e.uv(r.pc);
            e.str(&r.disasm);
            e.opt_uv(r.fetch);
            e.opt_uv(r.dispatch);
            e.opt_uv(r.issue);
            e.opt_uv(r.complete);
            e.opt_uv(r.commit);
            e.opt_uv(r.squashed);
            e.opt_uv(r.unsafe_block);
        });
    }

    /// Restores a collector serialized by [`Timeline::encode`].
    ///
    /// # Errors
    ///
    /// Truncated input or more records than the stored capacity.
    pub fn restore(&mut self, d: &mut sas_snap::Dec) -> Result<(), sas_snap::SnapError> {
        self.cap = d.usz_max(1 << 24)?.max(1);
        self.base_seq = d.uv()?;
        self.dropped = d.uv()?;
        self.records = d.seq(self.cap, |d| {
            Ok(InstRecord {
                seq: d.uv()?,
                pc: d.uv()?,
                disasm: d.str()?,
                fetch: d.opt_uv()?,
                dispatch: d.opt_uv()?,
                issue: d.opt_uv()?,
                complete: d.opt_uv()?,
                commit: d.opt_uv()?,
                squashed: d.opt_uv()?,
                unsafe_block: d.opt_uv()?,
            })
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_is_recorded_in_order() {
        let mut t = Timeline::new(8);
        t.on_dispatch(1, 0, "movz x1, #1".into(), Some(0), 2);
        t.on_issue(1, 3);
        t.on_complete(1, 4);
        t.on_commit(1, 5);
        let r = &t.records()[0];
        assert_eq!(
            (r.fetch, r.dispatch, r.issue, r.complete, r.commit, r.squashed, r.unsafe_block),
            (Some(0), Some(2), Some(3), Some(4), Some(5), None, None)
        );
        assert_eq!(t.committed(), 1);
        // An unsafe speculative load: issued, data withheld, then squashed.
        t.on_dispatch(2, 4, "ldrb x5, [x2, x0]".into(), Some(1), 3);
        t.on_issue(2, 4);
        t.on_unsafe_block(2, 4);
        t.on_squash(2, 9);
        let r = &t.records()[1];
        assert_eq!(
            (r.issue, r.complete, r.commit, r.squashed, r.unsafe_block),
            (Some(4), None, None, Some(9), Some(4))
        );
        let mut e = sas_snap::Enc::new();
        t.encode(&mut e);
        let bytes = e.into_bytes();
        let mut back = Timeline::default();
        back.restore(&mut sas_snap::Dec::new(&bytes, "timeline")).unwrap();
        assert_eq!(back, t, "the block cycle survives a snapshot");
    }

    #[test]
    fn squashed_seq_can_be_redispatched() {
        let mut t = Timeline::new(8);
        t.on_dispatch(1, 0, "ldr".into(), None, 2);
        t.on_squash(1, 4);
        // Replay: a fresh record for a later re-dispatch of the same pc —
        // sequence numbers are fresh in the real pipeline, mimic that.
        t.on_dispatch(2, 0, "ldr".into(), None, 5);
        t.on_commit(2, 9);
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.records()[0].squashed, Some(4));
        assert_eq!(t.records()[1].commit, Some(9));
    }

    #[test]
    fn cap_counts_drops() {
        let mut t = Timeline::new(2);
        for s in 1..=5 {
            t.on_dispatch(s, 0, "nop".into(), None, s);
        }
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.dropped(), 3);
    }
}
