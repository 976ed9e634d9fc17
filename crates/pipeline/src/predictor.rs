//! Branch prediction: gshare PHT, BTB with history-influenced indexing, RSB.
//!
//! These are the microarchitectural prediction structures that control-flow
//! transient attacks train: Spectre-PHT poisons the pattern history table,
//! Spectre-BTB the branch-target buffer, Spectre-RSB the return stack, and
//! Spectre-BHB exploits history-based index aliasing.

use crate::config::CoreConfig;

/// Statistics of one predictor complex.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Conditional-branch predictions made.
    pub cond_predictions: u64,
    /// Conditional-branch mispredictions.
    pub cond_mispredicts: u64,
    /// Indirect-target predictions made (BTB).
    pub indirect_predictions: u64,
    /// Indirect-target mispredictions.
    pub indirect_mispredicts: u64,
    /// Return predictions made (RSB).
    pub return_predictions: u64,
    /// Return mispredictions.
    pub return_mispredicts: u64,
}

/// Gshare conditional predictor: 2-bit counters indexed by
/// `pc ^ (GHR & fold_mask)`.
///
/// With `index_history_bits = 0` it degrades to a bimodal (PC-indexed)
/// predictor; non-zero folding exposes the history-aliasing channel that
/// Spectre-BHB style attacks exploit.
#[derive(Debug, Clone)]
pub struct Gshare {
    counters: Vec<u8>, // 0..=3, >=2 means predict taken
    ghr: u64,
    ghr_mask: u64,
    fold_mask: u64,
}

impl Gshare {
    /// Creates a predictor with `entries` counters (rounded to a power of
    /// two), `ghr_bits` of tracked global history, and `index_history_bits`
    /// of history folded into the table index. Counters start weakly taken.
    pub fn new(entries: usize, ghr_bits: u32) -> Gshare {
        Gshare::with_index_history(entries, ghr_bits, ghr_bits)
    }

    /// Creates a predictor folding only `index_history_bits` of history into
    /// the index.
    pub fn with_index_history(entries: usize, ghr_bits: u32, index_history_bits: u32) -> Gshare {
        let entries = entries.next_power_of_two().max(2);
        Gshare {
            counters: vec![2; entries],
            ghr: 0,
            ghr_mask: (1u64 << ghr_bits) - 1,
            fold_mask: (1u64 << index_history_bits.min(ghr_bits)) - 1,
        }
    }

    fn index_with(&self, pc: usize, ghr: u64) -> usize {
        ((pc as u64 ^ (ghr & self.fold_mask)) as usize) & (self.counters.len() - 1)
    }

    /// Predicts taken/not-taken for the conditional branch at `pc` using the
    /// current (fetch-time) history.
    pub fn predict(&self, pc: usize) -> bool {
        self.counters[self.index_with(pc, self.ghr)] >= 2
    }

    /// Speculatively shifts the predicted outcome into the history register
    /// (called at fetch, like real front ends).
    pub fn note_fetch(&mut self, predicted_taken: bool) {
        self.ghr = ((self.ghr << 1) | predicted_taken as u64) & self.ghr_mask;
    }

    /// Trains the counter the branch was *predicted* with: `ghr` must be the
    /// history snapshot captured at fetch.
    pub fn train_at(&mut self, pc: usize, ghr: u64, taken: bool) {
        let i = self.index_with(pc, ghr);
        let c = &mut self.counters[i];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Convenience for tests and trainers operating in program order:
    /// trains with the current history, then shifts it.
    pub fn train(&mut self, pc: usize, taken: bool) {
        let ghr = self.ghr;
        self.train_at(pc, ghr, taken);
        self.note_fetch(taken);
    }

    /// Current global history (the BHB analogue).
    pub fn history(&self) -> u64 {
        self.ghr
    }

    /// Serializes the counter table and history (masks are configuration).
    pub fn encode(&self, e: &mut sas_snap::Enc) {
        e.seq(&self.counters, |e, c| e.u8(*c));
        e.uv(self.ghr);
    }

    /// Restores state serialized by [`Gshare::encode`].
    ///
    /// # Errors
    ///
    /// Truncated input, a table-size mismatch, or a counter above 3.
    pub fn restore(&mut self, d: &mut sas_snap::Dec) -> Result<(), sas_snap::SnapError> {
        let counters = d.seq(self.counters.len(), |d| {
            let c = d.u8()?;
            if c > 3 {
                return Err(sas_snap::SnapError::BadValue {
                    what: "gshare counter",
                    value: c as u64,
                });
            }
            Ok(c)
        })?;
        if counters.len() != self.counters.len() {
            return Err(sas_snap::SnapError::BadValue {
                what: "gshare table size",
                value: counters.len() as u64,
            });
        }
        self.counters = counters;
        self.ghr = d.uv()? & self.ghr_mask;
        Ok(())
    }
}

/// Direct-mapped, tagless BTB. Tagless indexing gives the destructive
/// aliasing Spectre-BTB relies on; `history_bits` of GHR folded into the
/// index model BHB influence on indirect prediction (Spectre-BHB).
#[derive(Debug, Clone)]
pub struct Btb {
    targets: Vec<Option<usize>>,
    history_mask: u64,
}

impl Btb {
    /// Creates a BTB with `entries` slots.
    pub fn new(entries: usize, history_bits: u32) -> Btb {
        let entries = entries.next_power_of_two().max(2);
        Btb { targets: vec![None; entries], history_mask: (1u64 << history_bits) - 1 }
    }

    fn index(&self, pc: usize, ghr: u64) -> usize {
        ((pc as u64 ^ (ghr & self.history_mask)) as usize) & (self.targets.len() - 1)
    }

    /// Predicted target for the indirect branch at `pc`, if any.
    pub fn predict(&self, pc: usize, ghr: u64) -> Option<usize> {
        self.targets[self.index(pc, ghr)]
    }

    /// Installs the resolved target.
    pub fn train(&mut self, pc: usize, ghr: u64, target: usize) {
        let i = self.index(pc, ghr);
        self.targets[i] = Some(target);
    }

    /// Serializes the target table (the mask is configuration).
    pub fn encode(&self, e: &mut sas_snap::Enc) {
        e.seq(&self.targets, |e, t| e.opt_uv(t.map(|v| v as u64)));
    }

    /// Restores state serialized by [`Btb::encode`].
    ///
    /// # Errors
    ///
    /// Truncated input or a table-size mismatch.
    pub fn restore(&mut self, d: &mut sas_snap::Dec) -> Result<(), sas_snap::SnapError> {
        let targets = d.seq(self.targets.len(), |d| {
            Ok(d.opt_uv()?.map(|v| v as usize))
        })?;
        if targets.len() != self.targets.len() {
            return Err(sas_snap::SnapError::BadValue {
                what: "btb table size",
                value: targets.len() as u64,
            });
        }
        self.targets = targets;
        Ok(())
    }
}

/// Return stack buffer: a bounded stack of predicted return addresses.
/// Overflow discards the oldest entry; underflow predicts nothing — both
/// behaviours are what ret2spec-style attacks exploit.
#[derive(Debug, Clone)]
pub struct Rsb {
    stack: Vec<usize>,
    capacity: usize,
}

impl Rsb {
    /// Creates an RSB with `capacity` entries.
    pub fn new(capacity: usize) -> Rsb {
        Rsb { stack: Vec::with_capacity(capacity), capacity }
    }

    /// Pushes a return address (on call fetch).
    pub fn push(&mut self, ret_addr: usize) {
        if self.stack.len() == self.capacity && self.capacity > 0 {
            self.stack.remove(0);
        }
        if self.capacity > 0 {
            self.stack.push(ret_addr);
        }
    }

    /// Pops the predicted return address (on return fetch).
    pub fn pop(&mut self) -> Option<usize> {
        self.stack.pop()
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Serializes the stack (capacity is configuration).
    pub fn encode(&self, e: &mut sas_snap::Enc) {
        e.seq(&self.stack, |e, a| e.usz(*a));
    }

    /// Restores state serialized by [`Rsb::encode`].
    ///
    /// # Errors
    ///
    /// Truncated input or more entries than this RSB's capacity.
    pub fn restore(&mut self, d: &mut sas_snap::Dec) -> Result<(), sas_snap::SnapError> {
        self.stack = d.seq(self.capacity, |d| d.usz())?;
        Ok(())
    }
}

/// The full prediction complex of one core.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    /// Conditional predictor.
    pub gshare: Gshare,
    /// Indirect-target predictor.
    pub btb: Btb,
    /// Return-address predictor.
    pub rsb: Rsb,
    /// Counters.
    pub stats: PredictorStats,
}

impl BranchPredictor {
    /// Builds the predictor complex from a core configuration.
    pub fn new(cfg: &CoreConfig) -> BranchPredictor {
        BranchPredictor {
            gshare: Gshare::with_index_history(cfg.pht_entries, cfg.ghr_bits, cfg.pht_history_bits),
            btb: Btb::new(cfg.btb_entries, cfg.btb_history_bits),
            rsb: Rsb::new(cfg.rsb_entries),
            stats: PredictorStats::default(),
        }
    }

    /// Serializes the full complex: tables, history, stack and counters.
    pub fn encode(&self, e: &mut sas_snap::Enc) {
        self.gshare.encode(e);
        self.btb.encode(e);
        self.rsb.encode(e);
        e.uv(self.stats.cond_predictions);
        e.uv(self.stats.cond_mispredicts);
        e.uv(self.stats.indirect_predictions);
        e.uv(self.stats.indirect_mispredicts);
        e.uv(self.stats.return_predictions);
        e.uv(self.stats.return_mispredicts);
    }

    /// Restores state serialized by [`BranchPredictor::encode`] into a
    /// complex built from the same configuration.
    ///
    /// # Errors
    ///
    /// Truncated input or a table-geometry mismatch.
    pub fn restore(&mut self, d: &mut sas_snap::Dec) -> Result<(), sas_snap::SnapError> {
        self.gshare.restore(d)?;
        self.btb.restore(d)?;
        self.rsb.restore(d)?;
        self.stats.cond_predictions = d.uv()?;
        self.stats.cond_mispredicts = d.uv()?;
        self.stats.indirect_predictions = d.uv()?;
        self.stats.indirect_mispredicts = d.uv()?;
        self.stats.return_predictions = d.uv()?;
        self.stats.return_mispredicts = d.uv()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gshare_learns_a_bias() {
        let mut g = Gshare::new(64, 6);
        for _ in 0..8 {
            g.train(100, true);
        }
        assert!(g.predict(100));
        for _ in 0..8 {
            g.train(100, false);
        }
        assert!(!g.predict(100));
    }

    #[test]
    fn gshare_spectre_v1_training_pattern() {
        // Train in-bounds (taken) many times; a single out-of-bounds run
        // still predicts taken — the Spectre-v1 setup.
        let mut g = Gshare::new(4096, 12);
        let pc = 0x40;
        for _ in 0..16 {
            // Keep history constant across iterations by training only this
            // branch (history shifts but the counter array is large).
            g.train(pc, true);
        }
        assert!(g.predict(pc), "mistrained branch predicts taken");
    }

    #[test]
    fn gshare_history_affects_index() {
        let mut g = Gshare::new(64, 6);
        // Saturate one history context taken, another not-taken.
        for _ in 0..50 {
            g.train(5, true); // history becomes ...111
        }
        let h1 = g.history();
        for _ in 0..50 {
            g.train(5, false);
        }
        let h2 = g.history();
        assert_ne!(h1, h2);
    }

    #[test]
    fn btb_stores_and_aliases() {
        let mut b = Btb::new(32, 0);
        b.train(7, 0, 1000);
        assert_eq!(b.predict(7, 0), Some(1000));
        // Tagless: an aliasing pc (7 + 32) reads the same slot — the
        // Spectre-v2 poisoning primitive.
        assert_eq!(b.predict(7 + 32, 0), Some(1000));
    }

    #[test]
    fn btb_history_bits_split_entries() {
        let mut b = Btb::new(32, 4);
        b.train(7, 0b0000, 1000);
        b.train(7, 0b0001, 2000);
        assert_eq!(b.predict(7, 0b0000), Some(1000));
        assert_eq!(b.predict(7, 0b0001), Some(2000), "history selects a different slot (BHB)");
    }

    #[test]
    fn rsb_lifo_order() {
        let mut r = Rsb::new(4);
        r.push(10);
        r.push(20);
        assert_eq!(r.pop(), Some(20));
        assert_eq!(r.pop(), Some(10));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn rsb_overflow_drops_oldest() {
        let mut r = Rsb::new(2);
        r.push(1);
        r.push(2);
        r.push(3);
        assert_eq!(r.depth(), 2);
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), None, "address 1 was evicted");
    }

    #[test]
    fn predictor_complex_builds_from_config() {
        let p = BranchPredictor::new(&CoreConfig::tiny());
        assert_eq!(p.stats, PredictorStats::default());
        assert_eq!(p.rsb.depth(), 0);
    }
}
