//! Quiescence: lets the system skip cycles in which a core would do
//! nothing but CPI attribution.

use super::{Core, Tcs, UopState};
use sas_isa::{AluOp, Inst};
use sas_telemetry::CpiBucket;
use std::cmp::Reverse;

impl Core {
    /// If ticking this core at cycle `next` would change nothing except the
    /// CPI attribution, returns the earliest future cycle at which something
    /// *can* happen (`u64::MAX` when the core is finished). Returns `None`
    /// when the core would act at `next` — including "silent" work like
    /// charging a mitigation-delay retry, which must keep running tick by
    /// tick because it mutates the delay accounting.
    ///
    /// Correctness leans on one asymmetry: waking *early* is always safe
    /// (the tick re-evaluates everything and attributes the same bucket),
    /// only waking *late* is a bug. Every check below is therefore allowed
    /// to be conservative.
    pub(crate) fn quiescent_wake(&self, next: u64) -> Option<u64> {
        if self.finished {
            return Some(u64::MAX);
        }
        let mut wake = u64::MAX;
        // A pending precise fault halts the core at `halt_at`.
        if let Some((_, halt_at)) = self.pending_fault {
            wake = wake.min(halt_at);
        }
        // Writeback acts as soon as the oldest completion comes due.
        if let Some(&Reverse((done, _))) = self.completion.peek() {
            if done <= next {
                return None;
            }
            wake = wake.min(done);
        }
        // Commit side: what does the head do?
        match self.rob.front() {
            None => {
                if self.recover_until > next {
                    // Uniform bucket across the skipped range: stop exactly
                    // where MispredictRecovery flips to FetchStall.
                    wake = wake.min(self.recover_until);
                }
            }
            Some(h) => match h.state {
                // Done head commits (or replays a false forward) right away.
                UopState::Done => return None,
                UopState::BlockedUnsafe => {
                    // Commit raises the tag fault once speculation resolves
                    // in the access's favour; until then the head holds
                    // silently (gates can only clear via completions or
                    // issue actions, both covered by the other checks).
                    if self.pending_fault.is_none()
                        && !self.has_older_unresolved_branch(h.seq)
                        && !self.has_older_unknown_store(h.seq)
                    {
                        return None;
                    }
                }
                UopState::Executing(_) | UopState::Waiting => {}
            },
        }
        // Issue side: would any ready uop act (or charge a retry delay)?
        // Mirrors the silent-continue classes of `issue` exactly; anything
        // else breaks quiescence.
        let head_seq = self.rob.front().map(|u| u.seq);
        let barrier_active = self.pending_barriers.first().copied().or(self.active_barrier);
        for &seq in &self.ready {
            let Some(idx) = self.rob_index(seq) else { continue };
            let u = &self.rob[idx];
            if !matches!(u.state, UopState::Waiting) {
                continue;
            }
            if barrier_active.is_some_and(|b| seq > b) {
                continue; // silently barred behind a speculation barrier
            }
            if !self.sources_ready(u) {
                continue; // a completed producer without a value (blocked load)
            }
            let spec_branch = self.has_older_unresolved_branch(seq);
            if spec_branch && self.policy.blocks_full_speculation() {
                return None; // would charge BarrierSpecLoad
            }
            match u.inst {
                Inst::Fence => {
                    let older_mem = self.pending_mem.first().is_some_and(|&m| m < seq);
                    if older_mem || spec_branch {
                        continue; // silently drains
                    }
                    return None;
                }
                Inst::Amo { .. } if head_seq != Some(seq) => continue, // head-only
                Inst::Alu { op: AluOp::UDiv | AluOp::SDiv, .. }
                    if self.div_busy_until > next =>
                {
                    // Non-pipelined divider busy: silent; the occupying div's
                    // completion is in the heap, so `wake` already covers it.
                    continue;
                }
                _ => return None, // would issue, execute, or charge a delay
            }
        }
        // Dispatch: the front fetch-queue entry either dispatches (activity)
        // or waits on its decode latency / a full structure. Structures only
        // free through events covered above, except SQ drain-slot expiry.
        if let Some(f) = self.fetch_queue.front() {
            if f.available_at > next {
                wake = wake.min(f.available_at);
            } else if self.rob.len() < self.cfg.rob_entries
                && self.iq_occupancy() < self.cfg.iq_entries
                && !(f.inst.is_load() && self.lq_occupancy() >= self.cfg.lq_entries)
                && !(f.inst.is_store() && self.sq_occupancy(next) >= self.cfg.sq_entries)
            {
                return None;
            }
        }
        for d in &self.drain_slots {
            if d.done_at > next {
                wake = wake.min(d.done_at);
            }
        }
        // Fetch: runs unless stopped (no pc), stalled, or the queue is full.
        if self.fetch_pc.is_some()
            && self.fetch_stalled_on.is_none()
            && self.fetch_queue.len() < self.cfg.fetch_width * 2
        {
            if self.fetch_resume_at > next {
                wake = wake.min(self.fetch_resume_at);
            } else {
                return None;
            }
        }
        Some(wake)
    }

    /// Accounts the quiescent cycles `from..=to` in one step: the CPI bucket
    /// each skipped tick would have attributed is constant across the gap
    /// (the machine state that `attribute_cycle` reads is frozen), so the
    /// whole range lands in that bucket and `stats.cycles` jumps to `to+1` —
    /// bit-identical to ticking through the gap, minus the time.
    pub(crate) fn skip_quiescent(&mut self, from: u64, to: u64) {
        debug_assert!(!self.finished && from <= to);
        let bucket = match self.rob.front() {
            Some(h) if matches!(h.state, UopState::BlockedUnsafe) => CpiBucket::TshUnsafeBlock,
            Some(h)
                if h.is_mem()
                    && (matches!(h.state, UopState::Executing(_)) || h.tcs == Tcs::Wait) =>
            {
                CpiBucket::MemoryBound
            }
            Some(_) => CpiBucket::Base,
            None => {
                if from < self.recover_until {
                    CpiBucket::MispredictRecovery
                } else {
                    CpiBucket::FetchStall
                }
            }
        };
        self.stats.cpi.add(bucket, to - from + 1);
        self.stats.cycles = to + 1;
    }
}
