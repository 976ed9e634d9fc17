//! Quiescence: lets the system skip cycles in which a core would do
//! nothing but CPI attribution.

use super::issue::{Attempt, PortUse};
use super::{Core, Tcs, UopState};
use sas_telemetry::CpiBucket;
use std::cmp::Reverse;

impl Core {
    /// If ticking this core at cycle `next` would change nothing except the
    /// CPI attribution and the re-charge of pure mitigation-delay retries,
    /// returns the earliest future cycle at which something *can* happen
    /// (`u64::MAX` when the core is finished). Returns `None` when the core
    /// would act at `next`.
    ///
    /// A retry is an issue attempt that [`Core::classify_issue`] answers
    /// with [`Attempt::Retry`]: `BarrierSpecLoad` (fence serialisation or a
    /// load the policy holds), `ExplicitBarrier`, `TaintedAddress`,
    /// `TaintedBranch`, the MDU predictor's `MemDepWait`, or any other
    /// delay `on_load_issue` returns. Every input of those decisions changes
    /// only through a completion, an issue action, a dispatch or a squash,
    /// none of which happens before the returned cycle, so each tick in the
    /// window would charge the same retries; [`Core::skip_quiescent`]
    /// charges them in bulk.
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
        // Issue side, checked last as the costliest: every ready uop must be
        // idle or a pure retry. Nothing issues in such a cycle, so no port
        // is ever taken. A busy divider is idle until its div completes,
        // which the completion heap already covers.
        let all_quiet = self.ready.iter().all(|&seq| {
            self.rob_index(seq).is_none_or(|idx| {
                matches!(
                    self.classify_issue(idx, next, PortUse::default()),
                    Attempt::Idle | Attempt::Retry { .. }
                )
            })
        });
        all_quiet.then_some(wake)
    }

    /// Accounts the quiescent cycles `from..=to` in one step, leaving the
    /// core exactly as ticking through them would have:
    /// - every retrying uop is charged `n` one-cycle retries: `n` more on
    ///   its delay total, its one `delay_events` tick, `n` telemetry
    ///   observations of 1. A load also latches the address its first
    ///   attempt would have generated;
    /// - each cycle lands in one CPI bucket, the same across the gap since
    ///   the state `attribute_cycle` reads is frozen: the mitigation bucket
    ///   of the oldest retry's cause (also charged to `stats.delay_cycles`),
    ///   else the head's bucket;
    /// - commit's per-tick drain-slot expiry and the per-tick `cycle_delay`
    ///   slot end as the last tick would leave them, and `stats.cycles`
    ///   jumps to `to+1`.
    pub(crate) fn skip_quiescent(&mut self, from: u64, to: u64) {
        debug_assert!(!self.finished && from <= to);
        let n = to - from + 1;
        // Commit's per-tick expiry of drained store-buffer slots.
        self.drain_slots.retain(|d| d.done_at > to);
        let mut first_cause = None;
        for i in 0..self.ready.len() {
            let Some(idx) = self.rob_index(self.ready[i]) else { continue };
            let Attempt::Retry { cause, latch } = self.classify_issue(idx, from, PortUse::default())
            else {
                continue;
            };
            self.charge_retries(idx, cause, latch, n);
            first_cause.get_or_insert(cause);
        }
        // What the last skipped tick leaves in the per-tick delay slot.
        self.cycle_delay = first_cause;
        let bucket = match (first_cause, self.rob.front()) {
            (Some(cause), _) => {
                self.stats.delay_cycles.add(cause, n);
                CpiBucket::MitigationDelay(cause.index())
            }
            (None, Some(h)) if matches!(h.state, UopState::BlockedUnsafe) => {
                CpiBucket::TshUnsafeBlock
            }
            (None, Some(h))
                if h.is_mem()
                    && (matches!(h.state, UopState::Executing(_)) || h.tcs == Tcs::Wait) =>
            {
                CpiBucket::MemoryBound
            }
            (None, Some(_)) => CpiBucket::Base,
            (None, None) => {
                if from < self.recover_until {
                    CpiBucket::MispredictRecovery
                } else {
                    CpiBucket::FetchStall
                }
            }
        };
        self.stats.cpi.add(bucket, n);
        self.stats.cycles = to + 1;
    }
}
