//! Writeback: completes due micro-ops, applies the load-response policy
//! and redirects on a mispredicted branch.

use super::{sorted_insert, sorted_remove, Core, Tcs, UopState};
use crate::policy::{DelayCause, LoadRespCtx, RespDecision};
use sas_isa::{Inst, TagNibble};
use sas_mem::MemSystem;
use sas_mte::TagCheckOutcome;
use std::cmp::Reverse;

impl Core {
    /// Index upkeep for the uop at `idx` whose state just became `Done`:
    /// retire it from the pending lists and wake the consumers chained on
    /// it (a consumer whose last outstanding producer completes becomes
    /// ready). Chain nodes of squashed consumers are freed and skipped —
    /// their seqs no longer resolve.
    fn on_done(&mut self, idx: usize) {
        let seq = self.rob[idx].seq;
        if self.rob[idx].is_branch() {
            debug_assert!(self.rob[idx].resolved);
            sorted_remove(&mut self.unresolved_branches, seq);
        }
        if self.rob[idx].is_mem() {
            sorted_remove(&mut self.pending_mem, seq);
        }
        if matches!(self.rob[idx].inst, Inst::SpecBarrier) {
            sorted_remove(&mut self.pending_barriers, seq);
        }
        let mut link = self.rob[idx].waiter_head.take();
        while let Some(r) = link {
            let Some(node) = self.waiters.remove(r) else { break };
            link = node.next;
            if let Some(ci) = self.rob_index(node.consumer) {
                let c = &mut self.rob[ci];
                if matches!(c.state, UopState::Waiting) && c.unready > 0 {
                    c.unready -= 1;
                    if c.unready == 0 {
                        sorted_insert(&mut self.ready, node.consumer);
                    }
                }
            }
        }
    }

    /// Pops every completion-heap entry due at or before `cycle` into
    /// `scratch_due`, deduped and sorted ascending by seq — the order the
    /// old full-ROB writeback scan visited uops in. Stale entries (squashed
    /// or already-completed uops) are filtered by the state re-check at use.
    fn collect_due(&mut self, cycle: u64) {
        self.scratch_due.clear();
        while let Some(&Reverse((done, seq))) = self.completion.peek() {
            if done > cycle {
                break;
            }
            self.completion.pop();
            self.scratch_due.push(seq);
        }
        self.scratch_due.sort_unstable();
        self.scratch_due.dedup();
    }

    /// Completes every micro-op due at `cycle`, then squashes behind the
    /// oldest mispredicted branch among them, dropping the squashed loads'
    /// ghost fills.
    pub(super) fn writeback(&mut self, cycle: u64, mem: &mut MemSystem) {
        self.collect_due(cycle);
        let due = std::mem::take(&mut self.scratch_due);
        // Oldest completing mispredicted branch wins the redirect; `due` is
        // ascending, so the first one completed is it.
        let mut redirect: Option<(u64, usize)> = None;
        for &seq in &due {
            let Some(i) = self.rob_index(seq) else { continue };
            let UopState::Executing(done) = self.rob[i].state else { continue };
            if done > cycle {
                continue;
            }
            let is_load = self.rob[i].is_load();
            // SpecASan's STL rule: a tagged load that bypassed
            // unresolved-address stores holds its completed result
            // until those addresses resolve.
            if is_load
                && self.policy.holds_tagged_mdu_results()
                && self.rob[i].addr.is_some_and(|a| a.key() != TagNibble::ZERO)
                && self.has_older_unknown_store(seq)
            {
                self.charge_delay(i, DelayCause::TaggedMduWait, 1);
                // Still `Executing(done <= cycle)`: re-arm the heap so
                // next cycle's writeback revisits the held result.
                self.completion.push(Reverse((cycle + 1, seq)));
                continue;
            }
            if is_load && self.rob[i].tcs == Tcs::Wait {
                let outcome = self.rob[i].outcome.unwrap_or(TagCheckOutcome::Unchecked);
                if self.policy.on_load_response(&LoadRespCtx { outcome }) == RespDecision::Block {
                    let u = &mut self.rob[i];
                    u.tcs = Tcs::Unsafe;
                    u.result = None;
                    u.state = UopState::BlockedUnsafe;
                    self.stats.unsafe_spec_accesses += 1;
                    self.charge_delay(i, DelayCause::UnsafeAccessWait, 1);
                    continue;
                }
                self.rob[i].tcs = match outcome {
                    TagCheckOutcome::Unsafe => Tcs::Unsafe,
                    _ => Tcs::Safe,
                };
            } else {
                let u = &self.rob[i];
                if u.inst == Inst::SpecBarrier && self.active_barrier == Some(seq) {
                    self.active_barrier = None;
                }
                if redirect.is_none() && u.is_branch() && u.mispredicted {
                    redirect = Some((seq, u.predicted_next));
                }
            }
            self.rob[i].state = UopState::Done;
            self.on_done(i);
            if let Some(t) = self.telemetry.as_mut() {
                t.timeline.on_complete(seq, cycle);
            }
        }
        self.scratch_due = due;
        if let Some((bseq, target)) = redirect {
            self.squash_after(bseq, target, cycle + self.cfg.mispredict_penalty, Some(mem));
        }
    }
}
