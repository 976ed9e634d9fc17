//! The load/store queues: address generation, store-to-load forwarding,
//! memory-order violations and load issue to the memory system.

use super::issue::Attempt;
use super::{sorted_remove, Core, InFlight, Tcs, UopState};
use crate::policy::{DelayCause, IssueDecision, LoadIssueCtx};
use sas_isa::{Inst, TagNibble, VirtAddr};
use sas_mem::{FillMode, MemSystem, SimError};
use sas_mte::TagCheckOutcome;
use std::cmp::Reverse;

/// A load cleared to issue: what [`Core::classify_load`] worked out on
/// the way.
#[derive(Debug, Clone, Copy)]
pub(super) struct LoadPlan {
    addr: VirtAddr,
    /// Under an unresolved branch or an older unknown store address.
    speculative: bool,
    mode: FillMode,
    /// Youngest live taint root among the address operands.
    addr_root: Option<u64>,
}

impl Core {
    pub(super) fn mdu_index(&self, pc: usize) -> usize {
        pc % self.mdu.len()
    }

    pub(super) fn compute_address(&self, u: &InFlight) -> Option<VirtAddr> {
        match u.inst {
            Inst::Ldr { base, offset, .. } => {
                Some(VirtAddr::new(self.src_value(u, base)?).offset(offset))
            }
            Inst::LdrIdx { base, index, .. } => {
                let b = self.src_value(u, base)?;
                let i = self.src_value(u, index)?;
                Some(VirtAddr::new(b).offset(i as i64))
            }
            Inst::Str { base, offset, .. } => {
                Some(VirtAddr::new(self.src_value(u, base)?).offset(offset))
            }
            Inst::StrIdx { base, index, .. } => {
                let b = self.src_value(u, base)?;
                let i = self.src_value(u, index)?;
                Some(VirtAddr::new(b).offset(i as i64))
            }
            Inst::Stg { base, offset } | Inst::St2g { base, offset } => {
                Some(VirtAddr::new(self.src_value(u, base)?).offset(offset))
            }
            Inst::Ldg { base, .. } => Some(VirtAddr::new(self.src_value(u, base)?)),
            Inst::Amo { addr, .. } => Some(VirtAddr::new(self.src_value(u, addr)?)),
            _ => None,
        }
    }

    /// Store-to-load handling at load issue. Returns:
    /// `Err(cause)` to delay, `Ok(None)` to access memory, `Ok(Some(..))`
    /// when forwarded (value, source seq, false_forward, outcome, blocked).
    #[allow(clippy::type_complexity)]
    fn stl_lookup(
        &mut self,
        load_idx: usize,
        laddr: VirtAddr,
        speculative: bool,
    ) -> Result<Option<(Option<u64>, u64, bool, TagCheckOutcome)>, DelayCause> {
        let load = &self.rob[load_idx];
        let lw = load.width;
        let lseq = load.seq;
        let la = laddr.untagged().raw();

        // Youngest older store with a known overlapping address.
        let mut candidate: Option<(u64, VirtAddr, u64, Option<u64>)> = None; // (seq, addr, width, value)
        let mut partial_alias: Option<(u64, Option<u64>, VirtAddr)> = None;
        for &sseq in self.store_seqs.iter() {
            if sseq >= lseq {
                break; // ascending: nothing older follows
            }
            let Some(si) = self.rob_index(sseq) else { continue };
            let u = &self.rob[si];
            let Some(saddr) = u.addr else { continue };
            let sa = saddr.untagged().raw();
            let overlap = sa < la + lw && la < sa + u.width;
            if overlap {
                if candidate.is_none_or(|(s, ..)| u.seq > s) {
                    candidate = Some((u.seq, saddr, u.width, u.store_value));
                }
            } else if self.cfg.partial_stl_matching
                && (sa & 0xFFF) == (la & 0xFFF)
                && sa != la
                && partial_alias.is_none_or(|(s, ..)| u.seq > s)
            {
                partial_alias = Some((u.seq, u.store_value, saddr));
            }
        }

        if let Some((sseq, saddr, swidth, svalue)) = candidate {
            let full_cover = saddr.untagged().raw() <= la
                && la + lw <= saddr.untagged().raw() + swidth;
            if !full_cover {
                // Partial overlap: wait for the store to leave the ROB.
                return Err(DelayCause::MemDepWait);
            }
            let Some(sv) = svalue else {
                return Err(DelayCause::MemDepWait); // data not ready yet
            };
            let allowed = self.policy.allow_stl_forward(laddr.key(), saddr.key());
            let outcome = if laddr.key() == TagNibble::ZERO {
                TagCheckOutcome::Unchecked
            } else if laddr.key() == saddr.key() {
                TagCheckOutcome::Safe
            } else {
                TagCheckOutcome::Unsafe
            };
            if !allowed {
                self.stats.stl_blocked += 1;
                return Ok(Some((None, sseq, false, outcome)));
            }
            self.stats.stl_forwards += 1;
            let shift = (la - saddr.untagged().raw()) * 8;
            let mask = if lw == 8 { u64::MAX } else { (1u64 << (lw * 8)) - 1 };
            return Ok(Some((Some((sv >> shift) & mask), sseq, false, outcome)));
        }

        // Fallout channel: 4K-aliasing false forward for speculative or
        // faulting loads — from in-flight SQ entries and from committed
        // stores still draining in the store buffer.
        if speculative {
            if partial_alias.is_none() {
                if let Some(d) = self
                    .drain_slots
                    .iter()
                    .rev()
                    .find(|d| {
                        d.data_valid
                            && (d.addr.untagged().raw() & 0xFFF) == (la & 0xFFF)
                            && d.addr.untagged().raw() != la
                    })
                {
                    partial_alias = Some((0, Some(d.value), d.addr));
                }
            }
            if let Some((sseq, Some(sv), saddr)) = partial_alias {
                if !self.policy.allow_stl_forward(laddr.key(), saddr.key()) {
                    // A refused *false* forward is not a violation — the
                    // full addresses differ; the load simply proceeds to
                    // memory (this is how the tagged SQ kills Fallout).
                    self.stats.stl_blocked += 1;
                    return Ok(None);
                }
                let outcome = if laddr.key() == saddr.key() && laddr.key() != TagNibble::ZERO
                {
                    TagCheckOutcome::Safe
                } else if laddr.key() == TagNibble::ZERO
                    && saddr.key() == TagNibble::ZERO
                {
                    TagCheckOutcome::Unchecked
                } else {
                    TagCheckOutcome::Unsafe
                };
                let mask = if lw == 8 { u64::MAX } else { (1u64 << (lw * 8)) - 1 };
                return Ok(Some((Some(sv & mask), sseq, true, outcome)));
            }
        }

        Ok(None)
    }

    /// First half of a split store: the address becomes visible to the LSQ
    /// (unblocking memory-dependence checks) and order violations are
    /// detected.
    pub(super) fn resolve_store_address(&mut self, idx: usize, addr: VirtAddr, cycle: u64) {
        let seq = self.rob[idx].seq;
        self.rob[idx].addr = Some(addr);
        sorted_remove(&mut self.unknown_stores, seq);

        // Memory-order violation check: a younger load already executed from
        // an overlapping address without forwarding from this store. The LQ
        // list is ascending, so the first hit is the oldest violator.
        let sa = addr.untagged().raw();
        let sw = self.rob[idx].width;
        let mut violator: Option<u64> = None;
        for &lseq in self.load_seqs.iter() {
            if lseq <= seq {
                continue;
            }
            let Some(li) = self.rob_index(lseq) else { continue };
            let l = &self.rob[li];
            if matches!(l.state, UopState::Waiting) || l.forwarded_from == Some(seq) {
                continue;
            }
            let hit = l.addr.is_some_and(|la| {
                let a = la.untagged().raw();
                a < sa + sw && sa < a + l.width
            });
            if hit {
                violator = Some(lseq);
                break;
            }
        }
        if let Some(vseq) = violator {
            self.stats.order_violations += 1;
            // Train the MDU to make this load wait next time.
            if let Some(l) = self.find(vseq) {
                let mi = self.mdu_index(l.pc);
                self.mdu[mi] = 3;
            }
            // Squash from the violating load (inclusive): replay.
            if let Some(redirect) = self.find(vseq).map(|l| l.pc) {
                self.squash_after(vseq - 1, redirect, cycle, None);
            }
        }
    }

    /// The pure prefix of a load's issue attempt ([`Core::classify_issue`]):
    /// address generation, the memory-dependence predictor and the
    /// mitigation's `on_load_issue`, in that order.
    pub(super) fn classify_load(&self, u: &InFlight, spec_branch: bool) -> Attempt {
        // Address generation; a newly generated address is latched even if
        // the attempt is then held.
        let (addr, latch) = match u.addr {
            Some(a) => (a, None),
            None => match self.compute_address(u) {
                Some(a) => (a, Some(a)),
                None => return Attempt::Idle,
            },
        };

        // Memory-dependence handling.
        let spec_mdu = self.has_older_unknown_store(u.seq);
        if spec_mdu && self.mdu[self.mdu_index(u.pc)] >= 2 {
            return Attempt::Retry { cause: DelayCause::MemDepWait, latch };
        }

        // The mitigation gets the first say: a delayed load neither forwards
        // from the SQ nor touches memory.
        let addr_root = self.operand_taint_root(u);
        let addr_tainted = self.root_tainted(addr_root);
        let ctx = LoadIssueCtx { spec_branch, spec_mdu, addr_tainted, key: addr.key() };
        match self.policy.on_load_issue(&ctx) {
            IssueDecision::Proceed(mode) => Attempt::Load(LoadPlan {
                addr,
                speculative: spec_branch || spec_mdu,
                mode,
                addr_root,
            }),
            IssueDecision::Delay(cause) => Attempt::Retry { cause, latch },
        }
    }

    /// Issues a load that [`Core::classify_load`] let through: forwards
    /// from the SQ or accesses memory. `Ok(false)` when store-to-load
    /// handling holds it instead.
    pub(super) fn issue_load(
        &mut self,
        idx: usize,
        cycle: u64,
        mem: &mut MemSystem,
        plan: LoadPlan,
    ) -> Result<bool, SimError> {
        let LoadPlan { addr, speculative, mode, addr_root } = plan;
        self.rob[idx].addr = Some(addr);
        let seq = self.rob[idx].seq;
        let faulting = mem.is_protected(addr);
        // STT: a speculative load's result is tainted at its own root;
        // otherwise it inherits its address operand's taint.
        let taint_root = if self.policy.taints_speculative_loads() && speculative {
            Some(seq)
        } else {
            addr_root
        };

        // Store-to-load forwarding / Fallout false forward. A faulting load
        // may also pick up a 4K-aliasing false forward (the Fallout channel
        // is driven by faulting loads on the committed path).
        match self.stl_lookup(idx, addr, speculative || faulting) {
            Err(cause) => {
                self.charge_delay(idx, cause, 1);
                return Ok(false);
            }
            Ok(Some((value, sseq, false_fwd, outcome))) => {
                let u = &mut self.rob[idx];
                u.forwarded_from = Some(sseq);
                u.false_forward = false_fwd;
                u.faulting = faulting;
                u.outcome = Some(outcome);
                match value {
                    Some(v) => {
                        u.result = Some(v);
                        u.tcs = match outcome {
                            TagCheckOutcome::Unsafe => Tcs::Unsafe,
                            _ => Tcs::Safe,
                        };
                        u.taint_root = taint_root;
                        u.state = UopState::Executing(cycle + 1);
                    }
                    None => {
                        // Forward blocked (SpecASan): unsafe speculative
                        // access; wait for resolution.
                        u.tcs = Tcs::Unsafe;
                        u.state = UopState::BlockedUnsafe;
                        self.stats.unsafe_spec_accesses += 1;
                        self.charge_delay(idx, DelayCause::ForwardBlocked, 1);
                    }
                }
                self.note_issued(seq);
                if let UopState::Executing(done) = self.rob[idx].state {
                    self.completion.push(Reverse((done, seq)));
                }
                return Ok(true);
            }
            Ok(None) => {}
        }

        // Access memory (AGU = 1 cycle, then the hierarchy).
        if self.telemetry.is_some() {
            let depth = self
                .rob
                .iter()
                .filter(|b| b.seq < seq && b.is_branch() && !b.resolved)
                .count() as u64;
            if let Some(t) = self.telemetry.as_mut() {
                t.spec_window_depth.observe(depth);
            }
        }
        let res = mem.load(self.id, addr, self.rob[idx].width.max(1), cycle + 1, mode, faulting)?;
        if let Some(t) = self.telemetry.as_mut() {
            t.load_latency.observe(res.latency);
        }
        let value = if let Some(stale) = res.stale_lfb_data {
            stale
        } else {
            match self.rob[idx].inst {
                Inst::Ldg { .. } => {
                    VirtAddr::new(addr.raw()).with_key(mem.load_tag(addr)).raw()
                }
                _ => mem.read_arch(addr, self.rob[idx].width.max(1)),
            }
        };
        let u = &mut self.rob[idx];
        u.faulting = faulting;
        u.fill_mode_used = Some(mode);
        u.outcome = Some(res.outcome);
        u.tcs = Tcs::Wait;
        u.taint_root = taint_root;
        if res.data_returned {
            u.result = Some(value);
            u.state = UopState::Executing(cycle + 1 + res.latency);
        } else {
            // The memory system withheld the data (tag mismatch under
            // SpecASan): the TSH moves tcs to Unsafe, notifies the ROB
            // (SSA = 0) and the load waits for speculation to resolve.
            u.tcs = Tcs::Unsafe;
            u.state = UopState::BlockedUnsafe;
            self.stats.unsafe_spec_accesses += 1;
            self.charge_delay(idx, DelayCause::UnsafeAccessWait, res.latency.max(1));
            if let Some(t) = self.telemetry.as_mut() {
                t.timeline.on_unsafe_block(seq, cycle);
            }
        }
        self.note_issued(seq);
        if let UopState::Executing(done) = self.rob[idx].state {
            self.completion.push(Reverse((done, seq)));
        }
        Ok(true)
    }
}
