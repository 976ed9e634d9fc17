//! Commit: in-order retirement, precise faults and the architectural
//! state update.

use super::{Core, DrainSlot, FaultInfo, FaultKind, UopState, RETIRED_CAP};
use sas_isa::{Inst, VirtAddr};
use sas_mem::{FillMode, MemSystem, SimError};
use sas_mte::TagCheckOutcome;
use sas_oracle::CommitRecord;

impl Core {
    /// Raises a precise fault at `cycle` unless one is already pending. The
    /// core halts `fault_window` cycles later; in-flight micro-ops keep
    /// executing until then.
    fn raise_fault(&mut self, kind: FaultKind, pc: usize, addr: Option<VirtAddr>, cycle: u64) {
        if self.pending_fault.is_some() {
            return;
        }
        let info = FaultInfo { kind, pc, addr, cycle };
        self.pending_fault = Some((info, cycle + self.cfg.fault_window));
        match kind {
            FaultKind::TagCheck => self.stats.tag_faults += 1,
            FaultKind::Permission => self.stats.arch_faults += 1,
        }
    }

    pub(super) fn commit(&mut self, cycle: u64, mem: &mut MemSystem) -> Result<(), SimError> {
        self.drain_slots.retain(|d| d.done_at > cycle);
        let mut committed = 0;
        while committed < self.cfg.commit_width {
            let Some(head) = self.rob.front() else { break };
            let seq = head.seq;

            match head.state {
                UopState::BlockedUnsafe => {
                    // Fig. 4: if speculation resolved in the access's favour
                    // and the tag check failed, raise a tag-check fault. The
                    // pipeline flush takes `fault_window` cycles, like any
                    // precise fault — but a blocked access never produced
                    // data, so nothing secret can transmit meanwhile.
                    if !self.has_older_unresolved_branch(seq)
                        && !self.has_older_unknown_store(seq)
                    {
                        self.raise_fault(FaultKind::TagCheck, head.pc, head.addr, cycle);
                    }
                    break;
                }
                UopState::Done => {}
                _ => break,
            }

            // A false (4K-alias) forward that survived to commit replays
            // from this load — before any tag judgement: the forwarded data
            // (and its tag comparison) came from the wrong address.
            if head.is_load() && head.false_forward && !head.faulting {
                self.squash_after(head.seq - 1, head.pc, cycle + 1, None);
                break;
            }

            // Architectural MTE check on the committed path. Like all
            // precise faults, the flush takes `fault_window` cycles, during
            // which in-flight dependents keep executing — which is exactly
            // why commit-path MTE alone cannot stop transient sampling.
            if self.policy.enforces_mte_at_commit()
                && head.outcome == Some(TagCheckOutcome::Unsafe)
            {
                self.raise_fault(FaultKind::TagCheck, head.pc, head.addr, cycle);
                break;
            }
            // Permission fault (protected range reached the committed path).
            // The fault is raised at retirement, but the flush takes
            // `fault_window` cycles — in-flight transients keep executing
            // (the Meltdown/MDS race).
            if head.faulting {
                self.raise_fault(FaultKind::Permission, head.pc, head.addr, cycle);
                break;
            }

            // Stores: a committing store needs a drain slot. The MTE check
            // applies to the store address too (G2): a mismatch on the
            // committed path is an architectural tag fault.
            if head.is_store() && !matches!(head.inst, Inst::Amo { .. }) {
                let Some(addr) = head.addr else {
                    return Err(SimError::Internal {
                        context: "commit: store retired without an address",
                    });
                };
                let width = head.width;
                let inst = head.inst;
                let value = head.store_value.unwrap_or(0);
                let res = mem.store(self.id, addr, width.max(1), cycle, FillMode::Install)?;
                if self.policy.enforces_mte_at_commit()
                    && res.outcome == TagCheckOutcome::Unsafe
                    && !matches!(inst, Inst::Stg { .. } | Inst::St2g { .. })
                {
                    self.raise_fault(FaultKind::TagCheck, head.pc, Some(addr), cycle);
                    break;
                }
                match inst {
                    Inst::Stg { .. } => mem.store_tag(addr, addr.key()),
                    Inst::St2g { .. } => {
                        mem.store_tag(addr, addr.key());
                        mem.store_tag(addr.offset(16), addr.key());
                    }
                    _ => {
                        let w = match inst {
                            Inst::Str { width, .. } | Inst::StrIdx { width, .. } => width.bytes(),
                            _ => 8,
                        };
                        mem.write_arch(addr, w, value);
                    }
                }
                self.drain_slots.push(DrainSlot {
                    addr,
                    value,
                    data_valid: !matches!(inst, Inst::Stg { .. } | Inst::St2g { .. }),
                    done_at: cycle + res.latency,
                });
                self.stats.stores_committed += 1;
            }

            let Some(head) = self.rob.pop_front() else { break };
            // The head retires as the oldest entry of every seq list it
            // belongs to. (A committing uop is `Done`: its pending-list and
            // waiter-chain entries were already cleared at writeback.)
            if head.is_load() {
                let popped = self.load_seqs.pop_front();
                debug_assert_eq!(popped, Some(head.seq));
            }
            if head.is_store() {
                let popped = self.store_seqs.pop_front();
                debug_assert_eq!(popped, Some(head.seq));
            }
            if self.record_commits {
                if self.retired.len() < RETIRED_CAP {
                    self.retired.push(CommitRecord {
                        core: self.id,
                        cycle,
                        seq: head.seq,
                        pc: head.pc,
                        inst: head.inst,
                        result: head.result,
                        flags: head.flags_out,
                        addr: head.addr,
                        store_value: head.store_value,
                    });
                } else {
                    self.stats.retired_dropped += 1;
                }
            }
            // Cache maintenance applies architecturally at commit.
            if let Inst::Flush { base, offset } = head.inst {
                let b = if base.is_zero() { 0 } else { self.regs[base.index()] };
                mem.flush_line(VirtAddr::new(b).offset(offset));
            }
            if head.is_load() && !head.is_store() {
                self.stats.loads_committed += 1;
                if head.fill_mode_used == Some(FillMode::Ghost) {
                    if let Some(a) = head.addr {
                        mem.promote_ghost(self.id, a, cycle);
                    }
                }
                // MDU: successful speculation trains toward "speculate".
                if head.forwarded_from.is_none() {
                    let mi = self.mdu_index(head.pc);
                    self.mdu[mi] = self.mdu[mi].saturating_sub(1);
                }
            }

            // Architectural state update.
            if let Some(d) = head.inst.dest() {
                if let Some(v) = head.result {
                    self.regs[d.index()] = v;
                }
                if self.rename[d.index()] == Some(head.seq) {
                    self.rename[d.index()] = None;
                }
            }
            if let Some(f) = head.flags_out {
                self.flags = f;
                if self.flags_rename == Some(head.seq) {
                    self.flags_rename = None;
                }
            }

            match head.inst {
                Inst::BCond { .. } | Inst::Cbz { .. } | Inst::Cbnz { .. } => {
                    // `predicted_next` holds the resolved target after execute.
                    let taken = head.predicted_next != head.pc + 1;
                    self.pred.gshare.note_fetch(taken);
                }
                // The committed call stack backing SpecCFI's return check.
                Inst::Bl { .. } | Inst::Blr { .. } => self.shadow_stack.push(head.pc + 1),
                Inst::Ret => {
                    self.shadow_stack.pop();
                }
                _ => {}
            }
            if head.delay_cycles > 0 || head.cfi_stalled {
                self.stats.restricted_committed += 1;
            }
            if head.carried_taint {
                self.stats.tainted_committed += 1;
            }
            if let Some(t) = self.telemetry.as_mut() {
                t.timeline.on_commit(head.seq, cycle);
            }
            self.stats.committed += 1;
            self.last_commit_cycle = cycle;
            committed += 1;

            if matches!(head.inst, Inst::Halt) {
                self.finished = true;
                break;
            }
        }
        Ok(())
    }
}
