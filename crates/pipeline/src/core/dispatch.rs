//! Dispatch / rename: moves fetched instructions into the ROB, captures
//! dataflow and maintains the scheduler indices.

use super::{Core, InFlight, Tcs, UopState, WaiterNode};
use crate::arena::SrcList;
use crate::policy::DelayCause;
use crate::trace::TraceEvent;
use sas_isa::Inst;

impl Core {
    pub(super) fn lq_occupancy(&self) -> usize {
        self.load_seqs.len()
    }

    pub(super) fn sq_occupancy(&self, cycle: u64) -> usize {
        self.store_seqs.len() + self.drain_slots.iter().filter(|d| d.done_at > cycle).count()
    }

    pub(super) fn iq_occupancy(&self) -> usize {
        self.waiting_count
    }

    pub(super) fn dispatch(&mut self, cycle: u64) {
        for _ in 0..self.cfg.dispatch_width {
            let Some(front) = self.fetch_queue.front() else { break };
            if front.available_at > cycle {
                break;
            }
            if self.rob.len() >= self.cfg.rob_entries
                || self.iq_occupancy() >= self.cfg.iq_entries
            {
                break;
            }
            let inst = front.inst;
            if inst.is_load() && self.lq_occupancy() >= self.cfg.lq_entries {
                break;
            }
            if inst.is_store() && self.sq_occupancy(cycle) >= self.cfg.sq_entries {
                break;
            }
            let Some(fe) = self.fetch_queue.pop_front() else { break };
            let seq = self.next_seq;
            self.next_seq += 1;

            let mut src_seqs = SrcList::new();
            {
                let rename = &self.rename;
                fe.inst.for_each_use(|r| src_seqs.push(r, rename[r.index()]));
            }
            let flags_src = if fe.inst.reads_flags() { self.flags_rename } else { None };

            let width = match fe.inst {
                Inst::Ldr { width, .. }
                | Inst::LdrIdx { width, .. }
                | Inst::Str { width, .. }
                | Inst::StrIdx { width, .. } => width.bytes(),
                Inst::Amo { .. } => 8,
                Inst::Stg { .. } | Inst::St2g { .. } | Inst::Ldg { .. } => 16,
                _ => 0,
            };

            // Hook this uop onto the waiter chain of each incomplete
            // producer; with none outstanding it is ready immediately.
            let mut unready: u8 = 0;
            for &(_, p) in &src_seqs {
                if let Some(pseq) = p {
                    if let Some(pi) = self.rob_index(pseq) {
                        if !self.rob[pi].done() {
                            unready += 1;
                            let node = self
                                .waiters
                                .insert(WaiterNode { consumer: seq, next: self.rob[pi].waiter_head });
                            self.rob[pi].waiter_head = Some(node);
                        }
                    }
                }
            }
            if let Some(fseq) = flags_src {
                if let Some(pi) = self.rob_index(fseq) {
                    if !self.rob[pi].done() {
                        unready += 1;
                        let node = self
                            .waiters
                            .insert(WaiterNode { consumer: seq, next: self.rob[pi].waiter_head });
                        self.rob[pi].waiter_head = Some(node);
                    }
                }
            }

            let u = InFlight {
                seq,
                pc: fe.pc,
                inst: fe.inst,
                predicted_next: fe.predicted_next,
                state: UopState::Waiting,
                src_seqs,
                flags_src,
                unready,
                waiter_head: None,
                result: None,
                flags_out: None,
                addr: None,
                width,
                store_value: None,
                tcs: Tcs::Init,
                outcome: None,
                faulting: false,
                fill_mode_used: None,
                forwarded_from: None,
                false_forward: false,
                resolved: !fe.inst.is_branch(),
                mispredicted: false,
                taint_root: None,
                carried_taint: false,
                delay_cycles: 0,
                delay_recorded: false,
                cfi_stalled: fe.cfi_stalled,
                ghr_snapshot: fe.ghr_snapshot,
            };

            if let Some(d) = fe.inst.dest() {
                self.rename[d.index()] = Some(seq);
            }
            if fe.inst.writes_flags() {
                self.flags_rename = Some(seq);
            }
            if fe.cfi_stalled {
                // The whole front end is stalled on this branch; account it
                // like any other mitigation delay (one event per instruction,
                // the cycle itself attributed by `attribute_cycle`).
                self.stats.delay_events.add(DelayCause::CfiIndirectStall, 1);
                if self.cycle_delay.is_none() {
                    self.cycle_delay = Some(DelayCause::CfiIndirectStall);
                }
            }
            if self.trace.enabled() {
                let speculative = self.has_older_unresolved_branch(seq);
                self.trace.emit(TraceEvent::Dispatch { cycle, seq, pc: u.pc, speculative });
            }
            if let Some(t) = self.telemetry.as_mut() {
                let fetch_cycle = fe.available_at.saturating_sub(self.cfg.front_end_delay);
                t.timeline.on_dispatch(
                    seq,
                    u.pc as u64,
                    u.inst.to_string(),
                    Some(fetch_cycle),
                    cycle,
                );
            }
            // Scheduler indices: dispatch appends in ascending seq order.
            if unready == 0 {
                self.ready.push(seq);
            }
            self.waiting_count += 1;
            if u.is_branch() {
                self.unresolved_branches.push(seq);
            }
            if u.is_store() {
                self.unknown_stores.push(seq);
                self.store_seqs.push_back(seq);
            }
            if u.is_load() {
                self.load_seqs.push_back(seq);
            }
            if u.is_mem() {
                self.pending_mem.push(seq);
            }
            if matches!(u.inst, Inst::SpecBarrier) {
                self.pending_barriers.push(seq);
            }
            self.rob.push_back(u);
        }
    }
}
