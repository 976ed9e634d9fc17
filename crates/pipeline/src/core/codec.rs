//! The core's snapshot codec.

use super::{
    Core, DrainSlot, FaultInfo, FaultKind, FetchEntry, InFlight, Tcs, UopState, WaiterNode,
    RETIRED_CAP,
};
use crate::arena::{Slab, SrcList, MAX_SRCS};
use crate::policy::DelayCause;
use sas_isa::{Flags, Inst, Program, Reg, VirtAddr};
use sas_mem::FillMode;
use sas_mte::TagCheckOutcome;
use sas_oracle::CommitRecord;
use std::cmp::Reverse;

fn enc_flags(e: &mut sas_snap::Enc, f: Flags) {
    e.bool(f.n);
    e.bool(f.z);
    e.bool(f.c);
    e.bool(f.v);
}

fn dec_flags(d: &mut sas_snap::Dec) -> Result<Flags, sas_snap::SnapError> {
    Ok(Flags { n: d.bool()?, z: d.bool()?, c: d.bool()?, v: d.bool()? })
}

fn enc_fault_info(e: &mut sas_snap::Enc, f: &FaultInfo) {
    e.u8(match f.kind {
        FaultKind::TagCheck => 0,
        FaultKind::Permission => 1,
    });
    e.usz(f.pc);
    e.opt_uv(f.addr.map(|a| a.raw()));
    e.uv(f.cycle);
}

fn dec_fault_info(d: &mut sas_snap::Dec) -> Result<FaultInfo, sas_snap::SnapError> {
    let kind = match d.u8()? {
        0 => FaultKind::TagCheck,
        1 => FaultKind::Permission,
        t => return Err(sas_snap::SnapError::BadValue { what: "fault kind", value: t as u64 }),
    };
    Ok(FaultInfo {
        kind,
        pc: d.usz()?,
        addr: d.opt_uv()?.map(VirtAddr::new),
        cycle: d.uv()?,
    })
}

fn enc_uop(e: &mut sas_snap::Enc, u: &InFlight) {
    e.uv(u.seq);
    e.usz(u.pc);
    e.usz(u.predicted_next);
    match u.state {
        UopState::Waiting => e.u8(0),
        UopState::Executing(done) => {
            e.u8(1);
            e.uv(done);
        }
        UopState::Done => e.u8(2),
        UopState::BlockedUnsafe => e.u8(3),
    }
    e.u8(u.src_seqs.len() as u8);
    for &(r, p) in &u.src_seqs {
        e.u8(r.index() as u8);
        e.opt_uv(p);
    }
    e.opt_uv(u.flags_src);
    e.opt_uv(u.result);
    e.opt_with(u.flags_out.as_ref(), |e, f| enc_flags(e, *f));
    e.opt_uv(u.addr.map(|a| a.raw()));
    e.uv(u.width);
    e.opt_uv(u.store_value);
    e.u8(match u.tcs {
        Tcs::Init => 0,
        Tcs::Wait => 1,
        Tcs::Safe => 2,
        Tcs::Unsafe => 3,
    });
    e.opt_uv(u.outcome.map(|o| o.index() as u64));
    e.bool(u.faulting);
    e.opt_uv(u.fill_mode_used.map(|m| match m {
        FillMode::Install => 0,
        FillMode::SuppressIfUnsafe => 1,
        FillMode::Ghost => 2,
    }));
    e.opt_uv(u.forwarded_from);
    e.bool(u.false_forward);
    e.bool(u.resolved);
    e.bool(u.mispredicted);
    e.opt_uv(u.taint_root);
    e.bool(u.carried_taint);
    e.uv(u.delay_cycles);
    e.bool(u.delay_recorded);
    e.bool(u.cfi_stalled);
    e.uv(u.ghr_snapshot);
}

fn dec_uop(d: &mut sas_snap::Dec, program: &Program) -> Result<InFlight, sas_snap::SnapError> {
    let bad = |what: &'static str, value: u64| sas_snap::SnapError::BadValue { what, value };
    let seq = d.uv()?;
    let pc = d.usz()?;
    let predicted_next = d.usz()?;
    let state = match d.u8()? {
        0 => UopState::Waiting,
        1 => UopState::Executing(d.uv()?),
        2 => UopState::Done,
        3 => UopState::BlockedUnsafe,
        t => return Err(bad("uop state", t as u64)),
    };
    let inst = program.fetch(pc).ok_or(bad("uop pc", pc as u64))?;
    let nsrc = d.u8()?;
    if nsrc as usize > MAX_SRCS {
        return Err(bad("uop sources", nsrc as u64));
    }
    let mut src_seqs = SrcList::new();
    for _ in 0..nsrc {
        let ri = d.u8()?;
        let reg = Reg::from_index(ri as usize).ok_or(bad("uop source reg", ri as u64))?;
        src_seqs.push(reg, d.opt_uv()?);
    }
    let flags_src = d.opt_uv()?;
    let result = d.opt_uv()?;
    let flags_out = d.opt_with(dec_flags)?;
    let addr = d.opt_uv()?.map(VirtAddr::new);
    let width = d.uv()?;
    let store_value = d.opt_uv()?;
    let tcs = match d.u8()? {
        0 => Tcs::Init,
        1 => Tcs::Wait,
        2 => Tcs::Safe,
        3 => Tcs::Unsafe,
        t => return Err(bad("uop tcs", t as u64)),
    };
    let outcome = match d.opt_uv()? {
        None => None,
        Some(v) => Some(
            u8::try_from(v)
                .ok()
                .and_then(TagCheckOutcome::from_index)
                .ok_or(bad("uop outcome", v))?,
        ),
    };
    let faulting = d.bool()?;
    let fill_mode_used = match d.opt_uv()? {
        None => None,
        Some(0) => Some(FillMode::Install),
        Some(1) => Some(FillMode::SuppressIfUnsafe),
        Some(2) => Some(FillMode::Ghost),
        Some(v) => return Err(bad("uop fill mode", v)),
    };
    Ok(InFlight {
        seq,
        pc,
        inst,
        predicted_next,
        state,
        src_seqs,
        flags_src,
        // Recomputed from the restored ROB by `rebuild_scheduler_state`.
        unready: 0,
        waiter_head: None,
        result,
        flags_out,
        addr,
        width,
        store_value,
        tcs,
        outcome,
        faulting,
        fill_mode_used,
        forwarded_from: d.opt_uv()?,
        false_forward: d.bool()?,
        resolved: d.bool()?,
        mispredicted: d.bool()?,
        taint_root: d.opt_uv()?,
        carried_taint: d.bool()?,
        delay_cycles: d.uv()?,
        delay_recorded: d.bool()?,
        cfi_stalled: d.bool()?,
        ghr_snapshot: d.uv()?,
    })
}

fn enc_commit_record(e: &mut sas_snap::Enc, r: &CommitRecord) {
    e.usz(r.core);
    e.uv(r.cycle);
    e.uv(r.seq);
    e.usz(r.pc);
    e.opt_uv(r.result);
    e.opt_with(r.flags.as_ref(), |e, f| enc_flags(e, *f));
    e.opt_uv(r.addr.map(|a| a.raw()));
    e.opt_uv(r.store_value);
}

fn dec_commit_record(
    d: &mut sas_snap::Dec,
    program: &Program,
) -> Result<CommitRecord, sas_snap::SnapError> {
    let core = d.usz()?;
    let cycle = d.uv()?;
    let seq = d.uv()?;
    let pc = d.usz()?;
    let inst = program
        .fetch(pc)
        .ok_or(sas_snap::SnapError::BadValue { what: "retired pc", value: pc as u64 })?;
    Ok(CommitRecord {
        core,
        cycle,
        seq,
        pc,
        inst,
        result: d.opt_uv()?,
        flags: d.opt_with(dec_flags)?,
        addr: d.opt_uv()?.map(VirtAddr::new),
        store_value: d.opt_uv()?,
    })
}

impl Core {
    /// Serializes the complete mutable core state: architectural registers,
    /// fetch/rename/ROB/LSQ contents, predictors, trace and fault cursors,
    /// statistics and the IRG RNG. Policies are stateless, so nothing of
    /// the policy is written: the image restores under any policy.
    ///
    /// Instructions are *not* serialized — every in-flight entry is rebuilt
    /// from the (identical) program at restore. Scheduler indices (ready
    /// list, completion heap, waiter chains, pending lists) are likewise
    /// rebuilt from the restored ROB, whose entries carry the canonical
    /// state they are derived from.
    pub(crate) fn encode(&self, e: &mut sas_snap::Enc) {
        for &r in &self.regs {
            e.uv(r);
        }
        enc_flags(e, self.flags);
        e.opt_uv(self.fetch_pc.map(|p| p as u64));
        e.uv(self.fetch_resume_at);
        e.usz(self.fetch_queue.len());
        for f in &self.fetch_queue {
            e.usz(f.pc);
            e.usz(f.predicted_next);
            e.uv(f.available_at);
            e.bool(f.cfi_stalled);
            e.uv(f.ghr_snapshot);
        }
        e.seq(&self.shadow_stack, |e, a| e.usz(*a));
        e.opt_uv(self.fetch_stalled_on);
        e.uv(self.next_seq);
        e.usz(self.rob.len());
        for u in &self.rob {
            enc_uop(e, u);
        }
        for r in &self.rename {
            e.opt_uv(*r);
        }
        e.opt_uv(self.flags_rename);
        e.seq(&self.mdu, |e, m| e.u8(*m));
        e.uv(self.div_busy_until);
        e.opt_uv(self.active_barrier);
        e.usz(self.drain_slots.len());
        for s in &self.drain_slots {
            e.uv(s.addr.raw());
            e.uv(s.value);
            e.bool(s.data_valid);
            e.uv(s.done_at);
        }
        self.trace.encode(e);
        e.opt_with(self.faults.as_ref(), |e, f| {
            f.mispredict.encode(e);
            f.storm.encode(e);
            e.uv(f.storm_left as u64);
        });
        e.bool(self.record_commits);
        e.usz(self.retired.len());
        for r in &self.retired {
            enc_commit_record(e, r);
        }
        e.bool(self.finished);
        e.opt_with(self.fault.as_ref(), |e, f| enc_fault_info(e, f));
        e.opt_with(self.pending_fault.as_ref(), |e, (f, halt_at)| {
            enc_fault_info(e, f);
            e.uv(*halt_at);
        });
        e.uv(self.last_commit_cycle);
        e.opt_uv(self.cycle_delay.map(|c| c.index() as u64));
        e.uv(self.recover_until);
        e.bool(self.telemetry.is_some());
        if let Some(t) = self.telemetry.as_deref() {
            t.timeline.encode(e);
            t.load_latency.encode(e);
            t.spec_window_depth.encode(e);
            t.squash_size.encode(e);
            for h in &t.delay_per_cause {
                h.encode(e);
            }
        }
        self.stats.encode(e);
        self.pred.encode(e);
        self.irg.encode(e);
    }

    /// Restores state serialized by [`Core::encode`] into a core built from
    /// the same configuration and program.
    ///
    /// # Errors
    ///
    /// Truncated or malformed input, a structural mismatch against this
    /// core's configuration, or a fault-arming / telemetry-arming mismatch
    /// (the snapshot and the restore target must agree on whether fault
    /// injection and deep telemetry are enabled).
    pub(crate) fn restore(&mut self, d: &mut sas_snap::Dec) -> Result<(), sas_snap::SnapError> {
        let bad = |what: &'static str, value: u64| sas_snap::SnapError::BadValue { what, value };
        for r in self.regs.iter_mut() {
            *r = d.uv()?;
        }
        self.flags = dec_flags(d)?;
        self.fetch_pc = d.opt_uv()?.map(|v| v as usize);
        self.fetch_resume_at = d.uv()?;
        let nfq = d.usz_max(self.cfg.fetch_width * 2)?;
        self.fetch_queue.clear();
        for _ in 0..nfq {
            let pc = d.usz()?;
            let inst = self.program.fetch(pc).ok_or(bad("fetch pc", pc as u64))?;
            self.fetch_queue.push_back(FetchEntry {
                pc,
                inst,
                predicted_next: d.usz()?,
                available_at: d.uv()?,
                cfi_stalled: d.bool()?,
                ghr_snapshot: d.uv()?,
            });
        }
        self.shadow_stack = d.seq(1 << 20, |d| d.usz())?;
        self.fetch_stalled_on = d.opt_uv()?;
        self.next_seq = d.uv()?;
        let nrob = d.usz_max(self.cfg.rob_entries)?;
        self.rob.clear();
        for _ in 0..nrob {
            let u = dec_uop(d, &self.program)?;
            // The ROB must stay strictly ascending by seq — `rob_index`'s
            // binary search (and every pending list) depends on it.
            if self.rob.back().is_some_and(|prev| prev.seq >= u.seq) {
                return Err(bad("rob order", u.seq));
            }
            self.rob.push_back(u);
        }
        for slot in self.rename.iter_mut() {
            *slot = d.opt_uv()?;
        }
        self.flags_rename = d.opt_uv()?;
        let mdu = d.seq(self.mdu.len(), |d| {
            let v = d.u8()?;
            if v > 3 {
                return Err(sas_snap::SnapError::BadValue { what: "mdu counter", value: v as u64 });
            }
            Ok(v)
        })?;
        if mdu.len() != self.mdu.len() {
            return Err(bad("mdu size", mdu.len() as u64));
        }
        self.mdu = mdu;
        self.div_busy_until = d.uv()?;
        self.active_barrier = d.opt_uv()?;
        let nds = d.usz_max(1 << 16)?;
        self.drain_slots.clear();
        for _ in 0..nds {
            self.drain_slots.push(DrainSlot {
                addr: VirtAddr::new(d.uv()?),
                value: d.uv()?,
                data_valid: d.bool()?,
                done_at: d.uv()?,
            });
        }
        self.trace.restore(d)?;
        let have_faults = d.bool()?;
        if have_faults != self.faults.is_some() {
            return Err(bad("fault arming mismatch", have_faults as u64));
        }
        if let Some(f) = self.faults.as_mut() {
            f.mispredict.restore(d)?;
            f.storm.restore(d)?;
            let left = d.uv()?;
            f.storm_left = u32::try_from(left).map_err(|_| bad("storm counter", left))?;
        }
        self.record_commits = d.bool()?;
        let nret = d.usz_max(RETIRED_CAP)?;
        self.retired.clear();
        for _ in 0..nret {
            let r = dec_commit_record(d, &self.program)?;
            self.retired.push(r);
        }
        self.finished = d.bool()?;
        self.fault = d.opt_with(dec_fault_info)?;
        self.pending_fault = d.opt_with(|d| {
            let f = dec_fault_info(d)?;
            let halt_at = d.uv()?;
            Ok((f, halt_at))
        })?;
        self.last_commit_cycle = d.uv()?;
        self.cycle_delay = match d.opt_uv()? {
            None => None,
            Some(i) => {
                Some(*DelayCause::ALL.get(i as usize).ok_or(bad("delay cause", i))?)
            }
        };
        self.recover_until = d.uv()?;
        let have_telemetry = d.bool()?;
        if have_telemetry != self.telemetry.is_some() {
            return Err(bad("telemetry arming mismatch", have_telemetry as u64));
        }
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.timeline.restore(d)?;
            t.load_latency.restore(d)?;
            t.spec_window_depth.restore(d)?;
            t.squash_size.restore(d)?;
            for h in t.delay_per_cause.iter_mut() {
                h.restore(d)?;
            }
        }
        self.stats.restore(d)?;
        self.pred.restore(d)?;
        self.irg.restore(d)?;
        self.rebuild_scheduler_state();
        Ok(())
    }

    /// Rebuilds every scheduler index from the restored ROB. The ROB entries
    /// carry the canonical state; the indices are pure derivations:
    ///
    /// - `ready` / `waiting_count`: `Waiting` uops (ready once no renamed
    ///   producer is still incomplete);
    /// - `completion`: one entry per `Executing` uop at its due cycle (stale
    ///   heap entries an uninterrupted run may carry are filtered at use, so
    ///   dropping them is behavior-preserving);
    /// - waiter chains: each `Waiting` uop re-registers on its incomplete
    ///   in-ROB producers, recomputing `unready` — at any cycle boundary
    ///   `unready` equals exactly that producer count;
    /// - pending lists: membership predicates matching dispatch-insert /
    ///   completion-remove bookkeeping (`unresolved_branches`, `pending_mem`,
    ///   `pending_barriers` hold non-`Done` entries; `unknown_stores` holds
    ///   stores with unresolved addresses; `load_seqs` / `store_seqs` hold
    ///   every in-ROB load / store).
    fn rebuild_scheduler_state(&mut self) {
        self.completion.clear();
        self.ready.clear();
        self.unresolved_branches.clear();
        self.unknown_stores.clear();
        self.pending_mem.clear();
        self.pending_barriers.clear();
        self.load_seqs.clear();
        self.store_seqs.clear();
        self.waiters = Slab::new();
        self.waiting_count = 0;
        self.scratch_due.clear();
        self.scratch_candidates.clear();
        for u in &self.rob {
            match u.state {
                UopState::Waiting => self.waiting_count += 1,
                UopState::Executing(done) => self.completion.push(Reverse((done, u.seq))),
                UopState::Done | UopState::BlockedUnsafe => {}
            }
            if !u.done() {
                if u.is_branch() {
                    self.unresolved_branches.push(u.seq);
                }
                if u.is_mem() {
                    self.pending_mem.push(u.seq);
                }
                if matches!(u.inst, Inst::SpecBarrier) {
                    self.pending_barriers.push(u.seq);
                }
            }
            if u.is_load() {
                self.load_seqs.push_back(u.seq);
            }
            if u.is_store() {
                self.store_seqs.push_back(u.seq);
                if u.addr.is_none() {
                    self.unknown_stores.push(u.seq);
                }
            }
        }
        for i in 0..self.rob.len() {
            if !matches!(self.rob[i].state, UopState::Waiting) {
                continue;
            }
            let seq = self.rob[i].seq;
            // Producers per renamed-source *entry* (duplicates included), as
            // dispatch registered them.
            let producers: Vec<u64> = self.rob[i]
                .src_seqs
                .iter()
                .filter_map(|&(_, p)| p)
                .chain(self.rob[i].flags_src)
                .collect();
            let mut unready: u8 = 0;
            for pseq in producers {
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
            self.rob[i].unready = unready;
            if unready == 0 {
                self.ready.push(seq);
            }
        }
    }
}

