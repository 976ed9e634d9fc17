//! Issue / execute: operand reads, STT taint, the per-cycle issue loop
//! and the ALU, branch, store-data and atomic execution units.

use super::lsq::LoadPlan;
use super::{sorted_remove, Core, InFlight, Tcs, UopState};
use crate::policy::DelayCause;
use sas_isa::{AluOp, AmoOp, Flags, Inst, Operand, Reg, VirtAddr};
use sas_mem::{FillMode, MemSystem, SimError};
use std::cmp::Reverse;

/// Issue ports taken so far in one cycle's issue loop.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct PortUse {
    alu: usize,
    load: usize,
    store: usize,
}

/// What one issue attempt of a `Waiting` uop would do
/// ([`Core::classify_issue`]).
#[derive(Debug, Clone, Copy)]
pub(super) enum Attempt {
    /// Nothing happens: barred behind a barrier, operands missing, a fence
    /// draining, an atomic off the head, a port taken, the divider busy.
    Idle,
    /// The attempt only charges a one-cycle mitigation delay. `latch` is a
    /// load address generated on the way, which the attempt records.
    Retry { cause: DelayCause, latch: Option<VirtAddr> },
    /// A speculation barrier issues.
    Barrier,
    /// A memory fence issues.
    Fence,
    /// An atomic executes at the head.
    Amo,
    /// A load passed the MDU and the mitigation; it forwards or accesses
    /// memory.
    Load(LoadPlan),
    /// A store resolves its address (`resolve`, when not yet known) and
    /// executes its data half.
    Store { resolve: Option<VirtAddr> },
    /// A branch executes.
    Branch,
    /// An ALU / MTE register op executes, on the divider when `div`.
    Alu { div: bool },
}

impl Attempt {
    fn retry(cause: DelayCause) -> Attempt {
        Attempt::Retry { cause, latch: None }
    }
}

impl Core {
    fn reg_value(&self, reg: Reg, producer: Option<u64>) -> Option<u64> {
        if reg.is_zero() {
            return Some(0);
        }
        match producer {
            None => Some(self.regs[reg.index()]),
            Some(seq) => match self.find(seq) {
                None => Some(self.regs[reg.index()]), // producer committed
                Some(p) if p.done() => p.result,
                Some(_) => None,
            },
        }
    }

    fn flags_value(&self, producer: Option<u64>) -> Option<Flags> {
        match producer {
            None => Some(self.flags),
            Some(seq) => match self.find(seq) {
                None => Some(self.flags),
                Some(p) if p.done() => p.flags_out,
                Some(_) => None,
            },
        }
    }

    pub(super) fn sources_ready(&self, u: &InFlight) -> bool {
        u.src_seqs.iter().all(|&(r, p)| self.reg_value(r, p).is_some())
            && (u.flags_src.is_none() || self.flags_value(u.flags_src).is_some())
    }

    /// The producer captured at rename for architectural register `reg`
    /// (None when the value comes from the committed register file).
    fn producer_of(u: &InFlight, reg: Reg) -> Option<u64> {
        u.src_seqs.iter().find(|&&(r, _)| r == reg).and_then(|&(_, p)| p)
    }

    /// The current value of source `reg` of `u`, if ready.
    pub(super) fn src_value(&self, u: &InFlight, reg: Reg) -> Option<u64> {
        if reg.is_zero() {
            return Some(0);
        }
        self.reg_value(reg, Self::producer_of(u, reg))
    }

    /// A source the scheduler promised was ready; a miss is a broken
    /// invariant reported as a [`SimError`] instead of a panic.
    fn need_src(&self, u: &InFlight, reg: Reg, site: &'static str) -> Result<u64, SimError> {
        self.src_value(u, reg).ok_or(SimError::Internal { context: site })
    }

    fn need_operand(
        &self,
        u: &InFlight,
        o: Operand,
        site: &'static str,
    ) -> Result<u64, SimError> {
        match o {
            Operand::Imm(v) => Ok(v),
            Operand::Reg(r) => self.need_src(u, r, site),
        }
    }

    /// Bookkeeping for a uop leaving `Waiting`: it stops counting against
    /// the issue queue and leaves the ready list.
    pub(super) fn note_issued(&mut self, seq: u64) {
        self.waiting_count -= 1;
        sorted_remove(&mut self.ready, seq);
    }

    /// STT taint: a value is tainted while its root load is still
    /// speculative.
    pub(super) fn root_tainted(&self, root: Option<u64>) -> bool {
        match root {
            None => false,
            Some(r) => match self.find(r) {
                None => false,
                Some(u) => {
                    self.has_older_unresolved_branch(u.seq)
                        || self.has_older_unknown_store(u.seq)
                }
            },
        }
    }

    pub(super) fn operand_taint_root(&self, u: &InFlight) -> Option<u64> {
        // Youngest live taint root among the sources.
        let mut best: Option<u64> = None;
        for &(_, p) in &u.src_seqs {
            if let Some(seq) = p {
                if let Some(prod) = self.find(seq) {
                    if let Some(r) = prod.taint_root {
                        if self.root_tainted(Some(r)) {
                            best = Some(best.map_or(r, |b: u64| b.max(r)));
                        }
                    }
                }
            }
        }
        best
    }

    /// What an issue attempt of the uop at `idx` would do at `cycle`, with
    /// `ports` already taken this cycle: the pure prefix of the issue
    /// decision. [`Core::issue`] acts on it and [`Core::quiescent_wake`]
    /// asks it whether a cycle would only re-charge delays, so the two
    /// cannot drift apart.
    pub(super) fn classify_issue(&self, idx: usize, cycle: u64, ports: PortUse) -> Attempt {
        let u = &self.rob[idx];
        let seq = u.seq;
        if !matches!(u.state, UopState::Waiting) {
            return Attempt::Idle;
        }
        // Any speculation barrier that has not completed (issued or not)
        // blocks every younger instruction.
        if self.pending_barriers.first().copied().or(self.active_barrier).is_some_and(|b| seq > b) {
            return Attempt::Idle;
        }
        if !self.sources_ready(u) {
            return Attempt::Idle;
        }
        let spec_branch = self.has_older_unresolved_branch(seq);
        // Fence-style serialization: nothing executes speculatively.
        if spec_branch && self.policy.blocks_full_speculation() {
            return Attempt::retry(DelayCause::BarrierSpecLoad);
        }
        match u.inst {
            Inst::SpecBarrier if spec_branch => Attempt::retry(DelayCause::ExplicitBarrier),
            Inst::SpecBarrier => Attempt::Barrier,
            Inst::Fence => {
                let older_mem_pending = self.pending_mem.first().is_some_and(|&m| m < seq);
                if older_mem_pending || spec_branch {
                    Attempt::Idle
                } else {
                    Attempt::Fence
                }
            }
            // Atomics execute only at the ROB head, fully non-speculative.
            Inst::Amo { .. } if idx == 0 && ports.load < self.cfg.load_ports => Attempt::Amo,
            Inst::Amo { .. } => Attempt::Idle,
            _ if u.is_load() => {
                if ports.load >= self.cfg.load_ports {
                    return Attempt::Idle;
                }
                self.classify_load(u, spec_branch)
            }
            _ if u.is_store() => {
                if ports.store >= self.cfg.store_ports {
                    return Attempt::Idle;
                }
                match u.addr {
                    Some(_) => Attempt::Store { resolve: None },
                    None => match self.compute_address(u) {
                        Some(a) => Attempt::Store { resolve: Some(a) },
                        None => Attempt::Idle,
                    },
                }
            }
            _ if u.is_branch() => {
                if ports.alu >= self.cfg.alu_ports {
                    return Attempt::Idle;
                }
                // STT implicit channel: tainted branch operands delay.
                if self.policy.taints_speculative_loads()
                    && self.root_tainted(self.operand_taint_root(u))
                {
                    return Attempt::retry(DelayCause::TaintedBranch);
                }
                Attempt::Branch
            }
            // Non-pipelined divider (SpectreRewind target): no ALU port.
            Inst::Alu { op: AluOp::UDiv | AluOp::SDiv, .. } => {
                if self.div_busy_until > cycle {
                    Attempt::Idle
                } else {
                    Attempt::Alu { div: true }
                }
            }
            // plain ALU / MTE register ops
            _ if ports.alu >= self.cfg.alu_ports => Attempt::Idle,
            _ => Attempt::Alu { div: false },
        }
    }

    pub(super) fn issue(&mut self, cycle: u64, mem: &mut MemSystem) -> Result<(), SimError> {
        let mut issued = 0;
        let mut ports = PortUse::default();

        // Snapshot the ready list (ascending seq = ROB order). Source
        // readiness is frozen across the issue loop — nothing transitions to
        // `Done` here — so entries becoming ready mid-loop cannot occur, and
        // non-ready entries fail `sources_ready` below exactly as the old
        // every-`Waiting`-uop scan silently skipped them.
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        candidates.clear();
        candidates.extend_from_slice(&self.ready);

        for seq in candidates.drain(..) {
            if issued >= self.cfg.issue_width {
                break;
            }
            // A squash earlier in this loop (order violation) may have
            // removed the candidate; re-resolve it by sequence number.
            let Some(idx) = self.rob_index(seq) else {
                continue;
            };
            match self.classify_issue(idx, cycle, ports) {
                Attempt::Idle => continue,
                Attempt::Retry { cause, latch } => {
                    self.charge_retries(idx, cause, latch, 1);
                    self.cycle_delay.get_or_insert(cause);
                    continue;
                }
                Attempt::Barrier => {
                    self.rob[idx].state = UopState::Executing(cycle + 1);
                    self.note_issued(seq);
                    self.completion.push(Reverse((cycle + 1, seq)));
                    self.active_barrier = Some(seq);
                    issued += 1;
                }
                Attempt::Fence => {
                    self.rob[idx].state = UopState::Executing(cycle + 1);
                    self.note_issued(seq);
                    self.completion.push(Reverse((cycle + 1, seq)));
                    issued += 1;
                }
                Attempt::Amo => {
                    self.execute_amo(idx, cycle, mem)?;
                    ports.load += 1;
                    issued += 1;
                }
                Attempt::Load(plan) => {
                    if self.issue_load(idx, cycle, mem, plan)? {
                        ports.load += 1;
                        issued += 1;
                    }
                }
                Attempt::Store { resolve } => {
                    // Store-address and store-data resolve independently
                    // (split micro-ops): the address unblocks the memory
                    // dependence of younger loads as early as possible.
                    if let Some(addr) = resolve {
                        self.resolve_store_address(idx, addr, cycle);
                        ports.store += 1;
                    }
                    self.execute_store_data(idx, cycle);
                    issued += 1;
                }
                Attempt::Branch => {
                    self.execute_branch(idx, cycle)?;
                    ports.alu += 1;
                    issued += 1;
                }
                Attempt::Alu { div } => {
                    self.execute_alu(idx, cycle, mem)?;
                    if div {
                        // Occupy the non-pipelined divider until the result
                        // is ready (data-dependent latency set above).
                        if let UopState::Executing(done) = self.rob[idx].state {
                            self.div_busy_until = done;
                        }
                    } else {
                        ports.alu += 1;
                    }
                    issued += 1;
                }
            }
            // Timeline: the uop issued iff it left `Waiting` this iteration
            // (re-resolve by seq — an order-violation squash above may have
            // rebuilt the ROB).
            if self.telemetry.is_some() {
                let left_waiting =
                    self.find(seq).is_some_and(|u| !matches!(u.state, UopState::Waiting));
                if left_waiting {
                    if let Some(t) = self.telemetry.as_mut() {
                        t.timeline.on_issue(seq, cycle);
                    }
                }
            }
        }
        self.scratch_candidates = candidates;
        Ok(())
    }

    /// Charges a mitigation delay against the instruction at `idx`.
    ///
    /// Per-instruction accounting (`u.delay_cycles`, the Figure 8 restricted
    /// classification, one `delay_events` tick per instruction) happens in
    /// [`Core::note_delay`]; per-*cycle* accounting happens in
    /// [`Core::attribute_cycle`], which charges `stats.delay_cycles` exactly
    /// one cycle for the first cause recorded in `cycle_delay` — keeping the
    /// stall table equal to the CPI stack's mitigation bucket by
    /// construction.
    pub(super) fn charge_delay(&mut self, idx: usize, cause: DelayCause, cycles: u64) {
        self.note_delay(idx, cause, cycles);
        if self.cycle_delay.is_none() {
            self.cycle_delay = Some(cause);
        }
        if let Some(t) = self.telemetry.as_mut() {
            t.delay_per_cause[cause.index()].observe(cycles);
        }
    }

    /// Charges `n` back-to-back one-cycle retries of the held uop at `idx`
    /// — one per tick from [`Core::issue`], a skipped window's worth from
    /// [`Core::skip_quiescent`] — after latching the load address its
    /// attempt generated. The per-cycle attribution is the caller's.
    pub(super) fn charge_retries(
        &mut self,
        idx: usize,
        cause: DelayCause,
        latch: Option<VirtAddr>,
        n: u64,
    ) {
        if latch.is_some() {
            self.rob[idx].addr = latch;
        }
        self.note_delay(idx, cause, n);
        if let Some(t) = self.telemetry.as_mut() {
            t.delay_per_cause[cause.index()].observe_n(1, n);
        }
    }

    /// The per-instruction half of a delay charge: `cycles` more on the
    /// uop's delay total, and its one `delay_events` tick the first time.
    fn note_delay(&mut self, idx: usize, cause: DelayCause, cycles: u64) {
        let u = &mut self.rob[idx];
        u.delay_cycles += cycles;
        if !u.delay_recorded {
            u.delay_recorded = true;
            self.stats.delay_events.add(cause, 1);
        }
    }

    fn execute_alu(&mut self, idx: usize, cycle: u64, mem: &MemSystem) -> Result<(), SimError> {
        const SITE: &str = "execute_alu: source not ready";
        // Draw the IRG tag up front: the value reads below borrow `self`.
        let next_irg_tag = if matches!(self.rob[idx].inst, Inst::Irg { .. }) {
            Some(self.irg.next_tag(1))
        } else {
            None
        };
        let u = &self.rob[idx];
        let (result, flags_out, latency) = match u.inst {
            Inst::Alu { op, lhs, rhs, .. } => {
                let l = self.need_src(u, lhs, SITE)?;
                let r = self.need_operand(u, rhs, SITE)?;
                let lat = match op {
                    AluOp::Mul => self.cfg.mul_latency,
                    AluOp::UDiv | AluOp::SDiv => {
                        // Divide latency depends on dividend magnitude (as on
                        // real AArch64 early-terminating dividers) — the
                        // variable-latency contention channel SCC attacks use.
                        self.cfg.div_latency + (63 - (l | 1).leading_zeros() as u64) / 2
                    }
                    _ => self.cfg.alu_latency,
                };
                (Some(op.eval(l, r)), None, lat)
            }
            Inst::MovZ { imm, shift, .. } => {
                (Some((imm as u64) << (16 * shift)), None, self.cfg.alu_latency)
            }
            Inst::MovK { dst, imm, shift } => {
                let old = self.need_src(u, dst, SITE)?;
                let m = 0xFFFFu64 << (16 * shift);
                (Some((old & !m) | ((imm as u64) << (16 * shift))), None, self.cfg.alu_latency)
            }
            Inst::Cmp { lhs, rhs } => {
                let l = self.need_src(u, lhs, SITE)?;
                let r = self.need_operand(u, rhs, SITE)?;
                (None, Some(Flags::from_cmp(l, r)), self.cfg.alu_latency)
            }
            Inst::Irg { src, .. } => {
                let s = self.need_src(u, src, SITE)?;
                let t = next_irg_tag
                    .ok_or(SimError::Internal { context: "execute_alu: IRG tag not drawn" })?;
                (Some(VirtAddr::new(s).with_key(t).raw()), None, self.cfg.alu_latency)
            }
            Inst::Addg { src, offset, tag_offset, .. } => {
                let a = VirtAddr::new(self.need_src(u, src, SITE)?);
                let nk = a.key().wrapping_add(tag_offset);
                (Some(a.offset(offset as i64).with_key(nk).raw()), None, self.cfg.alu_latency)
            }
            Inst::Subg { src, offset, tag_offset, .. } => {
                let a = VirtAddr::new(self.need_src(u, src, SITE)?);
                let nk = a.key().wrapping_sub(tag_offset);
                (Some(a.offset(-(offset as i64)).with_key(nk).raw()), None, self.cfg.alu_latency)
            }
            Inst::Bti { .. } | Inst::Nop | Inst::Halt | Inst::Flush { .. } => {
                (None, None, self.cfg.alu_latency)
            }
            Inst::Ldg { base, .. } => {
                let a = VirtAddr::new(self.need_src(u, base, SITE)?);
                let t = mem.load_tag(a);
                (Some(a.with_key(t).raw()), None, self.cfg.alu_latency + 1)
            }
            _ => return Err(SimError::Internal { context: "execute_alu: non-ALU uop issued" }),
        };
        let taint_root = self.operand_taint_root(&self.rob[idx]);
        let carried = self.root_tainted(taint_root);
        let u = &mut self.rob[idx];
        u.result = result;
        u.flags_out = flags_out;
        u.taint_root = taint_root;
        u.carried_taint |= carried;
        u.state = UopState::Executing(cycle + latency);
        let seq = u.seq;
        self.note_issued(seq);
        self.completion.push(Reverse((cycle + latency, seq)));
        Ok(())
    }

    fn execute_branch(&mut self, idx: usize, cycle: u64) -> Result<(), SimError> {
        const SITE: &str = "execute_branch: source not ready";
        let u = &self.rob[idx];
        let pc = u.pc;
        let (actual, link): (usize, bool) = match u.inst {
            Inst::B { target } => (target, false),
            Inst::Bl { target } => (target, true),
            Inst::BCond { cond, target } => {
                let f = self
                    .flags_value(u.flags_src)
                    .ok_or(SimError::Internal { context: "execute_branch: flags not ready" })?;
                (if cond.holds(f) { target } else { pc + 1 }, false)
            }
            Inst::Cbz { target, reg } => {
                (if self.need_src(u, reg, SITE)? == 0 { target } else { pc + 1 }, false)
            }
            Inst::Cbnz { target, reg } => {
                (if self.need_src(u, reg, SITE)? != 0 { target } else { pc + 1 }, false)
            }
            Inst::Br { reg } => (self.need_src(u, reg, SITE)? as usize, false),
            Inst::Blr { reg } => (self.need_src(u, reg, SITE)? as usize, true),
            Inst::Ret => (self.need_src(u, Reg::LR, SITE)? as usize, false),
            _ => {
                return Err(SimError::Internal { context: "execute_branch: non-branch uop issued" })
            }
        };

        // Train predictors with the fetch-time history snapshot.
        let snapshot = self.rob[idx].ghr_snapshot;
        match self.rob[idx].inst {
            Inst::BCond { .. } | Inst::Cbz { .. } | Inst::Cbnz { .. } => {
                self.pred.stats.cond_predictions += 1;
                let taken = actual != pc + 1;
                self.pred.gshare.train_at(pc, snapshot, taken);
            }
            Inst::Br { .. } | Inst::Blr { .. } => {
                self.pred.stats.indirect_predictions += 1;
                self.pred.btb.train(pc, snapshot, actual);
            }
            Inst::Ret => {
                self.pred.stats.return_predictions += 1;
            }
            _ => {}
        }

        let taint_root = self.operand_taint_root(&self.rob[idx]);
        let predicted = self.rob[idx].predicted_next;
        let mispredicted = predicted != actual;
        {
            let u = &mut self.rob[idx];
            u.result = if link { Some((pc + 1) as u64) } else { None };
            u.taint_root = taint_root;
            u.resolved = true;
            u.mispredicted = mispredicted;
            u.state = UopState::Executing(cycle + self.cfg.alu_latency);
            // Stash the actual target in predicted_next for the redirect.
            u.predicted_next = actual;
        }
        if mispredicted {
            match self.rob[idx].inst {
                Inst::BCond { .. } | Inst::Cbz { .. } | Inst::Cbnz { .. } => {
                    self.pred.stats.cond_mispredicts += 1
                }
                Inst::Br { .. } | Inst::Blr { .. } => self.pred.stats.indirect_mispredicts += 1,
                Inst::Ret => self.pred.stats.return_mispredicts += 1,
                _ => {}
            }
        }
        let seq = self.rob[idx].seq;
        self.note_issued(seq);
        self.completion.push(Reverse((cycle + self.cfg.alu_latency, seq)));
        Ok(())
    }

    /// Second half of a split store: the data is ready; the entry completes.
    fn execute_store_data(&mut self, idx: usize, cycle: u64) {
        let u = &self.rob[idx];
        let value = match u.inst {
            Inst::Str { src, .. } | Inst::StrIdx { src, .. } => self.src_value(u, src),
            _ => Some(0),
        };
        let taint_root = self.operand_taint_root(&self.rob[idx]);
        let u = &mut self.rob[idx];
        u.store_value = value;
        u.taint_root = taint_root;
        u.state = UopState::Executing(cycle + self.cfg.alu_latency);
        let seq = u.seq;
        self.note_issued(seq);
        self.completion.push(Reverse((cycle + self.cfg.alu_latency, seq)));
    }

    fn execute_amo(
        &mut self,
        idx: usize,
        cycle: u64,
        mem: &mut MemSystem,
    ) -> Result<(), SimError> {
        const SITE: &str = "execute_amo: source not ready";
        let Some(addr) = self.compute_address(&self.rob[idx]) else { return Ok(()) };
        let u = &self.rob[idx];
        let Inst::Amo { op, src, expected, .. } = u.inst else {
            return Err(SimError::Internal { context: "execute_amo: non-AMO uop issued" });
        };
        let srcv = self.need_src(u, src, SITE)?;
        let old = mem.read_arch(addr, 8);
        let new = match op {
            AmoOp::Add => old.wrapping_add(srcv),
            AmoOp::Swap => srcv,
            AmoOp::Cas => {
                let exp = self.need_src(u, expected, SITE)?;
                if old == exp {
                    srcv
                } else {
                    old
                }
            }
        };
        let res = mem.load(self.id, addr, 8, cycle + 1, FillMode::Install, false)?;
        mem.write_arch(addr, 8, new);
        mem.store(self.id, addr, 8, cycle + 1, FillMode::Install)?;
        let u = &mut self.rob[idx];
        u.addr = Some(addr);
        u.result = Some(old);
        u.outcome = Some(res.outcome);
        u.tcs = Tcs::Safe;
        u.state = UopState::Executing(cycle + 1 + res.latency);
        let seq = u.seq;
        // The atomic's store address is now known.
        sorted_remove(&mut self.unknown_stores, seq);
        self.note_issued(seq);
        self.completion.push(Reverse((cycle + 1 + res.latency, seq)));
        Ok(())
    }
}
