//! Speculative taint dataflow: a forward worklist fixpoint over an abstract
//! state combining constant propagation, two-bit taint, tag provenance, and
//! a bounded speculative-window model.
//!
//! ## Window model
//!
//! Three mis-speculation sources open a window of `spec_window` instructions:
//!
//! * **branch direction / target** — both arms of a conditional branch and
//!   the resolved target of an indirect branch start with a fresh window
//!   (either arm may be the transient one; the join covers both);
//! * **faults** — a constant-resolved access that targets a protected range
//!   or mismatches its granule's MTE lock faults at commit, so everything
//!   younger is transient;
//! * **store bypass (STL)** — each in-flight store carries its own TTL of
//!   `spec_window` instructions (a bound on its store-buffer lifetime under
//!   the in-order-retire, window-sized ROB); a younger load that may alias a
//!   *live* store can transiently read the stale value. Aliasing compares
//!   page offsets (mod 4096) because the pipeline's partial STL matching
//!   forwards across 4 KiB aliases (the LVI injection channel).
//!
//! Within an open window, a loaded value is conservatively [`SECRET`]
//! (it may be a transiently-forwarded secret — the paper's rule that any
//! speculative load is a potential access instruction) — *unless* the
//! load's whole reachable footprint is provably key-clean: constant base,
//! constant-or-bounded index (bounds come from value-range tracking over
//! data ops: `AND`-masks, shifts, loads of known width — never from branch
//! predicates, which transient paths bypass), every touched granule's
//! installed lock equal to the pointer's key, and no protected-range
//! overlap. Such an access can only ever see data its own key already
//! grants, so its result keeps the address taint instead of [`SECRET`],
//! and a bounded attacker index inside a checked footprint is not an OOB
//! gadget. `CSDB` closes every window and scrubs [`SECRET`]; `DMB` drains
//! the store buffer only.
//!
//! ## Soundness shape
//!
//! The lattice is finite and all transfer functions are monotone (constants
//! only fall to `None`, taint/provenance bits only accumulate, windows join
//! by max, the in-flight store set is capped), so the fixpoint terminates;
//! `max_steps` is a belt-and-braces fuel bound on top. Unknown indirect
//! targets are dead edges in this pass — [`btb_window_scan`] compensates by
//! walking a mispredicted-indirect window from every load.

use crate::cfg::Cfg;
use crate::report::{Finding, FindingKind};
use crate::AnalysisConfig;
use sas_isa::{Inst, Operand, Program, Reg, VirtAddr};
use std::collections::VecDeque;

/// Taint bit: attacker-controlled at entry (from [`AnalysisConfig::attacker_regs`]).
pub const UNTRUSTED: u8 = 0b01;
/// Taint bit: secret or transiently-obtained data.
pub const SECRET: u8 = 0b10;

const NREGS: usize = Reg::COUNT;
const MAX_STORES: usize = 16;
/// Largest access footprint (in bytes) the key-clean check will walk. Must
/// admit a full Flush+Reload probe array (256 lines × 64-byte stride) so a
/// bounded byte shifted into a probe index stays checkable; the granule walk
/// is at most `FOOTPRINT_CAP / 16` iterations.
const FOOTPRINT_CAP: u64 = 0x1_0000;

/// Smallest all-ones value covering `x` — the widening ladder for value
/// bounds (`0, 1, 3, 7, …, u64::MAX`), at most 64 rungs high.
fn ones_fill(x: u64) -> u64 {
    let mut v = x;
    v |= v >> 1;
    v |= v >> 2;
    v |= v >> 4;
    v |= v >> 8;
    v |= v >> 16;
    v |= v >> 32;
    v
}

/// Abstract state at an instruction boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsState {
    /// Known constant per register (`None` = unknown).
    pub consts: [Option<u64>; NREGS],
    /// Inclusive upper bound per register when the exact constant is
    /// unknown (`None` = unbounded). Bounds come from data operations
    /// only — masks, shifts, narrow loads — never from branch predicates,
    /// which transiently-executed paths bypass.
    pub bounds: [Option<u64>; NREGS],
    /// Taint bits per register ([`UNTRUSTED`] | [`SECRET`]).
    pub taint: [u8; NREGS],
    /// Provenance: register value flows from `IRG`/`ADDG`/`SUBG`.
    pub derived: [bool; NREGS],
    /// Taint of the NZCV flags.
    pub flags_taint: u8,
    /// Remaining branch/fault mis-speculation window, in instructions.
    pub window: u32,
    /// In-flight stores with known untagged `[lo, hi)` ranges, each with
    /// its remaining forwarding TTL in instructions.
    pub stores: Vec<(u64, u64, u32)>,
    /// Remaining TTL of an in-flight store whose address is unknown
    /// (aliases everything); `0` = none.
    pub stores_unknown: u32,
}

impl AbsState {
    /// The state on entry: all registers zero, attacker registers unknown
    /// and [`UNTRUSTED`].
    pub fn entry(acfg: &AnalysisConfig) -> AbsState {
        let mut st = AbsState {
            consts: [Some(0); NREGS],
            bounds: [Some(0); NREGS],
            taint: [0; NREGS],
            derived: [false; NREGS],
            flags_taint: 0,
            window: 0,
            stores: Vec::new(),
            stores_unknown: 0,
        };
        for &r in &acfg.attacker_regs {
            if !r.is_zero() {
                st.consts[r.index()] = None;
                st.bounds[r.index()] = None;
                st.taint[r.index()] = UNTRUSTED;
            }
        }
        st
    }

    /// Least upper bound of two states.
    pub fn join(&self, other: &AbsState) -> AbsState {
        let mut out = self.clone();
        for i in 0..NREGS {
            if out.consts[i] != other.consts[i] {
                out.consts[i] = None;
            }
            if out.bounds[i] != other.bounds[i] {
                // Widen straight up the ones ladder so loop-carried bounds
                // stabilize in at most 64 joins.
                out.bounds[i] = match (out.bounds[i], other.bounds[i]) {
                    (Some(a), Some(b)) => Some(ones_fill(a.max(b))),
                    _ => None,
                };
            }
            out.taint[i] |= other.taint[i];
            out.derived[i] |= other.derived[i];
        }
        out.flags_taint |= other.flags_taint;
        out.window = out.window.max(other.window);
        for &r in &other.stores {
            push_store(&mut out.stores, &mut out.stores_unknown, r);
        }
        out.stores_unknown = out.stores_unknown.max(other.stores_unknown);
        out
    }

    fn rd(&self, r: Reg) -> Option<u64> {
        if r.is_zero() {
            Some(0)
        } else {
            self.consts[r.index()]
        }
    }

    /// Inclusive upper bound on a register's value (exact constants win).
    fn bound_of(&self, r: Reg) -> Option<u64> {
        if r.is_zero() {
            Some(0)
        } else {
            self.consts[r.index()].or(self.bounds[r.index()])
        }
    }

    fn op_bound(&self, o: Operand) -> Option<u64> {
        match o {
            Operand::Reg(r) => self.bound_of(r),
            Operand::Imm(v) => Some(v),
        }
    }

    fn set_bound(&mut self, r: Reg, b: Option<u64>) {
        if !r.is_zero() {
            self.bounds[r.index()] = b;
        }
    }

    fn taint_of(&self, r: Reg) -> u8 {
        if r.is_zero() {
            0
        } else {
            self.taint[r.index()]
        }
    }

    fn derived_of(&self, r: Reg) -> bool {
        !r.is_zero() && self.derived[r.index()]
    }

    fn op_val(&self, o: Operand) -> Option<u64> {
        match o {
            Operand::Reg(r) => self.rd(r),
            Operand::Imm(v) => Some(v),
        }
    }

    fn op_taint(&self, o: Operand) -> u8 {
        o.source_reg().map_or(0, |r| self.taint_of(r))
    }

    fn write(&mut self, r: Reg, val: Option<u64>, taint: u8, derived: bool) {
        if r.is_zero() {
            return;
        }
        self.consts[r.index()] = val;
        // A known constant is its own (exact) bound; unknown values start
        // unbounded until a data-op rule says otherwise.
        self.bounds[r.index()] = val;
        self.taint[r.index()] = taint;
        self.derived[r.index()] = derived;
    }
}

fn push_store(stores: &mut Vec<(u64, u64, u32)>, unknown: &mut u32, store: (u64, u64, u32)) {
    let (lo, hi, ttl) = store;
    if let Some(e) = stores.iter_mut().find(|e| e.0 == lo && e.1 == hi) {
        e.2 = e.2.max(ttl);
        return;
    }
    if stores.len() >= MAX_STORES {
        *unknown = (*unknown).max(ttl);
        return;
    }
    stores.push(store);
    stores.sort_unstable();
}

/// Whether two untagged byte ranges may alias under the pipeline's partial
/// store-to-load matching, which compares page offsets only (4 KiB-alias
/// forwarding — the LVI channel). Ranges that straddle a page boundary are
/// conservatively aliasing.
fn pages_alias(alo: u64, ahi: u64, blo: u64, bhi: u64) -> bool {
    let (ao, bo) = (alo & 0xFFF, blo & 0xFFF);
    let (aw, bw) = (ahi.wrapping_sub(alo), bhi.wrapping_sub(blo));
    if ao + aw > 0x1000 || bo + bw > 0x1000 {
        return true;
    }
    ao < bo + bw && bo < ao + aw
}

/// The untagged effective address of a memory access, when every input is a
/// known constant.
fn resolve_addr(st: &AbsState, base: Reg, index: Option<Reg>, offset: i64) -> Option<u64> {
    let b = st.rd(base)?;
    let i = match index {
        Some(r) => st.rd(r)?,
        None => 0,
    };
    Some(b.wrapping_add(i).wrapping_add(offset as u64))
}

/// Whether a constant-resolved access would fault: protected range, or a
/// non-zero pointer key that differs from the granule's installed lock.
fn access_faults(acfg: &AnalysisConfig, raw: u64) -> bool {
    let va = VirtAddr::new(raw);
    let u = va.untagged().raw();
    if acfg.is_protected(u) {
        return true;
    }
    let k = va.key().value();
    k != 0 && k != acfg.lock_of(u)
}

fn store_width(inst: Inst) -> u64 {
    match inst {
        // ST2G covers two granules.
        Inst::St2g { .. } => 32,
        _ => inst.access_width().unwrap_or(8),
    }
}

/// Whether every byte a (possibly attacker-steered) access can reach is
/// provably covered by the pointer's own key: constant base, index with a
/// known upper bound, every touched granule's installed lock equal to the
/// pointer's key nibble, and no overlap with a protected range. A checked
/// access can only observe data its key already grants — even transiently —
/// so it neither yields [`SECRET`] nor constitutes an OOB gadget.
fn footprint_checked(
    acfg: &AnalysisConfig,
    st: &AbsState,
    base: Reg,
    index: Option<Reg>,
    offset: i64,
    width: u64,
) -> bool {
    let Some(b) = st.rd(base) else { return false };
    let Some(idx_bound) = index.map_or(Some(0), |r| st.bound_of(r)) else { return false };
    let va = VirtAddr::new(b);
    let key = va.key().value();
    let Some(lo) = va.untagged().raw().checked_add_signed(offset) else { return false };
    let Some(span) = idx_bound.checked_add(width) else { return false };
    let Some(hi) = lo.checked_add(span) else { return false };
    if span == 0 || span > FOOTPRINT_CAP {
        return false;
    }
    if acfg.protected.iter().any(|&(plo, phi)| lo < phi && plo < hi) {
        return false;
    }
    let mut g = lo & !0xF;
    while g < hi {
        if acfg.lock_of(g) != key {
            return false;
        }
        g += 16;
    }
    true
}

/// Upper bound of an ALU result given operand bounds; `None` = unbounded.
fn alu_bound(st: &AbsState, op: sas_isa::AluOp, lhs: Reg, rhs: Operand) -> Option<u64> {
    use sas_isa::AluOp;
    let lb = st.bound_of(lhs);
    let rb = st.op_bound(rhs);
    match op {
        // x & y never exceeds either operand.
        AluOp::And => match (lb, rb) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (one, None) | (None, one) => one,
        },
        AluOp::Add => lb.zip(rb).and_then(|(a, b)| a.checked_add(b)),
        AluOp::Mul => lb.zip(rb).and_then(|(a, b)| a.checked_mul(b)),
        // Bit mixes stay inside the union of the operands' ones-masks.
        AluOp::Orr | AluOp::Eor => lb.zip(rb).map(|(a, b)| ones_fill(a) | ones_fill(b)),
        // Shifts by a *known* amount; a variable shift is unbounded.
        AluOp::Lsl => {
            let s = st.op_val(rhs)?;
            let a = lb?;
            if s >= 64 {
                return Some(0);
            }
            u64::try_from((a as u128) << s).ok()
        }
        AluOp::Lsr => {
            let s = st.op_val(rhs)?;
            Some(if s >= 64 { 0 } else { lb.unwrap_or(u64::MAX) >> s })
        }
        // x / y ≤ x for y ≥ 1, and the ISA defines x / 0 = 0.
        AluOp::UDiv => lb,
        AluOp::Sub | AluOp::Asr | AluOp::SDiv => None,
    }
}

/// Applies `inst` to `st`, returning the post-state and the successor list
/// as `(target, opens_window)` pairs. Targets outside the program are
/// dropped (dead edges).
fn transfer(
    st: &AbsState,
    inst: Inst,
    pc: usize,
    len: usize,
    acfg: &AnalysisConfig,
) -> (AbsState, Vec<(usize, bool)>) {
    let mut out = st.clone();
    let mut succs: Vec<(usize, bool)> = Vec::with_capacity(2);

    // Memory effects first (loads/stores, including AMO which is both).
    if let Some((base, index, offset)) = inst.addr_operands() {
        let addr = resolve_addr(st, base, index, offset);
        let addr_taint = st.taint_of(base) | index.map_or(0, |r| st.taint_of(r));
        let faults = addr.is_some_and(|a| access_faults(acfg, a));
        if inst.is_load() {
            let width = inst.access_width().unwrap_or(8);
            let stl_hazard = st.stores_unknown > 0
                || match addr {
                    None => !st.stores.is_empty(),
                    Some(a) => {
                        let u = VirtAddr::new(a).untagged().raw();
                        st.stores
                            .iter()
                            .any(|&(lo, hi, _)| pages_alias(u, u.wrapping_add(width), lo, hi))
                    }
                };
            let checked = footprint_checked(acfg, st, base, index, offset, width);
            let mut t = addr_taint;
            if (st.window > 0 && !checked) || stl_hazard || faults {
                t |= SECRET;
            }
            if let Some(dst) = inst.dest() {
                out.write(dst, None, t, false);
                // A narrow load can only produce a narrow value.
                out.set_bound(
                    dst,
                    match width {
                        1 => Some(0xFF),
                        2 => Some(0xFFFF),
                        4 => Some(0xFFFF_FFFF),
                        _ => None,
                    },
                );
            }
        }
        if inst.is_store() {
            match addr {
                Some(a) => {
                    let u = VirtAddr::new(a).untagged().raw();
                    push_store(
                        &mut out.stores,
                        &mut out.stores_unknown,
                        (u, u.wrapping_add(store_width(inst)), acfg.spec_window),
                    );
                }
                None => out.stores_unknown = acfg.spec_window,
            }
        }
        if faults {
            // Everything younger than a faulting access is transient.
            out.window = out.window.max(acfg.spec_window);
        }
    }

    match inst {
        Inst::Alu { op, dst, lhs, rhs } => {
            let val = match (st.rd(lhs), st.op_val(rhs)) {
                (Some(a), Some(b)) => Some(op.eval(a, b)),
                _ => None,
            };
            let t = st.taint_of(lhs) | st.op_taint(rhs);
            let d = st.derived_of(lhs)
                || rhs.source_reg().is_some_and(|r| st.derived_of(r));
            out.write(dst, val, t, d);
            if val.is_none() {
                // Range-track unknown values: an AND mask, narrow shift, or
                // bounded addition yields a provable upper bound even when
                // the exact value is attacker-chosen.
                out.set_bound(dst, alu_bound(st, op, lhs, rhs));
            }
        }
        Inst::MovZ { dst, imm, shift } => {
            out.write(dst, Some((imm as u64) << (16 * shift)), 0, false);
        }
        Inst::MovK { dst, imm, shift } => {
            let m = 0xFFFFu64 << (16 * shift);
            let val = st.rd(dst).map(|o| (o & !m) | ((imm as u64) << (16 * shift)));
            // A 16-bit patch keeps the destination's taint and provenance.
            out.write(dst, val, st.taint_of(dst), st.derived_of(dst));
        }
        Inst::Cmp { lhs, rhs } => {
            out.flags_taint = st.taint_of(lhs) | st.op_taint(rhs);
        }
        Inst::Irg { dst, src } => {
            out.write(dst, None, st.taint_of(src), true);
        }
        Inst::Addg { dst, src, offset, tag_offset } => {
            let val = st.rd(src).map(|v| {
                let a = VirtAddr::new(v);
                let nk = a.key().wrapping_add(tag_offset);
                a.offset(offset as i64).with_key(nk).raw()
            });
            out.write(dst, val, st.taint_of(src), true);
        }
        Inst::Subg { dst, src, offset, tag_offset } => {
            let val = st.rd(src).map(|v| {
                let a = VirtAddr::new(v);
                let nk = a.key().wrapping_sub(tag_offset);
                a.offset(-(offset as i64)).with_key(nk).raw()
            });
            out.write(dst, val, st.taint_of(src), true);
        }
        Inst::SpecBarrier => {
            // CSDB: no younger instruction executes under mis-speculation,
            // and nothing transiently obtained survives it.
            for i in 0..NREGS {
                out.taint[i] &= !SECRET;
            }
            out.flags_taint &= !SECRET;
            out.window = 0;
            out.stores.clear();
            out.stores_unknown = 0;
        }
        Inst::Fence => {
            // DMB: drains the store buffer; says nothing about speculation.
            out.stores.clear();
            out.stores_unknown = 0;
        }
        _ => {}
    }

    match inst {
        Inst::B { target } => succs.push((target, false)),
        Inst::BCond { target, .. } | Inst::Cbz { target, .. } | Inst::Cbnz { target, .. } => {
            succs.push((target, true));
            succs.push((pc + 1, true));
        }
        Inst::Bl { target } => {
            out.write(Reg::LR, Some((pc + 1) as u64), 0, false);
            succs.push((target, false));
        }
        Inst::Blr { reg } => {
            let t = st.rd(reg);
            out.write(Reg::LR, Some((pc + 1) as u64), 0, false);
            if let Some(t) = t {
                succs.push((t as usize, true));
            }
        }
        Inst::Br { reg } => {
            if let Some(t) = st.rd(reg) {
                succs.push((t as usize, true));
            }
        }
        Inst::Ret => {
            if let Some(t) = st.rd(Reg::LR) {
                succs.push((t as usize, true));
            }
        }
        Inst::Halt => {}
        _ => succs.push((pc + 1, false)),
    }
    succs.retain(|&(t, _)| t < len);
    (out, succs)
}

/// Runs the worklist fixpoint and returns the stabilized IN state per
/// instruction (`None` = unreachable from entry in this pass).
pub fn run(program: &Program, acfg: &AnalysisConfig) -> Vec<Option<AbsState>> {
    let len = program.len();
    let mut inn: Vec<Option<AbsState>> = vec![None; len];
    if len == 0 {
        return inn;
    }
    let entry = program.entry().min(len - 1);
    inn[entry] = Some(AbsState::entry(acfg));
    let mut queued = vec![false; len];
    let mut work = VecDeque::new();
    work.push_back(entry);
    queued[entry] = true;
    let mut fuel = acfg.max_steps;
    while let Some(pc) = work.pop_front() {
        queued[pc] = false;
        if fuel == 0 {
            break;
        }
        fuel -= 1;
        let st = inn[pc].clone().expect("queued pcs have a state");
        let inst = program.fetch(pc).expect("pc in range");
        let (out, succs) = transfer(&st, inst, pc, len, acfg);
        for (t, opens) in succs {
            let mut s = out.clone();
            s.window = if opens {
                s.window.max(acfg.spec_window)
            } else {
                s.window.saturating_sub(1)
            };
            // Each in-flight store ages independently; expired ones retire
            // and can no longer forward stale data to a transient load.
            s.stores.retain_mut(|e| {
                e.2 -= 1;
                e.2 > 0
            });
            s.stores_unknown = s.stores_unknown.saturating_sub(1);
            let changed = match &mut inn[t] {
                slot @ None => {
                    *slot = Some(s);
                    true
                }
                Some(cur) => {
                    let j = cur.join(&s);
                    let c = j != *cur;
                    *cur = j;
                    c
                }
            };
            if changed && !queued[t] {
                queued[t] = true;
                work.push_back(t);
            }
        }
    }
    inn
}

fn guard_note(graph: &Cfg, program: &Program, pc: usize) -> String {
    match graph.guard_of(program, pc) {
        Some(g) => format!("window opened by the branch at {g}"),
        None => "no dominating conditional guard".to_string(),
    }
}

fn addr_expr(base: Reg, index: Option<Reg>) -> String {
    match index {
        Some(i) => format!("{base} + {i}"),
        None => base.to_string(),
    }
}

/// Scans the stabilized dataflow for gadget findings.
pub fn findings(
    program: &Program,
    acfg: &AnalysisConfig,
    flow: &[Option<AbsState>],
    graph: &Cfg,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (pc, st) in flow.iter().enumerate().take(program.len()) {
        let Some(st) = st.as_ref() else { continue };
        let inst = program.fetch(pc).expect("pc in range");
        if let Some((base, index, offset)) = inst.addr_operands() {
            let addr_taint = st.taint_of(base) | index.map_or(0, |r| st.taint_of(r));
            let kind = if inst.is_load() {
                FindingKind::TransmitLoad
            } else {
                FindingKind::TransmitStore
            };
            if addr_taint & SECRET != 0 {
                out.push(Finding {
                    kind,
                    pc,
                    detail: format!(
                        "secret-tainted address ({}); {}",
                        addr_expr(base, index),
                        guard_note(graph, program, pc)
                    ),
                });
            } else if addr_taint & UNTRUSTED != 0
                && st.window > 0
                && !footprint_checked(
                    acfg,
                    st,
                    base,
                    index,
                    offset,
                    inst.access_width().unwrap_or(8),
                )
            {
                out.push(Finding {
                    kind: FindingKind::SpeculativeOobAccess,
                    pc,
                    detail: format!(
                        "attacker-controlled address ({}) inside an uncut speculative window; {}",
                        addr_expr(base, index),
                        guard_note(graph, program, pc)
                    ),
                });
            }
            if st.window > 0 {
                if let Some(raw) = resolve_addr(st, base, index, offset) {
                    if access_faults(acfg, raw) {
                        let va = VirtAddr::new(raw);
                        let u = va.untagged().raw();
                        let why = if acfg.is_protected(u) {
                            format!("protected address {u:#x}")
                        } else {
                            format!(
                                "key {:#x} vs granule lock {:#x} at {u:#x}",
                                va.key().value(),
                                acfg.lock_of(u)
                            )
                        };
                        out.push(Finding {
                            kind: FindingKind::UnsafeSpeculativeAccess,
                            pc,
                            detail: format!(
                                "speculative access that faults architecturally ({why}); {}",
                                guard_note(graph, program, pc)
                            ),
                        });
                    }
                }
            }
        }
        match inst {
            Inst::Alu { op, lhs, rhs, .. }
                if op.is_long_latency() && (st.taint_of(lhs) | st.op_taint(rhs)) & SECRET != 0 =>
            {
                out.push(Finding {
                    kind: FindingKind::ContentionTransmit,
                    pc,
                    detail: format!(
                        "secret operand feeds long-latency {op:?} (SCC contention channel)"
                    ),
                });
            }
            Inst::Br { reg } | Inst::Blr { reg } => {
                let t = st.taint_of(reg);
                if t & SECRET != 0 || (t & UNTRUSTED != 0 && st.window > 0) {
                    out.push(Finding {
                        kind: FindingKind::TaintedIndirectTarget,
                        pc,
                        detail: format!("tainted indirect-branch target in {reg}"),
                    });
                }
            }
            Inst::Ret => {
                let t = st.taint_of(Reg::LR);
                if t & SECRET != 0 || (t & UNTRUSTED != 0 && st.window > 0) {
                    out.push(Finding {
                        kind: FindingKind::TaintedIndirectTarget,
                        pc,
                        detail: "tainted return address in X30".to_string(),
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// Covers gadgets only reachable through indirect-branch target injection
/// (BTB/RSB/BHB training): if the program contains any indirect branch, a
/// mispredicted target can transiently enter *any* instruction, so every
/// load's result is treated as potentially secret and chased forward for
/// one speculative window.
///
/// The walk follows direct control flow (both arms of conditionals), grows
/// a register mask through def-use (`uses ∩ mask → defs ∈ mask`, no strong
/// updates), and is cut by `CSDB`, `HALT`, and indirect branches (which are
/// flagged first — a masked target is itself a gadget).
pub fn btb_window_scan(program: &Program, acfg: &AnalysisConfig) -> Vec<Finding> {
    let len = program.len();
    let any_indirect =
        (0..len).any(|pc| program.fetch(pc).is_some_and(|i| i.is_indirect_branch()));
    if !any_indirect || acfg.spec_window == 0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    for l in 0..len {
        let inst = program.fetch(l).expect("pc in range");
        if !inst.is_load() {
            continue;
        }
        let Some(dst) = inst.dest() else { continue };
        scan_from(program, acfg, l, dst, &mut out);
    }
    out
}

fn mask_bit(r: Reg) -> u64 {
    1u64 << r.index()
}

fn scan_from(
    program: &Program,
    acfg: &AnalysisConfig,
    load_pc: usize,
    dst: Reg,
    out: &mut Vec<Finding>,
) {
    let len = program.len();
    // (union of masks seen, largest remaining distance seen) per pc.
    let mut memo: Vec<(u64, u32)> = vec![(0, 0); len];
    let mut work = VecDeque::new();
    let start = load_pc + 1;
    if start >= len {
        return;
    }
    work.push_back((start, mask_bit(dst), acfg.spec_window));
    while let Some((pc, mask, dist)) = work.pop_front() {
        let (seen_mask, seen_dist) = memo[pc];
        if mask & !seen_mask == 0 && dist <= seen_dist {
            continue;
        }
        memo[pc] = (seen_mask | mask, seen_dist.max(dist));
        let inst = program.fetch(pc).expect("pc in range");
        let in_mask = |r: Reg| !r.is_zero() && mask & mask_bit(r) != 0;
        if let Some((base, index, _)) = inst.addr_operands() {
            if in_mask(base) || index.is_some_and(in_mask) {
                out.push(Finding {
                    kind: if inst.is_load() {
                        FindingKind::TransmitLoad
                    } else {
                        FindingKind::TransmitStore
                    },
                    pc,
                    detail: format!(
                        "value loaded at {load_pc} reaches this address within a \
                         mispredicted-indirect window"
                    ),
                });
            }
        }
        match inst {
            Inst::Alu { op, lhs, rhs, .. }
                if op.is_long_latency()
                    && (in_mask(lhs) || rhs.source_reg().is_some_and(in_mask)) =>
            {
                out.push(Finding {
                    kind: FindingKind::ContentionTransmit,
                    pc,
                    detail: format!(
                        "value loaded at {load_pc} feeds long-latency {op:?} within a \
                         mispredicted-indirect window"
                    ),
                });
            }
            Inst::Br { reg } | Inst::Blr { reg } if in_mask(reg) => {
                out.push(Finding {
                    kind: FindingKind::TaintedIndirectTarget,
                    pc,
                    detail: format!(
                        "value loaded at {load_pc} reaches this indirect target within a \
                         mispredicted-indirect window"
                    ),
                });
            }
            Inst::Ret if in_mask(Reg::LR) => {
                out.push(Finding {
                    kind: FindingKind::TaintedIndirectTarget,
                    pc,
                    detail: format!(
                        "value loaded at {load_pc} reaches this return within a \
                         mispredicted-indirect window"
                    ),
                });
            }
            _ => {}
        }
        // Cut points: the window cannot cross a CSDB, the end of the
        // program, or another (unresolvable) indirect transfer.
        if matches!(inst, Inst::SpecBarrier | Inst::Halt) || inst.is_indirect_branch() {
            continue;
        }
        if dist <= 1 {
            continue;
        }
        let mut next_mask = mask;
        if inst.uses().iter().any(|&r| in_mask(r)) {
            for d in inst.defs() {
                next_mask |= mask_bit(d);
            }
        }
        let mut push = |t: usize| {
            if t < len {
                work.push_back((t, next_mask, dist - 1));
            }
        };
        match inst {
            Inst::B { target } | Inst::Bl { target } => push(target),
            Inst::BCond { target, .. } | Inst::Cbz { target, .. } | Inst::Cbnz { target, .. } => {
                push(target);
                push(pc + 1);
            }
            _ => push(pc + 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sas_isa::ProgramBuilder;

    fn acfg() -> AnalysisConfig {
        AnalysisConfig {
            granule_tags: vec![(0x2000, 16, 3), (0x2100, 16, 9)],
            protected: vec![(0x9000, 0xA000)],
            ..AnalysisConfig::default()
        }
    }

    #[test]
    fn straightline_untainted_program_is_clean() {
        let mut asm = ProgramBuilder::new();
        asm.mov_imm64(Reg::X6, 0x2000);
        asm.ldr(Reg::X0, Reg::X6, 0);
        asm.halt();
        let p = asm.build().unwrap();
        let a = crate::analyze(&p, &acfg());
        assert_eq!(a.gadget_count(), 0, "{:?}", a.findings);
    }

    #[test]
    fn bounds_check_bypass_gadget_is_flagged() {
        // The Listing-1 shape: guarded double-load with an OOB index.
        let mut asm = ProgramBuilder::new();
        asm.mov_imm64(Reg::X1, 0x100); // index (would be attacker input)
        asm.mov_imm64(Reg::X6, 0x2000);
        asm.mov_imm64(Reg::X7, 0x1_0000);
        asm.cmp(Reg::X1, Operand::imm(16));
        let done = asm.new_label();
        asm.b_cond(sas_isa::Cond::Hs, done);
        asm.ldrb_idx(Reg::X2, Reg::X6, Reg::X1);
        asm.lsl(Reg::X2, Reg::X2, Operand::imm(6));
        asm.ldrb_idx(Reg::X3, Reg::X7, Reg::X2);
        asm.bind(done);
        asm.halt();
        let p = asm.build().unwrap();
        let a = crate::analyze(&p, &acfg());
        assert!(
            a.gadgets().any(|f| f.kind == FindingKind::TransmitLoad),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn csdb_after_the_guard_suppresses_the_gadget() {
        let mut asm = ProgramBuilder::new();
        asm.mov_imm64(Reg::X1, 0x100);
        asm.mov_imm64(Reg::X6, 0x2000);
        asm.mov_imm64(Reg::X7, 0x1_0000);
        asm.cmp(Reg::X1, Operand::imm(16));
        let done = asm.new_label();
        asm.b_cond(sas_isa::Cond::Hs, done);
        asm.spec_barrier();
        asm.ldrb_idx(Reg::X2, Reg::X6, Reg::X1);
        asm.lsl(Reg::X2, Reg::X2, Operand::imm(6));
        asm.ldrb_idx(Reg::X3, Reg::X7, Reg::X2);
        asm.bind(done);
        asm.halt();
        let p = asm.build().unwrap();
        let a = crate::analyze(&p, &acfg());
        assert_eq!(a.gadget_count(), 0, "{:?}", a.findings);
    }

    #[test]
    fn store_bypass_marks_forwarded_load_secret() {
        let mut asm = ProgramBuilder::new();
        asm.mov_imm64(Reg::X6, 0x4400);
        asm.mov_imm64(Reg::X1, 7);
        // Store whose address the analyzer cannot resolve (loaded pointer).
        asm.ldr(Reg::X5, Reg::X6, 8);
        asm.str(Reg::X1, Reg::X5, 0);
        asm.ldr(Reg::X2, Reg::X6, 0); // may transiently read stale data
        asm.ldrb_idx(Reg::X3, Reg::X6, Reg::X2);
        asm.halt();
        let p = asm.build().unwrap();
        let a = crate::analyze(&p, &acfg());
        assert!(
            a.gadgets().any(|f| f.kind == FindingKind::TransmitLoad),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn fault_on_tag_mismatch_taints_the_loaded_value() {
        let mut asm = ProgramBuilder::new();
        // Pointer into the key-9 granule carrying key 3: faults under MTE.
        let bad = VirtAddr::new(0x2100).with_key(sas_isa::TagNibble::new(3)).raw();
        asm.mov_imm64(Reg::X6, bad);
        asm.mov_imm64(Reg::X7, 0x1_0000);
        asm.ldrb(Reg::X2, Reg::X6, 0);
        asm.ldrb_idx(Reg::X3, Reg::X7, Reg::X2);
        asm.halt();
        let p = asm.build().unwrap();
        let a = crate::analyze(&p, &acfg());
        assert!(
            a.gadgets().any(|f| f.kind == FindingKind::TransmitLoad),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn scan_covers_gadgets_behind_indirect_branches() {
        // Gadget body never reached by the architectural dataflow (the BR
        // target is loaded), only by BTB injection.
        let mut asm = ProgramBuilder::new();
        let gadget = asm.new_label();
        asm.mov_imm64(Reg::X6, 0x7200);
        asm.ldr(Reg::X9, Reg::X6, 0);
        asm.br(Reg::X9);
        asm.bind(gadget);
        asm.mov_imm64(Reg::X6, 0x2100);
        asm.ldrb(Reg::X2, Reg::X6, 0);
        asm.ldrb_idx(Reg::X3, Reg::X6, Reg::X2);
        asm.halt();
        let p = asm.build().unwrap();
        let a = crate::analyze(&p, &acfg());
        assert!(
            a.gadgets().any(|f| f.kind == FindingKind::TransmitLoad),
            "{:?}",
            a.findings
        );
    }

    /// Tagged pointer to the key-3 granule at 0x2000.
    fn key3_base() -> u64 {
        VirtAddr::new(0x2000).with_key(sas_isa::TagNibble::new(3)).raw()
    }

    fn attacker_cfg() -> AnalysisConfig {
        AnalysisConfig { attacker_regs: vec![Reg::X0], ..acfg() }
    }

    #[test]
    fn masked_attacker_index_with_matching_key_is_clean() {
        // AND #7 bounds the attacker index to the pointer's own granule and
        // the pointer's key matches the installed lock: every transiently
        // reachable byte is data the key already grants.
        let mut asm = ProgramBuilder::new();
        asm.mov_imm64(Reg::X2, key3_base());
        asm.mov_imm64(Reg::X7, 0x1_0000);
        asm.and(Reg::X0, Reg::X0, Operand::imm(7));
        asm.cmp(Reg::X0, Operand::imm(8));
        let done = asm.new_label();
        asm.b_cond(sas_isa::Cond::Hs, done);
        asm.ldrb_idx(Reg::X5, Reg::X2, Reg::X0);
        asm.ldrb_idx(Reg::X6, Reg::X7, Reg::X5);
        asm.bind(done);
        asm.halt();
        let p = asm.build().unwrap();
        let a = crate::analyze(&p, &attacker_cfg());
        assert_eq!(a.gadget_count(), 0, "{:?}", a.findings);
    }

    #[test]
    fn unmasked_attacker_index_stays_flagged() {
        // Identical shape minus the AND mask: the index is unbounded, so the
        // footprint check cannot discharge the speculative OOB access.
        let mut asm = ProgramBuilder::new();
        asm.mov_imm64(Reg::X2, key3_base());
        asm.cmp(Reg::X0, Operand::imm(8));
        let done = asm.new_label();
        asm.b_cond(sas_isa::Cond::Hs, done);
        asm.ldrb_idx(Reg::X5, Reg::X2, Reg::X0);
        asm.bind(done);
        asm.halt();
        let p = asm.build().unwrap();
        let a = crate::analyze(&p, &attacker_cfg());
        assert!(
            a.gadgets().any(|f| f.kind == FindingKind::SpeculativeOobAccess),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn checked_const_load_in_window_is_clean() {
        // A constant in-granule load under an open window used to be tainted
        // SECRET purely for being in-window; the key-clean footprint rule
        // discharges it.
        let mut asm = ProgramBuilder::new();
        asm.mov_imm64(Reg::X2, key3_base());
        asm.mov_imm64(Reg::X7, 0x1_0000);
        asm.cmp(Reg::X1, Operand::imm(8));
        let done = asm.new_label();
        asm.b_cond(sas_isa::Cond::Hs, done);
        asm.ldrb(Reg::X5, Reg::X2, 4);
        asm.ldrb_idx(Reg::X6, Reg::X7, Reg::X5);
        asm.bind(done);
        asm.halt();
        let p = asm.build().unwrap();
        let a = crate::analyze(&p, &acfg());
        assert_eq!(a.gadget_count(), 0, "{:?}", a.findings);
    }

    #[test]
    fn expired_store_ttl_clears_the_forwarding_hazard() {
        // The store retires from the store buffer long before the load
        // issues (per-store TTL = spec_window), so no stale forwarding.
        let mut asm = ProgramBuilder::new();
        asm.mov_imm64(Reg::X6, 0x4400);
        asm.mov_imm64(Reg::X7, 0x1_0000);
        asm.str(Reg::X1, Reg::X6, 0);
        for _ in 0..70 {
            asm.nop();
        }
        asm.ldr(Reg::X2, Reg::X6, 0);
        asm.ldrb_idx(Reg::X3, Reg::X7, Reg::X2);
        asm.halt();
        let p = asm.build().unwrap();
        let a = crate::analyze(&p, &acfg());
        assert_eq!(a.gadget_count(), 0, "{:?}", a.findings);
    }

    #[test]
    fn four_k_aliased_store_still_hazards() {
        // Store and load differ in address but share a page offset: partial
        // STL matching (the LVI injection channel) can still forward.
        let mut asm = ProgramBuilder::new();
        asm.mov_imm64(Reg::X6, 0x6200);
        asm.mov_imm64(Reg::X5, 0x5200);
        asm.mov_imm64(Reg::X7, 0x1_0000);
        asm.str(Reg::X1, Reg::X6, 0);
        asm.ldr(Reg::X2, Reg::X5, 0);
        asm.ldrb_idx(Reg::X3, Reg::X7, Reg::X2);
        asm.halt();
        let p = asm.build().unwrap();
        let a = crate::analyze(&p, &acfg());
        assert!(
            a.gadgets().any(|f| f.kind == FindingKind::TransmitLoad),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn masked_loop_walk_converges_and_stays_clean() {
        // The loop counter widens to unbounded, but the in-loop AND gives
        // the access a data-op bound that survives widening.
        let mut asm = ProgramBuilder::new();
        asm.mov_imm64(Reg::X2, key3_base());
        asm.mov_imm64(Reg::X1, 0);
        let top = asm.new_label();
        asm.bind(top);
        asm.and(Reg::X7, Reg::X1, Operand::imm(7));
        asm.ldrb_idx(Reg::X5, Reg::X2, Reg::X7);
        asm.add(Reg::X1, Reg::X1, Operand::imm(1));
        asm.cmp(Reg::X1, Operand::imm(8));
        asm.b_cond(sas_isa::Cond::Lo, top);
        asm.halt();
        let p = asm.build().unwrap();
        let a = crate::analyze(&p, &attacker_cfg());
        assert_eq!(a.gadget_count(), 0, "{:?}", a.findings);
    }

    #[test]
    fn fixpoint_terminates_on_loops() {
        let mut asm = ProgramBuilder::new();
        let top = asm.new_label();
        asm.bind(top);
        asm.add(Reg::X0, Reg::X0, Operand::imm(1));
        asm.cmp(Reg::X0, Operand::imm(10));
        asm.b_cond(sas_isa::Cond::Lo, top);
        asm.halt();
        let p = asm.build().unwrap();
        let flow = run(&p, &acfg());
        assert!(flow.iter().all(|s| s.is_some()));
    }
}
