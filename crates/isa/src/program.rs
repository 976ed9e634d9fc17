//! Programs and the label-resolving assembler.

use crate::inst::{AluOp, AmoOp, BtiKind, Cond, Inst, MemWidth, Operand};
use crate::reg::Reg;
use crate::segment::DataSegment;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A symbolic branch target handed out by [`ProgramBuilder::new_label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Errors produced while assembling a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never bound with [`ProgramBuilder::bind`].
    UnboundLabel(Label),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel(l) => write!(f, "label {:?} referenced but never bound", l),
        }
    }
}

impl std::error::Error for AsmError {}

/// An executable SAS-IR program: instructions plus initial data memory.
#[derive(Clone)]
pub struct Program {
    insts: Vec<Inst>,
    /// Shared by every clone: cloning a program copies no data byte.
    data: Arc<Vec<DataSegment>>,
    entry: usize,
    label_addrs: HashMap<String, usize>,
    /// [`Program::fingerprint`], computed on first use. `set_entry` clears
    /// it and `with_nops` returns a copy without it; `PartialEq` and `Debug`
    /// ignore it.
    fingerprint: OnceLock<u64>,
}

impl PartialEq for Program {
    fn eq(&self, other: &Program) -> bool {
        self.insts == other.insts
            && self.data == other.data
            && self.entry == other.entry
            && self.label_addrs == other.label_addrs
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("insts", &self.insts)
            .field("data", &self.data)
            .field("entry", &self.entry)
            .field("label_addrs", &self.label_addrs)
            .finish()
    }
}

impl Program {
    /// The instruction at index `pc`, or `None` past the end.
    pub fn fetch(&self, pc: usize) -> Option<Inst> {
        self.insts.get(pc).copied()
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Entry point (instruction index).
    pub fn entry(&self) -> usize {
        self.entry
    }

    /// All instructions, in program order.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Initial data segments.
    pub fn data(&self) -> &[DataSegment] {
        &self.data
    }

    /// The instruction index a named label was bound at, if any.
    pub fn label(&self, name: &str) -> Option<usize> {
        self.label_addrs.get(name).copied()
    }

    /// Re-points the entry at an existing instruction (used by the text
    /// assembler's `.entry` directive).
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range.
    pub fn set_entry(&mut self, entry: usize) {
        assert!(entry < self.insts.len(), "entry {entry} out of range");
        self.entry = entry;
        self.fingerprint = OnceLock::new();
    }

    /// Renders a human-readable listing (one instruction per line). Branch
    /// targets that coincide with a named label are annotated with the
    /// label's name, so diagnostics that quote listing lines stay readable.
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let rev: HashMap<usize, &str> = self
            .label_addrs
            .iter()
            .map(|(k, &v)| (v, k.as_str()))
            .collect();
        for (i, inst) in self.insts.iter().enumerate() {
            if let Some(name) = rev.get(&i) {
                let _ = writeln!(out, "{name}:");
            }
            match inst.target().and_then(|t| rev.get(&t)) {
                Some(name) => {
                    let _ = writeln!(out, "  {i:4}: {inst}  ; -> {name}");
                }
                None => {
                    let _ = writeln!(out, "  {i:4}: {inst}");
                }
            }
        }
        out
    }

    /// All named labels of the program, as `(name, instruction index)`
    /// pairs in unspecified order.
    pub fn labels(&self) -> impl Iterator<Item = (&str, usize)> {
        self.label_addrs.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// A copy of the program with the instructions at `nopped` replaced by
    /// `NOP`. Indices (and therefore every branch target) are preserved, so
    /// any subset is valid — this is the mutation the failure shrinker
    /// delta-debugs over. Out-of-range indices are ignored.
    pub fn with_nops(&self, nopped: &[usize]) -> Program {
        let mut p = self.clone();
        for &i in nopped {
            if i < p.insts.len() {
                p.insts[i] = Inst::Nop;
            }
        }
        p.fingerprint = OnceLock::new();
        p
    }

    /// A 64-bit fingerprint of what the program executes: every instruction
    /// (its derived `Debug` text), the entry index, and each data segment's
    /// base, length and bytes. A generated segment
    /// ([`DataSegment::generated`]) is covered by its recipe, the generator
    /// state and byte mask, which fix every byte without computing one.
    /// Label names are not covered.
    ///
    /// Snapshots persist this value, so it is a hand-rolled FNV-1a rather
    /// than `std::hash`, whose output may change between Rust releases.
    /// Data bytes are hashed a little-endian word at a time, which runs at
    /// memory speed over a multi-megabyte image. It is computed once per
    /// program value: every checkpoint and restore asks for it.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.compute_fingerprint())
    }

    fn compute_fingerprint(&self) -> u64 {
        use std::fmt::Write as _;
        let mut h = Fnv1a::new();
        h.u64(self.insts.len() as u64);
        for inst in &self.insts {
            let _ = writeln!(h, "{inst:?}");
        }
        h.u64(self.entry as u64);
        h.u64(self.data.len() as u64);
        for seg in self.data.iter() {
            if let Some((state, mask)) = seg.recipe() {
                h.bytes(b"generated");
                h.u64(seg.base());
                h.u64(seg.len() as u64);
                h.u64(state);
                h.u64(mask.into());
                continue;
            }
            h.u64(seg.base());
            h.u64(seg.len() as u64);
            h.segment(seg);
        }
        h.0
    }

    /// Serializes the program as text the [`crate::parse_program`] assembler
    /// accepts back: synthetic `L<i>:` labels at every branch target, an
    /// `.entry` directive when the entry is not instruction 0, and `.data`
    /// directives for the initial memory image. Round-trips instruction
    /// streams exactly; long data segments are split across directives.
    pub fn to_sasm(&self) -> String {
        use std::collections::BTreeSet;
        use std::fmt::Write as _;
        let mut targets: BTreeSet<usize> = self.insts.iter().filter_map(|i| i.target()).collect();
        if self.entry != 0 {
            targets.insert(self.entry);
        }
        let label = |t: usize| format!("L{t}");
        let mut out = String::new();
        if self.entry != 0 {
            let _ = writeln!(out, ".entry {}", label(self.entry));
        }
        for (i, inst) in self.insts.iter().enumerate() {
            if targets.contains(&i) {
                let _ = writeln!(out, "{}:", label(i));
            }
            // Branches, BTI and CAS atomics need spellings the parser
            // accepts; everything else round-trips through Display.
            let line = match *inst {
                Inst::B { target } => format!("B {}", label(target)),
                Inst::BCond { cond, target } => format!("B.{cond:?} {}", label(target)),
                Inst::Cbz { reg, target } => format!("CBZ {reg}, {}", label(target)),
                Inst::Cbnz { reg, target } => format!("CBNZ {reg}, {}", label(target)),
                Inst::Bl { target } => format!("BL {}", label(target)),
                Inst::Bti { kind } => format!(
                    "BTI {}",
                    match kind {
                        BtiKind::JumpCall => "jc",
                        BtiKind::Call => "c",
                        BtiKind::Jump => "j",
                    }
                ),
                Inst::Amo {
                    op: AmoOp::Cas,
                    dst,
                    addr,
                    src,
                    expected,
                } => {
                    format!("AMO.CAS {dst}, [{addr}], {src}, {expected}")
                }
                ref other => other.to_string(),
            };
            let _ = writeln!(out, "    {line}");
        }
        // A label bound after the last instruction is still a branch target.
        if targets.contains(&self.insts.len()) {
            let _ = writeln!(out, "{}:", label(self.insts.len()));
        }
        for seg in self.data.iter() {
            for (k, chunk) in seg.to_vec().chunks(32).enumerate() {
                let bytes: Vec<String> = chunk.iter().map(|b| b.to_string()).collect();
                let _ = writeln!(
                    out,
                    ".data {:#x} = {}",
                    seg.base() + (k as u64) * 32,
                    bytes.join(", ")
                );
            }
        }
        out
    }
}

/// 64-bit FNV-1a, fed through [`fmt::Write`] so `Debug` text is hashed
/// without building a `String`.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// One FNV-1a step over a whole word, then a rotation: the multiply
    /// carries a difference only towards the high bits, and the rotation
    /// feeds those back so two high-bit differences cannot cancel.
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x1_0000_01B3).rotate_left(29);
    }

    /// A segment's bytes as consecutive little-endian u64 words from its
    /// first byte on, then the 0-7 tail bytes one at a time.
    fn segment(&mut self, seg: &DataSegment) {
        let (mut carry, mut held) = ([0u8; 8], 0);
        for page in seg.pages() {
            let mut bytes = page.bytes;
            if held > 0 {
                let take = (8 - held).min(bytes.len());
                carry[held..held + take].copy_from_slice(&bytes[..take]);
                held += take;
                bytes = &bytes[take..];
                if held < 8 {
                    continue;
                }
                self.word(u64::from_le_bytes(carry));
            }
            let mut words = bytes.chunks_exact(8);
            for w in &mut words {
                self.word(u64::from_le_bytes(w.try_into().expect("8 bytes")));
            }
            held = words.remainder().len();
            carry[..held].copy_from_slice(words.remainder());
        }
        self.bytes(&carry[..held]);
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Incremental assembler with forward-referencable labels.
///
/// ```
/// use sas_isa::{ProgramBuilder, Reg, Cond, Operand};
///
/// let mut asm = ProgramBuilder::new();
/// let done = asm.new_label();
/// asm.movz(Reg::X0, 3, 0);
/// let loop_top = asm.here();
/// asm.sub(Reg::X0, Reg::X0, Operand::imm(1));
/// asm.cbz(Reg::X0, done);
/// asm.b_idx(loop_top);
/// asm.bind(done);
/// asm.halt();
/// let p = asm.build().unwrap();
/// assert_eq!(p.len(), 5);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    insts: Vec<Inst>,
    data: Vec<DataSegment>,
    labels: Vec<Option<usize>>, // label id -> bound index
    named: HashMap<String, Label>,
    fixups: Vec<(usize, Label)>, // instruction index whose target is a label id
    entry: usize,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Allocates a fresh unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Allocates (or returns the existing) label with a symbolic name, which
    /// will be queryable on the built program via [`Program::label`].
    pub fn named_label(&mut self, name: &str) -> Label {
        if let Some(&l) = self.named.get(name) {
            return l;
        }
        let l = self.new_label();
        self.named.insert(name.to_owned(), l);
        l
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound (assembler misuse is a
    /// programming error in this codebase).
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.insts.len());
    }

    /// The current instruction index, for backward branches.
    pub fn here(&self) -> usize {
        self.insts.len()
    }

    /// Sets the entry point (defaults to instruction 0).
    pub fn entry(&mut self, index: usize) -> &mut Self {
        self.entry = index;
        self
    }

    /// Adds an initialised data segment at `base`.
    pub fn data_segment(&mut self, base: u64, bytes: Vec<u8>) -> &mut Self {
        self.segment(DataSegment::new(base, &bytes))
    }

    /// Adds a data segment as it is, sharing its frames.
    pub fn segment(&mut self, seg: DataSegment) -> &mut Self {
        self.data.push(seg);
        self
    }

    /// Pushes a raw instruction.
    pub fn push(&mut self, inst: Inst) -> &mut Self {
        self.insts.push(inst);
        self
    }

    fn push_branch(&mut self, inst: Inst, label: Label) {
        self.fixups.push((self.insts.len(), label));
        self.insts.push(inst);
    }

    // ---- ALU helpers -------------------------------------------------

    /// `ADD dst, lhs, rhs`.
    pub fn add(&mut self, dst: Reg, lhs: Reg, rhs: impl Into<Operand>) -> &mut Self {
        self.push(Inst::Alu {
            op: AluOp::Add,
            dst,
            lhs,
            rhs: rhs.into(),
        })
    }

    /// `SUB dst, lhs, rhs`.
    pub fn sub(&mut self, dst: Reg, lhs: Reg, rhs: impl Into<Operand>) -> &mut Self {
        self.push(Inst::Alu {
            op: AluOp::Sub,
            dst,
            lhs,
            rhs: rhs.into(),
        })
    }

    /// `AND dst, lhs, rhs`.
    pub fn and(&mut self, dst: Reg, lhs: Reg, rhs: impl Into<Operand>) -> &mut Self {
        self.push(Inst::Alu {
            op: AluOp::And,
            dst,
            lhs,
            rhs: rhs.into(),
        })
    }

    /// `ORR dst, lhs, rhs`.
    pub fn orr(&mut self, dst: Reg, lhs: Reg, rhs: impl Into<Operand>) -> &mut Self {
        self.push(Inst::Alu {
            op: AluOp::Orr,
            dst,
            lhs,
            rhs: rhs.into(),
        })
    }

    /// `EOR dst, lhs, rhs`.
    pub fn eor(&mut self, dst: Reg, lhs: Reg, rhs: impl Into<Operand>) -> &mut Self {
        self.push(Inst::Alu {
            op: AluOp::Eor,
            dst,
            lhs,
            rhs: rhs.into(),
        })
    }

    /// `LSL dst, lhs, rhs`.
    pub fn lsl(&mut self, dst: Reg, lhs: Reg, rhs: impl Into<Operand>) -> &mut Self {
        self.push(Inst::Alu {
            op: AluOp::Lsl,
            dst,
            lhs,
            rhs: rhs.into(),
        })
    }

    /// `LSR dst, lhs, rhs`.
    pub fn lsr(&mut self, dst: Reg, lhs: Reg, rhs: impl Into<Operand>) -> &mut Self {
        self.push(Inst::Alu {
            op: AluOp::Lsr,
            dst,
            lhs,
            rhs: rhs.into(),
        })
    }

    /// `MUL dst, lhs, rhs`.
    pub fn mul(&mut self, dst: Reg, lhs: Reg, rhs: impl Into<Operand>) -> &mut Self {
        self.push(Inst::Alu {
            op: AluOp::Mul,
            dst,
            lhs,
            rhs: rhs.into(),
        })
    }

    /// `UDIV dst, lhs, rhs`.
    pub fn udiv(&mut self, dst: Reg, lhs: Reg, rhs: impl Into<Operand>) -> &mut Self {
        self.push(Inst::Alu {
            op: AluOp::UDiv,
            dst,
            lhs,
            rhs: rhs.into(),
        })
    }

    /// `MOVZ dst, #imm, LSL #(16*shift)`.
    pub fn movz(&mut self, dst: Reg, imm: u16, shift: u8) -> &mut Self {
        self.push(Inst::MovZ { dst, imm, shift })
    }

    /// `MOVK dst, #imm, LSL #(16*shift)`.
    pub fn movk(&mut self, dst: Reg, imm: u16, shift: u8) -> &mut Self {
        self.push(Inst::MovK { dst, imm, shift })
    }

    /// Loads an arbitrary 64-bit constant using MOVZ/MOVK (1-4 instructions).
    pub fn mov_imm64(&mut self, dst: Reg, value: u64) -> &mut Self {
        self.movz(dst, (value & 0xFFFF) as u16, 0);
        for hw in 1..4u8 {
            let part = ((value >> (16 * hw)) & 0xFFFF) as u16;
            if part != 0 {
                self.movk(dst, part, hw);
            }
        }
        self
    }

    /// `MOV dst, src` (encoded as `ORR dst, XZR, src`).
    pub fn mov(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.push(Inst::Alu {
            op: AluOp::Orr,
            dst,
            lhs: Reg::XZR,
            rhs: Operand::Reg(src),
        })
    }

    /// `CMP lhs, rhs`.
    pub fn cmp(&mut self, lhs: Reg, rhs: impl Into<Operand>) -> &mut Self {
        self.push(Inst::Cmp {
            lhs,
            rhs: rhs.into(),
        })
    }

    // ---- memory helpers ----------------------------------------------

    /// `LDR dst, [base, #offset]` (8 bytes).
    pub fn ldr(&mut self, dst: Reg, base: Reg, offset: i64) -> &mut Self {
        self.push(Inst::Ldr {
            dst,
            base,
            offset,
            width: MemWidth::B8,
        })
    }

    /// `LDRB dst, [base, #offset]`.
    pub fn ldrb(&mut self, dst: Reg, base: Reg, offset: i64) -> &mut Self {
        self.push(Inst::Ldr {
            dst,
            base,
            offset,
            width: MemWidth::B1,
        })
    }

    /// `LDR dst, [base, index]`.
    pub fn ldr_idx(&mut self, dst: Reg, base: Reg, index: Reg) -> &mut Self {
        self.push(Inst::LdrIdx {
            dst,
            base,
            index,
            width: MemWidth::B8,
        })
    }

    /// `LDRB dst, [base, index]`.
    pub fn ldrb_idx(&mut self, dst: Reg, base: Reg, index: Reg) -> &mut Self {
        self.push(Inst::LdrIdx {
            dst,
            base,
            index,
            width: MemWidth::B1,
        })
    }

    /// `STR src, [base, #offset]` (8 bytes).
    pub fn str(&mut self, src: Reg, base: Reg, offset: i64) -> &mut Self {
        self.push(Inst::Str {
            src,
            base,
            offset,
            width: MemWidth::B8,
        })
    }

    /// `STRB src, [base, #offset]`.
    pub fn strb(&mut self, src: Reg, base: Reg, offset: i64) -> &mut Self {
        self.push(Inst::Str {
            src,
            base,
            offset,
            width: MemWidth::B1,
        })
    }

    /// `STR src, [base, index]`.
    pub fn str_idx(&mut self, src: Reg, base: Reg, index: Reg) -> &mut Self {
        self.push(Inst::StrIdx {
            src,
            base,
            index,
            width: MemWidth::B8,
        })
    }

    // ---- MTE helpers ---------------------------------------------------

    /// `IRG dst, src`.
    pub fn irg(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.push(Inst::Irg { dst, src })
    }

    /// `ADDG dst, src, #offset, #tag_offset`.
    pub fn addg(&mut self, dst: Reg, src: Reg, offset: u64, tag_offset: u8) -> &mut Self {
        self.push(Inst::Addg {
            dst,
            src,
            offset,
            tag_offset,
        })
    }

    /// `SUBG dst, src, #offset, #tag_offset`.
    pub fn subg(&mut self, dst: Reg, src: Reg, offset: u64, tag_offset: u8) -> &mut Self {
        self.push(Inst::Subg {
            dst,
            src,
            offset,
            tag_offset,
        })
    }

    /// `STG [base, #offset]`.
    pub fn stg(&mut self, base: Reg, offset: i64) -> &mut Self {
        self.push(Inst::Stg { base, offset })
    }

    /// `LDG dst, [base]`.
    pub fn ldg(&mut self, dst: Reg, base: Reg) -> &mut Self {
        self.push(Inst::Ldg { dst, base })
    }

    // ---- control flow --------------------------------------------------

    /// `B label`.
    pub fn b(&mut self, label: Label) -> &mut Self {
        self.push_branch(Inst::B { target: usize::MAX }, label);
        self
    }

    /// `B` to a known instruction index (for backward branches).
    pub fn b_idx(&mut self, target: usize) -> &mut Self {
        self.push(Inst::B { target })
    }

    /// `B.cond label`.
    pub fn b_cond(&mut self, cond: Cond, label: Label) -> &mut Self {
        self.push_branch(
            Inst::BCond {
                cond,
                target: usize::MAX,
            },
            label,
        );
        self
    }

    /// `B.cond` to a known instruction index.
    pub fn b_cond_idx(&mut self, cond: Cond, target: usize) -> &mut Self {
        self.push(Inst::BCond { cond, target })
    }

    /// `CBZ reg, label`.
    pub fn cbz(&mut self, reg: Reg, label: Label) -> &mut Self {
        self.push_branch(
            Inst::Cbz {
                reg,
                target: usize::MAX,
            },
            label,
        );
        self
    }

    /// `CBNZ reg, label`.
    pub fn cbnz(&mut self, reg: Reg, label: Label) -> &mut Self {
        self.push_branch(
            Inst::Cbnz {
                reg,
                target: usize::MAX,
            },
            label,
        );
        self
    }

    /// `CBNZ` to a known instruction index.
    pub fn cbnz_idx(&mut self, reg: Reg, target: usize) -> &mut Self {
        self.push(Inst::Cbnz { reg, target })
    }

    /// `BL label`.
    pub fn bl(&mut self, label: Label) -> &mut Self {
        self.push_branch(Inst::Bl { target: usize::MAX }, label);
        self
    }

    /// `BR reg`.
    pub fn br(&mut self, reg: Reg) -> &mut Self {
        self.push(Inst::Br { reg })
    }

    /// `BLR reg`.
    pub fn blr(&mut self, reg: Reg) -> &mut Self {
        self.push(Inst::Blr { reg })
    }

    /// `RET`.
    pub fn ret(&mut self) -> &mut Self {
        self.push(Inst::Ret)
    }

    /// `BTI kind`.
    pub fn bti(&mut self, kind: BtiKind) -> &mut Self {
        self.push(Inst::Bti { kind })
    }

    /// `DC CIVAC [base, #offset]` — flush the addressed line.
    pub fn flush(&mut self, base: Reg, offset: i64) -> &mut Self {
        self.push(Inst::Flush { base, offset })
    }

    // ---- misc -----------------------------------------------------------

    /// Speculation barrier.
    pub fn spec_barrier(&mut self) -> &mut Self {
        self.push(Inst::SpecBarrier)
    }

    /// Memory fence.
    pub fn fence(&mut self) -> &mut Self {
        self.push(Inst::Fence)
    }

    /// Atomic operation.
    pub fn amo(&mut self, op: AmoOp, dst: Reg, addr: Reg, src: Reg, expected: Reg) -> &mut Self {
        self.push(Inst::Amo {
            op,
            dst,
            addr,
            src,
            expected,
        })
    }

    /// `NOP`.
    pub fn nop(&mut self) -> &mut Self {
        self.push(Inst::Nop)
    }

    /// `HALT`.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Inst::Halt)
    }

    /// Resolves all labels and produces the program.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::UnboundLabel`] if any referenced label was never
    /// bound.
    pub fn build(self) -> Result<Program, AsmError> {
        let ProgramBuilder {
            mut insts,
            data,
            labels,
            named,
            fixups,
            entry,
        } = self;
        for (idx, label) in fixups {
            let target = labels[label.0].ok_or(AsmError::UnboundLabel(label))?;
            match &mut insts[idx] {
                Inst::B { target: t }
                | Inst::BCond { target: t, .. }
                | Inst::Cbz { target: t, .. }
                | Inst::Cbnz { target: t, .. }
                | Inst::Bl { target: t } => *t = target,
                other => unreachable!("fixup on non-branch instruction {other}"),
            }
        }
        let label_addrs = named
            .into_iter()
            .filter_map(|(name, l)| labels[l.0].map(|i| (name, i)))
            .collect();
        Ok(Program {
            insts,
            data: Arc::new(data),
            entry,
            label_addrs,
            fingerprint: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut asm = ProgramBuilder::new();
        let end = asm.new_label();
        let top = asm.here();
        asm.sub(Reg::X0, Reg::X0, Operand::imm(1));
        asm.cbz(Reg::X0, end);
        asm.b_idx(top);
        asm.bind(end);
        asm.halt();
        let p = asm.build().unwrap();
        assert_eq!(
            p.fetch(1),
            Some(Inst::Cbz {
                reg: Reg::X0,
                target: 3
            })
        );
        assert_eq!(p.fetch(2), Some(Inst::B { target: 0 }));
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut asm = ProgramBuilder::new();
        let l = asm.new_label();
        asm.b(l);
        let err = asm.build().unwrap_err();
        assert!(matches!(err, AsmError::UnboundLabel(_)));
        assert!(err.to_string().contains("never bound"));
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut asm = ProgramBuilder::new();
        let l = asm.new_label();
        asm.bind(l);
        asm.bind(l);
    }

    #[test]
    fn named_labels_are_queryable() {
        let mut asm = ProgramBuilder::new();
        let f = asm.named_label("f");
        asm.bl(f);
        asm.halt();
        asm.bind(f);
        asm.ret();
        let p = asm.build().unwrap();
        assert_eq!(p.label("f"), Some(2));
        assert_eq!(p.label("g"), None);
    }

    #[test]
    fn named_label_is_idempotent() {
        let mut asm = ProgramBuilder::new();
        let a = asm.named_label("x");
        let b = asm.named_label("x");
        assert_eq!(a, b);
    }

    #[test]
    fn mov_imm64_roundtrip() {
        // Verify the MOVZ/MOVK sequence reconstructs the constant.
        for value in [0u64, 1, 0xFFFF, 0x1_0000, 0xDEAD_BEEF_CAFE_F00D, u64::MAX] {
            let mut asm = ProgramBuilder::new();
            asm.mov_imm64(Reg::X3, value);
            let p = asm.build().unwrap();
            let mut x3 = 0u64;
            for inst in p.insts() {
                match *inst {
                    Inst::MovZ { imm, shift, .. } => x3 = (imm as u64) << (16 * shift),
                    Inst::MovK { imm, shift, .. } => {
                        let m = 0xFFFFu64 << (16 * shift);
                        x3 = (x3 & !m) | ((imm as u64) << (16 * shift));
                    }
                    _ => unreachable!(),
                }
            }
            assert_eq!(x3, value);
        }
    }

    #[test]
    fn data_segments_are_preserved() {
        let mut asm = ProgramBuilder::new();
        asm.data_segment(0x1000, vec![1, 2, 3]);
        asm.halt();
        let p = asm.build().unwrap();
        assert_eq!(p.data().len(), 1);
        assert_eq!(p.data()[0].base(), 0x1000);
        assert_eq!(p.data()[0].to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn listing_contains_labels_and_indices() {
        let mut asm = ProgramBuilder::new();
        let l = asm.named_label("loop");
        asm.bind(l);
        asm.nop();
        asm.halt();
        let p = asm.build().unwrap();
        let text = p.listing();
        assert!(text.contains("loop:"));
        assert!(text.contains("NOP"));
    }

    #[test]
    fn listing_annotates_branch_targets_with_label_names() {
        let mut asm = ProgramBuilder::new();
        let victim = asm.named_label("victim");
        asm.bl(victim);
        asm.halt();
        asm.bind(victim);
        asm.cbz(Reg::X0, victim);
        let p = asm.build().unwrap();
        let text = p.listing();
        assert!(text.contains("BL @2  ; -> victim"), "{text}");
        assert!(text.contains("CBZ X0, @2  ; -> victim"), "{text}");
        // Unnamed targets keep the bare index rendering.
        assert!(!text.contains("HALT  ;"), "{text}");
    }

    fn fingerprint_sample(entry: usize, data: Vec<u8>, label: &str) -> Program {
        let mut asm = ProgramBuilder::new();
        let l = asm.named_label(label);
        asm.movz(Reg::X1, 7, 0);
        asm.bind(l);
        asm.sub(Reg::X1, Reg::X1, Operand::imm(1));
        asm.cbnz(Reg::X1, l);
        asm.halt();
        asm.data_segment(0x1000, data);
        asm.entry(entry);
        asm.build().unwrap()
    }

    #[test]
    fn fingerprint_is_pinned() {
        // Snapshots persist this value: changing it invalidates every
        // checkpoint on disk, which needs a snapshot format version bump.
        let p = fingerprint_sample(0, vec![1, 2, 3], "top");
        assert_eq!(p.fingerprint(), 0xA4AE_A56B_F89B_5667);
        // Two whole words and a three-byte tail.
        let p = fingerprint_sample(0, (0..19).collect(), "top");
        assert_eq!(p.fingerprint(), 0x4D01_54D1_F5AF_9D50);
        // A generated segment: its recipe, not its bytes.
        let p = generated_sample(7, 0x7f);
        assert_eq!(p.fingerprint(), 0x77A7_D641_481C_5F0F);
        assert_eq!(p.data()[0].materialised(), 0, "hashing computed a frame");
    }

    fn generated_sample(state: u64, mask: u8) -> Program {
        let mut asm = ProgramBuilder::new();
        asm.halt();
        asm.segment(DataSegment::generated(
            0x4000,
            2 * crate::PAGE_BYTES,
            crate::SplitMix64::new(state),
            mask,
        ));
        asm.build().unwrap()
    }

    #[test]
    fn fingerprint_covers_the_recipe_of_generated_data() {
        let base = generated_sample(7, 0x7f).fingerprint();
        assert_ne!(generated_sample(8, 0x7f).fingerprint(), base);
        assert_ne!(generated_sample(7, 0xff).fingerprint(), base);
        let bytes = generated_sample(7, 0x7f).data()[0].to_vec();
        let mut asm = ProgramBuilder::new();
        asm.halt();
        asm.data_segment(0x4000, bytes);
        assert_ne!(
            asm.build().unwrap().fingerprint(),
            base,
            "a recipe is not its bytes"
        );
    }

    #[test]
    fn fingerprint_covers_code_entry_and_data_but_not_label_names() {
        let base = fingerprint_sample(0, vec![1, 2, 3], "top").fingerprint();
        assert_ne!(
            fingerprint_sample(0, vec![1, 2, 4], "top").fingerprint(),
            base
        );
        assert_ne!(
            fingerprint_sample(0, vec![1, 2, 3, 0], "top").fingerprint(),
            base
        );
        assert_ne!(
            fingerprint_sample(1, vec![1, 2, 3], "top").fingerprint(),
            base
        );
        assert_eq!(
            fingerprint_sample(0, vec![1, 2, 3], "loop").fingerprint(),
            base
        );
        let nopped = fingerprint_sample(0, vec![1, 2, 3], "top").with_nops(&[0]);
        assert_ne!(nopped.fingerprint(), base);
    }

    #[test]
    fn fingerprint_tells_apart_words_differing_only_in_their_top_bits() {
        let mut data = vec![0u8; 16];
        let base = fingerprint_sample(0, data.clone(), "top").fingerprint();
        data[7] ^= 0x80;
        data[15] ^= 0x80;
        assert_ne!(fingerprint_sample(0, data, "top").fingerprint(), base);
    }

    /// The word hash over a segment's frames equals the word hash over its
    /// bytes laid out contiguously, wherever the page boundaries fall.
    #[test]
    fn segment_words_straddle_page_boundaries() {
        let contiguous = |bytes: &[u8]| {
            let mut h = Fnv1a::new();
            let mut words = bytes.chunks_exact(8);
            for w in &mut words {
                h.word(u64::from_le_bytes(w.try_into().unwrap()));
            }
            h.bytes(words.remainder());
            h.0
        };
        for (base, len) in [
            (0x1000, 0),
            (0x1ffd, 5),
            (0x1ffd, 13),
            (0x1003, 3 * 4096 + 6),
            (0x2000, 8192),
        ] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let mut h = Fnv1a::new();
            h.segment(&DataSegment::new(base, &bytes));
            assert_eq!(h.0, contiguous(&bytes), "{base:#x}+{len}");
        }
    }

    #[test]
    fn fingerprint_memo_is_reset_and_invisible() {
        let uncached = |entry| fingerprint_sample(entry, vec![1, 2, 3], "top");
        let mut p = uncached(0);
        let (debug, fresh) = (format!("{p:?}"), uncached(0));
        assert_eq!(p.fingerprint(), uncached(0).fingerprint());
        assert_eq!(format!("{p:?}"), debug);
        assert!(p == fresh, "the memo is not compared");
        // Derived programs start without the memo.
        let nopped = uncached(0).with_nops(&[0]).compute_fingerprint();
        assert_eq!(p.with_nops(&[0]).fingerprint(), nopped);
        p.set_entry(1);
        assert_eq!(p.fingerprint(), uncached(1).compute_fingerprint());
        assert_ne!(p.fingerprint(), fresh.fingerprint());
    }

    #[test]
    fn labels_are_enumerable() {
        let mut asm = ProgramBuilder::new();
        let l = asm.named_label("f");
        asm.nop();
        asm.bind(l);
        asm.halt();
        let p = asm.build().unwrap();
        assert_eq!(p.labels().collect::<Vec<_>>(), vec![("f", 1)]);
    }
}
