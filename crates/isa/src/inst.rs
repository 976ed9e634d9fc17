//! The SAS-IR instruction set.

use crate::reg::Reg;
use std::fmt;

/// Width of a scalar memory access, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 1 byte (`LDRB`/`STRB`).
    B1,
    /// 2 bytes (`LDRH`/`STRH`).
    B2,
    /// 4 bytes (`LDRW`/`STRW`).
    B4,
    /// 8 bytes (`LDR`/`STR`).
    B8,
}

impl MemWidth {
    /// Access size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::B1 => 1,
            MemWidth::B2 => 2,
            MemWidth::B4 => 4,
            MemWidth::B8 => 8,
        }
    }
}

/// Second source operand of an ALU instruction: register or immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Register operand.
    Reg(Reg),
    /// 64-bit immediate.
    Imm(u64),
}

impl Operand {
    /// Convenience constructor for an immediate operand.
    pub fn imm(v: u64) -> Operand {
        Operand::Imm(v)
    }

    /// Convenience constructor for a register operand.
    pub fn reg(r: Reg) -> Operand {
        Operand::Reg(r)
    }

    /// The register read by this operand, if any.
    pub fn source_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<u64> for Operand {
    fn from(v: u64) -> Self {
        Operand::Imm(v)
    }
}

/// Integer ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Orr,
    /// Bitwise XOR.
    Eor,
    /// Logical shift left.
    Lsl,
    /// Logical shift right.
    Lsr,
    /// Arithmetic shift right.
    Asr,
    /// Multiplication (low 64 bits).
    Mul,
    /// Unsigned division (division by zero yields 0, as on AArch64).
    UDiv,
    /// Signed division (division by zero yields 0).
    SDiv,
}

impl AluOp {
    /// Evaluates the operation on 64-bit values with AArch64 semantics.
    pub fn eval(self, lhs: u64, rhs: u64) -> u64 {
        match self {
            AluOp::Add => lhs.wrapping_add(rhs),
            AluOp::Sub => lhs.wrapping_sub(rhs),
            AluOp::And => lhs & rhs,
            AluOp::Orr => lhs | rhs,
            AluOp::Eor => lhs ^ rhs,
            AluOp::Lsl => lhs.wrapping_shl((rhs & 63) as u32),
            AluOp::Lsr => lhs.wrapping_shr((rhs & 63) as u32),
            AluOp::Asr => ((lhs as i64).wrapping_shr((rhs & 63) as u32)) as u64,
            AluOp::Mul => lhs.wrapping_mul(rhs),
            AluOp::UDiv => lhs.checked_div(rhs).unwrap_or(0),
            AluOp::SDiv => {
                let (l, r) = (lhs as i64, rhs as i64);
                if r == 0 {
                    0
                } else {
                    l.wrapping_div(r) as u64
                }
            }
        }
    }

    /// True for multi-cycle operations routed to the multiply/divide unit.
    pub fn is_long_latency(self) -> bool {
        matches!(self, AluOp::Mul | AluOp::UDiv | AluOp::SDiv)
    }
}

/// Branch condition codes (subset of AArch64 `B.cond`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal (`Z`).
    Eq,
    /// Not equal (`!Z`).
    Ne,
    /// Unsigned lower (`!C`) — the condition of Listing 1's `B.LO`.
    Lo,
    /// Unsigned lower or same (`!C || Z`).
    Ls,
    /// Unsigned higher (`C && !Z`).
    Hi,
    /// Unsigned higher or same (`C`).
    Hs,
    /// Signed less than (`N != V`).
    Lt,
    /// Signed less or equal (`Z || N != V`).
    Le,
    /// Signed greater than (`!Z && N == V`).
    Gt,
    /// Signed greater or equal (`N == V`).
    Ge,
}

impl Cond {
    /// Evaluates the condition against a flags value.
    pub fn holds(self, f: crate::Flags) -> bool {
        match self {
            Cond::Eq => f.z,
            Cond::Ne => !f.z,
            Cond::Lo => !f.c,
            Cond::Ls => !f.c || f.z,
            Cond::Hi => f.c && !f.z,
            Cond::Hs => f.c,
            Cond::Lt => f.n != f.v,
            Cond::Le => f.z || f.n != f.v,
            Cond::Gt => !f.z && f.n == f.v,
            Cond::Ge => f.n == f.v,
        }
    }

    /// The condition that holds exactly when `self` does not.
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lo => Cond::Hs,
            Cond::Ls => Cond::Hi,
            Cond::Hi => Cond::Ls,
            Cond::Hs => Cond::Lo,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
        }
    }
}

/// `BTI` landing-pad kinds, mirroring ARM Branch Target Identification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BtiKind {
    /// Valid target for indirect jumps (`BTI j`).
    Jump,
    /// Valid target for indirect calls (`BTI c`).
    Call,
    /// Valid target for both (`BTI jc`).
    JumpCall,
}

impl BtiKind {
    /// Whether this landing pad accepts an indirect *call* (`BLR`).
    pub fn accepts_call(self) -> bool {
        matches!(self, BtiKind::Call | BtiKind::JumpCall)
    }

    /// Whether this landing pad accepts an indirect *jump* (`BR`).
    pub fn accepts_jump(self) -> bool {
        matches!(self, BtiKind::Jump | BtiKind::JumpCall)
    }
}

/// Atomic read-modify-write operations (enough for locks and barriers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AmoOp {
    /// Atomic add; returns the old value.
    Add,
    /// Atomic swap; returns the old value.
    Swap,
    /// Compare-and-swap: swaps in the new value iff old == expected
    /// (expected supplied in a second register); returns the old value.
    Cas,
}

/// A SAS-IR instruction.
///
/// Branch targets are instruction indices, resolved from labels by
/// [`crate::ProgramBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inst {
    /// `dst = op(lhs, rhs)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// First source.
        lhs: Reg,
        /// Second source (register or immediate).
        rhs: Operand,
    },
    /// `dst = imm << (16 * shift)` — `MOVZ`-style immediate load.
    MovZ {
        /// Destination register.
        dst: Reg,
        /// 16-bit immediate.
        imm: u16,
        /// Half-word position 0..=3.
        shift: u8,
    },
    /// `dst[16*shift .. 16*shift+16] = imm` — `MOVK` keeps other bits.
    MovK {
        /// Destination register (also a source).
        dst: Reg,
        /// 16-bit immediate.
        imm: u16,
        /// Half-word position 0..=3.
        shift: u8,
    },
    /// Sets NZCV from `lhs - rhs`.
    Cmp {
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Operand,
    },
    /// Load `width` bytes from `[base + offset]` into `dst` (zero-extended).
    Ldr {
        /// Destination register.
        dst: Reg,
        /// Base address register (tagged pointer).
        base: Reg,
        /// Signed byte offset.
        offset: i64,
        /// Access width.
        width: MemWidth,
    },
    /// Load from `[base + index]` (register-indexed addressing used by
    /// gather-style gadgets).
    LdrIdx {
        /// Destination register.
        dst: Reg,
        /// Base register.
        base: Reg,
        /// Index register (added to base).
        index: Reg,
        /// Access width.
        width: MemWidth,
    },
    /// Store the low `width` bytes of `src` to `[base + offset]`.
    Str {
        /// Source register.
        src: Reg,
        /// Base register.
        base: Reg,
        /// Signed byte offset.
        offset: i64,
        /// Access width.
        width: MemWidth,
    },
    /// Store to `[base + index]`.
    StrIdx {
        /// Source register.
        src: Reg,
        /// Base register.
        base: Reg,
        /// Index register.
        index: Reg,
        /// Access width.
        width: MemWidth,
    },
    /// `IRG dst, src`: insert a random allocation tag into the pointer in
    /// `src`, writing the tagged pointer to `dst`.
    Irg {
        /// Destination register.
        dst: Reg,
        /// Source pointer.
        src: Reg,
    },
    /// `ADDG dst, src, #offset, #tag_offset`: add `offset` to the address and
    /// `tag_offset` (mod 16) to its key.
    Addg {
        /// Destination register.
        dst: Reg,
        /// Source pointer.
        src: Reg,
        /// Byte offset added to the address.
        offset: u64,
        /// Increment applied to the key nibble.
        tag_offset: u8,
    },
    /// `SUBG dst, src, #offset, #tag_offset`.
    Subg {
        /// Destination register.
        dst: Reg,
        /// Source pointer.
        src: Reg,
        /// Byte offset subtracted from the address.
        offset: u64,
        /// Decrement applied to the key nibble.
        tag_offset: u8,
    },
    /// `STG [base, #offset]`: write the pointer's key as the allocation tag of
    /// the addressed 16-byte granule.
    Stg {
        /// Base pointer whose key becomes the lock.
        base: Reg,
        /// Signed byte offset.
        offset: i64,
    },
    /// `ST2G [base, #offset]`: tag two consecutive granules (32 bytes).
    St2g {
        /// Base pointer whose key becomes the lock.
        base: Reg,
        /// Signed byte offset.
        offset: i64,
    },
    /// `LDG dst, [base]`: read the allocation tag of the addressed granule
    /// into the key bits of `dst` (address bits copied from `base`).
    Ldg {
        /// Destination register.
        dst: Reg,
        /// Address whose granule tag is read.
        base: Reg,
    },
    /// Unconditional direct branch.
    B {
        /// Target instruction index.
        target: usize,
    },
    /// Conditional direct branch on NZCV.
    BCond {
        /// Condition.
        cond: Cond,
        /// Target instruction index.
        target: usize,
    },
    /// Compare-and-branch-if-zero.
    Cbz {
        /// Register tested against zero.
        reg: Reg,
        /// Target instruction index.
        target: usize,
    },
    /// Compare-and-branch-if-nonzero.
    Cbnz {
        /// Register tested against zero.
        reg: Reg,
        /// Target instruction index.
        target: usize,
    },
    /// Direct call: `LR = pc + 1; pc = target`.
    Bl {
        /// Target instruction index.
        target: usize,
    },
    /// Indirect jump to the instruction index in `reg`.
    Br {
        /// Register holding the target instruction index.
        reg: Reg,
    },
    /// Indirect call through `reg`.
    Blr {
        /// Register holding the target instruction index.
        reg: Reg,
    },
    /// Return: `pc = LR`.
    Ret,
    /// Branch-target-identification landing pad.
    Bti {
        /// Accepted inbound edge kinds.
        kind: BtiKind,
    },
    /// Cache maintenance (`DC CIVAC`-like): clean & invalidate the line
    /// containing `[base + offset]` from every cache level. The Flush half
    /// of a Flush+Reload attacker.
    Flush {
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i64,
    },
    /// Speculation barrier (`CSDB`/`DSB`-like): younger instructions may not
    /// execute until all older instructions are non-speculative.
    SpecBarrier,
    /// Full memory fence: orders all earlier memory operations before later
    /// ones (used by the multi-threaded workloads).
    Fence,
    /// Atomic read-modify-write on `[addr]`.
    Amo {
        /// Operation.
        op: AmoOp,
        /// Receives the old memory value.
        dst: Reg,
        /// Address register.
        addr: Reg,
        /// Operand value (swap/add value, or CAS new value).
        src: Reg,
        /// CAS expected value (ignored for Add/Swap).
        expected: Reg,
    },
    /// No operation.
    Nop,
    /// Stop the hart.
    Halt,
}

impl Inst {
    /// Registers read by this instruction (up to 3).
    ///
    /// Alias of [`Inst::uses`], kept for the pipeline's historical name.
    pub fn sources(&self) -> Vec<Reg> {
        self.uses()
    }

    /// Registers read by this instruction (up to 3), including implicit
    /// reads (`MOVK` reads its destination, `RET` reads `LR`). `XZR` never
    /// appears: reading the zero register is not a data dependency.
    pub fn uses(&self) -> Vec<Reg> {
        let mut v = Vec::with_capacity(3);
        self.for_each_use(|r| v.push(r));
        v
    }

    /// Calls `f` with each register of [`Inst::uses`], in the same order,
    /// without allocating — the once-per-dispatched-uop rename path.
    pub fn for_each_use(&self, mut f: impl FnMut(Reg)) {
        let mut emit = |r: Reg| {
            if !r.is_zero() {
                f(r);
            }
        };
        match *self {
            Inst::Alu { lhs, rhs, .. } => {
                emit(lhs);
                if let Some(r) = rhs.source_reg() {
                    emit(r);
                }
            }
            Inst::MovZ { .. } => {}
            Inst::MovK { dst, .. } => emit(dst),
            Inst::Cmp { lhs, rhs } => {
                emit(lhs);
                if let Some(r) = rhs.source_reg() {
                    emit(r);
                }
            }
            Inst::Ldr { base, .. } => emit(base),
            Inst::LdrIdx { base, index, .. } => {
                emit(base);
                emit(index);
            }
            Inst::Str { src, base, .. } => {
                emit(src);
                emit(base);
            }
            Inst::StrIdx {
                src, base, index, ..
            } => {
                emit(src);
                emit(base);
                emit(index);
            }
            Inst::Irg { src, .. } | Inst::Addg { src, .. } | Inst::Subg { src, .. } => emit(src),
            Inst::Stg { base, .. } | Inst::St2g { base, .. } | Inst::Flush { base, .. } => {
                emit(base)
            }
            Inst::Ldg { base, .. } => emit(base),
            Inst::B { .. } | Inst::BCond { .. } | Inst::Bl { .. } => {}
            Inst::Cbz { reg, .. } | Inst::Cbnz { reg, .. } => emit(reg),
            Inst::Br { reg } | Inst::Blr { reg } => emit(reg),
            Inst::Ret => emit(Reg::LR),
            Inst::Amo {
                addr,
                src,
                expected,
                op,
                ..
            } => {
                emit(addr);
                emit(src);
                if matches!(op, AmoOp::Cas) {
                    emit(expected);
                }
            }
            Inst::Bti { .. } | Inst::SpecBarrier | Inst::Fence | Inst::Nop | Inst::Halt => {}
        }
    }

    /// Registers written by this instruction, including implicit writes
    /// (`BL`/`BLR` link into `LR`). Writes to `XZR` are discarded by the
    /// architecture and therefore not reported. At most one register today;
    /// a `Vec` keeps the def-use API symmetric for future pair-writing ops.
    pub fn defs(&self) -> Vec<Reg> {
        self.dest().into_iter().collect()
    }

    /// Register written by this instruction, if any.
    pub fn dest(&self) -> Option<Reg> {
        let d = match *self {
            Inst::Alu { dst, .. }
            | Inst::MovZ { dst, .. }
            | Inst::MovK { dst, .. }
            | Inst::Ldr { dst, .. }
            | Inst::LdrIdx { dst, .. }
            | Inst::Irg { dst, .. }
            | Inst::Addg { dst, .. }
            | Inst::Subg { dst, .. }
            | Inst::Ldg { dst, .. }
            | Inst::Amo { dst, .. } => dst,
            Inst::Bl { .. } | Inst::Blr { .. } => Reg::LR,
            _ => return None,
        };
        if d.is_zero() {
            None
        } else {
            Some(d)
        }
    }

    /// Whether the instruction writes the NZCV flags.
    pub fn writes_flags(&self) -> bool {
        matches!(self, Inst::Cmp { .. })
    }

    /// Whether the instruction reads the NZCV flags.
    pub fn reads_flags(&self) -> bool {
        matches!(self, Inst::BCond { .. })
    }

    /// Whether this is a load from memory (incl. `LDG` and atomics).
    pub fn is_load(&self) -> bool {
        matches!(
            self,
            Inst::Ldr { .. } | Inst::LdrIdx { .. } | Inst::Ldg { .. } | Inst::Amo { .. }
        )
    }

    /// Whether this writes memory (incl. tag stores and atomics).
    pub fn is_store(&self) -> bool {
        matches!(
            self,
            Inst::Str { .. }
                | Inst::StrIdx { .. }
                | Inst::Stg { .. }
                | Inst::St2g { .. }
                | Inst::Amo { .. }
        )
    }

    /// Whether this is any kind of control-flow instruction.
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            Inst::B { .. }
                | Inst::BCond { .. }
                | Inst::Cbz { .. }
                | Inst::Cbnz { .. }
                | Inst::Bl { .. }
                | Inst::Br { .. }
                | Inst::Blr { .. }
                | Inst::Ret
        )
    }

    /// Whether this is an *indirect* control transfer (target from a register).
    pub fn is_indirect_branch(&self) -> bool {
        matches!(self, Inst::Br { .. } | Inst::Blr { .. } | Inst::Ret)
    }

    /// The static branch target (instruction index) of a direct branch.
    pub fn target(&self) -> Option<usize> {
        match *self {
            Inst::B { target }
            | Inst::BCond { target, .. }
            | Inst::Cbz { target, .. }
            | Inst::Cbnz { target, .. }
            | Inst::Bl { target } => Some(target),
            _ => None,
        }
    }

    /// The address operands of a *data* memory access, as
    /// `(base, index, immediate offset)`. Cache maintenance (`DC CIVAC`)
    /// carries an address but is not a data access and returns `None`.
    pub fn addr_operands(&self) -> Option<(Reg, Option<Reg>, i64)> {
        Some(match *self {
            Inst::Ldr { base, offset, .. } | Inst::Str { base, offset, .. } => (base, None, offset),
            Inst::LdrIdx { base, index, .. } | Inst::StrIdx { base, index, .. } => {
                (base, Some(index), 0)
            }
            Inst::Stg { base, offset } | Inst::St2g { base, offset } => (base, None, offset),
            Inst::Ldg { base, .. } => (base, None, 0),
            Inst::Amo { addr, .. } => (addr, None, 0),
            _ => return None,
        })
    }

    /// Access width in bytes of a data memory access (`None` for
    /// non-memory instructions). Tag-granule operations report one granule.
    pub fn access_width(&self) -> Option<u64> {
        Some(match *self {
            Inst::Ldr { width, .. }
            | Inst::LdrIdx { width, .. }
            | Inst::Str { width, .. }
            | Inst::StrIdx { width, .. } => width.bytes(),
            Inst::Stg { .. } | Inst::St2g { .. } | Inst::Ldg { .. } => 16,
            Inst::Amo { .. } => 8,
            _ => return None,
        })
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn op(o: &Operand) -> String {
            match o {
                Operand::Reg(r) => r.to_string(),
                Operand::Imm(v) => format!("#{v}"),
            }
        }
        match self {
            Inst::Alu {
                op: o,
                dst,
                lhs,
                rhs,
            } => write!(f, "{o:?} {dst}, {lhs}, {}", op(rhs)),
            Inst::MovZ { dst, imm, shift } => write!(f, "MOVZ {dst}, #{imm}, LSL #{}", shift * 16),
            Inst::MovK { dst, imm, shift } => write!(f, "MOVK {dst}, #{imm}, LSL #{}", shift * 16),
            Inst::Cmp { lhs, rhs } => write!(f, "CMP {lhs}, {}", op(rhs)),
            Inst::Ldr {
                dst,
                base,
                offset,
                width,
            } => {
                write!(f, "LDR{} {dst}, [{base}, #{offset}]", width_suffix(*width))
            }
            Inst::LdrIdx {
                dst,
                base,
                index,
                width,
            } => {
                write!(f, "LDR{} {dst}, [{base}, {index}]", width_suffix(*width))
            }
            Inst::Str {
                src,
                base,
                offset,
                width,
            } => {
                write!(f, "STR{} {src}, [{base}, #{offset}]", width_suffix(*width))
            }
            Inst::StrIdx {
                src,
                base,
                index,
                width,
            } => {
                write!(f, "STR{} {src}, [{base}, {index}]", width_suffix(*width))
            }
            Inst::Irg { dst, src } => write!(f, "IRG {dst}, {src}"),
            Inst::Addg {
                dst,
                src,
                offset,
                tag_offset,
            } => {
                write!(f, "ADDG {dst}, {src}, #{offset}, #{tag_offset}")
            }
            Inst::Subg {
                dst,
                src,
                offset,
                tag_offset,
            } => {
                write!(f, "SUBG {dst}, {src}, #{offset}, #{tag_offset}")
            }
            Inst::Flush { base, offset } => write!(f, "DC CIVAC [{base}, #{offset}]"),
            Inst::Stg { base, offset } => write!(f, "STG [{base}, #{offset}]"),
            Inst::St2g { base, offset } => write!(f, "ST2G [{base}, #{offset}]"),
            Inst::Ldg { dst, base } => write!(f, "LDG {dst}, [{base}]"),
            Inst::B { target } => write!(f, "B @{target}"),
            Inst::BCond { cond, target } => write!(f, "B.{cond:?} @{target}"),
            Inst::Cbz { reg, target } => write!(f, "CBZ {reg}, @{target}"),
            Inst::Cbnz { reg, target } => write!(f, "CBNZ {reg}, @{target}"),
            Inst::Bl { target } => write!(f, "BL @{target}"),
            Inst::Br { reg } => write!(f, "BR {reg}"),
            Inst::Blr { reg } => write!(f, "BLR {reg}"),
            Inst::Ret => write!(f, "RET"),
            Inst::Bti { kind } => write!(f, "BTI {kind:?}"),
            Inst::SpecBarrier => write!(f, "CSDB"),
            Inst::Fence => write!(f, "DMB"),
            Inst::Amo {
                op: o,
                dst,
                addr,
                src,
                ..
            } => write!(f, "AMO.{o:?} {dst}, [{addr}], {src}"),
            Inst::Nop => write!(f, "NOP"),
            Inst::Halt => write!(f, "HALT"),
        }
    }
}

fn width_suffix(w: MemWidth) -> &'static str {
    match w {
        MemWidth::B1 => "B",
        MemWidth::B2 => "H",
        MemWidth::B4 => "W",
        MemWidth::B8 => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Flags;

    #[test]
    fn alu_eval_basics() {
        assert_eq!(AluOp::Add.eval(u64::MAX, 1), 0);
        assert_eq!(AluOp::Sub.eval(0, 1), u64::MAX);
        assert_eq!(AluOp::Lsl.eval(1, 12), 4096);
        assert_eq!(AluOp::Lsr.eval(0x8000_0000_0000_0000, 63), 1);
        assert_eq!(AluOp::Asr.eval(u64::MAX, 4), u64::MAX);
        assert_eq!(
            AluOp::UDiv.eval(7, 0),
            0,
            "division by zero yields 0 on AArch64"
        );
        assert_eq!(AluOp::SDiv.eval((-8i64) as u64, 2), (-4i64) as u64);
    }

    #[test]
    fn cond_negation_is_involutive_and_exclusive() {
        let flags = [
            Flags::from_cmp(0, 0),
            Flags::from_cmp(1, 2),
            Flags::from_cmp(2, 1),
            Flags::from_cmp(i64::MIN as u64, 1),
            Flags::from_cmp(u64::MAX, 1),
        ];
        for c in [
            Cond::Eq,
            Cond::Ne,
            Cond::Lo,
            Cond::Ls,
            Cond::Hi,
            Cond::Hs,
            Cond::Lt,
            Cond::Le,
            Cond::Gt,
            Cond::Ge,
        ] {
            assert_eq!(c.negate().negate(), c);
            for f in flags {
                assert_ne!(c.holds(f), c.negate().holds(f), "{c:?} with {f}");
            }
        }
    }

    #[test]
    fn blo_matches_listing1_semantics() {
        // Listing 1: `CMP X0, X1; B.LO` taken iff X0 < X1 unsigned.
        assert!(Cond::Lo.holds(Flags::from_cmp(3, 10)));
        assert!(!Cond::Lo.holds(Flags::from_cmp(10, 3)));
        assert!(!Cond::Lo.holds(Flags::from_cmp(3, 3)));
    }

    #[test]
    fn sources_and_dest_of_memory_ops() {
        let ld = Inst::Ldr {
            dst: Reg::X5,
            base: Reg::X2,
            offset: 0,
            width: MemWidth::B8,
        };
        assert_eq!(ld.sources(), vec![Reg::X2]);
        assert_eq!(ld.dest(), Some(Reg::X5));
        assert!(ld.is_load() && !ld.is_store());

        let st = Inst::Str {
            src: Reg::X1,
            base: Reg::X2,
            offset: 8,
            width: MemWidth::B8,
        };
        assert_eq!(st.sources(), vec![Reg::X1, Reg::X2]);
        assert_eq!(st.dest(), None);
        assert!(st.is_store() && !st.is_load());
    }

    #[test]
    fn xzr_never_appears_as_source_or_dest() {
        let i = Inst::Alu {
            op: AluOp::Add,
            dst: Reg::XZR,
            lhs: Reg::XZR,
            rhs: Operand::imm(1),
        };
        assert!(i.sources().is_empty());
        assert_eq!(i.dest(), None);
    }

    #[test]
    fn branch_classification() {
        assert!(Inst::Ret.is_branch());
        assert!(Inst::Ret.is_indirect_branch());
        assert!(Inst::B { target: 0 }.is_branch());
        assert!(!Inst::B { target: 0 }.is_indirect_branch());
        assert!(!Inst::Nop.is_branch());
    }

    #[test]
    fn amo_is_both_load_and_store() {
        let a = Inst::Amo {
            op: AmoOp::Cas,
            dst: Reg::X0,
            addr: Reg::X1,
            src: Reg::X2,
            expected: Reg::X3,
        };
        assert!(a.is_load());
        assert!(a.is_store());
        assert_eq!(a.sources(), vec![Reg::X1, Reg::X2, Reg::X3]);
    }

    #[test]
    fn movk_reads_its_destination() {
        let i = Inst::MovK {
            dst: Reg::X4,
            imm: 1,
            shift: 1,
        };
        assert_eq!(i.sources(), vec![Reg::X4]);
        assert_eq!(i.dest(), Some(Reg::X4));
    }

    #[test]
    fn display_is_stable() {
        let i = Inst::Ldr {
            dst: Reg::X5,
            base: Reg::X2,
            offset: 0,
            width: MemWidth::B8,
        };
        assert_eq!(i.to_string(), "LDR X5, [X2, #0]");
        assert_eq!(Inst::SpecBarrier.to_string(), "CSDB");
    }

    #[test]
    fn defs_and_uses_mirror_dest_and_sources() {
        let bl = Inst::Bl { target: 7 };
        assert_eq!(bl.defs(), vec![Reg::LR], "BL links into LR");
        assert!(bl.uses().is_empty());
        assert_eq!(Inst::Ret.uses(), vec![Reg::LR], "RET consumes LR");
        assert!(Inst::Ret.defs().is_empty());
        let st = Inst::StrIdx {
            src: Reg::X1,
            base: Reg::X2,
            index: Reg::X3,
            width: MemWidth::B8,
        };
        assert_eq!(st.uses(), st.sources());
        assert!(st.defs().is_empty());
    }

    #[test]
    fn addr_operands_cover_every_data_access_shape() {
        let ld = Inst::Ldr {
            dst: Reg::X5,
            base: Reg::X2,
            offset: 8,
            width: MemWidth::B1,
        };
        assert_eq!(ld.addr_operands(), Some((Reg::X2, None, 8)));
        assert_eq!(ld.access_width(), Some(1));
        let li = Inst::LdrIdx {
            dst: Reg::X5,
            base: Reg::X2,
            index: Reg::X0,
            width: MemWidth::B8,
        };
        assert_eq!(li.addr_operands(), Some((Reg::X2, Some(Reg::X0), 0)));
        let stg = Inst::Stg {
            base: Reg::X6,
            offset: 16,
        };
        assert_eq!(stg.addr_operands(), Some((Reg::X6, None, 16)));
        assert_eq!(stg.access_width(), Some(16));
        // Cache maintenance carries an address but is not a data access.
        assert_eq!(
            Inst::Flush {
                base: Reg::X9,
                offset: 0
            }
            .addr_operands(),
            None
        );
        assert_eq!(Inst::Nop.addr_operands(), None);
    }

    #[test]
    fn target_reports_direct_branches_only() {
        assert_eq!(Inst::B { target: 3 }.target(), Some(3));
        assert_eq!(
            Inst::Cbnz {
                reg: Reg::X0,
                target: 9
            }
            .target(),
            Some(9)
        );
        assert_eq!(Inst::Br { reg: Reg::X7 }.target(), None);
        assert_eq!(Inst::Halt.target(), None);
    }
}
