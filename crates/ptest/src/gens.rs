//! Domain generators for the SpecASan workspace: MTE tags, tagged virtual
//! addresses, random-but-terminating SAS-IR programs, and escape-heavy text.

use crate::gen::{self, Gen};
use sas_isa::{AluOp, Cond, Inst, MemWidth, Operand, Program, ProgramBuilder, Reg, TagNibble, VirtAddr};

/// Any of the sixteen MTE tags.
///
/// ```
/// use sas_ptest::{gens, Rng};
/// let t = gens::tag_nibble().sample(&mut Rng::new(1));
/// assert!(t.value() < 16);
/// ```
pub fn tag_nibble() -> Gen<TagNibble> {
    gen::u8s(0..16).map(TagNibble::new)
}

/// A non-zero MTE tag (tag 0 is the untagged/match-all colour).
///
/// ```
/// use sas_ptest::{gens, Rng};
/// let mut rng = Rng::new(2);
/// for _ in 0..64 {
///     assert_ne!(gens::nonzero_tag().sample(&mut rng).value(), 0);
/// }
/// ```
pub fn nonzero_tag() -> Gen<TagNibble> {
    gen::u8s(1..16).map(TagNibble::new)
}

/// A non-zero tag different from `other` — the constructive form of
/// "assume the key mismatches the lock".
pub fn nonzero_tag_not(other: TagNibble) -> Gen<TagNibble> {
    gen::u8s(0..14).map(move |d| {
        let v = 1 + (other.value() - 1 + 1 + d) % 15;
        TagNibble::new(v)
    })
}

/// Text that stresses JSON string escaping: up to `max_len` chars drawn
/// from the C0 controls, `"`, `\`, printable ASCII, and 2-, 3- and 4-byte
/// UTF-8 scalars.
///
/// ```
/// use sas_ptest::{gens, Rng};
/// let s = gens::escape_text(16).sample(&mut Rng::new(9));
/// assert!(s.chars().count() <= 16);
/// ```
pub fn escape_text(max_len: usize) -> Gen<String> {
    let scalar = gen::frequency(vec![
        (2, gen::u32s(0..0x20)),
        (1, gen::select(vec!['"' as u32, '\\' as u32])),
        (3, gen::u32s(0x20..0x7f)),
        (1, gen::u32s(0x80..0x800)),
        (1, gen::u32s(0x800..0xd800)),
        (1, gen::u32s(0x1_0000..0x11_0000)),
    ])
    .map(|cp| char::from_u32(cp).expect("surrogates are never drawn"));
    gen::vec_of(&scalar, 0..max_len + 1).map(|cs| cs.into_iter().collect())
}

/// An address whose untagged part lies in `range`.
///
/// ```
/// use sas_ptest::{gens, Rng};
/// let a = gens::virt_addr_in(0x1000..0x2000).sample(&mut Rng::new(3));
/// assert!((0x1000..0x2000).contains(&a.raw()));
/// ```
pub fn virt_addr_in(range: std::ops::Range<u64>) -> Gen<VirtAddr> {
    gen::u64s(range).map(VirtAddr::new)
}

/// An address in `range`, rounded down to a multiple of `align` (which must
/// be a power of two).
///
/// ```
/// use sas_ptest::{gens, Rng};
/// let a = gens::aligned_addr_in(0..0x10000, 64).sample(&mut Rng::new(4));
/// assert_eq!(a.raw() % 64, 0);
/// ```
pub fn aligned_addr_in(range: std::ops::Range<u64>, align: u64) -> Gen<VirtAddr> {
    assert!(align.is_power_of_two(), "alignment must be a power of two");
    gen::u64s(range).map(move |a| VirtAddr::new(a & !(align - 1)))
}

/// Base of the scratch data segment that [`terminating_program`] programs
/// read and write (mirrors the golden-model differential test setup).
pub const PROGRAM_MEM_BASE: u64 = 0x4000;
const PROGRAM_MEM_MASK: u64 = 0x3F8; // 128 x 8-byte slots

/// One random instruction over a small register window at position `pos` of
/// a `len`-instruction body; branches only jump forward so any instruction
/// stream terminates.
fn program_inst(pos: usize, len: usize) -> Gen<Inst> {
    // Destinations avoid x6/x7, which hold the scratch-memory base pointers
    // (overwriting them would turn loads into wild accesses).
    let dst = || gen::u8s(0..6).map(Reg::x);
    let reg = || gen::u8s(0..8).map(Reg::x);
    let operand = || {
        gen::one_of(vec![
            gen::u64s(0..1024).map(Operand::Imm),
            gen::u8s(0..8).map(|r| Operand::Reg(Reg::x(r))),
        ])
    };
    let fwd = || gen::usizes((pos + 1)..(len + 1)); // may jump to the final HALT slot
    gen::frequency(vec![
        (
            4,
            gen::select(vec![
                AluOp::Add,
                AluOp::Sub,
                AluOp::And,
                AluOp::Orr,
                AluOp::Eor,
                AluOp::Lsl,
                AluOp::Lsr,
                AluOp::Mul,
                AluOp::UDiv,
            ])
            .zip(&dst().zip(&reg()).zip(&operand()))
            .map(|(op, ((dst, lhs), rhs))| Inst::Alu { op, dst, lhs, rhs }),
        ),
        (
            1,
            dst()
                .zip(&gen::u16_any().zip(&gen::u8s(0..4)))
                .map(|(dst, (imm, shift))| Inst::MovZ { dst, imm, shift }),
        ),
        (
            1,
            dst()
                .zip(&gen::u16_any().zip(&gen::u8s(0..4)))
                .map(|(dst, (imm, shift))| Inst::MovK { dst, imm, shift }),
        ),
        (1, reg().zip(&operand()).map(|(lhs, rhs)| Inst::Cmp { lhs, rhs })),
        (
            2,
            dst().zip(&gen::u64s(0..8)).map(|(dst, slot)| Inst::Ldr {
                dst,
                base: Reg::X6, // rewritten below; kept well-formed here
                offset: (slot * 8) as i64,
                width: MemWidth::B8,
            }),
        ),
        (
            2,
            reg().zip(&gen::u64s(0..8)).map(|(src, slot)| Inst::Str {
                src,
                base: Reg::X6,
                offset: (slot * 8) as i64,
                width: MemWidth::B8,
            }),
        ),
        (
            1,
            gen::select(vec![Cond::Eq, Cond::Ne, Cond::Lo, Cond::Hs, Cond::Lt, Cond::Ge])
                .zip(&fwd())
                .map(|(cond, target)| Inst::BCond { cond, target }),
        ),
        (1, reg().zip(&fwd()).map(|(reg, target)| Inst::Cbz { reg, target })),
        (1, reg().zip(&fwd()).map(|(reg, target)| Inst::Cbnz { reg, target })),
    ])
}

/// A random SAS-IR program that always terminates: a two-instruction
/// preamble loads scratch-memory base pointers into x6/x7, the body uses
/// only forward branches, and a final `HALT` closes the stream. Loads and
/// stores are clamped into a 512-byte scratch data segment at
/// [`PROGRAM_MEM_BASE`].
///
/// ```
/// use sas_ptest::{gens, Rng};
/// let p = gens::terminating_program(8..40).sample(&mut Rng::new(5));
/// assert!(p.len() >= 8 + 3); // preamble + body + HALT
/// ```
pub fn terminating_program(body_len: std::ops::Range<usize>) -> Gen<Program> {
    gen::usizes(body_len).flat_map(|len| {
        Gen::from_fn(move |rng| {
            let mut asm = ProgramBuilder::new();
            // Base registers point into a small scratch buffer so loads and
            // stores land in a bounded region.
            asm.mov_imm64(Reg::x(6), PROGRAM_MEM_BASE);
            asm.mov_imm64(Reg::x(7), PROGRAM_MEM_BASE + 0x100);
            let preamble = asm.here();
            assert_eq!(preamble, 2);
            for pos in 0..len {
                let mut inst = program_inst(pos + 2, len + 2).sample(rng);
                // Clamp memory bases: force base registers to x6/x7 and mask
                // offsets into the scratch window.
                match &mut inst {
                    Inst::Ldr { base, offset, .. } | Inst::Str { base, offset, .. } => {
                        *base = if (*offset / 8) % 2 == 0 { Reg::x(6) } else { Reg::x(7) };
                        *offset &= PROGRAM_MEM_MASK as i64;
                    }
                    _ => {}
                }
                asm.push(inst);
            }
            asm.halt();
            asm.data_segment(PROGRAM_MEM_BASE, vec![0xA5; 0x200]);
            asm.build().expect("generated programs always assemble")
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn nonzero_tag_not_covers_all_other_tags() {
        for other in 1u8..16 {
            let g = nonzero_tag_not(TagNibble::new(other));
            let mut rng = Rng::new(other as u64);
            let mut seen = [false; 16];
            for _ in 0..500 {
                let t = g.sample(&mut rng);
                assert_ne!(t.value(), 0);
                assert_ne!(t.value(), other);
                seen[t.value() as usize] = true;
            }
            let covered = seen.iter().filter(|&&s| s).count();
            assert_eq!(covered, 14, "all 14 legal tags reachable");
        }
    }

    #[test]
    fn programs_halt_within_their_length_bound() {
        // Every branch is forward, so the program counter strictly
        // increases between branch targets; len + 3 slots bound the walk.
        let g = terminating_program(8..32);
        let mut rng = Rng::new(77);
        for _ in 0..20 {
            let p = g.sample(&mut rng);
            let last = p.fetch(p.len() - 1).unwrap();
            assert_eq!(last, Inst::Halt);
            // All branch targets stay inside the program.
            for pc in 0..p.len() {
                if let Some(
                    Inst::B { target }
                    | Inst::BCond { target, .. }
                    | Inst::Cbz { target, .. }
                    | Inst::Cbnz { target, .. },
                ) = p.fetch(pc)
                {
                    assert!(target < p.len(), "target {target} out of range");
                    assert!(target > pc, "only forward branches");
                }
            }
        }
    }
}
