//! Gadget scenario shapes and their randomized generators.
//!
//! Each [`ShapeKind`] is a composable family of SAS-IR programs with a
//! declared [`Intent`]: what the *generator* knows about the program's
//! dynamic behaviour by construction. The differential loop then checks the
//! static analyzer against both the declared intent and the observed run.
//!
//! Generator safety invariant: no shape ever architecturally computes
//! `probe[secret << 6]` except the intentionally leaky ones — otherwise a
//! benign program would light the leak oracle and masquerade as a
//! soundness bug.

use sas_attacks::layout::{self, PROBE, SIZE_ADDR};
use sas_attacks::meltdown::KERNEL_SECRET_ADDR;
use sas_isa::{Cond, Operand, Program, ProgramBuilder, Reg, TagNibble, VirtAddr};
use sas_ptest::{gen, Rng};
use specasan::SimConfig;

/// Untagged base of the scratch region noise programs read (`+0x00..0x7F`)
/// and write (`+0x80..0xFF`). Loads and stores are kept page-offset-disjoint
/// so a store-to-load hazard can never justify a static flag on them.
pub const NOISE_BASE: u64 = 0x5000;
/// First slot of the distant-store shape (untagged, outside every granule).
pub const DISTANT_SLOT_A: u64 = 0x5200;
/// Second, page-offset-disjoint slot of the distant-store shape.
pub const DISTANT_SLOT_B: u64 = 0x5210;

/// What the generator guarantees about a shape's dynamic behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intent {
    /// Built to leak the secret on the unsafe baseline.
    Leaky,
    /// Built to be leak-free on every schedule (no secret dataflow exists).
    Safe,
    /// The gadget is real but its trigger input is benign in this concrete
    /// run (the attacker register is 0 at entry) — the documented ◑ case.
    Latent,
}

impl Intent {
    /// Stable token used in corpus directives.
    pub fn token(self) -> &'static str {
        match self {
            Intent::Leaky => "leaky",
            Intent::Safe => "safe",
            Intent::Latent => "latent",
        }
    }

    /// Parses [`Intent::token`].
    pub fn parse(s: &str) -> Option<Intent> {
        Some(match s {
            "leaky" => Intent::Leaky,
            "safe" => Intent::Safe,
            "latent" => Intent::Latent,
            _ => return None,
        })
    }
}

/// The gadget families the fuzzer composes programs from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShapeKind {
    /// Randomized Spectre-v1: PHT mistraining + out-of-bounds double load.
    BcbLeak,
    /// The same bounds-check-bypass with a `CSDB` after the guard.
    BcbCsdb,
    /// Bounds-check bypass whose index is clamped with `AND #mask` — the
    /// canonical branchless v1 mitigation; safe on every schedule.
    BcbMasked,
    /// Unmasked attacker-index gadget whose input is benign this run.
    BcbLatent,
    /// In-bounds loop over the tagged public array, result transmitted.
    InboundsWalk,
    /// Valid-key, in-bounds MTE load under an open window, transmitted.
    MteChecked,
    /// Wrong-key constant pointer dereferences the secret, transmitted.
    MteViolating,
    /// Meltdown-style faulting load of the protected kernel byte.
    FaultProtected,
    /// Randomized Spectre-v4: store with a late-resolving address bypassed
    /// by a load of the stale (planted) secret.
    StlLeak,
    /// A store whose forwarding window has long expired when a younger
    /// store refreshes the (pre-refinement) global STL window.
    StlDistant,
    /// Branchy ALU/load/store soup over untagged scratch memory.
    Noise,
}

/// Every shape, in a stable order.
pub const ALL_SHAPES: [ShapeKind; 11] = [
    ShapeKind::BcbLeak,
    ShapeKind::BcbCsdb,
    ShapeKind::BcbMasked,
    ShapeKind::BcbLatent,
    ShapeKind::InboundsWalk,
    ShapeKind::MteChecked,
    ShapeKind::MteViolating,
    ShapeKind::FaultProtected,
    ShapeKind::StlLeak,
    ShapeKind::StlDistant,
    ShapeKind::Noise,
];

impl ShapeKind {
    /// Stable kebab-case token used in corpus directives and reports.
    pub fn token(self) -> &'static str {
        match self {
            ShapeKind::BcbLeak => "bcb-leak",
            ShapeKind::BcbCsdb => "bcb-csdb",
            ShapeKind::BcbMasked => "bcb-masked",
            ShapeKind::BcbLatent => "bcb-latent",
            ShapeKind::InboundsWalk => "inbounds-walk",
            ShapeKind::MteChecked => "mte-checked",
            ShapeKind::MteViolating => "mte-violating",
            ShapeKind::FaultProtected => "fault-protected",
            ShapeKind::StlLeak => "stl-leak",
            ShapeKind::StlDistant => "stl-distant",
            ShapeKind::Noise => "noise",
        }
    }

    /// Parses [`ShapeKind::token`].
    pub fn parse(s: &str) -> Option<ShapeKind> {
        ALL_SHAPES.into_iter().find(|k| k.token() == s)
    }

    /// The intent the generator declares for this family.
    pub fn intent(self) -> Intent {
        match self {
            ShapeKind::BcbLeak
            | ShapeKind::MteViolating
            | ShapeKind::FaultProtected
            | ShapeKind::StlLeak => Intent::Leaky,
            ShapeKind::BcbLatent => Intent::Latent,
            ShapeKind::BcbCsdb
            | ShapeKind::BcbMasked
            | ShapeKind::InboundsWalk
            | ShapeKind::MteChecked
            | ShapeKind::StlDistant
            | ShapeKind::Noise => Intent::Safe,
        }
    }
}

/// One synthesized differential test case.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The family this program was drawn from.
    pub kind: ShapeKind,
    /// The generator's behavioural claim.
    pub intent: Intent,
    /// The program both sides of the differential run.
    pub program: Program,
    /// Instruction indices ddmin must not NOP out: the safety skeleton
    /// (guards, masks, barriers, pointer setup) that makes a safe shape
    /// safe. Without this, the shrinker could strip the mitigation itself
    /// and turn a spurious-flag counterexample into a genuine latent
    /// gadget that no precision fix could ever accept.
    pub pinned: Vec<usize>,
}

/// A generated program plus its shrink-pinned safety skeleton.
type Shaped = (Program, Vec<usize>);

fn array1_tagged() -> VirtAddr {
    VirtAddr::new(layout::ARRAY1).with_key(TagNibble::new(layout::ARRAY1_KEY))
}

/// `X2` = data pointer, `X0` = index, `X3` = probe base (the shared
/// attack-suite convention).
fn cache_gadget(asm: &mut ProgramBuilder) {
    asm.ldrb_idx(Reg::X5, Reg::X2, Reg::X0);
    asm.lsl(Reg::X6, Reg::X5, Operand::imm(6));
    asm.ldrb_idx(Reg::X8, Reg::X3, Reg::X6);
}

/// Transmit chain for an already-loaded value in `X5`.
fn transmit(asm: &mut ProgramBuilder) {
    asm.lsl(Reg::X6, Reg::X5, Operand::imm(6));
    asm.ldrb_idx(Reg::X8, Reg::X3, Reg::X6);
}

/// Randomized Spectre-v1 skeleton; `barrier_after_guard` turns it into the
/// fenced (safe) variant.
fn bcb_program(cfg: &SimConfig, rng: &mut Rng, barrier_after_guard: bool) -> Shaped {
    let pht = cfg.core.pht_entries;
    let train = gen::u64s(8..17).sample(rng) as u16;
    let pre_noise = rng.below(4);
    let mut asm = ProgramBuilder::new();
    let mut pinned = Vec::new();
    let setup = asm.here();
    asm.mov_imm64(Reg::X9, SIZE_ADDR);
    asm.mov_imm64(Reg::X2, array1_tagged().raw());
    asm.mov_imm64(Reg::X3, PROBE);
    pinned.extend(setup..asm.here());
    // Victim warm-up: the secret's line is hot from a legitimate access.
    asm.mov_imm64(Reg::X11, layout::secret_ptr_valid().raw());
    asm.ldrb(Reg::X12, Reg::X11, 0);
    for _ in 0..pre_noise {
        asm.nop();
    }
    // Training: fast in-bounds passes saturate the PHT entry. The whole
    // block is pinned: stripping just the index mov (or just the guard)
    // would leave the training load reading through an undefined index —
    // a brand-new latent gadget the original program never contained.
    let training = asm.here();
    asm.movz(Reg::X10, train, 0);
    asm.movz(Reg::X0, 0, 0);
    let top = asm.here();
    asm.ldr(Reg::X1, Reg::X9, 0);
    asm.cmp(Reg::X0, Operand::reg(Reg::X1));
    let train_branch_pc = asm.here();
    let skip = asm.new_label();
    asm.b_cond(Cond::Hs, skip);
    cache_gadget(&mut asm);
    asm.bind(skip);
    asm.sub(Reg::X10, Reg::X10, Operand::imm(1));
    asm.cbnz_idx(Reg::X10, top);
    pinned.extend(training..asm.here());
    // The bounds variable now misses to DRAM.
    asm.flush(Reg::X9, 0);
    // The attack branch must alias the trained PHT slot: `+3` counts the
    // index mov, the slow size load, and the compare before the branch.
    while (asm.here() + 3) % pht != train_branch_pc % pht {
        asm.nop();
    }
    let attack = asm.here();
    if barrier_after_guard {
        // The fenced variant keeps its index architecturally in bounds, so
        // the barrier is the load-bearing mitigation: without it the
        // in-window load would be flagged, with it the program is clean.
        // (An out-of-bounds constant index would point the gadget at the
        // secret granule with the wrong key — a genuine tag-violation
        // finding no precision fix should ever suppress.)
        asm.movz(Reg::X0, 0, 0);
    } else {
        asm.mov_imm64(Reg::X0, layout::SECRET_ADDR - layout::ARRAY1);
    }
    asm.ldr(Reg::X1, Reg::X9, 0);
    asm.cmp(Reg::X0, Operand::reg(Reg::X1));
    let end = asm.new_label();
    asm.b_cond(Cond::Hs, end);
    if barrier_after_guard {
        asm.spec_barrier();
    }
    cache_gadget(&mut asm);
    pinned.extend(attack..asm.here());
    asm.bind(end);
    asm.halt();
    (asm.build().expect("bcb shape assembles"), pinned)
}

/// Guarded gadget fed straight from the attacker register; `mask` clamps
/// the index first (`None` = the latent, unmasked form).
fn guarded_attacker_gadget(rng: &mut Rng, mask: Option<u64>) -> Shaped {
    let mut asm = ProgramBuilder::new();
    let mut pinned = Vec::new();
    let setup = asm.here();
    asm.mov_imm64(Reg::X9, SIZE_ADDR);
    asm.mov_imm64(Reg::X2, array1_tagged().raw());
    asm.mov_imm64(Reg::X3, PROBE);
    if let Some(m) = mask {
        asm.and(Reg::X0, Reg::X0, Operand::imm(m));
    }
    pinned.extend(setup..asm.here());
    for _ in 0..rng.below(3) {
        asm.nop();
    }
    let guard = asm.here();
    asm.ldr(Reg::X1, Reg::X9, 0);
    asm.cmp(Reg::X0, Operand::reg(Reg::X1));
    let end = asm.new_label();
    asm.b_cond(Cond::Hs, end);
    cache_gadget(&mut asm);
    pinned.extend(guard..asm.here());
    asm.bind(end);
    asm.halt();
    (asm.build().expect("guarded gadget assembles"), pinned)
}

fn inbounds_walk(rng: &mut Rng) -> Shaped {
    let n = gen::u64s(2..9).sample(rng);
    let mut asm = ProgramBuilder::new();
    asm.mov_imm64(Reg::X2, array1_tagged().raw());
    asm.mov_imm64(Reg::X3, PROBE);
    asm.movz(Reg::X1, 0, 0);
    let top = asm.here();
    // In-loop clamp: the branchless mitigation keeps even a transiently
    // overrun counter inside the granule, and gives the analyzer a
    // data-op bound that survives widening across the backedge.
    asm.and(Reg::X7, Reg::X1, Operand::imm(7));
    asm.ldrb_idx(Reg::X5, Reg::X2, Reg::X7);
    asm.eor(Reg::X4, Reg::X4, Operand::reg(Reg::X5));
    asm.add(Reg::X1, Reg::X1, Operand::imm(1));
    asm.cmp(Reg::X1, Operand::imm(n));
    asm.b_cond_idx(Cond::Lo, top);
    // Transmit the (public) accumulated value.
    asm.lsl(Reg::X6, Reg::X4, Operand::imm(6));
    asm.ldrb_idx(Reg::X8, Reg::X3, Reg::X6);
    let len = asm.here();
    asm.halt();
    // The whole walk is skeleton: dropping the bound or the base would
    // manufacture an unrelated (and genuinely unsafe) program.
    (asm.build().expect("inbounds walk assembles"), (0..len).collect())
}

fn mte_checked(rng: &mut Rng) -> Shaped {
    let i = rng.below(8) as i64;
    let mut asm = ProgramBuilder::new();
    asm.mov_imm64(Reg::X9, SIZE_ADDR);
    asm.mov_imm64(Reg::X2, array1_tagged().raw());
    asm.mov_imm64(Reg::X3, PROBE);
    asm.ldr(Reg::X1, Reg::X9, 0);
    asm.cmp(Reg::X1, Operand::imm(0));
    let end = asm.new_label();
    asm.b_cond(Cond::Eq, end); // size != 0: falls through, window opens
    asm.ldrb(Reg::X5, Reg::X2, i); // checked, in-bounds, key == lock
    transmit(&mut asm);
    let len = asm.here();
    asm.bind(end);
    asm.halt();
    (asm.build().expect("mte-checked assembles"), (0..len).collect())
}

fn mte_violating(rng: &mut Rng) -> Program {
    // Any non-zero key except the secret's own: the access is checked and
    // mismatches, which is exactly what the analyzer's fault model flags.
    let key = sas_ptest::gens::nonzero_tag_not(TagNibble::new(layout::SECRET_KEY)).sample(rng);
    let ptr = VirtAddr::new(layout::SECRET_ADDR).with_key(key);
    let mut asm = ProgramBuilder::new();
    asm.mov_imm64(Reg::X3, PROBE);
    asm.mov_imm64(Reg::X2, ptr.raw());
    for _ in 0..rng.below(3) {
        asm.nop();
    }
    asm.ldrb(Reg::X5, Reg::X2, 0);
    transmit(&mut asm);
    asm.halt();
    asm.build().expect("mte-violating assembles")
}

fn fault_protected(rng: &mut Rng) -> Program {
    let mut asm = ProgramBuilder::new();
    asm.mov_imm64(Reg::X3, PROBE);
    asm.mov_imm64(Reg::X16, KERNEL_SECRET_ADDR);
    for _ in 0..rng.below(4) {
        asm.nop();
    }
    asm.ldrb(Reg::X5, Reg::X16, 0); // faults at retirement
    transmit(&mut asm);
    asm.halt();
    asm.build().expect("fault-protected assembles")
}

fn stl_leak(rng: &mut Rng) -> Program {
    let slot_ptr = VirtAddr::new(sas_attacks::spectre::STL_SLOT)
        .with_key(TagNibble::new(sas_attacks::spectre::STL_SLOT_KEY));
    let drain = gen::u64s(22..33).sample(rng);
    let mut asm = ProgramBuilder::new();
    asm.mov_imm64(Reg::X3, PROBE);
    // Warm the victim slot so the bypassing load hits L1.
    asm.mov_imm64(Reg::X16, slot_ptr.raw());
    asm.ldrb(Reg::X12, Reg::X16, 0);
    // The store's address arrives late: loaded from a flushed slot.
    asm.mov_imm64(Reg::X13, layout::PTR_SLOT);
    asm.flush(Reg::X13, 0);
    asm.movz(Reg::X15, 1, 0);
    for _ in 0..drain {
        asm.nop(); // let the flush commit
    }
    asm.ldr(Reg::X14, Reg::X13, 0); // slow: X14 = slot pointer
    asm.str(Reg::X15, Reg::X14, 0); // overwrite the stale secret
    asm.ldrb(Reg::X5, Reg::X16, 0); // bypassing load reads stale SECRET
    transmit(&mut asm);
    asm.halt();
    asm.build().expect("stl-leak assembles")
}

fn stl_distant(rng: &mut Rng) -> Shaped {
    let v = 1 + rng.below(3) as u16; // benign value, probe line != secret's
    let filler = 72 + rng.below(17); // > the 64-instruction window
    let mut asm = ProgramBuilder::new();
    let mut pinned = Vec::new();
    let setup = asm.here();
    asm.mov_imm64(Reg::X3, PROBE);
    asm.mov_imm64(Reg::X13, DISTANT_SLOT_A);
    asm.mov_imm64(Reg::X14, DISTANT_SLOT_B);
    asm.movz(Reg::X15, v, 0);
    asm.str(Reg::X15, Reg::X13, 0); // store A: drained long before the load
    pinned.extend(setup..asm.here());
    for _ in 0..filler {
        asm.nop();
    }
    let tail = asm.here();
    asm.str(Reg::X15, Reg::X14, 0); // store B: disjoint, refreshes nothing
    asm.ldr(Reg::X5, Reg::X13, 0); // reads A's committed value
    transmit(&mut asm);
    pinned.extend(tail..asm.here());
    asm.halt();
    (asm.build().expect("stl-distant assembles"), pinned)
}

fn noise(rng: &mut Rng) -> Shaped {
    let len = gen::u64s(6..18).sample(rng);
    let mut asm = ProgramBuilder::new();
    asm.mov_imm64(Reg::X2, NOISE_BASE);
    asm.mov_imm64(Reg::X3, PROBE);
    let end = asm.new_label();
    for _ in 0..len {
        match rng.below(6) {
            0 => {
                asm.ldr(Reg::X5, Reg::X2, (rng.below(16) * 8) as i64);
            }
            1 => {
                asm.str(Reg::X4, Reg::X2, 0x80 + (rng.below(16) * 8) as i64);
            }
            2 => {
                asm.add(Reg::X4, Reg::X4, Operand::imm(rng.below(64)));
            }
            3 => {
                asm.eor(Reg::X4, Reg::X4, Operand::reg(Reg::X5));
            }
            4 => {
                asm.mul(Reg::X7, Reg::X4, Operand::reg(Reg::X5));
            }
            _ => {
                asm.cmp(Reg::X4, Operand::imm(rng.below(8)));
                asm.b_cond(Cond::Eq, end);
            }
        }
    }
    if rng.chance(0.5) {
        transmit(&mut asm); // all scratch slots read as zero / benign
    }
    asm.bind(end);
    let len = asm.here();
    asm.halt();
    // Noise bodies are entirely skeleton: every load slot is disjoint from
    // every store slot by construction, and NOPping a store could not make
    // the program safer anyway.
    (asm.build().expect("noise assembles"), (0..len).collect())
}

/// Builds one program of the given family from the PRNG stream. Leaky and
/// latent shapes pin nothing: their shrink invariant (the leak, or the
/// flag) is checked directly by the ddmin probe.
pub fn build_shape(kind: ShapeKind, cfg: &SimConfig, rng: &mut Rng) -> Shaped {
    match kind {
        ShapeKind::BcbLeak => (bcb_program(cfg, rng, false).0, Vec::new()),
        ShapeKind::BcbCsdb => bcb_program(cfg, rng, true),
        ShapeKind::BcbMasked => {
            let mask = gen::select(vec![1u64, 3, 7]).sample(rng);
            guarded_attacker_gadget(rng, Some(mask))
        }
        ShapeKind::BcbLatent => guarded_attacker_gadget(rng, None),
        ShapeKind::InboundsWalk => inbounds_walk(rng),
        ShapeKind::MteChecked => mte_checked(rng),
        ShapeKind::MteViolating => (mte_violating(rng), Vec::new()),
        ShapeKind::FaultProtected => (fault_protected(rng), Vec::new()),
        ShapeKind::StlLeak => (stl_leak(rng), Vec::new()),
        ShapeKind::StlDistant => stl_distant(rng),
        ShapeKind::Noise => noise(rng),
    }
}

/// Samples a whole scenario: shape family (weighted toward the precision-
/// sensitive safe shapes), then its randomized program.
pub fn gen_scenario(cfg: &SimConfig, rng: &mut Rng) -> Scenario {
    let kind = gen::frequency(vec![
        (2, gen::Gen::constant(ShapeKind::BcbLeak)),
        (2, gen::Gen::constant(ShapeKind::BcbCsdb)),
        (3, gen::Gen::constant(ShapeKind::BcbMasked)),
        (2, gen::Gen::constant(ShapeKind::BcbLatent)),
        (3, gen::Gen::constant(ShapeKind::InboundsWalk)),
        (3, gen::Gen::constant(ShapeKind::MteChecked)),
        (2, gen::Gen::constant(ShapeKind::MteViolating)),
        (1, gen::Gen::constant(ShapeKind::FaultProtected)),
        (2, gen::Gen::constant(ShapeKind::StlLeak)),
        (3, gen::Gen::constant(ShapeKind::StlDistant)),
        (3, gen::Gen::constant(ShapeKind::Noise)),
    ])
    .sample(rng);
    let (program, pinned) = build_shape(kind, cfg, rng);
    Scenario { kind, intent: kind.intent(), program, pinned }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_tokens_round_trip() {
        for k in ALL_SHAPES {
            assert_eq!(ShapeKind::parse(k.token()), Some(k));
        }
        assert_eq!(ShapeKind::parse("no-such-shape"), None);
        for i in [Intent::Leaky, Intent::Safe, Intent::Latent] {
            assert_eq!(Intent::parse(i.token()), Some(i));
        }
    }

    #[test]
    fn every_shape_assembles_and_terminates_with_halt() {
        let cfg = SimConfig::table2();
        let mut rng = Rng::new(0x5a5a_0001);
        for k in ALL_SHAPES {
            for _ in 0..8 {
                let (p, pinned) = build_shape(k, &cfg, &mut rng);
                assert!(!p.is_empty(), "{k:?}");
                assert!(
                    p.insts().contains(&sas_isa::Inst::Halt),
                    "{k:?} program lacks a HALT"
                );
                for &i in &pinned {
                    assert!(i < p.len(), "{k:?} pins out-of-range index {i}");
                }
            }
        }
    }

    #[test]
    fn safe_shapes_pin_their_safety_skeleton() {
        let cfg = SimConfig::table2();
        let mut rng = Rng::new(0x5a5a_0002);
        for k in ALL_SHAPES {
            let (_, pinned) = build_shape(k, &cfg, &mut rng);
            if k.intent() == Intent::Safe {
                assert!(!pinned.is_empty(), "{k:?} declares safe but pins nothing");
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = SimConfig::table2();
        let a = gen_scenario(&cfg, &mut Rng::new(77)).program.to_sasm();
        let b = gen_scenario(&cfg, &mut Rng::new(77)).program.to_sasm();
        assert_eq!(a, b);
    }
}
