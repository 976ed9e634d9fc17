//! Seeded fault-injection campaigns, as a library.
//!
//! One 64-bit seed derives everything about a campaign — the victim program,
//! the fault plan, the mitigation under test — so `sas-runner chaos`
//! campaigns, single `sas-runner run --cells chaos/<seed>` replays and repro
//! bundles all replay the *same* campaign from the same seed through this
//! one code path.
//!
//! A campaign run is judged on four contracts (see [`judge`]):
//!
//! * every injected *corruption* (tag flip, architectural bit flip, dropped
//!   fill, snapshot-byte flip) is caught — by an oracle divergence, a fault,
//!   the deadlock detector, a snapshot CRC rejection, or the post-run
//!   memory/tag audit; a corruption that produces a clean halt and a clean
//!   audit is a **silent escape** and fails the campaign;
//! * every injected *perturbation* (forced mispredicts, squash storms) is
//!   architecturally invisible: the run must halt cleanly and match the
//!   oracle exactly;
//! * every campaign replays bit-for-bit from its seed (the contract
//!   `SAS_FAULT_SEED` and crash dumps rely on);
//! * no panic escapes the `SimError` path.

use crate::mitigation::Mitigation;
use crate::simulator::Simulator;
use sas_isa::{Cond, Operand, Program, ProgramBuilder, Reg};
use sas_pipeline::{FaultPlan, InjectionPoint, RunExit};
use sas_ptest::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Scratch window every campaign program works in.
pub const BASE: u64 = 0x4000;
/// Window length: 64 8-byte slots, 32 tag granules, 8 cache lines.
pub const LEN: u64 = 0x200;
/// Tag colour the window is painted with before the run.
pub const WINDOW_TAG: u8 = 5;
/// Stores stay in the lower half; corruption targeting the upper half can
/// never be masked by a later architectural write, so detection is exact.
const STORE_HALF: u64 = 0x100;
/// Cycle budget of one campaign run.
pub const MAX_CYCLES: u64 = 2_000_000;

/// Fault classes, one per campaign, selected by `seed % 5`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Flip one stored tag nibble bit.
    TagFlip,
    /// Flip one architectural memory bit.
    ArchBitFlip,
    /// Drop one demand fill (the deadlock detector must trip).
    DroppedFill,
    /// Benign perturbations only (forced mispredicts, squash storms).
    Stressor,
    /// Flip one byte of a mid-run snapshot image; the restore path must
    /// reject it (CRC/structure), never resume from corrupted state.
    SnapCorrupt,
}

impl Class {
    /// The class campaign `seed` exercises.
    pub fn of(seed: u64) -> Class {
        match seed % 5 {
            0 => Class::TagFlip,
            1 => Class::ArchBitFlip,
            2 => Class::DroppedFill,
            3 => Class::Stressor,
            _ => Class::SnapCorrupt,
        }
    }

    /// Whether this class injects corruption that a detector must catch (as
    /// opposed to benign schedule perturbation).
    pub fn corrupting(self) -> bool {
        self != Class::Stressor
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Class::TagFlip => "tag_flip",
            Class::ArchBitFlip => "arch_bit_flip",
            Class::DroppedFill => "dropped_fill",
            Class::Stressor => "stressor",
            Class::SnapCorrupt => "snap_corrupt",
        }
    }
}

/// The mitigation campaign `seed` runs under.
pub fn mitigation_for(seed: u64) -> Mitigation {
    Mitigation::all()[((seed / 5) % 8) as usize]
}

/// The fault plan campaign `seed` arms.
pub fn plan_for(seed: u64, class: Class) -> FaultPlan {
    let p = FaultPlan::new(seed);
    match class {
        // Corruptions fire deterministically (rate 1000‰) exactly once, in
        // the read-only half of the window where no store can mask them.
        Class::TagFlip => p
            .enable(InjectionPoint::TagFlip, 1000, 1)
            .target_window(BASE + STORE_HALF, LEN - STORE_HALF),
        Class::ArchBitFlip => p
            .enable(InjectionPoint::ArchBitFlip, 1000, 1)
            .target_window(BASE + STORE_HALF, LEN - STORE_HALF),
        Class::DroppedFill => p.enable(InjectionPoint::MshrDropFill, 1000, 1),
        Class::Stressor => p
            .enable(InjectionPoint::ForceMispredict, 300, 16)
            .enable(InjectionPoint::SquashStorm, 100, 4),
        // The corruption hits the snapshot *image*, not the machine: no
        // pipeline injection points are armed.
        Class::SnapCorrupt => p,
    }
}

/// The seed of the `i`-th campaign in a default `sas-runner chaos` run: an
/// odd-multiplier walk that visits every class and mitigation residue.
/// (The multiplier must be coprime to 5 so the walk reaches every class.)
pub fn campaign_seed(i: u64) -> u64 {
    0xC4A0_5EEDu64.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C17))
}

/// A deterministic victim program: random ALU/memory traffic over the
/// scratch window, then two self-checking sweeps — an 8-byte XOR checksum
/// of every slot and an LDG XOR checksum of every granule's allocation tag.
/// The sweeps guarantee every corrupted byte and tag is re-read before HALT,
/// and the oracle cross-checks each retired value in lockstep.
pub fn campaign_program(seed: u64) -> Program {
    let mut rng = Rng::new(seed);
    let mut asm = ProgramBuilder::new();
    asm.mov_imm64(Reg::x(6), BASE);
    for k in 0..24u64 {
        match rng.below(5) {
            0 => {
                let d = Reg::x(rng.below(4) as u8);
                asm.add(d, Reg::x(rng.below(4) as u8), Operand::Imm(rng.below(256)));
            }
            1 => {
                let d = Reg::x(rng.below(4) as u8);
                asm.eor(d, Reg::x(rng.below(4) as u8), Operand::Imm(rng.below(256)));
            }
            2 => {
                let slot = rng.below(64) * 8;
                asm.ldr(Reg::x(rng.below(4) as u8), Reg::x(6), slot as i64);
            }
            3 => {
                // Stores stay below STORE_HALF (see above).
                let slot = rng.below(STORE_HALF / 8) * 8;
                asm.str(Reg::x(rng.below(4) as u8), Reg::x(6), slot as i64);
            }
            _ => {
                asm.movz(Reg::x(rng.below(4) as u8), rng.below(0x10000) as u16, 0);
            }
        }
        if k % 6 == 5 {
            // A branch whose taken and fall-through targets coincide: it is
            // architecturally a no-op, but gives forced mispredictions and
            // squash storms real squashes to provoke.
            asm.cmp(Reg::x(rng.below(4) as u8), Operand::Imm(rng.below(128)));
            let next = asm.here() + 1;
            asm.b_cond_idx(Cond::Eq, next);
        }
    }
    // Data checksum: x0 = XOR of all 64 slots.
    asm.movz(Reg::x(0), 0, 0);
    for slot in 0..(LEN / 8) {
        asm.ldr(Reg::x(1), Reg::x(6), (slot * 8) as i64);
        asm.eor(Reg::x(0), Reg::x(0), Operand::Reg(Reg::x(1)));
    }
    // Tag checksum: x2 = XOR of all 32 granule tags.
    asm.mov_imm64(Reg::x(5), BASE);
    asm.movz(Reg::x(2), 0, 0);
    for _ in 0..(LEN / 16) {
        asm.ldg(Reg::x(3), Reg::x(5));
        asm.eor(Reg::x(2), Reg::x(2), Operand::Reg(Reg::x(3)));
        asm.add(Reg::x(5), Reg::x(5), Operand::Imm(16));
    }
    asm.halt();
    let fill: Vec<u8> = (0..LEN).map(|i| (i as u8).wrapping_mul(0xA5) ^ seed as u8).collect();
    asm.data_segment(BASE, fill);
    asm.build().expect("campaign programs always assemble")
}

/// Everything one campaign run is judged on — and everything that must be
/// identical when the campaign is replayed from its seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Stable exit tag (`halted`, `deadlock`, `divergence`, …).
    pub exit: &'static str,
    /// Simulated cycles.
    pub cycles: u64,
    /// Corruption injections that actually fired.
    pub corruptions: u64,
    /// Benign perturbation injections that fired.
    pub perturbations: u64,
    /// Whether the post-run byte+tag audit of the window came back clean.
    pub audit_clean: bool,
    /// Human diagnostic (divergence, fault or audit detail), if any.
    pub detail: String,
}

impl Outcome {
    /// An injected corruption was observed by *some* detector.
    pub fn detected(&self) -> bool {
        self.exit != "halted" || !self.audit_clean
    }
}

/// Stable tag naming how a run ended (the same scheme `sas_bench::jsonl`
/// uses; duplicated here because the core crate cannot depend on the bench
/// harness).
pub fn exit_tag(exit: &RunExit) -> &'static str {
    match exit {
        RunExit::Halted => "halted",
        RunExit::Faulted(_) => "faulted",
        RunExit::CycleLimit => "cycle_limit",
        RunExit::Deadlock(_) => "deadlock",
        RunExit::Divergence(_) => "divergence",
        RunExit::Error(_) => "error",
    }
}

/// Runs the campaign for `seed` once with the lockstep oracle attached and
/// the window audited afterwards.
pub fn run_campaign(seed: u64) -> Outcome {
    let class = Class::of(seed);
    match class {
        Class::SnapCorrupt => {
            run_snap_corrupt(seed, &campaign_program(seed), mitigation_for(seed))
        }
        _ => run_campaign_variant(
            &campaign_program(seed),
            &plan_for(seed, class),
            mitigation_for(seed),
        ),
    }
}

/// Runs a [`Class::SnapCorrupt`] campaign: drive the victim to a seeded
/// mid-run cycle, snapshot it, flip one seeded bit of the image, and demand
/// the restore path *reject* the damaged snapshot. A corrupt image that
/// restores without error is a silent escape — the restored machine would
/// diverge with no detector left to notice.
pub fn run_snap_corrupt(seed: u64, program: &Program, m: Mitigation) -> Outcome {
    let build = || {
        Simulator::builder()
            .mitigation(m)
            .program(program.clone())
            .tag_range(BASE, LEN, WINDOW_TAG)
            .oracle()
            .max_cycles(MAX_CYCLES)
            .build()
    };
    let mut rng = Rng::new(seed ^ 0x5A4A_C0DE);
    let cut = 1 + rng.below(256);
    let mut victim = build();
    victim.system_mut().run(cut);
    let mut bytes = victim.snapshot(false).to_bytes();
    let at = rng.below(bytes.len() as u64) as usize;
    let bit = rng.below(8) as u8;
    bytes[at] ^= 1 << bit;
    let rejection = match sas_snap::Snapshot::parse(bytes) {
        Err(e) => Some(e),
        Ok(snap) => build().restore(&snap).err(),
    };
    let cycles = victim.system().cycle();
    match rejection {
        Some(e) => Outcome {
            exit: "snap_rejected",
            cycles,
            corruptions: 1,
            perturbations: 0,
            audit_clean: true,
            detail: format!("byte {at} bit {bit}: {e}"),
        },
        None => Outcome {
            exit: "halted",
            cycles,
            corruptions: 1,
            perturbations: 0,
            audit_clean: true,
            detail: format!("byte {at} bit {bit}: corrupt snapshot restored without error"),
        },
    }
}

/// Runs one campaign with an explicit program and plan — the entry point the
/// failure shrinker probes with mutated candidates while everything else
/// stays bit-identical to [`run_campaign`].
pub fn run_campaign_variant(program: &Program, plan: &FaultPlan, m: Mitigation) -> Outcome {
    let mut sim = Simulator::builder()
        .mitigation(m)
        .program(program.clone())
        .tag_range(BASE, LEN, WINDOW_TAG)
        .fault_plan(plan.clone())
        .oracle()
        .max_cycles(MAX_CYCLES)
        .build();
    let rep = sim.run();
    let corruptions = sim.system().corruption_injections();
    let perturbations = sim.system().fault_injections();
    let oracle = sim.system().oracle().expect("oracle attached");
    let audit = oracle.audit_memory(sim.system().mem(), BASE, BASE + LEN);
    let detail = match (&rep.result.exit, &audit) {
        (RunExit::Divergence(d), _) => d.to_string(),
        (_, Err(d)) => format!("audit: {d}"),
        (RunExit::Faulted(f), _) => format!("{f:?}"),
        _ => String::new(),
    };
    Outcome {
        exit: exit_tag(&rep.result.exit),
        cycles: rep.result.cycles,
        corruptions,
        perturbations,
        audit_clean: audit.is_ok(),
        detail,
    }
}

/// Runs one campaign twice (run + replay) under a panic guard and returns
/// the failure reasons, if any. An empty vector means the campaign upheld
/// all four contracts.
pub fn judge(seed: u64) -> Vec<String> {
    let class = Class::of(seed);
    let mut failures = Vec::new();
    let run = |label: &str, failures: &mut Vec<String>| -> Option<Outcome> {
        match catch_unwind(AssertUnwindSafe(|| run_campaign(seed))) {
            Ok(o) => Some(o),
            Err(_) => {
                failures.push(format!(
                    "seed {seed:#x} ({}): PANIC escaped the SimError path on {label}",
                    class.name()
                ));
                None
            }
        }
    };
    let Some(first) = run("first run", &mut failures) else { return failures };
    if class.corrupting() {
        if first.corruptions == 0 {
            failures.push(format!(
                "seed {seed:#x} ({}): corruption plan never fired",
                class.name()
            ));
        } else if !first.detected() {
            failures.push(format!(
                "seed {seed:#x} ({}): {} corruption(s) escaped silently (exit {}, audit clean)",
                class.name(),
                first.corruptions,
                first.exit
            ));
        }
    } else {
        if first.exit != "halted" {
            failures.push(format!(
                "seed {seed:#x} (stressor): benign perturbations changed the exit to {} — {}",
                first.exit, first.detail
            ));
        }
        if !first.audit_clean {
            failures.push(format!(
                "seed {seed:#x} (stressor): benign perturbations corrupted memory — {}",
                first.detail
            ));
        }
    }
    if let Some(second) = run("replay", &mut failures) {
        if second != first {
            failures.push(format!(
                "seed {seed:#x} ({}): replay mismatch — first {first:?}, replay {second:?}",
                class.name()
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_replay_bit_for_bit() {
        let seed = campaign_seed(0);
        assert_eq!(run_campaign(seed), run_campaign(seed));
    }

    #[test]
    fn campaign_walk_covers_every_class() {
        let mut seen = [false; 5];
        for i in 0..16 {
            seen[(campaign_seed(i) % 5) as usize] = true;
        }
        assert_eq!(seen, [true; 5]);
    }

    #[test]
    fn snap_corrupt_campaigns_always_detect_the_flip() {
        let mut checked = 0;
        for i in 0..32 {
            let seed = campaign_seed(i);
            if Class::of(seed) != Class::SnapCorrupt {
                continue;
            }
            let out = run_campaign(seed);
            assert_eq!(
                out.exit, "snap_rejected",
                "seed {seed:#x}: corrupt snapshot escaped — {}",
                out.detail
            );
            assert!(out.detected());
            checked += 1;
            if checked == 3 {
                break;
            }
        }
        assert!(checked > 0, "walk never reached a snap_corrupt campaign");
    }

    #[test]
    fn variant_with_original_program_matches_run_campaign() {
        let seed = campaign_seed(3);
        let class = Class::of(seed);
        let direct = run_campaign(seed);
        let via_variant = run_campaign_variant(
            &campaign_program(seed),
            &plan_for(seed, class),
            mitigation_for(seed),
        );
        assert_eq!(direct, via_variant);
    }
}
