//! Property tests for the lockstep architectural oracle (ISSUE 2 satellite).
//!
//! Every mitigation is a different *microarchitecture* over the same
//! architecture, so a random terminating program must retire the identical
//! architectural state under all of them — and the in-order oracle checks
//! that claim instruction-by-instruction while the run is still going.
//! A failing case prints its seed; `SAS_PTEST_SEED=<seed>` replays it.
//! The file also pins the plain `System` set-up calls the campaigns build
//! on: painting tags, writing memory, protecting ranges, arming a plan, and
//! attaching the oracle last so it sees all of them.

use sas_isa::{parse_program, Program, Reg, TagNibble, VirtAddr};
use sas_pipeline::{FaultPlan, InjectionPoint, RunExit, System};
use sas_ptest::{check, gens};
use specasan::{build_multicore, build_system, Mitigation, SimConfig};

/// Cycle budget for a run to completion.
const MAX_CYCLES: u64 = 100_000_000;

// Generated programs read and write `[x6|x7] + (offset & 0x3F8)`, with
// x6 = base and x7 = base + 0x100, so stores reach up to base + 0x4F8.
const MEM_LO: u64 = gens::PROGRAM_MEM_BASE;
const MEM_HI: u64 = gens::PROGRAM_MEM_BASE + 0x500;

// A region no generated program ever touches: corruption injected here can
// only be caught by the post-run audit, never masked by a later store.
const QUIET_LO: u64 = 0x5000;
const QUIET_HI: u64 = 0x5100;

/// A Table 2 machine running `program` under `m`, with `plan` armed and
/// the lockstep oracle attached.
fn with_oracle(program: Program, m: Mitigation, plan: Option<&FaultPlan>) -> System {
    let mut sys = build_system(&SimConfig::table2(), program, m);
    if let Some(plan) = plan {
        sys.arm_faults(plan);
    }
    sys.enable_oracle();
    sys
}

/// Random programs retire bit-identical architectural state under every
/// mitigation, validated in lockstep and by a post-run memory audit.
#[test]
fn every_mitigation_matches_the_oracle_on_random_programs() {
    check("every_mitigation_matches_the_oracle_on_random_programs", 24, |rng| {
        let program = gens::terminating_program(8..40).sample(rng);
        for m in Mitigation::all() {
            let mut sys = with_oracle(program.clone(), m, None);
            let run = sys.run(MAX_CYCLES);
            assert_eq!(run.exit, RunExit::Halted, "{m:?}");
            let oracle = sys.oracle().expect("oracle attached");
            assert!(oracle.halted(0), "{m:?}: oracle did not reach HALT");
            for r in 0..8 {
                assert_eq!(
                    sys.core(0).reg(Reg::x(r)),
                    oracle.reg(0, Reg::x(r)),
                    "{m:?}: X{r} mismatch after a clean lockstep run"
                );
            }
            oracle
                .audit_memory(sys.mem(), MEM_LO, MEM_HI)
                .unwrap_or_else(|d| panic!("{m:?}: post-run audit failed: {d}"));
        }
    });
}

/// A single injected architectural bit flip can never survive unnoticed.
/// The flip lands in a region the program never writes, so a later store
/// cannot mask it — the post-run audit is *required* to name the damaged
/// word (the lockstep diff covers the in-program window elsewhere).
#[test]
fn injected_arch_corruption_never_escapes_detection() {
    check("injected_arch_corruption_never_escapes_detection", 24, |rng| {
        let program = gens::terminating_program(12..40).sample(rng);
        let seed = sas_ptest::gen::u64_any().sample(rng);
        let plan = FaultPlan::new(seed)
            .enable(InjectionPoint::ArchBitFlip, 1000, 1)
            .target_window(QUIET_LO, QUIET_HI - QUIET_LO);
        let mut sys = with_oracle(program, Mitigation::SpecAsan, Some(&plan));
        let run = sys.run(MAX_CYCLES);
        let injected = sys.corruption_injections();
        let oracle = sys.oracle().expect("oracle attached");
        let audit = oracle.audit_memory(sys.mem(), QUIET_LO, QUIET_HI);
        match &run.exit {
            RunExit::Halted => {
                if injected > 0 {
                    assert!(
                        audit.is_err(),
                        "seed {seed:#x}: {injected} bit flip(s) injected but the run \
                         halted cleanly and the audit saw nothing"
                    );
                } else {
                    assert!(audit.is_ok(), "seed {seed:#x}: audit error without injection");
                }
            }
            RunExit::Divergence(d) => {
                assert!(injected > 0, "seed {seed:#x}: divergence without injection: {d}");
                assert!(run.dump.is_some(), "divergence must attach a crash dump");
            }
            other => panic!("seed {seed:#x}: unexpected exit {other:?}"),
        }
    });
}

/// Replayability: the same seed drives the same campaign to the same exit,
/// byte for byte — the contract `--fault-plan` repros rely on.
#[test]
fn fault_campaigns_replay_exactly_from_their_seed() {
    check("fault_campaigns_replay_exactly_from_their_seed", 12, |rng| {
        let program = gens::terminating_program(12..32).sample(rng);
        let seed = sas_ptest::gen::u64_any().sample(rng);
        let run = |p: Program| {
            let plan = FaultPlan::new(seed)
                .enable(InjectionPoint::TagFlip, 250, 2)
                .enable(InjectionPoint::ForceMispredict, 100, 8)
                .target_window(MEM_LO, MEM_HI - MEM_LO);
            let mut sys = with_oracle(p, Mitigation::SpecAsan, Some(&plan));
            let run = sys.run(MAX_CYCLES);
            let inj = sys.fault_injections() + sys.corruption_injections();
            (run.exit, run.cycles, inj)
        };
        let first = run(program.clone());
        let second = run(program);
        assert_eq!(first, second, "seed {seed:#x} did not replay identically");
    });
}

fn trivial() -> Program {
    parse_program("MOVZ X1, #7\nHALT\n").unwrap()
}

#[test]
fn oracle_validates_a_clean_run() {
    let mut sys = with_oracle(trivial(), Mitigation::SpecAsan, None);
    let run = sys.run(MAX_CYCLES);
    assert_eq!(run.exit, RunExit::Halted);
    assert!(run.dump.is_none());
    let oracle = sys.oracle().expect("oracle attached");
    assert!(oracle.halted(0));
    assert_eq!(oracle.reg(0, Reg::X1), 7);
}

/// Memory set-up through `mem_mut` is what the run sees: an initial write
/// is loaded back, and painted tags and protected ranges stay installed.
#[test]
fn system_installs_tags_writes_and_protection() {
    let p = parse_program("MOV X1, #0x5000\nLDR X2, [X1]\nHALT\n").unwrap();
    let mut sys = build_system(&SimConfig::table2(), p, Mitigation::Unsafe);
    let mem = sys.mem_mut();
    mem.write_arch(VirtAddr::new(0x5000), 8, 99);
    mem.tags.set_range(VirtAddr::new(0x6000), 16, TagNibble::new(4));
    mem.add_protected_range(0x9000, 0x100);
    assert_eq!(sys.run(MAX_CYCLES).exit, RunExit::Halted);
    assert_eq!(sys.core(0).reg(Reg::X2), 99);
    assert!(sys.mem().is_protected(VirtAddr::new(0x9010)));
    assert_eq!(sys.mem().load_tag(VirtAddr::new(0x6000)), TagNibble::new(4));
}

#[test]
fn multicore_system_runs_both_programs() {
    let second = parse_program("MOVZ X1, #9\nHALT\n").unwrap();
    let mut sys =
        build_multicore(&SimConfig::table2(), vec![trivial(), second], Mitigation::SpecAsan);
    assert_eq!(sys.run(MAX_CYCLES).exit, RunExit::Halted);
    assert_eq!(sys.core(0).reg(Reg::X1), 7);
    assert_eq!(sys.core(1).reg(Reg::X1), 9);
}

/// Tag 0x4000..+0x40 with key 3 and read it back with LDG under an armed
/// tag-flip plan: with the oracle attached after the painting, a flipped
/// stored tag must surface as a divergence, never pass silently.
#[test]
fn injected_tag_flip_is_caught_not_silent() {
    let p = parse_program("MOV X1, #0x4000\nLDG X2, [X1]\nHALT\n").unwrap();
    let plan = FaultPlan::new(0xFEED)
        .enable(InjectionPoint::TagFlip, 1000, 1)
        .target_window(0x4000, 0x40);
    let mut sys = build_system(&SimConfig::table2(), p, Mitigation::Unsafe);
    sys.mem_mut().tags.set_range(VirtAddr::new(0x4000), 0x40, TagNibble::new(3));
    sys.arm_faults(&plan);
    sys.enable_oracle();
    let run = sys.run(MAX_CYCLES);
    if sys.corruption_injections() > 0 {
        let RunExit::Divergence(d) = &run.exit else {
            panic!("flipped tag must diverge the LDG result, got {:?}", run.exit)
        };
        assert_eq!(format!("{:?}", d.kind), "RegValue");
        assert!(run.dump.is_some(), "divergence carries a dump");
    } else {
        assert_eq!(run.exit, RunExit::Halted);
    }
}
