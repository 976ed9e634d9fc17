//! Property tests for snapshot/restore (ISSUE 7 tentpole).
//!
//! The contract under test: a simulator restored from a snapshot taken at an
//! arbitrary mid-run cycle continues **bit-identically** — same exit, same
//! cycle count, same registers, same statistics — under every mitigation,
//! with telemetry on or off. And a damaged snapshot is always *rejected*,
//! never silently restored into a diverging machine.
//!
//! A failing case prints its seed; `SAS_PTEST_SEED=<seed>` replays it.

use sas_isa::{parse_program, Operand, Program, ProgramBuilder, Reg};
use sas_pipeline::System;
use sas_ptest::{check, gens, FaultPlan};
use sas_snap::{SnapError, Snapshot, FLAG_TELEMETRY, FLAG_WARM_BASE};
use specasan::snapshot::{
    restore_system, restore_system_checked, restore_system_from, snapshot_system,
    write_system_snapshot,
};
use specasan::{build_multicore, build_system, Mitigation, SimConfig};

/// Cycle budget for a run to completion.
const MAX_CYCLES: u64 = 100_000_000;

fn build(program: &Program, m: Mitigation, telemetry: bool) -> System {
    let mut sys = build_system(&SimConfig::table2(), program.clone(), m);
    if telemetry {
        sys.enable_telemetry(16, 1 << 12);
    }
    sys
}

/// The encoded image of a cold (not warmed-baseline) snapshot of `sys`.
fn image(sys: &System) -> Vec<u8> {
    snapshot_system(sys, false).to_bytes()
}

/// Runs `sys` to completion and returns the comparison fingerprint: exit
/// shape, cycle count, architectural registers, per-core and memory stats.
fn finish(sys: &mut System) -> (String, u64, Vec<u64>, String) {
    let run = sys.run(MAX_CYCLES);
    let regs: Vec<u64> = (0..31).map(|r| sys.core(0).reg(Reg::x(r))).collect();
    (
        format!("{:?}", run.exit),
        run.cycles,
        regs,
        format!("{:?} {:?}", run.core_stats, run.mem_stats),
    )
}

/// Snapshot at a random mid-run cycle, restore into a fresh machine, and the
/// continuation is bit-identical — for all 8 mitigations, telemetry on/off.
#[test]
fn restore_continues_bit_identically_across_all_mitigations() {
    check("restore_continues_bit_identically_across_all_mitigations", 6, |rng| {
        let program = gens::terminating_program(8..40).sample(rng);
        let cut = rng.range(1, 200);
        let telemetry = rng.range(0, 2) == 1;
        for m in Mitigation::all() {
            let mut a = build(&program, m, telemetry);
            a.run(cut);
            let snap = Snapshot::parse(image(&a)).expect("fresh snapshot parses");
            snap.verify().expect("fresh snapshot verifies");

            let mut b = build(&program, m, telemetry);
            restore_system_checked(&mut b, &snap).unwrap_or_else(|e| {
                panic!("{m:?} (telemetry={telemetry}): restore failed: {e}")
            });
            assert_eq!(b.cycle(), a.cycle(), "{m:?}: cut cycle");

            let fa = finish(&mut a);
            let fb = finish(&mut b);
            assert_eq!(fa, fb, "{m:?} (telemetry={telemetry}, cut={cut}): diverged");
        }
    });
}

/// A snapshot of a *finished* machine restores to a finished machine: the
/// continuation commits nothing and exits the same way.
#[test]
fn restoring_a_finished_machine_stays_finished() {
    let program = parse_program("MOVZ X1, #7\nADD X2, X1, X1\nHALT\n").unwrap();
    let mut a = build(&program, Mitigation::SpecAsan, false);
    let first = finish(&mut a);
    assert_eq!(first.0, "Halted");
    let snap = Snapshot::parse(image(&a)).unwrap();
    let mut b = build(&program, Mitigation::SpecAsan, false);
    restore_system_checked(&mut b, &snap).expect("restore");
    // Re-running a finished machine (original or restored) is identical.
    assert_eq!(finish(&mut a), finish(&mut b));
    assert_eq!(b.core(0).reg(Reg::X2), 14);
}

/// Corruption anywhere in the image is rejected — `parse`, `verify`,
/// `section` or `restore` fails; it never yields a silently different
/// machine, and a rejected `restore` leaves the target byte-for-byte as it
/// was.
#[test]
fn corrupted_snapshots_are_rejected_never_silently_restored() {
    check("corrupted_snapshots_are_rejected_never_silently_restored", 8, |rng| {
        let program = gens::terminating_program(8..24).sample(rng);
        let mut a = build(&program, Mitigation::SpecAsan, false);
        a.run(rng.range(1, 100));
        let clean = image(&a);
        for _ in 0..16 {
            let mut bytes = clean.clone();
            let at = rng.range(0, bytes.len() as u64) as usize;
            let bit = rng.range(0, 8) as u8;
            bytes[at] ^= 1 << bit;
            // Container damage fails `parse`; payload damage survives the
            // framing but must trip a section CRC inside `restore` before
            // any state is applied.
            let caught = match Snapshot::parse(bytes) {
                Err(_) => true,
                Ok(snap) => {
                    let mut victim = build(&program, Mitigation::SpecAsan, false);
                    victim.run(rng.range(0, 50));
                    let before = image(&victim);
                    let rejected = restore_system_checked(&mut victim, &snap).is_err();
                    if rejected {
                        assert!(
                            image(&victim) == before,
                            "rejected restore (bit {bit} of byte {at}) modified the target"
                        );
                    }
                    rejected
                }
            };
            assert!(caught, "flipping bit {bit} of byte {at} went undetected");
        }
    });
}

/// A warmed-baseline snapshot (taken under `Unsafe`) forks into *any*
/// mitigation: the policy name check is relaxed, and the continuation
/// retires the same architectural result as a cold run of that mitigation.
#[test]
fn warm_baseline_snapshot_forks_into_every_mitigation() {
    check("warm_baseline_snapshot_forks_into_every_mitigation", 4, |rng| {
        let program = gens::terminating_program(8..32).sample(rng);
        let cut = rng.range(1, 120);
        let mut base = build(&program, Mitigation::Unsafe, false);
        base.run(cut);
        let snap = Snapshot::parse(snapshot_system(&base, true).to_bytes()).unwrap();
        assert_ne!(snap.flags() & FLAG_WARM_BASE, 0);

        for m in Mitigation::all() {
            let mut cold = build(&program, m, false);
            let cold_regs: Vec<u64> = {
                cold.run(MAX_CYCLES);
                (0..8).map(|r| cold.core(0).reg(Reg::x(r))).collect()
            };

            let mut forked = build(&program, m, false);
            restore_system_checked(&mut forked, &snap).unwrap_or_else(|e| {
                panic!("{m:?}: warm fork rejected: {e}")
            });
            forked.run(MAX_CYCLES);
            let fork_regs: Vec<u64> = (0..8).map(|r| forked.core(0).reg(Reg::x(r))).collect();
            assert_eq!(
                fork_regs, cold_regs,
                "{m:?}: warm-forked run retired different architectural state"
            );
        }
    });
}

/// Fingerprint mismatches are structured errors, not silent divergence.
#[test]
fn mismatched_targets_are_rejected_with_structured_errors() {
    let p1 = parse_program("MOVZ X1, #1\nHALT\n").unwrap();
    let p2 = parse_program("MOVZ X1, #2\nHALT\n").unwrap();

    let a = build(&p1, Mitigation::SpecAsan, false);
    let snap = Snapshot::parse(image(&a)).unwrap();

    // Different program.
    let mut b = build(&p2, Mitigation::SpecAsan, false);
    match restore_system_checked(&mut b, &snap) {
        Err(SnapError::Mismatch { what: "program fingerprint", .. }) => {}
        other => panic!("expected program mismatch, got {other:?}"),
    }

    // Programs that differ only in one initial data byte, or only in the
    // entry point.
    let code = "MOVZ X1, #1\nstart:\nMOVZ X2, #2\nHALT\n";
    for (taken, target) in [
        (format!(".data 0x1000 = 1, 2, 3\n{code}"), format!(".data 0x1000 = 1, 2, 4\n{code}")),
        (code.to_string(), format!(".entry start\n{code}")),
    ] {
        let from = build(&parse_program(&taken).unwrap(), Mitigation::SpecAsan, false);
        let taken = Snapshot::parse(image(&from)).unwrap();
        let mut into = build(&parse_program(&target).unwrap(), Mitigation::SpecAsan, false);
        match restore_system_checked(&mut into, &taken) {
            Err(SnapError::Mismatch { what: "program fingerprint", .. }) => {}
            other => panic!("expected program mismatch for {target:?}, got {other:?}"),
        }
    }

    // Different mitigation (cold snapshot: policy fingerprint enforced).
    let mut c = build(&p1, Mitigation::Fence, false);
    match restore_system_checked(&mut c, &snap) {
        Err(SnapError::Mismatch { what: "mitigation policy", .. }) => {}
        other => panic!("expected policy mismatch, got {other:?}"),
    }

    // Telemetry armed on one side only.
    let mut d = build(&p1, Mitigation::SpecAsan, true);
    match restore_system_checked(&mut d, &snap) {
        Err(SnapError::Mismatch { what: "telemetry", .. }) => {}
        other => panic!("expected telemetry mismatch, got {other:?}"),
    }
    let snap_t = Snapshot::parse(image(&d)).unwrap();
    assert_ne!(snap_t.flags() & FLAG_TELEMETRY, 0);
    let mut e = build(&p1, Mitigation::SpecAsan, false);
    match restore_system_checked(&mut e, &snap_t) {
        Err(SnapError::Mismatch { what: "telemetry", .. }) => {}
        other => panic!("expected telemetry mismatch, got {other:?}"),
    }
}

/// A countdown loop long enough to stop at cycle 150 mid-run.
fn countdown() -> Program {
    parse_program("MOVZ X1, #400\nloop:\nSUB X1, X1, #1\nCBNZ X1, loop\nHALT\n").unwrap()
}

/// An image rejected by a check inside the `system` section — after the
/// cycle counter was decoded — leaves the simulator exactly as it was.
#[test]
fn rejected_restore_leaves_the_simulator_untouched() {
    let mut from = build(&countdown(), Mitigation::SpecAsan, false);
    from.enable_oracle();
    from.run(150);
    assert_eq!(from.cycle(), 150);
    let snap = Snapshot::parse(image(&from)).unwrap();

    let mut into = build(&countdown(), Mitigation::SpecAsan, false);
    into.run(20);
    let before = image(&into);
    match restore_system_checked(&mut into, &snap) {
        Err(SnapError::BadValue { what: "oracle arming mismatch", .. }) => {}
        other => panic!("expected an oracle arming mismatch, got {other:?}"),
    }
    assert_eq!(into.cycle(), 20);
    assert!(image(&into) == before, "rejected restore modified the target");
}

/// The checked restore's deep-failure case: a CRC-valid image taken with a
/// fault plan armed passes `meta` and `system`, and `mem` rejects it only
/// after architectural memory, tags and the caches were written. The target
/// must come back byte-identical. A successful checked restore gives the
/// same machine as a plain restore into a fresh twin.
#[test]
fn checked_restore_rolls_back_a_late_decode_failure() {
    let mut armed = build(&countdown(), Mitigation::SpecAsan, false);
    armed.arm_faults(&FaultPlan::new(7));
    armed.run(150);
    let snap = Snapshot::parse(image(&armed)).unwrap();

    let mut target = build(&countdown(), Mitigation::SpecAsan, false);
    target.run(20);
    let before = image(&target);
    match restore_system_checked(&mut target, &snap) {
        Err(SnapError::BadValue { what: "fault arming mismatch", .. }) => {}
        other => panic!("expected a fault arming mismatch, got {other:?}"),
    }
    assert!(image(&target) == before, "rejected checked restore modified the target");

    let mut clean = build(&countdown(), Mitigation::SpecAsan, false);
    clean.run(150);
    let snap = Snapshot::parse(image(&clean)).unwrap();
    restore_system_checked(&mut target, &snap).expect("checked restore");
    let mut twin = build(&countdown(), Mitigation::SpecAsan, false);
    restore_system(&mut twin, &snap).expect("plain restore");
    assert!(image(&target) == image(&twin), "checked and plain restores disagree");
}

/// `write_system_snapshot`/`restore_system_from` round-trip through a file,
/// atomically.
#[test]
fn snapshot_files_round_trip_atomically() {
    let program = parse_program("MOVZ X1, #5\nMOVZ X2, #6\nMUL X3, X1, X2\nHALT\n").unwrap();
    let dir = std::env::temp_dir().join(format!("sas-snap-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cell.snap");

    let mut a = build(&program, Mitigation::SpecAsanCfi, false);
    a.run(3);
    write_system_snapshot(&a, &path, false).expect("write_atomic");
    assert!(!sas_snap::temp_path(&path).exists(), "temp file must not linger");

    let mut b = build(&program, Mitigation::SpecAsanCfi, false);
    restore_system_from(&mut b, &path).expect("restore_from");
    assert_eq!(finish(&mut a), finish(&mut b));
    assert_eq!(b.core(0).reg(Reg::X3), 30);
    std::fs::remove_dir_all(&dir).ok();
}

/// Four cores, each rewriting its own three-page data image: a multi-core
/// machine whose `mem` section spans many pages.
fn multicore_writers() -> System {
    let programs = (0..4u64)
        .map(|core| {
            let base = 0x10_0000 * (core + 1);
            let mut asm = ProgramBuilder::new();
            asm.data_segment(base, (0..3 * 4096u64).map(|i| (i * 7 + core) as u8).collect());
            asm.mov_imm64(Reg::X2, base);
            asm.movz(Reg::X1, 300, 0);
            let top = asm.here();
            asm.str(Reg::X1, Reg::X2, 0);
            asm.add(Reg::X2, Reg::X2, Operand::imm(40));
            asm.sub(Reg::X1, Reg::X1, Operand::imm(1));
            asm.cbnz_idx(Reg::X1, top);
            asm.halt();
            asm.build().unwrap()
        })
        .collect();
    build_multicore(&SimConfig::table2(), programs, Mitigation::SpecAsan)
}

/// `write_atomic` streams the image to its file through the same framing
/// as `to_bytes`: the file holds exactly the `to_bytes` image.
#[test]
fn write_atomic_writes_exactly_the_to_bytes_image() {
    let dir = std::env::temp_dir().join(format!("sas-snap-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("multicore.snap");
    let mut sys = multicore_writers();
    for until in [0, 1_500, 4_000] {
        sys.run(until);
        let b = snapshot_system(&sys, until > 0);
        b.write_atomic(&path).expect("write_atomic");
        let written = std::fs::read(&path).unwrap();
        assert!(written.len() > 12 * 4096, "{} bytes: not a multi-page image", written.len());
        assert!(written == b.to_bytes(), "cycle {until}: the file differs from to_bytes");
    }
    std::fs::remove_dir_all(&dir).ok();
}
