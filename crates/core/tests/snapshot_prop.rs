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
use sas_snap::{Enc, SnapError, Snapshot, FLAG_TELEMETRY, FLAG_WARM_BASE};
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
/// machine with twelve base pages, which its `mem` section carries once
/// the stores reach them.
fn multicore_writers(m: Mitigation) -> System {
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
    build_multicore(&SimConfig::table2(), programs, m)
}

/// How many memory pages the `mem` section of `snap` carries: the count
/// after the section's core count.
fn carried_pages(snap: &Snapshot) -> usize {
    let mut mem = snap.section("mem").expect("mem section");
    mem.usz().expect("core count");
    mem.usz().expect("page count")
}

/// `write_atomic` streams the image to its file through the same framing
/// as `to_bytes`: the file holds exactly the `to_bytes` image. The image
/// carries only the data pages the stores have reached: none at cycle 0,
/// each core's first page by cycle 200 and all twelve by cycle 1,500. The
/// exact lengths the `mem` encoder presizes from hold throughout.
#[test]
fn write_atomic_writes_exactly_the_to_bytes_image() {
    let dir = std::env::temp_dir().join(format!("sas-snap-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("multicore.snap");
    let mut sys = multicore_writers(Mitigation::SpecAsan);
    for (until, pages) in [(0, 0), (200, 4), (1_500, 12)] {
        sys.run(until);
        let b = snapshot_system(&sys, until > 0);
        b.write_atomic(&path).expect("write_atomic");
        let written = std::fs::read(&path).unwrap();
        assert!(written == b.to_bytes(), "cycle {until}: the file differs from to_bytes");
        let carried = carried_pages(&Snapshot::parse(written).unwrap());
        assert_eq!(carried, pages, "cycle {until}: pages carried");
        // `MemSystem::encode` presizes from these two lengths.
        let (mut arch, mut tags) = (Enc::new(), Enc::new());
        sys.mem().arch.encode(&mut arch);
        sys.mem().tags.encode(&mut tags);
        assert_eq!(sys.mem().arch.encoded_len(), arch.len(), "cycle {until}: memory image");
        assert_eq!(sys.mem().tags.encoded_len(), tags.len(), "cycle {until}: tag image");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The four-core writer, cut at a random cycle under each of the 8
/// mitigations, continues bit-identically after a restore into a fresh
/// machine, and ends with the same image.
#[test]
fn four_core_restore_continues_bit_identically_across_all_mitigations() {
    check("four_core_restore_continues_bit_identically_across_all_mitigations", 2, |rng| {
        let cut = rng.range(1, 6_000);
        for m in Mitigation::all() {
            let mut a = multicore_writers(m);
            a.run(cut);
            let snap = Snapshot::parse(image(&a)).unwrap();
            let mut b = multicore_writers(m);
            restore_system_checked(&mut b, &snap)
                .unwrap_or_else(|e| panic!("{m:?}: restore failed: {e}"));
            let (ra, rb) = (a.run(MAX_CYCLES), b.run(MAX_CYCLES));
            assert_eq!(
                format!("{:?}", (ra.exit, ra.cycles, ra.core_stats, ra.mem_stats)),
                format!("{:?}", (rb.exit, rb.cycles, rb.core_stats, rb.mem_stats)),
                "{m:?} (cut={cut}): diverged"
            );
            assert!(image(&a) == image(&b), "{m:?} (cut={cut}): final images differ");
        }
    });
}

/// A just-built machine's `mem` section carries no memory page: its
/// memory is all base, which `meta`'s fingerprints pin.
#[test]
fn a_just_built_machine_carries_no_memory_pages() {
    let one = build(&countdown_with_data(), Mitigation::SpecAsan, false);
    let four = multicore_writers(Mitigation::SpecAsan);
    for (sys, resident) in [(&one, 1), (&four, 12)] {
        assert_eq!(sys.mem().arch.resident_pages(), resident);
        assert_eq!(carried_pages(&Snapshot::parse(image(sys)).unwrap()), 0);
    }
}

/// A countdown that adds its counter into a word of its data segment on
/// every trip.
fn countdown_with_data() -> Program {
    parse_program(
        ".data 0x8000 = 1, 2, 3, 4\n\
         MOVZ X1, #40\nMOVZ X2, #0x8000\n\
         loop:\nLDR X3, [X2]\nADD X3, X3, X1\nSTR X3, [X2]\n\
         SUB X1, X1, #1\nCBNZ X1, loop\nHALT\n",
    )
    .unwrap()
}

/// Memory pages are shared copy-on-write: a write to a clone's memory
/// leaves the original and an oracle-enabled twin (whose oracle starts
/// from a clone too) unchanged, and the twin still runs lockstep-clean.
#[test]
fn a_write_to_a_clone_leaves_the_original_and_an_oracle_twin_unchanged() {
    let original = build(&countdown_with_data(), Mitigation::SpecAsan, false);
    let mut twin = original.clone();
    twin.enable_oracle();
    let mut clone = original.clone();
    let word = sas_isa::VirtAddr::new(0x8000);
    let start = original.mem().read_arch(word, 8);
    clone.mem_mut().write_arch(word, 8, 0xDEAD);

    assert_eq!(original.mem().read_arch(word, 8), start);
    assert_eq!(twin.mem().read_arch(word, 8), start);
    assert_eq!(twin.oracle().unwrap().mem().read(word, 8), start);

    let run = twin.run(MAX_CYCLES);
    assert_eq!(format!("{:?}", run.exit), "Halted", "the oracle twin diverged");
    let oracle = twin.oracle().unwrap();
    oracle.audit_memory(twin.mem(), 0x8000, 0x9000).expect("memory audit");
    assert_eq!(twin.mem().read_arch(word, 8), start + (1..=40).sum::<u64>());
    assert_eq!(original.mem().read_arch(word, 8), start, "the twin's run wrote the original");
    assert_eq!(clone.mem().read_arch(word, 8), 0xDEAD);
}

/// The oracle's memory is a clone of the machine's and is stored against
/// the same base: an oracle-armed image, taken after the stores began,
/// restores into an oracle-armed twin, and both finish lockstep-clean with
/// equal images.
#[test]
fn an_oracle_armed_image_restores_into_an_oracle_armed_twin() {
    let armed = || {
        let mut sys = build(&countdown_with_data(), Mitigation::SpecAsan, false);
        sys.enable_oracle();
        sys
    };
    let mut a = armed();
    a.run(150);
    assert_eq!(a.cycle(), 150, "the run ended before the cut");
    let snap = Snapshot::parse(image(&a)).unwrap();
    assert!(carried_pages(&snap) > 0, "the stores have not begun by cycle 150");
    let mut b = armed();
    restore_system_checked(&mut b, &snap).expect("oracle-armed restore");
    for sys in [&mut a, &mut b] {
        assert_eq!(format!("{:?}", sys.run(MAX_CYCLES).exit), "Halted");
    }
    assert!(image(&a) == image(&b), "the continuations differ");
}
