//! Property tests for snapshot/restore (ISSUE 7 tentpole).
//!
//! The contract under test: a simulator restored from a snapshot taken at an
//! arbitrary mid-run cycle continues **bit-identically** — same exit, same
//! cycle count, same registers, same statistics — under every mitigation,
//! with telemetry on or off. And a damaged snapshot is always *rejected*,
//! never silently restored into a diverging machine.
//!
//! A failing case prints its seed; `SAS_PTEST_SEED=<seed>` replays it.

use sas_isa::{parse_program, Program, Reg};
use sas_ptest::{check, gens};
use sas_snap::{SnapError, Snapshot, FLAG_TELEMETRY, FLAG_WARM_BASE};
use specasan::{Mitigation, Simulator};

fn build(program: &Program, m: Mitigation, telemetry: bool) -> Simulator {
    let mut sim = Simulator::builder().mitigation(m).program(program.clone()).build();
    if telemetry {
        sim.system_mut().enable_telemetry(16, 1 << 12);
    }
    sim
}

/// Runs `sim` to completion and returns the comparison fingerprint: exit
/// shape, cycle count, architectural registers, per-core and memory stats.
fn finish(sim: &mut Simulator) -> (String, u64, Vec<u64>, String) {
    let rep = sim.run();
    let regs: Vec<u64> =
        (0..31).map(|r| sim.system().core(0).reg(Reg::x(r))).collect();
    (
        format!("{:?}", rep.result.exit),
        rep.result.cycles,
        regs,
        format!("{:?} {:?}", rep.result.core_stats, rep.result.mem_stats),
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
            a.system_mut().run(cut);
            let bytes = a.snapshot(false).to_bytes();
            let snap = Snapshot::parse(bytes).expect("fresh snapshot parses");
            snap.verify().expect("fresh snapshot verifies");

            let mut b = build(&program, m, telemetry);
            b.restore(&snap).unwrap_or_else(|e| {
                panic!("{m:?} (telemetry={telemetry}): restore failed: {e}")
            });
            assert_eq!(b.system().cycle(), a.system().cycle(), "{m:?}: cut cycle");

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
    let snap = Snapshot::parse(a.snapshot(false).to_bytes()).unwrap();
    let mut b = build(&program, Mitigation::SpecAsan, false);
    b.restore(&snap).expect("restore");
    // Re-running a finished machine (original or restored) is identical.
    assert_eq!(finish(&mut a), finish(&mut b));
    assert_eq!(b.system().core(0).reg(Reg::X2), 14);
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
        a.system_mut().run(rng.range(1, 100));
        let clean = a.snapshot(false).to_bytes();
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
                    victim.system_mut().run(rng.range(0, 50));
                    let before = victim.snapshot(false).to_bytes();
                    let rejected = victim.restore(&snap).is_err();
                    if rejected {
                        assert!(
                            victim.snapshot(false).to_bytes() == before,
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
        base.system_mut().run(cut);
        let bytes = base.snapshot(true).to_bytes();
        let snap = Snapshot::parse(bytes).unwrap();
        assert_ne!(snap.flags() & FLAG_WARM_BASE, 0);

        for m in Mitigation::all() {
            let mut cold = build(&program, m, false);
            let cold_regs: Vec<u64> = {
                cold.run();
                (0..8).map(|r| cold.system().core(0).reg(Reg::x(r))).collect()
            };

            let mut forked = build(&program, m, false);
            forked.restore(&snap).unwrap_or_else(|e| {
                panic!("{m:?}: warm fork rejected: {e}")
            });
            forked.run();
            let fork_regs: Vec<u64> =
                (0..8).map(|r| forked.system().core(0).reg(Reg::x(r))).collect();
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
    let snap = Snapshot::parse(a.snapshot(false).to_bytes()).unwrap();

    // Different program.
    let mut b = build(&p2, Mitigation::SpecAsan, false);
    match b.restore(&snap) {
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
        let image = Snapshot::parse(from.snapshot(false).to_bytes()).unwrap();
        let mut into = build(&parse_program(&target).unwrap(), Mitigation::SpecAsan, false);
        match into.restore(&image) {
            Err(SnapError::Mismatch { what: "program fingerprint", .. }) => {}
            other => panic!("expected program mismatch for {target:?}, got {other:?}"),
        }
    }

    // Different mitigation (cold snapshot: policy fingerprint enforced).
    let mut c = build(&p1, Mitigation::Fence, false);
    match c.restore(&snap) {
        Err(SnapError::Mismatch { what: "mitigation policy", .. }) => {}
        other => panic!("expected policy mismatch, got {other:?}"),
    }

    // Telemetry armed on one side only.
    let mut d = build(&p1, Mitigation::SpecAsan, true);
    match d.restore(&snap) {
        Err(SnapError::Mismatch { what: "telemetry", .. }) => {}
        other => panic!("expected telemetry mismatch, got {other:?}"),
    }
    let snap_t = Snapshot::parse(d.snapshot(false).to_bytes()).unwrap();
    assert_ne!(snap_t.flags() & FLAG_TELEMETRY, 0);
    let mut e = build(&p1, Mitigation::SpecAsan, false);
    match e.restore(&snap_t) {
        Err(SnapError::Mismatch { what: "telemetry", .. }) => {}
        other => panic!("expected telemetry mismatch, got {other:?}"),
    }
}

/// `write_snapshot`/`restore_from` round-trip through a file, atomically.
#[test]
fn snapshot_files_round_trip_atomically() {
    let program = parse_program("MOVZ X1, #5\nMOVZ X2, #6\nMUL X3, X1, X2\nHALT\n").unwrap();
    let dir = std::env::temp_dir().join(format!("sas-snap-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cell.snap");

    let mut a = build(&program, Mitigation::SpecAsanCfi, false);
    a.system_mut().run(3);
    a.write_snapshot(&path, false).expect("write_atomic");
    assert!(!sas_snap::temp_path(&path).exists(), "temp file must not linger");

    let mut b = build(&program, Mitigation::SpecAsanCfi, false);
    b.restore_from(&path).expect("restore_from");
    assert_eq!(finish(&mut a), finish(&mut b));
    assert_eq!(b.system().core(0).reg(Reg::X3), 30);
    std::fs::remove_dir_all(&dir).ok();
}
