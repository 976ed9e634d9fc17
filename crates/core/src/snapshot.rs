//! Whole-machine snapshot/restore over a [`System`].
//!
//! A snapshot is a [`sas_snap`] container with four sections:
//!
//! * `meta` — core count, each core's [`Program::fingerprint`] and each
//!   core's policy name. Checked on restore so a snapshot can never be
//!   applied to a differently-configured machine.
//! * `system` — the cycle counter and run-loop progress trackers, plus
//!   system-level telemetry series when armed.
//! * `mem` — architectural memory, MTE tags, every cache/LFB/MSHR, the
//!   prefetchers, ghost buffers, fault-stream cursors and memory stats.
//! * `cores` — each core's full pipeline state (ROB, rename, fetch,
//!   predictors, IRG RNG, stats, traces), concatenated. Policies are
//!   stateless, so no section carries policy state.
//!
//! Restore rebuilds the derived scheduler indices (ready queue, completion
//! heap, waiter chains) from the restored ROB rather than trusting the
//! image, so a restored machine continues **bit-identically** — proven by
//! `crates/core/tests/snapshot_prop.rs` across every mitigation.
//!
//! A *warmed-baseline* snapshot ([`FLAG_WARM_BASE`]) only relaxes the
//! policy-name check; it restores through the same path as any other
//! image. One image warmed under the unprotected baseline forks
//! measurement cells for any mitigation past the warmup phase.
//!
//! [`Program::fingerprint`]: sas_isa::Program::fingerprint

use sas_pipeline::System;
use sas_snap::{Enc, SnapError, Snapshot, SnapshotBuilder, FLAG_TELEMETRY, FLAG_WARM_BASE};
use std::path::Path;

/// Captures the complete state of `system` as a snapshot builder.
///
/// See the module docs for the section layout; `warm_base` marks the image
/// as a warmed-baseline fork point.
pub fn snapshot_system(system: &System, warm_base: bool) -> SnapshotBuilder {
    let mut flags = 0u16;
    if warm_base {
        flags |= FLAG_WARM_BASE;
    }
    if system.timeline(0).is_some() {
        flags |= FLAG_TELEMETRY;
    }
    let mut b = SnapshotBuilder::new(flags);

    let mut meta = Enc::new();
    meta.usz(system.cores());
    for i in 0..system.cores() {
        let core = system.core(i);
        meta.uv(core.program().fingerprint());
        meta.str(core.policy_name());
    }
    b.section("meta", meta);

    let mut sys = Enc::new();
    system.encode_state(&mut sys);
    b.section("system", sys);

    let mut mem = Enc::new();
    system.mem().encode(&mut mem);
    b.section("mem", mem);

    let mut cores = Enc::new();
    for i in 0..system.cores() {
        system.encode_core(i, &mut cores);
    }
    b.section("cores", cores);
    b
}

/// Restores `system` from a snapshot taken by [`snapshot_system`].
///
/// The target must be built from the same configuration, programs and
/// (unless the image is warmed-baseline) the same mitigation; mismatches
/// surface as [`SnapError::Mismatch`] rather than a silently-diverging
/// machine.
///
/// Every section CRC is verified, exactly once, *before* any state is
/// touched, so a corrupted image always leaves the target untouched. A
/// decode error inside a CRC-valid section (an encoding bug, not line
/// corruption) can still leave the system partially restored — use
/// [`restore_system_checked`] when the target must survive that too.
pub fn restore_system(system: &mut System, snap: &Snapshot) -> Result<(), SnapError> {
    // All-or-nothing against corruption: `section` CRC-checks each section
    // it hands out, so take all four before the first write.
    let mut meta = snap.section("meta")?;
    let mut sys = snap.section("system")?;
    let mut mem = snap.section("mem")?;
    let mut cs = snap.section("cores")?;

    let warm = snap.flags() & FLAG_WARM_BASE != 0;
    let snap_telemetry = snap.flags() & FLAG_TELEMETRY != 0;
    let have_telemetry = system.timeline(0).is_some();
    if snap_telemetry != have_telemetry {
        return Err(SnapError::Mismatch {
            what: "telemetry",
            expected: snap_telemetry.to_string(),
            found: have_telemetry.to_string(),
        });
    }

    let cores = meta.usz()?;
    if cores != system.cores() {
        return Err(SnapError::Mismatch {
            what: "core count",
            expected: cores.to_string(),
            found: system.cores().to_string(),
        });
    }
    for i in 0..cores {
        let fp = meta.uv()?;
        let policy = meta.str()?;
        let core = system.core(i);
        let have_fp = core.program().fingerprint();
        if fp != have_fp {
            return Err(SnapError::Mismatch {
                what: "program fingerprint",
                expected: format!("{fp:#018x}"),
                found: format!("{have_fp:#018x}"),
            });
        }
        if !warm && policy != core.policy_name() {
            return Err(SnapError::Mismatch {
                what: "mitigation policy",
                expected: policy,
                found: core.policy_name().to_string(),
            });
        }
    }
    meta.finish()?;

    system.restore_state(&mut sys)?;
    sys.finish()?;

    system.mem_mut().restore(&mut mem)?;
    mem.finish()?;

    for i in 0..cores {
        system.restore_core(i, &mut cs)?;
    }
    cs.finish()?;
    Ok(())
}

/// Writes a snapshot of `system` to `path` atomically (temp file + rename).
pub fn write_system_snapshot(
    system: &System,
    path: &Path,
    warm_base: bool,
) -> Result<(), SnapError> {
    snapshot_system(system, warm_base).write_atomic(path)
}

/// Restores `snap` into `system` **transactionally**: on any failure —
/// CRC, mismatch, or a decode error deep inside a section — the system is
/// rolled back to the state it had on entry (via an in-memory pristine
/// image) and the original error is returned. This is what checkpoint
/// consumers want: a rejected snapshot degrades to "run from where you
/// were", never to a half-restored machine.
pub fn restore_system_checked(system: &mut System, snap: &Snapshot) -> Result<(), SnapError> {
    let pristine = snapshot_system(system, false).to_bytes();
    match restore_system(system, snap) {
        Ok(()) => Ok(()),
        Err(e) => {
            let rollback = Snapshot::parse(pristine).expect("pristine image parses");
            restore_system(system, &rollback).expect("pristine image restores");
            Err(e)
        }
    }
}

/// Reads, CRC-verifies and transactionally restores a snapshot file into
/// `system` (see [`restore_system_checked`]).
pub fn restore_system_from(system: &mut System, path: &Path) -> Result<(), SnapError> {
    let snap = Snapshot::read(path)?;
    restore_system_checked(system, &snap)
}
