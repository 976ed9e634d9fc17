//! Mid-cell checkpointing, corruption-safe resume and warmed-baseline
//! forking for supervised bench cells — and for any other host that wants
//! to drive a [`System`] in resumable, interruptible chunks.
//!
//! [`CheckpointPlan`] + [`run_supervised_with`] are the whole protocol. A
//! caller (a `sas-runner cell` child, the `sas-serve` daemon's worker pool,
//! a test harness) describes *where* checkpoints go and *how often*, and
//! supplies a control callback. The run loop always runs in chunks: it
//! stops every [`STOP_EVERY`] cycles and at every checkpoint boundary, and
//! at each stop it (1) writes the checkpoint if one is due, (2) rewrites
//! the heartbeat file if the plan names one, and (3) hands the stop's
//! [`Heartbeat`] to the callback. The callback can let the run continue,
//! **park** it (write a checkpoint and stop, so a later run resumes
//! bit-identically — graceful drain), or **abort** it (stop without a
//! checkpoint — deadline enforcement). This loop, not the simulator
//! engine, is the only place run progress is reported. Nothing here reads
//! the environment or any other global state, so concurrent runs in one
//! process are fully independent.
//!
//! The plan's fields (the `sas-runner cell` flags that set them):
//!
//! * [`CheckpointPlan::path`] (`--checkpoint PATH`) — this run's checkpoint
//!   file. The run is chunked on [`CheckpointPlan::every`]-cycle boundaries
//!   (`--checkpoint-every N`, default 1 M) and the full machine state is
//!   written atomically (temp + rename) at each boundary. On startup an
//!   existing valid checkpoint is restored and the run continues
//!   **bit-identically** from it; a checkpoint that fails its
//!   header/version/CRC checks is deleted and the run degrades to replay
//!   from the start — corrupted state is never resumed.
//! * [`CheckpointPlan::warm_base`] (`--warm-base PATH`) — the benchmark's
//!   warmed-baseline snapshot. The `unsafe` baseline cell creates it after
//!   [`CheckpointPlan::warm_cycles`] cycles (`--warm-cycles N`, default
//!   50 000); every other mitigation cell of the same benchmark restores it
//!   and skips simulating the warmup phase under its own policy. Cycle
//!   counts stay comparable because restore resumes the absolute cycle
//!   counter.
//! * [`CheckpointPlan::exit_after`] (`--crash-after-checkpoints N`) — test
//!   hook: exit with the environmental-failure code ([`EXIT_AFTER_CODE`])
//!   after writing N checkpoints, simulating a mid-cell crash at a
//!   deterministic point so the supervisor's retry path resumes from the
//!   checkpoint.
//! * [`CheckpointPlan::faults`] (`--fault-plan SPEC`) — a [`FaultPlan`]
//!   armed on the machine before anything is restored.
//! * [`CheckpointPlan::heartbeat`] (`--heartbeat PATH`) — a liveness file
//!   the run loop rewrites with one [`Heartbeat`] line at every stop.
//!
//! Cells that ran from a restored image (checkpoint or warm base) are
//! tagged `restored: true` in their JSONL/BENCH rows (see [`crate::Cell`]).

use crate::heartbeat::Heartbeat;
use sas_pipeline::{FaultPlan, RunExit, RunResult, System};
use specasan::snapshot;
use std::path::PathBuf;

/// Exit code of the simulated mid-cell crash — the supervisor's
/// *environmental* failure code, so the cell is retried (and resumes).
pub const EXIT_AFTER_CODE: u8 = 11;

/// The run loop stops at every multiple of this many cycles (besides the
/// checkpoint boundaries): the heartbeat cadence and the longest stretch a
/// control callback goes unpolled.
pub const STOP_EVERY: u64 = 100_000;

/// What a [`run_supervised_with`] control callback tells the run loop at a
/// stop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Interrupt {
    /// Keep running.
    None,
    /// Write a checkpoint (even off a period boundary) and stop: the job is
    /// *parked*, and a later run with the same plan resumes bit-identically
    /// from the image. Used by graceful drain.
    Park(String),
    /// Stop now, without writing a checkpoint. Used by deadline enforcement
    /// and cancellation — the work is discarded, not resumed.
    Abort(String),
}

/// How an interrupted run stopped (see [`SupervisedRun::interrupted`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Interrupted {
    /// Parked behind a checkpoint; resumable.
    Parked(String),
    /// Aborted without a checkpoint.
    Aborted(String),
}

/// A parameterized description of the checkpoint/warm-fork protocol for one
/// supervised run, plus its fault plan and heartbeat file.
#[derive(Debug, Clone, Default)]
pub struct CheckpointPlan {
    /// Checkpoint file for this run; `None` disables checkpointing.
    pub path: Option<PathBuf>,
    /// Checkpoint period in cycles (0 = the 1 M default).
    pub every: u64,
    /// The benchmark's shared warmed-baseline snapshot, if forking.
    pub warm_base: Option<PathBuf>,
    /// Warmup length in cycles when *creating* the warm base (0 = 50 000).
    pub warm_cycles: u64,
    /// Test hook: crash (exit [`EXIT_AFTER_CODE`]) after N checkpoints.
    pub exit_after: u64,
    /// Fault plan armed on the machine before any restore.
    pub faults: Option<FaultPlan>,
    /// Heartbeat file rewritten at every stop of the run loop.
    pub heartbeat: Option<PathBuf>,
}

impl CheckpointPlan {
    /// A plan that neither checkpoints nor forks nor writes a heartbeat.
    pub fn none() -> CheckpointPlan {
        CheckpointPlan::default()
    }

    /// The effective checkpoint period (defaulted).
    fn period(&self) -> u64 {
        if self.every > 0 {
            self.every
        } else {
            1_000_000
        }
    }

    /// The effective warmup length (defaulted).
    fn warmup(&self) -> u64 {
        if self.warm_cycles > 0 {
            self.warm_cycles
        } else {
            50_000
        }
    }
}

/// Result of a supervised run: the final [`RunResult`] plus whether the
/// machine started from a restored image rather than a cold reset, and
/// whether the control callback cut the run short.
#[derive(Debug, Clone)]
pub struct SupervisedRun {
    /// The (cumulative) run result; chunking is invisible in the numbers.
    pub run: RunResult,
    /// Whether the run resumed from a checkpoint or warmed-baseline image.
    pub restored: bool,
    /// `Some` when the control callback stopped the run before the budget
    /// (parked behind a checkpoint, or aborted).
    pub interrupted: Option<Interrupted>,
}

/// Whether every core runs the unprotected baseline (the only policy a
/// warmed-baseline image may be taken under).
fn is_baseline(sys: &System) -> bool {
    (0..sys.cores()).all(|i| sys.core(i).policy_name() == "unsafe-baseline")
}

/// Runs `sys` to `budget` cycles under `plan`, calling `control` with the
/// run's progress at every stop (every [`STOP_EVERY`] cycles and every
/// checkpoint boundary). See [`Interrupt`] for what the callback can do;
/// chunking is proven bit-identical to an uninterrupted `sys.run(budget)`.
pub fn run_supervised_with(
    sys: &mut System,
    budget: u64,
    plan: &CheckpointPlan,
    mut control: impl FnMut(&Heartbeat) -> Interrupt,
) -> SupervisedRun {
    if let Some(faults) = &plan.faults {
        sys.arm_faults(faults);
    }
    let mut restored = false;

    // 1. Resume from a checkpoint when one exists and is intact. A torn
    //    temp file (crash mid-write) is deleted — the rename never happened,
    //    so the main file (if any) is still the last complete image.
    if let Some(path) = &plan.path {
        let tmp = sas_snap::temp_path(path);
        if tmp.exists() {
            let _ = std::fs::remove_file(&tmp);
            eprintln!("sas-bench: removed torn checkpoint temp {}", tmp.display());
        }
        if path.exists() {
            match snapshot::restore_system_from(sys, path) {
                Ok(()) => {
                    restored = true;
                    eprintln!(
                        "sas-bench: resumed from checkpoint {} at cycle {}",
                        path.display(),
                        sys.cycle()
                    );
                }
                Err(e) => {
                    eprintln!(
                        "sas-bench: checkpoint {} rejected ({e}); replaying from start",
                        path.display()
                    );
                    let _ = std::fs::remove_file(path);
                }
            }
        }
    }

    // 2. Otherwise fork from the benchmark's warmed-baseline image — or, on
    //    the baseline cell itself, create it after the warmup phase.
    if !restored {
        if let Some(warm) = &plan.warm_base {
            if warm.exists() {
                match snapshot::restore_system_from(sys, warm) {
                    Ok(()) => {
                        restored = true;
                        eprintln!(
                            "sas-bench: warm-forked from {} at cycle {}",
                            warm.display(),
                            sys.cycle()
                        );
                    }
                    Err(e) => eprintln!(
                        "sas-bench: warm base {} rejected ({e}); cold start",
                        warm.display()
                    ),
                }
            } else if is_baseline(sys) {
                let warm_at = plan.warmup().min(budget);
                let run = sys.run(warm_at);
                // Only a still-running machine is a useful fork point; a
                // workload that finished inside the warmup window leaves no
                // image and the other cells run cold.
                if matches!(run.exit, RunExit::CycleLimit) && sys.cycle() < budget {
                    match snapshot::write_system_snapshot(sys, warm, true) {
                        Ok(()) => eprintln!(
                            "sas-bench: wrote warm base {} at cycle {}",
                            warm.display(),
                            sys.cycle()
                        ),
                        Err(e) => {
                            eprintln!("sas-bench: cannot write warm base {}: {e}", warm.display())
                        }
                    }
                } else {
                    return SupervisedRun { run, restored: false, interrupted: None };
                }
            }
        }
    }

    // 3. The measurement itself, in chunks that end at every stop.
    let every = plan.period();
    let mut written = 0u64;
    loop {
        let mut next = (sys.cycle() / STOP_EVERY + 1) * STOP_EVERY;
        if plan.path.is_some() {
            next = next.min((sys.cycle() / every + 1) * every);
        }
        let run = sys.run(next.min(budget));
        if !matches!(run.exit, RunExit::CycleLimit) || sys.cycle() >= budget {
            // Done (or genuinely out of budget): drop the checkpoint so a
            // later run of this job cannot resume stale state.
            if let Some(path) = &plan.path {
                let _ = std::fs::remove_file(path);
            }
            return SupervisedRun { run, restored, interrupted: None };
        }
        if let Some(path) = plan.path.as_ref().filter(|_| sys.cycle().is_multiple_of(every)) {
            match snapshot::write_system_snapshot(sys, path, false) {
                Ok(()) => {
                    written += 1;
                    if plan.exit_after > 0 && written >= plan.exit_after {
                        eprintln!(
                            "sas-bench: simulated crash after {written} checkpoint(s) at cycle {}",
                            sys.cycle()
                        );
                        std::process::exit(i32::from(EXIT_AFTER_CODE));
                    }
                }
                // Checkpointing is best-effort; the measurement continues.
                Err(e) => eprintln!("sas-bench: cannot write checkpoint {}: {e}", path.display()),
            }
        }
        let progress = Heartbeat::of(&run);
        if let Some(path) = &plan.heartbeat {
            // Liveness is best-effort too: a failed write leaves the last
            // complete line in place.
            let _ = progress.write(path);
        }
        let interrupted = match control(&progress) {
            Interrupt::None => continue,
            Interrupt::Park(reason) => {
                // A parked job without a checkpoint path is simply cut
                // short and must replay.
                if let Some(path) = &plan.path {
                    if let Err(e) = snapshot::write_system_snapshot(sys, path, false) {
                        eprintln!(
                            "sas-bench: cannot write park checkpoint {}: {e}",
                            path.display()
                        );
                    }
                }
                Interrupted::Parked(reason)
            }
            Interrupt::Abort(reason) => Interrupted::Aborted(reason),
        };
        return SupervisedRun { run, restored, interrupted: Some(interrupted) };
    }
}
