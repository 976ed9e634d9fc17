//! Mid-cell checkpointing, corruption-safe resume and warmed-baseline
//! forking for supervised bench cells — and for any other host that wants
//! to drive a [`System`] in resumable, interruptible chunks.
//!
//! [`CheckpointPlan`] + [`run_supervised_with`] are the whole protocol. A
//! caller (a `sas-runner cell` child, the `sas-serve` daemon's worker pool,
//! a test harness) describes *where* checkpoints go and *how often*, and
//! supplies a control callback polled at every cycle-chunk boundary; the
//! callback can let the run continue, **park** it (write a checkpoint and
//! stop, so a later run resumes bit-identically — graceful drain), or
//! **abort** it (stop without a checkpoint — deadline enforcement). Nothing
//! here reads the environment or any other global state, so concurrent runs
//! in one process are fully independent.
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
//!
//! Cells that ran from a restored image (checkpoint or warm base) are
//! tagged `restored: true` in their JSONL/BENCH rows (see [`crate::Cell`]).

use sas_pipeline::{RunExit, RunResult, System};
use specasan::snapshot;
use std::path::PathBuf;

/// Exit code of the simulated mid-cell crash — the supervisor's
/// *environmental* failure code, so the cell is retried (and resumes).
pub const EXIT_AFTER_CODE: u8 = 11;

/// What a [`run_supervised_with`] control callback tells the run loop at a
/// cycle-chunk boundary.
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
/// supervised run.
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
    /// Control-poll period in cycles: the callback runs at least this often
    /// even between checkpoints. `None` polls only on checkpoint boundaries.
    pub poll_every: Option<u64>,
}

impl CheckpointPlan {
    /// A plan that neither checkpoints nor forks: `run` is one plain
    /// `sys.run(budget)` (unless `poll_every` is later set).
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

/// Runs `sys` to `budget` cycles under `plan`, polling `control` at every
/// cycle-chunk boundary (checkpoint periods, plus `plan.poll_every` when
/// set). See [`Interrupt`] for what the callback can do; chunking is proven
/// bit-identical to an uninterrupted `sys.run(budget)`.
pub fn run_supervised_with(
    sys: &mut System,
    budget: u64,
    plan: &CheckpointPlan,
    mut control: impl FnMut(&System) -> Interrupt,
) -> SupervisedRun {
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

    // 3. The measurement itself, chunked on checkpoint and poll boundaries.
    if plan.path.is_none() && plan.poll_every.is_none() {
        return SupervisedRun { run: sys.run(budget), restored, interrupted: None };
    }
    let every = plan.period();
    let mut written = 0u64;
    // Parks the run behind a checkpoint (when one is configured); a parked
    // job without a checkpoint path is simply cut short and must replay.
    let park = |sys: &mut System, run: RunResult, reason: String, restored: bool| {
        if let Some(path) = &plan.path {
            if let Err(e) = snapshot::write_system_snapshot(sys, path, false) {
                eprintln!("sas-bench: cannot write park checkpoint {}: {e}", path.display());
            }
        }
        SupervisedRun { run, restored, interrupted: Some(Interrupted::Parked(reason)) }
    };
    loop {
        let next_ckpt = if plan.path.is_some() {
            (sys.cycle() / every + 1) * every
        } else {
            budget
        };
        let next_poll = match plan.poll_every.filter(|&p| p > 0) {
            Some(p) => (sys.cycle() / p + 1) * p,
            None => budget,
        };
        let next = next_ckpt.min(next_poll).min(budget);
        let run = sys.run(next);
        if !matches!(run.exit, RunExit::CycleLimit) || sys.cycle() >= budget {
            // Done (or genuinely out of budget): drop the checkpoint so a
            // later run of this job cannot resume stale state.
            if let Some(path) = &plan.path {
                let _ = std::fs::remove_file(path);
            }
            return SupervisedRun { run, restored, interrupted: None };
        }
        if plan.path.is_some() && sys.cycle() >= next_ckpt {
            let path = plan.path.as_ref().expect("checked above");
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
        match control(sys) {
            Interrupt::None => {}
            Interrupt::Park(reason) => return park(sys, run, reason, restored),
            Interrupt::Abort(reason) => {
                return SupervisedRun {
                    run,
                    restored,
                    interrupted: Some(Interrupted::Aborted(reason)),
                }
            }
        }
    }
}
