//! The bench-layer checkpoint/warm-fork protocol, end to end in-process:
//! resume is bit-identical, torn temp files are cleaned, corrupt
//! checkpoints degrade to replay-from-start, warmed-baseline images are
//! created by the baseline cell and forked by every other mitigation, and
//! the run loop's stops poll the control callback and rewrite the heartbeat
//! without touching the numbers.
//!
//! Each test hands its own `CheckpointPlan` to `run_supervised_with`, so
//! the tests share no process state and run in parallel.

use sas_bench::checkpoint::{
    run_supervised_with, CheckpointPlan, Interrupt, Interrupted, SupervisedRun, STOP_EVERY,
};
use sas_bench::heartbeat::{self, Heartbeat};
use sas_pipeline::{RunExit, RunResult, System};
use specasan::{build_system, chaos, Mitigation, SimConfig};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const BUDGET: u64 = 1_000_000_000;

/// Runs `sys` to the budget under `plan`, never interrupting it.
fn run(sys: &mut System, plan: &CheckpointPlan) -> SupervisedRun {
    run_supervised_with(sys, BUDGET, plan, |_| Interrupt::None)
}

/// A plan that checkpoints to `path` every `every` cycles.
fn checkpointing(path: &Path, every: u64) -> CheckpointPlan {
    CheckpointPlan { path: Some(path.to_path_buf()), every, ..CheckpointPlan::none() }
}

/// A deterministic chaos-schedule program that runs long enough to cross
/// several checkpoint/warmup boundaries (picked once, reused everywhere).
fn subject_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        (0..64)
            .map(chaos::campaign_seed)
            .find(|&s| {
                // The tests run it under several mitigations: it must halt
                // cleanly (and slowly enough) under all of them.
                [Mitigation::Unsafe, Mitigation::SpecAsan, Mitigation::Fence].iter().all(|&m| {
                    let mut sys = subject(s, m);
                    let run = sys.run(BUDGET);
                    matches!(run.exit, RunExit::Halted) && run.cycles > 400
                })
            })
            .expect("some chaos program must halt after 400+ cycles under every mitigation")
    })
}

fn subject(seed: u64, m: Mitigation) -> System {
    build_system(&SimConfig::table2(), chaos::campaign_program(seed), m)
}

/// Everything a run's outcome is compared on: exit, absolute cycles, and
/// the cumulative core/memory statistics.
fn digest(run: &RunResult) -> (String, u64, String, String) {
    (
        format!("{:?}", run.exit),
        run.cycles,
        format!("{:?}", run.core_stats),
        format!("{:?}", run.mem_stats),
    )
}

fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sas-bench-ckpt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn resume_from_a_mid_run_checkpoint_is_bit_identical() {
    let seed = subject_seed();
    let reference = subject(seed, Mitigation::Unsafe).run(BUDGET);
    let ckpt = state_dir("resume").join("cell.ckpt.snap");

    // Simulate the crashed first attempt: run partway, checkpoint, drop.
    let mut first = subject(seed, Mitigation::Unsafe);
    first.run(reference.cycles / 2);
    specasan::snapshot::write_system_snapshot(&first, &ckpt, false).unwrap();
    drop(first);

    // The retry resumes from the checkpoint and must finish identically.
    let mut retry = subject(seed, Mitigation::Unsafe);
    let sr = run(&mut retry, &checkpointing(&ckpt, 50));
    assert!(sr.restored, "the retry must restore the checkpoint");
    assert_eq!(digest(&sr.run), digest(&reference), "resumed run must be bit-identical");
    assert!(!ckpt.exists(), "a completed cell must drop its checkpoint");
}

#[test]
fn torn_tmp_only_snapshot_falls_back_to_cold_start_and_cleans_it() {
    let seed = subject_seed();
    let reference = subject(seed, Mitigation::Unsafe).run(BUDGET);
    let ckpt = state_dir("torn").join("cell.ckpt.snap");
    // The kill landed mid-write: only the staging temp exists, half-written.
    let tmp = sas_snap::temp_path(&ckpt);
    std::fs::write(&tmp, b"SASNAP\x00\x01 torn mid-write").unwrap();

    let mut sys = subject(seed, Mitigation::Unsafe);
    let sr = run(&mut sys, &checkpointing(&ckpt, 100));
    assert!(!sr.restored, "a torn temp is not a checkpoint — cold start");
    assert!(!tmp.exists(), "the stale temp must be cleaned up");
    assert_eq!(digest(&sr.run), digest(&reference), "fallback must replay from the start");
}

#[test]
fn corrupt_checkpoint_degrades_to_replay_from_start() {
    let seed = subject_seed();
    let reference = subject(seed, Mitigation::Unsafe).run(BUDGET);
    let ckpt = state_dir("corrupt").join("cell.ckpt.snap");

    let mut partial = subject(seed, Mitigation::Unsafe);
    partial.run(reference.cycles / 2);
    specasan::snapshot::write_system_snapshot(&partial, &ckpt, false).unwrap();
    // Flip one payload byte: the CRC check must reject the whole image.
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&ckpt, bytes).unwrap();

    let mut sys = subject(seed, Mitigation::Unsafe);
    let sr = run(&mut sys, &checkpointing(&ckpt, 100));
    assert!(!sr.restored, "a corrupt checkpoint must never be resumed");
    assert!(!ckpt.exists(), "the rejected checkpoint must be deleted");
    assert_eq!(digest(&sr.run), digest(&reference), "degraded run must replay from the start");
}

#[test]
fn warm_baseline_image_is_created_once_and_forked_by_mitigations() {
    let seed = subject_seed();
    let warm = state_dir("warm").join("warm-subject.snap");
    let plan =
        CheckpointPlan { warm_base: Some(warm.clone()), warm_cycles: 100, ..CheckpointPlan::none() };

    // The baseline cell runs warmup cold and writes the shared image.
    let mut base = subject(seed, Mitigation::Unsafe);
    let base_run = run(&mut base, &plan);
    assert!(!base_run.restored, "the baseline itself starts cold");
    assert!(matches!(base_run.run.exit, RunExit::Halted), "{:?}", base_run.run.exit);
    assert!(warm.exists(), "the baseline must leave a warm image behind");

    // Every mitigation cell forks from it — and still computes the same
    // architectural result as its own cold run.
    for m in [Mitigation::SpecAsan, Mitigation::Fence] {
        let mut forked = subject(seed, m);
        let sr = run(&mut forked, &plan);
        assert!(sr.restored, "{m:?} must fork from the warm image");
        assert!(matches!(sr.run.exit, RunExit::Halted), "{:?}", sr.run.exit);
        // The fork changes microarchitectural history, never architecture:
        // the forked run computes exactly what the cold run computes.
        for r in [sas_isa::Reg::X0, sas_isa::Reg::X1, sas_isa::Reg::X2, sas_isa::Reg::X3] {
            assert_eq!(forked.core(0).reg(r), subject_final_reg(seed, m, r), "{m:?} {r:?}");
        }
    }
    assert!(warm.exists(), "warm images are shared — mitigation cells must not delete them");
}

/// The final value of `r` after a cold uninterrupted run under `m`.
fn subject_final_reg(seed: u64, m: Mitigation, r: sas_isa::Reg) -> u64 {
    let mut sys = subject(seed, m);
    sys.run(BUDGET);
    sys.core(0).reg(r)
}

#[test]
fn control_is_polled_every_stop_without_a_checkpoint() {
    // A program that never halts: only the control callback can end it.
    let program = sas_isa::parse_program(".entry main\nmain:\nloop:\nADD X1, X1, #1\nB loop\n")
        .expect("loop program parses");
    let mut sys = build_system(&SimConfig::table2(), program, Mitigation::Unsafe);
    let mut seen: Vec<Heartbeat> = Vec::new();
    let sr = run_supervised_with(&mut sys, 10 * STOP_EVERY, &CheckpointPlan::none(), |hb| {
        seen.push(hb.clone());
        if hb.cycle >= 3 * STOP_EVERY {
            Interrupt::Abort("enough".into())
        } else {
            Interrupt::None
        }
    });
    let cycles: Vec<u64> = seen.iter().map(|hb| hb.cycle).collect();
    assert_eq!(cycles, [STOP_EVERY, 2 * STOP_EVERY, 3 * STOP_EVERY]);
    assert!(seen.windows(2).all(|w| w[0].committed < w[1].committed), "{seen:?}");
    assert_eq!(sr.interrupted, Some(Interrupted::Aborted("enough".into())));
    assert_eq!(sr.run.cycles, 3 * STOP_EVERY);
    assert_eq!(Heartbeat::of(&sr.run), seen[2], "the record is the stop's run result");
}

#[test]
fn a_heartbeat_armed_cell_matches_an_unarmed_one() {
    // Long enough to cross at least one stop under both mitigations.
    const ITERS: u32 = 100;
    let suite = sas_workloads::spec_suite();
    let mcf = suite.iter().find(|p| p.name == "505.mcf_r").expect("mcf profile");
    let dir = state_dir("heartbeat");
    for m in [Mitigation::Fence, Mitigation::SpecAsan] {
        let hb_path = dir.join(format!("hb-{}.json", m.token()));
        let armed_plan =
            CheckpointPlan { heartbeat: Some(hb_path.clone()), ..CheckpointPlan::none() };
        // One uninterrupted engine run is the reference for both cells.
        let reference = sas_bench::build_spec_system(mcf, m, ITERS).run(BUDGET);
        assert!(reference.cycles > STOP_EVERY, "{m:?}: {} cycles cross no stop", reference.cycles);
        let cell = |plan: &CheckpointPlan| {
            let sys = sas_bench::build_spec_system(mcf, m, ITERS);
            let cell = sas_bench::run_cell_with(sys, "spec", mcf.name, m, plan)
                .expect("mcf halts cleanly");
            assert_eq!(
                (cell.cycles, cell.committed, cell.run.cpi()),
                (reference.cycles, reference.committed(), reference.cpi()),
                "{m:?}: neither the stops nor the heartbeat may change the numbers"
            );
            cell
        };
        cell(&CheckpointPlan::none());
        let armed = cell(&armed_plan);
        let text = std::fs::read_to_string(&hb_path).expect("heartbeat file written");
        assert_eq!(text.lines().count(), 1, "{m:?}: one record: {text:?}");
        let hb = Heartbeat::parse(&text).expect("a complete sas-hb-v2 record");
        assert!(hb.cycle > 0 && hb.cycle.is_multiple_of(STOP_EVERY), "{m:?}: {hb:?}");
        assert!(hb.cycle < armed.cycles && hb.committed < armed.committed, "{m:?}: {hb:?}");
        assert!(!heartbeat::temp_path(&hb_path).exists(), "{m:?}: staging file must not linger");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
