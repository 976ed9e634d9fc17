//! End-to-end checks of the `sas-sim` binary's `--fault-plan` flag.

use std::process::{Command, Output};

/// The all-points plan: every injection point at 5‰, at most four events
/// each, confined to the program data window.
const ALL_POINTS: &str = "seed=42 window=0x4000+0x200 tag_flip=5,4 arch_bit_flip=5,4 \
     mshr_drop_fill=5,4 fill_delay=5,4 force_mispredict=5,4 squash_storm=5,4";

fn sas_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sas-sim")).args(args).output().expect("spawn sas-sim")
}

/// The plan drops a fill in `505.mcf_r`, so the run deadlocks and prints
/// its crash dump after the stats.
#[test]
fn fault_plan_deadlocks_mcf_and_prints_a_crash_dump() {
    let out = sas_sim(&["workload", "505.mcf_r", "--fault-plan", ALL_POINTS]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.lines().any(|l| l.starts_with("exit        : Deadlock")),
        "no deadlock exit in:\n{stdout}"
    );
    assert!(stdout.contains("crash dump at cycle"), "no crash dump in:\n{stdout}");
}

#[test]
fn a_bad_fault_plan_is_a_usage_error_naming_the_flag() {
    for args in [
        &["workload", "505.mcf_r", "--fault-plan", "seed="][..],
        &["workload", "505.mcf_r", "--fault-plan"],
    ] {
        let out = sas_sim(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--fault-plan"), "{args:?}: {stderr}");
    }
}
