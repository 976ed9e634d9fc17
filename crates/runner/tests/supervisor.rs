//! End-to-end tests of the `sas-runner` supervisor binary: process
//! isolation, watchdog kills, checkpoint/resume after a real SIGKILL, and
//! shrinker repro bundles.
//!
//! Fast cells (selftest, chaos) keep the default run quick; the full
//! SPEC-grid acceptance scenario is gated behind `SAS_RUNNER_TEST_FULL=1`
//! because debug-build SPEC workload construction costs ~30 s per cell
//! (tier-1 runs the same scenario against the release binary).

use sas_runner::cell::CellId;
use sas_runner::manifest;
use sas_runner::shrink;
use sas_runner::supervisor::Config;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_sas-runner");

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sas-runner-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn runner(args: &[&str]) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.args(args)
        .env_remove("SAS_BENCH_JSONL")
        .env_remove("SAS_RUNNER_SELFTEST");
    cmd
}

fn run_capture(args: &[&str]) -> (bool, String, String) {
    let out = runner(args).output().expect("spawn sas-runner");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn panicked_cell_is_recorded_and_campaign_continues() {
    let dir = tmp_dir("panic");
    let manifest_path = dir.join("m.jsonl");
    let (ok, stdout, _stderr) = run_capture(&[
        "run",
        "--cells",
        "selftest/panic,selftest/ok",
        "--no-shrink",
        "--manifest",
        manifest_path.to_str().unwrap(),
    ]);
    // The campaign must fail overall…
    assert!(!ok, "campaign with a panicking cell must exit nonzero\n{stdout}");
    // …while still completing and recording every cell.
    let records = manifest::load_and_repair(&manifest_path).unwrap();
    assert_eq!(records.len(), 2, "{records:?}");
    let panic = records.iter().find(|r| r.cell == "selftest/panic").unwrap();
    assert!(!panic.ok && panic.exit == "panic", "{panic:?}");
    assert!(panic.detail.contains("deliberate"), "{panic:?}");
    let okcell = records.iter().find(|r| r.cell == "selftest/ok").unwrap();
    assert!(okcell.ok, "{okcell:?}");
    // The failure summary names the failed cell.
    assert!(stdout.contains("FAILED selftest/panic [panic]"), "{stdout}");
}

#[test]
fn watchdog_kills_hung_cell_and_records_timeout() {
    let dir = tmp_dir("watchdog");
    let manifest_path = dir.join("m.jsonl");
    let started = Instant::now();
    let (ok, stdout, _stderr) = run_capture(&[
        "run",
        "--cells",
        "selftest/hang",
        "--timeout-ms",
        "1200",
        "--no-shrink",
        "--manifest",
        manifest_path.to_str().unwrap(),
    ]);
    assert!(!ok, "hung cell must fail the campaign\n{stdout}");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "watchdog did not kill the hang in time ({:?})",
        started.elapsed()
    );
    let records = manifest::load_and_repair(&manifest_path).unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].exit, "timeout", "{records:?}");
    assert!(!records[0].ok);
    assert!(stdout.contains("FAILED selftest/hang [timeout]"), "{stdout}");
}

#[test]
fn flaky_cell_succeeds_after_environmental_retry() {
    let dir = tmp_dir("flaky");
    let manifest_path = dir.join("m.jsonl");
    let (ok, stdout, _stderr) = run_capture(&[
        "run",
        "--cells",
        "selftest/flaky",
        "--retries",
        "2",
        "--backoff-ms",
        "10",
        "--no-shrink",
        "--manifest",
        manifest_path.to_str().unwrap(),
    ]);
    assert!(ok, "flaky cell must succeed after a retry\n{stdout}");
    let records = manifest::load_and_repair(&manifest_path).unwrap();
    assert_eq!(records.len(), 1);
    assert!(records[0].ok && records[0].attempts == 2, "{records:?}");
}

/// The checkpoint/resume contract, against a real SIGKILL: a campaign is
/// killed mid-run (one cell recorded, one not — plus a torn trailing line,
/// as if the kill landed mid-write), and `--resume` re-runs only the
/// incomplete cell.
#[test]
fn resume_after_sigkill_reruns_only_incomplete_cells() {
    let dir = tmp_dir("resume");
    let manifest_path = dir.join("m.jsonl");
    // selftest/flaky with a huge backoff parks the supervisor in a
    // predictable sleep after selftest/ok completes — a stable kill window
    // with no orphaned grandchildren.
    let mut child = runner(&[
        "run",
        "--cells",
        "selftest/ok,selftest/flaky",
        "--jobs",
        "1",
        "--retries",
        "2",
        "--backoff-ms",
        "120000",
        "--no-shrink",
        "--manifest",
        manifest_path.to_str().unwrap(),
    ])
    .stdout(Stdio::null())
    .stderr(Stdio::null())
    .spawn()
    .expect("spawn supervisor");
    // Wait for the first cell's row to be checkpointed.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let done = manifest::load_and_repair(&manifest_path)
            .map(|rs| rs.iter().any(|r| r.cell == "selftest/ok"))
            .unwrap_or(false);
        if done {
            break;
        }
        assert!(Instant::now() < deadline, "selftest/ok never appeared in the manifest");
        std::thread::sleep(Duration::from_millis(20));
    }
    // SIGKILL the supervisor mid-campaign.
    child.kill().expect("kill supervisor");
    let _ = child.wait();
    let before = manifest::load_and_repair(&manifest_path).unwrap();
    assert_eq!(before.len(), 1, "{before:?}");
    // Simulate the kill landing mid-append: a torn, newline-less row.
    {
        use std::io::Write as _;
        let mut f =
            std::fs::OpenOptions::new().append(true).open(&manifest_path).unwrap();
        f.write_all(b"{\"cell\":\"selftest/fl").unwrap();
    }
    // Resume: only selftest/flaky may run again.
    let (ok, _stdout, stderr) = run_capture(&[
        "run",
        "--cells",
        "selftest/ok,selftest/flaky",
        "--resume",
        "--retries",
        "2",
        "--backoff-ms",
        "10",
        "--no-shrink",
        "--manifest",
        manifest_path.to_str().unwrap(),
    ]);
    assert!(ok, "resumed campaign should finish green\n{stderr}");
    assert!(
        stderr.contains("skipping completed cell selftest/ok"),
        "resume must skip the recorded cell\n{stderr}"
    );
    let after = manifest::load_and_repair(&manifest_path).unwrap();
    assert_eq!(after.len(), 2, "{after:?}");
    // The completed cell's row is byte-identical — it was not re-run.
    assert_eq!(after[0], before[0]);
    assert_eq!(after[1].cell, "selftest/flaky");
    assert!(after[1].ok && after[1].attempts >= 2, "{after:?}");
}

/// A cell's inputs are its flags: a fault seed left in the calling shell
/// must not reach a supervised child and change campaign numbers.
#[test]
fn shell_fault_seed_does_not_change_campaign_numbers() {
    let dir = tmp_dir("fault-seed-leak");
    let row = |name: &str, fault_seed: Option<&str>| {
        let manifest_path = dir.join(name);
        let mut cmd = runner(&[
            "run",
            "--cells",
            "spec/505.mcf_r/unsafe",
            "--iters",
            "5",
            "--no-shrink",
            "--manifest",
            manifest_path.to_str().unwrap(),
        ]);
        if let Some(seed) = fault_seed {
            cmd.env("SAS_FAULT_SEED", seed);
        }
        let out = cmd.output().expect("spawn sas-runner");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
        let mut records = manifest::load_and_repair(&manifest_path).unwrap();
        assert_eq!(records.len(), 1, "{records:?}");
        records.remove(0)
    };
    let clean = row("clean.jsonl", None);
    let seeded = row("seeded.jsonl", Some("42"));
    assert!(clean.cpi.is_some(), "{clean:?}");
    assert_eq!((seeded.cycles, &seeded.cpi), (clean.cycles, &clean.cpi));
}

/// A malformed `--fault-plan` on a cell child is a usage error, not a
/// panic inside the cell.
#[test]
fn bad_cell_fault_plan_is_a_usage_error() {
    let out = runner(&["cell", "spec/505.mcf_r/unsafe", "--fault-plan", "bogus"])
        .output()
        .expect("spawn sas-runner");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--fault-plan"), "{stderr}");
}

/// `--attempt` is a `u32`: a value past it is refused, not wrapped into a
/// small attempt number (4294967298 used to run as attempt 2, where the
/// flaky selftest passes).
#[test]
fn an_attempt_past_u32_is_a_usage_error() {
    let out = runner(&["cell", "selftest/flaky", "--attempt", "4294967298"])
        .output()
        .expect("spawn sas-runner");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--attempt"), "{stderr}");
}

/// The shrinker's repro bundles replay to the same failure signature. A
/// corrupting chaos campaign is used as the subject: its probe signature is
/// a detected-failure class (divergence/fault/audit), deterministic and
/// cheap, so the whole shrink runs in seconds even in debug builds.
#[test]
fn shrinker_bundle_reproduces_the_failure_class() {
    let dir = tmp_dir("shrink");
    let seed = specasan::chaos::campaign_seed(0);
    let cell = CellId::Chaos { seed };
    let mut cfg = Config::new(dir.join("m.jsonl"));
    cfg.child_exe = PathBuf::from(BIN);
    cfg.repro_dir = dir.join("repro");
    cfg.timeout = Duration::from_secs(60);
    cfg.iters = 2;
    let outcome = shrink::shrink_cell(&cell, &cfg).expect("chaos cell must shrink");
    assert_ne!(outcome.signature, "clean");
    assert!(outcome.probes > 0 && outcome.probes <= shrink::PROBE_BUDGET);
    assert!(outcome.dir.join("meta.json").is_file());
    assert!(outcome.dir.join("repro.sasm").is_file(), "chaos bundles ship the program");
    assert!(outcome.dir.join("plan.txt").is_file());
    // The minimized program still carries its HALT (never NOPped).
    let meta = shrink::load_bundle(&outcome.dir).unwrap();
    assert_eq!(meta.cell, cell);
    assert_eq!(meta.signature, outcome.signature);
    // Replay re-checks the signature and must agree.
    let (ok, stdout, stderr) =
        run_capture(&["replay", outcome.dir.to_str().unwrap()]);
    assert!(ok, "replay must reproduce the failure\n{stdout}\n{stderr}");
    assert!(stdout.contains("replay OK"), "{stdout}");
}

/// A bundle whose `meta.json` carries an iteration count outside
/// `1..=u32::MAX` is unreadable: `replay` exits 2 naming `iters`.
#[test]
fn replay_refuses_a_bundle_with_a_bad_iteration_count() {
    for (name, iters) in [("zero", "0"), ("wrap", "4294967296")] {
        let dir = tmp_dir(&format!("bad-iters-{name}")).join("spec-505.mcf_r-stt");
        std::fs::create_dir_all(&dir).unwrap();
        let meta = format!(
            "{{\"cell\":\"spec/505.mcf_r/stt\",\"signature\":\"abort:deadlock\",\"iters\":{iters},\"nops\":\"\"}}\n"
        );
        std::fs::write(dir.join("meta.json"), meta).unwrap();
        let out = runner(&["replay", dir.to_str().unwrap()]).output().expect("spawn sas-runner");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "iters {iters}: {stderr}");
        assert!(stderr.contains("\"iters\""), "iters {iters}: {stderr}");
    }
}

/// The paper-grid acceptance scenario: a fault plan deterministically aborts
/// one SPEC cell; the campaign completes every other cell, exits nonzero
/// naming the failed cell, writes a replayable repro bundle, and a resumed
/// run skips everything already recorded. Debug-build SPEC workload setup is
/// ~30 s per cell, so this runs only with `SAS_RUNNER_TEST_FULL=1` (tier-1
/// exercises the same path against the release binary).
#[test]
fn fig6_campaign_degrades_gracefully_under_an_injected_fault() {
    if std::env::var("SAS_RUNNER_TEST_FULL").is_err() {
        eprintln!("skipping: set SAS_RUNNER_TEST_FULL=1 to run the full fig6 scenario");
        return;
    }
    let dir = tmp_dir("fig6");
    let manifest_path = dir.join("m.jsonl");
    let repro_dir = dir.join("repro");
    let (ok, stdout, stderr) = run_capture(&[
        "fig6",
        "--benchmarks",
        "505.mcf_r",
        "--iters",
        "2",
        "--fault-cell",
        "spec/505.mcf_r/stt",
        "--fault-plan",
        "seed=0x2a mshr_drop_fill=1000,2",
        "--timeout-ms",
        "120000",
        "--manifest",
        manifest_path.to_str().unwrap(),
        "--repro-dir",
        repro_dir.to_str().unwrap(),
    ]);
    assert!(!ok, "campaign with an aborted cell must exit nonzero\n{stdout}\n{stderr}");
    assert!(stdout.contains("FAILED spec/505.mcf_r/stt"), "{stdout}");
    let records = manifest::load_and_repair(&manifest_path).unwrap();
    assert_eq!(records.len(), 5, "{records:?}");
    let failed: Vec<_> = records.iter().filter(|r| !r.ok).collect();
    assert_eq!(failed.len(), 1, "only the faulted cell fails: {records:?}");
    assert_eq!(failed[0].cell, "spec/505.mcf_r/stt");
    let bundle = failed[0].repro.as_ref().expect("failed cell gets a repro bundle");
    let (ok, stdout, _stderr) = run_capture(&["replay", bundle]);
    assert!(ok && stdout.contains("replay OK"), "{stdout}");
    // Resume over the complete manifest is a no-op apart from the recorded
    // failure keeping the exit nonzero.
    let (ok, _stdout, stderr) = run_capture(&[
        "fig6",
        "--benchmarks",
        "505.mcf_r",
        "--iters",
        "2",
        "--resume",
        "--no-shrink",
        "--manifest",
        manifest_path.to_str().unwrap(),
    ]);
    assert!(!ok, "recorded failure keeps the resumed campaign red");
    assert_eq!(stderr.matches("skipping completed cell").count(), 5, "{stderr}");
}

/// The mid-cell checkpoint acceptance scenario, both crash paths:
///
/// 1. *Environmental crash + retry*: the crash hook kills the child right
///    after its first checkpoint; the supervisor's retry resumes from it and
///    the recorded cycle count equals an uninterrupted reference run.
/// 2. *Supervisor SIGKILL + `--resume`*: the supervisor itself is killed
///    while parked in backoff (no manifest row written); a `--resume`
///    campaign picks the cell back up from the surviving checkpoint and
///    again lands on the reference numbers.
///
/// Gated like the fig6 scenario: debug SPEC workload setup is ~30 s/cell.
#[test]
fn checkpointed_cell_resumes_bit_identically_after_crash_and_sigkill() {
    if std::env::var("SAS_RUNNER_TEST_FULL").is_err() {
        eprintln!("skipping: set SAS_RUNNER_TEST_FULL=1 to run the checkpoint scenario");
        return;
    }
    let dir = tmp_dir("ckpt");
    let cell = "spec/505.mcf_r/unsafe";
    let common = |manifest: &PathBuf| {
        vec![
            "run".to_string(),
            "--cells".to_string(),
            cell.to_string(),
            "--iters".to_string(),
            // Long enough (tens of thousands of cycles) that several
            // checkpoint boundaries land strictly inside the run.
            "25".to_string(),
            "--timeout-ms".to_string(),
            "240000".to_string(),
            "--no-shrink".to_string(),
            "--manifest".to_string(),
            manifest.to_str().unwrap().to_string(),
        ]
    };
    let record = |manifest: &PathBuf| {
        let records = manifest::load_and_repair(manifest).unwrap();
        assert_eq!(records.len(), 1, "{records:?}");
        records.into_iter().next().unwrap()
    };

    // Uninterrupted reference: plain run, no checkpointing.
    let ref_manifest = dir.join("ref.jsonl");
    let mut args = common(&ref_manifest);
    args.push("--no-checkpoint".to_string());
    let args_ref: Vec<&str> = args.iter().map(String::as_str).collect();
    let (ok, stdout, stderr) = run_capture(&args_ref);
    assert!(ok, "reference run must be green\n{stdout}\n{stderr}");
    let reference = record(&ref_manifest);
    assert!(reference.ok && !reference.restored, "{reference:?}");
    assert!(reference.cycles > 10_000, "subject too short to checkpoint: {reference:?}");
    // Checkpoint well before the end so the crash hook always fires mid-run.
    let every = (reference.cycles / 4).to_string();

    // Path 1: crash after the first checkpoint, environmental retry resumes.
    let crash_manifest = dir.join("crash.jsonl");
    let state = dir.join("state-crash");
    let mut args = common(&crash_manifest);
    args.extend(
        ["--retries", "2", "--backoff-ms", "10", "--checkpoint-dir", state.to_str().unwrap(), "--checkpoint-every", &every, "--crash-after-checkpoints", "1"]
            .map(String::from),
    );
    let args_crash: Vec<&str> = args.iter().map(String::as_str).collect();
    let out = runner(&args_crash)
        .output()
        .expect("spawn supervisor");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "retry must recover the crash\n{stderr}");
    let crashed = record(&crash_manifest);
    assert!(crashed.ok, "{crashed:?}");
    assert_eq!(crashed.attempts, 2, "exactly one environmental crash: {crashed:?}");
    assert!(crashed.restored, "the retry must resume from the checkpoint: {crashed:?}");
    assert_eq!(
        crashed.cycles, reference.cycles,
        "resumed run must reproduce the uninterrupted cycle count"
    );

    // Path 2: SIGKILL the supervisor itself, then --resume.
    let kill_manifest = dir.join("kill.jsonl");
    let state = dir.join("state-kill");
    let ckpt = sas_runner::supervisor::checkpoint_path(&state, &CellId::parse(cell).unwrap());
    let mut args = common(&kill_manifest);
    args.extend(
        ["--retries", "2", "--backoff-ms", "120000", "--checkpoint-dir", state.to_str().unwrap(), "--checkpoint-every", &every, "--crash-after-checkpoints", "1"]
            .map(String::from),
    );
    let args_kill: Vec<&str> = args.iter().map(String::as_str).collect();
    let mut child = runner(&args_kill)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn supervisor");
    // The child crashes itself right after writing the checkpoint; the
    // supervisor then parks in backoff — a stable SIGKILL window.
    let deadline = Instant::now() + Duration::from_secs(180);
    while !ckpt.exists() {
        assert!(Instant::now() < deadline, "checkpoint never appeared at {}", ckpt.display());
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_millis(1500));
    child.kill().expect("kill supervisor");
    let _ = child.wait();
    assert!(
        manifest::load_and_repair(&kill_manifest).unwrap().is_empty(),
        "the killed campaign must not have recorded the cell"
    );
    assert!(ckpt.exists(), "the checkpoint must survive the SIGKILL");
    // Resume without the crash hook: restores the checkpoint and finishes.
    let mut args = common(&kill_manifest);
    args.extend(
        ["--resume", "--retries", "2", "--backoff-ms", "10", "--checkpoint-dir", state.to_str().unwrap(), "--checkpoint-every", &every]
            .map(String::from),
    );
    let args_resume: Vec<&str> = args.iter().map(String::as_str).collect();
    let (ok, stdout, stderr) = run_capture(&args_resume);
    assert!(ok, "resumed campaign must finish green\n{stdout}\n{stderr}");
    let resumed = record(&kill_manifest);
    assert!(resumed.ok && resumed.restored, "{resumed:?}");
    assert_eq!(
        resumed.cycles, reference.cycles,
        "a SIGKILLed campaign resumed from its checkpoint must reproduce the reference"
    );
    assert!(!ckpt.exists(), "a completed cell must drop its checkpoint");
}
