//! The campaign supervisor: process isolation, watchdogs, retry/backoff,
//! checkpointed manifests and graceful degradation.
//!
//! Every cell runs in a **child process** — the current executable re-invoked
//! as `sas-runner cell <id>` — so a deadlocked simulator, a panicking
//! harness or an OOM kill can only ever take down one cell. The parent
//! enforces a wall-clock watchdog per cell, classifies failures into
//! *deterministic* (recorded, never retried — the simulator is
//! deterministic, a retry would reproduce the failure bit-for-bit) and
//! *environmental* (spawn errors, signal kills: retried with capped,
//! jittered exponential backoff), and appends every outcome to the
//! crash-safe manifest the campaign can later `--resume` from.
//!
//! With a [`Config::checkpoint_dir`] armed, each SPEC/PARSEC child also
//! writes periodic **mid-cell snapshots** (`sas-bench`'s checkpoint
//! protocol, handed over as `sas-runner cell --checkpoint …` flags): a child killed mid-measurement — watchdog, OOM, operator, or
//! a supervisor SIGKILL — resumes *within* the cell from its newest valid
//! checkpoint on the next attempt or `--resume`, instead of replaying from
//! cycle zero. [`Config::warm_fork`] additionally shares one warmed
//! `unsafe`-baseline snapshot per benchmark: baseline cells are scheduled
//! first and write the warm image; every other mitigation cell of the same
//! benchmark forks from it past warmup.

use crate::capture::{self, Watched};
use crate::cell::{self, CellId};
use crate::manifest::{self, Record};
use crate::{heartbeat, sweep};
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Child exit code for a deterministic cell failure (no retry).
pub const EXIT_DETERMINISTIC: i32 = 10;

/// Child exit code for an environmental (retriable) cell failure.
pub const EXIT_ENVIRONMENTAL: i32 = 11;

/// Supervision policy for one campaign.
#[derive(Debug, Clone)]
pub struct Config {
    /// Concurrent worker threads (each supervising one child at a time).
    pub jobs: usize,
    /// Per-cell wall-clock watchdog budget.
    pub timeout: Duration,
    /// Environmental retries per cell (attempts = retries + 1).
    pub retries: u32,
    /// Base backoff before the first environmental retry; doubles per retry.
    pub backoff: Duration,
    /// Manifest path (checkpoint + result log).
    pub manifest_path: PathBuf,
    /// Skip cells that already have a manifest row.
    pub resume: bool,
    /// Outer-loop iterations handed to bench cells.
    pub iters: u32,
    /// Cell id whose child gets `--fault-plan` armed.
    pub fault_cell: Option<String>,
    /// The fault-plan spec to arm on that cell.
    pub fault_plan: Option<String>,
    /// Shrink deterministic failures into repro bundles.
    pub shrink: bool,
    /// Where repro bundles are written.
    pub repro_dir: PathBuf,
    /// The executable to re-invoke for child cells (defaults to
    /// `current_exe`).
    pub child_exe: PathBuf,
    /// Mid-cell snapshot state directory. When set, SPEC/PARSEC children
    /// checkpoint periodically and resume from their newest valid
    /// checkpoint; `None` disables mid-cell checkpointing entirely.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint period override, in cycles (`None` = the bench default).
    pub checkpoint_every: Option<u64>,
    /// Fork mitigation cells from a per-benchmark warmed-baseline snapshot
    /// (requires [`Config::checkpoint_dir`] for the shared state files).
    pub warm_fork: bool,
    /// Test hook: first-attempt bench children exit as if crashed right
    /// after writing this many checkpoints (`sas-runner cell
    /// --crash-after-checkpoints`), so the retry resumes from one.
    pub crash_after_checkpoints: Option<u64>,
}

impl Config {
    /// A default policy writing to `manifest_path`: one job, 120 s
    /// watchdog, 2 environmental retries with 200 ms base backoff,
    /// shrinking enabled into `target/repro`.
    pub fn new(manifest_path: PathBuf) -> Config {
        Config {
            jobs: 1,
            timeout: Duration::from_secs(120),
            retries: 2,
            backoff: Duration::from_millis(200),
            manifest_path,
            resume: false,
            iters: sas_bench::bench_iterations(),
            fault_cell: None,
            fault_plan: None,
            shrink: true,
            repro_dir: PathBuf::from("target/repro"),
            child_exe: std::env::current_exe().unwrap_or_else(|_| PathBuf::from("sas-runner")),
            checkpoint_dir: None,
            checkpoint_every: None,
            warm_fork: false,
            crash_after_checkpoints: None,
        }
    }
}

/// Maps a cell id (or benchmark name) to a path-safe file-name stem.
fn path_safe(id: &str) -> String {
    id.chars().map(|c| if c.is_ascii_alphanumeric() || c == '.' { c } else { '-' }).collect()
}

/// The mid-cell checkpoint file for one cell inside the state dir.
pub fn checkpoint_path(dir: &std::path::Path, cell: &CellId) -> PathBuf {
    dir.join(format!("{}.ckpt.snap", path_safe(&cell.to_string())))
}

/// The shared warmed-baseline snapshot for one (suite, benchmark) inside
/// the state dir.
pub fn warm_base_path(dir: &std::path::Path, suite: &str, benchmark: &str) -> PathBuf {
    dir.join(format!("warm-{suite}-{}.snap", path_safe(benchmark)))
}

/// Whether a cell measures the unprotected baseline (the cells that *write*
/// warm-base snapshots and therefore must be scheduled first).
fn is_baseline_cell(cell: &CellId) -> bool {
    matches!(
        cell,
        CellId::Spec { mitigation, .. } | CellId::Parsec { mitigation, .. }
            if *mitigation == specasan::Mitigation::Unsafe
    )
}

/// Prepares the snapshot state dir for a campaign: creates it, then sweeps
/// stale artifacts a SIGKILLed predecessor left behind — rename-staging
/// `*.tmp` files and orphaned heartbeats always; snapshot images too on a
/// fresh (non-resume) start, so a truncated manifest can never be paired
/// with last campaign's checkpoints.
fn prepare_state_dir(cfg: &Config) -> std::io::Result<()> {
    let Some(dir) = &cfg.checkpoint_dir else { return Ok(()) };
    std::fs::create_dir_all(dir)?;
    let removed = sweep::sweep_stale_artifacts(dir, cfg.resume)?;
    if !removed.is_empty() {
        eprintln!("sas-runner: swept {} stale artifact(s) from {}", removed.len(), dir.display());
    }
    Ok(())
}

/// Drops a finished cell's checkpoint (and its rename-staging sibling): the
/// manifest row is now the cell's durable outcome, so a later campaign or
/// `--resume` must never restore this run's mid-cell state.
fn drop_checkpoint(cfg: &Config, cell: &CellId) {
    if let Some(dir) = &cfg.checkpoint_dir {
        let path = checkpoint_path(dir, cell);
        let _ = std::fs::remove_file(sas_snap::temp_path(&path));
        let _ = std::fs::remove_file(path);
    }
}

/// What one supervised campaign did.
#[derive(Debug)]
pub struct CampaignReport {
    /// Rows recorded by *this* run, in completion order.
    pub records: Vec<Record>,
    /// Rows inherited from the manifest via `--resume` (not re-run).
    pub resumed: Vec<Record>,
    /// The manifest everything was appended to.
    pub manifest_path: PathBuf,
}

impl CampaignReport {
    /// Every failed row, resumed ones included.
    pub fn failures(&self) -> Vec<&Record> {
        self.resumed.iter().chain(&self.records).filter(|r| !r.ok).collect()
    }

    /// Whether the campaign is fully green.
    pub fn all_ok(&self) -> bool {
        self.failures().is_empty()
    }

    /// The human failure summary printed at campaign end: one line per
    /// failed cell, or an all-green note.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let total = self.records.len() + self.resumed.len();
        let failures = self.failures();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sas-runner: {total} cell(s) — {} ok, {} failed, {} resumed from {}",
            total - failures.len(),
            failures.len(),
            self.resumed.len(),
            self.manifest_path.display()
        );
        for f in &failures {
            let _ = write!(out, "  FAILED {} [{}] after {} attempt(s)", f.cell, f.exit, f.attempts);
            if let Some(repro) = &f.repro {
                let _ = write!(out, " — repro: {repro}");
            }
            if !f.detail.is_empty() {
                let first = f.detail.lines().next().unwrap_or_default();
                let _ = write!(out, "\n         {first}");
            }
            let _ = writeln!(out);
        }
        if failures.is_empty() {
            let _ = writeln!(out, "sas-runner: OK — no failed cells");
        }
        out
    }
}

/// Runs a campaign under the supervision policy: dispatches `cells` across
/// `cfg.jobs` workers, records every outcome in the manifest, and returns
/// the report. Never aborts on a failed cell.
pub fn run_campaign(cells: &[CellId], cfg: &Config) -> std::io::Result<CampaignReport> {
    let mut resumed = Vec::new();
    if cfg.resume {
        let existing = manifest::load_and_repair(&cfg.manifest_path)?;
        let wanted: HashSet<String> = cells.iter().map(|c| c.to_string()).collect();
        let mut seen = HashSet::new();
        for r in existing {
            if wanted.contains(&r.cell) && seen.insert(r.cell.clone()) {
                resumed.push(r);
            }
        }
    } else if cfg.manifest_path.exists() {
        std::fs::write(&cfg.manifest_path, b"")?;
    }
    prepare_state_dir(cfg)?;
    let done: HashSet<&str> = resumed.iter().map(|r| r.cell.as_str()).collect();
    let mut pending: Vec<CellId> =
        cells.iter().filter(|c| !done.contains(c.to_string().as_str())).cloned().collect();
    if cfg.warm_fork {
        // Baseline cells write the per-benchmark warm images every other
        // mitigation forks from, so they go first. With `jobs > 1` a sibling
        // can still start before its baseline finishes; it simply cold-starts
        // (the fork is an optimization, never a correctness dependency).
        pending.sort_by_key(|c| usize::from(!is_baseline_cell(c)));
    }
    let queue: VecDeque<CellId> = pending.into();
    for r in &resumed {
        eprintln!("sas-runner: resume — skipping completed cell {} [{}]", r.cell, r.exit);
    }

    let queue = Mutex::new(queue);
    let writer = Mutex::new(manifest::Writer::open(&cfg.manifest_path)?);
    let records = Mutex::new(Vec::new());
    let workers = cfg.jobs.max(1).min(cells.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let Some(cell) = queue.lock().expect("queue lock").pop_front() else {
                    return;
                };
                let mut record = supervise_cell(&cell, cfg);
                // The record is this cell's durable outcome — its mid-cell
                // checkpoint is stale from here on (a resumed campaign skips
                // recorded cells outright).
                drop_checkpoint(cfg, &cell);
                if !record.ok && cfg.shrink && cell.shrinkable() && record.exit != "timeout" {
                    if let Some(outcome) = crate::shrink::shrink_cell(&cell, cfg) {
                        record.repro = Some(outcome.dir.display().to_string());
                    }
                }
                writer
                    .lock()
                    .expect("manifest lock")
                    .append(&record)
                    .expect("manifest append");
                records.lock().expect("records lock").push(record);
            });
        }
    });
    Ok(CampaignReport {
        records: records.into_inner().expect("records lock"),
        resumed,
        manifest_path: cfg.manifest_path.clone(),
    })
}

/// Supervises one cell to completion: spawn, watchdog, classify, retry.
/// The row is the child's own, with the attempt count and wall time set.
pub fn supervise_cell(cell: &CellId, cfg: &Config) -> Record {
    let id = cell.to_string();
    let start = Instant::now();
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let (mut row, retriable) = run_child(cell, cfg, attempt);
        if !retriable || attempt > cfg.retries {
            row.attempts = attempt;
            row.duration_ms = start.elapsed().as_millis() as u64;
            return row;
        }
        let backoff = backoff_delay(cfg.backoff, attempt, sas_snap::fnv1a(id.as_bytes()));
        eprintln!(
            "sas-runner: {id} attempt {attempt} failed environmentally ({}); retrying in {} ms",
            row.exit,
            backoff.as_millis()
        );
        std::thread::sleep(backoff);
    }
}

/// Ceiling on the environmental-retry backoff, however many attempts have
/// doubled it.
pub const BACKOFF_CAP: Duration = Duration::from_secs(10);

/// The delay before environmental retry `attempt` (1-based): exponential
/// from `base`, capped at [`BACKOFF_CAP`], plus deterministic seeded jitter
/// of up to +50% (also capped). The jitter is a pure function of
/// `(seed, attempt)` — reruns back off identically — while distinct seeds
/// (cell ids) fan out instead of retrying a shared hiccup in lockstep.
pub fn backoff_delay(base: Duration, attempt: u32, seed: u64) -> Duration {
    let exp = base.saturating_mul(1 << attempt.saturating_sub(1).min(31)).min(BACKOFF_CAP);
    // splitmix64-style finalizer over (seed, attempt).
    let mut h = seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    let jitter = exp.mul_f64((h % 1024) as f64 / 2048.0);
    (exp + jitter).min(BACKOFF_CAP)
}

/// How often the supervisor reports child heartbeats on stderr.
const HEARTBEAT_PRINT_PERIOD: Duration = Duration::from_secs(2);

/// Runs one attempt of a cell in a watched child: its row, and whether the
/// failure (if any) is environmental and so worth retrying.
fn run_child(cell: &CellId, cfg: &Config, attempt: u32) -> (Record, bool) {
    let id = cell.to_string();
    // With a state dir armed, heartbeats live next to the checkpoints so the
    // startup sweep can reclaim orphans after a SIGKILLed supervisor.
    let hb_path = match &cfg.checkpoint_dir {
        Some(dir) => heartbeat::path_in(dir, &id),
        None => heartbeat::default_path(&id),
    };
    heartbeat::remove(&hb_path);
    let mut cmd = Command::new(&cfg.child_exe);
    cmd.arg("cell")
        .arg(&id)
        .arg("--iters")
        .arg(cfg.iters.to_string())
        .arg("--attempt")
        .arg(attempt.to_string())
        .arg("--heartbeat")
        .arg(&hb_path);
    if let (Some(dir), Ok((target, _))) = (&cfg.checkpoint_dir, cell.target()) {
        cmd.arg("--checkpoint").arg(checkpoint_path(dir, cell));
        if let Some(every) = cfg.checkpoint_every {
            cmd.arg("--checkpoint-every").arg(every.to_string());
        }
        if cfg.warm_fork {
            cmd.arg("--warm-base").arg(warm_base_path(dir, target.suite(), target.name()));
        }
        // The simulated-crash test hook may only fire on the first attempt:
        // retries must be able to resume past it and finish the cell.
        if let Some(n) = cfg.crash_after_checkpoints.filter(|_| attempt == 1) {
            cmd.arg("--crash-after-checkpoints").arg(n.to_string());
        }
    }
    if let (Some(fault_cell), Some(plan)) = (&cfg.fault_cell, &cfg.fault_plan) {
        if fault_cell == &id {
            cmd.arg("--fault-plan").arg(plan);
        }
    }
    // Throttled progress lines from the child's heartbeat file
    // (informational: the watchdog judges only elapsed time).
    let mut printed = Duration::ZERO;
    let on_poll = |elapsed: Duration| {
        if elapsed >= printed + HEARTBEAT_PRINT_PERIOD {
            printed = elapsed;
            if let Some(hb) = heartbeat::read(&hb_path) {
                eprintln!(
                    "sas-runner: {id} heartbeat — {:.1}s elapsed, cycle {}, {} committed",
                    elapsed.as_secs_f64(),
                    hb.cycle,
                    hb.committed
                );
            }
        }
    };
    let end = capture::run_watched(&mut cmd, cfg.timeout, on_poll);
    heartbeat::remove(&hb_path);
    let fail = |exit: &str, detail: String| Record::new(id.clone(), false, exit, detail);
    let (status, stdout, stderr) = match end {
        Ok(Watched::Exited { status, stdout, stderr }) => (status, stdout, stderr),
        Ok(Watched::TimedOut) => {
            let detail = format!("watchdog killed the cell after {} ms", cfg.timeout.as_millis());
            return (fail("timeout", detail), false);
        }
        Ok(Watched::WaitFailed(e)) => return (fail("wait", e.to_string()), true),
        Err(e) => return (fail("spawn", e.to_string()), true),
    };
    // The child's row counts only when it names this cell and agrees with
    // the exit code on whether the cell passed.
    let reported = result_line(&stdout)
        .and_then(Record::from_json)
        .filter(|r| r.cell == id && r.ok == (status.code() == Some(0)));
    match status.code() {
        Some(0) => match reported {
            Some(row) => (row, false),
            // An exit-0 child that reported a failure (or nothing) broke the
            // protocol; it is retried like an environmental failure.
            None => (fail("protocol", "child exited 0 without an ok result line".to_string()), true),
        },
        Some(EXIT_DETERMINISTIC) => (reported.unwrap_or_else(|| fail("failed", tail(&stderr))), false),
        Some(EXIT_ENVIRONMENTAL) => {
            (reported.unwrap_or_else(|| fail("environmental", tail(&stderr))), true)
        }
        // A raw panic (or any unexpected exit code) is deterministic: the
        // simulator and harnesses are seeded, so re-running reproduces it.
        Some(code) => {
            let exit = if code == 101 { "panic".to_string() } else { format!("exit:{code}") };
            (fail(&exit, tail(&stderr)), false)
        }
        // Killed by a signal (OOM killer, operator): environmental.
        None => (fail("signal", tail(&stderr)), true),
    }
}

/// The payload of the last [`cell::RESULT_MARKER`] line in a child's
/// stdout, if it printed one.
pub(crate) fn result_line(stdout: &str) -> Option<&str> {
    stdout.lines().rev().find_map(|l| l.trim().strip_prefix(cell::RESULT_MARKER))
}

/// The last few stderr lines, for failure diagnostics.
fn tail(stderr: &str) -> String {
    let lines: Vec<&str> = stderr.lines().collect();
    let start = lines.len().saturating_sub(6);
    lines[start..].join("\n")
}

/// Renders a normalized-overhead summary for a completed fig6/fig7-style
/// campaign from its manifest rows: per benchmark, each mitigation's cycles
/// over the unsafe baseline's, plus the geomean row. Benchmarks missing
/// their baseline (it failed) are listed as unnormalizable.
pub fn norm_summary(records: &[Record]) -> String {
    use std::fmt::Write as _;
    // benchmark -> mitigation-token -> cycles
    let mut grid: HashMap<String, HashMap<String, u64>> = HashMap::new();
    let mut benchmarks: Vec<String> = Vec::new();
    for r in records.iter().filter(|r| r.ok) {
        if let Ok(CellId::Spec { benchmark, mitigation } | CellId::Parsec { benchmark, mitigation }) =
            CellId::parse(&r.cell)
        {
            if !grid.contains_key(&benchmark) {
                benchmarks.push(benchmark.clone());
            }
            grid.entry(benchmark).or_default().insert(mitigation.token().to_string(), r.cycles);
        }
    }
    if benchmarks.is_empty() {
        return String::new();
    }
    let columns: Vec<&str> = ["fence", "stt", "ghostminion", "specasan"]
        .into_iter()
        .filter(|c| grid.values().any(|row| row.contains_key(*c)))
        .collect();
    let mut out = String::new();
    let _ = write!(out, "{:<16}", "Benchmark");
    for c in &columns {
        let _ = write!(out, " {c:>12}");
    }
    let _ = writeln!(out);
    let mut per_col: Vec<Vec<f64>> = vec![Vec::new(); columns.len()];
    for b in &benchmarks {
        let row = &grid[b];
        let Some(&base) = row.get("unsafe").filter(|&&c| c > 0) else {
            let _ = writeln!(out, "{b:<16}  (no unsafe baseline — unnormalizable)");
            continue;
        };
        let _ = write!(out, "{b:<16}");
        for (i, c) in columns.iter().enumerate() {
            match row.get(*c) {
                Some(&cycles) => {
                    let norm = cycles as f64 / base as f64;
                    per_col[i].push(norm);
                    let _ = write!(out, " {norm:>12.3}");
                }
                None => {
                    let _ = write!(out, " {:>12}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "{:<16}", "geomean");
    for norms in &per_col {
        if norms.is_empty() {
            let _ = write!(out, " {:>12}", "-");
        } else {
            let _ = write!(out, " {:>12.3}", sas_bench::geomean(norms));
        }
    }
    let _ = writeln!(out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cell: &str, ok: bool, cycles: u64) -> Record {
        Record {
            cell: cell.into(),
            ok,
            exit: if ok { "halted".into() } else { "deadlock".into() },
            detail: String::new(),
            attempts: 1,
            cycles,
            restored: false,
            duration_ms: 1,
            repro: None,
            cpi: None,
        }
    }

    #[test]
    fn summary_names_every_failed_cell() {
        let report = CampaignReport {
            records: vec![rec("spec/505.mcf_r/stt", false, 0), rec("spec/505.mcf_r/fence", true, 10)],
            resumed: vec![rec("spec/505.mcf_r/specasan", true, 9)],
            manifest_path: PathBuf::from("m.jsonl"),
        };
        let s = report.summary();
        assert!(s.contains("FAILED spec/505.mcf_r/stt [deadlock]"), "{s}");
        assert!(s.contains("3 cell(s)"), "{s}");
        assert!(!report.all_ok());
    }

    #[test]
    fn norm_summary_normalizes_against_the_unsafe_baseline() {
        let records = vec![
            rec("spec/505.mcf_r/unsafe", true, 1000),
            rec("spec/505.mcf_r/stt", true, 1500),
            rec("spec/505.mcf_r/specasan", true, 1020),
            rec("spec/519.lbm_r/stt", true, 999), // baseline missing
        ];
        let s = norm_summary(&records);
        assert!(s.contains("1.500"), "{s}");
        assert!(s.contains("1.020"), "{s}");
        assert!(s.contains("unnormalizable"), "{s}");
    }

    #[test]
    fn backoff_schedule_doubles_then_caps_with_deterministic_jitter() {
        let base = Duration::from_millis(200);
        let seed = sas_snap::fnv1a(b"spec/505.mcf_r/stt");
        // Deterministic: the same (base, attempt, seed) always sleeps the
        // same time, and the exponential shape dominates the jitter (the
        // next attempt's floor, 2x, exceeds the previous ceiling, 1.5x).
        let schedule: Vec<Duration> = (1..=12).map(|a| backoff_delay(base, a, seed)).collect();
        assert_eq!(schedule, (1..=12).map(|a| backoff_delay(base, a, seed)).collect::<Vec<_>>());
        for w in schedule.windows(2) {
            assert!(w[0] <= w[1], "schedule must be monotone: {schedule:?}");
        }
        for (i, d) in schedule.iter().enumerate() {
            let exp = base * 2u32.saturating_pow(i as u32);
            assert!(*d >= exp.min(BACKOFF_CAP), "attempt {} below exponential floor", i + 1);
            assert!(*d <= BACKOFF_CAP, "attempt {} exceeds the 10 s cap: {d:?}", i + 1);
        }
        // By attempt 12 the uncapped exponential is 409.6 s — the cap must
        // have engaged exactly.
        assert_eq!(schedule[11], BACKOFF_CAP);
        // Distinct cells jitter apart (below the cap there is room to differ).
        let other = sas_snap::fnv1a(b"spec/505.mcf_r/fence");
        assert!(
            (1..=4).any(|a| backoff_delay(base, a, seed) != backoff_delay(base, a, other)),
            "seeded jitter must separate distinct cells"
        );
        // Overflow-proof far past the cap.
        assert_eq!(backoff_delay(base, u32::MAX, seed), BACKOFF_CAP);
    }

    #[test]
    fn snapshot_state_paths_are_path_safe_and_cell_scoped() {
        let dir = PathBuf::from("state");
        let a = checkpoint_path(
            &dir,
            &CellId::Spec { benchmark: "505.mcf_r".into(), mitigation: specasan::Mitigation::Stt },
        );
        let b = checkpoint_path(
            &dir,
            &CellId::Spec { benchmark: "505.mcf_r".into(), mitigation: specasan::Mitigation::Fence },
        );
        assert_ne!(a, b, "cells must not share checkpoint files");
        let name = a.file_name().unwrap().to_string_lossy().into_owned();
        assert!(!name.contains('/') && name.ends_with(".ckpt.snap"), "{name}");
        let warm = warm_base_path(&dir, "spec", "505.mcf_r");
        assert!(warm.file_name().unwrap().to_string_lossy().starts_with("warm-spec-"), "{warm:?}");
    }

    #[test]
    fn warm_fork_schedules_baselines_first() {
        use specasan::Mitigation;
        let spec = |m: Mitigation| CellId::Spec { benchmark: "505.mcf_r".into(), mitigation: m };
        let mut cells = vec![
            spec(Mitigation::Stt),
            spec(Mitigation::Unsafe),
            CellId::Chaos { seed: 7 },
            spec(Mitigation::SpecAsan),
        ];
        cells.sort_by_key(|c| usize::from(!is_baseline_cell(c)));
        assert!(is_baseline_cell(&cells[0]), "{cells:?}");
        // Stable: non-baseline cells keep their relative order.
        assert_eq!(cells[1], spec(Mitigation::Stt), "{cells:?}");
        assert_eq!(cells[3], spec(Mitigation::SpecAsan), "{cells:?}");
    }

    #[test]
    fn result_lines_parse_from_mixed_stdout() {
        let row = Record {
            cycles: 5,
            restored: true,
            cpi: Some("base=4;memory_bound=1".into()),
            ..Record::new("selftest/ok".into(), true, "halted", String::new())
        };
        let stale = Record::new("selftest/ok".into(), false, "flaky", String::new());
        let stdout = format!(
            "noise\n{marker}{}\nmore noise\n{marker}{}\n",
            stale.to_json(),
            row.to_json(),
            marker = cell::RESULT_MARKER
        );
        assert_eq!(result_line(&stdout).and_then(Record::from_json), Some(row));
        assert_eq!(result_line("no marker here\n"), None);
    }
}
