//! `sas-runner` — fault-tolerant campaign supervisor CLI.
//!
//! ```text
//! sas-runner fig6    [--benchmarks a,b] [FLAGS]   SPEC grid (Figure 6)
//! sas-runner fig7    [--benchmarks a,b] [FLAGS]   PARSEC grid (Figure 7)
//! sas-runner chaos   [--campaigns N]    [FLAGS]   chaos campaigns
//! sas-runner run     --cells id1,id2    [FLAGS]   an explicit cell list
//! sas-runner selftest                   [FLAGS]   supervisor self-check
//! sas-runner replay  <bundle-dir>                 re-check a repro bundle
//!
//! child modes (spawned by the supervisor; `cell` is also the way to run
//! one cell by hand):
//! sas-runner cell  <id> [--iters N] [CELL FLAGS]
//! sas-runner probe <id> [--iters N] [--nops 1,5,9] [--plan SPEC]
//!
//! FLAGS:
//!   --jobs N          worker processes            (default 1)
//!   --timeout-ms N    per-cell watchdog           (default 120000)
//!   --retries N       environmental retries       (default 2)
//!   --backoff-ms N    base retry backoff          (default 200)
//!   --manifest PATH   manifest/checkpoint file    (default target/sas-runner/<cmd>.jsonl)
//!   --resume          skip recorded cells; incomplete cells restore their
//!                     newest valid mid-cell checkpoint
//!   --iters N         bench iterations            (default $SAS_BENCH_ITERS or 150)
//!   --checkpoint-dir PATH  mid-cell snapshot dir  (default <manifest>.state)
//!   --checkpoint-every N   checkpoint period, cycles (default 1000000)
//!   --no-checkpoint   disable mid-cell checkpointing
//!   --warm-fork       fork mitigation cells from a per-benchmark warmed
//!                     unsafe-baseline snapshot (baselines run first)
//!   --warm-cycles N   warmup length, cycles       (default 50000)
//!   --fault-cell ID   arm a fault plan on exactly this cell
//!   --fault-plan SPEC the plan spec to arm (see FaultPlan::from_spec)
//!   --no-shrink       skip failure minimization
//!   --repro-dir PATH  repro bundle directory      (default target/repro)
//!   --crash-after-checkpoints N  test hook: first-attempt children crash
//!                     after N checkpoints (the retry resumes from one)
//!
//! CELL FLAGS (a `CheckpointPlan`, see `sas_bench::checkpoint`, plus the
//! spawn attempt; the supervisor passes every one it needs):
//!   --checkpoint PATH  --checkpoint-every N  --warm-base PATH
//!   --warm-cycles N    --crash-after-checkpoints N
//!   --fault-plan SPEC  fault plan to arm (see FaultPlan::from_spec)
//!   --heartbeat PATH   progress file the run loop rewrites every 100000
//!                     cycles and at every checkpoint
//!   --attempt N        1-based spawn attempt      (default 1)
//! ```
//!
//! Exits 0 only when every cell (resumed ones included) is green; any failed
//! cell makes the campaign exit 1 after printing the failure summary.

use sas_bench::checkpoint::CheckpointPlan;
use sas_pipeline::FaultPlan;
use sas_runner::cell::{self, CellId, SelftestKind};
use sas_runner::supervisor::{self, Config, EXIT_DETERMINISTIC};
use sas_runner::{run_campaign, shrink, Record};
use sas_workloads::parse_iterations;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: sas-runner <fig6|fig7|chaos|run|selftest|replay|cell|probe> [flags]\n\
         see the crate docs (`cargo doc -p sas-runner`) for the flag reference"
    );
    ExitCode::from(2)
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn flag_u64(args: &[String], flag: &str) -> Result<Option<u64>, String> {
    match flag_value(args, flag) {
        Some(v) => v.parse().map(Some).map_err(|_| format!("{flag}: bad number {v:?}")),
        None => Ok(None),
    }
}

/// `--iters N`, when given; zero or an unparsable count is an error.
fn flag_iters(args: &[String]) -> Result<Option<u32>, String> {
    flag_value(args, "--iters")
        .map(|v| parse_iterations(&v).map_err(|e| format!("--iters: {e}")))
        .transpose()
}

/// Builds the supervision config from common flags; a bad flag is reported
/// and becomes the usage exit code.
fn config_from(args: &[String], default_manifest: &str) -> Result<Config, ExitCode> {
    parse_config(args, default_manifest).map_err(|e| {
        eprintln!("sas-runner: {e}");
        ExitCode::from(2)
    })
}

fn parse_config(args: &[String], default_manifest: &str) -> Result<Config, String> {
    let manifest = flag_value(args, "--manifest")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("target/sas-runner/{default_manifest}.jsonl")));
    let mut cfg = Config::new(manifest);
    if let Some(j) = flag_u64(args, "--jobs")? {
        cfg.jobs = (j as usize).max(1);
    }
    if let Some(t) = flag_u64(args, "--timeout-ms")? {
        cfg.timeout = Duration::from_millis(t);
    }
    if let Some(r) = flag_u64(args, "--retries")? {
        cfg.retries = r as u32;
    }
    if let Some(b) = flag_u64(args, "--backoff-ms")? {
        cfg.backoff = Duration::from_millis(b);
    }
    if let Some(i) = flag_iters(args)? {
        cfg.iters = i;
    }
    cfg.resume = has_flag(args, "--resume");
    cfg.shrink = !has_flag(args, "--no-shrink");
    cfg.fault_cell = flag_value(args, "--fault-cell");
    cfg.fault_plan = flag_value(args, "--fault-plan");
    if let Some(plan) = &cfg.fault_plan {
        FaultPlan::from_spec(plan).map_err(|e| format!("--fault-plan: {e}"))?;
    }
    if cfg.fault_cell.is_some() != cfg.fault_plan.is_some() {
        return Err("--fault-cell and --fault-plan must be given together".to_string());
    }
    if let Some(d) = flag_value(args, "--repro-dir") {
        cfg.repro_dir = PathBuf::from(d);
    }
    cfg.checkpoint_dir = if has_flag(args, "--no-checkpoint") {
        None
    } else {
        Some(
            flag_value(args, "--checkpoint-dir")
                .map(PathBuf::from)
                .unwrap_or_else(|| cfg.manifest_path.with_extension("state")),
        )
    };
    cfg.checkpoint_every = flag_u64(args, "--checkpoint-every")?;
    cfg.warm_fork = has_flag(args, "--warm-fork");
    cfg.warm_cycles = flag_u64(args, "--warm-cycles")?;
    cfg.crash_after_checkpoints = flag_u64(args, "--crash-after-checkpoints")?;
    if cfg.warm_fork && cfg.checkpoint_dir.is_none() {
        return Err("--warm-fork needs a snapshot state dir (drop --no-checkpoint \
                    or pass --checkpoint-dir)"
            .to_string());
    }
    Ok(cfg)
}

fn campaign(cells: Vec<CellId>, cfg: &Config, norms: bool) -> ExitCode {
    if cells.is_empty() {
        eprintln!("sas-runner: no cells selected");
        return ExitCode::from(2);
    }
    println!(
        "sas-runner: {} cell(s), {} job(s), {} ms watchdog, manifest {}",
        cells.len(),
        cfg.jobs,
        cfg.timeout.as_millis(),
        cfg.manifest_path.display()
    );
    let report = match run_campaign(&cells, cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sas-runner: campaign failed to run: {e}");
            return ExitCode::FAILURE;
        }
    };
    if norms {
        let all: Vec<_> = report.resumed.iter().chain(&report.records).cloned().collect();
        let table = supervisor::norm_summary(&all);
        if !table.is_empty() {
            println!("\n{table}");
        }
    }
    // Regression digest: index the manifest we just wrote and surface the
    // slowest cells / per-mitigation profile / failures. Best-effort —
    // a digest problem must never fail a green campaign.
    if let Ok((idx, _)) = sas_query::load::index_paths(std::slice::from_ref(&cfg.manifest_path)) {
        let digest = sas_query::digest::campaign_digest(&idx);
        if !digest.is_empty() {
            println!("\n{digest}");
        }
    }
    print!("{}", report.summary());
    if report.all_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_benchmarks(args: &[String]) -> Option<Vec<String>> {
    flag_value(args, "--benchmarks")
        .map(|csv| csv.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect())
}

fn cmd_grid(args: &[String], fig7: bool) -> ExitCode {
    let name = if fig7 { "fig7" } else { "fig6" };
    let cfg = match config_from(args, name) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let benchmarks = parse_benchmarks(args);
    let cells = if fig7 {
        cell::fig7_cells(benchmarks.as_deref())
    } else {
        cell::fig6_cells(benchmarks.as_deref())
    };
    campaign(cells, &cfg, true)
}

fn cmd_chaos(args: &[String]) -> ExitCode {
    let cfg = match config_from(args, "chaos") {
        Ok(c) => c,
        Err(code) => return code,
    };
    let n = flag_value(args, "--campaigns").and_then(|v| v.parse().ok()).unwrap_or(60);
    campaign(cell::chaos_cells(n), &cfg, false)
}

fn cmd_run(args: &[String]) -> ExitCode {
    let cfg = match config_from(args, "run") {
        Ok(c) => c,
        Err(code) => return code,
    };
    let Some(csv) = flag_value(args, "--cells") else {
        eprintln!("sas-runner: run needs --cells id1,id2,…");
        return ExitCode::from(2);
    };
    let mut cells = Vec::new();
    for token in csv.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match CellId::parse(token) {
            Ok(c) => cells.push(c),
            Err(e) => {
                eprintln!("sas-runner: {e}");
                return ExitCode::from(2);
            }
        }
    }
    campaign(cells, &cfg, true)
}

/// The supervisor self-check: runs the built-in selftest cells and verifies
/// the supervisor *machinery* behaved — the ok cell passed first try, the
/// flaky cell needed a retry, the panic cell was recorded (not fatal), and
/// the hang cell (when `SAS_RUNNER_SELFTEST` gates it in) was watchdog-killed
/// as `timeout`. Exits 0 exactly when all of that held.
fn cmd_selftest(args: &[String]) -> ExitCode {
    let cfg = match config_from(args, "selftest") {
        Ok(c) => c,
        Err(code) => return code,
    };
    let cells = cell::selftest_cells();
    let hang_included = cells.iter().any(|c| matches!(c, CellId::Selftest { kind: SelftestKind::Hang }));
    let report = match run_campaign(&cells, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sas-runner: selftest failed to run: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.summary());
    let find = |id: &str| report.records.iter().find(|r| r.cell == id);
    let mut bad = Vec::new();
    match find("selftest/ok") {
        Some(r) if r.ok && r.attempts == 1 => {}
        other => bad.push(format!("selftest/ok: expected first-try success, got {other:?}")),
    }
    match find("selftest/flaky") {
        Some(r) if r.ok && r.attempts >= 2 => {}
        other => bad.push(format!("selftest/flaky: expected success after a retry, got {other:?}")),
    }
    match find("selftest/panic") {
        Some(r) if !r.ok && r.exit == "panic" && r.attempts == 1 => {}
        other => bad.push(format!("selftest/panic: expected a recorded panic, got {other:?}")),
    }
    if hang_included {
        match find("selftest/hang") {
            Some(r) if !r.ok && r.exit == "timeout" => {}
            other => bad.push(format!("selftest/hang: expected a watchdog timeout, got {other:?}")),
        }
    }
    if bad.is_empty() {
        println!(
            "sas-runner: selftest OK — isolation, retry and{} recording verified",
            if hang_included { " watchdog-kill" } else { "" }
        );
        ExitCode::SUCCESS
    } else {
        for b in &bad {
            eprintln!("sas-runner: selftest FAILED: {b}");
        }
        ExitCode::FAILURE
    }
}

/// The plan a `cell` invocation's flags describe.
fn cell_plan(args: &[String]) -> Result<CheckpointPlan, String> {
    let faults = match flag_value(args, "--fault-plan") {
        Some(spec) => Some(FaultPlan::from_spec(&spec).map_err(|e| format!("--fault-plan: {e}"))?),
        None => None,
    };
    Ok(CheckpointPlan {
        path: flag_value(args, "--checkpoint").map(PathBuf::from),
        every: flag_u64(args, "--checkpoint-every")?.unwrap_or(0),
        warm_base: flag_value(args, "--warm-base").map(PathBuf::from),
        warm_cycles: flag_u64(args, "--warm-cycles")?.unwrap_or(0),
        exit_after: flag_u64(args, "--crash-after-checkpoints")?.unwrap_or(0),
        faults,
        heartbeat: flag_value(args, "--heartbeat").map(PathBuf::from),
    })
}

/// Child mode: execute one cell in-process, print its manifest row as the
/// result line, and exit with the supervisor's code taxonomy (0 ok /
/// 10 deterministic / 11 environmental).
fn cmd_cell(args: &[String]) -> ExitCode {
    let Some(id) = args.first() else { return usage() };
    let cell = match CellId::parse(id) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("sas-runner: {e}");
            return ExitCode::from(2);
        }
    };
    let parsed = cell_plan(args).and_then(|plan| {
        let attempt = flag_u64(args, "--attempt")?.unwrap_or(1) as u32;
        let iters = flag_iters(args)?.unwrap_or_else(sas_bench::bench_iterations);
        Ok((plan, attempt, iters))
    });
    let (plan, attempt, iters) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sas-runner: {e}");
            return ExitCode::from(2);
        }
    };
    let run = || cell::run_in_process(&cell, iters, attempt, &plan);
    let (row, code) = match catch_unwind(AssertUnwindSafe(run)) {
        Ok(out) => out,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic (non-string payload)".to_string());
            (Record::new(cell.to_string(), false, "panic", msg), EXIT_DETERMINISTIC)
        }
    };
    println!("{}{}", cell::RESULT_MARKER, row.to_json());
    ExitCode::from(code as u8)
}

/// Child mode: run one shrinker probe and print its failure signature.
fn cmd_probe(args: &[String]) -> ExitCode {
    let Some(id) = args.first() else { return usage() };
    let cell = match CellId::parse(id) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("sas-runner: {e}");
            return ExitCode::from(2);
        }
    };
    let iters = match flag_iters(args) {
        Ok(i) => i.unwrap_or_else(sas_bench::bench_iterations),
        Err(e) => {
            eprintln!("sas-runner: {e}");
            return ExitCode::from(2);
        }
    };
    let nops: Vec<usize> = flag_value(args, "--nops")
        .map(|csv| csv.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .unwrap_or_default();
    let plan = match flag_value(args, "--plan") {
        Some(spec) => match FaultPlan::from_spec(&spec) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("sas-runner: --plan: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let sig = catch_unwind(AssertUnwindSafe(|| {
        cell::probe_signature(&cell, iters, &nops, plan.as_ref())
    }))
    .unwrap_or_else(|_| "panic".to_string());
    println!("{}{{\"signature\":\"{sig}\"}}", cell::RESULT_MARKER);
    ExitCode::SUCCESS
}

/// Re-checks a repro bundle: replays the recorded recipe in-process and
/// verifies the failure signature matches the one recorded at shrink time.
/// An unreadable bundle (a bad `meta.json` field, a bad plan) exits 2.
fn cmd_replay(args: &[String]) -> ExitCode {
    let Some(dir) = args.first() else { return usage() };
    let dir = std::path::Path::new(dir);
    let meta = match shrink::load_bundle(dir) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("sas-runner: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = match &meta.plan {
        Some(spec) => match FaultPlan::from_spec(spec) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("sas-runner: bundle plan: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let sig = catch_unwind(AssertUnwindSafe(|| {
        cell::probe_signature(&meta.cell, meta.iters, &meta.nops, plan.as_ref())
    }))
    .unwrap_or_else(|_| "panic".to_string());
    println!(
        "sas-runner: replay {} — recorded {}, observed {sig}",
        meta.cell, meta.signature
    );
    if sig == meta.signature {
        println!("sas-runner: replay OK — the bundle reproduces the failure");
        ExitCode::SUCCESS
    } else {
        eprintln!("sas-runner: replay MISMATCH");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("fig6") => cmd_grid(&args[1..], false),
        Some("fig7") => cmd_grid(&args[1..], true),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("selftest") => cmd_selftest(&args[1..]),
        Some("cell") => cmd_cell(&args[1..]),
        Some("probe") => cmd_probe(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_config_rejects_a_zero_or_unparsable_iteration_count() {
        for bad in ["0", "-1", "4294967296", "x"] {
            let err = parse_config(&args(&["--iters", bad]), "t").unwrap_err();
            assert!(err.contains("--iters"), "{bad}: {err}");
        }
        assert_eq!(parse_config(&args(&["--iters", "3"]), "t").unwrap().iters, 3);
    }
}
