//! # Experiment harnesses
//!
//! Shared plumbing for the bench targets that regenerate every table and
//! figure of the paper (see `benches/`): workload execution under each
//! mitigation, normalization against the unsafe baseline, and the figure
//! renderers.
//!
//! Run lengths are controlled by `SAS_BENCH_ITERS` (outer-loop iterations
//! per benchmark; default 150 ≈ 40–80 k committed instructions each) so CI
//! and full runs use the same binaries.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use crate::checkpoint::{CheckpointPlan, Interrupt};
use sas_pipeline::{CpiStack, DelayCause, FaultPlan, RunExit, RunResult, System};
use sas_workloads::{build_parsec_workload, build_workload, Profile, Workload};
use specasan::{build_multicore, build_system, Mitigation, SimConfig};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

pub mod checkpoint;
pub mod jsonl;
pub mod timing;

/// Outer-loop iterations per benchmark run.
pub fn bench_iterations() -> u32 {
    std::env::var("SAS_BENCH_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(150)
}

/// Deterministic seed used by every harness.
pub const SEED: u64 = 0x5A5_CA5A;

/// Environment variable carrying a [`FaultPlan`] spec string
/// (`FaultPlan::to_spec`) that every bench cell arms before running. The
/// `sas-runner` supervisor sets it on the one child it wants to perturb;
/// `SAS_FAULT_SEED` (the ad-hoc low-rate profile) is honoured as a fallback.
pub const FAULT_PLAN_ENV: &str = "SAS_RUNNER_FAULT_PLAN";

/// Environment variable naming a heartbeat file: when set, bench runs call
/// `System::set_heartbeat` so the supervisor can watch progress. The file is
/// truncate-rewritten with `{"cycle":N,"committed":M}` every
/// [`HEARTBEAT_EVERY_ENV`] cycles (default 100 000).
pub const HEARTBEAT_ENV: &str = "SAS_RUNNER_HEARTBEAT";

/// Environment variable overriding the heartbeat rewrite period, in cycles.
pub const HEARTBEAT_EVERY_ENV: &str = "SAS_RUNNER_HEARTBEAT_EVERY";

/// Environment variable restricting a bench target to one cell:
/// `<benchmark>/<mitigation-token>` (either side may be `*`). Set by the
/// `sas-runner` supervisor's child processes so a crash in one cell can only
/// ever take down that cell.
pub const CELL_ENV: &str = "SAS_RUNNER_CELL";

/// The single-cell filter from [`CELL_ENV`], if set.
///
/// Bench targets consult this in their row/column loops: a non-matching
/// benchmark row or mitigation column is skipped entirely (baseline runs
/// needed for normalization still execute).
pub fn cell_filter() -> Option<CellFilter> {
    let spec = std::env::var(CELL_ENV).ok()?;
    let spec = spec.trim();
    if spec.is_empty() {
        return None;
    }
    let (benchmark, mitigation) = match spec.split_once('/') {
        Some((b, m)) => (b.to_string(), m.to_string()),
        None => (spec.to_string(), "*".to_string()),
    };
    Some(CellFilter { benchmark, mitigation })
}

/// A `<benchmark>/<mitigation>` restriction parsed from [`CELL_ENV`].
#[derive(Debug, Clone)]
pub struct CellFilter {
    benchmark: String,
    mitigation: String,
}

impl CellFilter {
    /// Whether `benchmark` should run at all under this filter.
    pub fn wants_benchmark(&self, benchmark: &str) -> bool {
        self.benchmark == "*" || self.benchmark == benchmark
    }

    /// Whether the `(benchmark, mitigation)` cell should run.
    pub fn wants(&self, benchmark: &str, m: Mitigation) -> bool {
        self.wants_benchmark(benchmark)
            && (self.mitigation == "*" || self.mitigation == m.token())
    }
}

/// Convenience: `true` when the cell passes the ambient [`cell_filter`]
/// (or no filter is set).
pub fn cell_enabled(benchmark: &str, m: Mitigation) -> bool {
    cell_filter().map_or(true, |f| f.wants(benchmark, m))
}

/// Convenience: `true` when the benchmark row passes the ambient filter.
pub fn benchmark_enabled(benchmark: &str) -> bool {
    cell_filter().map_or(true, |f| f.wants_benchmark(benchmark))
}

/// The fault plan ambient bench runs must arm, if any: a full spec string
/// from [`FAULT_PLAN_ENV`] wins over the ad-hoc `SAS_FAULT_SEED` profile.
pub fn ambient_fault_plan() -> Option<FaultPlan> {
    if let Ok(spec) = std::env::var(FAULT_PLAN_ENV) {
        if !spec.trim().is_empty() {
            match FaultPlan::from_spec(&spec) {
                Ok(plan) => return Some(plan),
                Err(e) => panic!("{FAULT_PLAN_ENV}={spec:?}: {e}"),
            }
        }
    }
    FaultPlan::from_env()
}

/// Why a (benchmark, mitigation) cell produced no valid numbers. Returned by
/// [`check_clean_exit`] so abort handling is the *caller's* policy: direct
/// `cargo bench` runs panic with the crash dump ([`require_clean_exit`]),
/// while the `sas-runner` supervisor records the failure and moves on.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Bench target name (`fig6`, `fig7`, …).
    pub bench: String,
    /// Benchmark row.
    pub benchmark: String,
    /// Mitigation column.
    pub mitigation: Mitigation,
    /// Stable exit tag (`deadlock`, `divergence`, `faulted`, …).
    pub exit: &'static str,
    /// Human diagnostic (divergence report, fault, error).
    pub detail: String,
    /// Rendered crash dump, when the run attached one.
    pub dump: Option<String>,
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} under {}: {} ({})",
            self.benchmark, self.mitigation, self.detail, self.exit
        )?;
        if let Some(d) = &self.dump {
            write!(f, "\n{d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for CellFailure {}

/// Result of one (benchmark, mitigation) cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// Fraction of committed instructions restricted by the mitigation.
    pub restricted: f64,
    /// Whether the run resumed from a checkpoint or warmed-baseline image
    /// rather than a cold reset (see [`checkpoint::run_supervised_with`]);
    /// tagged in the cell's JSONL/BENCH rows.
    pub restored: bool,
    /// Full run result (stats for ablation reporting).
    pub run: RunResult,
}

/// Memoized workload construction: every mitigation column of a figure row
/// runs the *same* generated program, so harnesses share one build per
/// `(suite, benchmark, iterations)` instead of regenerating the multi-MB
/// data segments per cell. Generation is deterministic (fixed [`SEED`]), so
/// caching cannot change what any cell executes.
fn cached_workloads(
    key: (&'static str, &'static str, u32),
    build: impl FnOnce() -> Vec<Workload>,
) -> Arc<Vec<Workload>> {
    type Cache = Mutex<HashMap<(&'static str, &'static str, u32), Arc<Vec<Workload>>>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let cache = CACHE.get_or_init(Default::default);
    if let Some(w) = cache.lock().unwrap().get(&key) {
        return Arc::clone(w);
    }
    // Build outside the lock: concurrent misses may build twice, but cells
    // never block on another row's multi-megabyte generation.
    let built = Arc::new(build());
    cache.lock().unwrap().entry(key).or_insert(built).clone()
}

/// Builds the single-core system for one SPEC workload — program loaded,
/// data installed, *not* run — through the shared workload cache. Hosts
/// that drive runs themselves (the `sas-serve` worker pool, through
/// [`checkpoint::run_supervised_with`]) start here; [`run_spec_checked`] is
/// the batteries-included wrapper.
pub fn build_spec_system(profile: &Profile, m: Mitigation, iterations: u32) -> System {
    let ws = cached_workloads(("spec", profile.name, iterations), || {
        vec![build_workload(profile, iterations, SEED, 0)]
    });
    let mut sys = build_system(&SimConfig::table2(), ws[0].program.clone(), m);
    ws[0].setup.apply(&mut sys);
    sys
}

/// Builds the 4-core system for one PARSEC workload (see
/// [`build_spec_system`]).
pub fn build_parsec_system(profile: &Profile, m: Mitigation, iterations: u32) -> System {
    let ws = cached_workloads(("parsec", profile.name, iterations), || {
        build_parsec_workload(profile, iterations, SEED, 4)
    });
    let mut sys =
        build_multicore(&SimConfig::table2(), ws.iter().map(|w| w.program.clone()).collect(), m);
    for w in ws.iter() {
        w.setup.apply(&mut sys);
    }
    sys
}

/// Runs one SPEC-style (single-core) workload under a mitigation,
/// returning the failure instead of panicking on an aborted run.
pub fn run_spec_checked(
    profile: &Profile,
    m: Mitigation,
    iterations: u32,
) -> Result<Cell, Box<CellFailure>> {
    let sys = build_spec_system(profile, m, iterations);
    run_cell_with(sys, "spec", profile.name, m, &CheckpointPlan::none())
}

/// Runs one SPEC-style (single-core) workload under a mitigation.
///
/// # Panics
///
/// Panics with the crash dump on any aborted run; use
/// [`run_spec_checked`] to handle the failure yourself.
pub fn run_spec(profile: &Profile, m: Mitigation, iterations: u32) -> Cell {
    run_spec_checked(profile, m, iterations).unwrap_or_else(|f| panic!("{f}"))
}

/// Runs one PARSEC-style (4-core) workload under a mitigation,
/// returning the failure instead of panicking on an aborted run.
pub fn run_parsec_checked(
    profile: &Profile,
    m: Mitigation,
    iterations: u32,
) -> Result<Cell, Box<CellFailure>> {
    let sys = build_parsec_system(profile, m, iterations);
    run_cell_with(sys, "parsec", profile.name, m, &CheckpointPlan::none())
}

/// Runs one PARSEC-style (4-core) workload under a mitigation.
///
/// # Panics
///
/// Panics with the crash dump on any aborted run; use
/// [`run_parsec_checked`] to handle the failure yourself.
pub fn run_parsec(profile: &Profile, m: Mitigation, iterations: u32) -> Cell {
    run_parsec_checked(profile, m, iterations).unwrap_or_else(|f| panic!("{f}"))
}

/// Runs a built `bench` cell (`spec`, `parsec`) under a checkpoint/warm-fork
/// plan — what a `sas-runner cell` child runs — arming the ambient fault
/// plan and heartbeat first, and returning the failure instead of panicking
/// on an aborted run.
pub fn run_cell_with(
    mut sys: System,
    bench: &str,
    benchmark: &str,
    m: Mitigation,
    plan: &CheckpointPlan,
) -> Result<Cell, Box<CellFailure>> {
    arm_ambient_faults(&mut sys);
    let sr = checkpoint::run_supervised_with(&mut sys, 1_000_000_000, plan, |_| Interrupt::None);
    check_clean_exit(bench, benchmark, m, &sr.run)?;
    Ok(finish(sr.run, sr.restored))
}

fn arm_ambient_faults(sys: &mut System) {
    if let Some(plan) = ambient_fault_plan() {
        sys.arm_faults(&plan);
    }
    arm_ambient_heartbeat(sys);
}

/// Arms the supervisor heartbeat from [`HEARTBEAT_ENV`], if set.
fn arm_ambient_heartbeat(sys: &mut System) {
    let Ok(path) = std::env::var(HEARTBEAT_ENV) else { return };
    if path.trim().is_empty() {
        return;
    }
    let every = std::env::var(HEARTBEAT_EVERY_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(100_000);
    sys.set_heartbeat(path, every);
}

/// Gate on a cell's exit: clean halts pass; any aborted run (cycle limit,
/// deadlock, fault, oracle divergence, internal error) is first emitted as a
/// tagged invalid record — so the JSONL stream records the abort instead of
/// a silent gap — and then returned as a [`CellFailure`] for the caller to
/// apply its own policy (panic, record-and-continue, retry, …).
pub fn check_clean_exit(
    bench: &str,
    benchmark: &str,
    m: Mitigation,
    run: &RunResult,
) -> Result<(), Box<CellFailure>> {
    if jsonl::valid_cell(&run.exit) {
        return Ok(());
    }
    let ms = m.to_string();
    let mut fields =
        vec![("benchmark", jsonl::Value::Str(benchmark)), ("mitigation", jsonl::Value::Str(&ms))];
    fields.extend(jsonl::exit_fields(&run.exit));
    jsonl::emit(bench, &fields);
    let detail = match &run.exit {
        RunExit::Divergence(d) => d.to_string(),
        RunExit::Faulted(f) => format!("{f:?}"),
        RunExit::Error(e) => e.to_string(),
        other => jsonl::exit_tag(other).to_string(),
    };
    Err(Box::new(CellFailure {
        bench: bench.to_string(),
        benchmark: benchmark.to_string(),
        mitigation: m,
        exit: jsonl::exit_tag(&run.exit),
        detail,
        dump: run.dump.as_ref().map(|d| d.to_string()),
    }))
}

fn finish(run: RunResult, restored: bool) -> Cell {
    let committed = run.committed();
    let restricted: u64 = run.core_stats.iter().map(|s| s.restricted_committed).sum();
    Cell {
        cycles: run.cycles,
        committed,
        restricted: if committed == 0 { 0.0 } else { restricted as f64 / committed as f64 },
        restored,
        run,
    }
}

/// The run's commit-time CPI stack, merged across cores. Each core's
/// cycles are attributed to exactly one bucket, so the merged stack sums to
/// the per-core cycle total (which on multicore exceeds wall-clock cycles).
pub fn cpi_breakdown(run: &RunResult) -> CpiStack {
    let mut cpi = CpiStack::default();
    for s in &run.core_stats {
        cpi.merge(&s.cpi);
    }
    cpi
}

/// The nested-JSON `cpi` field value for a cell's JSONL record; splice it
/// in with [`jsonl::Value::Raw`].
pub fn cpi_json(cell: &Cell) -> String {
    cpi_breakdown(&cell.run).to_json(&DelayCause::ALL.map(|c| c.name()))
}

/// The Figure 8 restriction metric for one cell: STT counts instructions it
/// *classifies* as tainted transmitters/carriers (gem5-STT's accounting);
/// the others count instructions that actually waited.
pub fn restricted_metric(cell: &Cell, m: Mitigation) -> f64 {
    if cell.committed == 0 {
        return 0.0;
    }
    match m {
        Mitigation::Stt => {
            let tainted: u64 = cell.run.core_stats.iter().map(|s| s.tainted_committed).sum();
            tainted as f64 / cell.committed as f64
        }
        _ => cell.restricted,
    }
}

/// Geometric mean of a non-empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    let s: f64 = xs.iter().map(|x| x.ln()).sum();
    (s / xs.len() as f64).exp()
}

/// Renders one figure row: benchmark name + normalized values per column.
pub fn render_row(name: &str, values: &[f64]) -> String {
    let mut s = format!("{name:<18}");
    for v in values {
        s.push_str(&format!(" {v:>10.3}"));
    }
    s
}

/// Renders the header of a figure.
pub fn render_header(first: &str, columns: &[Mitigation]) -> String {
    let mut s = format!("{first:<18}");
    for c in columns {
        let label: String = c.to_string().chars().take(10).collect();
        s.push_str(&format!(" {label:>10}"));
    }
    s
}

/// Renders a horizontal ASCII bar chart (one row per labelled value),
/// scaled to the largest value.
pub fn render_bar_chart(rows: &[(String, f64)], width: usize) -> String {
    let max = rows.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max).max(1e-9);
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, v) in rows {
        let filled = ((v / max) * width as f64).round() as usize;
        out.push_str(&format!(
            "{label:<label_w$}  {} {v:.3}
",
            "#".repeat(filled.max(1))
        ));
    }
    out
}

/// Prints the simulated-machine banner (Table 2) harnesses lead with.
pub fn print_table2_banner(title: &str) {
    println!("== {title} ==");
    println!("Simulated machine (Table 2):");
    for (k, v) in SimConfig::table2_rows() {
        println!("  {k:<20} {v}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use sas_workloads::spec_suite;

    #[test]
    fn geomean_of_identity_is_identity() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn spec_cell_runs_and_normalizes() {
        let p = &spec_suite()[3]; // namd: fast
        let base = run_spec(p, Mitigation::Unsafe, 10);
        let asan = run_spec(p, Mitigation::SpecAsan, 10);
        assert!(base.cycles > 0 && asan.cycles > 0);
        assert_eq!(base.committed, asan.committed, "same architectural work");
        let ratio = asan.cycles as f64 / base.cycles as f64;
        assert!(ratio > 0.8 && ratio < 1.5, "ratio {ratio}");
    }

    #[test]
    fn bar_chart_scales_to_max() {
        let rows = vec![("a".to_string(), 1.0), ("bb".to_string(), 2.0)];
        let s = render_bar_chart(&rows, 10);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].matches('#').count() == 10, "max value fills the width");
        assert!(lines[0].matches('#').count() == 5);
    }

    #[test]
    fn rendering_is_aligned() {
        let h = render_header("Benchmark", &[Mitigation::Stt, Mitigation::SpecAsan]);
        let r = render_row("505.mcf_r", &[1.25, 1.02]);
        assert!(h.len() >= r.len());
        assert!(r.contains("1.250"));
    }
}
