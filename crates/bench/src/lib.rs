//! # Experiment harnesses
//!
//! Shared plumbing for the bench targets that regenerate every table and
//! figure of the paper (see `benches/`): workload execution under each
//! mitigation, normalization against the unsafe baseline, and the figure
//! renderers. [`Target`] is also the one way every other front end
//! (`sas-runner`, `sas-serve`, `sas-sim`, `sas-trace`) turns a machine's
//! name into a built [`System`].
//!
//! Run lengths are controlled by `SAS_BENCH_ITERS` (outer-loop iterations
//! per benchmark; default 150 ≈ 40–80 k committed instructions each) so CI
//! and full runs use the same binaries.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use crate::checkpoint::{CheckpointPlan, Interrupt};
use sas_attacks::spectre::spectre_v1_program;
use sas_attacks::{layout, GadgetFlavor};
use sas_isa::Program;
use sas_pipeline::{DelayCause, RunExit, RunResult, System};
use sas_workloads::{
    build_parsec_workload, build_workload, parse_iterations, parsec_suite, spec_suite, Profile,
    Workload,
};
use specasan::{build_multicore, build_system, Mitigation, SimConfig};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

pub mod checkpoint;
pub mod heartbeat;
pub mod jsonl;
pub mod timing;

/// Outer-loop iterations per benchmark run: `SAS_BENCH_ITERS`, or 150 when
/// it is unset.
///
/// # Panics
///
/// Panics naming `SAS_BENCH_ITERS` when it is set to anything but an
/// integer in `1..=u32::MAX`.
pub fn bench_iterations() -> u32 {
    match std::env::var("SAS_BENCH_ITERS") {
        Err(std::env::VarError::NotPresent) => 150,
        Ok(v) => parse_iterations(&v).unwrap_or_else(|e| panic!("SAS_BENCH_ITERS: {e}")),
        Err(e) => panic!("SAS_BENCH_ITERS: {e}"),
    }
}

/// Deterministic seed used by every harness.
pub const SEED: u64 = 0x5A5_CA5A;

/// Gauge sampling period, in cycles, of a traced run (`sas-trace` and the
/// `sas-serve` trace job).
pub const TRACE_SAMPLE_INTERVAL: u64 = 64;

/// Per-core instruction-timeline capacity of a traced run.
pub const TRACE_TIMELINE_CAP: usize = 65_536;

/// Why a (benchmark, mitigation) cell produced no valid numbers. Returned by
/// [`check_clean_exit`] so abort handling is the *caller's* policy: direct
/// `cargo bench` runs panic with the crash dump ([`run_spec`],
/// [`run_parsec`]), while the `sas-runner` supervisor records the failure
/// and moves on.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Suite tag of the cell (`spec`, `parsec`), as [`run_spec_checked`]
    /// and [`run_parsec_checked`] pass it.
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

impl CellFailure {
    /// The cell's tagged invalid record, as one JSON line.
    fn invalid_row(&self) -> String {
        let ms = self.mitigation.to_string();
        jsonl::render(
            &self.bench,
            &[
                ("benchmark", self.benchmark.as_str().into()),
                ("mitigation", ms.as_str().into()),
                ("exit", self.exit.into()),
                ("valid", false.into()),
            ],
        )
    }

    /// Emits [`Self::invalid_row`], so a bench target's JSONL stream
    /// records the abort instead of a silent gap.
    fn emit_invalid(&self) {
        jsonl::emit_line(&self.invalid_row());
    }
}

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

/// The name [`Target::parse`] gives the Listing-1 Spectre-v1 PoC.
const SPECTRE_V1: &str = "spectre-v1";

/// A machine a front end can name: the Listing-1 Spectre-v1
/// bounds-check-bypass PoC, a SPEC profile on one core, or a PARSEC
/// profile on four. [`Target::system`] is the one way every front end
/// (bench targets, `sas-runner` cells and probes, `sas-serve` jobs,
/// `sas-sim workload`, `sas-trace`) turns a name into a built machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Target {
    /// The Listing-1 PoC; `matching` picks the tag-matching gadget flavour
    /// (the attack then goes undetected by tag checks).
    SpectreV1 {
        /// Use [`GadgetFlavor::TagMatching`] instead of the tag-violating
        /// default.
        matching: bool,
    },
    /// A SPEC CPU2017 profile, run on one core.
    Spec(Profile),
    /// A PARSEC profile, run on four cores.
    Parsec(Profile),
}

impl Target {
    /// Resolves a name, ignoring ASCII case: `spectre-v1` first, then the
    /// SPEC names, then the PARSEC names. The PoC resolves to its
    /// tag-violating flavour.
    pub fn parse(name: &str) -> Result<Target, String> {
        if name.eq_ignore_ascii_case(SPECTRE_V1) {
            return Ok(Target::SpectreV1 { matching: false });
        }
        let find =
            |suite: Vec<Profile>| suite.into_iter().find(|p| p.name.eq_ignore_ascii_case(name));
        find(spec_suite())
            .map(Target::Spec)
            .or_else(|| find(parsec_suite()).map(Target::Parsec))
            .ok_or_else(|| format!("unknown target {name:?}; `list` names every target"))
    }

    /// Every canonical name, in [`Target::parse`] order.
    pub fn names() -> Vec<&'static str> {
        let profiles = spec_suite().into_iter().chain(parsec_suite());
        std::iter::once(SPECTRE_V1).chain(profiles.map(|p| p.name)).collect()
    }

    /// The canonical name ([`Target::parse`] gives this target back).
    pub fn name(&self) -> &'static str {
        match self {
            Target::SpectreV1 { .. } => SPECTRE_V1,
            Target::Spec(p) | Target::Parsec(p) => p.name,
        }
    }

    /// The suite tag bench rows and warm-base files carry: `spec`,
    /// `parsec`, or the PoC's name.
    pub fn suite(&self) -> &'static str {
        match self {
            Target::SpectreV1 { .. } => SPECTRE_V1,
            Target::Spec(_) => "spec",
            Target::Parsec(_) => "parsec",
        }
    }

    /// The target's generated workloads, one per core, through the shared
    /// cache; `None` for the PoC.
    fn workloads(&self, iterations: u32) -> Option<Arc<Vec<Workload>>> {
        let key = (self.suite(), self.name(), iterations);
        match *self {
            Target::SpectreV1 { .. } => None,
            Target::Spec(p) => {
                Some(cached_workloads(key, || vec![build_workload(&p, iterations, SEED, 0)]))
            }
            Target::Parsec(p) => {
                Some(cached_workloads(key, || build_parsec_workload(&p, iterations, SEED, 4)))
            }
        }
    }

    /// Core 0's program at `iterations` outer-loop iterations (the PoC
    /// ignores the count): the index space of [`Target::system`]'s NOP
    /// mask.
    pub fn program(&self, iterations: u32) -> Program {
        if let Some(ws) = self.workloads(iterations) {
            return ws[0].program.clone();
        }
        let flavor = if matches!(self, Target::SpectreV1 { matching: true }) {
            GadgetFlavor::TagMatching
        } else {
            GadgetFlavor::TagViolating
        };
        spectre_v1_program(&SimConfig::table2(), flavor)
    }

    /// Builds the machine under `m` on the Table 2 configuration, with its
    /// data installed and the instructions at `nops` in core 0's program
    /// replaced by `NOP` (the shrinker's mask; empty for a measurement).
    /// The machine is not run.
    pub fn system(&self, m: Mitigation, iterations: u32, nops: &[usize]) -> System {
        let mask = |p: &Program| if nops.is_empty() { p.clone() } else { p.with_nops(nops) };
        let cfg = SimConfig::table2();
        let Some(ws) = self.workloads(iterations) else {
            let mut sys = build_system(&cfg, mask(&self.program(iterations)), m);
            layout::install_victim(&mut sys);
            return sys;
        };
        let programs = ws
            .iter()
            .enumerate()
            .map(|(core, w)| if core == 0 { mask(&w.program) } else { w.program.clone() })
            .collect();
        let mut sys = build_multicore(&cfg, programs, m);
        for w in ws.iter() {
            w.setup.apply(&mut sys);
        }
        sys
    }
}

/// Builds the 4-core system for one PARSEC workload, not yet run.
pub fn build_parsec_system(profile: &Profile, m: Mitigation, iterations: u32) -> System {
    Target::Parsec(*profile).system(m, iterations, &[])
}

/// Runs one SPEC-style (single-core) workload under a mitigation,
/// returning the failure instead of panicking on an aborted run. An
/// aborted run is first emitted as a tagged invalid JSONL record.
pub fn run_spec_checked(
    profile: &Profile,
    m: Mitigation,
    iterations: u32,
) -> Result<Cell, Box<CellFailure>> {
    let sys = Target::Spec(*profile).system(m, iterations, &[]);
    run_cell_with(sys, "spec", profile.name, m, &CheckpointPlan::none())
        .inspect_err(|f| f.emit_invalid())
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
/// returning the failure instead of panicking on an aborted run. An
/// aborted run is first emitted as a tagged invalid JSONL record.
pub fn run_parsec_checked(
    profile: &Profile,
    m: Mitigation,
    iterations: u32,
) -> Result<Cell, Box<CellFailure>> {
    let sys = Target::Parsec(*profile).system(m, iterations, &[]);
    run_cell_with(sys, "parsec", profile.name, m, &CheckpointPlan::none())
        .inspect_err(|f| f.emit_invalid())
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

/// Runs `run` over every cell on at most four scoped worker threads and
/// returns the results in input order. Cells are deterministic and
/// independent single runs, so the pool cannot change a number.
pub fn run_grid<T: Sync>(cells: &[T], run: impl Fn(&T) -> Cell + Sync) -> Vec<Cell> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(cells.len()));
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get()).min(4);
    std::thread::scope(|s| {
        for _ in 0..threads.min(cells.len()) {
            s.spawn(|| loop {
                // Relaxed: the counter only hands out indices; results
                // travel through the mutex.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(key) = cells.get(i) else { break };
                let cell = run(key);
                done.lock().expect("no worker panics holding the lock").push((i, cell));
            });
        }
    });
    let mut done = done.into_inner().expect("no worker panics holding the lock");
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, c)| c).collect()
}

/// Runs a built `bench` cell (`spec`, `parsec`) under `plan` — what a
/// `sas-runner cell` child runs — returning the failure instead of
/// panicking on an aborted run. Every input arrives through `sys` and
/// `plan` (fault plan and heartbeat included): nothing here reads the
/// environment or emits a record.
pub fn run_cell_with(
    mut sys: System,
    bench: &str,
    benchmark: &str,
    m: Mitigation,
    plan: &CheckpointPlan,
) -> Result<Cell, Box<CellFailure>> {
    let sr = checkpoint::run_supervised_with(&mut sys, 1_000_000_000, plan, |_| Interrupt::None);
    check_clean_exit(bench, benchmark, m, &sr.run)?;
    Ok(finish(sr.run, sr.restored))
}

/// Gate on a cell's exit: clean halts pass; any aborted run (cycle limit,
/// deadlock, fault, oracle divergence, internal error) is returned as a
/// [`CellFailure`] for the caller to apply its own policy (panic,
/// record-and-continue, retry, …).
pub fn check_clean_exit(
    bench: &str,
    benchmark: &str,
    m: Mitigation,
    run: &RunResult,
) -> Result<(), Box<CellFailure>> {
    if jsonl::valid_cell(&run.exit) {
        return Ok(());
    }
    let detail = match &run.exit {
        RunExit::Divergence(d) => d.to_string(),
        RunExit::Faulted(f) => format!("{f:?}"),
        RunExit::Error(e) => e.to_string(),
        other => other.tag().to_string(),
    };
    Err(Box::new(CellFailure {
        bench: bench.to_string(),
        benchmark: benchmark.to_string(),
        mitigation: m,
        exit: run.exit.tag(),
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

/// The nested-JSON `cpi` field value for a cell's JSONL record; splice it
/// in with [`jsonl::Value::Raw`].
pub fn cpi_json(cell: &Cell) -> String {
    cell.run.cpi().to_json(&DelayCause::ALL.map(|c| c.name()))
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
    fn every_target_name_parses_back_to_itself_ignoring_case() {
        let names = Target::names();
        assert_eq!(names.len(), 1 + spec_suite().len() + sas_workloads::parsec_suite().len());
        for name in names {
            for spelled in [name.to_string(), name.to_ascii_uppercase()] {
                assert_eq!(Target::parse(&spelled).map(|t| t.name()), Ok(name), "{spelled}");
            }
        }
        assert!(matches!(Target::parse("spectre-v1"), Ok(Target::SpectreV1 { matching: false })));
        assert!(matches!(Target::parse("canneal"), Ok(Target::Parsec(_))));
        assert!(Target::parse("nope").unwrap_err().contains("`list`"));
    }

    /// A probe machine as `sas-runner` built it by hand before [`Target`]:
    /// fresh workloads, core 0's program masked, the other cores as
    /// generated.
    fn hand_built_probe(target: &Target, m: Mitigation, iters: u32, nops: &[usize]) -> System {
        let ws = match target {
            Target::Spec(p) => vec![build_workload(p, iters, SEED, 0)],
            Target::Parsec(p) => build_parsec_workload(p, iters, SEED, 4),
            Target::SpectreV1 { .. } => unreachable!("the PoC has no workloads"),
        };
        let mut programs: Vec<Program> = ws.iter().map(|w| w.program.clone()).collect();
        programs[0] = programs[0].with_nops(nops);
        let mut sys = if programs.len() == 1 {
            build_system(&SimConfig::table2(), programs.remove(0), m)
        } else {
            build_multicore(&SimConfig::table2(), programs, m)
        };
        for w in &ws {
            w.setup.apply(&mut sys);
        }
        sys
    }

    #[test]
    fn masked_machines_encode_like_the_hand_built_probe_machines() {
        let nops = [3, 7, 11];
        let image = |sys: &System| specasan::snapshot::snapshot_system(sys, false).to_bytes();
        for (name, m) in [("505.mcf_r", Mitigation::Stt), ("canneal", Mitigation::SpecAsan)] {
            let t = Target::parse(name).unwrap();
            assert!(
                image(&t.system(m, 2, &nops)) == image(&hand_built_probe(&t, m, 2, &nops)),
                "{name}: the Target machine differs from the hand-built probe machine"
            );
            assert!(image(&t.system(m, 2, &[])) != image(&t.system(m, 2, &nops)), "{name}");
        }
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
    fn aborted_cell_renders_a_tagged_invalid_row() {
        let run = RunResult {
            exit: RunExit::CycleLimit,
            cycles: 7,
            core_stats: Vec::new(),
            mem_stats: Default::default(),
            dump: None,
        };
        let failure = check_clean_exit("spec", "505.mcf_r", Mitigation::Unsafe, &run).unwrap_err();
        assert_eq!(
            failure.invalid_row(),
            "{\"bench\":\"spec\",\"benchmark\":\"505.mcf_r\",\"mitigation\":\"Unsafe Baseline\",\
             \"exit\":\"cycle_limit\",\"valid\":false}"
        );
    }

    /// A synthetic halted cell: one core with the given counters.
    fn cell(cycles: u64, committed: u64, restricted: u64, tainted: u64) -> Cell {
        let stats = sas_pipeline::CoreStats {
            committed,
            restricted_committed: restricted,
            tainted_committed: tainted,
            ..Default::default()
        };
        let run = RunResult {
            exit: RunExit::Halted,
            cycles,
            core_stats: vec![stats],
            mem_stats: Default::default(),
            dump: None,
        };
        finish(run, false)
    }

    #[test]
    fn run_grid_keeps_input_order_with_more_cells_than_threads() {
        // With a second worker, cell 0 finishes only after cell 1 has, so
        // results arrive out of order.
        let (tx, rx) = std::sync::mpsc::channel();
        let rx = Mutex::new(rx);
        let keys: Vec<u64> = (0..41).map(|i| (i * 7919) % 1000).collect();
        let cells = run_grid(&keys, |&k| {
            if k == keys[0] {
                let wait = std::time::Duration::from_secs(5);
                let _ = rx.lock().unwrap().recv_timeout(wait);
            } else if k == keys[1] {
                tx.send(()).unwrap();
            }
            cell(k, 1, 0, 0)
        });
        assert_eq!(cells.iter().map(|c| c.cycles).collect::<Vec<_>>(), keys);
    }

    #[test]
    fn restricted_metric_reads_taint_for_stt_and_waits_otherwise() {
        let c = cell(10, 200, 30, 50);
        assert_eq!(restricted_metric(&c, Mitigation::Stt), 0.25);
        for m in [Mitigation::Fence, Mitigation::SpecAsan, Mitigation::GhostMinion] {
            assert_eq!(restricted_metric(&c, m), 0.15, "{m}");
        }
        let idle = cell(10, 0, 30, 50);
        for m in [Mitigation::Stt, Mitigation::Fence, Mitigation::SpecAsan] {
            assert_eq!(restricted_metric(&idle, m), 0.0, "{m}");
        }
    }

    #[test]
    fn rendering_is_aligned() {
        let h = render_header("Benchmark", &[Mitigation::Stt, Mitigation::SpecAsan]);
        let r = render_row("505.mcf_r", &[1.25, 1.02]);
        assert!(h.len() >= r.len());
        assert!(r.contains("1.250"));
    }
}
