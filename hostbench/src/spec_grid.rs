//! `spec-grid`: the Figure 6 grid (15 SPEC profiles × unsafe, fence, stt,
//! ghostminion, specasan) simulated in process, one cell after another.
//!
//! Almost all of its host time is `System::run`, so any speed-up of the
//! pipeline, memory hierarchy or policy hooks shows here first; it never
//! touches snapshots, the runner or the daemon. An op is one cell: build
//! the system (caches empty, as in the fig6 harness) and run it to halt.
//! A round is the whole grid in a seeded order.

use crate::common::{self, Ctx, Digest, Pass};
use crate::report::Outcome;
use crate::trace::Tracer;
use sas_pipeline::{RunExit, RunResult};
use sas_workloads::{build_workload, spec_suite, Workload};
use specasan::{build_system, Mitigation, SimConfig};
use std::time::Instant;

/// Outer-loop iterations per cell: 15–90 ms of simulation each, so the
/// grid repeats about eight times in a run.
pub const ITERS: u32 = 100;

/// Cycle budget of one cell, as in the bench harnesses.
const BUDGET: u64 = 1_000_000_000;

/// The grid's columns: the baseline, then the four bars of Figure 6.
pub const COLUMNS: [Mitigation; 5] = [
    Mitigation::Unsafe,
    Mitigation::Fence,
    Mitigation::Stt,
    Mitigation::GhostMinion,
    Mitigation::SpecAsan,
];

/// Pointer-chasing profiles whose time goes to the memory hierarchy.
const MEMBOUND: [&str; 3] = ["505.mcf_r", "520.omnetpp_r", "523.xalancbmk_r"];

/// Compute-bound profiles that barely touch memory.
const COMPUTEBOUND: [&str; 4] = ["508.namd_r", "511.povray_r", "538.imagick_r", "544.nab_r"];

/// The paper's Figure 6 SpecASan geomean (1.8% over unsafe).
const PAPER_SPECASAN: f64 = 1.018;

/// The paper's range for STT's normalised cycles on SPEC.
const PAPER_STT: (f64, f64) = (1.20, 1.45);

/// The smoke-length grid the golden file pins, and the file.
const GOLDEN_ITERS: u32 = 2;
const GOLDEN: &str = "crates/bench/golden_fig6_cycles.txt";

struct CellRun {
    name: &'static str,
    profile: usize,
    col: usize,
    ms: f64,
    run_ns: u64,
    run: RunResult,
}

fn setup(tr: &Tracer) -> Vec<Workload> {
    spec_suite()
        .iter()
        .map(|p| {
            tr.span("workloads.build_workload", || {
                build_workload(p, ITERS, sas_bench::SEED, 0)
            })
        })
        .collect()
}

fn run_cell(tr: &Tracer, w: &Workload, m: Mitigation) -> (f64, u64, RunResult) {
    let t = Instant::now();
    let mut sys = tr.span("core.build_system", || {
        build_system(&SimConfig::table2(), w.program.clone(), m)
    });
    tr.span("workloads.setup_apply", || w.setup.apply(&mut sys));
    let r = Instant::now();
    let run = tr.span("pipeline.run", || sys.run(BUDGET));
    let run_ns = r.elapsed().as_nanos() as u64;
    (common::ms(t), run_ns, run)
}

fn pass(
    ctx: &Ctx,
    tr: &Tracer,
    ws: &[Workload],
    rng: &mut sas_ptest::Rng,
) -> Result<(Pass, Vec<Vec<CellRun>>), String> {
    let grid: Vec<(usize, usize)> = (0..ws.len())
        .flat_map(|p| (0..COLUMNS.len()).map(move |c| (p, c)))
        .collect();
    let (rounds, round_s) = common::measure(tr, || {
        common::rounds(ctx.seconds, |r| {
            let mut order = grid.clone();
            common::shuffle(&mut order, rng);
            let mut cells: Vec<CellRun> = order
                .iter()
                .enumerate()
                .map(|(i, &(profile, col))| {
                    tr.group("hostbench.cell", (r * 1000 + i) as u64, || {
                        let (ms, run_ns, run) = run_cell(tr, &ws[profile], COLUMNS[col]);
                        CellRun {
                            name: ws[profile].name,
                            profile,
                            col,
                            ms,
                            run_ns,
                            run,
                        }
                    })
                })
                .collect();
            cells.sort_by_key(|c| (c.profile, c.col));
            Ok(cells)
        })
    })?;
    let slots = rounds
        .iter()
        .map(|r| r.iter().map(|c| c.ms).collect())
        .collect();
    Ok((
        Pass {
            rounds: slots,
            round_s,
            failed: 0,
        },
        rounds,
    ))
}

/// Cells that did not halt, committed a different instruction count from
/// their row's baseline, or ran a different number of cycles than the same
/// cell in the first round. Returns how many cells failed.
fn check(rounds: &[Vec<CellRun>], problems: &mut Vec<String>) -> u64 {
    let key = |c: &CellRun| (c.profile, c.col);
    let first: std::collections::BTreeMap<_, _> = rounds[0].iter().map(|c| (key(c), c)).collect();
    let mut failed = 0;
    for round in rounds {
        for c in round {
            let base = first[&(c.profile, 0)];
            let why = if c.run.exit != RunExit::Halted {
                Some(format!("did not halt ({:?})", c.run.exit))
            } else if c.run.committed() != base.run.committed() {
                Some(format!(
                    "committed {} vs baseline {}",
                    c.run.committed(),
                    base.run.committed()
                ))
            } else if c.run.cycles != first[&key(c)].run.cycles {
                Some(format!(
                    "{} cycles vs {} in round 1",
                    c.run.cycles,
                    first[&key(c)].run.cycles
                ))
            } else {
                None
            };
            if let Some(why) = why {
                failed += 1;
                problems.push(format!("{}/{}: {why}", c.name, COLUMNS[c.col].token()));
            }
        }
    }
    failed
}

/// The smoke-length grid, rendered the way `golden_fig6_cycles.txt` is,
/// must match that file line for line.
fn golden(o: &mut Outcome) {
    let want = match std::fs::read_to_string(GOLDEN) {
        Ok(t) => t,
        Err(e) => return o.problem(format!("cannot read {GOLDEN}: {e}")),
    };
    let mut got = Vec::new();
    for p in spec_suite() {
        for m in COLUMNS {
            match sas_bench::run_spec_checked(&p, m, GOLDEN_ITERS) {
                Ok(c) => got.push(format!(
                    "{}/{} cycles={} committed={} cpi={}",
                    p.name,
                    m.token(),
                    c.cycles,
                    c.committed,
                    sas_bench::cpi_json(&c)
                )),
                Err(f) => got.push(format!("{}/{} failed: {f}", p.name, m.token())),
            }
        }
    }
    let want: Vec<&str> = want.lines().collect();
    let bad =
        got.iter().zip(&want).filter(|(g, w)| g != w).count() + got.len().abs_diff(want.len());
    if bad > 0 {
        o.problem(format!("{bad} smoke-grid cells differ from {GOLDEN}"));
    }
}

fn digest(round: &[CellRun]) -> u64 {
    let mut d = Digest::default();
    for c in round {
        d.str(c.name);
        d.str(COLUMNS[c.col].token());
        d.u64(c.run.cycles);
        d.str(&format!("{:?}{:?}", c.run.core_stats, c.run.mem_stats));
    }
    d.value()
}

/// Geometric mean over the grid's rows of `col`'s cycles over unsafe's.
fn norm_geomean(round: &[CellRun], col: usize) -> f64 {
    let cycles = |p: usize, c: usize| {
        round
            .iter()
            .find(|r| r.profile == p && r.col == c)
            .map_or(1.0, |r| r.run.cycles as f64)
    };
    let rows = spec_suite().len();
    let ratios: Vec<f64> = (0..rows).map(|p| cycles(p, col) / cycles(p, 0)).collect();
    sas_bench::geomean(&ratios)
}

fn layer_metrics(o: &mut Outcome, rounds: &[Vec<CellRun>], tr: &Tracer) {
    let cells: Vec<&CellRun> = rounds.iter().flatten().collect();
    let ns_per_cycle = |keep: &dyn Fn(&CellRun) -> bool| {
        let (ns, cyc) = cells
            .iter()
            .filter(|c| keep(c))
            .fold((0u64, 0u64), |(n, y), c| (n + c.run_ns, y + c.run.cycles));
        if cyc == 0 {
            0.0
        } else {
            ns as f64 / cyc as f64
        }
    };
    let by_col: Vec<f64> = (0..COLUMNS.len())
        .map(|col| ns_per_cycle(&|c| c.col == col))
        .collect();
    for (col, name) in [
        "pipeline.ns_per_cycle.unsafe",
        "pipeline.ns_per_cycle.fence",
        "pipeline.ns_per_cycle.stt",
        "pipeline.ns_per_cycle.ghostminion",
        "pipeline.ns_per_cycle.specasan",
    ]
    .into_iter()
    .enumerate()
    {
        o.set(name, by_col[col]);
    }
    for (col, name) in [
        "policy.extra_ns_per_cycle.fence",
        "policy.extra_ns_per_cycle.stt",
        "policy.extra_ns_per_cycle.ghostminion",
        "policy.extra_ns_per_cycle.specasan",
    ]
    .into_iter()
    .enumerate()
    {
        o.set(name, by_col[col + 1] - by_col[0]);
    }
    o.set(
        "pipeline.ns_per_cycle.membound",
        ns_per_cycle(&|c| MEMBOUND.contains(&c.name)),
    );
    o.set(
        "pipeline.ns_per_cycle.computebound",
        ns_per_cycle(&|c| COMPUTEBOUND.contains(&c.name)),
    );
    let run_s: f64 = cells.iter().map(|c| c.run_ns as f64 / 1e9).sum();
    let committed: u64 = cells.iter().map(|c| c.run.committed()).sum();
    o.set("pipeline.run_s", run_s / rounds.len() as f64);
    o.set("pipeline.sim_ips", committed as f64 / run_s);

    let spans = tr.spans();
    o.set(
        "workloads.build_ms",
        common::span_ms(&spans, "workloads.build_workload"),
    );
    o.set(
        "core.build_system_ms",
        common::span_ms(&spans, "core.build_system"),
    );

    let round = &rounds[0];
    common::fill_sim(o, &round.iter().map(|c| &c.run).collect::<Vec<_>>());
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    for (col, name) in [
        "sim.delay_frac.fence",
        "sim.delay_frac.stt",
        "sim.delay_frac.ghostminion",
        "sim.delay_frac.specasan",
    ]
    .into_iter()
    .enumerate()
    {
        let of = |c: &CellRun| c.col == col + 1;
        let delay: u64 = round
            .iter()
            .filter(|c| of(c))
            .map(|c| {
                c.run
                    .core_stats
                    .iter()
                    .map(|s| s.delay_cycles.total())
                    .sum::<u64>()
            })
            .sum();
        let cycles: u64 = round.iter().filter(|c| of(c)).map(|c| c.run.cycles).sum();
        o.set(name, ratio(delay as f64, cycles as f64));
    }
    let specasan = norm_geomean(round, 4);
    o.set(
        "sim.specasan_err_pp",
        (specasan - PAPER_SPECASAN).abs() * 100.0,
    );
    let stt = norm_geomean(round, 2);
    o.set(
        "sim.stt_gap_pp",
        100.0 * (PAPER_STT.0 - stt).max(stt - PAPER_STT.1).max(0.0),
    );
}

/// Runs the workload.
pub fn run(ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    let mut o = Outcome::new("spec-grid", ctx.seed, ctx.seconds, trace);
    let mut rng = sas_ptest::Rng::new(ctx.seed);
    let tr = Tracer::new(trace);
    let (ws, setup_s) = common::setup(trace, &tr, |tr| Ok(setup(tr)))?;
    let mut problems = Vec::new();
    let (mut untraced, rounds) = pass(ctx, &Tracer::new(false), &ws, &mut rng)?;
    untraced.failed = check(&rounds, &mut problems);
    if trace {
        let (mut traced, traced_rounds) = pass(ctx, &tr, &ws, &mut rng)?;
        traced.failed = check(&traced_rounds, &mut problems);
        layer_metrics(&mut o, &traced_rounds, &tr);
        common::fill_trace(
            &mut o,
            &untraced,
            &traced,
            &tr.spans(),
            &ctx.state.join("spans.jsonl"),
        );
    } else {
        common::fill_e2e(&mut o, setup_s, &untraced, crate::proc::peak_rss_mb(None));
    }
    o.digest = digest(&rounds[0]);
    problems.truncate(5);
    o.problems.extend(problems);
    golden(&mut o);
    Ok(o)
}
