//! `parsec-campaign`: warm-fork Figure 7 cells through `sas-runner`.
//!
//! It exercises what `spec-grid` never does: a process per cell, the
//! manifest, the shared-L2 four-core model, and cross-process snapshots.
//! Set-up runs the campaign's baseline cell, blackscholes (9 MB of image)
//! under unsafe, which writes the warm image at cycle 50k. Each round then
//! resumes that campaign (`--resume` on a copy of its manifest) with the
//! four mitigation cells in a seeded order, two jobs at a time; every cell
//! restores the warm image, which takes most of its time. An op is one
//! cell, timed by the manifest's `duration_ms`.
//!
//! Running the baseline first also keeps the cycles exact: in one
//! two-job campaign a mitigation cell could start before the image exists,
//! run cold, and simulate a different machine.

use crate::common::{self, Ctx, Digest, Pass};
use crate::proc;
use crate::report::Outcome;
use crate::stats;
use crate::trace::Tracer;
use sas_runner::manifest::{load_and_repair, Record};
use sas_snap::Snapshot;
use specasan::Mitigation;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// The campaign's benchmark.
const BENCH: &str = "blackscholes";

/// Outer-loop iterations per cell, as in the paper-length fig7 campaign.
const ITERS: u32 = 150;

/// Worker processes: one per core of the two-core reference machine.
const JOBS: u32 = 2;

/// The paper's Figure 7 SpecASan geomean (2.5% over unsafe).
const PAPER_SPECASAN: f64 = 1.025;

/// The campaign's cell under `m`.
fn cell(m: Mitigation) -> String {
    format!("parsec/{BENCH}/{}", m.token())
}

/// One `sas-runner run` over `cells` with its snapshots in `<dir>/ckpt`,
/// logging next to `manifest`; `resume` skips the cells the manifest
/// already records. Returns the manifest's rows.
fn campaign(
    ctx: &Ctx,
    tr: &Tracer,
    dir: &Path,
    manifest: &Path,
    cells: &[String],
    resume: bool,
    problems: &mut Vec<String>,
) -> Result<Vec<Record>, String> {
    let mut cmd = Command::new(ctx.bin("sas-runner"));
    proc::clean_env(&mut cmd)
        .arg("run")
        .args(["--cells", &cells.join(",")])
        .args(["--iters", &ITERS.to_string(), "--jobs", &JOBS.to_string()])
        .arg("--warm-fork")
        .arg("--checkpoint-dir")
        .arg(dir.join("ckpt"))
        .arg("--manifest")
        .arg(manifest)
        .arg("--repro-dir")
        .arg(dir.join("repro"))
        .args(["--no-shrink", "--timeout-ms", "120000"]);
    if resume {
        cmd.arg("--resume");
    }
    let log = manifest.with_extension("log");
    let status = tr
        .span("runner.campaign", || proc::run_logged(&mut cmd, &log))
        .map_err(|e| format!("cannot run sas-runner: {e}"))?;
    if !status.success() {
        problems.push(format!(
            "sas-runner exited with {status} (see {})",
            log.display()
        ));
    }
    load_and_repair(manifest).map_err(|e| format!("{}: {e}", manifest.display()))
}

/// The campaign after its baseline cell: the state dir holding the warm
/// image, and the baseline's manifest row.
struct Campaign {
    dir: PathBuf,
    base: Record,
}

fn setup(ctx: &Ctx, tr: &Tracer) -> Result<Campaign, String> {
    let dir = ctx.fresh_dir("parsec")?;
    let mut problems = Vec::new();
    let rows = campaign(
        ctx,
        tr,
        &dir,
        &dir.join("base.jsonl"),
        &[cell(Mitigation::Unsafe)],
        false,
        &mut problems,
    )?;
    match rows.as_slice() {
        [base] if base.ok && problems.is_empty() => Ok(Campaign {
            dir,
            base: base.clone(),
        }),
        _ => Err(format!(
            "the baseline campaign failed: {rows:?} {problems:?}"
        )),
    }
}

fn pass(
    ctx: &Ctx,
    tr: &Tracer,
    c: &Campaign,
    rng: &mut sas_ptest::Rng,
    problems: &mut Vec<String>,
) -> Result<(Pass, Vec<Vec<Record>>), String> {
    let (rounds, round_s) = common::measure(tr, || {
        common::rounds(ctx.seconds, |r| {
            let manifest = c.dir.join(format!("round-{r}.jsonl"));
            std::fs::copy(c.dir.join("base.jsonl"), &manifest).map_err(|e| e.to_string())?;
            let mut forks: Vec<String> = Mitigation::figure6_set().map(cell).to_vec();
            common::shuffle(&mut forks, rng);
            let cells = [vec![cell(Mitigation::Unsafe)], forks].concat();
            let mut rows = tr.group("hostbench.round", r as u64, || {
                campaign(ctx, tr, &c.dir, &manifest, &cells, true, problems)
            })?;
            rows.retain(|row| row.cell != cell(Mitigation::Unsafe));
            if rows.len() != cells.len() - 1 {
                problems.push(format!(
                    "round {r}: {} new manifest rows, expected {}",
                    rows.len(),
                    cells.len() - 1
                ));
            }
            rows.sort_by(|a, b| a.cell.cmp(&b.cell));
            Ok(rows)
        })
    })?;
    let failed = rounds
        .iter()
        .flatten()
        .filter(|row| {
            let bad = !row.ok || !row.restored;
            if bad {
                problems.push(format!(
                    "{}: ok={} restored={}",
                    row.cell, row.ok, row.restored
                ));
            }
            bad
        })
        .count() as u64;
    let slots = rounds
        .iter()
        .map(|r| r.iter().map(|row| row.duration_ms as f64).collect())
        .collect();
    Ok((
        Pass {
            rounds: slots,
            round_s,
            failed,
        },
        rounds,
    ))
}

fn digest(base: &Record, rows: &[Record]) -> u64 {
    let mut d = Digest::default();
    for r in std::iter::once(base).chain(rows) {
        d.str(&r.cell);
        d.u64(r.cycles);
        d.str(r.cpi.as_deref().unwrap_or(""));
    }
    d.value()
}

fn profile() -> sas_workloads::Profile {
    sas_workloads::parsec_suite()
        .into_iter()
        .find(|p| p.name == BENCH)
        .expect("a PARSEC profile")
}

/// Per-layer metrics from the traced pass, plus in-process references:
/// the baseline re-run to read its statistics, one cold cell to price the
/// runner's per-cell overhead, and the warm image restored in process.
fn layer_metrics(
    ctx: &Ctx,
    o: &mut Outcome,
    tr: &Tracer,
    c: &Campaign,
    pass: &Pass,
    rounds: &[Vec<Record>],
) -> Result<(), String> {
    let durations: Vec<f64> = pass.rounds.iter().flatten().copied().collect();
    o.set("runner.cell_ms.p50", stats::pct(&durations, 50.0));
    o.set("runner.cell_ms.max", stats::pct(&durations, 100.0));
    let busy: f64 = durations.iter().sum::<f64>() / 1e3;
    let wall: f64 = pass.round_s.iter().sum();
    o.set(
        "runner.slot_idle_frac",
        1.0 - busy / (f64::from(JOBS) * wall),
    );

    let last = &rounds[rounds.len() - 1];
    let specasan = last
        .iter()
        .find(|r| r.cell == cell(Mitigation::SpecAsan))
        .map_or(0.0, |r| r.cycles as f64);
    o.set(
        "sim.specasan_err_pp",
        (specasan / c.base.cycles as f64 - PAPER_SPECASAN).abs() * 100.0,
    );

    // The baseline runs cold in the campaign too, so in process it must
    // reproduce the manifest's cycles exactly.
    let p = profile();
    let mut sys = tr.span("workloads.build_parsec_system", || {
        sas_bench::build_parsec_system(&p, Mitigation::Unsafe, ITERS)
    });
    let run = tr.span("pipeline.run", || sys.run(1_000_000_000));
    if run.cycles != c.base.cycles {
        o.problem(format!(
            "{}: {} cycles in process, {} in the campaign",
            c.base.cell, run.cycles, c.base.cycles
        ));
    }
    common::fill_sim(o, &[&run]);
    o.set(
        "workloads.build_ms",
        common::span_ms(&tr.spans(), "workloads.build_parsec_system"),
    );

    // Runner overhead: a one-cell cold campaign against the same cell in
    // process (workload generation included on both sides).
    let dir = ctx.fresh_dir("parsec-cold")?;
    let cold_cell = cell(Mitigation::Fence);
    let mut problems = Vec::new();
    let cold = campaign(
        ctx,
        tr,
        &dir,
        &dir.join("cold.jsonl"),
        std::slice::from_ref(&cold_cell),
        false,
        &mut problems,
    )?;
    let t = Instant::now();
    sas_bench::build_parsec_system(&p, Mitigation::Fence, ITERS).run(1_000_000_000);
    let in_process = common::ms(t);
    o.set(
        "runner.overhead_ms_per_cell",
        cold.first().map_or(0.0, |r| r.duration_ms as f64) - in_process,
    );
    o.problems.extend(problems);

    // The campaign's warm image, restored in process.
    let path = sas_runner::supervisor::warm_base_path(&c.dir.join("ckpt"), "parsec", BENCH);
    let bytes = std::fs::metadata(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .len();
    let mut sys = sas_bench::build_parsec_system(&p, Mitigation::SpecAsan, ITERS);
    let t = Instant::now();
    tr.span("snap.read", || Snapshot::read(&path))
        .and_then(|snap| {
            tr.span("snap.restore", || {
                specasan::snapshot::restore_system_checked(&mut sys, &snap)
            })
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
    o.set("snap.warm_restore_ms.p50", common::ms(t));
    o.set("snap.warm_images", 1.0);
    o.set("snap.warm_image_mb", bytes as f64 / (1 << 20) as f64);
    o.set(
        "snap.warm_restores",
        last.iter().filter(|r| r.restored).count() as f64,
    );
    Ok(())
}

/// Runs the workload.
pub fn run(ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    let mut o = Outcome::new("parsec-campaign", ctx.seed, ctx.seconds, trace);
    let mut rng = sas_ptest::Rng::new(ctx.seed);
    let tr = Tracer::new(trace);
    let (c, setup_s) = common::setup(trace, &tr, |tr| setup(ctx, tr))?;
    let mut problems = Vec::new();
    let (untraced, rounds) = pass(ctx, &Tracer::new(false), &c, &mut rng, &mut problems)?;
    o.digest = digest(&c.base, &rounds[0]);
    if trace {
        let (traced, traced_rounds) = pass(ctx, &tr, &c, &mut rng, &mut problems)?;
        if digest(&c.base, &traced_rounds[0]) != o.digest {
            problems.push("the traced campaign simulated different cycles".into());
        }
        layer_metrics(ctx, &mut o, &tr, &c, &traced, &traced_rounds)?;
        common::fill_trace(
            &mut o,
            &untraced,
            &traced,
            &tr.spans(),
            &ctx.state.join("spans.jsonl"),
        );
    } else {
        common::fill_e2e(&mut o, setup_s, &untraced, proc::children_peak_rss_mb());
    }
    problems.truncate(5);
    o.problems.extend(problems);
    Ok(o)
}
