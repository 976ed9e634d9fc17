//! `snapshot`: checkpoint and restore of two machines through `sas-snap`.
//!
//! 505.mcf_r on one core (about 6.6 MB of image) and canneal on four cores
//! (about 17 MB) run under specasan to cycle 50k plus a seeded offset;
//! then each round writes a checkpoint of each (`snapshot_system` +
//! `write_atomic`) and restores it into a second machine (`Snapshot::read`
//! + `restore_system_checked`). Where `parsec-campaign` is restore-heavy,
//!   this balances write and read. An op is one checkpoint or one restore.

use crate::common::{self, Ctx, Digest, Pass};
use crate::report::Outcome;
use crate::trace::Tracer;
use sas_pipeline::System;
use sas_snap::Snapshot;
use sas_workloads::{build_parsec_workload, build_workload, parsec_suite, spec_suite};
use specasan::snapshot::{restore_system, restore_system_checked, snapshot_system};
use specasan::{build_multicore, build_system, Mitigation, SimConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Outer-loop iterations: both programs are still running at cycle 50k.
const ITERS: u32 = 150;

/// Where the checkpoints are taken, before the seeded offset.
const AT_CYCLE: u64 = 50_000;

/// Cycles a restored machine runs beside its twin in the check.
const CHECK_CYCLES: u64 = 10_000;

/// The two machines, named as in the metric names.
const MACHINES: [&str; 2] = ["mcf", "canneal"];

struct Machine {
    name: &'static str,
    /// The machine that is checkpointed; never restored into.
    live: System,
    /// The machine each restore writes into.
    restored: System,
    path: PathBuf,
}

fn build(name: &str) -> System {
    let cfg = SimConfig::table2();
    if name == "mcf" {
        let p = spec_suite()
            .into_iter()
            .find(|p| p.name == "505.mcf_r")
            .expect("505.mcf_r");
        let w = build_workload(&p, ITERS, sas_bench::SEED, 0);
        let mut sys = build_system(&cfg, w.program, Mitigation::SpecAsan);
        w.setup.apply(&mut sys);
        sys
    } else {
        let p = parsec_suite()
            .into_iter()
            .find(|p| p.name == name)
            .expect("a PARSEC profile");
        let ws = build_parsec_workload(&p, ITERS, sas_bench::SEED, 4);
        let mut sys = build_multicore(
            &cfg,
            ws.iter().map(|w| w.program.clone()).collect(),
            Mitigation::SpecAsan,
        );
        for w in &ws {
            w.setup.apply(&mut sys);
        }
        sys
    }
}

fn setup(ctx: &Ctx, tr: &Tracer, dir: &Path) -> Result<Vec<Machine>, String> {
    let offset = sas_ptest::Rng::new(ctx.seed).below(1_000);
    MACHINES
        .iter()
        .map(|&name| {
            let mut live = tr.span("core.build_system", || build(name));
            let run = tr.span("pipeline.run", || live.run(AT_CYCLE + offset));
            if !matches!(run.exit, sas_pipeline::RunExit::CycleLimit) {
                return Err(format!(
                    "{name} stopped before cycle {}: {:?}",
                    AT_CYCLE + offset,
                    run.exit
                ));
            }
            let restored = tr.span("core.build_system", || build(name));
            Ok(Machine {
                name,
                live,
                restored,
                path: dir.join(format!("{name}.snap")),
            })
        })
        .collect()
}

fn checkpoint(tr: &Tracer, m: &Machine) -> Result<(), String> {
    let b = tr.span("snap.encode", || snapshot_system(&m.live, false));
    tr.span("snap.write", || b.write_atomic(&m.path))
        .map_err(|e| format!("{}: {e}", m.path.display()))
}

fn restore(tr: &Tracer, m: &mut Machine) -> Result<(), String> {
    let snap = tr
        .span("snap.read", || Snapshot::read(&m.path))
        .map_err(|e| e.to_string())?;
    tr.span("snap.restore", || {
        restore_system_checked(&mut m.restored, &snap)
    })
    .map_err(|e| e.to_string())
}

fn pass(ctx: &Ctx, tr: &Tracer, ms: &mut [Machine]) -> Result<Pass, String> {
    let (rounds, round_s) = common::measure(tr, || {
        common::rounds(ctx.seconds, |r| {
            let mut ops = Vec::new();
            for (i, m) in ms.iter_mut().enumerate() {
                let group = (r * 10 + i) as u64;
                let t = Instant::now();
                tr.group("hostbench.checkpoint", group, || checkpoint(tr, m))?;
                ops.push(common::ms(t));
                let t = Instant::now();
                tr.group("hostbench.restore", group, || restore(tr, m))?;
                ops.push(common::ms(t));
            }
            Ok(ops)
        })
    })?;
    Ok(Pass {
        rounds,
        round_s,
        failed: 0,
    })
}

/// Per-image breakdown from the traced pass, plus two calls the ops do not
/// make on their own: `to_bytes` (framing, inside `write_atomic`) and a
/// plain `restore_system` (what the checked restore costs beyond it is its
/// rollback image).
fn layer_metrics(o: &mut Outcome, tr: &Tracer, ms: &mut [Machine]) -> Result<(), String> {
    let spans = tr.spans();
    // Op groups are `round * 10 + machine`.
    let per = |name: &str, i: usize| {
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name && s.group % 10 == i as u64)
            .map(|s| (s.end - s.start) as f64 / 1e6)
            .collect();
        crate::stats::mean(&d)
    };
    let mut extra = Vec::new();
    for m in ms.iter_mut() {
        let b = snapshot_system(&m.live, false);
        let t = Instant::now();
        std::hint::black_box(tr.span("snap.frame", || b.to_bytes()));
        let frame = common::ms(t);
        let snap = Snapshot::read(&m.path).map_err(|e| e.to_string())?;
        let t = Instant::now();
        tr.span("snap.restore_plain", || {
            restore_system(&mut m.restored, &snap)
        })
        .map_err(|e| e.to_string())?;
        let bytes = std::fs::metadata(&m.path).map_err(|e| e.to_string())?.len();
        extra.push((frame, common::ms(t), bytes));
    }
    let names: [[&'static str; 7]; 2] = [
        [
            "snap.encode_ms.mcf",
            "snap.frame_ms.mcf",
            "snap.write_ms.mcf",
            "snap.read_ms.mcf",
            "snap.restore_ms.mcf",
            "snap.rollback_image_ms.mcf",
            "snap.image_mb.mcf",
        ],
        [
            "snap.encode_ms.canneal",
            "snap.frame_ms.canneal",
            "snap.write_ms.canneal",
            "snap.read_ms.canneal",
            "snap.restore_ms.canneal",
            "snap.rollback_image_ms.canneal",
            "snap.image_mb.canneal",
        ],
    ];
    for (i, n) in names.iter().enumerate() {
        let (frame, plain, bytes) = extra[i];
        let restore = per("snap.restore", i);
        o.set(n[0], per("snap.encode", i));
        o.set(n[1], frame);
        o.set(n[2], per("snap.write", i) - frame);
        o.set(n[3], per("snap.read", i));
        o.set(n[4], restore);
        o.set(n[5], restore - plain);
        o.set(n[6], bytes as f64 / (1 << 20) as f64);
    }
    o.set(
        "core.build_system_ms",
        common::span_ms(&spans, "core.build_system"),
    );
    Ok(())
}

/// Each restored machine must continue exactly like the machine it was
/// checkpointed from: same run result for [`CHECK_CYCLES`] cycles, same
/// image afterwards.
fn twin_check(ms: &mut [Machine], o: &mut Outcome) -> u64 {
    let mut d = Digest::default();
    for m in ms.iter_mut() {
        // The last checkpoint is the live machine's current state.
        let image = std::fs::read(&m.path).unwrap_or_default();
        d.str(m.name);
        d.u64(sas_snap::fnv1a(&image));
        let until = m.live.cycle() + CHECK_CYCLES;
        let a = m.live.run(until);
        let b = m.restored.run(until);
        let same_run = format!("{:?}", (a.exit, a.cycles, a.core_stats, a.mem_stats))
            == format!("{:?}", (b.exit, b.cycles, b.core_stats, b.mem_stats));
        let same_image = snapshot_system(&m.live, false).to_bytes()
            == snapshot_system(&m.restored, false).to_bytes();
        if !(same_run && same_image) {
            o.failed += 1;
            o.problem(format!(
                "{}: the restored machine diverged from its twin within {CHECK_CYCLES} cycles",
                m.name
            ));
        }
        d.u64(m.live.cycle());
    }
    d.value()
}

/// Runs the workload.
pub fn run(ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    let mut o = Outcome::new("snapshot", ctx.seed, ctx.seconds, trace);
    let dir = ctx.fresh_dir("snapshot")?;
    let tr = Tracer::new(trace);
    let (mut ms, setup_s) = common::setup(trace, &tr, |tr| setup(ctx, tr, &dir))?;
    let untraced = pass(ctx, &Tracer::new(false), &mut ms)?;
    let rss = crate::proc::peak_rss_mb(None);
    if trace {
        let traced = pass(ctx, &tr, &mut ms)?;
        layer_metrics(&mut o, &tr, &mut ms)?;
        common::fill_trace(
            &mut o,
            &untraced,
            &traced,
            &tr.spans(),
            &ctx.state.join("spans.jsonl"),
        );
    } else {
        common::fill_e2e(&mut o, setup_s, &untraced, rss);
    }
    o.digest = twin_check(&mut ms, &mut o);
    Ok(o)
}
