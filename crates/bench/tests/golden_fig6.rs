//! Golden cycle-exactness test for the fig6 grid (ISSUE 6).
//!
//! Runs every (benchmark, mitigation) cell of the Figure 6 grid at the
//! tier-1 smoke length (2 iterations) and compares `cycles`, `committed`
//! and the full CPI stack bit-for-bit against the checked-in fixture
//! `crates/bench/golden_fig6_cycles.txt`, which was recorded *before* the
//! hot-loop overhaul. Any simulator change that alters a single cycle or
//! shifts one CPI bucket in any cell fails this test.
//!
//! A second test runs the same grid with interval-1 telemetry sampling,
//! which forbids quiescent skip-ahead on every cycle, and asserts the same
//! fixture: the tick-by-tick reference for skip equivalence across all five
//! Figure 6 columns.
//!
//! Re-recording (only legitimate when an intentional semantic change lands,
//! with the diff reviewed cell by cell):
//!
//! ```text
//! SAS_GOLDEN_RECORD=1 cargo test -p sas-bench --test golden_fig6 fig6_grid_is_cycle_exact
//! ```

use sas_bench::checkpoint::CheckpointPlan;
use sas_bench::{build_spec_system, cpi_json, run_cell_with, run_grid, run_spec, Cell};
use sas_pipeline::{DelayCause, RunExit};
use sas_workloads::{spec_suite, Profile};
use specasan::Mitigation;

/// Smoke length: matches the tier-1 fig6 stage (`--iters 2`).
const ITERS: u32 = 2;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden_fig6_cycles.txt");

/// Runs every cell of the grid on the shared worker pool and renders one
/// fixture line per cell, in grid order.
fn run_fig6_grid(run: impl Fn(&Profile, Mitigation) -> Cell + Sync) -> Vec<String> {
    let mut cols = vec![Mitigation::Unsafe];
    cols.extend(Mitigation::figure6_set());
    let suite = spec_suite();
    let keys: Vec<(&Profile, Mitigation)> =
        suite.iter().flat_map(|p| cols.iter().map(move |&m| (p, m))).collect();
    let cells = run_grid(&keys, |&(p, m)| run(p, m));
    keys.iter()
        .zip(&cells)
        .map(|((p, m), cell)| {
            format!(
                "{}/{} cycles={} committed={} cpi={}",
                p.name,
                m.token(),
                cell.cycles,
                cell.committed,
                cpi_json(cell)
            )
        })
        .collect()
}

/// Asserts `lines` match the fixture, cell by cell.
fn assert_matches_fixture(lines: &[String]) {
    let golden = std::fs::read_to_string(FIXTURE)
        .unwrap_or_else(|e| panic!("missing golden fixture {FIXTURE}: {e}"));
    let golden_lines: Vec<&str> = golden.lines().collect();
    assert_eq!(
        golden_lines.len(),
        lines.len(),
        "fig6 grid shape changed: fixture has {} cells, run produced {}",
        golden_lines.len(),
        lines.len()
    );
    let mut diffs = Vec::new();
    for (want, got) in golden_lines.iter().zip(lines) {
        if want != got {
            diffs.push(format!("  - {want}\n  + {got}"));
        }
    }
    assert!(
        diffs.is_empty(),
        "cycle-exactness violated in {}/{} cells:\n{}",
        diffs.len(),
        lines.len(),
        diffs.join("\n")
    );
}

#[test]
fn fig6_grid_is_cycle_exact() {
    let lines = run_fig6_grid(|p, m| run_spec(p, m, ITERS));
    if std::env::var("SAS_GOLDEN_RECORD").is_ok_and(|v| v == "1") {
        let body = lines.join("\n") + "\n";
        std::fs::write(FIXTURE, &body).unwrap();
        eprintln!("recorded {} cells into {FIXTURE}", lines.len());
        return;
    }
    assert_matches_fixture(&lines);
}

/// Interval-1 sampling clamps every quiescent window to zero cycles, so
/// this grid is ticked cycle by cycle: it must still match the fixture.
#[test]
fn fig6_grid_ticked_cycle_by_cycle_matches_golden() {
    let lines = run_fig6_grid(|p, m| {
        let mut sys = build_spec_system(p, m, ITERS);
        sys.enable_telemetry(1, 1);
        run_cell_with(sys, "spec", p.name, m, &CheckpointPlan::none())
            .unwrap_or_else(|f| panic!("{f}"))
    });
    assert_matches_fixture(&lines);
}

/// Skip-ahead charges the retries of a skipped window in bulk; the
/// per-cause delay histograms must still read as if every retry had been
/// observed on its own cycle. Interval 4096 leaves long windows to skip,
/// interval 1 ticks every cycle.
#[test]
fn delay_histograms_match_between_ticked_and_skipped_runs() {
    for m in [Mitigation::Fence, Mitigation::Stt] {
        for p in spec_suite() {
            let histograms = |interval: u64| {
                let mut sys = build_spec_system(&p, m, ITERS);
                sys.enable_telemetry(interval, 1);
                let r = sys.run(1_000_000_000);
                assert_eq!(r.exit, RunExit::Halted, "{}/{m:?}", p.name);
                let reg = sys.export_metrics();
                DelayCause::ALL.map(|c| {
                    let name = format!("pipeline.core0.hist.delay.{}", c.name());
                    reg.histogram_value(&name).cloned().unwrap_or_else(|| panic!("no {name}"))
                })
            };
            assert_eq!(histograms(1), histograms(4096), "{}/{m:?}", p.name);
        }
    }
}
