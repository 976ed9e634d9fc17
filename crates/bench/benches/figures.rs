//! Figures 6–9 from one set of runs.
//!
//! * Figure 6: SPEC CPU2017 normalized execution time under Speculative
//!   Barriers, STT, GhostMinion and SpecASan (unsafe baseline = 1.0).
//! * Figure 7: the same on PARSEC (4 cores, shared L2).
//! * Figure 8: percentage of restricted speculative instructions under
//!   Speculative Barriers, STT and SpecASan — SPEC (top) and PARSEC (bottom).
//! * Figure 9: SPEC normalized execution time for SpecCFI, SpecASan and the
//!   combined SpecASan+CFI design.
//!
//! Every distinct (benchmark, mitigation) cell is simulated once — one SPEC
//! grid and one PARSEC grid over the union of the figures' columns — and the
//! four figures are rendered from those results.

use sas_bench::{
    bench_iterations, cpi_json, geomean, jsonl, print_table2_banner, render_bar_chart,
    render_header, render_row, restricted_metric, run_grid, run_parsec, run_spec, Cell,
};
use sas_workloads::{parsec_suite, spec_suite, Profile};
use specasan::Mitigation;
use std::collections::HashMap;

/// One suite's results, keyed by (benchmark, mitigation).
type Results = HashMap<(&'static str, Mitigation), Cell>;

/// Simulates every (benchmark, column) cell of `suite` once.
fn simulate(
    suite: &[Profile],
    columns: &[Mitigation],
    run: impl Fn(&Profile, Mitigation) -> Cell + Sync,
) -> Results {
    let keys: Vec<(&Profile, Mitigation)> =
        suite.iter().flat_map(|p| columns.iter().map(move |&m| (p, m))).collect();
    let cells = run_grid(&keys, |&(p, m)| run(p, m));
    keys.iter().map(|&(p, m)| (p.name, m)).zip(cells).collect()
}

/// Renders one normalized-execution-time figure (Figs. 6, 7 and 9).
fn normalized_figure(
    bench: &str,
    title: &str,
    suite: &[Profile],
    results: &Results,
    columns: &[Mitigation],
    chart: bool,
    paper: &str,
) {
    print_table2_banner(title);
    println!("{}", render_header("Benchmark", columns));
    let mut per_col: Vec<Vec<f64>> = vec![Vec::new(); columns.len()];
    for p in suite {
        let base = &results[&(p.name, Mitigation::Unsafe)];
        let mut norms = Vec::new();
        for (i, &m) in columns.iter().enumerate() {
            let c = &results[&(p.name, m)];
            let norm = c.cycles as f64 / base.cycles as f64;
            per_col[i].push(norm);
            norms.push(norm);
            let ms = m.to_string();
            let cpi = cpi_json(c);
            jsonl::emit(
                bench,
                &[
                    ("benchmark", p.name.into()),
                    ("mitigation", ms.as_str().into()),
                    ("cycles", c.cycles.into()),
                    ("norm", norm.into()),
                    ("restored", c.restored.into()),
                    ("cpi", jsonl::Value::Raw(&cpi)),
                ],
            );
        }
        println!("{}", render_row(p.name, &norms));
    }
    let means: Vec<f64> = per_col.iter().map(|v| geomean(v)).collect();
    for (m, g) in columns.iter().zip(&means) {
        let ms = m.to_string();
        jsonl::emit(
            bench,
            &[
                ("benchmark", "geomean".into()),
                ("mitigation", ms.as_str().into()),
                ("norm", (*g).into()),
            ],
        );
    }
    println!("{}", render_row("geomean", &means));
    println!();
    if chart {
        let bars: Vec<(String, f64)> =
            columns.iter().zip(&means).map(|(m, v)| (m.to_string(), *v)).collect();
        println!("{}", render_bar_chart(&bars, 48));
    }
    println!("{paper}");
}

/// Renders one suite's half of Figure 8.
fn restricted_share(heading: &str, tag: &str, suite: &[Profile], results: &Results) {
    let columns = [Mitigation::Fence, Mitigation::Stt, Mitigation::SpecAsan];
    println!("--- {heading} ---");
    println!("{}", render_header("Benchmark", &columns));
    let mut sums = [0.0f64; 3];
    for p in suite {
        let mut pcts = Vec::new();
        for (i, &m) in columns.iter().enumerate() {
            let c = &results[&(p.name, m)];
            let r = restricted_metric(c, m);
            pcts.push(100.0 * r);
            sums[i] += r;
            let ms = m.to_string();
            let cpi = cpi_json(c);
            jsonl::emit(
                "fig8",
                &[
                    ("suite", tag.into()),
                    ("benchmark", p.name.into()),
                    ("mitigation", ms.as_str().into()),
                    ("restricted_pct", (100.0 * r).into()),
                    ("cpi", jsonl::Value::Raw(&cpi)),
                ],
            );
        }
        println!("{}", render_row(p.name, &pcts));
    }
    let n = suite.len() as f64;
    println!("{}", render_row("average", &sums.map(|s| 100.0 * s / n)));
}

fn main() {
    let iters = bench_iterations();
    let fig6 = Mitigation::figure6_set();
    let fig9 = Mitigation::figure9_set();
    let mut spec_columns = vec![Mitigation::Unsafe];
    spec_columns.extend(fig6);
    spec_columns.extend(fig9.iter().filter(|m| !fig6.contains(m)));
    let (spec, parsec) = (spec_suite(), parsec_suite());
    let spec_runs = simulate(&spec, &spec_columns, |p, m| run_spec(p, m, iters));
    let mut parsec_columns = vec![Mitigation::Unsafe];
    parsec_columns.extend(fig6);
    let parsec_runs = simulate(&parsec, &parsec_columns, |p, m| run_parsec(p, m, iters / 2 + 1));

    normalized_figure(
        "fig6",
        "Figure 6: SPEC CPU2017 normalized execution time",
        &spec,
        &spec_runs,
        &fig6,
        true,
        "Paper (Fig. 6): Barriers are the tall clipped bars (2.4-10x), STT is \
         substantially above GhostMinion/SpecASan, and GhostMinion ≈ SpecASan ≈ 1.0x \
         (SpecASan geomean overhead 1.8%).",
    );
    normalized_figure(
        "fig7",
        "Figure 7: PARSEC (4-core) normalized execution time",
        &parsec,
        &parsec_runs,
        &fig6,
        true,
        "Paper (Fig. 7): SpecASan multi-threaded overhead 2.5% geomean; most of the \
         overhead is the baseline ARM MTE tagging traffic, not SpecASan itself.",
    );

    print_table2_banner("Figure 8: % restricted speculative instructions");
    restricted_share("SPEC CPU2017", "spec", &spec, &spec_runs);
    println!();
    restricted_share("PARSEC (4-core)", "parsec", &parsec, &parsec_runs);
    println!();
    println!(
        "Paper (Fig. 8): barriers restrict 39.12% (SPEC) / 51.75% (PARSEC) of \
         instructions, STT 17.59% / 21.07%, SpecASan only 0.76% / 0.81%.\n\
         (STT here counts instructions *classified* as tainted, matching the\n\
         paper's accounting; barriers/SpecASan count instructions that waited.)"
    );

    normalized_figure(
        "fig9",
        "Figure 9: SpecCFI / SpecASan / SpecASan+CFI",
        &spec,
        &spec_runs,
        &fig9,
        false,
        "Paper (Fig. 9): geomean overheads 2.6% (SpecCFI), 1.9% (SpecASan), 4% (combined).",
    );
}
