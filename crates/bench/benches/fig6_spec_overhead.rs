//! Figure 6: normalized execution time on SPEC CPU2017 under Speculative
//! Barriers, STT, GhostMinion and SpecASan (unsafe baseline = 1.0).

use sas_bench::{
    bench_iterations, geomean, jsonl, print_table2_banner, render_header, render_row, run_spec,
};
use sas_workloads::spec_suite;
use specasan::Mitigation;

fn main() {
    print_table2_banner("Figure 6: SPEC CPU2017 normalized execution time");
    let columns = Mitigation::figure6_set();
    println!("{}", render_header("Benchmark", &columns));
    let iters = bench_iterations();
    let mut per_col: Vec<Vec<f64>> = vec![Vec::new(); columns.len()];
    for p in spec_suite() {
        let base = run_spec(&p, Mitigation::Unsafe, iters);
        let mut row = Vec::new();
        for (i, &m) in columns.iter().enumerate() {
            let c = run_spec(&p, m, iters);
            let norm = c.cycles as f64 / base.cycles as f64;
            per_col[i].push(norm);
            row.push(norm);
            let ms = m.to_string();
            let cpi = sas_bench::cpi_json(&c);
            jsonl::emit(
                "fig6",
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
        println!("{}", render_row(p.name, &row));
    }
    let means: Vec<f64> = per_col.iter().map(|v| geomean(v)).collect();
    for (m, g) in columns.iter().zip(&means) {
        let ms = m.to_string();
        jsonl::emit(
            "fig6",
            &[("benchmark", "geomean".into()), ("mitigation", ms.as_str().into()), ("norm", (*g).into())],
        );
    }
    println!("{}", render_row("geomean", &means));
    println!();
    let chart: Vec<(String, f64)> = columns
        .iter()
        .zip(&means)
        .map(|(m, v)| (m.to_string(), *v))
        .collect();
    println!("{}", sas_bench::render_bar_chart(&chart, 48));
    println!(
        "Paper (Fig. 6): Barriers are the tall clipped bars (2.4-10x), STT is \
         substantially above GhostMinion/SpecASan, and GhostMinion ≈ SpecASan ≈ 1.0x \
         (SpecASan geomean overhead 1.8%)."
    );
}
