//! Figure 7: normalized execution time on PARSEC (4 cores, shared L2).

use sas_bench::{
    bench_iterations, geomean, jsonl, print_table2_banner, render_header, render_row, run_parsec,
};
use sas_workloads::parsec_suite;
use specasan::Mitigation;

fn main() {
    print_table2_banner("Figure 7: PARSEC (4-core) normalized execution time");
    let columns = Mitigation::figure6_set();
    println!("{}", render_header("Benchmark", &columns));
    let iters = bench_iterations() / 2 + 1;
    let mut per_col: Vec<Vec<f64>> = vec![Vec::new(); columns.len()];
    for p in parsec_suite() {
        let base = run_parsec(&p, Mitigation::Unsafe, iters);
        let mut row = Vec::new();
        for (i, &m) in columns.iter().enumerate() {
            let c = run_parsec(&p, m, iters);
            let norm = c.cycles as f64 / base.cycles as f64;
            per_col[i].push(norm);
            row.push(norm);
            let ms = m.to_string();
            let cpi = sas_bench::cpi_json(&c);
            jsonl::emit(
                "fig7",
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
            "fig7",
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
        "Paper (Fig. 7): SpecASan multi-threaded overhead 2.5% geomean; most of the \
         overhead is the baseline ARM MTE tagging traffic, not SpecASan itself."
    );
}
