//! Figure 8: percentage of restricted speculative instructions under
//! Speculative Barriers, STT and SpecASan — SPEC (top) and PARSEC (bottom).

use sas_bench::{
    bench_iterations, jsonl, print_table2_banner, render_header, render_row, restricted_metric,
    run_parsec, run_spec,
};
use sas_workloads::{parsec_suite, spec_suite};
use specasan::Mitigation;

fn main() {
    print_table2_banner("Figure 8: % restricted speculative instructions");
    let columns = [Mitigation::Fence, Mitigation::Stt, Mitigation::SpecAsan];
    let iters = bench_iterations();

    println!("--- SPEC CPU2017 ---");
    println!("{}", render_header("Benchmark", &columns));
    let mut sums = [0.0f64; 3];
    for p in spec_suite() {
        let mut row = Vec::new();
        for (i, &m) in columns.iter().enumerate() {
            let c = run_spec(&p, m, iters);
            let r = restricted_metric(&c, m);
            row.push(100.0 * r);
            sums[i] += r;
            let ms = m.to_string();
            let cpi = sas_bench::cpi_json(&c);
            jsonl::emit(
                "fig8",
                &[
                    ("suite", "spec".into()),
                    ("benchmark", p.name.into()),
                    ("mitigation", ms.as_str().into()),
                    ("restricted_pct", (100.0 * r).into()),
                    ("cpi", jsonl::Value::Raw(&cpi)),
                ],
            );
        }
        println!("{}", render_row(p.name, &row));
    }
    let n = spec_suite().len() as f64;
    println!("{}", render_row("average", &[100.0 * sums[0] / n, 100.0 * sums[1] / n, 100.0 * sums[2] / n]));

    println!();
    println!("--- PARSEC (4-core) ---");
    println!("{}", render_header("Benchmark", &columns));
    let iters = iters / 2 + 1;
    let mut sums = [0.0f64; 3];
    for p in parsec_suite() {
        let mut row = Vec::new();
        for (i, &m) in columns.iter().enumerate() {
            let c = run_parsec(&p, m, iters);
            let r = restricted_metric(&c, m);
            row.push(100.0 * r);
            sums[i] += r;
            let ms = m.to_string();
            let cpi = sas_bench::cpi_json(&c);
            jsonl::emit(
                "fig8",
                &[
                    ("suite", "parsec".into()),
                    ("benchmark", p.name.into()),
                    ("mitigation", ms.as_str().into()),
                    ("restricted_pct", (100.0 * r).into()),
                    ("cpi", jsonl::Value::Raw(&cpi)),
                ],
            );
        }
        println!("{}", render_row(p.name, &row));
    }
    let n = parsec_suite().len() as f64;
    println!("{}", render_row("average", &[100.0 * sums[0] / n, 100.0 * sums[1] / n, 100.0 * sums[2] / n]));
    println!();
    println!(
        "Paper (Fig. 8): barriers restrict 39.12% (SPEC) / 51.75% (PARSEC) of \
         instructions, STT 17.59% / 21.07%, SpecASan only 0.76% / 0.81%.\n\
         (STT here counts instructions *classified* as tainted, matching the\n\
         paper's accounting; barriers/SpecASan count instructions that waited.)"
    );
}
