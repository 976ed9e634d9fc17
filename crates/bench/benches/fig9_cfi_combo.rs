//! Figure 9: SPEC normalized execution time for SpecCFI, SpecASan and the
//! combined SpecASan+CFI design.

use sas_bench::{
    bench_iterations, geomean, jsonl, print_table2_banner, render_header, render_row, run_spec,
};
use sas_workloads::spec_suite;
use specasan::Mitigation;

fn main() {
    print_table2_banner("Figure 9: SpecCFI / SpecASan / SpecASan+CFI");
    let columns = Mitigation::figure9_set();
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
                "fig9",
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
            "fig9",
            &[("benchmark", "geomean".into()), ("mitigation", ms.as_str().into()), ("norm", (*g).into())],
        );
    }
    println!("{}", render_row("geomean", &means));
    println!();
    println!("Paper (Fig. 9): geomean overheads 2.6% (SpecCFI), 1.9% (SpecASan), 4% (combined).");
}
