//! Table 3: hardware area / static power / dynamic energy overheads of ARM
//! MTE, SpecASan and SpecASan+CFI (CACTI-style model at 22 nm).

use sas_bench::jsonl;
use sas_hwcost::{render_table3, table3, TechNode};

fn main() {
    println!("== Table 3: hardware cost and complexity (22 nm) ==");
    println!();
    let t3 = table3(&TechNode::n22());
    println!("{}", render_table3(&t3));
    for row in &t3.rows {
        for (design, value) in ["arm_mte", "specasan", "specasan_cfi"].iter().zip(row.values) {
            jsonl::emit(
                "table3",
                &[
                    ("component", row.component.into()),
                    ("metric", row.metric.into()),
                    ("design", (*design).into()),
                    ("overhead_pct", value.into()),
                ],
            );
        }
    }
    println!(
        "Paper (Table 3): L1D +3.84%/3.31%/0.74% (MTE); LFB +3.72%/3.11%/0.68% and \
         ROB/LSQ/MSHR +0.92%/0.88%/0.81% (SpecASan); CFI +0.10%/0.34%/0.41%; total \
         core area +0.17% (MTE), +0.28% (SpecASan), +0.38% (+CFI)."
    );
}
