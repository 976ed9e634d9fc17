//! Table 1: the security matrix — every attack variant evaluated under
//! every mitigation, with gadget-flavour analysis deriving full (●),
//! partial (◑) or no (○) mitigation.

use sas_analyze::{analyze, xval};
use sas_attacks::{all_attacks, security_matrix, GadgetFlavor};
use sas_bench::{jsonl, print_table2_banner};
use specasan::{Mitigation, SimConfig};
use std::collections::HashMap;

fn main() {
    print_table2_banner("Table 1: mitigation matrix");
    let cfg = SimConfig::table2();
    let columns = [
        Mitigation::Stt,
        Mitigation::GhostMinion,
        Mitigation::SpecCfi,
        Mitigation::SpecAsan,
        Mitigation::SpecAsanCfi,
    ];
    // Static cross-check: does sas-analyze flag the PoC's gadget offline?
    let acfg = xval::victim_config();
    let static_flagged: HashMap<&'static str, bool> = all_attacks()
        .iter()
        .map(|a| {
            let program = a.program(&cfg, GadgetFlavor::TagViolating);
            (a.name(), analyze(&program, &acfg).gadget_count() > 0)
        })
        .collect();
    let m = security_matrix(&cfg, &columns);
    println!("{}", m.render());
    for cell in &m.cells {
        let ms = cell.mitigation.to_string();
        let rating = format!("{:?}", cell.rating);
        jsonl::emit(
            "table1",
            &[
                ("attack", cell.attack.into()),
                ("mitigation", ms.as_str().into()),
                ("rating", rating.as_str().into()),
                ("detected", cell.detected.into()),
                ("static_flagged", static_flagged.get(cell.attack).copied().unwrap_or(false).into()),
            ],
        );
    }
    println!("● full mitigation   ◑ partial (tag-matching redirected gadgets)   ○ no mitigation");
    println!();
    println!(
        "Paper (Table 1): STT and GhostMinion cover all Spectre variants but fail MDS \
         and SCC; SpecASan alone is partial on control-flow redirection (BTB/RSB/BHB, \
         SMoTHER); SpecASan+CFI covers every variant."
    );
}
