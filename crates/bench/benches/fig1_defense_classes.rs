//! Figure 1: where each defense class stops the Spectre-v1 gadget —
//! ACCESS / USE / TRANSMIT timelines, reconstructed from simulator runs of
//! the Listing 1 PoC under each mitigation class.

use sas_attacks::{spectre::SpectreV1, GadgetFlavor, TransientAttack};
use sas_bench::{jsonl, print_table2_banner};
use specasan::{Mitigation, SimConfig};

fn main() {
    print_table2_banner("Figure 1: defense classes on the Spectre-v1 gadget");
    let cfg = SimConfig::table2();
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>10} {:>9}",
        "Defense class", "ACCESS", "USE", "TRANSMIT", "leaked", "cycles"
    );
    let rows: [(&str, Mitigation); 5] = [
        ("No defense", Mitigation::Unsafe),
        ("Delay ACCESS (fence)", Mitigation::Fence),
        ("Delay USE (STT)", Mitigation::Stt),
        ("Delay TRANSMIT (GM)", Mitigation::GhostMinion),
        ("SpecASan (selective)", Mitigation::SpecAsan),
    ];
    for (label, m) in rows {
        let out = SpectreV1.run(&cfg, m, GadgetFlavor::TagViolating);
        // Which stages ran transiently is determined by the mechanism:
        let (access, used, transmit) = match m {
            Mitigation::Unsafe => ("runs", "runs", "runs"),
            Mitigation::Fence => ("delayed", "-", "-"),
            Mitigation::Stt => ("runs", "runs", "delayed"),
            Mitigation::GhostMinion => ("runs", "runs", "hidden"),
            Mitigation::SpecAsan => ("delayed*", "-", "-"),
            _ => unreachable!(),
        };
        println!(
            "{label:<22} {access:>8} {used:>8} {transmit:>8} {:>10} {:>9}",
            out.leaked, out.cycles
        );
        let ms = m.to_string();
        jsonl::emit(
            "fig1",
            &[
                ("defense", label.into()),
                ("mitigation", ms.as_str().into()),
                ("leaked", out.leaked.into()),
                ("cycles", out.cycles.into()),
            ],
        );
    }
    println!();
    println!(
        "* SpecASan delays only the *tag-mismatching* ACCESS — safe, untagged and \
         independent accesses proceed at full speed, which is why its cost stays \
         near zero (Figure 1's bottom row)."
    );
}
