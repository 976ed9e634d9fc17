//! Runs one SPEC-style workload under every mitigation and prints the
//! performance/security trade-off in a single table — a miniature of the
//! paper's whole evaluation.
//!
//! ```sh
//! cargo run --release --example defense_comparison [benchmark]
//! ```

use sas_attacks::{security_matrix, MitigationRating};
use sas_workloads::{build_workload, spec_suite};
use specasan::{build_system, Mitigation, SimConfig};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "520.omnetpp_r".into());
    let suite = spec_suite();
    let profile = suite
        .iter()
        .find(|p| p.name == which)
        .unwrap_or_else(|| panic!("unknown benchmark {which}; try one of {:?}",
            suite.iter().map(|p| p.name).collect::<Vec<_>>()));

    let cfg = SimConfig::table2();
    println!("workload: {} (footprint {} KiB)", profile.name, profile.footprint / 1024);
    println!();

    // Security column: how many of the 11 attack variants each defense
    // fully mitigates (from the Table 1 machinery).
    println!("(evaluating the 11-attack security matrix; ~a minute on a laptop)");
    let matrix = security_matrix(&cfg, &Mitigation::all()[2..]);

    let mut base_cycles = None;
    println!();
    println!(
        "{:<22} {:>10} {:>12} {:>10} {:>22}",
        "mitigation", "cycles", "normalized", "IPC", "attacks fully blocked"
    );
    for m in Mitigation::all() {
        let w = build_workload(profile, 120, 7, 0);
        let mut sys = build_system(&cfg, w.program.clone(), m);
        w.setup.apply(&mut sys);
        let r = sys.run(1_000_000_000);
        let cycles = r.cycles;
        let base = *base_cycles.get_or_insert(cycles) as f64;
        let blocked = matrix
            .cells
            .iter()
            .filter(|c| c.mitigation == m && c.rating == MitigationRating::Full)
            .count();
        let blocked = if matches!(m, Mitigation::Unsafe | Mitigation::MteOnly) {
            "0 / 11".to_owned()
        } else {
            format!("{blocked} / 11")
        };
        println!(
            "{:<22} {:>10} {:>12.3} {:>10.2} {:>22}",
            m.to_string(),
            cycles,
            cycles as f64 / base,
            r.core_stats[0].ipc(),
            blocked
        );
    }
    println!();
    println!("The paper's claim in one table: SpecASan+CFI blocks everything at a");
    println!("fraction of the cost of barriers, and SpecASan alone matches");
    println!("GhostMinion's performance while additionally covering MDS.");
}
