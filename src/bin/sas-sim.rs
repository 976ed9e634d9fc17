//! `sas-sim` — command-line front end for the SpecASan simulator.
//!
//! ```text
//! sas-sim list
//! sas-sim attack "RIDL" --mitigation specasan [--matching]
//! sas-sim workload 505.mcf_r --mitigation stt --iters 200 [--fault-plan SPEC]
//! sas-sim matrix
//! sas-sim hwcost
//! ```

use sas_attacks::{all_attacks, bonus_attacks, security_matrix, GadgetFlavor};
use sas_pipeline::{FaultPlan, RunExit};
use sas_workloads::{build_workload, parse_iterations, parsec_suite, spec_suite};
use specasan::{build_system, Mitigation, SimConfig};
use std::process::ExitCode;

fn parse_mitigation(s: &str) -> Option<Mitigation> {
    Mitigation::parse(s)
}

fn usage() -> ExitCode {
    eprintln!(
        "sas-sim — the SpecASan simulator

USAGE:
  sas-sim list                                  list attacks, workloads, mitigations
  sas-sim attack <name> [--mitigation M] [--matching]
                                                run an attack PoC (default: unsafe baseline)
  sas-sim workload <name> [--mitigation M] [--iters N] [--fault-plan SPEC]
                                                run a synthetic benchmark and print stats;
                                                SPEC arms a fault plan (`sas-runner cell`
                                                syntax, e.g. \"seed=42 mshr_drop_fill=5,4\")
  sas-sim matrix                                evaluate the full Table 1 security matrix
  sas-sim hwcost                                print the Table 3 hardware cost model
"
    );
    ExitCode::from(2)
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn cmd_list() -> ExitCode {
    println!("attacks:");
    for a in all_attacks().into_iter().chain(bonus_attacks()) {
        println!(
            "  {:<22} [{:?}]{}",
            a.name(),
            a.class(),
            if a.has_matching_flavor() { "  (has tag-matching flavour)" } else { "" }
        );
    }
    println!("\nworkloads (SPEC CPU2017):");
    for p in spec_suite() {
        println!("  {}", p.name);
    }
    println!("\nworkloads (PARSEC, 4-core):");
    for p in parsec_suite() {
        println!("  {}", p.name);
    }
    println!("\nmitigations: unsafe, mte, fence, stt, ghostminion, specasan, speccfi, specasan+cfi");
    ExitCode::SUCCESS
}

fn cmd_attack(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else { return usage() };
    let m = match flag_value(args, "--mitigation") {
        Some(s) => match parse_mitigation(&s) {
            Some(m) => m,
            None => {
                eprintln!("unknown mitigation {s:?}");
                return ExitCode::from(2);
            }
        },
        None => Mitigation::Unsafe,
    };
    let flavor = if args.iter().any(|a| a == "--matching") {
        GadgetFlavor::TagMatching
    } else {
        GadgetFlavor::TagViolating
    };
    let attack = all_attacks()
        .into_iter()
        .chain(bonus_attacks())
        .find(|a| a.name().eq_ignore_ascii_case(name) || a.name().to_ascii_lowercase().starts_with(&name.to_ascii_lowercase()));
    let Some(attack) = attack else {
        eprintln!("unknown attack {name:?}; see `sas-sim list`");
        return ExitCode::from(2);
    };
    if flavor == GadgetFlavor::TagMatching && !attack.has_matching_flavor() {
        eprintln!("{} has no tag-matching flavour", attack.name());
        return ExitCode::from(2);
    }
    let out = attack.run(&SimConfig::table2(), m, flavor);
    println!("attack     : {} ({flavor:?})", attack.name());
    println!("mitigation : {m}");
    println!("leaked     : {}", out.leaked);
    println!("detected   : {}", out.detected);
    println!("exit       : {:?}", out.exit);
    println!("cycles     : {}", out.cycles);
    ExitCode::SUCCESS
}

fn cmd_workload(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else { return usage() };
    let m = flag_value(args, "--mitigation")
        .and_then(|s| parse_mitigation(&s))
        .unwrap_or(Mitigation::SpecAsan);
    let iters = match flag_value(args, "--iters").map(|s| parse_iterations(&s)).transpose() {
        Ok(i) => i.unwrap_or(150),
        Err(e) => {
            eprintln!("--iters: {e}");
            return ExitCode::from(2);
        }
    };
    // A `--fault-plan` with its SPEC left out is refused, not run clean.
    let plan = match args.iter().position(|a| a == "--fault-plan") {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(spec) => FaultPlan::from_spec(spec).map(Some),
            None => Err("missing SPEC".to_string()),
        },
    };
    let plan = match plan {
        Ok(p) => p,
        Err(e) => {
            eprintln!("--fault-plan: {e}");
            return ExitCode::from(2);
        }
    };
    let suite = spec_suite();
    let Some(profile) = suite.iter().find(|p| p.name.eq_ignore_ascii_case(name)) else {
        eprintln!("unknown workload {name:?}; see `sas-sim list` (PARSEC runs via `cargo bench`)");
        return ExitCode::from(2);
    };
    let w = build_workload(profile, iters, 0x5A5_CA5A, 0);
    let mut sys = build_system(&SimConfig::table2(), w.program, m);
    if let Some(plan) = &plan {
        sys.arm_faults(plan);
    }
    w.setup.apply(&mut sys);
    let r = sys.run(2_000_000_000);
    let s = &r.core_stats[0];
    println!("workload    : {} ({iters} iterations)", profile.name);
    println!("mitigation  : {m}");
    println!("exit        : {}", match &r.exit {
        RunExit::Halted => "Halted".to_string(),
        RunExit::Deadlock(_) => "Deadlock (crash dump below)".to_string(),
        RunExit::Divergence(d) => format!("Divergence\n{d}"),
        other => format!("{other:?}"),
    });
    println!("cycles      : {}", r.cycles);
    println!("instructions: {}", s.committed);
    println!("IPC         : {:.3}", s.ipc());
    println!("restricted  : {:.2}%", 100.0 * s.restricted_fraction());
    println!("mispredicts : {}/{}", s.predictor.cond_mispredicts, s.predictor.cond_predictions);
    println!("L1D hit rate: {:.1}%", 100.0 * r.mem_stats.l1d[0].hit_rate());
    if let Some(d) = &r.dump {
        println!("{d}");
    }
    ExitCode::SUCCESS
}

fn cmd_matrix() -> ExitCode {
    let columns = [
        Mitigation::Stt,
        Mitigation::GhostMinion,
        Mitigation::SpecCfi,
        Mitigation::SpecAsan,
        Mitigation::SpecAsanCfi,
    ];
    println!("{}", security_matrix(&SimConfig::table2(), &columns).render());
    ExitCode::SUCCESS
}

fn cmd_hwcost() -> ExitCode {
    println!(
        "{}",
        sas_hwcost::render_table3(&sas_hwcost::table3(&sas_hwcost::TechNode::n22()))
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("attack") => cmd_attack(&args[1..]),
        Some("workload") => cmd_workload(&args[1..]),
        Some("matrix") => cmd_matrix(),
        Some("hwcost") => cmd_hwcost(),
        _ => usage(),
    }
}
