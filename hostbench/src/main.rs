//! `sas-hostbench` — the host-time benchmark of the SpecASan reproduction.
//!
//! ```text
//! sas-hostbench run --workload W --seed N --trace 0|1
//!                   --bin-dir DIR --state-dir DIR [--out FILE]
//! sas-hostbench summary FILE...
//! sas-hostbench compare A_DIR B_DIR
//! sas-hostbench workloads
//! ```
//!
//! `run` measures one workload for [`RUN_SECONDS`] and prints `metric
//! workload value unit` lines, then, as the last line of stdout, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. It exits 0
//! when every op succeeded and every correctness check held, and 1
//! otherwise. `summary` folds the results files of several runs into one
//! such line. `hostbench/run.sh` builds everything and is the command to
//! use; see `hostbench/README.md`.

mod common;
mod compare;
mod metrics;
mod parsec;
mod proc;
mod query;
mod report;
mod serve;
mod snapshot;
mod spec_grid;
mod stats;
mod trace;

use common::Ctx;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 5] = [
    "spec-grid",
    "parsec-campaign",
    "serve-rpc",
    "snapshot",
    "query",
];

/// How long one run measures, seconds. The same on every commit, so that
/// runs of two commits do the same work; `run_seconds` in
/// `BENCHMARK.json` and `run_seconds` in `run.sh` match it.
pub const RUN_SECONDS: f64 = 12.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: sas-hostbench run --workload W --seed N --trace 0|1 \
         --bin-dir DIR --state-dir DIR [--out FILE]\n       \
         sas-hostbench summary FILE...\n       \
         sas-hostbench compare A_DIR B_DIR\n       sas-hostbench workloads"
    );
    ExitCode::from(2)
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn run(args: &[String]) -> Result<bool, String> {
    let workload = flag(args, "--workload")?;
    let seed = flag(args, "--seed")?
        .parse()
        .map_err(|_| "--seed: want an unsigned integer")?;
    let trace = match flag(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: want 0 or 1, got {other:?}")),
    };
    let ctx = Ctx {
        seed,
        // A traced run measures twice, untraced then traced, in the time
        // an untraced run measures once.
        seconds: if trace {
            RUN_SECONDS / 2.0
        } else {
            RUN_SECONDS
        },
        bins: PathBuf::from(flag(args, "--bin-dir")?),
        state: PathBuf::from(flag(args, "--state-dir")?),
    };
    std::fs::create_dir_all(&ctx.state).map_err(|e| format!("{}: {e}", ctx.state.display()))?;
    let mut outcome = match workload {
        "spec-grid" => spec_grid::run(&ctx, trace),
        "parsec-campaign" => parsec::run(&ctx, trace),
        "serve-rpc" => serve::run(&ctx, trace),
        "snapshot" => snapshot::run(&ctx, trace),
        "query" => query::run(&ctx, trace),
        other => {
            return Err(format!(
                "unknown workload {other:?} (see `sas-hostbench workloads`)"
            ))
        }
    }?;
    outcome.complete();
    if let Ok(out) = flag(args, "--out") {
        std::fs::write(out, outcome.record()).map_err(|e| format!("{out}: {e}"))?;
    }
    print!("{}", outcome.text());
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => match run(&args[1..]) {
            Ok(true) => Ok(()),
            Ok(false) => Err("a correctness check failed (see the problem lines)".into()),
            Err(e) => Err(e),
        },
        Some("summary") if args.len() > 1 => {
            let (line, correct) = report::summary(&args[1..]);
            println!("{line}");
            return if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        Some("compare") if args.len() == 3 => {
            match compare::report(args[1].as_ref(), args[2].as_ref()) {
                Ok((table, regressed)) => {
                    print!("{table}");
                    return if regressed {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    };
                }
                Err(e) => Err(e),
            }
        }
        Some("workloads") => {
            WORKLOADS.iter().for_each(|w| println!("{w}"));
            Ok(())
        }
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sas-hostbench: {e}");
            ExitCode::FAILURE
        }
    }
}
