//! `sas-fuzz` — differential gadget-synthesis fuzzing CLI.
//!
//! ```text
//! sas-fuzz campaign [--seed S] [--cases N] [--shrink-budget N]
//!                   [--bench FILE] [--dump-dir DIR]
//! sas-fuzz replay [DIR]
//! sas-fuzz one --seed S [--sasm]
//! sas-fuzz validate FILE
//! ```
//!
//! Exit status: `0` clean, `1` unexplained disagreement / replay
//! regression / invalid bench file, `2` usage errors.

use sas_fuzz::campaign::{self, fuzz_config, run_case, Campaign};
use sas_fuzz::{corpus_dir, replay_dir};
use specasan::SimConfig;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: sas-fuzz campaign [--seed S] [--cases N] [--shrink-budget N]
                         [--bench FILE] [--dump-dir DIR]
       sas-fuzz replay [DIR]
       sas-fuzz one --seed S [--sasm]
       sas-fuzz validate FILE

  campaign          run a seeded differential campaign: synthesize N gadget
                    programs, compare sas-analyze against the dynamic leak
                    oracle, ddmin-shrink every unexplained disagreement
    --seed S        campaign seed (default 0xC0FFEE; hex with 0x or decimal)
    --cases N       number of cases (default 500)
    --shrink-budget N  ddmin probes per disagreement (default 400)
    --bench FILE    write the BENCH_lint.json throughput/tally artifact
    --dump-dir DIR  write minimized counterexamples as .sasm files
  replay [DIR]      re-run every corpus counterexample (default: the
                    checked-in crates/fuzz/corpus/) against both halves
  one --seed S      regenerate and run a single case from its case seed
    --sasm          also print the generated program as .sasm
  validate FILE     check a BENCH_lint.json for schema/key completeness
";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("sas-fuzz: {msg}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let r = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    r.map_err(|_| format!("bad number '{s}'"))
}

/// The value of `flag` as an exact `u32`: a hex or decimal number that
/// fits, never one narrowed into range.
fn flag_u32(flag: &str, value: Option<&String>) -> Result<u32, String> {
    let s = value.ok_or_else(|| format!("{flag} needs a value"))?;
    parse_u64(s)
        .ok()
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| format!("{flag} must be an integer in 0..={}, got '{s}'", u32::MAX))
}

fn cmd_campaign(args: &[String]) -> Result<ExitCode, String> {
    let mut c = Campaign::default();
    let mut bench: Option<PathBuf> = None;
    let mut dump_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => c.seed = parse_u64(it.next().ok_or("--seed needs a value")?)?,
            "--cases" => c.cases = flag_u32(a, it.next())?,
            "--shrink-budget" => c.shrink_budget = flag_u32(a, it.next())?,
            "--bench" => {
                bench = Some(PathBuf::from(it.next().ok_or("--bench needs a file")?));
            }
            "--dump-dir" => {
                dump_dir = Some(PathBuf::from(it.next().ok_or("--dump-dir needs a dir")?));
            }
            other => return Err(format!("unknown campaign flag '{other}'")),
        }
    }
    let report = campaign::run_campaign(&c);
    print!("{}", report.render_text());
    if let Some(path) = &bench {
        std::fs::write(path, report.bench_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    if let Some(dir) = &dump_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        for d in &report.disagreements {
            let name = format!(
                "{}-{}-{:016x}.sasm",
                d.case.classification.token().to_ascii_lowercase(),
                d.case.scenario.kind.token(),
                d.case.case_seed,
            );
            let path = dir.join(name);
            let case = d.to_corpus_case("harvested by sas-fuzz campaign");
            std::fs::write(&path, case.render())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("wrote {}", path.display());
        }
    }
    if report.tally.unexplained() > 0 {
        eprintln!(
            "sas-fuzz: {} unexplained disagreement(s); replay with the seeds above \
             (or SAS_PTEST_SEED={:#x} for property tests)",
            report.tally.unexplained(),
            c.seed,
        );
        Ok(ExitCode::from(1))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_replay(args: &[String]) -> Result<ExitCode, String> {
    let dir = match args {
        [] => corpus_dir(),
        [d] => PathBuf::from(d),
        _ => return Err("replay takes at most one directory".into()),
    };
    let failures = replay_dir(&dir, &SimConfig::table2())?;
    let total = sas_fuzz::corpus::load_dir(&dir)?.len();
    if failures.is_empty() {
        println!(
            "sas-fuzz: replayed {total} corpus case(s) from {}: all green",
            dir.display()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        for (path, err) in &failures {
            eprintln!("sas-fuzz: {}: {err}", path.display());
        }
        eprintln!(
            "sas-fuzz: {}/{total} corpus case(s) regressed",
            failures.len()
        );
        Ok(ExitCode::from(1))
    }
}

fn cmd_one(args: &[String]) -> Result<ExitCode, String> {
    let mut seed = None;
    let mut sasm = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = Some(parse_u64(it.next().ok_or("--seed needs a value")?)?),
            "--sasm" => sasm = true,
            other => return Err(format!("unknown 'one' flag '{other}'")),
        }
    }
    let seed = seed.ok_or("'one' needs --seed (the case seed a campaign printed)")?;
    let r = run_case(&SimConfig::table2(), &fuzz_config(), 0, seed);
    println!(
        "case seed {:#x}: shape={} intent={}",
        seed,
        r.scenario.kind.token(),
        r.scenario.intent.token(),
    );
    println!(
        "  static : {} gadget(s){}",
        r.statics.gadgets,
        if r.statics.cache_transmit {
            " (cache transmitter)"
        } else {
            ""
        },
    );
    println!(
        "  dynamic: {} (squashes={} tag-faults={} arch-faults={} cycles={})",
        if r.dynamics.leaked { "LEAK" } else { "clean" },
        r.dynamics.squash_events,
        r.dynamics.tag_faults,
        r.dynamics.arch_faults,
        r.dynamics.cycles,
    );
    println!("  verdict: {}", r.classification.token());
    if sasm {
        print!("{}", r.scenario.program.to_sasm());
    }
    Ok(ExitCode::from(u8::from(r.classification.unexplained())))
}

fn cmd_validate(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        return Err("validate takes exactly one file".into());
    };
    let body = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    match campaign::validate_bench(&body) {
        Ok(()) => {
            println!("sas-fuzz: {path}: valid {}", campaign::BENCH_SCHEMA);
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("sas-fuzz: {path}: {e}");
            Ok(ExitCode::from(1))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        None => Err("missing subcommand".to_string()),
        Some((cmd, rest)) => match cmd.as_str() {
            "campaign" => cmd_campaign(rest),
            "replay" => cmd_replay(rest),
            "one" => cmd_one(rest),
            "validate" => cmd_validate(rest),
            "--help" | "-h" | "help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown subcommand '{other}'")),
        },
    };
    match result {
        Ok(code) => code,
        Err(msg) => usage_error(&msg),
    }
}
