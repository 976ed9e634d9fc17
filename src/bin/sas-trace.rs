//! `sas-trace` — run one (target, mitigation) cell with telemetry enabled
//! and export the run for inspection.
//!
//! ```text
//! sas-trace spectre-v1 --mitigation specasan --chrome out.json
//! sas-trace 505.mcf_r --mitigation stt --konata out.log --cpi-stack
//! sas-trace spectre-v1 --metrics - --verify --golden crates/telemetry/golden_metrics.txt
//! ```
//!
//! `--chrome` output loads in `ui.perfetto.dev` (or `chrome://tracing`);
//! `--konata` output follows the Kanata 0004 pipeline-viewer format. See
//! DESIGN.md §9 and the README's "Inspecting a run" walkthrough.
//!
//! The `query` subcommand runs `sas-query` expressions over campaign
//! artifacts (runner manifests, `BENCH_*.json`, fuzz summaries, serve
//! journals — see DESIGN.md §14):
//!
//! ```text
//! sas-trace query 'where mitigation=stt and cpi.mem_bound>0 sort wall_ms desc limit 5' \
//!     --from runs/campaign/manifest.jsonl
//! ```

use sas_bench::Target;
use sas_pipeline::{DelayCause, RunExit};
use sas_telemetry::json::validate_chrome_trace;
use sas_telemetry::konata;
use sas_workloads::parse_iterations;
use specasan::Mitigation;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "sas-trace — telemetry-enabled single-cell runner and trace exporter

USAGE:
  sas-trace <target> [flags]
  sas-trace query '<expr>' --from FILE [--from FILE]... [--json] [--bench PATH]
  sas-trace list

TARGETS:
  spectre-v1                  the Listing-1 bounds-check-bypass PoC
  <SPEC or PARSEC name>       a SPEC CPU2017 profile (one core) or a PARSEC
                              profile (four cores); see `sas-trace list`

FLAGS:
  --mitigation M              unsafe|mte|fence|stt|ghostminion|specasan|speccfi|specasan+cfi
  --matching                  use the tag-matching gadget flavour (spectre-v1)
  --iters N                   workload iterations (default 50)
  --chrome FILE               write a Chrome trace_event JSON (Perfetto-loadable)
  --konata FILE               write a Konata/Kanata 0004 pipeline log
  --metrics FILE              write the metrics registry as JSONL ('-' = stdout)
  --cpi-stack                 print the commit-time CPI stack table
  --verify                    validate the exports (Chrome JSON well-formedness,
                              Konata retirement coverage, CPI-sum invariant)
  --golden FILE               diff metric keys against FILE

QUERY FLAGS:
  --from FILE                 artifact to index (repeatable: manifests,
                              BENCH_*.json, fuzz summaries, serve journals)
  --json                      emit the result table as JSON instead of text
  --bench PATH                write index/query timing as BENCH_query.json
"
    );
    ExitCode::from(2)
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Every value of a repeatable flag, in order.
fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    args.windows(2)
        .filter(|w| w[0] == flag)
        .map(|w| w[1].clone())
        .collect()
}

/// `sas-trace query '<expr>' --from FILE...` — index campaign artifacts
/// and run one query expression against them.
fn cmd_query(args: &[String]) -> Result<ExitCode, String> {
    const QUERY_USAGE: &str =
        "usage: sas-trace query '<expr>' --from FILE [--from FILE]... [--json] [--bench PATH]";
    let expr = args
        .get(1)
        .filter(|a| !a.starts_with('-'))
        .cloned()
        .ok_or(QUERY_USAGE)?;
    let files: Vec<std::path::PathBuf> =
        flag_values(args, "--from").into_iter().map(Into::into).collect();
    if files.is_empty() {
        return Err(QUERY_USAGE.into());
    }
    let t0 = std::time::Instant::now();
    let (idx, stats) = sas_query::load::index_paths(&files)?;
    let index_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = std::time::Instant::now();
    let table = sas_query::run_str(&idx, &expr)?;
    let query_ms = t1.elapsed().as_secs_f64() * 1e3;

    if has_flag(args, "--json") {
        println!("{}", table.to_json());
    } else {
        print!("{}", table.render());
    }
    eprintln!(
        "query: {} rows from {} file(s) ({} line(s) skipped); indexed in {index_ms:.2} ms, ran in {query_ms:.3} ms",
        stats.rows, stats.files, stats.skipped_lines
    );

    if let Some(path) = flag_value(args, "--bench") {
        let rows_per_sec = if index_ms > 0.0 { stats.rows as f64 / (index_ms / 1e3) } else { 0.0 };
        let doc = format!(
            "{{\n  \"schema\": \"sas-bench-query-v1\",\n  \"query\": \"{}\",\n  \"files\": {},\n  \"rows\": {},\n  \"skipped_lines\": {},\n  \"index_ms\": {index_ms:.3},\n  \"index_rows_per_sec\": {rows_per_sec:.0},\n  \"query_ms\": {query_ms:.4},\n  \"result_rows\": {}\n}}\n",
            sas_telemetry::json::escape(&expr),
            stats.files,
            stats.rows,
            stats.skipped_lines,
            table.rows.len(),
        );
        std::fs::write(&path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote query bench to {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_list() -> ExitCode {
    println!("targets:");
    for name in Target::names() {
        println!("  {name}");
    }
    println!("\nmitigations: {}", Mitigation::all().map(Mitigation::token).join(", "));
    ExitCode::SUCCESS
}

/// Verifies the golden metric-key list: every registry key must appear in
/// the golden file and vice versa.
fn verify_golden(got: &[&str], golden_path: &str) -> Result<(), String> {
    let golden = std::fs::read_to_string(golden_path)
        .map_err(|e| format!("cannot read golden file {golden_path}: {e}"))?;
    let want: Vec<&str> =
        golden.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')).collect();
    let missing: Vec<&str> = want.iter().copied().filter(|k| !got.contains(k)).collect();
    let extra: Vec<&str> = got.iter().copied().filter(|k| !want.contains(k)).collect();
    if missing.is_empty() && extra.is_empty() {
        return Ok(());
    }
    let mut msg = String::from("metric schema drift vs golden list:");
    for k in missing {
        msg.push_str(&format!("\n  missing: {k}"));
    }
    for k in extra {
        msg.push_str(&format!("\n  extra:   {k}"));
    }
    Err(msg)
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(target) = args.first().cloned() else { return Ok(usage()) };
    if target == "list" {
        return Ok(cmd_list());
    }
    if target == "query" {
        return cmd_query(&args);
    }
    if target.starts_with('-') {
        return Ok(usage());
    }
    let m = match flag_value(&args, "--mitigation") {
        Some(s) => {
            Mitigation::parse(&s).ok_or_else(|| format!("unknown mitigation {s:?}"))?
        }
        None => Mitigation::SpecAsan,
    };

    let iters = match flag_value(&args, "--iters").map(|s| parse_iterations(&s)).transpose() {
        Ok(i) => i.unwrap_or(50),
        Err(e) => {
            eprintln!("sas-trace: --iters: {e}");
            return Ok(ExitCode::from(2));
        }
    };

    let target = match Target::parse(&target)? {
        Target::SpectreV1 { .. } => Target::SpectreV1 { matching: has_flag(&args, "--matching") },
        named => named,
    };
    let mut sys = target.system(m, iters, &[]);
    sys.enable_telemetry(sas_bench::TRACE_SAMPLE_INTERVAL, sas_bench::TRACE_TIMELINE_CAP);
    let result = sys.run(20_000_000);

    let cause_names = DelayCause::ALL.map(|c| c.name());
    let cpi = result.cpi();

    // --- exports -----------------------------------------------------------
    let chrome_path = flag_value(&args, "--chrome");
    let konata_path = flag_value(&args, "--konata");
    let metrics_path = flag_value(&args, "--metrics");
    let verify = has_flag(&args, "--verify");

    let chrome_doc = (chrome_path.is_some() || verify).then(|| sys.chrome_trace());
    if let Some(path) = &chrome_path {
        let doc = chrome_doc.as_ref().expect("chrome doc built above");
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote Chrome trace to {path} (load it in ui.perfetto.dev)");
    }

    let mut konata_doc = None;
    if konata_path.is_some() || verify {
        let tl = sys.timeline(0).ok_or("telemetry timeline missing for core 0")?;
        konata_doc = Some(konata::export(tl));
    }
    if let Some(path) = &konata_path {
        let doc = konata_doc.as_ref().expect("konata doc built above");
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote Konata log to {path}");
    }

    let reg = sys.export_metrics();
    if let Some(path) = &metrics_path {
        let jsonl = reg.to_jsonl();
        if path == "-" {
            print!("{jsonl}");
        } else {
            std::fs::write(path, jsonl).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote metrics JSONL to {path}");
        }
    }

    // --- verification ------------------------------------------------------
    if verify {
        let doc = chrome_doc.as_ref().expect("built above");
        let events =
            validate_chrome_trace(doc).map_err(|e| format!("chrome trace invalid: {e}"))?;
        let log = konata_doc.as_ref().expect("built above");
        let retired = konata::retired_seqs(log);
        let tl = sys.timeline(0).expect("telemetry enabled");
        let committed: Vec<u64> =
            tl.records().iter().filter(|r| r.commit.is_some()).map(|r| r.seq).collect();
        for seq in &committed {
            if !retired.contains(seq) {
                return Err(format!("konata log is missing committed seq {seq}"));
            }
        }
        for s in &result.core_stats {
            if s.cpi.total() != s.cycles {
                return Err(format!(
                    "CPI buckets sum to {} but the core ran {} cycles",
                    s.cpi.total(),
                    s.cycles
                ));
            }
            if s.cpi.mitigation_total() != s.total_delay_cycles() {
                return Err(format!(
                    "CPI mitigation bucket {} != total delay cycles {}",
                    s.cpi.mitigation_total(),
                    s.total_delay_cycles()
                ));
            }
        }
        eprintln!(
            "verify: chrome ok ({events} events), konata covers {} committed seqs, CPI sums hold",
            committed.len()
        );
    }
    if let Some(golden) = flag_value(&args, "--golden") {
        let keys = reg.keys();
        verify_golden(&keys, &golden)?;
        eprintln!("verify: metric key schema matches {golden}");
    }

    // --- summary -----------------------------------------------------------
    println!("target     : {}", target.name());
    println!("mitigation : {m}");
    println!(
        "exit       : {}",
        match &result.exit {
            RunExit::Halted => "Halted".to_string(),
            other => format!("{other:?}"),
        }
    );
    println!("cycles     : {}", result.cycles);
    let committed: u64 = result.core_stats.iter().map(|s| s.committed).sum();
    println!("committed  : {committed}");
    if has_flag(&args, "--cpi-stack") {
        println!("\nCPI stack (cycles attributed at commit):");
        print!("{}", cpi.render_table(&cause_names));
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("sas-trace: {msg}");
            ExitCode::FAILURE
        }
    }
}
