//! Job specifications and the worker-side job runner.
//!
//! A [`JobSpec`] is the durable description of one request: parsed from
//! JSON-RPC params at admission, written to the journal, and — after a
//! crash — reparsed from the journal to re-run the job. [`run_job`] executes
//! one spec on a worker thread under a [`RunPlan`]: simulation jobs step the
//! `System` in cycle chunks through `sas-bench`'s interruptible checkpoint
//! protocol, so cancellation, deadlines and drain-parking all take effect at
//! the next chunk boundary and a parked job's `sas-snap` image resumes
//! bit-identically after a restart.

use crate::http::json_escape;
use crate::queue::Priority;
use sas_attacks::spectre::spectre_v1_program;
use sas_attacks::{layout, GadgetFlavor};
use sas_bench::checkpoint::{run_supervised_with, CheckpointPlan, Interrupt, Interrupted};
use sas_pipeline::{DelayCause, RunExit, RunResult, System};
use sas_telemetry::json::Json;
use sas_workloads::spec_suite;
use specasan::{build_system, Mitigation, SimConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// What a simulation or trace job runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// The Listing-1 bounds-check-bypass PoC.
    SpectreV1,
    /// A SPEC CPU2017 profile by name.
    Spec(String),
    /// An inline `.sasm` program.
    Sasm(String),
}

impl Target {
    fn journal_value(&self) -> (&'static str, String) {
        match self {
            Target::SpectreV1 => ("target", "\"spectre-v1\"".into()),
            Target::Spec(name) => ("target", format!("\"{}\"", json_escape(name))),
            Target::Sasm(text) => ("program", format!("\"{}\"", json_escape(text))),
        }
    }

    fn from_fields(target: Option<&str>, program: Option<&str>) -> Result<Target, String> {
        match (target, program) {
            (Some(_), Some(_)) => Err("give either \"target\" or \"program\", not both".into()),
            (None, None) => Err("missing \"target\" (name) or \"program\" (inline .sasm)".into()),
            (None, Some(text)) => Ok(Target::Sasm(text.to_string())),
            (Some(name), None) => {
                if name.eq_ignore_ascii_case("spectre-v1") {
                    Ok(Target::SpectreV1)
                } else if spec_suite().iter().any(|p| p.name.eq_ignore_ascii_case(name)) {
                    Ok(Target::Spec(name.to_string()))
                } else {
                    Err(format!("unknown target {name:?} (spectre-v1 or a SPEC profile name)"))
                }
            }
        }
    }

    /// The `(suite, benchmark)` key for warmed-baseline forking; `None` for
    /// targets that have no shared warm image.
    pub fn warm_key(&self) -> Option<(&'static str, &str)> {
        match self {
            Target::Spec(name) => Some(("spec", name)),
            _ => None,
        }
    }

    /// Human/status label.
    pub fn label(&self) -> String {
        match self {
            Target::SpectreV1 => "spectre-v1".into(),
            Target::Spec(name) => name.clone(),
            Target::Sasm(_) => "inline-sasm".into(),
        }
    }
}

/// The durable description of one request.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// Run a target under a mitigation and report cycles/CPI.
    Simulate {
        /// What to run.
        target: Target,
        /// The mitigation policy to run it under.
        mitigation: Mitigation,
        /// Workload iterations (SPEC targets).
        iters: u32,
    },
    /// Run with telemetry armed and return the CPI stack (and optionally a
    /// Chrome trace document).
    Trace {
        /// What to run.
        target: Target,
        /// The mitigation policy to run it under.
        mitigation: Mitigation,
        /// Workload iterations (SPEC targets).
        iters: u32,
        /// Include the Chrome trace_event JSON in the result.
        chrome: bool,
    },
    /// Run `sas_analyze::analyze` over an inline program.
    Lint {
        /// The `.sasm` program text.
        program: String,
        /// Include the CSDB-hardened rewrite in the result.
        suggest: bool,
    },
    /// Selftest: busy-wait that deliberately ignores cancellation, to
    /// exercise the hung-worker supervisor. `millis == 0` spins forever.
    Spin {
        /// How long to spin; 0 = forever.
        millis: u64,
    },
}

impl JobSpec {
    /// Stable kind token (journal rows, status output).
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Simulate { .. } => "simulate",
            JobSpec::Trace { .. } => "trace",
            JobSpec::Lint { .. } => "lint",
            JobSpec::Spin { .. } => "spin",
        }
    }

    /// Short status label.
    pub fn label(&self) -> String {
        match self {
            JobSpec::Simulate { target, mitigation, .. }
            | JobSpec::Trace { target, mitigation, .. } => {
                format!("{}:{}/{}", self.kind(), target.label(), mitigation.token())
            }
            JobSpec::Lint { .. } => "lint".into(),
            JobSpec::Spin { millis } => format!("spin:{millis}ms"),
        }
    }

    /// Whether this job checkpoints through `sas-snap` (long simulations
    /// without telemetry; traces re-run instead of resuming).
    pub fn wants_checkpoint(&self) -> bool {
        matches!(self, JobSpec::Simulate { .. })
    }

    /// The warm-fork key, when the job's target has one.
    pub fn warm_key(&self) -> Option<(&'static str, &str)> {
        match self {
            JobSpec::Simulate { target, .. } => target.warm_key(),
            _ => None,
        }
    }

    /// Extra journal-row fields as `(key, raw-JSON-value)` pairs.
    pub fn journal_fields(&self) -> Vec<(&'static str, String)> {
        let mut fields = vec![("kind", format!("\"{}\"", self.kind()))];
        match self {
            JobSpec::Simulate { target, mitigation, iters } => {
                fields.push(target.journal_value());
                fields.push(("mitigation", format!("\"{}\"", mitigation.token())));
                fields.push(("iters", iters.to_string()));
            }
            JobSpec::Trace { target, mitigation, iters, chrome } => {
                fields.push(target.journal_value());
                fields.push(("mitigation", format!("\"{}\"", mitigation.token())));
                fields.push(("iters", iters.to_string()));
                fields.push(("chrome", chrome.to_string()));
            }
            JobSpec::Lint { program, suggest } => {
                fields.push(("program", format!("\"{}\"", json_escape(program))));
                fields.push(("suggest", suggest.to_string()));
            }
            JobSpec::Spin { millis } => fields.push(("millis", millis.to_string())),
        }
        fields
    }

    /// Reparses a journal row's fields (inverse of
    /// [`JobSpec::journal_fields`]).
    pub fn from_journal(row: &Json) -> Option<JobSpec> {
        let kind = row.get("kind")?.as_str()?;
        let target = || {
            Target::from_fields(
                row.get("target").and_then(Json::as_str),
                row.get("program").and_then(Json::as_str),
            )
            .ok()
        };
        let mitigation = || Mitigation::parse(row.get("mitigation")?.as_str()?);
        let iters = || row.get("iters")?.as_u64().map(|n| n as u32);
        match kind {
            "simulate" => Some(JobSpec::Simulate {
                target: target()?,
                mitigation: mitigation()?,
                iters: iters()?,
            }),
            "trace" => Some(JobSpec::Trace {
                target: target()?,
                mitigation: mitigation()?,
                iters: iters()?,
                chrome: row.get("chrome")?.as_bool()?,
            }),
            "lint" => Some(JobSpec::Lint {
                program: row.get("program")?.as_str()?.to_string(),
                suggest: row.get("suggest")?.as_bool()?,
            }),
            "spin" => Some(JobSpec::Spin { millis: row.get("millis")?.as_u64()? }),
            _ => None,
        }
    }
}

/// Default workload iterations when a request leaves `iters` unset.
pub const DEFAULT_ITERS: u32 = 25;

/// Cycle budget for simulation jobs (matches the bench harnesses).
pub const SIM_BUDGET: u64 = 1_000_000_000;

/// Cycle budget for trace jobs (matches `sas-trace`).
pub const TRACE_BUDGET: u64 = 20_000_000;

/// Everything a worker needs to run one job.
#[derive(Debug, Clone, Default)]
pub struct RunPlan {
    /// This job's `sas-snap` checkpoint file (checkpointing jobs only).
    pub checkpoint: Option<PathBuf>,
    /// The shared warmed-baseline image for the job's benchmark.
    pub warm_base: Option<PathBuf>,
    /// Heartbeat file the hung-worker supervisor polls.
    pub heartbeat: Option<PathBuf>,
    /// Cycle-chunk size: checkpoint period and control-poll period.
    pub chunk: u64,
    /// Absolute deadline; crossing it aborts at the next chunk boundary.
    pub deadline: Option<Instant>,
}

/// How a job ended on the worker.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEnd {
    /// Success; `result` is the JSON-RPC result object text.
    Completed {
        /// Raw JSON object for the response.
        result: String,
    },
    /// Parked behind a checkpoint by drain — resumable after restart, not
    /// resolved in the journal.
    Parked,
    /// Failure with a stable machine-readable code.
    Failed {
        /// `deadline`, `cancelled`, `deadlock`, `parse`, …
        code: String,
        /// Human diagnostic.
        detail: String,
    },
}

fn build_sim(target: &Target, m: Mitigation, iters: u32) -> Result<System, String> {
    let cfg = SimConfig::table2();
    match target {
        Target::SpectreV1 => {
            let program = spectre_v1_program(&cfg, GadgetFlavor::TagViolating);
            let mut sys = build_system(&cfg, program, m);
            layout::install_victim(&mut sys);
            Ok(sys)
        }
        Target::Spec(name) => {
            let suite = spec_suite();
            let profile = suite
                .iter()
                .find(|p| p.name.eq_ignore_ascii_case(name))
                .ok_or_else(|| format!("unknown SPEC profile {name:?}"))?;
            Ok(sas_bench::build_spec_system(profile, m, iters))
        }
        Target::Sasm(text) => {
            let program =
                sas_isa::parse_program(text).map_err(|e| format!("program parse error: {e}"))?;
            Ok(build_system(&cfg, program, m))
        }
    }
}

fn exit_failure(run: &RunResult) -> JobEnd {
    let (code, detail) = match &run.exit {
        RunExit::CycleLimit => ("cycle-limit".to_string(), "budget exhausted".to_string()),
        RunExit::Deadlock(d) => ("deadlock".to_string(), d.to_string()),
        RunExit::Divergence(d) => ("divergence".to_string(), d.to_string()),
        RunExit::Faulted(f) => ("faulted".to_string(), format!("{f:?}")),
        RunExit::Error(e) => ("error".to_string(), e.to_string()),
        RunExit::Halted => unreachable!("halted is not a failure"),
    };
    JobEnd::Failed { code, detail }
}

/// Runs one job to an end state. Cooperative interruption: `cancel` aborts,
/// `park` checkpoints-and-stops (drain), both taking effect at the next
/// cycle-chunk boundary; the deadline in `plan` aborts the same way. Jobs
/// that refuse to yield are the hung-worker supervisor's problem, not ours.
pub fn run_job(spec: &JobSpec, plan: &RunPlan, cancel: &AtomicBool, park: &AtomicBool) -> JobEnd {
    match spec {
        JobSpec::Simulate { target, mitigation, iters } => {
            run_sim(target, *mitigation, *iters, plan, cancel, park, /*trace=*/ None)
        }
        JobSpec::Trace { target, mitigation, iters, chrome } => {
            run_sim(target, *mitigation, *iters, plan, cancel, park, Some(*chrome))
        }
        JobSpec::Lint { program, suggest } => run_lint(program, *suggest),
        JobSpec::Spin { millis } => run_spin(*millis),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_sim(
    target: &Target,
    m: Mitigation,
    iters: u32,
    plan: &RunPlan,
    cancel: &AtomicBool,
    park: &AtomicBool,
    trace: Option<bool>,
) -> JobEnd {
    let mut sys = match build_sim(target, m, iters) {
        Ok(sys) => sys,
        Err(detail) => return JobEnd::Failed { code: "parse".into(), detail },
    };
    let budget = if trace.is_some() { TRACE_BUDGET } else { SIM_BUDGET };
    if trace.is_some() {
        sys.enable_telemetry(64, 65_536);
    }
    if let Some(hb) = &plan.heartbeat {
        sys.set_heartbeat(hb.clone(), plan.chunk.clamp(1, 100_000));
    }
    let chunk = plan.chunk.max(1);
    // Trace runs carry telemetry state no snapshot round-trips, so they
    // re-run from scratch after a restart instead of checkpointing.
    let ckpt = CheckpointPlan {
        path: if trace.is_none() { plan.checkpoint.clone() } else { None },
        every: chunk,
        warm_base: if trace.is_none() { plan.warm_base.clone() } else { None },
        warm_cycles: 0,
        exit_after: 0,
        poll_every: Some(chunk),
    };
    let deadline = plan.deadline;
    let control = move |_: &System| {
        // Deadline before cancel: the watchdog requests cancellation for
        // overrun jobs, so at any poll past the deadline both can be true
        // — classifying by the deadline keeps the outcome deterministic
        // regardless of whether the worker or the watchdog noticed first.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            Interrupt::Abort("deadline".into())
        } else if cancel.load(Ordering::Relaxed) {
            Interrupt::Abort("cancelled".into())
        } else if park.load(Ordering::Relaxed) {
            Interrupt::Park("drain".into())
        } else {
            Interrupt::None
        }
    };
    let sr = run_supervised_with(&mut sys, budget, &ckpt, control);
    match sr.interrupted {
        Some(Interrupted::Parked(_)) => return JobEnd::Parked,
        Some(Interrupted::Aborted(code)) => {
            return JobEnd::Failed {
                code,
                detail: format!("stopped at cycle {} (chunk boundary)", sr.run.cycles),
            }
        }
        None => {}
    }
    // A trace budget genuinely runs out (sas-trace semantics: report what
    // ran); a simulate hitting the 1 G-cycle budget is a failure.
    let accept_cycle_limit = trace.is_some();
    if !matches!(sr.run.exit, RunExit::Halted)
        && !(accept_cycle_limit && matches!(sr.run.exit, RunExit::CycleLimit))
    {
        return exit_failure(&sr.run);
    }
    let mut result = format!(
        "{{\"target\":\"{}\",\"mitigation\":\"{}\",\"cycles\":{},\"committed\":{},\"restored\":{},\"cpi\":{}",
        json_escape(&target.label()),
        m.token(),
        sr.run.cycles,
        sr.run.committed(),
        sr.restored,
        sas_bench::cpi_breakdown(&sr.run).to_json(&DelayCause::ALL.map(|c| c.name()))
    );
    if trace == Some(true) {
        let timelines: Vec<(usize, &sas_telemetry::Timeline)> =
            (0..sys.cores()).filter_map(|i| sys.timeline(i).map(|t| (i, t))).collect();
        let gauges = sys.occupancy_gauges();
        let gauge_refs: Vec<(&str, &sas_telemetry::GaugeSeries)> =
            gauges.iter().map(|(n, g)| (n.as_str(), *g)).collect();
        let doc = sas_telemetry::chrome::export(&timelines, &gauge_refs);
        result.push_str(&format!(",\"chrome\":\"{}\"", json_escape(&doc)));
    }
    result.push('}');
    JobEnd::Completed { result }
}

fn run_lint(program: &str, suggest: bool) -> JobEnd {
    let parsed = match sas_isa::parse_program(program) {
        Ok(p) => p,
        Err(e) => {
            return JobEnd::Failed { code: "parse".into(), detail: format!("program parse error: {e}") }
        }
    };
    let acfg = sas_analyze::AnalysisConfig::default();
    let analysis = sas_analyze::analyze(&parsed, &acfg);
    let findings: Vec<String> =
        analysis.findings.iter().map(sas_analyze::Finding::to_json_line).collect();
    let mut result = format!(
        "{{\"gadgets\":{},\"findings\":[{}]",
        analysis.gadget_count(),
        findings.join(",")
    );
    if suggest {
        match sas_analyze::harden(&parsed, &acfg) {
            Ok(hardened) => result
                .push_str(&format!(",\"hardened\":\"{}\"", json_escape(&hardened.program.to_sasm()))),
            Err(e) => result.push_str(&format!(",\"harden_error\":\"{}\"", json_escape(&e.to_string()))),
        }
    }
    result.push('}');
    JobEnd::Completed { result }
}

fn run_spin(millis: u64) -> JobEnd {
    // Deliberately ignores cancellation and drain: this is the selftest
    // stand-in for a worker wedged inside non-cooperative code.
    let start = Instant::now();
    loop {
        if millis > 0 && start.elapsed().as_millis() as u64 >= millis {
            return JobEnd::Completed { result: format!("{{\"spun_ms\":{millis}}}") };
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// Parses the JSON-RPC `params` object for `method` into a spec plus the
/// queue metadata (priority, deadline budget).
pub fn parse_request(
    method: &str,
    params: &Json,
) -> Result<(JobSpec, Priority, Option<u64>), String> {
    let get_str = |key: &str| params.get(key).and_then(|v| v.as_str());
    let get_u64 = |key: &str| params.get(key).and_then(|v| v.as_num()).map(|n| n as u64);
    let get_bool = |key: &str| {
        params.get(key).map(|v| v.as_bool().ok_or_else(|| format!("\"{key}\" must be a boolean")))
    };
    let mitigation = match get_str("mitigation") {
        None => Mitigation::SpecAsan,
        Some(s) => Mitigation::parse(s).ok_or_else(|| format!("unknown mitigation {s:?}"))?,
    };
    let iters = get_u64("iters").map(|n| n as u32).unwrap_or(DEFAULT_ITERS);
    let target = || Target::from_fields(get_str("target"), get_str("program"));
    let spec = match method {
        "simulate" => JobSpec::Simulate { target: target()?, mitigation, iters },
        "trace" => JobSpec::Trace {
            target: target()?,
            mitigation,
            iters,
            chrome: get_bool("chrome").transpose()?.unwrap_or(false),
        },
        "lint" => JobSpec::Lint {
            program: get_str("program").ok_or("missing \"program\"")?.to_string(),
            suggest: get_bool("suggest").transpose()?.unwrap_or(false),
        },
        "spin" => JobSpec::Spin { millis: get_u64("millis").unwrap_or(0) },
        other => return Err(format!("unknown method {other:?}")),
    };
    let priority = match get_str("priority") {
        None => Priority::Normal,
        Some(s) => Priority::parse(s).ok_or_else(|| format!("unknown priority {s:?}"))?,
    };
    Ok((spec, priority, get_u64("deadline_ms")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A well-formed program that never halts: only cooperative
    /// interruption (cancel / deadline / park) can end its simulation.
    const LOOP_FOREVER: &str = ".entry main\nmain:\nloop:\nADD X1, X1, #1\nB loop\n";

    fn round_trip(spec: &JobSpec) -> JobSpec {
        let mut row = String::from("{\"event\":\"accepted\",\"job\":1");
        for (k, v) in spec.journal_fields() {
            row.push_str(&format!(",\"{k}\":{v}"));
        }
        row.push('}');
        let doc = sas_telemetry::json::parse(&row).unwrap_or_else(|e| panic!("row {row}: {e}"));
        JobSpec::from_journal(&doc).unwrap_or_else(|| panic!("undecodable row {row}"))
    }

    #[test]
    fn journal_rows_round_trip_every_kind() {
        let specs = vec![
            JobSpec::Simulate {
                target: Target::Spec("505.mcf_r".into()),
                mitigation: Mitigation::Stt,
                iters: 25,
            },
            JobSpec::Simulate {
                target: Target::Sasm("ld x1, [x2]\nhlt\n".into()),
                mitigation: Mitigation::SpecAsan,
                iters: 1,
            },
            JobSpec::Trace {
                target: Target::SpectreV1,
                mitigation: Mitigation::Fence,
                iters: 50,
                chrome: true,
            },
            JobSpec::Lint { program: "// \"quoted\"\nhlt".into(), suggest: true },
            JobSpec::Spin { millis: 123 },
        ];
        for spec in specs {
            assert_eq!(round_trip(&spec), spec);
        }
    }

    #[test]
    fn inline_sasm_simulation_completes() {
        let spec = JobSpec::Simulate {
            target: Target::Sasm(
                ".entry main\nmain:\nMOVZ X1, #7\nMOVZ X2, #35\nADD X3, X1, X2\nHALT\n".into(),
            ),
            mitigation: Mitigation::SpecAsan,
            iters: 1,
        };
        let plan = RunPlan { chunk: 1000, ..RunPlan::default() };
        let cancel = AtomicBool::new(false);
        let park = AtomicBool::new(false);
        match run_job(&spec, &plan, &cancel, &park) {
            JobEnd::Completed { result } => {
                assert!(result.contains("\"cycles\":"), "{result}");
                assert!(result.contains("\"cpi\":{"), "{result}");
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn a_cancelled_simulation_aborts_at_a_chunk_boundary() {
        // An infinite loop: only cooperative cancellation can end it.
        let spec = JobSpec::Simulate {
            target: Target::Sasm(LOOP_FOREVER.into()),
            mitigation: Mitigation::Unsafe,
            iters: 1,
        };
        let plan = RunPlan { chunk: 500, ..RunPlan::default() };
        let cancel = AtomicBool::new(true); // cancelled before it starts
        let park = AtomicBool::new(false);
        match run_job(&spec, &plan, &cancel, &park) {
            JobEnd::Failed { code, .. } => assert_eq!(code, "cancelled"),
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn a_deadline_aborts_a_runaway_simulation() {
        let spec = JobSpec::Simulate {
            target: Target::Sasm(LOOP_FOREVER.into()),
            mitigation: Mitigation::Unsafe,
            iters: 1,
        };
        let plan = RunPlan {
            chunk: 500,
            deadline: Some(Instant::now() + std::time::Duration::from_millis(50)),
            ..RunPlan::default()
        };
        let cancel = AtomicBool::new(false);
        let park = AtomicBool::new(false);
        let start = Instant::now();
        match run_job(&spec, &plan, &cancel, &park) {
            JobEnd::Failed { code, .. } => assert_eq!(code, "deadline"),
            other => panic!("expected deadline abort, got {other:?}"),
        }
        assert!(start.elapsed() < std::time::Duration::from_secs(30), "deadline was not prompt");
    }

    #[test]
    fn lint_reports_gadgets_and_hardens() {
        // A dependent double-load under speculation — the shape the
        // analyzer exists for; the assertions only need the report schema.
        let program = ".entry main\nmain:\nLDRW X1, [X2]\nLDRW X3, [X1]\nHALT\n";
        match run_job(
            &JobSpec::Lint { program: program.into(), suggest: true },
            &RunPlan::default(),
            &AtomicBool::new(false),
            &AtomicBool::new(false),
        ) {
            JobEnd::Completed { result } => {
                assert!(result.contains("\"findings\":["), "{result}");
                assert!(result.contains("\"gadgets\":"), "{result}");
            }
            other => panic!("lint failed: {other:?}"),
        }
    }
}
