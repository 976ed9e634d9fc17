//! Job specifications and the worker-side job runner.
//!
//! A [`JobSpec`] is the durable description of one request: parsed from
//! JSON-RPC params at admission, written to the journal, and — after a
//! crash — reparsed from the journal to re-run the job. [`run_job`] executes
//! one spec on a worker thread under a [`RunPlan`]: simulation jobs step the
//! `System` in cycle chunks through `sas-bench`'s interruptible checkpoint
//! protocol, so cancellation, deadlines and drain-parking all take effect at
//! the next stop of its run loop, each stop stores the job's [`Progress`],
//! and a parked job's `sas-snap` image resumes bit-identically after a
//! restart.

use crate::http::json_escape;
use sas_bench::checkpoint::{run_supervised_with, CheckpointPlan, Interrupt, Interrupted};
use sas_bench::heartbeat::Heartbeat;
use sas_pipeline::{DelayCause, RunExit, RunResult};
use sas_telemetry::json::Json;
use specasan::{build_system, Mitigation, SimConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a simulation or trace job runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// A named machine: `spectre-v1`, a SPEC or a PARSEC profile.
    Named(sas_bench::Target),
    /// An inline `.sasm` program, parsed on the worker.
    Sasm(String),
}

impl Target {
    /// Journal rows store a named target by its canonical name.
    fn journal_value(&self) -> (&'static str, String) {
        match self {
            Target::Named(t) => ("target", format!("\"{}\"", json_escape(t.name()))),
            Target::Sasm(text) => ("program", format!("\"{}\"", json_escape(text))),
        }
    }

    fn from_fields(target: Option<&str>, program: Option<&str>) -> Result<Target, String> {
        match (target, program) {
            (Some(_), Some(_)) => Err("give either \"target\" or \"program\", not both".into()),
            (None, None) => Err("missing \"target\" (name) or \"program\" (inline .sasm)".into()),
            (None, Some(text)) => Ok(Target::Sasm(text.to_string())),
            (Some(name), None) => sas_bench::Target::parse(name).map(Target::Named),
        }
    }

    /// Human/status label.
    pub fn label(&self) -> &'static str {
        match self {
            Target::Named(t) => t.name(),
            Target::Sasm(_) => "inline-sasm",
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
        /// Workload iterations (SPEC and PARSEC targets).
        iters: u32,
    },
    /// Run with telemetry armed and return the CPI stack (and optionally a
    /// Chrome trace document).
    Trace {
        /// What to run.
        target: Target,
        /// The mitigation policy to run it under.
        mitigation: Mitigation,
        /// Workload iterations (SPEC and PARSEC targets).
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
    /// [`JobSpec::journal_fields`]) through [`parse_request`], the decoder
    /// every request passes at admission: the row's `kind` is the method,
    /// the row itself the params.
    pub fn from_journal(row: &Json) -> Option<JobSpec> {
        let kind = row.get("kind")?.as_str()?;
        parse_request(kind, row).ok().map(|(spec, _, _)| spec)
    }
}

/// Default workload iterations when a request leaves `iters` unset.
pub const DEFAULT_ITERS: u32 = 25;

/// Cycle budget for simulation jobs (matches the bench harnesses).
pub const SIM_BUDGET: u64 = 1_000_000_000;

/// Cycle budget for trace jobs (matches `sas-trace`).
pub const TRACE_BUDGET: u64 = 20_000_000;

/// A simulation job's latest progress record, stored by the worker at every
/// stop of the run loop and at its end, and read by `/watch` and the
/// watchdog from the job table. Clones share one record.
#[derive(Debug, Clone, Default)]
pub struct Progress(Arc<Mutex<Option<Heartbeat>>>);

impl Progress {
    /// Replaces the stored record.
    pub fn store(&self, hb: Heartbeat) {
        *self.0.lock().expect("progress lock") = Some(hb);
    }

    /// The latest record; `None` before the job's first stop.
    pub fn latest(&self) -> Option<Heartbeat> {
        self.0.lock().expect("progress lock").clone()
    }
}

/// Everything a worker needs to run one job.
#[derive(Debug, Clone, Default)]
pub struct RunPlan {
    /// This job's `sas-snap` checkpoint file (checkpointing jobs only).
    pub checkpoint: Option<PathBuf>,
    /// Where the worker stores the job's progress.
    pub progress: Progress,
    /// Checkpoint period in cycles (0 = the 1 M default).
    pub chunk: u64,
    /// Absolute deadline; crossing it aborts at the next stop of the run.
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
/// `park` checkpoints-and-stops (drain), both taking effect at the next stop
/// of the run loop (every checkpoint and at least every
/// [`sas_bench::checkpoint::STOP_EVERY`] cycles); the deadline in `plan`
/// aborts the same way. Jobs that refuse to yield are the hung-worker
/// supervisor's problem, not ours.
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

/// Runs `job`, resolving a panic on its path as `Failed { code: "panic" }`
/// with the panic message, so a panicking job ends like any failed one
/// instead of killing the worker thread that runs it.
pub(crate) fn catch_panic(job: impl FnOnce() -> JobEnd) -> JobEnd {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).unwrap_or_else(|payload| {
        let detail = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic (non-string payload)".to_string());
        JobEnd::Failed { code: "panic".into(), detail }
    })
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
    let mut sys = match target {
        Target::Named(t) => t.system(m, iters, &[]),
        Target::Sasm(text) => match sas_isa::parse_program(text) {
            Ok(program) => build_system(&SimConfig::table2(), program, m),
            Err(e) => {
                let detail = format!("program parse error: {e}");
                return JobEnd::Failed { code: "parse".into(), detail };
            }
        },
    };
    let budget = if trace.is_some() { TRACE_BUDGET } else { SIM_BUDGET };
    if trace.is_some() {
        sys.enable_telemetry(sas_bench::TRACE_SAMPLE_INTERVAL, sas_bench::TRACE_TIMELINE_CAP);
    }
    // Trace runs carry telemetry state no snapshot round-trips, so they
    // re-run from scratch after a restart instead of checkpointing.
    let ckpt = CheckpointPlan {
        path: if trace.is_none() { plan.checkpoint.clone() } else { None },
        every: plan.chunk,
        ..CheckpointPlan::none()
    };
    let deadline = plan.deadline;
    let control = |hb: &Heartbeat| {
        plan.progress.store(hb.clone());
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
    plan.progress.store(Heartbeat::of(&sr.run));
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
    let accepted = match sr.run.exit {
        RunExit::Halted => true,
        RunExit::CycleLimit => trace.is_some(),
        _ => false,
    };
    if !accepted {
        return exit_failure(&sr.run);
    }
    let mut result = format!(
        "{{\"target\":\"{}\",\"mitigation\":\"{}\",\"cycles\":{},\"committed\":{},\"restored\":{},\"cpi\":{}",
        json_escape(target.label()),
        m.token(),
        sr.run.cycles,
        sr.run.committed(),
        sr.restored,
        sr.run.cpi().to_json(&DelayCause::ALL.map(|c| c.name()))
    );
    if trace == Some(true) {
        result.push_str(&format!(",\"chrome\":\"{}\"", json_escape(&sys.chrome_trace())));
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
/// submission options: the deadline budget (`deadline_ms`, when set) and
/// whether the caller blocks for the result (`wait`, default true). Every
/// parameter is typed strictly; a mistyped one is an error naming it, and
/// unknown keys are ignored.
pub fn parse_request(method: &str, params: &Json) -> Result<(JobSpec, Option<u64>, bool), String> {
    let get_str = |key: &str| params.get(key).and_then(|v| v.as_str());
    let get_u64 = |key: &str| {
        params.get(key).map(|v| {
            v.as_u64().ok_or_else(|| format!("\"{key}\" must be a non-negative integer"))
        })
    };
    let get_bool = |key: &str| {
        params.get(key).map(|v| v.as_bool().ok_or_else(|| format!("\"{key}\" must be a boolean")))
    };
    let mitigation = match get_str("mitigation") {
        None => Mitigation::SpecAsan,
        Some(s) => Mitigation::parse(s).ok_or_else(|| format!("unknown mitigation {s:?}"))?,
    };
    let iters = match params.get("iters") {
        None => DEFAULT_ITERS,
        Some(v) => v
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("\"iters\" must be an integer in 1..={}", u32::MAX))?,
    };
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
        "spin" => JobSpec::Spin { millis: get_u64("millis").transpose()?.unwrap_or(0) },
        other => return Err(format!("unknown method {other:?}")),
    };
    let deadline_ms = get_u64("deadline_ms").transpose()?;
    let wait = get_bool("wait").transpose()?.unwrap_or(true);
    Ok((spec, deadline_ms, wait))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A well-formed program that never halts: only cooperative
    /// interruption (cancel / deadline / park) can end its simulation.
    const LOOP_FOREVER: &str = ".entry main\nmain:\nloop:\nADD X1, X1, #1\nB loop\n";

    fn named(name: &str) -> Target {
        Target::Named(sas_bench::Target::parse(name).unwrap())
    }

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
    fn a_panicking_job_resolves_as_failed() {
        let failed = |detail: &str| JobEnd::Failed { code: "panic".into(), detail: detail.into() };
        let line = 7;
        assert_eq!(catch_panic(|| panic!("bound at line {line}")), failed("bound at line 7"));
        assert_eq!(catch_panic(|| panic!("static message")), failed("static message"));
        let opaque = failed("panic (non-string payload)");
        assert_eq!(catch_panic(|| std::panic::panic_any(7u8)), opaque);
        assert_eq!(catch_panic(|| JobEnd::Parked), JobEnd::Parked);
    }

    #[test]
    fn journal_rows_round_trip_every_kind() {
        let specs = vec![
            JobSpec::Simulate {
                target: named("505.mcf_r"),
                mitigation: Mitigation::Stt,
                iters: 25,
            },
            JobSpec::Simulate { target: named("canneal"), mitigation: Mitigation::Fence, iters: 2 },
            JobSpec::Simulate {
                target: Target::Sasm("ld x1, [x2]\nhlt\n".into()),
                mitigation: Mitigation::SpecAsan,
                iters: 1,
            },
            JobSpec::Trace {
                target: named("spectre-v1"),
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
    fn journal_rows_store_canonical_names_and_replay_any_case() {
        let row = |name: &str| {
            let doc =
                format!(r#"{{"kind":"simulate","target":"{name}","mitigation":"stt","iters":3}}"#);
            JobSpec::from_journal(&sas_telemetry::json::parse(&doc).unwrap())
        };
        for name in ["505.MCF_R", "Canneal", "SPECTRE-V1"] {
            let spec = row(name).unwrap_or_else(|| panic!("{name} must replay"));
            let stored = spec.journal_fields();
            let canonical = name.to_ascii_lowercase();
            assert!(stored.contains(&("target", format!("\"{canonical}\""))), "{name}: {stored:?}");
        }
        assert_eq!(row("nope"), None);
    }

    #[test]
    fn parse_request_takes_only_positive_u32_iteration_counts() {
        let params = |iters: &str| {
            sas_telemetry::json::parse(&format!("{{\"target\":\"505.mcf_r\",\"iters\":{iters}}}"))
                .unwrap()
        };
        match parse_request("simulate", &params("4294967295")) {
            Ok((JobSpec::Simulate { iters, .. }, _, _)) => assert_eq!(iters, u32::MAX),
            other => panic!("expected a simulate spec, got {other:?}"),
        }
        for bad in ["0", "-1", "4294967296", "1.5", "\"25\""] {
            let err = parse_request("simulate", &params(bad)).unwrap_err();
            assert!(err.contains("\"iters\""), "iters {bad}: {err}");
        }
    }

    #[test]
    fn parse_request_types_the_submit_options_strictly() {
        let parse = |method: &str, extra: &str| {
            let doc = format!("{{\"target\":\"505.mcf_r\"{extra}}}");
            parse_request(method, &sas_telemetry::json::parse(&doc).unwrap())
        };
        match parse("simulate", ",\"deadline_ms\":500,\"wait\":false,\"priority\":\"low\"") {
            Ok((_, deadline_ms, wait)) => assert_eq!((deadline_ms, wait), (Some(500), false)),
            other => panic!("expected a spec, got {other:?}"),
        }
        assert!(matches!(parse("simulate", ""), Ok((_, None, true))));
        for (method, field, value) in [
            ("simulate", "wait", "\"false\""),
            ("simulate", "wait", "1"),
            ("simulate", "deadline_ms", "\"500\""),
            ("simulate", "deadline_ms", "-5"),
            ("simulate", "deadline_ms", "1.5"),
            ("spin", "millis", "-5"),
            ("spin", "millis", "1.5"),
        ] {
            let err = parse(method, &format!(",\"{field}\":{value}")).unwrap_err();
            assert!(err.contains(&format!("\"{field}\"")), "{field}={value}: {err}");
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
    fn progress_ends_at_the_result() {
        let spec = JobSpec::Simulate {
            target: named("505.mcf_r"),
            mitigation: Mitigation::SpecAsan,
            iters: 100,
        };
        let plan = RunPlan::default();
        let end = run_job(&spec, &plan, &AtomicBool::new(false), &AtomicBool::new(false));
        let JobEnd::Completed { result } = end else { panic!("expected completion, got {end:?}") };
        let doc = sas_telemetry::json::parse(&result).unwrap();
        let hb = plan.progress.latest().expect("progress stored");
        assert_eq!(Some(hb.committed), doc.get("committed").and_then(Json::as_u64), "{result}");
        assert_eq!(Some(hb.cycle), doc.get("cycles").and_then(Json::as_u64), "{result}");
    }

    #[test]
    fn a_parsec_target_completes_on_four_cores() {
        let spec = JobSpec::Simulate {
            target: named("canneal"),
            mitigation: Mitigation::SpecAsan,
            iters: 2,
        };
        let end =
            run_job(&spec, &RunPlan::default(), &AtomicBool::new(false), &AtomicBool::new(false));
        let JobEnd::Completed { result } = end else { panic!("expected completion, got {end:?}") };
        let doc = sas_telemetry::json::parse(&result).unwrap();
        assert_eq!(doc.get("target").and_then(Json::as_str), Some("canneal"), "{result}");
        assert!(doc.get("committed").and_then(Json::as_u64).is_some_and(|n| n > 0), "{result}");
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

    /// One-byte `.data` lines a page apart, up to the 4 MiB request body:
    /// more pages than a program may hold, so simulate and lint jobs fail
    /// as parse errors instead of loading a gigabyte of pages.
    #[test]
    fn data_on_too_many_pages_fails_as_a_parse_error() {
        let mut program = String::from("HALT\n");
        for i in 0.. {
            let line = format!(".data {:#x} = 7\n", 0x1000 + i * 4096);
            if program.len() + line.len() > 4 << 20 {
                break;
            }
            program.push_str(&line);
        }
        let jobs = [
            JobSpec::Simulate {
                target: Target::Sasm(program.clone()),
                mitigation: Mitigation::Unsafe,
                iters: 1,
            },
            JobSpec::Lint { program, suggest: false },
        ];
        for spec in &jobs {
            let (cancel, park) = (AtomicBool::new(false), AtomicBool::new(false));
            match run_job(spec, &RunPlan::default(), &cancel, &park) {
                JobEnd::Failed { code, detail } => {
                    assert_eq!(code, "parse");
                    assert!(detail.contains("4097 pages, more than the 4096"), "{detail}");
                }
                other => panic!("expected a parse failure, got {other:?}"),
            }
        }
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
