//! A workload run's outcome and its three renderings: the text lines a
//! reader scans, the one-line result the last line of stdout carries, and
//! the results file `compare` reads.

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use sas_serve::http::json_escape;
use sas_telemetry::json::{parse, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Everything one `run` of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Requested measuring time, seconds.
    pub seconds: f64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Correctness checks that did not hold (other than failed ops).
    pub problems: Vec<String>,
    /// FNV-1a digest over every simulated statistic the run produced.
    pub digest: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// An outcome with no operations and no values yet.
    pub fn new(workload: &'static str, seed: u64, seconds: f64, trace: bool) -> Outcome {
        Outcome {
            workload,
            seed,
            seconds,
            trace,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            digest: 0,
            values: BTreeMap::new(),
        }
    }

    /// The metrics this run reports: end-to-end untraced, per-layer traced.
    pub fn metrics(&self) -> &'static [Metric] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Sets a metric, which must be one this run reports.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            self.metrics().iter().any(|m| m.name == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Records a failed correctness check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Whether every operation succeeded and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Per-layer metrics a workload did not set read 0: it does not
    /// exercise that layer. Every end-to-end metric must be set, finite and
    /// non-zero; a missing one is a defect of the benchmark, reported as a
    /// problem.
    pub fn complete(&mut self) {
        for m in self.metrics() {
            match self.values.get(m.name).copied() {
                None if self.trace => {
                    self.values.insert(m.name, 0.0);
                }
                Some(v) if v.is_finite() && (self.trace || v != 0.0) => {}
                v => self.problems.push(format!("{}: measured {v:?}", m.name)),
            }
        }
    }

    fn value(&self, m: &Metric) -> f64 {
        self.values
            .get(m.name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0)
    }

    /// `metric workload value unit` lines, then the operation counts and
    /// the simulation digest.
    pub fn text(&self) -> String {
        let mut s = String::new();
        for m in self.metrics() {
            let _ = writeln!(
                s,
                "{} {} {} {}",
                m.name,
                self.workload,
                self.value(m),
                m.unit
            );
        }
        let _ = writeln!(s, "ops {} {} count", self.workload, self.attempted);
        let _ = writeln!(s, "ops_failed {} {} count", self.workload, self.failed);
        let _ = writeln!(
            s,
            "sim_digest {} {:#018x} fnv1a",
            self.workload, self.digest
        );
        for p in &self.problems {
            let _ = writeln!(s, "problem {} {}", self.workload, p.replace('\n', " "));
        }
        s
    }

    fn metrics_json(&self) -> String {
        let body: Vec<String> = self
            .metrics()
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    self.value(m),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The results file: the result line's fields plus what produced them.
    pub fn record(&self) -> String {
        let problems: Vec<String> = self
            .problems
            .iter()
            .map(|p| format!("\"{}\"", json_escape(p)))
            .collect();
        format!(
            "{{\"schema\":\"sas-hostbench-result-v1\",\"workload\":\"{}\",\"seed\":{},\
             \"seconds\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\
             \"sim_digest\":\"{:#018x}\",\"problems\":[{}],\"metrics\":{}}}\n",
            self.workload,
            self.seed,
            self.seconds,
            self.trace,
            self.correct(),
            self.attempted,
            self.failed,
            self.digest,
            problems.join(","),
            self.metrics_json()
        )
    }
}

/// Folds the results files of several runs into one result line: correct
/// only if every run was, `attempted` and `failed` summed, and each run's
/// metrics named `<workload>.<metric>`. A file that cannot be read (its
/// run ended before writing it) makes the line incorrect. Also returns
/// whether it is correct.
pub fn summary(paths: &[impl AsRef<Path>]) -> (String, bool) {
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for path in paths {
        let doc = std::fs::read_to_string(path)
            .ok()
            .and_then(|t| parse(t.trim()).ok());
        let Some(doc) = doc else {
            correct = false;
            continue;
        };
        let count = |k: &str| doc.get(k).and_then(Json::as_num).unwrap_or(0.0) as u64;
        correct &= doc.get("correct") == Some(&Json::Bool(true));
        attempted += count("attempted");
        failed += count("failed");
        let workload = doc.get("workload").and_then(Json::as_str).unwrap_or("?");
        if let Some(Json::Obj(ms)) = doc.get("metrics") {
            for (name, m) in ms {
                let value = m.get("value").and_then(Json::as_num).unwrap_or(0.0);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                metrics.push(format!(
                    "\"{}.{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                    json_escape(workload),
                    json_escape(name),
                    json_escape(unit)
                ));
            }
        }
    }
    let correct = correct && attempted > 0;
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    (line, correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_its_four_keys() {
        let mut o = Outcome::new("spec-grid", 1, 10.0, false);
        for m in END_TO_END {
            o.set(m.name, 1.5);
        }
        o.attempted = 3;
        o.complete();
        assert!(o.correct(), "{:?}", o.problems);
        let doc = parse(&o.result_line()).expect("valid JSON");
        let Json::Obj(top) = &doc else {
            panic!("object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("setup_s")
                .and_then(|m| m.get("unit"))
                .and_then(Json::as_str),
            Some("s")
        );
        assert!(parse(o.record().trim()).is_ok());
    }

    #[test]
    fn missing_end_to_end_metrics_make_the_run_incorrect() {
        let mut o = Outcome::new("query", 1, 10.0, false);
        o.attempted = 1;
        o.set("setup_s", 0.5);
        o.complete();
        assert!(!o.correct());

        let mut t = Outcome::new("query", 1, 10.0, true);
        t.attempted = 1;
        t.complete();
        assert!(t.correct(), "unset per-layer metrics read 0");
        assert_eq!(t.values.len(), PER_LAYER.len());
    }

    #[test]
    fn summary_sums_the_runs_and_fails_if_any_run_did() {
        let dir = std::env::temp_dir().join(format!("hostbench-summary-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, o: &Outcome| {
            let path = dir.join(name);
            std::fs::write(&path, o.record()).unwrap();
            path
        };
        let mut good = Outcome::new("spec-grid", 1, 12.0, false);
        for m in END_TO_END {
            good.set(m.name, 2.0);
        }
        good.attempted = 75;
        good.complete();
        let mut bad = Outcome::new("query", 1, 12.0, false);
        bad.attempted = 7;
        bad.failed = 1;
        bad.complete();
        let (a, b) = (write("a.json", &good), write("b.json", &bad));

        let (line, ok) = summary(&[&a]);
        assert!(ok);
        let doc = parse(&line).expect("valid JSON");
        assert_eq!(doc.get("attempted").and_then(Json::as_num), Some(75.0));
        let setup = doc.get("metrics").and_then(|m| m.get("spec-grid.setup_s"));
        assert_eq!(
            setup.and_then(|m| m.get("value")).and_then(Json::as_num),
            Some(2.0)
        );

        let (line, ok) = summary(&[&a, &b]);
        assert!(!ok);
        let doc = parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("attempted").and_then(Json::as_num), Some(82.0));
        assert_eq!(doc.get("failed").and_then(Json::as_num), Some(1.0));

        // A run that wrote no results file counts against the whole.
        let (_, ok) = summary(&[a.clone(), dir.join("missing.json")]);
        assert!(!ok);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
