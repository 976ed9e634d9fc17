//! `compare A/ B/`: is B better, worse or no different from A?
//!
//! Each directory holds results files of untraced runs (`*.json`, one per
//! run). Runs pair up by workload and seed. For every end-to-end metric of
//! every workload the verdict follows the benchmark's own rule:
//!
//! * **improved** — B wins at least nine tenths of the pairs (ties count
//!   for neither side) and the medians differ by more than the distance
//!   between A's quartiles;
//! * **unresolved** — the run-to-run spread (quartile distance over the
//!   median, on either side) is wider than the metric's bound, unless every
//!   B run reads better than every A run;
//! * **regressed** — B's median is worse than A's by more than the bound;
//! * **unchanged** — otherwise.

use crate::metrics::{Better, Metric, END_TO_END};
use crate::stats;
use sas_telemetry::json::{parse, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// A comparison's outcome for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better, beyond noise.
    Improved,
    /// B is worse by more than the bound.
    Regressed,
    /// Within the bound.
    Unchanged,
    /// The spread is wider than the bound; no call can be made.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The numbers behind a verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Judged {
    /// A's first quartile, median and third quartile.
    pub a: (f64, f64, f64),
    /// B's quartiles.
    pub b: (f64, f64, f64),
    /// How much worse B's median is, as a share of A's (negative: better).
    pub worse: f64,
    /// Pairs B won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The call.
    pub verdict: Verdict,
}

/// Judges samples `a` and `b` of one metric; `pairs` holds the runs of the
/// two sides that share a seed.
pub fn judge(a: &[f64], b: &[f64], pairs: &[(f64, f64)], m: &Metric) -> Judged {
    let better = |x: f64, y: f64| match m.better {
        Better::Lower => y < x,
        Better::Higher => y > x,
    };
    let (qa, qb) = (stats::quartiles(a), stats::quartiles(b));
    let worse = match m.better {
        _ if qa.1 == 0.0 => 0.0,
        Better::Lower => (qb.1 - qa.1) / qa.1.abs(),
        Better::Higher => (qa.1 - qb.1) / qa.1.abs(),
    };
    let wins = pairs.iter().filter(|&&(x, y)| better(x, y)).count();
    let spread = stats::iqr_frac(a).max(stats::iqr_frac(b));
    let all_better = a.iter().all(|&x| b.iter().all(|&y| better(x, y)));
    let verdict = if !pairs.is_empty()
        && wins * 10 >= pairs.len() * 9
        && better(qa.1, qb.1)
        && (qb.1 - qa.1).abs() > qa.2 - qa.0
    {
        Verdict::Improved
    } else if spread > m.bound && !all_better {
        Verdict::Unresolved
    } else if worse > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    Judged {
        a: qa,
        b: qb,
        worse,
        wins,
        pairs: pairs.len(),
        verdict,
    }
}

/// One untraced run read back from its results file.
#[derive(Debug, Clone)]
struct Run {
    workload: String,
    seed: u64,
    failed: u64,
    digest: String,
    metrics: BTreeMap<String, f64>,
}

fn load(dir: &Path) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths
        .iter()
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
    {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let num = |k: &str| doc.get(k).and_then(Json::as_num).unwrap_or(0.0);
        let Some(Json::Obj(ms)) = doc.get("metrics") else {
            continue;
        };
        runs.push(Run {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            seed: num("seed") as u64,
            failed: num("failed") as u64,
            digest: doc
                .get("sim_digest")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            metrics: ms
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value").and_then(Json::as_num)?)))
                .collect(),
        });
    }
    if runs.is_empty() {
        return Err(format!("{}: no untraced results files", dir.display()));
    }
    Ok(runs)
}

/// Renders the comparison table; also returns whether any metric regressed.
pub fn report(a_dir: &Path, b_dir: &Path) -> Result<(String, bool), String> {
    let (a, b) = (load(a_dir)?, load(b_dir)?);
    let workloads: std::collections::BTreeSet<&str> =
        a.iter().chain(&b).map(|r| r.workload.as_str()).collect();
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<16} {:<12} {:>32} {:>32} {:>8} {:>6}  verdict (bound)",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse", "B wins"
    );
    for w in workloads {
        let side = |runs: &[Run]| {
            runs.iter()
                .filter(|r| r.workload == w)
                .cloned()
                .collect::<Vec<Run>>()
        };
        let (ra, rb) = (side(&a), side(&b));
        for m in &END_TO_END {
            let vals = |runs: &[Run]| {
                runs.iter()
                    .filter_map(|r| r.metrics.get(m.name).copied())
                    .collect::<Vec<f64>>()
            };
            let pairs: Vec<(f64, f64)> = ra
                .iter()
                .filter_map(|x| {
                    let y = rb.iter().find(|y| y.seed == x.seed)?;
                    Some((*x.metrics.get(m.name)?, *y.metrics.get(m.name)?))
                })
                .collect();
            let (va, vb) = (vals(&ra), vals(&rb));
            if va.is_empty() || vb.is_empty() {
                let _ = writeln!(out, "{w:<16} {:<12} missing on one side", m.name);
                continue;
            }
            let j = judge(&va, &vb, &pairs, m);
            regressed |= j.verdict == Verdict::Regressed;
            let q =
                |(q1, med, q3): (f64, f64, f64)| format!("{} [{}, {}]", sig(med), sig(q1), sig(q3));
            let _ = writeln!(
                out,
                "{w:<16} {:<12} {:>32} {:>32} {:>+7.1}% {:>6}  {} ({:.0}%)",
                m.name,
                q(j.a),
                q(j.b),
                100.0 * j.worse,
                format!("{}/{}", j.wins, j.pairs),
                j.verdict.word(),
                100.0 * m.bound
            );
        }
        let failed = |runs: &[Run]| runs.iter().map(|r| r.failed).sum::<u64>();
        let digests_differ = ra
            .iter()
            .any(|x| rb.iter().any(|y| y.seed == x.seed && y.digest != x.digest));
        let _ = writeln!(
            out,
            "{w:<16} ops_failed   A {} in {} runs, B {} in {} runs{}",
            failed(&ra),
            ra.len(),
            failed(&rb),
            rb.len(),
            if digests_differ {
                "; sim_digest differs for some seed (simulated results changed)"
            } else {
                ""
            }
        );
    }
    Ok((out, regressed))
}

/// Four significant digits.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let digits = (3 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAT: Metric = Metric {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };
    const TPUT: Metric = Metric {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    fn paired(a: &[f64], b: &[f64]) -> Vec<(f64, f64)> {
        a.iter().copied().zip(b.iter().copied()).collect()
    }

    fn call(a: &[f64], b: &[f64], m: &Metric) -> Verdict {
        judge(a, b, &paired(a, b), m).verdict
    }

    #[test]
    fn same_distribution_is_unchanged() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let b = [
            100.3, 99.7, 100.1, 99.6, 100.4, 100.0, 99.9, 100.2, 99.8, 100.5,
        ];
        assert_eq!(call(&a, &b, &LAT), Verdict::Unchanged);
        assert_eq!(call(&a, &b, &TPUT), Verdict::Unchanged);
    }

    #[test]
    fn consistent_gain_beyond_the_spread_is_improved() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let b: Vec<f64> = a.iter().map(|x| x * 0.95).collect();
        assert_eq!(call(&a, &b, &LAT), Verdict::Improved);
        let j = judge(&a, &b, &paired(&a, &b), &LAT);
        assert_eq!((j.wins, j.pairs), (10, 10));
        assert!(j.worse < -0.04);
        // For a higher-is-better metric the same move is a loss.
        assert_eq!(call(&a, &b, &TPUT), Verdict::Unchanged);
    }

    #[test]
    fn worse_past_the_bound_is_regressed() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let b: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(call(&a, &b, &LAT), Verdict::Regressed);
        let slower: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(call(&a, &slower, &TPUT), Verdict::Regressed);
        // 5% worse is inside the 10% bound.
        let b: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        assert_eq!(call(&a, &b, &LAT), Verdict::Unchanged);
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved() {
        let a = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        let b: Vec<f64> = a.iter().rev().map(|x| x * 1.15).collect();
        assert_eq!(call(&a, &b, &LAT), Verdict::Unresolved);
        // Unless every B run beats every A run.
        let b: Vec<f64> = (0..10).map(|i| 40.0 + f64::from(i)).collect();
        assert_ne!(call(&a, &b, &LAT), Verdict::Unresolved);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let a = [10.0; 10];
        let b = [10.0; 10];
        let j = judge(&a, &b, &paired(&a, &b), &LAT);
        assert_eq!((j.wins, j.verdict), (0, Verdict::Unchanged));
    }

    #[test]
    fn significant_digits() {
        assert_eq!(sig(1234.5678), "1235");
        assert_eq!(sig(1.23456), "1.235");
        assert_eq!(sig(0.0123456), "0.01235");
    }
}
