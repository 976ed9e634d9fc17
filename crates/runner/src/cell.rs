//! Cell identities and in-process cell execution.
//!
//! A *cell* is the unit of supervision: one (suite, benchmark, mitigation)
//! measurement, one chaos campaign, or one supervisor selftest. Cell ids are
//! stable strings (`spec/505.mcf_r/stt`, `parsec/canneal/specasan`,
//! `chaos/0xc4a05eed`, `selftest/hang`) that round-trip through
//! [`CellId::parse`] — they key manifest rows, name child-process work, and
//! appear in failure summaries.

use crate::manifest::Record;
use crate::supervisor::{EXIT_DETERMINISTIC, EXIT_ENVIRONMENTAL};
use sas_bench::checkpoint::CheckpointPlan;
use sas_bench::{build_parsec_system, build_spec_system, run_cell_with};
use sas_pipeline::FaultPlan;
use sas_workloads::{build_parsec_workload, build_workload, parsec_suite, spec_suite, Profile};
use specasan::{build_multicore, build_system, chaos, Mitigation, SimConfig};
use std::fmt;

/// Environment variable gating the deliberately hanging selftest cell into
/// `sas-runner selftest` campaigns (tier-1 sets it to exercise the watchdog
/// kill path in CI).
pub const SELFTEST_ENV: &str = "SAS_RUNNER_SELFTEST";

/// Marker prefixing the result line a cell child prints on stdout: one
/// manifest row ([`Record`]) as JSON. Probe children print
/// `{"signature":…}` after the same marker.
pub const RESULT_MARKER: &str = "SAS_RUNNER_RESULT ";

/// The supervisor's built-in self-check cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelftestKind {
    /// Completes immediately.
    Ok,
    /// Panics (deterministic failure: recorded, never retried).
    Panic,
    /// Hangs forever (the watchdog must kill it).
    Hang,
    /// Fails environmentally on attempt 1, succeeds from attempt 2 on
    /// (exercises retry/backoff; the supervisor passes `--attempt N`).
    Flaky,
}

impl SelftestKind {
    fn token(self) -> &'static str {
        match self {
            SelftestKind::Ok => "ok",
            SelftestKind::Panic => "panic",
            SelftestKind::Hang => "hang",
            SelftestKind::Flaky => "flaky",
        }
    }
}

/// One supervised unit of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellId {
    /// A single-core SPEC-style (benchmark, mitigation) measurement.
    Spec {
        /// Benchmark name (`505.mcf_r`, …).
        benchmark: String,
        /// Mitigation column.
        mitigation: Mitigation,
    },
    /// A 4-core PARSEC-style (benchmark, mitigation) measurement.
    Parsec {
        /// Benchmark name (`canneal`, …).
        benchmark: String,
        /// Mitigation column.
        mitigation: Mitigation,
    },
    /// One seeded chaos campaign (`specasan::chaos::judge`: every injected
    /// corruption caught, every perturbation invisible, exact replay).
    Chaos {
        /// The campaign seed.
        seed: u64,
    },
    /// One seeded differential fuzzing campaign (`sas-fuzz` semantics):
    /// fails when the campaign reports an unexplained static/dynamic
    /// disagreement.
    Fuzz {
        /// The campaign seed.
        seed: u64,
        /// Number of synthesized cases.
        cases: u32,
    },
    /// A supervisor selftest cell.
    Selftest {
        /// Which self-check behaviour.
        kind: SelftestKind,
    },
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellId::Spec { benchmark, mitigation } => {
                write!(f, "spec/{benchmark}/{}", mitigation.token())
            }
            CellId::Parsec { benchmark, mitigation } => {
                write!(f, "parsec/{benchmark}/{}", mitigation.token())
            }
            CellId::Chaos { seed } => write!(f, "chaos/{seed:#x}"),
            CellId::Fuzz { seed, cases } => write!(f, "fuzz/{seed:#x}/{cases}"),
            CellId::Selftest { kind } => write!(f, "selftest/{}", kind.token()),
        }
    }
}

impl CellId {
    /// Parses a cell id string (the inverse of `Display`).
    pub fn parse(s: &str) -> Result<CellId, String> {
        let mut parts = s.trim().splitn(3, '/');
        let suite = parts.next().unwrap_or_default();
        match suite {
            "spec" | "parsec" => {
                let benchmark = parts.next().ok_or_else(|| format!("{s:?}: missing benchmark"))?;
                let token = parts.next().ok_or_else(|| format!("{s:?}: missing mitigation"))?;
                let mitigation = Mitigation::parse(token)
                    .ok_or_else(|| format!("{s:?}: unknown mitigation {token:?}"))?;
                let benchmark = benchmark.to_string();
                Ok(if suite == "spec" {
                    CellId::Spec { benchmark, mitigation }
                } else {
                    CellId::Parsec { benchmark, mitigation }
                })
            }
            "chaos" => {
                let seed = parse_seed(parts.next()).ok_or_else(|| format!("{s:?}: bad seed"))?;
                Ok(CellId::Chaos { seed })
            }
            "fuzz" => {
                let seed = parse_seed(parts.next()).ok_or_else(|| format!("{s:?}: bad seed"))?;
                let cases = parts.next().ok_or_else(|| format!("{s:?}: missing case count"))?;
                let cases = cases.parse().map_err(|_| format!("{s:?}: bad case count"))?;
                Ok(CellId::Fuzz { seed, cases })
            }
            "selftest" => {
                let kind = match parts.next() {
                    Some("ok") => SelftestKind::Ok,
                    Some("panic") => SelftestKind::Panic,
                    Some("hang") => SelftestKind::Hang,
                    Some("flaky") => SelftestKind::Flaky,
                    other => return Err(format!("{s:?}: unknown selftest {other:?}")),
                };
                Ok(CellId::Selftest { kind })
            }
            _ => Err(format!("{s:?}: unknown suite (want spec/parsec/chaos/fuzz/selftest)")),
        }
    }

    /// Whether failures of this cell are worth shrinking (selftest cells
    /// fail on purpose; fuzz cells ddmin their own counterexamples).
    pub fn shrinkable(&self) -> bool {
        !matches!(self, CellId::Selftest { .. } | CellId::Fuzz { .. })
    }
}

/// A campaign seed, hex (`0x…`) or decimal.
fn parse_seed(token: Option<&str>) -> Option<u64> {
    let token = token?;
    match token.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => token.parse().ok(),
    }
}

/// The full Figure 6 campaign: every SPEC benchmark under the unsafe
/// baseline and each Figure 6 mitigation column. `benchmarks` (when given)
/// restricts the rows.
pub fn fig6_cells(benchmarks: Option<&[String]>) -> Vec<CellId> {
    grid_cells(&spec_suite(), benchmarks, |benchmark, mitigation| CellId::Spec {
        benchmark,
        mitigation,
    })
}

/// The full Figure 7 campaign (PARSEC rows).
pub fn fig7_cells(benchmarks: Option<&[String]>) -> Vec<CellId> {
    grid_cells(&parsec_suite(), benchmarks, |benchmark, mitigation| CellId::Parsec {
        benchmark,
        mitigation,
    })
}

fn grid_cells(
    suite: &[Profile],
    benchmarks: Option<&[String]>,
    make: impl Fn(String, Mitigation) -> CellId,
) -> Vec<CellId> {
    let mut columns = vec![Mitigation::Unsafe];
    columns.extend(Mitigation::figure6_set());
    let mut cells = Vec::new();
    for p in suite {
        if let Some(only) = benchmarks {
            if !only.iter().any(|b| b == p.name) {
                continue;
            }
        }
        for &m in &columns {
            cells.push(make(p.name.to_string(), m));
        }
    }
    cells
}

/// `n` chaos campaigns with the deterministic `chaos::campaign_seed`
/// schedule.
pub fn chaos_cells(n: u64) -> Vec<CellId> {
    (0..n).map(|i| CellId::Chaos { seed: chaos::campaign_seed(i) }).collect()
}

/// The selftest campaign: ok, flaky and panic always; the hanging cell only
/// when [`SELFTEST_ENV`] is set (it costs a full watchdog timeout).
pub fn selftest_cells() -> Vec<CellId> {
    let mut cells = vec![
        CellId::Selftest { kind: SelftestKind::Ok },
        CellId::Selftest { kind: SelftestKind::Flaky },
        CellId::Selftest { kind: SelftestKind::Panic },
    ];
    if std::env::var(SELFTEST_ENV).is_ok_and(|v| !v.is_empty() && v != "0") {
        cells.push(CellId::Selftest { kind: SelftestKind::Hang });
    }
    cells
}

/// A passing row for `cell`.
fn passed(cell: &CellId, cycles: u64) -> (Record, i32) {
    (Record { cycles, ..Record::new(cell.to_string(), true, "halted", String::new()) }, 0)
}

/// A passing bench row, with its restore flag and final CPI stack.
fn measured(cell: &CellId, c: &sas_bench::Cell) -> (Record, i32) {
    let cpi = c.run.cpi().encode_flat(&sas_pipeline::DelayCause::ALL.map(|c| c.name()));
    let (row, code) = passed(cell, c.cycles);
    (Record { restored: c.restored, cpi: Some(cpi), ..row }, code)
}

/// A failing row for `cell` (`detail` clipped) and its exit class.
fn failed(cell: &CellId, exit: &str, detail: &str, class: i32) -> (Record, i32) {
    (Record::new(cell.to_string(), false, exit, clip(detail)), class)
}

/// Truncates a failure diagnostic to a manifest-friendly single chunk.
fn clip(detail: &str) -> String {
    const MAX: usize = 600;
    if detail.len() <= MAX {
        return detail.to_string();
    }
    let mut end = MAX;
    while !detail.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}… [{} bytes clipped]", &detail[..end], detail.len() - end)
}

fn find_profile(suite: &[Profile], name: &str) -> Option<Profile> {
    suite.iter().find(|p| p.name == name).cloned()
}

/// Executes one cell in the current process and returns its row together
/// with the exit class the child exits with: 0, [`EXIT_DETERMINISTIC`] or
/// [`EXIT_ENVIRONMENTAL`]. This is what `sas-runner cell <id>` calls inside
/// the child, with the 1-based spawn `attempt` and the plan its flags
/// describe (SPEC/PARSEC cells run under it; every cell removes the plan's
/// heartbeat file when it ends); panics are the *caller's* job to catch
/// (the binary wraps this in `catch_unwind`).
pub fn run_in_process(
    cell: &CellId,
    iters: u32,
    attempt: u32,
    plan: &CheckpointPlan,
) -> (Record, i32) {
    let outcome = run_cell(cell, iters, attempt, plan);
    // Remove the heartbeat (and its rename-staging sibling) once the cell is
    // done, so a later campaign that lands on the same cell id can never
    // read this run's stale progress.
    if let Some(path) = &plan.heartbeat {
        crate::heartbeat::remove(path);
    }
    outcome
}

fn run_cell(cell: &CellId, iters: u32, attempt: u32, plan: &CheckpointPlan) -> (Record, i32) {
    match cell {
        CellId::Spec { benchmark, mitigation } => {
            let Some(p) = find_profile(&spec_suite(), benchmark) else {
                let detail = format!("no SPEC benchmark named {benchmark:?}");
                return failed(cell, "unknown", &detail, EXIT_DETERMINISTIC);
            };
            let sys = build_spec_system(&p, *mitigation, iters);
            match run_cell_with(sys, "spec", p.name, *mitigation, plan) {
                Ok(c) => measured(cell, &c),
                Err(f) => failed(cell, f.exit, &f.detail, EXIT_DETERMINISTIC),
            }
        }
        CellId::Parsec { benchmark, mitigation } => {
            let Some(p) = find_profile(&parsec_suite(), benchmark) else {
                let detail = format!("no PARSEC benchmark named {benchmark:?}");
                return failed(cell, "unknown", &detail, EXIT_DETERMINISTIC);
            };
            let sys = build_parsec_system(&p, *mitigation, iters);
            match run_cell_with(sys, "parsec", p.name, *mitigation, plan) {
                Ok(c) => measured(cell, &c),
                Err(f) => failed(cell, f.exit, &f.detail, EXIT_DETERMINISTIC),
            }
        }
        CellId::Chaos { seed } => {
            let failures = chaos::judge(*seed);
            if failures.is_empty() {
                passed(cell, 0)
            } else {
                failed(cell, "chaos", &failures.join("; "), EXIT_DETERMINISTIC)
            }
        }
        CellId::Fuzz { seed, cases } => {
            let c = sas_fuzz::Campaign { seed: *seed, cases: *cases, ..Default::default() };
            let report = sas_fuzz::run_campaign(&c);
            if report.tally.unexplained() == 0 {
                return passed(cell, 0);
            }
            let seeds: Vec<String> =
                report.disagreements.iter().map(|d| format!("{:#x}", d.case.case_seed)).collect();
            let detail = format!(
                "{} unexplained disagreement(s); replay: sas-fuzz one --seed {}",
                report.tally.unexplained(),
                seeds.join(" / ")
            );
            failed(cell, "fuzz", &detail, EXIT_DETERMINISTIC)
        }
        CellId::Selftest { kind } => match kind {
            SelftestKind::Ok => passed(cell, 0),
            SelftestKind::Panic => panic!("selftest/panic: deliberate deterministic panic"),
            SelftestKind::Hang => loop {
                std::thread::sleep(std::time::Duration::from_millis(50));
            },
            SelftestKind::Flaky if attempt >= 2 => passed(cell, 0),
            SelftestKind::Flaky => {
                let detail =
                    format!("selftest/flaky: simulated environmental failure on attempt {attempt}");
                failed(cell, "flaky", &detail, EXIT_ENVIRONMENTAL)
            }
        },
    }
}

/// Runs a *probe*: the cell's workload with the instructions at `nops`
/// replaced by `NOP` and (optionally) an explicit fault plan, reduced to a
/// stable **failure signature** the shrinker compares against:
///
/// * `clean` — retired and halted normally (audit clean, for chaos);
/// * `abort:<tag>` — deadlock / divergence / fault / cycle-limit / error;
/// * `audit_caught` — chaos only: halted but the post-run audit flagged the
///   window;
/// * `silent_escape` — chaos only: corruptions fired, yet the run halted
///   with a clean audit;
/// * `no_fire` — chaos only: a corrupting plan never fired.
pub fn probe_signature(cell: &CellId, iters: u32, nops: &[usize], plan: Option<&FaultPlan>) -> String {
    match cell {
        CellId::Spec { .. } | CellId::Parsec { .. } => match probe_system(cell, iters, nops, plan)
        {
            Some(mut sys) => spec_signature(&sys.run(PROBE_BUDGET_CYCLES).exit),
            None => "abort:unknown".to_string(),
        },
        CellId::Chaos { seed } => {
            let class = chaos::Class::of(*seed);
            let default_plan;
            let plan = match plan {
                Some(p) => p,
                None => {
                    default_plan = chaos::plan_for(*seed, class);
                    &default_plan
                }
            };
            let program = chaos::campaign_program(*seed).with_nops(nops);
            let out = if class == chaos::Class::SnapCorrupt {
                chaos::run_snap_corrupt(*seed, &program, chaos::mitigation_for(*seed))
            } else {
                chaos::run_campaign_variant(&program, plan, chaos::mitigation_for(*seed))
            };
            if out.exit != "halted" {
                format!("abort:{}", out.exit)
            } else if !out.audit_clean {
                "audit_caught".to_string()
            } else if out.corruptions > 0 {
                "silent_escape".to_string()
            } else if class.corrupting() {
                "no_fire".to_string()
            } else {
                "clean".to_string()
            }
        }
        CellId::Fuzz { .. } | CellId::Selftest { .. } => "clean".to_string(),
    }
}

fn spec_signature(exit: &sas_pipeline::RunExit) -> String {
    if matches!(exit, sas_pipeline::RunExit::Halted) {
        "clean".to_string()
    } else {
        format!("abort:{}", exit.tag())
    }
}

/// Cycle budget for probe runs.
const PROBE_BUDGET_CYCLES: u64 = 1_000_000_000;

/// Builds the exact system a SPEC/PARSEC probe measures — workload, NOP
/// mask, mitigation, optional fault plan — without running it. `None` for
/// cells with no probe system (chaos probes run the campaign harness
/// instead; selftests have no machine at all).
fn probe_system(
    cell: &CellId,
    iters: u32,
    nops: &[usize],
    plan: Option<&FaultPlan>,
) -> Option<sas_pipeline::System> {
    let mut sys = match cell {
        CellId::Spec { benchmark, mitigation } => {
            let p = find_profile(&spec_suite(), benchmark)?;
            let w = build_workload(&p, iters, sas_bench::SEED, 0);
            let mut sys =
                build_system(&SimConfig::table2(), w.program.with_nops(nops), *mitigation);
            w.setup.apply(&mut sys);
            sys
        }
        CellId::Parsec { benchmark, mitigation } => {
            let p = find_profile(&parsec_suite(), benchmark)?;
            let ws = build_parsec_workload(&p, iters, sas_bench::SEED, 4);
            let mut programs: Vec<_> = ws.iter().map(|w| w.program.clone()).collect();
            // Delta-debug over core 0's program; the other cores stay fixed.
            programs[0] = programs[0].with_nops(nops);
            let mut sys = build_multicore(&SimConfig::table2(), programs, *mitigation);
            for w in &ws {
                w.setup.apply(&mut sys);
            }
            sys
        }
        CellId::Chaos { .. } | CellId::Fuzz { .. } | CellId::Selftest { .. } => return None,
    };
    if let Some(plan) = plan {
        sys.arm_faults(plan);
    }
    Some(sys)
}

/// The cell's (core-0) victim program — the index space the shrinker
/// delta-debugs over. `None` for cells with no program (selftests).
pub fn victim_program(cell: &CellId, iters: u32) -> Option<sas_isa::Program> {
    match cell {
        CellId::Spec { benchmark, .. } => {
            let p = find_profile(&spec_suite(), benchmark)?;
            Some(build_workload(&p, iters, sas_bench::SEED, 0).program)
        }
        CellId::Parsec { benchmark, .. } => {
            let p = find_profile(&parsec_suite(), benchmark)?;
            Some(build_parsec_workload(&p, iters, sas_bench::SEED, 4).swap_remove(0).program)
        }
        CellId::Chaos { seed } => Some(chaos::campaign_program(*seed)),
        CellId::Fuzz { .. } | CellId::Selftest { .. } => None,
    }
}

/// Instruction indices the shrinker must never NOP: `HALT`s. NOPping the
/// halt turns every candidate into a runaway that only dies at the cycle
/// limit — each probe would burn its whole watchdog and learn nothing.
pub fn protected_indices(program: &sas_isa::Program) -> Vec<usize> {
    program
        .insts()
        .iter()
        .enumerate()
        .filter(|(_, i)| matches!(i, sas_isa::Inst::Halt))
        .map(|(i, _)| i)
        .collect()
}

/// The `.sasm` serialization of the cell's minimized victim program, for
/// repro bundles. Only chaos programs are small enough to ship as text —
/// SPEC/PARSEC workloads carry multi-megabyte data segments, so their
/// bundles are recipe-based (cell id + iters + NOP mask) instead.
pub fn repro_sasm(cell: &CellId, nops: &[usize]) -> Option<String> {
    match cell {
        CellId::Chaos { seed } => Some(chaos::campaign_program(*seed).with_nops(nops).to_sasm()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_ids_round_trip_through_parse() {
        let cells = [
            CellId::Spec { benchmark: "505.mcf_r".into(), mitigation: Mitigation::Stt },
            CellId::Parsec { benchmark: "canneal".into(), mitigation: Mitigation::SpecAsan },
            CellId::Chaos { seed: 0xC4A0_5EED },
            CellId::Fuzz { seed: 0xC0FFEE, cases: 500 },
            CellId::Selftest { kind: SelftestKind::Hang },
        ];
        for c in cells {
            assert_eq!(CellId::parse(&c.to_string()), Ok(c));
        }
        assert!(CellId::parse("bogus/x/y").is_err());
        assert!(CellId::parse("spec/505.mcf_r/warp-drive").is_err());
        assert!(CellId::parse("chaos/zzz").is_err());
        assert!(CellId::parse("fuzz/0xc0ffee").is_err(), "fuzz cells need a case count");
        assert!(CellId::parse("fuzz/0xc0ffee/many").is_err());
    }

    #[test]
    fn fuzz_cell_runs_a_campaign_in_process() {
        let cell = CellId::Fuzz { seed: 0xC0FFEE, cases: 40 };
        assert!(!cell.shrinkable(), "the fuzzer ddmins its own counterexamples");
        assert!(victim_program(&cell, 1).is_none());
        assert_eq!(probe_signature(&cell, 1, &[], None), "clean");
        let (out, code) = run_in_process(&cell, 1, 1, &CheckpointPlan::none());
        assert!(out.ok, "fixed-seed smoke campaign must be clean: {}", out.detail);
        assert_eq!((out.exit.as_str(), code), ("halted", 0));
    }

    #[test]
    fn fig6_campaign_covers_the_grid() {
        let all = fig6_cells(None);
        assert_eq!(all.len(), spec_suite().len() * 5);
        let one = fig6_cells(Some(&["505.mcf_r".to_string()]));
        assert_eq!(one.len(), 5);
        assert!(one.iter().all(|c| matches!(c, CellId::Spec { benchmark, .. } if benchmark == "505.mcf_r")));
    }

    #[test]
    fn selftest_outcomes_follow_the_attempt_contract() {
        let flaky = CellId::Selftest { kind: SelftestKind::Flaky };
        let plan = CheckpointPlan::none();
        let (first, code) = run_in_process(&flaky, 1, 1, &plan);
        assert!(!first.ok && first.exit == "flaky" && code == EXIT_ENVIRONMENTAL, "{first:?}");
        let (second, code) = run_in_process(&flaky, 1, 2, &plan);
        assert!(second.ok && second.exit == "halted" && code == 0, "{second:?}");
        let (ok, code) = run_in_process(&CellId::Selftest { kind: SelftestKind::Ok }, 1, 1, &plan);
        assert!(ok.ok && ok.exit == "halted" && code == 0, "{ok:?}");
    }

    #[test]
    fn cell_finish_clears_the_heartbeat_file() {
        // Regression: the heartbeat (and its rename-staging sibling) used to
        // outlive the child, so a later campaign reusing the same cell id
        // could read a stale `(cycle, committed)` from the temp dir.
        let path = std::env::temp_dir().join(format!("sas-cell-hb-{}.json", std::process::id()));
        std::fs::write(&path, "{\"cycle\":1,\"committed\":1}\n").unwrap();
        std::fs::write(path.with_extension("hb.tmp"), "torn").unwrap();
        let plan = CheckpointPlan { heartbeat: Some(path.clone()), ..CheckpointPlan::none() };
        let (out, _) = run_in_process(&CellId::Selftest { kind: SelftestKind::Ok }, 1, 1, &plan);
        assert!(out.ok);
        assert!(!path.exists(), "cell finish must delete the heartbeat file");
        assert!(!path.with_extension("hb.tmp").exists(), "staging sibling must go too");
    }

    #[test]
    fn outcomes_round_trip_through_json() {
        // The child's row crosses the result line unchanged; whether a
        // failure is worth retrying rides the exit code, not the row.
        let unknown = CellId::Spec { benchmark: "nope".into(), mitigation: Mitigation::Stt };
        let (row, code) = run_in_process(&unknown, 1, 1, &CheckpointPlan::none());
        assert_eq!((row.exit.as_str(), row.attempts, code), ("unknown", 0, EXIT_DETERMINISTIC));
        let cpi = Some("base=1;memory_bound=2".into());
        let measured = Record { restored: true, cpi, ..passed(&unknown, 7).0 };
        for r in [row, measured] {
            assert_eq!(Record::from_json(&r.to_json()), Some(r));
        }
    }

    #[test]
    fn chaos_probe_with_no_mutation_matches_the_campaign_class() {
        // Seed schedule entry 0 is a corrupting campaign in a healthy tree:
        // its unmutated probe must not be "clean"-with-corruptions (that
        // would be a silent escape the chaos tier catches anyway).
        let seed = chaos::campaign_seed(0);
        let sig = probe_signature(&CellId::Chaos { seed }, 1, &[], None);
        assert!(
            sig == "clean" || sig == "audit_caught" || sig.starts_with("abort:"),
            "unexpected signature {sig:?}"
        );
    }
}
