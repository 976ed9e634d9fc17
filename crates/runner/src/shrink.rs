//! Automatic failure minimization.
//!
//! When a cell fails *deterministically*, the supervisor hands it here. The
//! shrinker re-runs the cell's workload as child-process **probes** — each a
//! candidate with some victim instructions replaced by `NOP`
//! ([`sas_isa::Program::with_nops`]) and/or a reduced fault plan — and keeps
//! any candidate that still reproduces the original **failure signature**
//! (`abort:deadlock`, `silent_escape`, …; see
//! [`crate::cell::probe_signature`]). The result is a minimal repro bundle
//! under the repro directory:
//!
//! * `meta.json` — cell id, signature, iterations, NOP mask, plan: the full
//!   recipe `sas-runner replay` re-checks;
//! * `plan.txt` — the minimized fault-plan spec, when faults were involved;
//! * `repro.sasm` — the minimized victim program as parseable assembly
//!   (chaos cells only: SPEC/PARSEC workloads carry multi-megabyte data
//!   segments, so their bundles stay recipe-based).
//!
//! `sas-runner replay` re-runs that recipe from cycle zero — one more
//! probe-length run. Every probe, like every cell, is a watched child
//! ([`crate::capture::run_watched`]); the shrinker runs no simulation in
//! the supervisor's own process. Everything runs under a fixed probe
//! budget; minimization is best-effort and monotone — the bundle always
//! reproduces the signature, it just may not be globally minimal.

use crate::capture::{run_watched, Watched};
use crate::cell::{self, CellId};
use crate::supervisor::{result_line, Config};
use sas_pipeline::json::{self, escape, Json};
use std::path::PathBuf;
use std::process::Command;

/// Maximum child probes one shrink may spend.
pub const PROBE_BUDGET: u32 = 40;

/// What the shrinker produced for one failed cell.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The bundle directory.
    pub dir: PathBuf,
    /// The failure signature the bundle reproduces.
    pub signature: String,
    /// Probes spent.
    pub probes: u32,
    /// Instruction indices NOPped out of the victim program.
    pub nops: Vec<usize>,
    /// Victim program size (instructions) before shrinking.
    pub total_insts: usize,
    /// The minimized fault-plan spec, when the failure involved one.
    pub plan: Option<String>,
}

struct Prober<'a> {
    cell: &'a CellId,
    cfg: &'a Config,
    probes: u32,
}

impl Prober<'_> {
    /// One child probe; `None` when the budget is exhausted or the child
    /// broke protocol. A watchdog-killed probe reports `"hang"`.
    fn probe(&mut self, nops: &[usize], plan: Option<&str>) -> Option<String> {
        if self.probes >= PROBE_BUDGET {
            return None;
        }
        self.probes += 1;
        let mut cmd = Command::new(&self.cfg.child_exe);
        cmd.arg("probe")
            .arg(self.cell.to_string())
            .arg("--iters")
            .arg(self.cfg.iters.to_string());
        if !nops.is_empty() {
            cmd.arg("--nops").arg(csv(nops));
        }
        if let Some(p) = plan {
            cmd.arg("--plan").arg(p);
        }
        // Probes get the same watchdog budget as supervised cells; a probe
        // that hangs additionally burns extra budget so runaway candidates
        // (each costing a whole timeout) cannot stretch the shrink for long.
        match run_watched(&mut cmd, self.cfg.timeout, |_| {}).ok()? {
            Watched::Exited { stdout, .. } => {
                let doc = json::parse(result_line(&stdout)?).ok()?;
                doc.get("signature")?.as_str().map(str::to_string)
            }
            Watched::TimedOut => {
                self.probes += 3;
                Some("hang".to_string())
            }
            Watched::WaitFailed(_) => None,
        }
    }
}

fn csv(xs: &[usize]) -> String {
    xs.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(",")
}

/// The fault-plan spec the failing run was armed with, used as the plan
/// minimization's starting point.
fn base_plan(cell: &CellId, cfg: &Config) -> Option<String> {
    match cell {
        CellId::Chaos { seed } => {
            use specasan::chaos;
            Some(chaos::plan_for(*seed, chaos::Class::of(*seed)).to_spec())
        }
        _ => {
            let id = cell.to_string();
            match (&cfg.fault_cell, &cfg.fault_plan) {
                (Some(fc), Some(plan)) if *fc == id => Some(plan.clone()),
                _ => None,
            }
        }
    }
}

fn is_point_token(token: &str) -> bool {
    !token.starts_with("seed=") && !token.starts_with("window=")
}

/// Plan minimization over the spec string: drop injection points whose
/// removal preserves the signature, then halve surviving `max_events`.
fn minimize_plan(
    prober: &mut Prober<'_>,
    base_sig: &str,
    plan: &str,
) -> String {
    let mut tokens: Vec<String> = plan.split_whitespace().map(str::to_string).collect();
    let mut i = 0;
    while i < tokens.len() {
        let points = tokens.iter().filter(|t| is_point_token(t)).count();
        if is_point_token(&tokens[i]) && points > 1 {
            let cand: Vec<String> =
                tokens.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, t)| t.clone()).collect();
            if prober.probe(&[], Some(&cand.join(" "))).as_deref() == Some(base_sig) {
                tokens = cand;
                continue;
            }
        }
        i += 1;
    }
    // Halve each surviving point's max_events while the signature holds.
    for _round in 0..3 {
        let mut changed = false;
        for i in 0..tokens.len() {
            if !is_point_token(&tokens[i]) {
                continue;
            }
            let Some((name, rest)) = tokens[i].split_once('=') else { continue };
            let fields: Vec<&str> = rest.split(',').collect();
            let Some(max) = fields.get(1).and_then(|v| v.parse::<u64>().ok()) else { continue };
            if max <= 1 {
                continue;
            }
            let mut new_fields: Vec<String> = fields.iter().map(|s| s.to_string()).collect();
            new_fields[1] = (max / 2).to_string();
            let cand_token = format!("{name}={}", new_fields.join(","));
            let mut cand = tokens.clone();
            cand[i] = cand_token;
            if prober.probe(&[], Some(&cand.join(" "))).as_deref() == Some(base_sig) {
                tokens = cand;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    tokens.join(" ")
}

/// Delta-debugs the victim program by NOP-masking chunks of instruction
/// indices, keeping every mask that preserves the signature. The chunking
/// loop itself is [`sas_ptest::shrink::ddmin_mask`]; this wires it to the
/// child-process prober and its budget.
fn minimize_program(
    prober: &mut Prober<'_>,
    base_sig: &str,
    plan: Option<&str>,
    total: usize,
    protected: &[usize],
) -> Vec<usize> {
    sas_ptest::shrink::ddmin_mask(total, protected, |cand| {
        if prober.probes >= PROBE_BUDGET {
            return None;
        }
        Some(prober.probe(cand, plan).as_deref() == Some(base_sig))
    })
}

/// Shrinks one deterministically failed cell into a repro bundle. Returns
/// `None` when the cell has no program to shrink, the failure does not
/// reproduce in the probe harness, or the bundle cannot be written.
pub fn shrink_cell(cell: &CellId, cfg: &Config) -> Option<ShrinkOutcome> {
    let program = cell::victim_program(cell, cfg.iters)?;
    let total = program.insts().len();
    let protected = cell::protected_indices(&program);
    drop(program);
    let plan0 = base_plan(cell, cfg);
    let mut prober = Prober { cell, cfg, probes: 0 };
    let base_sig = prober.probe(&[], plan0.as_deref())?;
    if base_sig == "clean" {
        eprintln!("sas-runner: shrink {cell}: failure does not reproduce in the probe harness");
        return None;
    }
    let plan = plan0.map(|p| minimize_plan(&mut prober, &base_sig, &p));
    let nops = minimize_program(&mut prober, &base_sig, plan.as_deref(), total, &protected);
    let outcome = ShrinkOutcome {
        dir: bundle_dir(cfg, cell),
        signature: base_sig,
        probes: prober.probes,
        nops,
        total_insts: total,
        plan,
    };
    write_bundle(cell, cfg, &outcome).ok()?;
    eprintln!(
        "sas-runner: shrink {cell}: signature {} reproduced with {}/{} instructions NOPped \
         ({} probes) — bundle at {}",
        outcome.signature,
        outcome.nops.len(),
        outcome.total_insts,
        outcome.probes,
        outcome.dir.display()
    );
    Some(outcome)
}

/// The bundle directory for a cell (cell id with path-hostile characters
/// mapped to `-`).
pub fn bundle_dir(cfg: &Config, cell: &CellId) -> PathBuf {
    let sanitized: String = cell
        .to_string()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '.' || c == '_' { c } else { '-' })
        .collect();
    cfg.repro_dir.join(sanitized)
}

/// The final path component of a bundle directory. User-supplied
/// `sas-runner replay` paths land here, and paths like `/` or one ending in
/// `..` have no final component — that is a reportable error, not a panic.
pub fn bundle_name(dir: &std::path::Path) -> Result<String, String> {
    dir.file_name().map(|n| n.to_string_lossy().into_owned()).ok_or_else(|| {
        format!("{}: not a repro bundle directory (the path has no final component)", dir.display())
    })
}

fn write_bundle(cell: &CellId, cfg: &Config, out: &ShrinkOutcome) -> std::io::Result<()> {
    use std::fmt::Write as _;
    std::fs::create_dir_all(&out.dir)?;
    let mut meta = format!(
        "{{\"cell\":\"{}\",\"signature\":\"{}\",\"iters\":{},\"total_insts\":{},\"probes\":{},\"nops\":\"{}\"",
        escape(&cell.to_string()),
        escape(&out.signature),
        cfg.iters,
        out.total_insts,
        out.probes,
        csv(&out.nops)
    );
    if let Some(p) = &out.plan {
        let _ = write!(meta, ",\"plan\":\"{}\"", escape(p));
    }
    meta.push_str("}\n");
    std::fs::write(out.dir.join("meta.json"), meta)?;
    if let Some(p) = &out.plan {
        std::fs::write(out.dir.join("plan.txt"), format!("{p}\n"))?;
    }
    if let Some(sasm) = cell::repro_sasm(cell, &out.nops) {
        std::fs::write(out.dir.join("repro.sasm"), sasm)?;
    }
    std::fs::write(
        out.dir.join("README.txt"),
        format!(
            "Minimal repro bundle for {cell} (signature {}).\n\
             Replay with:  sas-runner replay {}\n",
            out.signature,
            out.dir.display()
        ),
    )
}

/// A parsed `meta.json` — everything needed to replay a bundle.
#[derive(Debug, Clone)]
pub struct BundleMeta {
    /// The failed cell.
    pub cell: CellId,
    /// The signature the bundle must reproduce.
    pub signature: String,
    /// Iterations the cell ran with.
    pub iters: u32,
    /// The NOP mask.
    pub nops: Vec<usize>,
    /// The fault-plan spec, if any.
    pub plan: Option<String>,
}

/// Loads a bundle's `meta.json`. `iters` must be an integer in
/// `1..=u32::MAX`, as on every other entry point.
pub fn load_bundle(dir: &std::path::Path) -> Result<BundleMeta, String> {
    // Reject pathological replay paths (`/`, `bundle/..`) up front with a
    // structured message instead of a confusing read error further down.
    bundle_name(dir)?;
    let text = std::fs::read_to_string(dir.join("meta.json"))
        .map_err(|e| format!("{}: {e}", dir.join("meta.json").display()))?;
    let doc = json::parse(&text).map_err(|e| format!("meta.json: {e}"))?;
    let get = |k: &str| doc.get(k).and_then(Json::as_str).map(str::to_string);
    let cell = CellId::parse(&get("cell").ok_or("meta.json: missing cell")?)?;
    let nops_csv = get("nops").unwrap_or_default();
    let nops: Vec<usize> = if nops_csv.is_empty() {
        Vec::new()
    } else {
        nops_csv
            .split(',')
            .map(|t| t.trim().parse().map_err(|_| format!("bad nop index {t:?}")))
            .collect::<Result<_, _>>()?
    };
    Ok(BundleMeta {
        cell,
        signature: get("signature").ok_or("meta.json: missing signature")?,
        iters: doc
            .get("iters")
            .and_then(Json::as_u64)
            .and_then(|n| u32::try_from(n).ok())
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("meta.json: \"iters\" must be an integer in 1..={}", u32::MAX))?,
        nops,
        plan: get("plan"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_dirs_are_path_safe() {
        let cfg = Config::new(PathBuf::from("m.jsonl"));
        let dir = bundle_dir(&cfg, &CellId::Chaos { seed: 0xC4A0_5EED });
        let name = bundle_name(&dir).expect("generated bundle dirs always have a name");
        assert!(!name.contains('/') && !name.contains('*'), "{name}");
        assert!(name.starts_with("chaos-"), "{name}");
    }

    #[test]
    fn nameless_bundle_paths_are_a_structured_error_not_a_panic() {
        for bad in ["/", "bundle/.."] {
            let err = bundle_name(std::path::Path::new(bad)).unwrap_err();
            assert!(err.contains("no final component"), "{err}");
            let err = load_bundle(std::path::Path::new(bad)).unwrap_err();
            assert!(err.contains("no final component"), "{err}");
        }
    }

    #[test]
    fn point_tokens_are_distinguished_from_plan_scaffolding() {
        assert!(!is_point_token("seed=0x2a"));
        assert!(!is_point_token("window=0x4000+0x200"));
        assert!(is_point_token("tag_flip=1000,1,0"));
    }
}
