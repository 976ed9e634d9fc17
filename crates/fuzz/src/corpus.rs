//! Minimized counterexample corpus: on-disk format, loading, and replay.
//!
//! Every campaign disagreement is shrunk to a minimal `.sasm` program and
//! checked into `crates/fuzz/corpus/`. A corpus file is a normal SAS-IR
//! assembly file whose leading `;` comments carry replay directives:
//!
//! ```text
//! ; shape: bcb-masked
//! ; intent: safe
//! ; case-seed: 0x91c8d772bd9b6794
//! ; expect-static: clean
//! ; expect-dynamic: clean
//! ```
//!
//! `expect-static`/`expect-dynamic` pin the *post-fix* verdicts: replay
//! fails if the analyzer regresses to flagging the program again (or the
//! simulator starts leaking on it). The corpus is replayed by
//! `sas-fuzz replay`, by `cargo test -p sas-fuzz`, and by the tier-1 fuzz
//! stage.

use crate::campaign::fuzz_config;
use crate::dynrun::run_dynamic;
use crate::scenario::{Intent, ShapeKind};
use sas_analyze::analyze;
use sas_isa::{parse_program, Program};
use specasan::SimConfig;
use std::fs;
use std::path::{Path, PathBuf};

/// One corpus entry: a program plus its pinned expectations.
#[derive(Debug, Clone)]
pub struct CorpusCase {
    /// Which generator family produced it (selects victim-state setup).
    pub shape: ShapeKind,
    /// The generator's behavioural claim at find time.
    pub intent: Intent,
    /// The campaign case seed that found it (provenance; replay does not
    /// re-generate from it).
    pub case_seed: Option<u64>,
    /// Pinned static verdict: must the analyzer flag a gadget?
    pub expect_static_flagged: bool,
    /// Pinned dynamic verdict: must the unsafe-baseline run leak?
    pub expect_dynamic_leak: bool,
    /// Free-text explanation of what the case caught.
    pub note: Option<String>,
    /// The minimized program.
    pub program: Program,
}

/// The checked-in corpus directory of this crate.
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

fn verdict_token(flagged: bool, leak_word: &str) -> &'static str {
    match (flagged, leak_word) {
        (true, "dynamic") => "leak",
        (false, "dynamic") => "clean",
        (true, _) => "flagged",
        (false, _) => "clean",
    }
}

impl CorpusCase {
    /// Serializes the case as a directive-annotated `.sasm` file.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("; sas-fuzz corpus counterexample (ddmin-minimized)\n");
        s.push_str(&format!("; shape: {}\n", self.shape.token()));
        s.push_str(&format!("; intent: {}\n", self.intent.token()));
        if let Some(seed) = self.case_seed {
            s.push_str(&format!("; case-seed: {seed:#x}\n"));
        }
        s.push_str(&format!(
            "; expect-static: {}\n",
            verdict_token(self.expect_static_flagged, "static")
        ));
        s.push_str(&format!(
            "; expect-dynamic: {}\n",
            verdict_token(self.expect_dynamic_leak, "dynamic")
        ));
        if let Some(note) = &self.note {
            s.push_str(&format!("; note: {note}\n"));
        }
        s.push_str(&self.program.to_sasm());
        s
    }

    /// Parses a corpus file (directives + program).
    pub fn parse(text: &str) -> Result<CorpusCase, String> {
        let mut shape = None;
        let mut intent = None;
        let mut case_seed = None;
        let mut expect_static = None;
        let mut expect_dynamic = None;
        let mut note = None;
        for line in text.lines() {
            let Some(rest) = line.trim().strip_prefix(';') else { continue };
            let Some((key, value)) = rest.split_once(':') else { continue };
            let (key, value) = (key.trim(), value.trim());
            match key {
                "shape" => {
                    shape = Some(
                        ShapeKind::parse(value).ok_or_else(|| format!("unknown shape '{value}'"))?,
                    )
                }
                "intent" => {
                    intent = Some(
                        Intent::parse(value).ok_or_else(|| format!("unknown intent '{value}'"))?,
                    )
                }
                "case-seed" => {
                    let hex = value.strip_prefix("0x").unwrap_or(value);
                    case_seed = Some(
                        u64::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad case-seed '{value}'"))?,
                    );
                }
                "expect-static" => {
                    expect_static = Some(match value {
                        "flagged" => true,
                        "clean" => false,
                        _ => return Err(format!("bad expect-static '{value}'")),
                    })
                }
                "expect-dynamic" => {
                    expect_dynamic = Some(match value {
                        "leak" => true,
                        "clean" => false,
                        _ => return Err(format!("bad expect-dynamic '{value}'")),
                    })
                }
                "note" => note = Some(value.to_string()),
                _ => {}
            }
        }
        let program = parse_program(text).map_err(|e| e.to_string())?;
        Ok(CorpusCase {
            shape: shape.ok_or("missing '; shape:' directive")?,
            intent: intent.ok_or("missing '; intent:' directive")?,
            case_seed,
            expect_static_flagged: expect_static.ok_or("missing '; expect-static:' directive")?,
            expect_dynamic_leak: expect_dynamic.ok_or("missing '; expect-dynamic:' directive")?,
            note,
            program,
        })
    }

    /// Replays the case: re-analyzes and re-executes, checking both pinned
    /// verdicts. `Ok(())` means no regression.
    pub fn replay(&self, sim: &SimConfig) -> Result<(), String> {
        let analysis = analyze(&self.program, &fuzz_config());
        let flagged = analysis.gadget_count() > 0;
        if flagged != self.expect_static_flagged {
            return Err(format!(
                "static verdict regressed: expected {}, analyzer reported {} gadget(s): {:?}",
                verdict_token(self.expect_static_flagged, "static"),
                analysis.gadget_count(),
                analysis.gadgets().map(|f| (f.pc, f.kind)).collect::<Vec<_>>(),
            ));
        }
        let dynamics = run_dynamic(self.shape, sim, &self.program);
        if dynamics.leaked != self.expect_dynamic_leak {
            return Err(format!(
                "dynamic verdict regressed: expected {}, run {}",
                verdict_token(self.expect_dynamic_leak, "dynamic"),
                if dynamics.leaked { "leaked" } else { "stayed clean" },
            ));
        }
        Ok(())
    }
}

/// Loads every `.sasm` file in `dir`, sorted by file name.
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, CorpusCase)>, String> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "sasm"))
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for p in paths {
        let text = fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        let case = CorpusCase::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        out.push((p, case));
    }
    Ok(out)
}

/// Replays every corpus case in `dir`; returns the failures.
pub fn replay_dir(dir: &Path, sim: &SimConfig) -> Result<Vec<(PathBuf, String)>, String> {
    let mut failures = Vec::new();
    for (path, case) in load_dir(dir)? {
        if let Err(e) = case.replay(sim) {
            failures.push((path, e));
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sas_isa::{ProgramBuilder, Reg};

    fn sample_case() -> CorpusCase {
        let mut asm = ProgramBuilder::new();
        asm.mov_imm64(Reg::X1, 0x5000);
        asm.ldr(Reg::X2, Reg::X1, 0);
        asm.halt();
        CorpusCase {
            shape: ShapeKind::Noise,
            intent: Intent::Safe,
            case_seed: Some(0xDEAD_BEEF),
            expect_static_flagged: false,
            expect_dynamic_leak: false,
            note: Some("straightline scratch load".into()),
            program: asm.build().unwrap(),
        }
    }

    #[test]
    fn render_parse_round_trips_directives_and_program() {
        let case = sample_case();
        let text = case.render();
        let back = CorpusCase::parse(&text).unwrap();
        assert_eq!(back.shape, case.shape);
        assert_eq!(back.intent, case.intent);
        assert_eq!(back.case_seed, case.case_seed);
        assert_eq!(back.expect_static_flagged, case.expect_static_flagged);
        assert_eq!(back.expect_dynamic_leak, case.expect_dynamic_leak);
        assert_eq!(back.program.insts(), case.program.insts());
    }

    #[test]
    fn missing_directives_are_rejected() {
        let e = CorpusCase::parse("    HALT\n").unwrap_err();
        assert!(e.contains("shape"), "{e}");
    }

    #[test]
    fn replay_accepts_a_truthful_case() {
        sample_case().replay(&SimConfig::table2()).unwrap();
    }

    #[test]
    fn replay_rejects_a_wrong_expectation() {
        let mut case = sample_case();
        case.expect_static_flagged = true;
        let e = case.replay(&SimConfig::table2()).unwrap_err();
        assert!(e.contains("static verdict regressed"), "{e}");
    }
}
