//! Fence suggestion: computes a minimal-ish set of `CSDB` insertion points
//! that eliminates every gadget finding.
//!
//! The loop is greedy: analyze, cut immediately before the first surviving
//! gadget, repeat. A `CSDB` inserted at position `p` becomes the *only*
//! predecessor of the original instruction at `p` (every jump onto `p` is
//! remapped onto the barrier), and the barrier's out-state carries no
//! speculative window, no secret taint, and no in-flight stores — so the
//! finding at `p` cannot survive. Inserting a barrier never *creates*
//! findings (windows only shrink, taint only drops), so the loop terminates
//! in at most one round per distinct finding position; a hard cap turns any
//! analyzer bug into [`HardenError::DidNotConverge`] rather than a hang.
//! A final irredundance pass drops every cut that is not needed.

use crate::{analyze, AnalysisConfig};
use sas_isa::{Inst, Program, ProgramBuilder};
use std::collections::HashMap;
use std::fmt;

/// A hardened program plus the cut set that produced it.
#[derive(Debug, Clone)]
pub struct Hardened {
    /// The program with `CSDB` barriers inserted.
    pub program: Program,
    /// Original-program indices immediately before which a barrier was
    /// inserted (sorted).
    pub cuts: Vec<usize>,
}

/// Why hardening failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HardenError {
    /// The greedy loop could not reach zero gadgets (analyzer findings kept
    /// reappearing at already-cut positions).
    DidNotConverge,
}

impl fmt::Display for HardenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HardenError::DidNotConverge => {
                write!(
                    f,
                    "fence suggestion did not converge to zero gadget findings"
                )
            }
        }
    }
}

impl std::error::Error for HardenError {}

fn remap(target: usize, cuts: &[usize]) -> usize {
    // A jump onto a cut position lands on the barrier itself, so the
    // speculation window is closed before the protected instruction.
    target + cuts.iter().filter(|&&c| c < target).count()
}

/// Rebuilds `program` with a `CSDB` inserted immediately before each index
/// in `cuts`, remapping branch targets, labels, and the entry point.
/// Returns the new program and `origin[new_pc] -> Some(old_pc)` (`None` for
/// the inserted barriers).
pub fn insert_barriers(program: &Program, cuts: &[usize]) -> (Program, Vec<Option<usize>>) {
    let mut cuts: Vec<usize> = cuts
        .iter()
        .copied()
        .filter(|&c| c < program.len())
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut labels_at: HashMap<usize, Vec<&str>> = HashMap::new();
    for (name, pc) in program.labels() {
        labels_at.entry(pc).or_default().push(name);
    }
    let mut asm = ProgramBuilder::new();
    let mut origin: Vec<Option<usize>> = Vec::with_capacity(program.len() + cuts.len());
    for i in 0..program.len() {
        // Labels bind before the barrier, so symbolic jumps also land on it.
        if let Some(names) = labels_at.get(&i) {
            for name in names {
                let l = asm.named_label(name);
                asm.bind(l);
            }
        }
        if cuts.binary_search(&i).is_ok() {
            asm.spec_barrier();
            origin.push(None);
        }
        let inst = match program.fetch(i).expect("pc in range") {
            Inst::B { target } => Inst::B {
                target: remap(target, &cuts),
            },
            Inst::BCond { cond, target } => Inst::BCond {
                cond,
                target: remap(target, &cuts),
            },
            Inst::Cbz { reg, target } => Inst::Cbz {
                reg,
                target: remap(target, &cuts),
            },
            Inst::Cbnz { reg, target } => Inst::Cbnz {
                reg,
                target: remap(target, &cuts),
            },
            Inst::Bl { target } => Inst::Bl {
                target: remap(target, &cuts),
            },
            other => other,
        };
        asm.push(inst);
        origin.push(Some(i));
    }
    for seg in program.data() {
        asm.segment(seg.clone());
    }
    asm.entry(remap(program.entry(), &cuts));
    let hardened = asm.build().expect("rebuilding a valid program cannot fail");
    (hardened, origin)
}

/// Greedily computes an irredundant `CSDB` cut set under which [`analyze`]
/// reports zero gadget findings, and returns the hardened program.
pub fn harden(program: &Program, acfg: &AnalysisConfig) -> Result<Hardened, HardenError> {
    let mut cuts: Vec<usize> = Vec::new();
    let cap = 2 * program.len() + 16;
    for _ in 0..=cap {
        let (hp, origin) = insert_barriers(program, &cuts);
        let analysis = analyze(&hp, acfg);
        if analysis.gadget_count() == 0 {
            // Irredundance: drop any cut whose removal keeps zero gadgets.
            let mut i = 0;
            while i < cuts.len() {
                let mut trial = cuts.clone();
                trial.remove(i);
                let (tp, _) = insert_barriers(program, &trial);
                if analyze(&tp, acfg).gadget_count() == 0 {
                    cuts = trial;
                } else {
                    i += 1;
                }
            }
            cuts.sort_unstable();
            let (fp, _) = insert_barriers(program, &cuts);
            return Ok(Hardened { program: fp, cuts });
        }
        let next = analysis
            .gadgets()
            .filter_map(|g| origin.get(g.pc).copied().flatten())
            .find(|o| !cuts.contains(o));
        match next {
            Some(o) => cuts.push(o),
            None => return Err(HardenError::DidNotConverge),
        }
    }
    Err(HardenError::DidNotConverge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalysisConfig;
    use sas_isa::{Operand, Reg};

    #[test]
    fn barrier_insertion_remaps_targets_and_entry() {
        // 0: b 2; 1: nop; 2: halt — cut before 2.
        let mut asm = ProgramBuilder::new();
        asm.b_idx(2);
        asm.nop();
        asm.halt();
        let p = asm.build().unwrap();
        let (hp, origin) = insert_barriers(&p, &[2]);
        assert_eq!(hp.len(), 4);
        assert_eq!(origin, vec![Some(0), Some(1), None, Some(2)]);
        // The jump lands on the barrier, not past it.
        assert_eq!(hp.fetch(0), Some(Inst::B { target: 2 }));
        assert_eq!(hp.fetch(2), Some(Inst::SpecBarrier));
        assert_eq!(hp.fetch(3), Some(Inst::Halt));
        assert_eq!(hp.entry(), p.entry());
    }

    #[test]
    fn harden_reaches_zero_gadgets_on_a_v1_shape() {
        let mut asm = ProgramBuilder::new();
        asm.mov_imm64(Reg::X1, 0x100);
        asm.mov_imm64(Reg::X6, 0x2000);
        asm.mov_imm64(Reg::X7, 0x1_0000);
        asm.cmp(Reg::X1, Operand::imm(16));
        let done = asm.new_label();
        asm.b_cond(sas_isa::Cond::Hs, done);
        asm.ldrb_idx(Reg::X2, Reg::X6, Reg::X1);
        asm.lsl(Reg::X2, Reg::X2, Operand::imm(6));
        asm.ldrb_idx(Reg::X3, Reg::X7, Reg::X2);
        asm.bind(done);
        asm.halt();
        let p = asm.build().unwrap();
        let acfg = AnalysisConfig {
            granule_tags: vec![(0x2000, 16, 3), (0x2100, 16, 9)],
            ..AnalysisConfig::default()
        };
        assert!(crate::analyze(&p, &acfg).gadget_count() > 0);
        let hardened = harden(&p, &acfg).unwrap();
        assert!(!hardened.cuts.is_empty());
        assert_eq!(crate::analyze(&hardened.program, &acfg).gadget_count(), 0);
        // Re-inserting the suggested cuts is a fixpoint.
        let (again, _) = insert_barriers(&p, &hardened.cuts);
        assert_eq!(crate::analyze(&again, &acfg).gadget_count(), 0);
    }
}
