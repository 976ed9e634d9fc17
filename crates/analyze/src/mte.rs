//! MTE tag-discipline lint: base-pointer provenance, tag-store alignment,
//! and constant key-vs-lock mismatches.
//!
//! The pass is flow-insensitive about *locks*: a granule's lock is the last
//! `STG`/`ST2G` colour recorded in program order (seeded from
//! [`AnalysisConfig::granule_tags`]), which keeps the lint deterministic and
//! stable under [`crate::harden`]'s barrier insertion. Constant resolution
//! comes from the taint pass's stabilized states, so only reachable
//! instructions with fully-known addresses are judged — the lint
//! under-approximates rather than guessing.

use crate::report::{Finding, FindingKind};
use crate::taint::AbsState;
use crate::AnalysisConfig;
use sas_isa::{Inst, Program, Reg, VirtAddr, GRANULE_BYTES};
use std::collections::HashMap;

fn granule(addr: u64) -> u64 {
    addr & !(GRANULE_BYTES - 1)
}

fn resolve(st: &AbsState, base: Reg, index: Option<Reg>, offset: i64) -> Option<u64> {
    let b = if base.is_zero() { Some(0) } else { st.consts[base.index()] }?;
    let i = match index {
        Some(r) if !r.is_zero() => st.consts[r.index()]?,
        _ => 0,
    };
    Some(b.wrapping_add(i).wrapping_add(offset as u64))
}

/// Runs the tag-discipline lint over every reachable instruction.
pub fn lint(
    program: &Program,
    acfg: &AnalysisConfig,
    flow: &[Option<AbsState>],
) -> Vec<Finding> {
    let mut out = Vec::new();
    // Granule base -> installed lock colour.
    let mut locks: HashMap<u64, u8> = HashMap::new();
    for &(base, len, key) in &acfg.granule_tags {
        let mut g = granule(base);
        while g < base.saturating_add(len) {
            locks.insert(g, key);
            g += GRANULE_BYTES;
        }
    }
    for pc in 0..program.len() {
        let Some(st) = flow.get(pc).and_then(|s| s.as_ref()) else { continue };
        let inst = program.fetch(pc).expect("pc in range");
        let Some((base, index, offset)) = inst.addr_operands() else { continue };
        let resolved = resolve(st, base, index, offset);

        // Provenance: a constant base carrying a non-zero key that did not
        // come through IRG/ADDG/SUBG was forged (e.g. MOVZ/MOVK-built).
        let base_val = if base.is_zero() { Some(0) } else { st.consts[base.index()] };
        if let Some(bv) = base_val {
            let key = VirtAddr::new(bv).key().value();
            if key != 0 && (base.is_zero() || !st.derived[base.index()]) {
                out.push(Finding {
                    kind: FindingKind::UnderivedTaggedBase,
                    pc,
                    detail: format!(
                        "base {base} carries key {key:#x} but was not derived via IRG/ADDG/SUBG"
                    ),
                });
            }
        }

        match inst {
            Inst::Stg { .. } | Inst::St2g { .. } => {
                if let Some(raw) = resolved {
                    let va = VirtAddr::new(raw);
                    let u = va.untagged().raw();
                    if !u.is_multiple_of(GRANULE_BYTES) {
                        out.push(Finding {
                            kind: FindingKind::MisalignedTagStore,
                            pc,
                            detail: format!(
                                "tag store to {u:#x}, which is not {GRANULE_BYTES}-byte aligned"
                            ),
                        });
                    }
                    let key = va.key().value();
                    locks.insert(granule(u), key);
                    if matches!(inst, Inst::St2g { .. }) {
                        locks.insert(granule(u) + GRANULE_BYTES, key);
                    }
                }
            }
            Inst::Ldg { .. } => {}
            _ => {
                // Data access: constant pointer key vs the granule's lock.
                if let Some(raw) = resolved {
                    let va = VirtAddr::new(raw);
                    let key = va.key().value();
                    let u = va.untagged().raw();
                    if key != 0 {
                        if let Some(&lock) = locks.get(&granule(u)) {
                            if key != lock {
                                out.push(Finding {
                                    kind: FindingKind::TagKeyMismatch,
                                    pc,
                                    detail: format!(
                                        "pointer key {key:#x} does not match lock {lock:#x} \
                                         of granule {:#x}",
                                        granule(u)
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalysisConfig};
    use sas_isa::{ProgramBuilder, TagNibble};

    #[test]
    fn misaligned_tag_store_is_flagged() {
        let mut asm = ProgramBuilder::new();
        asm.mov_imm64(Reg::X6, 0x2008);
        asm.stg(Reg::X6, 0);
        asm.halt();
        let p = asm.build().unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        assert!(
            a.lints().any(|f| f.kind == FindingKind::MisalignedTagStore),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn key_mismatch_against_recorded_lock_is_flagged() {
        let mut asm = ProgramBuilder::new();
        let locked = VirtAddr::new(0x2000).with_key(TagNibble::new(3)).raw();
        let wrong = VirtAddr::new(0x2000).with_key(TagNibble::new(5)).raw();
        asm.mov_imm64(Reg::X6, locked);
        asm.stg(Reg::X6, 0); // installs lock 3 on granule 0x2000
        asm.mov_imm64(Reg::X7, wrong);
        asm.ldr(Reg::X0, Reg::X7, 0); // key 5 vs lock 3
        asm.halt();
        let p = asm.build().unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        assert!(
            a.lints().any(|f| f.kind == FindingKind::TagKeyMismatch),
            "{:?}",
            a.findings
        );
        // Forged (MOVZ/MOVK-built) tagged pointers also trip provenance.
        assert!(
            a.lints().any(|f| f.kind == FindingKind::UnderivedTaggedBase),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn derived_matching_pointer_is_clean() {
        let mut asm = ProgramBuilder::new();
        asm.mov_imm64(Reg::X6, 0x2000);
        asm.addg(Reg::X0, Reg::X6, 0, 3); // derive key-3 pointer
        asm.stg(Reg::X0, 0);
        asm.ldr(Reg::X1, Reg::X0, 0);
        asm.halt();
        let p = asm.build().unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        assert_eq!(a.lints().count(), 0, "{:?}", a.findings);
    }
}
