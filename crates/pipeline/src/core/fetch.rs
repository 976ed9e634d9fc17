//! Fetch: follows the branch predictors, wrong path included, and asks
//! the policy before speculating past an indirect branch.

use super::{Core, FetchEntry};
use crate::policy::IndirectKind;
use sas_isa::Inst;

impl Core {
    fn target_has_bti(&self, target: usize, kind: IndirectKind) -> bool {
        match self.program.fetch(target) {
            Some(Inst::Bti { kind: k }) => match kind {
                IndirectKind::Jump => k.accepts_jump(),
                IndirectKind::Call => k.accepts_call(),
                IndirectKind::Return => true,
            },
            _ => false,
        }
    }

    pub(super) fn fetch(&mut self, cycle: u64) {
        if cycle < self.fetch_resume_at || self.fetch_stalled_on.is_some() {
            return;
        }
        let mut fetched = 0;
        while fetched < self.cfg.fetch_width
            && self.fetch_queue.len() < self.cfg.fetch_width * 2
        {
            let Some(pc) = self.fetch_pc else { break };
            let Some(inst) = self.program.fetch(pc) else {
                self.fetch_pc = None;
                break;
            };
            let mut cfi_stalled = false;
            let ghr_snapshot = self.pred.gshare.history();
            let predicted_next = match inst {
                Inst::B { target } => target,
                Inst::Bl { target } => {
                    self.pred.rsb.push(pc + 1);
                    target
                }
                Inst::BCond { target, .. }
                | Inst::Cbz { target, .. }
                | Inst::Cbnz { target, .. } => {
                    // Prediction indexes with the *committed* history (the
                    // GHR advances in order at commit), so the index used
                    // here always matches a trained context.
                    let mut taken = self.pred.gshare.predict(pc);
                    if let Some(f) = &mut self.faults {
                        // Forced mispredictions: invert this prediction (or a
                        // whole storm of them) to drive squash/replay paths.
                        if f.storm_left > 0 {
                            f.storm_left -= 1;
                            taken = !taken;
                        } else if f.storm.fires() {
                            f.storm_left = 7;
                            taken = !taken;
                        } else if f.mispredict.fires() {
                            taken = !taken;
                        }
                    }
                    if taken {
                        target
                    } else {
                        pc + 1
                    }
                }
                Inst::Br { .. } | Inst::Blr { .. } => {
                    let kind = if matches!(inst, Inst::Br { .. }) {
                        IndirectKind::Jump
                    } else {
                        IndirectKind::Call
                    };
                    let ghr = self.pred.gshare.history();
                    match self.pred.btb.predict(pc, ghr) {
                        Some(t) => {
                            let has_bti = self.target_has_bti(t, kind);
                            if self.policy.allow_indirect_speculation(kind, has_bti, true) {
                                if matches!(inst, Inst::Blr { .. }) {
                                    self.pred.rsb.push(pc + 1);
                                }
                                t
                            } else {
                                cfi_stalled = true;
                                usize::MAX
                            }
                        }
                        None => usize::MAX, // stall until resolution
                    }
                }
                Inst::Ret => {
                    // The shadow stack is the *committed* call stack
                    // (SpecCFI's protected structure); the RSB is the
                    // fetch-maintained predictor the attacker can pollute.
                    let shadow_top = self.shadow_stack.last().copied();
                    match self.pred.rsb.pop() {
                        Some(t) => {
                            let rsb_match = shadow_top == Some(t);
                            let has_bti = self.target_has_bti(t, IndirectKind::Return);
                            if self.policy.allow_indirect_speculation(
                                IndirectKind::Return,
                                has_bti,
                                rsb_match,
                            ) {
                                t
                            } else {
                                cfi_stalled = true;
                                usize::MAX
                            }
                        }
                        None => usize::MAX,
                    }
                }
                Inst::Halt => pc, // fetch stops below
                _ => pc + 1,
            };
            self.fetch_queue.push_back(FetchEntry {
                pc,
                inst,
                predicted_next,
                available_at: cycle + self.cfg.front_end_delay,
                cfi_stalled,
                ghr_snapshot,
            });
            self.stats.fetched += 1;
            fetched += 1;
            if matches!(inst, Inst::Halt) {
                self.fetch_pc = None;
                break;
            }
            if predicted_next == usize::MAX {
                // Unpredicted (or CFI-stalled) indirect branch: stop fetching
                // until it resolves.
                self.fetch_pc = None;
                break;
            }
            self.fetch_pc = Some(predicted_next);
        }
    }
}
