//! The SpecCFI baseline.

use sas_pipeline::{IndirectKind, MitigationPolicy};

/// SpecCFI (Koruyeh et al., S&P'20): control-flow-integrity-informed
/// speculation, realised here with ARM BTI landing pads standing in for
/// Intel CET's `endbranch` (§5.1).
///
/// Fetch may only speculate past an indirect jump/call if the predicted
/// target carries a landing pad of the right kind, and past a `RET` only if
/// the RSB prediction agrees with the protected shadow stack. Otherwise the
/// front end stalls until the branch resolves — closing the
/// attacker-controlled-gadget redirection that Spectre-BTB/RSB/BHB rely on.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpecCfiPolicy;

impl MitigationPolicy for SpecCfiPolicy {
    fn name(&self) -> &'static str {
        "speccfi"
    }

    fn allow_indirect_speculation(
        &self,
        kind: IndirectKind,
        target_has_bti: bool,
        rsb_match: bool,
    ) -> bool {
        match kind {
            IndirectKind::Jump | IndirectKind::Call => target_has_bti,
            IndirectKind::Return => rsb_match,
        }
    }
}
