//! SpecASan + SpecCFI: the paper's combined design.

use crate::policy::cfi::SpecCfiPolicy;
use crate::policy::specasan::SpecAsanPolicy;
use sas_isa::TagNibble;
use sas_pipeline::{
    IndirectKind, IssueDecision, LoadIssueCtx, LoadRespCtx, MitigationPolicy, RespDecision,
};

/// SpecASan with CFI-informed control-flow speculation (§4.2): memory safety
/// for the data path *and* validated speculative control flow, covering the
/// Spectre-BTB/RSB/BHB variants SpecASan alone only partially mitigates
/// (Table 1's right-most column; Figure 9's "SpecASan+CFI" bars).
///
/// The data-path hooks are [`SpecAsanPolicy`]'s, the control-flow hook is
/// [`SpecCfiPolicy`]'s.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpecAsanCfiPolicy;

impl MitigationPolicy for SpecAsanCfiPolicy {
    fn name(&self) -> &'static str {
        "specasan+cfi"
    }

    fn on_load_issue(&self, ctx: &LoadIssueCtx) -> IssueDecision {
        SpecAsanPolicy.on_load_issue(ctx)
    }

    fn on_load_response(&self, ctx: &LoadRespCtx) -> RespDecision {
        SpecAsanPolicy.on_load_response(ctx)
    }

    fn allow_stl_forward(&self, load_key: TagNibble, store_key: TagNibble) -> bool {
        SpecAsanPolicy.allow_stl_forward(load_key, store_key)
    }

    fn holds_tagged_mdu_results(&self) -> bool {
        SpecAsanPolicy.holds_tagged_mdu_results()
    }

    fn allow_indirect_speculation(
        &self,
        kind: IndirectKind,
        target_has_bti: bool,
        rsb_match: bool,
    ) -> bool {
        SpecCfiPolicy.allow_indirect_speculation(kind, target_has_bti, rsb_match)
    }
}
