//! The Speculative Taint Tracking (STT) baseline.

use sas_mem::FillMode;
use sas_pipeline::{DelayCause, IssueDecision, LoadIssueCtx, MitigationPolicy};

/// STT (Yu et al., MICRO'19), the paper's dynamic information-flow baseline.
///
/// *Access* instructions (speculative loads) execute freely, but their
/// results are tainted; *transmit* instructions — loads/stores whose address
/// depends on tainted data, and branches with tainted conditions — are
/// delayed until the source load reaches its visibility point (all older
/// control and memory dependences resolved). This is the STT-Default
/// variant; STT-Future (register taint) is excluded, as in the paper's
/// evaluation (§5.1).
///
/// Taint propagation itself is performed by the pipeline's dataflow tracker
/// (`taint_root`); this policy just switches it on and supplies the delay
/// decisions.
#[derive(Debug, Clone, Copy, Default)]
pub struct SttPolicy;

impl MitigationPolicy for SttPolicy {
    fn name(&self) -> &'static str {
        "stt"
    }

    fn on_load_issue(&self, ctx: &LoadIssueCtx) -> IssueDecision {
        if ctx.addr_tainted {
            IssueDecision::Delay(DelayCause::TaintedAddress)
        } else {
            IssueDecision::Proceed(FillMode::Install)
        }
    }

    fn taints_speculative_loads(&self) -> bool {
        true
    }
}
