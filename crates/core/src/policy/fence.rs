//! The speculative-barrier (fence) baseline.

use sas_mem::FillMode;
use sas_pipeline::{DelayCause, IssueDecision, LoadIssueCtx, MitigationPolicy};

/// Conservative barrier defense: a fence after every branch — *nothing*
/// executes under an unresolved branch, and loads additionally wait out
/// memory-dependence windows (Figure 1, "delay ACCESS"; the "Speculative
/// Barriers" bars of Figures 6–8). As §2.1 notes, this "sometimes even
/// translates to disabling the speculative execution entirely".
///
/// Strongest security of the delay-based designs, and by far the slowest.
#[derive(Debug, Clone, Copy, Default)]
pub struct FencePolicy;

impl MitigationPolicy for FencePolicy {
    fn name(&self) -> &'static str {
        "spec-barriers"
    }

    fn on_load_issue(&self, ctx: &LoadIssueCtx) -> IssueDecision {
        if ctx.spec_branch || ctx.spec_mdu {
            IssueDecision::Delay(DelayCause::BarrierSpecLoad)
        } else {
            IssueDecision::Proceed(FillMode::Install)
        }
    }

    fn blocks_full_speculation(&self) -> bool {
        true
    }
}
