//! The GhostMinion baseline.

use sas_mem::FillMode;
use sas_pipeline::{IssueDecision, LoadIssueCtx, MitigationPolicy};

/// GhostMinion (Ainsworth, MICRO'21), the paper's shadow-structure baseline.
///
/// Speculative loads execute immediately, but their cache fills land in a
/// small per-core *ghost* buffer invisible to the committed hierarchy. When
/// the load commits, its line is promoted into the L1; when it is squashed,
/// the ghost entry is dropped, leaving no trace. (The strictness-ordering
/// "timeguarding" of the original design is not modelled; its cost is
/// subsumed by ghost-buffer capacity misses and promotion traffic.)
///
/// Overhead comes from ghost-buffer capacity (speculative reuse misses) and
/// the extra cycle on ghost hits — small, matching the paper's observation
/// that GhostMinion and SpecASan perform similarly (Figure 6).
#[derive(Debug, Clone, Copy, Default)]
pub struct GhostMinionPolicy;

impl MitigationPolicy for GhostMinionPolicy {
    fn name(&self) -> &'static str {
        "ghostminion"
    }

    fn on_load_issue(&self, ctx: &LoadIssueCtx) -> IssueDecision {
        if ctx.spec_branch || ctx.spec_mdu {
            IssueDecision::Proceed(FillMode::Ghost)
        } else {
            IssueDecision::Proceed(FillMode::Install)
        }
    }
}
