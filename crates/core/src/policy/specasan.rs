//! The SpecASan policy — the paper's mechanism.

use sas_isa::TagNibble;
use sas_mem::FillMode;
use sas_mte::TagCheckOutcome;
use sas_pipeline::{IssueDecision, LoadIssueCtx, LoadRespCtx, MitigationPolicy, RespDecision};

/// Speculative Address Sanitization (§3).
///
/// The defining property is *selective delay*: every speculative access is
/// allowed to issue immediately — the tag check rides along with the access
/// and is performed at the earliest level that can resolve it (L1, LFB, L2
/// or the memory controller). Only when the check reports a mismatch does
/// the access stall:
///
/// * the memory system withholds the data and performs **no fills at any
///   level** ([`FillMode::SuppressIfUnsafe`], §3.3.4);
/// * the LSQ entry's `tcs` moves to *unsafe* and the ROB is notified
///   (`SSA = 0`), stalling the load and (through dataflow) every dependent
///   instruction until speculation resolves (Figure 4);
/// * store-to-load forwarding requires matching address tags
///   (§3.4 "Store-to-Load Forwarding");
/// * if speculation resolves in the access's favour, a tag-check fault is
///   raised — the access was a genuine memory-safety violation; if it was a
///   misprediction, the squash erases the access without a trace.
///
/// The core counts what the policy caused: `unsafe_spec_accesses` and the
/// `UnsafeAccessWait` delay rows for blocked accesses, `stl_blocked` for
/// refused forwards.
///
/// ```
/// use specasan::SpecAsanPolicy;
/// use sas_pipeline::MitigationPolicy;
/// assert_eq!(SpecAsanPolicy.name(), "specasan");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SpecAsanPolicy;

impl MitigationPolicy for SpecAsanPolicy {
    fn name(&self) -> &'static str {
        "specasan"
    }

    fn on_load_issue(&self, _ctx: &LoadIssueCtx) -> IssueDecision {
        // Never delay up front — the selective-delay decision is made by the
        // tag check travelling with the access. (Tagged loads under
        // memory-dependence speculation issue too — §4.1: "a memory access
        // request is issued to verify the address tag" — but their *results*
        // are held until the SQ resolves; see
        // [`MitigationPolicy::holds_tagged_mdu_results`].)
        IssueDecision::Proceed(FillMode::SuppressIfUnsafe)
    }

    fn holds_tagged_mdu_results(&self) -> bool {
        true
    }

    fn on_load_response(&self, ctx: &LoadRespCtx) -> RespDecision {
        match ctx.outcome {
            // tcs -> unsafe, SSA = 0: wait for speculation to resolve.
            TagCheckOutcome::Unsafe => RespDecision::Block,
            _ => RespDecision::Forward,
        }
    }

    fn allow_stl_forward(&self, load_key: TagNibble, store_key: TagNibble) -> bool {
        // Forwarding only between identically-tagged accesses; an untagged
        // load may consume an untagged store.
        load_key == store_key
    }
}
