//! The mitigation-policy hook interface.
//!
//! The pipeline is mitigation-agnostic: at every decision point a transient
//! execution defense could intervene — load issue, load response,
//! store-to-load forwarding, indirect-branch speculation — it consults an
//! object-safe [`MitigationPolicy`], plus four capability flags. Policies
//! are stateless: every hook takes `&self`. The concrete policies (SpecASan,
//! fences, STT, GhostMinion, SpecCFI, …) live in the `specasan` crate; this
//! module only defines the vocabulary plus the unprotected [`NoPolicy`] and
//! MTE-only [`MteOnlyPolicy`] baselines.

use sas_isa::TagNibble;
use sas_mem::FillMode;
use sas_mte::TagCheckOutcome;

/// Why an instruction was delayed by the active mitigation. Used for the
/// restriction accounting behind Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DelayCause {
    /// A speculative load held back until older branches resolve (fences).
    BarrierSpecLoad,
    /// A load whose address operand is tainted (STT transmitter delay).
    TaintedAddress,
    /// A branch with a tainted condition (STT implicit-channel delay).
    TaintedBranch,
    /// SpecASan: a tag-mismatching speculative access waiting for
    /// speculation to resolve.
    UnsafeAccessWait,
    /// Store-to-load forwarding refused because address tags mismatched.
    ForwardBlocked,
    /// SpecCFI: fetch past an unvalidated indirect target stalled.
    CfiIndirectStall,
    /// Memory-dependence predictor said "wait for older stores".
    MemDepWait,
    /// SpecASan: a *tagged* load under memory-dependence speculation waits
    /// for the SQ to resolve older store addresses (§4.1, Spectre-STL).
    TaggedMduWait,
    /// An explicit speculation-barrier instruction.
    ExplicitBarrier,
}

impl DelayCause {
    /// Number of variants (the width of [`crate::stats::DelayTable`] and of
    /// the CPI stack's mitigation sub-buckets).
    pub const COUNT: usize = 9;

    /// Every variant, in declaration order — the canonical cause axis for
    /// delay tables, CPI stacks and exported metric names.
    pub const ALL: [DelayCause; DelayCause::COUNT] = [
        DelayCause::BarrierSpecLoad,
        DelayCause::TaintedAddress,
        DelayCause::TaintedBranch,
        DelayCause::UnsafeAccessWait,
        DelayCause::ForwardBlocked,
        DelayCause::CfiIndirectStall,
        DelayCause::MemDepWait,
        DelayCause::TaggedMduWait,
        DelayCause::ExplicitBarrier,
    ];

    /// Dense index of this cause in [`DelayCause::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable display name (matches the `Debug` rendering).
    pub fn name(self) -> &'static str {
        match self {
            DelayCause::BarrierSpecLoad => "BarrierSpecLoad",
            DelayCause::TaintedAddress => "TaintedAddress",
            DelayCause::TaintedBranch => "TaintedBranch",
            DelayCause::UnsafeAccessWait => "UnsafeAccessWait",
            DelayCause::ForwardBlocked => "ForwardBlocked",
            DelayCause::CfiIndirectStall => "CfiIndirectStall",
            DelayCause::MemDepWait => "MemDepWait",
            DelayCause::TaggedMduWait => "TaggedMduWait",
            DelayCause::ExplicitBarrier => "ExplicitBarrier",
        }
    }

    /// Inverse of [`DelayCause::name`].
    pub fn from_name(name: &str) -> Option<DelayCause> {
        DelayCause::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// Everything a policy may inspect when a load wants to issue to memory.
#[derive(Debug, Clone, Copy)]
pub struct LoadIssueCtx {
    /// An older unresolved branch exists (branch speculation window).
    pub spec_branch: bool,
    /// The load bypassed an older store with an unresolved address (memory
    /// dependence speculation window).
    pub spec_mdu: bool,
    /// The address operand derives from a still-speculative load (taint).
    pub addr_tainted: bool,
    /// Address tag carried by the pointer.
    pub key: TagNibble,
}

/// Verdict for a load that wants to access memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueDecision {
    /// Issue now, mutating timing state per the given fill mode.
    Proceed(FillMode),
    /// Hold the load; the core retries next cycle and charges the delay to
    /// `cause`.
    Delay(DelayCause),
}

/// Everything a policy may inspect when a load's memory response returns.
#[derive(Debug, Clone, Copy)]
pub struct LoadRespCtx {
    /// Tag-check outcome reported by the memory system.
    pub outcome: TagCheckOutcome,
}

/// Verdict for a returned load response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RespDecision {
    /// Result becomes visible to dependents.
    Forward,
    /// SpecASan-style block: the load produces no result; its `tcs` goes to
    /// *unsafe* and it waits for speculation to resolve (fault or squash).
    Block,
}

/// Kind of indirect control transfer, for CFI hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndirectKind {
    /// `BR` (indirect jump).
    Jump,
    /// `BLR` (indirect call).
    Call,
    /// `RET`.
    Return,
}

/// A transient-execution mitigation, consulted by the pipeline.
///
/// A policy is a pure function of its inputs: every method takes `&self`
/// and no policy holds state, so a policy never appears in a snapshot and
/// any image restores under any policy. What a policy caused is counted by
/// the core (`CoreStats::delay_events`, `delay_cycles`, `stl_blocked`,
/// `unsafe_spec_accesses`).
///
/// The default method bodies implement the unprotected baseline, so a policy
/// only overrides the decision points it cares about.
pub trait MitigationPolicy {
    /// Short display name (used in reports).
    fn name(&self) -> &'static str;

    /// May this load issue to memory now, and under which fill mode?
    fn on_load_issue(&self, _ctx: &LoadIssueCtx) -> IssueDecision {
        IssueDecision::Proceed(FillMode::Install)
    }

    /// The memory response arrived; may its data be forwarded to dependents?
    fn on_load_response(&self, _ctx: &LoadRespCtx) -> RespDecision {
        RespDecision::Forward
    }

    /// May the SQ forward a store carrying `store_key` to a load carrying
    /// `load_key`?
    fn allow_stl_forward(&self, _load_key: TagNibble, _store_key: TagNibble) -> bool {
        true
    }

    /// May fetch speculate past an indirect branch to a predicted target?
    /// `target_has_bti` reports whether the predicted target carries a
    /// landing pad valid for `kind`; `rsb_match` whether a `RET` target
    /// matches the shadow stack (SpecCFI).
    fn allow_indirect_speculation(
        &self,
        _kind: IndirectKind,
        _target_has_bti: bool,
        _rsb_match: bool,
    ) -> bool {
        true
    }

    /// Whether the architectural MTE check applies to committed accesses
    /// (false only for the unprotected no-MTE baseline).
    fn enforces_mte_at_commit(&self) -> bool {
        true
    }

    /// Whether a *tagged* load that bypassed stores with unresolved
    /// addresses must hold its result until those addresses resolve
    /// (SpecASan's Spectre-STL rule, §4.1). The access itself — and its tag
    /// verification — proceed in parallel, so the hold overlaps the load's
    /// own latency.
    fn holds_tagged_mdu_results(&self) -> bool {
        false
    }

    /// Whether *no* instruction may execute under an unresolved branch —
    /// full fence-after-every-branch serialization (the strictest ACCESS
    /// delay of Figure 1, "sometimes ... disabling the speculative
    /// execution entirely").
    fn blocks_full_speculation(&self) -> bool {
        false
    }

    /// Whether results of speculative loads are tainted and tracked through
    /// dataflow (STT). A tainting policy also holds every branch whose
    /// operand is tainted until the taint clears (STT's implicit-channel
    /// protection).
    fn taints_speculative_loads(&self) -> bool {
        false
    }
}

/// The unprotected baseline: speculate freely, never check tags.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPolicy;

impl MitigationPolicy for NoPolicy {
    fn name(&self) -> &'static str {
        "unsafe-baseline"
    }

    fn enforces_mte_at_commit(&self) -> bool {
        false
    }
}

/// Plain ARM MTE: architectural checks on the committed path only; no
/// speculative protection. (The paper's "ARM MTE" hardware baseline.)
#[derive(Debug, Clone, Copy, Default)]
pub struct MteOnlyPolicy;

impl MitigationPolicy for MteOnlyPolicy {
    fn name(&self) -> &'static str {
        "arm-mte"
    }
}
