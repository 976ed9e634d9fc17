//! The out-of-order core.
//!
//! A cycle-level model of an 8-wide O3 machine (Table 2): fetch follows the
//! branch predictors (wrong-path execution included — the attacks need it),
//! rename captures dataflow, the issue stage respects structural ports and
//! the active [`crate::policy::MitigationPolicy`] hook, loads and
//! stores flow through an LQ/SQ with the paper's two-bit `tcs` field and
//! Tag-check Status Handler, and commit retires in order, raising tag-check
//! faults for unsafe accesses that turn out to be architectural.

mod codec;
mod commit;
mod dispatch;
mod fetch;
mod issue;
mod lsq;
mod quiesce;
mod squash;
mod writeback;

use crate::arena::{Slab, SlotRef, SrcList};
use crate::config::CoreConfig;
use crate::policy::{DelayCause, MitigationPolicy};
use crate::predictor::BranchPredictor;
use crate::stats::CoreStats;
use crate::trace::{Trace, TraceEvent};
use sas_isa::{Flags, Inst, Program, Reg, VirtAddr};
use sas_mem::{FillMode, MemSystem, SimError};
use sas_mte::{IrgRng, TagCheckOutcome};
use sas_oracle::CommitRecord;
use sas_ptest::fault::{FaultPlan, FaultStream, InjectionPoint};
use sas_telemetry::{CpiBucket, Histogram, MetricsRegistry, Timeline};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// Bound on undrained [`CommitRecord`]s held by a core. The lockstep oracle
/// drains every cycle, so the cap only bites when commit recording is on
/// with nobody draining — then the buffer stops growing and
/// `CoreStats::retired_dropped` counts what was lost.
pub const RETIRED_CAP: usize = 1 << 16;

/// The paper's two-bit tag-check status (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tcs {
    /// `00`: allocated, no check started.
    Init,
    /// `11`: request sent, waiting for the outcome.
    Wait,
    /// `01`: check passed (or access unchecked).
    Safe,
    /// `10`: check failed; access blocked until speculation resolves.
    Unsafe,
}

/// Why a core stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// MTE tag-check fault (mismatching access reached the committed path).
    TagCheck,
    /// Permission fault (protected-range access committed).
    Permission,
}

/// Details of a fault that halted the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultInfo {
    /// Kind of fault.
    pub kind: FaultKind,
    /// PC of the faulting instruction.
    pub pc: usize,
    /// Faulting address, if a memory access.
    pub addr: Option<VirtAddr>,
    /// Cycle the fault was raised.
    pub cycle: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UopState {
    /// In the issue queue, not yet executed.
    Waiting,
    /// Executing; result ready at the contained cycle.
    Executing(u64),
    /// Result available.
    Done,
    /// Load blocked by the policy after an unsafe tag check (tcs = Unsafe).
    BlockedUnsafe,
}

#[derive(Debug, Clone)]
struct InFlight {
    seq: u64,
    pc: usize,
    inst: Inst,
    predicted_next: usize,
    state: UopState,
    /// Captured producer seq per source register (None = read arch regfile).
    src_seqs: SrcList,
    flags_src: Option<u64>,
    /// Producers (register or flags) captured at rename that had not yet
    /// completed; decremented as they complete. Zero means every renamed
    /// source can be read — the entry belongs on the ready list.
    unready: u8,
    /// Head of this uop's consumer waiter chain (see [`WaiterNode`]).
    waiter_head: Option<SlotRef>,
    result: Option<u64>,
    flags_out: Option<Flags>,
    // memory
    addr: Option<VirtAddr>,
    width: u64,
    store_value: Option<u64>,
    tcs: Tcs,
    outcome: Option<TagCheckOutcome>,
    faulting: bool,
    fill_mode_used: Option<FillMode>,
    forwarded_from: Option<u64>,
    false_forward: bool,
    // branches
    resolved: bool,
    mispredicted: bool,
    // policy bookkeeping
    taint_root: Option<u64>,
    carried_taint: bool,
    delay_cycles: u64,
    delay_recorded: bool,
    // fetch-time CFI stall marker (indirect target not validated)
    cfi_stalled: bool,
    ghr_snapshot: u64,
}

impl InFlight {
    fn is_load(&self) -> bool {
        self.inst.is_load()
    }
    fn is_store(&self) -> bool {
        self.inst.is_store()
    }
    fn is_branch(&self) -> bool {
        self.inst.is_branch()
    }
    fn is_mem(&self) -> bool {
        self.is_load() || self.is_store()
    }
    fn done(&self) -> bool {
        matches!(self.state, UopState::Done)
    }
}

/// One link of a producer's waiter chain: a consumer waiting for the
/// producer's result, plus the next link. Nodes live in a generational
/// [`Slab`]; the chain of a squashed producer is freed wholesale (all its
/// registered consumers are younger, so they died in the same squash).
#[derive(Debug, Clone, Copy)]
struct WaiterNode {
    consumer: u64,
    next: Option<SlotRef>,
}

/// Inserts `seq` into an ascending seq list (no-op if present).
fn sorted_insert(list: &mut Vec<u64>, seq: u64) {
    if let Err(i) = list.binary_search(&seq) {
        list.insert(i, seq);
    }
}

/// Removes `seq` from an ascending seq list (no-op if absent).
fn sorted_remove(list: &mut Vec<u64>, seq: u64) {
    if let Ok(i) = list.binary_search(&seq) {
        list.remove(i);
    }
}

/// Drops every entry younger than `after_seq` from an ascending seq list.
fn truncate_sorted(list: &mut Vec<u64>, after_seq: u64) {
    let keep = list.partition_point(|&s| s <= after_seq);
    list.truncate(keep);
}

#[derive(Debug, Clone)]
struct FetchEntry {
    pc: usize,
    inst: Inst,
    predicted_next: usize,
    available_at: u64,
    cfi_stalled: bool,
    /// Global-history snapshot at fetch (what the predictors indexed with).
    ghr_snapshot: u64,
}

/// Armed front-end perturbations: forced mispredictions and squash storms
/// drawn from a [`FaultPlan`]. Both are *benign* stressors — they reroute
/// speculation but must never change committed architectural state, which is
/// exactly what the lockstep oracle checks.
#[derive(Debug, Clone)]
struct CoreFaults {
    mispredict: FaultStream,
    storm: FaultStream,
    /// Remaining predictions to invert in the current squash storm.
    storm_left: u32,
}

/// One in-flight micro-op, snapshotted for a crash dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UopDump {
    /// Pipeline sequence number.
    pub seq: u64,
    /// Program counter.
    pub pc: usize,
    /// Disassembly.
    pub inst: String,
    /// Scheduler state (`Waiting`, `Executing(..)`, `Done`, `BlockedUnsafe`).
    pub state: String,
}

/// Snapshot of one core's micro-architectural state at the moment a run
/// aborted — the first thing to read when diagnosing a deadlock or a
/// divergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreDump {
    /// Core id.
    pub id: usize,
    /// Where fetch is pointed (`None` = fetch stopped/stalled).
    pub fetch_pc: Option<usize>,
    /// Instructions committed so far.
    pub committed: u64,
    /// Cycle of the most recent commit.
    pub last_commit_cycle: u64,
    /// ROB occupancy.
    pub rob: usize,
    /// Load-queue occupancy.
    pub lq: usize,
    /// Store-queue occupancy (including draining committed stores).
    pub sq: usize,
    /// Issue-queue occupancy.
    pub iq: usize,
    /// The oldest in-flight micro-ops (the ones blocking commit).
    pub head: Vec<UopDump>,
    /// The youngest in-flight micro-ops.
    pub tail: Vec<UopDump>,
}

/// Deep-telemetry state: per-instruction stage timestamps plus event
/// histograms. Boxed and absent by default, so when telemetry is off every
/// hook site pays a single null check and nothing else.
#[derive(Debug)]
struct CoreTelemetry {
    timeline: Timeline,
    load_latency: Histogram,
    spec_window_depth: Histogram,
    squash_size: Histogram,
    delay_per_cause: [Histogram; DelayCause::COUNT],
}

impl CoreTelemetry {
    fn new(timeline_cap: usize) -> CoreTelemetry {
        CoreTelemetry {
            timeline: Timeline::new(timeline_cap),
            load_latency: Histogram::new(),
            spec_window_depth: Histogram::new(),
            squash_size: Histogram::new(),
            delay_per_cause: std::array::from_fn(|_| Histogram::new()),
        }
    }
}

/// A committed store still draining to the memory system — the store-buffer
/// window Fallout samples.
#[derive(Debug, Clone, Copy)]
struct DrainSlot {
    addr: VirtAddr,
    value: u64,
    data_valid: bool,
    done_at: u64,
}

/// One out-of-order core.
pub struct Core {
    id: usize,
    cfg: CoreConfig,
    program: Arc<Program>,
    policy: Box<dyn MitigationPolicy>,
    pred: BranchPredictor,
    irg: IrgRng,

    // architectural state
    regs: [u64; Reg::COUNT],
    flags: Flags,

    // front end
    fetch_pc: Option<usize>,
    fetch_resume_at: u64,
    fetch_queue: VecDeque<FetchEntry>,
    /// Unbounded shadow of the call stack (SpecCFI's protected structure).
    shadow_stack: Vec<usize>,
    fetch_stalled_on: Option<u64>, // seq of unpredicted indirect branch

    // back end
    rob: VecDeque<InFlight>,
    next_seq: u64,
    rename: Vec<Option<u64>>, // per Reg::index()
    flags_rename: Option<u64>,
    mdu: Vec<u8>, // 2-bit counters; >= 2 -> wait for older stores
    div_busy_until: u64,
    active_barrier: Option<u64>,
    drain_slots: Vec<DrainSlot>,

    // Scheduler index structures. All are derived views of the ROB —
    // maintained incrementally at dispatch/issue/writeback/commit, truncated
    // on squash — that replace the full ROB scans the hot loop used to do.
    // Every list of seqs is kept ascending (dispatch appends in seq order).
    /// (completion cycle, seq) min-heap: one live entry per `Executing` uop.
    /// Entries for squashed or already-written-back uops go stale and are
    /// filtered when popped.
    completion: BinaryHeap<Reverse<(u64, u64)>>,
    /// `Waiting` uops whose renamed producers have all completed (a superset
    /// of the truly issue-ready: a producer may complete without a value,
    /// e.g. a blocked-unsafe load — `sources_ready` stays the final gate).
    ready: Vec<u64>,
    /// Branches not yet written back (`!(resolved && done)`).
    unresolved_branches: Vec<u64>,
    /// Stores (incl. atomics) whose address is still unknown.
    unknown_stores: Vec<u64>,
    /// Memory uops not yet completed (the `FENCE` drain condition).
    pending_mem: Vec<u64>,
    /// `SpecBarrier`s not yet completed.
    pending_barriers: Vec<u64>,
    /// In-flight loads / stores in seq order (LQ/SQ occupancy and the
    /// store-to-load / violation scans).
    load_seqs: VecDeque<u64>,
    store_seqs: VecDeque<u64>,
    /// Uops in `Waiting` state (IQ occupancy).
    waiting_count: usize,
    /// Producer→consumer wakeup chains.
    waiters: Slab<WaiterNode>,
    /// Reused buffers for the per-cycle writeback pop and issue snapshot.
    scratch_due: Vec<u64>,
    scratch_candidates: Vec<u64>,

    trace: Trace,

    // robustness hooks
    faults: Option<CoreFaults>,
    record_commits: bool,
    retired: Vec<CommitRecord>,

    // outcome
    finished: bool,
    fault: Option<FaultInfo>,
    /// A permission fault detected at the head, halting at the given cycle —
    /// the transient window during which dependents keep executing.
    pending_fault: Option<(FaultInfo, u64)>,
    last_commit_cycle: u64,

    // CPI attribution (always on — two words of state per cycle)
    /// First mitigation delay charged this cycle; cleared every tick.
    cycle_delay: Option<DelayCause>,
    /// End of the current squash-recovery window (redirect + refill).
    recover_until: u64,
    /// Deep telemetry (stage timestamps, histograms); off by default.
    telemetry: Option<Box<CoreTelemetry>>,

    /// Statistics.
    pub stats: CoreStats,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("policy", &self.policy.name())
            .field("finished", &self.finished)
            .field("committed", &self.stats.committed)
            .finish()
    }
}

impl Core {
    /// Creates a core running `program` under `policy`.
    pub fn new(
        id: usize,
        cfg: CoreConfig,
        program: Arc<Program>,
        policy: Box<dyn MitigationPolicy>,
    ) -> Core {
        let entry = program.entry();
        Core {
            id,
            cfg,
            program,
            policy,
            pred: BranchPredictor::new(&cfg),
            irg: IrgRng::seeded(0xC0FE + id as u64),
            regs: [0; Reg::COUNT],
            flags: Flags::default(),
            fetch_pc: Some(entry),
            fetch_resume_at: 0,
            fetch_queue: VecDeque::new(),
            shadow_stack: Vec::new(),
            fetch_stalled_on: None,
            rob: VecDeque::new(),
            next_seq: 1,
            rename: vec![None; Reg::COUNT],
            flags_rename: None,
            mdu: vec![0; cfg.mdu_entries.max(1)],
            div_busy_until: 0,
            active_barrier: None,
            drain_slots: Vec::new(),
            completion: BinaryHeap::new(),
            ready: Vec::new(),
            unresolved_branches: Vec::new(),
            unknown_stores: Vec::new(),
            pending_mem: Vec::new(),
            pending_barriers: Vec::new(),
            load_seqs: VecDeque::new(),
            store_seqs: VecDeque::new(),
            waiting_count: 0,
            waiters: Slab::new(),
            scratch_due: Vec::new(),
            scratch_candidates: Vec::new(),
            trace: Trace::default(),
            faults: None,
            record_commits: false,
            retired: Vec::new(),
            finished: false,
            fault: None,
            pending_fault: None,
            last_commit_cycle: 0,
            cycle_delay: None,
            recover_until: 0,
            telemetry: None,
            stats: CoreStats::default(),
        }
    }

    /// Core id (also its index into the memory system).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Sets an architectural register before the run.
    pub fn set_reg(&mut self, reg: Reg, value: u64) {
        if !reg.is_zero() {
            self.regs[reg.index()] = value;
        }
    }

    /// Reads an architectural register.
    pub fn reg(&self, reg: Reg) -> u64 {
        if reg.is_zero() {
            0
        } else {
            self.regs[reg.index()]
        }
    }

    /// Whether the core halted (HALT committed or fault raised).
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// The fault that halted the core, if any.
    pub fn fault(&self) -> Option<&FaultInfo> {
        self.fault.as_ref()
    }

    /// Name of the active mitigation policy.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Enables structured event tracing, keeping up to `cap` events.
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace.enable(cap);
    }

    /// The recorded trace (empty unless [`Core::enable_trace`] was called).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Arms the front-end injection points ([`InjectionPoint::ForceMispredict`]
    /// and [`InjectionPoint::SquashStorm`]) from `plan`.
    pub fn arm_faults(&mut self, plan: &FaultPlan) {
        self.faults = Some(CoreFaults {
            mispredict: plan.stream(InjectionPoint::ForceMispredict),
            storm: plan.stream(InjectionPoint::SquashStorm),
            storm_left: 0,
        });
    }

    /// Number of front-end perturbations injected so far.
    pub fn fault_injections(&self) -> u64 {
        self.faults
            .as_ref()
            .map_or(0, |f| f.mispredict.injected() + f.storm.injected())
    }

    /// Makes commit build a [`CommitRecord`] per retired instruction, to be
    /// drained with [`Core::take_retired`] (the lockstep-oracle feed).
    pub fn set_record_commits(&mut self, on: bool) {
        self.record_commits = on;
    }

    /// Drains the commit records accumulated since the last call.
    pub fn take_retired(&mut self) -> Vec<CommitRecord> {
        std::mem::take(&mut self.retired)
    }

    /// The program this core runs.
    pub fn program(&self) -> Arc<Program> {
        Arc::clone(&self.program)
    }

    /// Snapshot of the architectural register file.
    pub fn arch_regs(&self) -> [u64; Reg::COUNT] {
        self.regs
    }

    /// The architectural NZCV flags.
    pub fn arch_flags(&self) -> Flags {
        self.flags
    }

    /// The pc the first instruction will commit from.
    pub fn start_pc(&self) -> usize {
        self.program.entry()
    }

    /// Whether the active policy raises architectural MTE faults at commit.
    pub fn enforces_mte(&self) -> bool {
        self.policy.enforces_mte_at_commit()
    }

    /// Snapshots the core for a crash dump.
    pub fn dump(&self, cycle: u64) -> CoreDump {
        let uop = |u: &InFlight| UopDump {
            seq: u.seq,
            pc: u.pc,
            inst: u.inst.to_string(),
            state: if u.is_mem() {
                format!("{:?}/{:?}", u.state, u.tcs)
            } else {
                format!("{:?}", u.state)
            },
        };
        let head: Vec<UopDump> = self.rob.iter().take(4).map(uop).collect();
        let tail: Vec<UopDump> =
            if self.rob.len() > 8 { self.rob.iter().rev().take(4).rev().map(uop).collect() } else {
                self.rob.iter().skip(head.len()).map(uop).collect()
            };
        CoreDump {
            id: self.id,
            fetch_pc: self.fetch_pc,
            committed: self.stats.committed,
            last_commit_cycle: self.last_commit_cycle,
            rob: self.rob.len(),
            lq: self.lq_occupancy(),
            sq: self.sq_occupancy(cycle),
            iq: self.iq_occupancy(),
            head,
            tail,
        }
    }

    // ------------------------------------------------------------------
    // helpers
    // ------------------------------------------------------------------

    /// ROB position of `seq`. Seqs are allocated monotonically and the ROB
    /// retires/squashes without reordering, so it is always sorted by seq —
    /// a binary search replaces the old linear scan. Never-reused seqs also
    /// make this a generation check: a stale seq simply misses.
    fn rob_index(&self, seq: u64) -> Option<usize> {
        self.rob.binary_search_by(|u| u.seq.cmp(&seq)).ok()
    }

    fn find(&self, seq: u64) -> Option<&InFlight> {
        self.rob_index(seq).map(|i| &self.rob[i])
    }

    /// Is there an unresolved branch older than `seq`? A branch counts as
    /// resolved only once its execution has completed (writeback) — the
    /// outcome computed at execute becomes visible to younger instructions
    /// no earlier than the squash a misprediction would trigger.
    fn has_older_unresolved_branch(&self, seq: u64) -> bool {
        self.unresolved_branches.first().is_some_and(|&b| b < seq)
    }

    /// Is there an older store with an unknown address?
    fn has_older_unknown_store(&self, seq: u64) -> bool {
        self.unknown_stores.first().is_some_and(|&s| s < seq)
    }

    // ------------------------------------------------------------------
    // the cycle
    // ------------------------------------------------------------------

    /// Advances the core by one cycle against the shared memory system.
    ///
    /// # Errors
    ///
    /// A broken internal invariant (possibly provoked by an armed
    /// [`FaultPlan`]) surfaces as a [`SimError`] instead of a panic; the
    /// driver turns it into `RunExit::Error` with a crash dump attached.
    pub fn tick(&mut self, mem: &mut MemSystem, cycle: u64) -> Result<(), SimError> {
        if self.finished {
            return Ok(());
        }
        self.cycle_delay = None;
        let committed_before = self.stats.committed;
        let r = self.tick_inner(mem, cycle);
        // Every counted cycle — including the pending-fault drain — gets
        // exactly one CPI bucket, so the stack always sums to `cycles`.
        self.attribute_cycle(cycle, committed_before);
        r
    }

    fn tick_inner(&mut self, mem: &mut MemSystem, cycle: u64) -> Result<(), SimError> {
        self.stats.cycles = cycle + 1;
        if let Some((info, halt_at)) = self.pending_fault {
            if cycle >= halt_at {
                self.trace.emit(TraceEvent::Fault { cycle, pc: info.pc });
                self.fault = Some(info);
                self.finished = true;
                return Ok(());
            }
        }
        self.commit(cycle, mem)?;
        if self.finished {
            return Ok(());
        }
        self.writeback(cycle, mem);
        self.issue(cycle, mem)?;
        self.dispatch(cycle);
        self.fetch(cycle);
        self.stats.predictor = self.pred.stats;
        Ok(())
    }

    /// Attributes the cycle that just ran to exactly one CPI bucket.
    ///
    /// Priority: commits beat everything (the machine did useful work);
    /// then a charged mitigation delay (which also pays one cycle into
    /// `stats.delay_cycles`, keeping the mitigation bucket equal to
    /// `total_delay_cycles()`); then a TSH unsafe-block or memory wait at
    /// the ROB head; an empty window classifies as mispredict recovery or
    /// fetch starvation; anything else (dependency chains, port conflicts,
    /// multi-cycle ALU work) counts as base.
    fn attribute_cycle(&mut self, cycle: u64, committed_before: u64) {
        let bucket = if self.stats.committed > committed_before {
            CpiBucket::Base
        } else if let Some(cause) = self.cycle_delay {
            self.stats.delay_cycles.add(cause, 1);
            CpiBucket::MitigationDelay(cause.index())
        } else if let Some(head) = self.rob.front() {
            if matches!(head.state, UopState::BlockedUnsafe) {
                CpiBucket::TshUnsafeBlock
            } else if head.is_mem()
                && (matches!(head.state, UopState::Executing(done) if done > cycle)
                    || head.tcs == Tcs::Wait)
            {
                CpiBucket::MemoryBound
            } else {
                CpiBucket::Base
            }
        } else if cycle < self.recover_until {
            CpiBucket::MispredictRecovery
        } else {
            CpiBucket::FetchStall
        };
        self.stats.cpi.add(bucket, 1);
    }

    /// Cycle of the most recent commit (deadlock diagnostics).
    pub fn last_commit_cycle(&self) -> u64 {
        self.last_commit_cycle
    }

    /// Number of in-flight instructions (test hook).
    pub fn rob_occupancy(&self) -> usize {
        self.rob.len()
    }

    /// Load-queue occupancy (gauge sampling).
    pub fn lq_len(&self) -> usize {
        self.lq_occupancy()
    }

    /// Store-queue occupancy, including draining committed stores.
    pub fn sq_len(&self, cycle: u64) -> usize {
        self.sq_occupancy(cycle)
    }

    /// Issue-queue occupancy (uops waiting to issue).
    pub fn iq_len(&self) -> usize {
        self.iq_occupancy()
    }

    /// Accesses parked *unsafe* in the Tag-check Status Handler, waiting
    /// for speculation to resolve.
    pub fn tsh_pending(&self) -> usize {
        self.rob.iter().filter(|u| matches!(u.state, UopState::BlockedUnsafe)).count()
    }

    /// Enables deep telemetry: per-instruction stage timestamps (up to
    /// `timeline_cap` instructions) and event histograms. Off by default;
    /// when off, the hook sites cost one null check each.
    pub fn enable_telemetry(&mut self, timeline_cap: usize) {
        self.telemetry = Some(Box::new(CoreTelemetry::new(timeline_cap)));
    }

    /// The per-instruction stage timeline, when telemetry is enabled.
    pub fn timeline(&self) -> Option<&Timeline> {
        self.telemetry.as_deref().map(|t| &t.timeline)
    }

    /// Exports this core's counters, delay tables, CPI stack and — when
    /// deep telemetry is enabled — histograms, under `pipeline.core<id>.*`.
    /// Delay and CPI keys cover every [`DelayCause`] (zeros included) so
    /// the metrics schema is identical across mitigations.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        let p = format!("pipeline.core{}", self.id);
        let s = &self.stats;
        reg.counter(format!("{p}.cycles"), s.cycles);
        reg.counter(format!("{p}.committed"), s.committed);
        reg.counter(format!("{p}.fetched"), s.fetched);
        reg.counter(format!("{p}.squashed"), s.squashed);
        reg.counter(format!("{p}.squash_events"), s.squash_events);
        reg.counter(format!("{p}.order_violations"), s.order_violations);
        reg.counter(format!("{p}.restricted_committed"), s.restricted_committed);
        reg.counter(format!("{p}.tainted_committed"), s.tainted_committed);
        reg.counter(format!("{p}.loads_committed"), s.loads_committed);
        reg.counter(format!("{p}.stores_committed"), s.stores_committed);
        reg.counter(format!("{p}.tag_faults"), s.tag_faults);
        reg.counter(format!("{p}.arch_faults"), s.arch_faults);
        reg.counter(format!("{p}.stl_forwards"), s.stl_forwards);
        reg.counter(format!("{p}.stl_blocked"), s.stl_blocked);
        reg.counter(format!("{p}.unsafe_spec_accesses"), s.unsafe_spec_accesses);
        reg.counter(format!("{p}.retired_dropped"), s.retired_dropped);
        reg.counter(format!("{p}.trace_dropped_events"), self.trace.dropped_events());
        reg.counter(format!("{p}.predictor.cond_predictions"), s.predictor.cond_predictions);
        reg.counter(format!("{p}.predictor.cond_mispredicts"), s.predictor.cond_mispredicts);
        reg.counter(
            format!("{p}.predictor.indirect_predictions"),
            s.predictor.indirect_predictions,
        );
        reg.counter(
            format!("{p}.predictor.indirect_mispredicts"),
            s.predictor.indirect_mispredicts,
        );
        reg.counter(format!("{p}.predictor.return_predictions"), s.predictor.return_predictions);
        reg.counter(format!("{p}.predictor.return_mispredicts"), s.predictor.return_mispredicts);
        for c in DelayCause::ALL {
            reg.counter(format!("{p}.delay_cycles.{}", c.name()), s.delay_cycles[c]);
            reg.counter(format!("{p}.delay_events.{}", c.name()), s.delay_events[c]);
        }
        reg.counter(format!("{p}.cpi.base"), s.cpi.base);
        reg.counter(format!("{p}.cpi.fetch_stall"), s.cpi.fetch_stall);
        reg.counter(format!("{p}.cpi.mispredict_recovery"), s.cpi.mispredict_recovery);
        reg.counter(format!("{p}.cpi.memory_bound"), s.cpi.memory_bound);
        reg.counter(format!("{p}.cpi.tsh_unsafe_block"), s.cpi.tsh_unsafe_block);
        for c in DelayCause::ALL {
            reg.counter(format!("{p}.cpi.mitigation.{}", c.name()), s.cpi.mitigation[c.index()]);
        }
        if let Some(t) = self.telemetry.as_deref() {
            reg.counter(format!("{p}.timeline_dropped"), t.timeline.dropped());
            reg.histogram(format!("{p}.hist.load_latency"), &t.load_latency);
            reg.histogram(format!("{p}.hist.spec_window_depth"), &t.spec_window_depth);
            reg.histogram(format!("{p}.hist.squash_size"), &t.squash_size);
            for c in DelayCause::ALL {
                reg.histogram(
                    format!("{p}.hist.delay.{}", c.name()),
                    &t.delay_per_cause[c.index()],
                );
            }
        }
    }
}
