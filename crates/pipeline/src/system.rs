//! The multi-core simulation driver.
//!
//! Besides stepping cores against the shared memory hierarchy, the driver
//! hosts the robustness machinery: a lockstep [`Oracle`] validating every
//! retired instruction, deterministic fault injection armed from a
//! [`FaultPlan`], and [`CrashDump`] diagnostics attached to every abnormal
//! exit.

use crate::config::CoreConfig;
use crate::core::{Core, CoreDump, FaultInfo, FaultKind};
use crate::policy::MitigationPolicy;
use crate::stats::CoreStats;
use sas_isa::Program;
use sas_mem::{MemConfig, MemSystem, MemSystemStats, MshrEntry, SimError};
use sas_oracle::{Divergence, FaultClass, Oracle};
use sas_ptest::FaultPlan;
use sas_telemetry::{CpiStack, GaugeSeries, MetricsRegistry, Timeline};
use std::fmt;
use std::sync::Arc;

/// Why a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunExit {
    /// Every core committed its `HALT`.
    Halted,
    /// A core faulted (tag-check or permission); the fault is attached.
    Faulted(FaultInfo),
    /// The cycle budget was exhausted first.
    CycleLimit,
    /// No core committed anything for the deadlock window — a simulator or
    /// program bug; the crash dump shows what everything was stuck on.
    Deadlock(Box<CrashDump>),
    /// The lockstep oracle caught the pipeline committing wrong
    /// architectural state (see [`System::enable_oracle`]).
    Divergence(Box<Divergence>),
    /// A simulator invariant broke; reported instead of panicking.
    Error(SimError),
}

impl RunExit {
    /// Stable lowercase tag naming how the run ended: the `exit` field of
    /// result records, manifest signatures and chaos outcomes.
    pub fn tag(&self) -> &'static str {
        match self {
            RunExit::Halted => "halted",
            RunExit::Faulted(_) => "faulted",
            RunExit::CycleLimit => "cycle_limit",
            RunExit::Deadlock(_) => "deadlock",
            RunExit::Divergence(_) => "divergence",
            RunExit::Error(_) => "error",
        }
    }
}

/// Micro-architectural post-mortem attached to abnormal exits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashDump {
    /// Cycle the run aborted.
    pub cycle: u64,
    /// Per-core pipeline snapshots.
    pub cores: Vec<CoreDump>,
    /// Outstanding MSHR entries per file (`"l1[0]"`, `"l2"`, ...).
    pub mshrs: Vec<(String, Vec<MshrEntry>)>,
    /// `describe()` of the armed fault plan, if any — everything needed to
    /// replay the failure from its seed.
    pub fault_plan: Option<String>,
}

impl fmt::Display for CrashDump {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "crash dump at cycle {}", self.cycle)?;
        for c in &self.cores {
            writeln!(
                f,
                "  core {}: committed {} (last at cycle {}), fetch_pc {:?}, rob {} lq {} sq {} iq {}",
                c.id, c.committed, c.last_commit_cycle, c.fetch_pc, c.rob, c.lq, c.sq, c.iq
            )?;
            for u in &c.head {
                writeln!(
                    f,
                    "    head seq {} pc {} `{}` [{}]",
                    u.seq, u.pc, u.inst, u.state
                )?;
            }
            for u in &c.tail {
                writeln!(
                    f,
                    "    tail seq {} pc {} `{}` [{}]",
                    u.seq, u.pc, u.inst, u.state
                )?;
            }
        }
        for (name, entries) in &self.mshrs {
            if !entries.is_empty() {
                writeln!(f, "  mshr {name}: {entries:?}")?;
            }
        }
        match &self.fault_plan {
            Some(p) => write!(f, "  fault plan: {p}"),
            None => write!(f, "  fault plan: none"),
        }
    }
}

/// Result of [`System::run`].
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Exit condition.
    pub exit: RunExit,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Per-core statistics.
    pub core_stats: Vec<CoreStats>,
    /// Memory-system statistics.
    pub mem_stats: MemSystemStats,
    /// Pipeline post-mortem for abnormal exits (`Faulted`, `Deadlock`,
    /// `Divergence`, `Error`); `None` on clean or cycle-limit exits.
    pub dump: Option<Box<CrashDump>>,
}

impl RunResult {
    /// Total committed instructions across cores.
    pub fn committed(&self) -> u64 {
        self.core_stats.iter().map(|s| s.committed).sum()
    }

    /// The commit-time CPI stack, merged across cores. Each core's cycles
    /// are attributed to exactly one bucket, so the merged stack sums to the
    /// per-core cycle total (which on multicore exceeds wall-clock cycles).
    pub fn cpi(&self) -> CpiStack {
        let mut cpi = CpiStack::default();
        for s in &self.core_stats {
            cpi.merge(&s.cpi);
        }
        cpi
    }
}

/// Per-core occupancy gauge set, in sampling order.
const CORE_GAUGES: [&str; 5] = ["rob", "iq", "lq", "sq", "tsh_pending"];

/// Bounded points kept per gauge series (summary stats stay exact).
const GAUGE_SERIES_CAP: usize = 4096;

/// Structure-occupancy gauges sampled every `interval` cycles while the
/// machine runs (present only after [`System::enable_telemetry`]).
#[derive(Debug, Clone)]
struct SystemTelemetry {
    interval: u64,
    /// Per core: one series per [`CORE_GAUGES`] entry.
    per_core: Vec<[GaugeSeries; 5]>,
    /// Per core: line-fill-buffer and L1 MSHR occupancy.
    lfb: Vec<GaugeSeries>,
    l1_mshr: Vec<GaugeSeries>,
    l2_mshr: GaugeSeries,
}

/// A complete simulated machine: cores + shared memory system.
///
/// ```
/// use sas_pipeline::{System, CoreConfig, NoPolicy};
/// use sas_isa::{ProgramBuilder, Reg, Operand};
/// use sas_mem::MemConfig;
///
/// let mut asm = ProgramBuilder::new();
/// asm.movz(Reg::X1, 21, 0);
/// asm.add(Reg::X1, Reg::X1, Operand::reg(Reg::X1));
/// asm.halt();
/// let program = asm.build().unwrap();
///
/// let mut sys = System::single_core(CoreConfig::tiny(), MemConfig::default(), program, Box::new(NoPolicy));
/// let result = sys.run(10_000);
/// assert_eq!(sys.core(0).reg(Reg::X1), 42);
/// assert!(result.cycles > 0);
/// ```
#[derive(Debug, Clone)]
pub struct System {
    mem: MemSystem,
    cores: Vec<Core>,
    cycle: u64,
    deadlock_window: u64,
    oracle: Option<Oracle>,
    fault_plan_desc: Option<String>,
    telemetry: Option<SystemTelemetry>,
    /// Deadlock tracking: cycle of the last committed-count change and the
    /// count itself. Fields (not `run()` locals) so that a run split into
    /// multiple `run()` calls — the checkpointing loop — tracks progress
    /// identically to one uninterrupted call, and so snapshots carry them.
    last_progress: u64,
    last_total: u64,
}

impl System {
    /// Builds a single-core system. The program's data segments become
    /// memory's base image ([`sas_mem::MainMemory::seal_base`]), which
    /// snapshots leave out.
    pub fn single_core(
        cfg: CoreConfig,
        mem_cfg: MemConfig,
        program: Program,
        policy: Box<dyn MitigationPolicy>,
    ) -> System {
        let program = Arc::new(program);
        let mut mem = MemSystem::new(1, mem_cfg);
        Self::load_segments(&mut mem, &program);
        mem.arch.seal_base();
        System {
            mem,
            cores: vec![Core::new(0, cfg, program, policy)],
            cycle: 0,
            deadlock_window: 100_000,
            oracle: None,
            fault_plan_desc: None,
            telemetry: None,
            last_progress: 0,
            last_total: 0,
        }
    }

    /// Loads the program's data segments; their frames become memory
    /// pages by pointer wherever no earlier segment touched the page.
    fn load_segments(mem: &mut MemSystem, program: &Program) {
        for seg in program.data() {
            mem.arch.load_segment(seg);
        }
    }

    /// Builds a multi-core system; one `(program, policy)` pair per core,
    /// all sharing the L2 and main memory. The data segments, loaded in
    /// core order, become memory's base image.
    pub fn multi_core(
        cfg: CoreConfig,
        mem_cfg: MemConfig,
        parts: Vec<(Program, Box<dyn MitigationPolicy>)>,
    ) -> System {
        assert!(!parts.is_empty(), "need at least one core");
        let n = parts.len();
        let mut mem = MemSystem::new(n, mem_cfg);
        for (p, _) in &parts {
            Self::load_segments(&mut mem, p);
        }
        mem.arch.seal_base();
        System {
            mem,
            cores: parts
                .into_iter()
                .enumerate()
                .map(|(i, (p, pol))| Core::new(i, cfg, Arc::new(p), pol))
                .collect(),
            cycle: 0,
            deadlock_window: 100_000,
            oracle: None,
            fault_plan_desc: None,
            telemetry: None,
            last_progress: 0,
            last_total: 0,
        }
    }

    /// Access to a core (register setup, stats, fault info).
    pub fn core(&self, i: usize) -> &Core {
        &self.cores[i]
    }

    /// Mutable access to a core.
    pub fn core_mut(&mut self, i: usize) -> &mut Core {
        &mut self.cores[i]
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// The shared memory system (heap setup, protected ranges, oracles).
    pub fn mem(&self) -> &MemSystem {
        &self.mem
    }

    /// Mutable access to the memory system.
    pub fn mem_mut(&mut self) -> &mut MemSystem {
        &mut self.mem
    }

    /// Overrides the deadlock-detection window (cycles without any commit).
    pub fn set_deadlock_window(&mut self, cycles: u64) {
        self.deadlock_window = cycles;
    }

    /// Turns on deep telemetry: per-core stage timelines (each bounded to
    /// `timeline_cap` instructions) and structure-occupancy gauges (ROB,
    /// IQ, LQ, SQ, TSH-pending, LFB, L1/L2 MSHR) sampled every
    /// `sample_interval` cycles. Costs nothing until enabled.
    pub fn enable_telemetry(&mut self, sample_interval: u64, timeline_cap: usize) {
        let n = self.cores.len();
        for c in &mut self.cores {
            c.enable_telemetry(timeline_cap);
        }
        self.telemetry = Some(SystemTelemetry {
            interval: sample_interval.max(1),
            per_core: (0..n)
                .map(|_| std::array::from_fn(|_| GaugeSeries::new(GAUGE_SERIES_CAP)))
                .collect(),
            lfb: (0..n).map(|_| GaugeSeries::new(GAUGE_SERIES_CAP)).collect(),
            l1_mshr: (0..n).map(|_| GaugeSeries::new(GAUGE_SERIES_CAP)).collect(),
            l2_mshr: GaugeSeries::new(GAUGE_SERIES_CAP),
        });
    }

    /// Core `i`'s per-instruction stage timeline (telemetry must be on).
    pub fn timeline(&self, i: usize) -> Option<&Timeline> {
        self.cores[i].timeline()
    }

    /// All sampled occupancy gauges as `(metric_name, series)`, in a stable
    /// order. Empty when telemetry is off.
    pub fn occupancy_gauges(&self) -> Vec<(String, &GaugeSeries)> {
        let Some(t) = &self.telemetry else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (i, set) in t.per_core.iter().enumerate() {
            for (g, name) in set.iter().zip(CORE_GAUGES) {
                out.push((format!("pipeline.core{i}.occ.{name}"), g));
            }
            out.push((format!("mem.core{i}.occ.lfb"), &t.lfb[i]));
            out.push((format!("mem.core{i}.occ.l1_mshr"), &t.l1_mshr[i]));
        }
        out.push(("mem.occ.l2_mshr".to_string(), &t.l2_mshr));
        out
    }

    /// The Chrome trace-event document (Perfetto-loadable) of every core's
    /// stage timeline and every occupancy gauge; telemetry must be on for
    /// it to hold anything.
    pub fn chrome_trace(&self) -> String {
        let timelines: Vec<(usize, &Timeline)> = (0..self.cores())
            .filter_map(|i| self.timeline(i).map(|t| (i, t)))
            .collect();
        let gauges = self.occupancy_gauges();
        let gauge_refs: Vec<(&str, &GaugeSeries)> =
            gauges.iter().map(|(n, g)| (n.as_str(), *g)).collect();
        sas_telemetry::chrome::export(&timelines, &gauge_refs)
    }

    /// Exports every layer's metrics — per-core pipeline counters, delay
    /// tables, CPI stacks and histograms; occupancy gauges; memory-system
    /// and MTE tag-storage counters.
    pub fn export_metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for c in &self.cores {
            c.export_metrics(&mut reg);
        }
        for (name, g) in self.occupancy_gauges() {
            reg.gauge(name, g);
        }
        self.mem.export_metrics(&mut reg);
        self.mem.tags.export_metrics(&mut reg);
        reg
    }

    /// Samples occupancy gauges when their interval comes due.
    fn sample_telemetry(&mut self) {
        if let Some(t) = &mut self.telemetry {
            if self.cycle.is_multiple_of(t.interval) {
                for (i, c) in self.cores.iter().enumerate() {
                    let set = &mut t.per_core[i];
                    set[0].record(self.cycle, c.rob_occupancy() as u64);
                    set[1].record(self.cycle, c.iq_len() as u64);
                    set[2].record(self.cycle, c.lq_len() as u64);
                    set[3].record(self.cycle, c.sq_len(self.cycle) as u64);
                    set[4].record(self.cycle, c.tsh_pending() as u64);
                    t.lfb[i].record(self.cycle, self.mem.lfb_occupancy(i) as u64);
                    t.l1_mshr[i]
                        .record(self.cycle, self.mem.l1_mshr_occupancy(i, self.cycle) as u64);
                }
                t.l2_mshr
                    .record(self.cycle, self.mem.l2_mshr_occupancy(self.cycle) as u64);
            }
        }
    }

    /// Attaches the lockstep architectural oracle. Every retired instruction
    /// is replayed on a simple in-order reference model with bit-exact MTE
    /// semantics; the first mismatch ends the run with
    /// [`RunExit::Divergence`].
    ///
    /// Call after all architectural setup (registers, memory, tags,
    /// protected ranges) and before the first cycle — the oracle snapshots
    /// that state. Single-core systems only.
    pub fn enable_oracle(&mut self) {
        assert_eq!(
            self.cores.len(),
            1,
            "the lockstep oracle supports single-core systems"
        );
        assert_eq!(self.cycle, 0, "attach the oracle before the first cycle");
        let mut o = Oracle::new(
            self.mem.arch.clone(),
            self.mem.tags.clone(),
            self.mem.protected_ranges().to_vec(),
        );
        let c = &mut self.cores[0];
        o.add_core(
            c.program(),
            c.arch_regs(),
            c.arch_flags(),
            c.start_pc(),
            c.enforces_mte(),
        );
        c.set_record_commits(true);
        self.oracle = Some(o);
    }

    /// The attached oracle (for final-state audits), if enabled.
    pub fn oracle(&self) -> Option<&Oracle> {
        self.oracle.as_ref()
    }

    /// Arms every injection point of `plan` across the machine: tag flips
    /// and fill perturbations in the memory system, forced mispredictions
    /// and squash storms in the cores' front ends.
    pub fn arm_faults(&mut self, plan: &FaultPlan) {
        self.mem.arm_faults(plan);
        for c in &mut self.cores {
            c.arm_faults(plan);
        }
        self.fault_plan_desc = Some(plan.describe());
    }

    /// Total injections so far across all armed points (including benign
    /// ones like fill delays and forced mispredictions).
    pub fn fault_injections(&self) -> u64 {
        self.mem.fault_injections() + self.cores.iter().map(|c| c.fault_injections()).sum::<u64>()
    }

    /// Injections that corrupt state an oracle or checker must catch
    /// (tag flips, architectural bit flips, dropped fills).
    pub fn corruption_injections(&self) -> u64 {
        self.mem.corruption_injections()
    }

    fn crash_dump(&self) -> Box<CrashDump> {
        Box::new(CrashDump {
            cycle: self.cycle,
            cores: self.cores.iter().map(|c| c.dump(self.cycle)).collect(),
            mshrs: self.mem.mshr_snapshot(),
            fault_plan: self.fault_plan_desc.clone(),
        })
    }

    /// Feeds core `i`'s freshly retired instructions to the oracle. Without
    /// an oracle the records are left in place (bounded by the core's cap)
    /// so a caller that turned on commit recording can collect them after
    /// the run.
    fn validate_commits(&mut self, i: usize) -> Option<Box<Divergence>> {
        self.oracle.as_ref()?;
        let recs = self.cores[i].take_retired();
        let oracle = self.oracle.as_mut()?;
        for rec in recs {
            if let Err(d) = oracle.on_commit(&rec) {
                return Some(Box::new(d));
            }
        }
        None
    }

    /// Checks a raised fault against the oracle: an architecturally
    /// unjustified fault (e.g. provoked by an injected tag flip) diverges.
    fn validate_fault(&self, i: usize, f: &FaultInfo) -> Option<Box<Divergence>> {
        let oracle = self.oracle.as_ref()?;
        let class = match f.kind {
            FaultKind::TagCheck => FaultClass::TagCheck,
            FaultKind::Permission => FaultClass::Permission,
        };
        oracle.on_fault(i, class, f.pc, f.cycle).err().map(Box::new)
    }

    /// If every core is quiescent at the current cycle, returns the cycle
    /// at which simulation must resume ticking; `None` when some core would
    /// act now (or nothing would be skipped).
    ///
    /// The wake-up is the earliest core event, clamped so that no skipped
    /// cycle could have observed anything: telemetry sampling boundaries,
    /// the deadlock deadline (`last_progress + window + 1`, the
    /// exact cycle the tick-by-tick loop would declare deadlock), and the
    /// cycle budget. Skipped cycles are attributed by
    /// [`Core::skip_quiescent`], which charges the same CPI bucket every
    /// ticked-through cycle would have — the result is bit-identical to not
    /// skipping.
    fn quiescent_until(&self, max_cycles: u64, last_progress: u64) -> Option<u64> {
        let next = self.cycle;
        let mut wake = u64::MAX;
        for c in &self.cores {
            wake = wake.min(c.quiescent_wake(next)?);
        }
        if let Some(t) = &self.telemetry {
            wake = wake.min(next.div_ceil(t.interval) * t.interval);
        }
        wake = wake.min(last_progress + self.deadlock_window + 1);
        wake = wake.min(max_cycles);
        (wake > next).then_some(wake)
    }

    /// Runs until every core halts, any core faults, the oracle diverges,
    /// an invariant breaks, or `max_cycles` pass.
    pub fn run(&mut self, max_cycles: u64) -> RunResult {
        let mut exit = RunExit::CycleLimit;
        while self.cycle < max_cycles {
            let mut all_done = true;
            let mut stop = false;
            for i in 0..self.cores.len() {
                if let Err(e) = self.cores[i].tick(&mut self.mem, self.cycle) {
                    exit = RunExit::Error(e);
                    stop = true;
                    break;
                }
                if let Some(d) = self.validate_commits(i) {
                    exit = RunExit::Divergence(d);
                    stop = true;
                    break;
                }
                if let Some(f) = self.cores[i].fault().copied() {
                    exit = match self.validate_fault(i, &f) {
                        Some(d) => RunExit::Divergence(d),
                        None => RunExit::Faulted(f),
                    };
                    stop = true;
                    break;
                }
                all_done &= self.cores[i].finished();
            }
            if self.telemetry.is_some() {
                self.sample_telemetry();
            }
            self.cycle += 1;
            if stop {
                break;
            }
            if all_done {
                exit = RunExit::Halted;
                break;
            }
            let total: u64 = self.cores.iter().map(|c| c.stats.committed).sum();
            if total != self.last_total {
                self.last_total = total;
                self.last_progress = self.cycle;
            } else if self.cycle - self.last_progress > self.deadlock_window {
                exit = RunExit::Deadlock(self.crash_dump());
                break;
            }
            // Skip-ahead: when every structure is quiescent, jump straight
            // to the next cycle anything can happen, attributing the gap in
            // one step. Cycle-exact by construction (see `quiescent_until`).
            if let Some(skip_to) = self.quiescent_until(max_cycles, self.last_progress) {
                for c in &mut self.cores {
                    if !c.finished() {
                        c.skip_quiescent(self.cycle, skip_to - 1);
                    }
                }
                self.cycle = skip_to;
                if self.cycle - self.last_progress > self.deadlock_window {
                    exit = RunExit::Deadlock(self.crash_dump());
                    break;
                }
            }
        }
        let dump = match &exit {
            RunExit::Halted | RunExit::CycleLimit => None,
            RunExit::Deadlock(d) => Some(d.clone()),
            RunExit::Faulted(_) | RunExit::Divergence(_) | RunExit::Error(_) => {
                Some(self.crash_dump())
            }
        };
        RunResult {
            exit,
            cycles: self.cycle,
            core_stats: self.cores.iter().map(|c| c.stats.clone()).collect(),
            mem_stats: self.mem.stats(),
            dump,
        }
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    // ------------------------------------------------------------------
    // snapshot codec
    // ------------------------------------------------------------------

    /// Serializes driver-level state: the cycle counter, deadlock-progress
    /// tracking, occupancy gauges (when telemetry is on) and the lockstep
    /// oracle (when attached). Configuration — deadlock window, telemetry
    /// interval — is not serialized; the restore target carries it from its
    /// own construction.
    pub fn encode_state(&self, e: &mut sas_snap::Enc) {
        e.uv(self.cycle);
        e.uv(self.last_progress);
        e.uv(self.last_total);
        e.bool(self.telemetry.is_some());
        if let Some(t) = &self.telemetry {
            for (i, set) in t.per_core.iter().enumerate() {
                for g in set {
                    g.encode(e);
                }
                t.lfb[i].encode(e);
                t.l1_mshr[i].encode(e);
            }
            t.l2_mshr.encode(e);
        }
        e.bool(self.oracle.is_some());
        if let Some(o) = &self.oracle {
            o.encode(e);
        }
    }

    /// Restores state serialized by [`System::encode_state`].
    ///
    /// # Errors
    ///
    /// Truncated or malformed input, or a telemetry- / oracle-arming
    /// mismatch between the snapshot and this system.
    pub fn restore_state(&mut self, d: &mut sas_snap::Dec) -> Result<(), sas_snap::SnapError> {
        let bad = |what: &'static str, value: u64| sas_snap::SnapError::BadValue { what, value };
        self.cycle = d.uv()?;
        self.last_progress = d.uv()?;
        self.last_total = d.uv()?;
        let have_telemetry = d.bool()?;
        if have_telemetry != self.telemetry.is_some() {
            return Err(bad("telemetry arming mismatch", have_telemetry as u64));
        }
        if let Some(t) = self.telemetry.as_mut() {
            for i in 0..t.per_core.len() {
                for g in t.per_core[i].iter_mut() {
                    g.restore(d)?;
                }
                t.lfb[i].restore(d)?;
                t.l1_mshr[i].restore(d)?;
            }
            t.l2_mshr.restore(d)?;
        }
        let have_oracle = d.bool()?;
        if have_oracle != self.oracle.is_some() {
            return Err(bad("oracle arming mismatch", have_oracle as u64));
        }
        if let Some(o) = self.oracle.as_mut() {
            o.restore(d)?;
        }
        Ok(())
    }

    /// Serializes core `i`'s complete state (see `Core`'s codec).
    pub fn encode_core(&self, i: usize, e: &mut sas_snap::Enc) {
        self.cores[i].encode(e);
    }

    /// Restores core `i` from state serialized by [`System::encode_core`].
    ///
    /// # Errors
    ///
    /// Truncated or malformed input, or a structural mismatch against the
    /// core's configuration.
    pub fn restore_core(
        &mut self,
        i: usize,
        d: &mut sas_snap::Dec,
    ) -> Result<(), sas_snap::SnapError> {
        self.cores[i].restore(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::FaultKind;
    use sas_oracle::DivergenceKind;

    #[test]
    fn every_exit_has_a_stable_tag() {
        let faulted = RunExit::Faulted(FaultInfo {
            kind: FaultKind::TagCheck,
            pc: 5,
            addr: None,
            cycle: 12,
        });
        let deadlock = RunExit::Deadlock(Box::new(CrashDump {
            cycle: 99,
            cores: Vec::new(),
            mshrs: Vec::new(),
            fault_plan: Some("seed=0x2a".to_string()),
        }));
        let divergence = RunExit::Divergence(Box::new(Divergence {
            core: 0,
            seq: 7,
            cycle: 40,
            pc: 3,
            inst: "ADD x1, x1, #1".to_string(),
            kind: DivergenceKind::RegValue,
            expected: "x1 = 2".to_string(),
            actual: "x1 = 3".to_string(),
        }));
        let error = RunExit::Error(SimError::internal("test invariant"));
        for (exit, tag) in [
            (&RunExit::Halted, "halted"),
            (&faulted, "faulted"),
            (&RunExit::CycleLimit, "cycle_limit"),
            (&deadlock, "deadlock"),
            (&divergence, "divergence"),
            (&error, "error"),
        ] {
            assert_eq!(exit.tag(), tag);
        }
    }
}
