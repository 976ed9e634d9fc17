//! The high-level simulator facade.
//!
//! [`Simulator`] wraps the pipeline [`System`] with the setup chores every
//! experiment repeats — installing colours, writing initial memory, marking
//! privileged ranges — behind a builder:
//!
//! ```
//! use specasan::{Mitigation, Simulator};
//! use sas_isa::{parse_program, Reg};
//!
//! let program = parse_program("MOVZ X1, #2\nADD X1, X1, X1\nHALT\n").unwrap();
//! let mut sim = Simulator::builder()
//!     .mitigation(Mitigation::SpecAsan)
//!     .program(program)
//!     .build();
//! let report = sim.run();
//! assert!(report.halted_cleanly());
//! assert_eq!(sim.system().core(0).reg(Reg::X1), 4);
//! ```

use crate::config::SimConfig;
use crate::mitigation::Mitigation;
use sas_isa::{Program, TagNibble, VirtAddr};
use sas_pipeline::{CrashDump, Divergence, FaultPlan, RunExit, RunResult, System};
use sas_snap::{SnapError, Snapshot, SnapshotBuilder};
use std::path::Path;

/// Builder for a ready-to-run [`Simulator`].
#[derive(Debug, Default)]
pub struct SimulatorBuilder {
    config: Option<SimConfig>,
    mitigation: Option<Mitigation>,
    programs: Vec<Program>,
    tag_ranges: Vec<(u64, u64, u8)>,
    writes: Vec<(u64, u64, u64)>, // (addr, width, value)
    protected: Vec<(u64, u64)>,
    max_cycles: u64,
    fault_plan: Option<FaultPlan>,
    oracle: bool,
}

impl SimulatorBuilder {
    /// Machine configuration (defaults to Table 2).
    pub fn config(mut self, cfg: SimConfig) -> Self {
        self.config = Some(cfg);
        self
    }

    /// Active mitigation (defaults to [`Mitigation::SpecAsan`]).
    pub fn mitigation(mut self, m: Mitigation) -> Self {
        self.mitigation = Some(m);
        self
    }

    /// Adds a program; one call per core (at least one required).
    pub fn program(mut self, p: Program) -> Self {
        self.programs.push(p);
        self
    }

    /// Colours `[base, base+len)` with `tag` before the run.
    pub fn tag_range(mut self, base: u64, len: u64, tag: u8) -> Self {
        self.tag_ranges.push((base, len, tag));
        self
    }

    /// Writes an initial value (`width` bytes) at `addr`.
    pub fn write(mut self, addr: u64, width: u64, value: u64) -> Self {
        self.writes.push((addr, width, value));
        self
    }

    /// Marks `[base, base+len)` privileged (unprivileged loads fault).
    pub fn protect(mut self, base: u64, len: u64) -> Self {
        self.protected.push((base, len));
        self
    }

    /// Cycle budget for [`Simulator::run`] (default 100 M).
    pub fn max_cycles(mut self, cycles: u64) -> Self {
        self.max_cycles = cycles;
        self
    }

    /// Arms deterministic fault injection from `plan` (see
    /// [`sas_ptest::fault`]). The plan is also armed automatically when the
    /// `SAS_FAULT_SEED` environment variable is set.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Attaches the lockstep architectural oracle (single-core only): every
    /// retired instruction is validated against an in-order reference model
    /// and the run aborts with `RunExit::Divergence` on the first mismatch.
    pub fn oracle(mut self) -> Self {
        self.oracle = true;
        self
    }

    /// Assembles the simulator.
    ///
    /// # Panics
    ///
    /// Panics if no program was supplied.
    pub fn build(self) -> Simulator {
        assert!(!self.programs.is_empty(), "SimulatorBuilder needs at least one program");
        let cfg = self.config.unwrap_or_default();
        let m = self.mitigation.unwrap_or(Mitigation::SpecAsan);
        let mut system = if self.programs.len() == 1 {
            crate::mitigation::build_system(
                &cfg,
                self.programs.into_iter().next().expect("checked"),
                m,
            )
        } else {
            crate::mitigation::build_multicore(&cfg, self.programs, m)
        };
        {
            let mem = system.mem_mut();
            for (base, len, tag) in self.tag_ranges {
                mem.tags.set_range(VirtAddr::new(base), len, TagNibble::new(tag));
            }
            for (addr, width, value) in self.writes {
                mem.write_arch(VirtAddr::new(addr), width, value);
            }
            for (base, len) in self.protected {
                mem.add_protected_range(base, len);
            }
        }
        if let Some(plan) = self.fault_plan.or_else(FaultPlan::from_env) {
            system.arm_faults(&plan);
        }
        if self.oracle {
            // After tags/writes/protection so the oracle snapshot sees them.
            system.enable_oracle();
        }
        Simulator {
            system,
            max_cycles: if self.max_cycles == 0 { 100_000_000 } else { self.max_cycles },
        }
    }
}

/// Outcome summary of a [`Simulator::run`].
#[derive(Debug, Clone)]
pub struct Report {
    /// Raw run result.
    pub result: RunResult,
}

impl Report {
    /// Did every core halt without faulting or hitting the cycle budget?
    pub fn halted_cleanly(&self) -> bool {
        self.result.exit == RunExit::Halted
    }

    /// Whole-machine instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.result.cycles == 0 {
            0.0
        } else {
            self.result.committed() as f64 / self.result.cycles as f64
        }
    }

    /// The crash dump attached to an abnormal exit (fault, deadlock,
    /// divergence, or internal error), if any.
    pub fn crash_dump(&self) -> Option<&CrashDump> {
        self.result.dump.as_deref()
    }

    /// The oracle divergence that aborted the run, if any.
    pub fn divergence(&self) -> Option<&Divergence> {
        match &self.result.exit {
            RunExit::Divergence(d) => Some(d),
            _ => None,
        }
    }

    /// One-paragraph human summary.
    pub fn summary(&self) -> String {
        let tag_faults: u64 = self.result.core_stats.iter().map(|s| s.tag_faults).sum();
        let unsafe_accesses: u64 =
            self.result.core_stats.iter().map(|s| s.unsafe_spec_accesses).sum();
        let exit = match &self.result.exit {
            RunExit::Deadlock(_) => "Deadlock (crash dump attached)".to_string(),
            RunExit::Divergence(d) => format!("Divergence ({:?} at pc {})", d.kind, d.pc),
            other => format!("{other:?}"),
        };
        format!(
            "{exit}: {} instructions in {} cycles (IPC {:.2}); {} unsafe speculative \
             access(es) blocked, {} tag fault(s), {} fill(s) suppressed",
            self.result.committed(),
            self.result.cycles,
            self.ipc(),
            unsafe_accesses,
            tag_faults,
            self.result.mem_stats.suppressed_fills,
        )
    }
}

/// A configured machine, ready to run.
#[derive(Debug)]
pub struct Simulator {
    system: System,
    max_cycles: u64,
}

impl Simulator {
    /// Starts a builder.
    pub fn builder() -> SimulatorBuilder {
        SimulatorBuilder::default()
    }

    /// Runs to completion (halt, fault, or cycle budget).
    pub fn run(&mut self) -> Report {
        Report { result: self.system.run(self.max_cycles) }
    }

    /// The underlying system (registers, memory, stats, traces).
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Mutable access (e.g. `set_reg` before running).
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.system
    }

    /// Captures the complete machine state as a versioned snapshot.
    ///
    /// The image covers everything `run` touches — architectural memory and
    /// MTE tags, caches/MSHRs/LFBs, predictors, the full out-of-order window,
    /// statistics, fault-stream cursors and RNG state — so a restored
    /// simulator continues **bit-identically**. Policies are stateless, so
    /// the image holds none.
    ///
    /// With `warm_base` the image is marked as a warmed-*baseline* fork
    /// point: restoring it skips the mitigation-policy name check, so one
    /// baseline image warmed past a benchmark's setup phase can seed cells
    /// for *any* mitigation.
    pub fn snapshot(&self, warm_base: bool) -> SnapshotBuilder {
        crate::snapshot::snapshot_system(&self.system, warm_base)
    }

    /// Restores machine state from a snapshot taken by [`snapshot`].
    ///
    /// The target must be built from the same configuration, programs and
    /// (unless the snapshot is a warmed-baseline image) the same mitigation;
    /// mismatches are reported as [`SnapError::Mismatch`] rather than
    /// producing a silently-diverging machine. The restore is
    /// all-or-nothing (see [`restore_system_checked`]): on error the
    /// simulator keeps the state it had before the call.
    ///
    /// [`snapshot`]: Simulator::snapshot
    /// [`restore_system_checked`]: crate::snapshot::restore_system_checked
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapError> {
        crate::snapshot::restore_system_checked(&mut self.system, snap)
    }

    /// Writes a snapshot to `path` atomically (temp file + rename).
    pub fn write_snapshot(&self, path: &Path, warm_base: bool) -> Result<(), SnapError> {
        self.snapshot(warm_base).write_atomic(path)
    }

    /// Reads, CRC-verifies and restores a snapshot file, all-or-nothing
    /// like [`restore`](Simulator::restore).
    pub fn restore_from(&mut self, path: &Path) -> Result<(), SnapError> {
        crate::snapshot::restore_system_from(&mut self.system, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sas_isa::{parse_program, Reg};

    fn trivial() -> Program {
        parse_program("MOVZ X1, #7\nHALT\n").unwrap()
    }

    #[test]
    fn builder_defaults_to_table2_specasan() {
        let mut sim = Simulator::builder().program(trivial()).build();
        let rep = sim.run();
        assert!(rep.halted_cleanly());
        assert_eq!(sim.system().core(0).reg(Reg::X1), 7);
        assert_eq!(sim.system().core(0).policy_name(), "specasan");
    }

    #[test]
    fn builder_installs_tags_writes_and_protection() {
        let p = parse_program(
            "MOV X1, #0x5000\nLDR X2, [X1]\nHALT\n",
        )
        .unwrap();
        let mut sim = Simulator::builder()
            .mitigation(Mitigation::Unsafe)
            .program(p)
            .write(0x5000, 8, 99)
            .tag_range(0x6000, 16, 4)
            .protect(0x9000, 0x100)
            .build();
        let rep = sim.run();
        assert!(rep.halted_cleanly());
        assert_eq!(sim.system().core(0).reg(Reg::X2), 99);
        assert!(sim.system().mem().is_protected(VirtAddr::new(0x9010)));
        assert_eq!(
            sim.system().mem().load_tag(VirtAddr::new(0x6000)),
            TagNibble::new(4)
        );
    }

    #[test]
    fn multicore_builder_runs_both_programs() {
        let mut sim = Simulator::builder()
            .program(trivial())
            .program(parse_program("MOVZ X1, #9\nHALT\n").unwrap())
            .build();
        let rep = sim.run();
        assert!(rep.halted_cleanly());
        assert_eq!(sim.system().core(0).reg(Reg::X1), 7);
        assert_eq!(sim.system().core(1).reg(Reg::X1), 9);
    }

    #[test]
    fn report_summary_is_informative() {
        let mut sim = Simulator::builder().program(trivial()).build();
        let rep = sim.run();
        let s = rep.summary();
        assert!(s.contains("IPC"));
        assert!(s.contains("Halted"));
    }

    #[test]
    #[should_panic(expected = "at least one program")]
    fn builder_requires_a_program() {
        let _ = Simulator::builder().build();
    }

    #[test]
    fn oracle_validates_a_clean_run() {
        let mut sim = Simulator::builder().program(trivial()).oracle().build();
        let rep = sim.run();
        assert!(rep.halted_cleanly(), "{}", rep.summary());
        assert!(rep.divergence().is_none());
        assert!(rep.crash_dump().is_none());
        let oracle = sim.system().oracle().expect("oracle attached");
        assert!(oracle.halted(0));
        assert_eq!(oracle.reg(0, Reg::X1), 7);
    }

    #[test]
    fn injected_tag_flip_is_caught_not_silent() {
        // Tag 0x4000..+0x40 with key 3, read it back with LDG under an
        // armed tag-flip plan: the flipped stored tag must surface as an
        // oracle divergence, a tag fault, or — with no oracle — complete
        // silently; with the oracle it must NEVER pass with corruption.
        let p = parse_program("MOV X1, #0x4000\nLDG X2, [X1]\nHALT\n").unwrap();
        let plan = FaultPlan::new(0xFEED)
            .enable(sas_pipeline::InjectionPoint::TagFlip, 1000, 1)
            .target_window(0x4000, 0x40);
        let mut sim = Simulator::builder()
            .mitigation(Mitigation::Unsafe)
            .program(p)
            .tag_range(0x4000, 0x40, 3)
            .fault_plan(plan)
            .oracle()
            .build();
        let rep = sim.run();
        if sim.system().corruption_injections() > 0 {
            let d = rep.divergence().expect("flipped tag must diverge the LDG result");
            assert_eq!(format!("{:?}", d.kind), "RegValue");
            assert!(rep.crash_dump().is_some(), "divergence carries a dump");
        } else {
            assert!(rep.halted_cleanly());
        }
    }
}
