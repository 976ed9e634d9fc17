//! # The out-of-order pipeline substrate
//!
//! A cycle-level model of the machine in Table 2 of the SpecASan paper: an
//! 8-wide out-of-order core with gshare/BTB/RSB branch prediction, a reorder
//! buffer, load/store queues carrying the paper's two-bit `tcs` tag-check
//! state, a memory-dependence unit (Spectre-STL's speculation window),
//! store-to-load forwarding (including the 4K-alias false forwards Fallout
//! exploits), and wrong-path execution after mispredicts — the raw material
//! of every transient execution attack this repository reproduces.
//!
//! The pipeline itself is mitigation-agnostic. At each decision point a
//! defense could intervene it consults a [`MitigationPolicy`]; the concrete
//! policies (SpecASan and the baselines it is compared against) live in the
//! `specasan` crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod config;
pub mod core;
pub mod policy;
pub mod predictor;
pub mod stats;
pub mod system;
pub mod trace;

pub use config::CoreConfig;
pub use core::{Core, CoreDump, FaultInfo, FaultKind, Tcs, UopDump, RETIRED_CAP};
pub use sas_mem::SimError;
pub use sas_oracle::{Divergence, DivergenceKind, Oracle};
pub use sas_ptest::{FaultPlan, InjectionPoint};
pub use policy::{
    DelayCause, IndirectKind, IssueDecision, LoadIssueCtx, LoadRespCtx, MitigationPolicy,
    MteOnlyPolicy, NoPolicy, RespDecision,
};
pub use predictor::{BranchPredictor, Btb, Gshare, PredictorStats, Rsb};
pub use sas_telemetry::{
    json, CpiBucket, CpiStack, GaugeSeries, Histogram, MetricsRegistry, Timeline,
};
pub use stats::{CoreStats, DelayTable};
pub use system::{CrashDump, RunExit, RunResult, System};
pub use trace::{Trace, TraceEvent};
