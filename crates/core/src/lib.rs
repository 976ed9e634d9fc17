//! # SpecASan: Speculative Address Sanitization
//!
//! The paper's contribution, implemented as policies over the
//! mitigation-agnostic [`sas_pipeline`] substrate:
//!
//! * [`SpecAsanPolicy`] — the paper's mechanism (§3): speculative loads and
//!   stores are tag-checked wherever they touch the memory hierarchy; a
//!   *mismatching* speculative access is selectively delayed — no data, no
//!   fills, no forwarding — until speculation resolves, at which point it
//!   either vanishes in a squash or raises a tag-check fault. Matching,
//!   untagged and independent accesses proceed at full speed.
//! * The baselines of §5: [`FencePolicy`] (speculative barriers),
//!   [`SttPolicy`] (Speculative Taint Tracking), [`GhostMinionPolicy`]
//!   (shadow fill buffer), [`SpecCfiPolicy`] (CFI-informed speculation), and
//!   [`SpecAsanCfiPolicy`] (the paper's combined design), plus the
//!   unprotected and MTE-only baselines re-exported from the pipeline.
//! * [`Mitigation`] — a value-level selector used by the experiment
//!   harnesses, and [`SimConfig`]/[`build_system`] to assemble a ready
//!   [`sas_pipeline::System`].
//!
//! Every policy is a stateless unit struct answering the nine `&self`
//! hooks of [`sas_pipeline::MitigationPolicy`]; what a policy caused is
//! counted by the core, so policies export no metrics and carry no
//! snapshot state.
//!
//! ```
//! use specasan::{build_system, Mitigation, SimConfig};
//! use sas_isa::{ProgramBuilder, Reg};
//!
//! let mut asm = ProgramBuilder::new();
//! asm.movz(Reg::X0, 42, 0);
//! asm.halt();
//! let mut sys = build_system(&SimConfig::table2(), asm.build().unwrap(), Mitigation::SpecAsan);
//! sys.run(10_000);
//! assert_eq!(sys.core(0).reg(Reg::X0), 42);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod config;
pub mod mitigation;
pub mod policy;
pub mod simulator;
pub mod snapshot;

pub use config::SimConfig;
pub use simulator::{Report, Simulator, SimulatorBuilder};
pub use mitigation::{build_multicore, build_system, Mitigation};
pub use policy::cfi::SpecCfiPolicy;
pub use policy::combo::SpecAsanCfiPolicy;
pub use policy::fence::FencePolicy;
pub use policy::ghostminion::GhostMinionPolicy;
pub use policy::specasan::SpecAsanPolicy;
pub use policy::stt::SttPolicy;
pub use sas_pipeline::{MteOnlyPolicy, NoPolicy};
