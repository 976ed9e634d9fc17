//! # Synthetic SPEC CPU2017 / PARSEC workload profiles
//!
//! The paper evaluates on SPEC CPU2017 (`ref`, syscall emulation) and PARSEC
//! (`simsmall`, 4-core full system). Neither suite can be compiled to SAS-IR,
//! so this crate generates *characteristic-matched synthetic workloads*: one
//! [`Profile`] per benchmark, capturing the properties that determine each
//! mitigation's overhead —
//!
//! * **branch behaviour** (density and predictability) — drives the cost of
//!   fence-style defenses, which serialize every load behind unresolved
//!   branches;
//! * **dependent-load depth** (pointer chasing) — drives STT, which delays
//!   loads with tainted addresses;
//! * **memory footprint and store density** — drives cache behaviour,
//!   memory-dependence speculation and SpecASan's tagged-load STL rule;
//! * **call density** — drives SpecCFI's return-validation stalls;
//! * **MTE instrumentation density** (heap-allocation churn → `IRG`/`STG`
//!   traffic), the dominant cost the paper attributes to baseline MTE in
//!   PARSEC (§5.3).
//!
//! Profiles are tuned so the *relative* per-benchmark ordering of Figure 6/7
//! holds (branchy pointer-chasers like `mcf`/`omnetpp`/`xalancbmk` hurt most
//! under barriers and STT; compute-bound `namd`/`nab`/`imagick` barely
//! notice); absolute IPC against real hardware is explicitly not claimed.
//!
//! All generation is deterministic ([`sas_mte::SplitMix64`] seeded per
//! benchmark).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod generator;
pub mod parsec;
pub mod profile;
pub mod spec;

pub use generator::{build_workload, parse_iterations, Workload, WorkloadSetup};
pub use parsec::{build_parsec_workload, parsec_suite};
pub use profile::Profile;
pub use spec::spec_suite;
