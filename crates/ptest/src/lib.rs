//! # sas-ptest — the workspace's internal property-testing harness
//!
//! A deliberately small, zero-dependency replacement for the subset of
//! `proptest` this workspace used, so the whole repository builds and tests
//! offline. Three pieces:
//!
//! * [`Rng`] — a SplitMix64 PRNG with a stable cross-platform sequence;
//! * [`gen`] — generator combinators ([`gen::Gen`]): ranges, `select`,
//!   `frequency`, `vec_of`, `map`/`flat_map`/`zip`; plus [`gens`] with
//!   domain generators for `TagNibble`, `VirtAddr` and terminating SAS-IR
//!   programs;
//! * [`check`] — the N-case runner. Each case gets an independent seed
//!   derived from the property name; a failure report names that seed, and
//!   `SAS_PTEST_SEED=<seed>` replays exactly the failing case.
//!   `SAS_PTEST_CASES=<n>` overrides the case count for soak runs.
//!
//! The [`shrink`] module holds the generic chunk-halving NOP-mask delta
//! debugger shared by the `sas-runner` repro shrinker and the `sas-fuzz`
//! counterexample minimizer.
//!
//! The [`fault`] module reuses the same PRNG and seed-derivation scheme to
//! build replayable chaos campaigns ([`FaultPlan`], `--fault-plan SPEC`): the
//! simulator polls per-injection-point [`FaultStream`]s that are pure
//! functions of one campaign seed.
//!
//! A ported property looks like:
//!
//! ```
//! use sas_ptest::{check, gen, gens};
//!
//! check("offset_preserves_key", 256, |rng| {
//!     let a = gens::virt_addr_in(0..(1 << 48)).sample(rng);
//!     let key = gens::tag_nibble().sample(rng);
//!     let delta = gen::i64s(-4096..4096).sample(rng);
//!     let p = a.with_key(key).offset(delta);
//!     assert_eq!(p.key(), key);
//! });
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fault;
pub mod gen;
pub mod gens;
mod rng;
mod runner;
pub mod shrink;

pub use fault::{FaultPlan, FaultStream, InjectionPoint};
pub use gen::Gen;
pub use rng::Rng;
pub use runner::{case_seed, check};
