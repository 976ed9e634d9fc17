//! # Tagged memory hierarchy
//!
//! The memory subsystem of the SpecASan simulator: the structures that §3.3
//! of the paper modifies, built from scratch.
//!
//! * [`MainMemory`] — architectural (functional) byte-addressable memory.
//! * [`Cache`] — set-associative timing caches whose lines carry the four
//!   allocation-tag "locks" of Figure 3, with a tag check at lookup.
//! * [`LineFillBuffer`] — the in-transit line buffer exploited by MDS
//!   attacks; entries carry allocation tags so SpecASan can validate
//!   forwarding from them.
//! * [`MshrFile`] — miss-status handling registers whose entries carry the
//!   single-bit tag-check flag (§3.3.1).
//! * [`DramController`] — issues paired data + tag-storage fetches and
//!   reports the check outcome upward (§3.3.4).
//! * [`MemSystem`] — multi-core facade: private L1s + LFBs, shared L2,
//!   invalidation-based coherence (incl. tag-maintenance broadcasts), ghost
//!   buffers for the GhostMinion baseline, and the *fill policy* hook that
//!   lets a mitigation suppress microarchitectural state changes for unsafe
//!   speculative accesses.
//!
//! The design separates *architectural* state (bytes in [`MainMemory`],
//! allocation tags in [`sas_mte::TagStorage`]) from *timing* state (what is
//! cached where). Wrong-path loads read architectural memory — that is
//! exactly the property transient-execution attacks exploit — while their
//! timing side effects are governed by the [`FillMode`] the mitigation
//! selects.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arch_mem;
pub mod cache;
pub mod controller;
pub mod err;
pub mod lfb;
pub mod mshr;
pub mod prefetch;
pub mod req;
pub mod system;

pub use arch_mem::MainMemory;
pub use cache::{Cache, CacheConfig, CacheStats};
pub use controller::DramController;
pub use err::SimError;
pub use lfb::{LfbEntry, LineFillBuffer};
pub use mshr::{MshrEntry, MshrFile};
pub use prefetch::{PrefetchConfig, PrefetchStats, StridePrefetcher};
pub use req::{AccessKind, FillMode, LoadResult, ServicePoint, StoreResult};
pub use system::{MemConfig, MemSystem, MemSystemStats};
