//! # ARM MTE memory-tagging model
//!
//! This crate models the software-visible behaviour of the ARM Memory Tagging
//! Extension as described in §2.3 of the SpecASan paper:
//!
//! * every 16-byte *tag granule* of memory carries a 4-bit *allocation tag*
//!   (the "lock"), held in [`TagStorage`] — the simulator's stand-in for the
//!   carve-out tag address space that a real memory controller maintains;
//! * pointers carry a 4-bit *address tag* (the "key") in bits `[59:56]`
//!   (see [`sas_isa::VirtAddr`]);
//! * an access *matches* when key == lock, with key `0` conventionally
//!   treated as an untagged access (see [`TagCheckOutcome`]);
//! * `IRG` draws random keys from a seeded generator with an exclusion mask
//!   ([`IrgRng`], mirroring the GCR_EL1.Exclude register);
//! * a [`TaggedHeap`] allocator colours allocations the way MTE-aware
//!   allocators (Scudo, Chromium PartitionAlloc) do, including retag-on-free
//!   for use-after-free detection, under a configurable [`TaggingPolicy`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod allocator;
pub mod check;
pub mod rng;
pub mod storage;

pub use allocator::{AllocError, Allocation, TaggedHeap};
pub use check::{check_access, TagCheckOutcome};
pub use rng::{IrgRng, SplitMix64};
pub use storage::TagStorage;

/// Tagging discipline used when colouring allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TaggingPolicy {
    /// Random tag per allocation, excluding tag 0 and the tags of the two
    /// neighbouring chunks (so linear overflows always mismatch). This is the
    /// default behaviour of MTE-aware heap allocators.
    #[default]
    RandomExcludeNeighbors,
    /// Deterministic alternating colours (odd/even stripes), as proposed by
    /// StickyTags-style deterministic schemes (§6 "deterministic tag
    /// assignment"). Immune to tag-leak attacks.
    DeterministicStripes,
    /// Tag everything with a single non-zero colour; only frees are retagged.
    /// Models the minimal "protect security-critical data only" deployment.
    SingleColor,
}
