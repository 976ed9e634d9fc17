//! # `sas-runner` — fault-tolerant experiment supervision
//!
//! Regenerating the paper's figures means running hundreds of
//! (benchmark, mitigation) cells and chaos campaigns, any one of which can
//! deadlock, diverge, panic or be OOM-killed. Before this crate, one bad
//! cell aborted the whole `cargo bench` run and threw away every number
//! already computed. The supervisor implemented here makes campaigns
//! *resilient* (DESIGN.md §8):
//!
//! * **Process isolation** ([`supervisor`]) — every cell runs in a child
//!   process (the current executable re-invoked in single-cell mode), so a
//!   crash, hang or kill can only ever take down that cell. The child
//!   prints its manifest row as its result line; its exit code alone says
//!   whether a failure is worth retrying.
//! * **Watchdog timeouts** — a per-cell wall-clock budget; a child that
//!   exceeds it is killed and recorded as `exit:"timeout"`. Cells and
//!   shrinker probes run under one watched-child loop
//!   ([`capture::run_watched`]).
//! * **Retry with backoff** — environmental failures (spawn errors,
//!   signal kills, OOM) are retried with exponential backoff; deterministic
//!   failures (deadlock, divergence, panic) are not, because a deterministic
//!   simulator reproduces them bit-for-bit.
//! * **Graceful degradation** — a failed cell becomes a tagged invalid row
//!   in the crash-safe JSONL [`manifest`]; the campaign continues and exits
//!   nonzero with a failure summary naming every failed cell.
//! * **Checkpointing** — the manifest doubles as a checkpoint: `--resume`
//!   validates it (truncating a torn trailing line) and re-runs only the
//!   cells without a recorded row.
//! * **Failure minimization** ([`shrink`]) — a deterministic failure is
//!   delta-debugged down to a minimal victim program and fault plan, emitted
//!   as a repro bundle under `target/repro/` whose recipe `sas-runner
//!   replay` re-runs from cycle zero.
//!
//! Everything is built from `std` only (threads + `std::process`), keeping
//! the workspace hermetic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod capture;
pub mod cell;
pub mod heartbeat;
pub mod manifest;
pub mod shrink;
pub mod supervisor;
pub mod sweep;

pub use cell::{CellId, SelftestKind};
pub use manifest::Record;
pub use supervisor::{run_campaign, CampaignReport, Config};
