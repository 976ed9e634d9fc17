//! `sas-serve` — a crash-resilient persistent simulation service.
//!
//! The simulator so far has been batch-shaped: `sas-runner` spawns a
//! process per cell and collects manifests. This crate turns the same
//! engine into a long-lived daemon speaking HTTP/1.1 + JSON-RPC, designed
//! around the failure modes a persistent service actually meets
//! (DESIGN.md §13):
//!
//! * **Admission control** ([`queue`]) — a bounded FIFO with explicit
//!   503 rejection when full.
//! * **Deadlines** ([`job`]) — every request carries a cycle-chunked
//!   budget; the simulator is stepped in bounded chunks and a watchdog
//!   turns an overrun into a structured error, never a wedged worker.
//! * **Crash resilience** ([`journal`]) — accepted jobs are journaled
//!   before they are acknowledged, long simulations checkpoint through
//!   `sas-snap`, and a restarted daemon replays the journal and resumes
//!   mid-run with bit-identical cycle counts.
//! * **Graceful drain** ([`server`]) — SIGTERM or `POST /drain` stops
//!   admission, parks in-flight simulations behind checkpoints, and exits
//!   0 with zero accepted jobs lost.
//! * **Observability** ([`metrics`]) — `GET /metrics` renders per-method
//!   request counters, latency histograms with quantile summaries, and
//!   queue/worker gauges in Prometheus text exposition; `GET /watch/<job>`
//!   streams server-sent progress events from the job's in-memory progress
//!   record; the `query` RPC method runs `sas-query` expressions
//!   over the daemon's journal and live job table.
//!
//! Hermetic like the rest of the workspace: the HTTP layer, JSON handling,
//! and scheduling are all std-only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod job;
pub mod journal;
pub mod metrics;
pub mod queue;
pub mod server;

pub use job::{JobEnd, JobSpec, RunPlan, Target};
pub use journal::{Journal, PendingJob, Recovery};
pub use queue::{Full, JobQueue};
pub use server::{Config, Server};
