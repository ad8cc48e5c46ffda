#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! Deterministic online scoring service over the Know Your Phish
//! pipeline.
//!
//! The batch pipeline answers "how good is the classifier?"; this crate
//! answers "what does it take to run it as a service?". A
//! [`ScoringService`] wraps a warm [`kyp_core::Pipeline`] with the three
//! mechanisms a production scorer needs, all simulated on a virtual clock
//! so every run is bit-reproducible:
//!
//! ```text
//!                    ┌────────────────────────────────────────────┐
//!  requests ──────▶  │ URL stage (optional cascade): final ⇒      │
//!                    │   ServeResponse::immediate, stage=url_only │
//!                    └──────────────┬─────────────────────────────┘
//!                                   ▼
//!                    ┌────────────────────────────────────────────┐
//!                    │ AdmissionQueue (bounded; sheds when full)  │
//!                    └──────────────┬─────────────────────────────┘
//!                                   │ MicroBatcher: flush on max_batch
//!                                   ▼            or max_delay_ms
//!                    ┌────────────────────────────────────────────┐
//!                    │ fetch memo (request URL → landing URL)     │
//!                    │ → verdict memo (landing URL → verdict)     │
//!                    │   hit ──────────────▶ response             │
//!                    │   miss ─▶ Pipeline::classify_scraped ─▶ …  │
//!                    └──────────────┬─────────────────────────────┘
//!                                   ▼
//!                    ServeStats: latency histogram, throughput,
//!                    cache / queue / batch counters → ServeReport
//! ```
//!
//! The front door is shared with the `kyp-cluster` router: both tally
//! the URL stage with [`kyp_core::CascadeCounters::record`], answer
//! requests that never reach a batch with [`ServeResponse::immediate`],
//! and key their fetch memos with [`canonical_url`].
//!
//! # Determinism contract
//!
//! For one seeded trace (see [`workload`]), the stream of
//! [`ServeResponse::verdict_line`] projections is byte-identical:
//!
//! - at **any thread count** — batch classification fans out over
//!   [`kyp_exec`] with order-preserving joins;
//! - under a **fault plan** — all retry/breaker timing is virtual, and
//!   each unique URL is fetched once, so stateful fault plans see one
//!   fetch sequence.
//!
//! Every verdict, hit or miss, is the verdict a fresh classification of
//! the page the service fetched would give: verdicts are pure functions
//! of the fetched page. The verdict cache's payoff is wall-clock time
//! only: hits skip feature extraction and both model stages. It is a
//! memo with no capacity, expiry or off switch, and the service keeps
//! verdicts, not pages (see [`service`] for why). perfbench's
//! `serve-cascade` workload measures it.

pub mod batcher;
pub mod protocol;
pub mod queue;
pub mod service;
pub mod source;
pub mod stats;
pub mod workload;

pub use batcher::{BatchCounters, BatchPolicy, MicroBatcher};
pub use protocol::{CacheState, ServeOutcome, ServeRequest, ServeResponse};
pub use queue::{AdmissionQueue, QueueCounters};
pub use service::{ScoringService, ServeConfig, SHED_QUEUE_FULL};
pub use source::{canonical_url, PageSource, ScraperSource, StoredPages};
pub use stats::{CacheCounters, LatencySummary, ServeReport};
pub use workload::{generate, ArrivalPattern, WorkloadConfig};
