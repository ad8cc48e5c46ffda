#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! `kyp-cluster` — deterministic multi-node serving simulation.
//!
//! One [`kyp_serve::ScoringService`] answers "what does it take to run
//! the classifier as a service?"; this crate answers "what does it take
//! to run a *fleet* of them?". A [`ClusterService`] drives N scoring
//! nodes behind a consistent-hash router on a single virtual clock:
//!
//! ```text
//!                 ┌───────────────────────────────────────────────┐
//!  requests ────▶ │ router: URL stage (the service's front door)  │
//!                 │ → fetch once into SharedStore                 │
//!                 └──────┬────────────────────────────────────────┘
//!                        │ HashRing(canonical landing URL)
//!                        │   · hot URLs fan out over R replicas
//!                        │   · node refusal ⇒ route around / park
//!                        ▼
//!      ┌──────────┐ ┌──────────┐ ┌──────────┐      CrashPlan kills
//!      │ node 0   │ │ node 1   │ │ node …   │ ◀──  nodes; the router
//!      │ (its own │ │          │ │          │      detects via missed
//!      │  queue,  │ │          │ │          │      heartbeats, fails
//!      │  cache   │ │          │ │          │      outstanding work
//!      │  shard)  │ │          │ │          │      over with bounded
//!      └──────────┘ └──────────┘ └──────────┘      retries
//! ```
//!
//! # Determinism contract
//!
//! The id-sorted verdict stream ([`verdict_stream`]) is **byte-identical**
//! across shard counts, ring placements, thread counts and crash
//! schedules: fetches happen once, at the router, in trace order; node
//! backpressure never sheds (the router sheds only a request that
//! exhausts its failover retry budget); verdicts are pure functions of
//! the fetched pages. Per-node backpressure and crashes move
//! *when* and *where* a request is answered, never *what* the answer is.
//! See [`router`] for the full argument and `tests/cluster_determinism.rs`
//! at the workspace root for the matrix that enforces it.
//!
//! Everything observable — [`ClusterReport`], the `cluster.*` metrics via
//! [`ClusterService::export_metrics`] — derives from virtual time and
//! input-order counters, so reports are as reproducible as the verdicts.

pub mod crash;
mod node;
pub mod report;
pub mod ring;
pub mod router;
pub mod store;

pub use crash::CrashPlan;
pub use report::{ClusterReport, FailoverCounters, NodeReport, RoutingCounters};
pub use ring::HashRing;
pub use router::{
    verdict_stream, ClusterConfig, ClusterResponse, ClusterService, SHED_RETRIES_EXHAUSTED,
};
pub use store::SharedStore;
