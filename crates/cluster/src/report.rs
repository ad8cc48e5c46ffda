//! End-of-run cluster accounting and its `kyp-obs` export.
//!
//! Everything here is derived from virtual time and input-order counters,
//! so a report — like the per-node [`ServeReport`]s it embeds — is
//! byte-identical across thread counts for a given configuration.

use kyp_core::CascadeCounters;
use kyp_serve::{LatencySummary, ServeReport};
use serde::{Deserialize, Serialize};

/// Crash/failover accounting over one cluster run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailoverCounters {
    /// Node crashes suffered (all nodes, all incarnations).
    pub crashes: u64,
    /// Crashes detected via missed heartbeats.
    pub detections: u64,
    /// Cold restarts completed.
    pub recoveries: u64,
    /// Requests re-dispatched off a dead node at detection.
    pub redispatched: u64,
    /// Requests shed after exhausting the failover retry budget — the
    /// router's only shed reason.
    pub retries_exhausted: u64,
}

/// Routing accounting over one cluster run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutingCounters {
    /// Requests handed to a node (re-dispatches included).
    pub dispatched: u64,
    /// Dispatch attempts deflected by a node's admission queue (per-node
    /// backpressure) and retried on the next ring candidate.
    pub route_around: u64,
    /// Requests parked at the router because every live candidate
    /// refused; parked requests re-dispatch as capacity frees.
    pub parked: u64,
    /// Dispatches of hot landing URLs spread over the replica set.
    pub hot_fanout: u64,
}

/// One node's slice of the cluster report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeReport {
    /// Node index on the ring.
    pub node: usize,
    /// Crashes this node suffered.
    pub crashes: u64,
    /// Responses the router finalized from this node.
    pub delivered: u64,
    /// The wrapped scoring service's own lifetime report (its queue
    /// counters are the node's backpressure record).
    pub serve: ServeReport,
}

/// Serializable end-of-run report of a cluster run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Requests pushed at the cluster.
    pub requests: u64,
    /// Requests answered with a verdict.
    pub answered: u64,
    /// Requests shed: those that exhausted their failover retry budget
    /// (equal to `failover.retries_exhausted`).
    pub shed: u64,
    /// `shed / requests` in `[0, 1]` (0.0 when no requests arrived).
    pub shed_ratio: f64,
    /// Requests whose page could not be fetched.
    pub unfetchable: u64,
    /// Answered requests served from a degraded capture.
    pub degraded: u64,
    /// Whether the URL-only cascade pre-filter screened at the router.
    pub cascade_enabled: bool,
    /// Router-level cascade pre-filter accounting.
    pub cascade: CascadeCounters,
    /// Crash/failover accounting.
    pub failover: FailoverCounters,
    /// Routing accounting.
    pub routing: RoutingCounters,
    /// End-to-end latency over answered + unfetchable requests, measured
    /// from original arrival to final completion across every failover
    /// attempt.
    pub latency: LatencySummary,
    /// Virtual span of the run: last event minus first arrival.
    pub virtual_elapsed_ms: u64,
    /// Answered requests per virtual second.
    pub throughput_per_vsec: f64,
    /// Per-node reports, in node order.
    pub nodes: Vec<NodeReport>,
}

impl ClusterReport {
    /// Exports the report into `registry`: `cluster.report.*` totals,
    /// `cluster.cascade.*`, `cluster.failover.*` and `cluster.routing.*`
    /// counters, and `cluster.node.<i>.*` per-node gauges, plus the
    /// end-to-end latency histogram under `cluster.latency_ms` (set by
    /// the service, which owns the histogram).
    pub fn export_metrics(&self, registry: &mut kyp_obs::MetricsRegistry) {
        let gauge = |r: &mut kyp_obs::MetricsRegistry, name: &str, v: u64| {
            r.set_gauge(name, v.cast_signed());
        };
        gauge(registry, "cluster.report.requests", self.requests);
        gauge(registry, "cluster.report.answered", self.answered);
        gauge(registry, "cluster.report.shed", self.shed);
        gauge(registry, "cluster.report.unfetchable", self.unfetchable);
        gauge(registry, "cluster.report.degraded", self.degraded);
        gauge(
            registry,
            "cluster.report.virtual_elapsed_ms",
            self.virtual_elapsed_ms,
        );
        registry.set_gauge("cluster.cascade_enabled", i64::from(self.cascade_enabled));
        gauge(registry, "cluster.cascade.screened", self.cascade.screened);
        gauge(registry, "cluster.cascade.url_only", self.cascade.url_only);
        gauge(
            registry,
            "cluster.cascade.fallthrough",
            self.cascade.fallthrough,
        );
        gauge(
            registry,
            "cluster.cascade.unscorable",
            self.cascade.unscorable,
        );
        gauge(registry, "cluster.failover.crashes", self.failover.crashes);
        gauge(
            registry,
            "cluster.failover.detections",
            self.failover.detections,
        );
        gauge(
            registry,
            "cluster.failover.recoveries",
            self.failover.recoveries,
        );
        gauge(
            registry,
            "cluster.failover.redispatched",
            self.failover.redispatched,
        );
        gauge(
            registry,
            "cluster.failover.retries_exhausted",
            self.failover.retries_exhausted,
        );
        gauge(
            registry,
            "cluster.routing.dispatched",
            self.routing.dispatched,
        );
        gauge(
            registry,
            "cluster.routing.route_around",
            self.routing.route_around,
        );
        gauge(registry, "cluster.routing.parked", self.routing.parked);
        gauge(
            registry,
            "cluster.routing.hot_fanout",
            self.routing.hot_fanout,
        );
        for n in &self.nodes {
            let prefix = format!("cluster.node.{}", n.node);
            gauge(registry, &format!("{prefix}.crashes"), n.crashes);
            gauge(registry, &format!("{prefix}.delivered"), n.delivered);
            gauge(registry, &format!("{prefix}.answered"), n.serve.answered);
            gauge(
                registry,
                &format!("{prefix}.queue_shed"),
                n.serve.queue.shed,
            );
            registry.set_gauge(
                &format!("{prefix}.queue_high_water"),
                n.serve.queue.high_water.cast_signed(),
            );
            gauge(
                registry,
                &format!("{prefix}.cache_hits"),
                n.serve.cache.hits,
            );
            gauge(
                registry,
                &format!("{prefix}.batches"),
                n.serve.batches.batches,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_roundtrip_through_json() {
        let f = FailoverCounters {
            crashes: 1,
            detections: 1,
            recoveries: 1,
            redispatched: 4,
            retries_exhausted: 0,
        };
        let json = serde_json::to_string(&f).unwrap();
        let back: FailoverCounters = serde_json::from_str(&json).unwrap();
        assert_eq!(back, f);
    }
}
