//! The cluster router: URL-stage screening, placement, dispatch, failure
//! detection and failover over a fleet of scoring nodes.
//!
//! # Event model
//!
//! The router is a deterministic discrete-event loop over the same virtual
//! clock as its nodes. Between arrivals it processes, in `(time, kind,
//! node)` order: response completions, node batch flushes, crashes,
//! crash detections (missed heartbeats), cold restarts and re-admissions.
//! Heartbeats are never simulated beat-by-beat — a node's detection
//! instant is *derived* from its crash instant and the heartbeat grid, so
//! the event queue stays O(nodes), not O(virtual time).
//!
//! # Determinism contract
//!
//! The verdict stream — the id-sorted [`ServeResponse::verdict_line`]
//! projection of every response — is byte-identical across shard counts,
//! ring placements, thread counts and crash schedules, because every
//! byte-affecting decision is placement-independent:
//!
//! - **Fetch at the router.** Pages are fetched once, at arrival, in
//!   trace order, whatever the cluster shape ([`crate::SharedStore`]).
//!   Stateful sources see one canonical fetch sequence; nodes only read.
//! - **Never shed on backpressure.** Per-node backpressure never sheds: a
//!   refusal routes around to the next ring candidate or parks for
//!   retry, so which node refused can never change *whether* a request
//!   is answered. The router sheds only a request that exhausts its
//!   failover retry budget.
//! - **Pure verdicts.** A verdict is a pure function of the fetched page,
//!   so *which* node classifies it (and whether its cache shard was warm
//!   or lost in a crash) cannot change the bytes.
//!
//! Completion *order* legitimately varies with the cluster shape (batch
//! boundaries move), which is why the canonical stream is id-sorted — see
//! [`verdict_stream`].

use crate::crash::CrashPlan;
use crate::node::{NodeSlot, Pending};
use crate::report::{ClusterReport, FailoverCounters, NodeReport, RoutingCounters};
use crate::ring::HashRing;
use crate::store::SharedStore;
use kyp_core::{CascadeClassifier, CascadeCounters, CascadeDecision, Pipeline};
use kyp_obs::{Histogram, VerdictStage};
use kyp_serve::{
    canonical_url, LatencySummary, PageSource, ScoringService, ServeConfig, ServeOutcome,
    ServeRequest, ServeResponse,
};
use std::collections::{BTreeMap, VecDeque};

/// Shed reason when a request exhausts its failover retry budget.
pub const SHED_RETRIES_EXHAUSTED: &str = "retries_exhausted";

/// Virtual tokens per node on the hash ring.
const VNODES: usize = 16;

/// Heartbeat period of the virtual failure detector, in ms.
const HEARTBEAT_INTERVAL_MS: u64 = 100;

/// Consecutive missed heartbeats before a node is declared dead.
const MISS_THRESHOLD: u64 = 3;

/// Failover re-dispatches a request may consume before it is shed with
/// [`SHED_RETRIES_EXHAUSTED`].
const RETRY_BUDGET: u32 = 16;

/// Requests to one landing URL before it counts as hot and fans out over
/// the replica set.
const HOT_THRESHOLD: u64 = 3;

/// Tuning of a [`ClusterService`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Scoring nodes (cache shards) in the fleet, clamped ≥ 1.
    pub shards: usize,
    /// Replica fan-out for hot landing URLs, clamped to `1..=shards`.
    pub replicas: usize,
    /// Seed of the ring placement; verdict bytes are invariant under it.
    pub placement_seed: u64,
    /// Configuration of every node's scoring service.
    pub node: ServeConfig,
    /// Crash/recovery schedule; `None` keeps every node up forever.
    pub crash: Option<CrashPlan>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 4,
            replicas: 1,
            placement_seed: 1,
            node: ServeConfig::default(),
            crash: None,
        }
    }
}

/// One response as the cluster reports it: the node that served it (if
/// any), the failover retries it consumed, and the underlying service
/// response with end-to-end latency (original arrival to final
/// completion, across every failover attempt).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClusterResponse {
    /// The node that produced the response; `None` for router-level
    /// outcomes (URL-stage verdict, unfetchable, retry exhaustion).
    pub node: Option<usize>,
    /// Failover re-dispatches this request consumed.
    pub retries: u32,
    /// The response itself.
    pub response: ServeResponse,
}

/// The canonical verdict stream of a cluster run: every response's
/// [`ServeResponse::verdict_line`] — the timing-, cache-, node- and
/// placement-independent projection — sorted by request id.
///
/// Completion order is a timing artifact (batch boundaries move with the
/// cluster shape); the id-sorted projection is what the determinism
/// contract pins down and what `kyp cluster --verdicts` writes for CI's
/// byte-comparison.
pub fn verdict_stream(responses: &[ClusterResponse]) -> Vec<String> {
    let mut keyed: Vec<(u64, String)> = responses
        .iter()
        .map(|r| (r.response.id, r.response.verdict_line()))
        .collect();
    keyed.sort_by_key(|&(id, _)| id);
    keyed.into_iter().map(|(_, line)| line).collect()
}

/// Internal event kinds, in tie-break order at equal instants: finalize
/// completions before anything else, flush before crashing, detect before
/// recovering, recover before re-admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    Completion,
    NodeDue,
    Crash,
    Detect,
    Recover,
    Relive,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    at: u64,
    kind: EventKind,
    node: usize,
}

/// A deterministic multi-node scoring cluster.
///
/// Wraps `shards` [`ScoringService`] nodes behind a consistent-hash
/// router. Drive it like a single service: [`ClusterService::push`] per
/// arrival, [`ClusterService::finish`] to drain, or
/// [`ClusterService::run_trace`] for a whole trace.
#[derive(Debug)]
pub struct ClusterService<S> {
    config: ClusterConfig,
    ring: HashRing,
    source: S,
    store: SharedStore,
    nodes: Vec<NodeSlot>,
    /// The URL-only cascade pre-filter, screening at the router so
    /// cascade-final requests never fetch, route or queue.
    cascade: Option<CascadeClassifier>,
    cascade_counters: CascadeCounters,
    /// Requests per landing key — the hot-URL detector. Ordered map so
    /// nothing here can leak iteration order (kyp-lint D01).
    hot: BTreeMap<String, u64>,
    /// Requests every live candidate refused, awaiting capacity.
    parked: VecDeque<(u64, Pending)>,
    /// Crash downtime clamped above the detection window.
    downtime_ms: u64,
    last_arrival_ms: u64,
    first_arrival_ms: Option<u64>,
    last_event_ms: u64,
    requests: u64,
    answered: u64,
    unfetchable: u64,
    degraded: u64,
    failover: FailoverCounters,
    routing: RoutingCounters,
    latency: Histogram,
}

impl<S: PageSource> ClusterService<S> {
    /// A fresh cluster of `config.shards` nodes, each scoring with its
    /// own clone of `pipeline`, all reading pages the router fetches
    /// from `source`.
    pub fn new(pipeline: Pipeline, source: S, config: ClusterConfig) -> Self {
        let config = ClusterConfig {
            shards: config.shards.max(1),
            replicas: config.replicas.clamp(1, config.shards.max(1)),
            ..config
        };
        let ring = HashRing::new(config.shards, VNODES, config.placement_seed);
        let store = SharedStore::new();
        let detection_window = MISS_THRESHOLD * HEARTBEAT_INTERVAL_MS;
        let downtime_ms = config
            .crash
            .as_ref()
            .map_or(0, |plan| plan.downtime_ms.max(detection_window + 1));
        let mut nodes = Vec::with_capacity(config.shards);
        for i in 0..config.shards {
            let service = ScoringService::new(pipeline.clone(), store.clone(), config.node.clone());
            let mut slot = NodeSlot::new(service);
            if let Some(plan) = &config.crash {
                slot.crash_at = plan.crash_after(i, 0);
            }
            nodes.push(slot);
        }
        ClusterService {
            ring,
            source,
            store,
            nodes,
            cascade: None,
            cascade_counters: CascadeCounters::default(),
            hot: BTreeMap::new(),
            parked: VecDeque::new(),
            downtime_ms,
            last_arrival_ms: 0,
            first_arrival_ms: None,
            last_event_ms: 0,
            requests: 0,
            answered: 0,
            unfetchable: 0,
            degraded: 0,
            failover: FailoverCounters::default(),
            routing: RoutingCounters::default(),
            latency: Histogram::pow2(),
            config,
        }
    }

    /// Installs the URL-only cascade pre-filter at the router: requests
    /// whose URL score falls outside the uncertainty band are
    /// answered immediately at arrival — no fetch, no placement, no node
    /// — tagged [`VerdictStage::UrlOnly`]. Prescreening is a pure
    /// function of the URL string, so the decision (and the verdict
    /// stream) stays invariant across shard counts, placements, thread
    /// counts and crash schedules.
    pub fn with_cascade(mut self, cascade: CascadeClassifier) -> Self {
        self.cascade = Some(cascade);
        self
    }

    /// Feeds one arrival into the cluster, returning every response
    /// finalized up to this arrival instant plus any immediate
    /// router-level outcome for the request itself.
    pub fn push(&mut self, request: ServeRequest) -> Vec<ClusterResponse> {
        let arrival = request.arrival_ms.max(self.last_arrival_ms);
        self.last_arrival_ms = arrival;
        self.first_arrival_ms.get_or_insert(arrival);
        self.note_time(arrival);

        let mut out = Vec::new();
        self.run_events_until(arrival, &mut out);
        self.drain_parked(arrival);

        self.requests += 1;

        // Stage one: the URL-only pre-filter, before the fetch — a
        // cascade-final request costs neither a scrape nor a node
        // dispatch.
        if let Some(cascade) = &self.cascade {
            let decision = cascade.prescreen(&request.url);
            self.cascade_counters.record(&decision);
            if let CascadeDecision::Final(verdict) = decision {
                self.answered += 1;
                self.latency.record(0);
                out.push(ClusterResponse {
                    node: None,
                    retries: 0,
                    response: ServeResponse::immediate(
                        request.id,
                        request.url,
                        ServeOutcome::from_verdict(&verdict.verdict),
                        arrival,
                        verdict.stage,
                    ),
                });
                return out;
            }
        }

        // Fetch once, at the router, in trace order — the determinism
        // anchor: the page source sees the same fetch sequence whatever
        // the cluster shape.
        let store_key = canonical_url(&request.url);
        if !self.store.contains(&store_key) {
            let result = self.source.fetch(&request.url);
            self.store.put(store_key.clone(), result);
        }
        let landing_key = match self.store.get(&store_key) {
            Some(Ok(page)) => page.visit.landing_url.canonical_key().to_owned(),
            fetched => {
                // Unfetchable (or, defensively, a missing memo entry):
                // decided here, before placement, so it is crash- and
                // shard-independent.
                let cause = match fetched {
                    Some(Err(cause)) => cause,
                    _ => kyp_web::FailureCause::NotFound,
                };
                self.unfetchable += 1;
                self.latency.record(0);
                out.push(ClusterResponse {
                    node: None,
                    retries: 0,
                    response: ServeResponse::immediate(
                        request.id,
                        request.url,
                        ServeOutcome::Unfetchable {
                            cause: cause.wire_name().to_owned(),
                        },
                        arrival,
                        VerdictStage::Full,
                    ),
                });
                return out;
            }
        };

        let seen = self.hot.entry(landing_key.clone()).or_insert(0);
        *seen += 1;
        let pending = Pending {
            url: request.url,
            landing_key,
            arrival_ms: arrival,
            retries: 0,
        };
        self.dispatch(request.id, pending, arrival);
        out
    }

    /// Drains the cluster: processes every remaining event until no work
    /// is left, and returns the responses.
    pub fn finish(&mut self) -> Vec<ClusterResponse> {
        let mut out = Vec::new();
        while self.work_remains() {
            self.drain_parked(self.last_event_ms);
            if !self.work_remains() {
                break;
            }
            let Some(ev) = self.next_event() else {
                // Unreachable by construction (pending work always has a
                // next event); break rather than spin if it ever isn't.
                break;
            };
            self.process_event(ev, &mut out);
        }
        out
    }

    /// Runs a whole trace: pushes every request in order, drains, and
    /// returns all responses in finalization order.
    pub fn run_trace(&mut self, trace: &[ServeRequest]) -> Vec<ClusterResponse> {
        let mut out = Vec::new();
        for request in trace {
            out.extend(self.push(request.clone()));
        }
        out.extend(self.finish());
        out
    }

    /// The end-of-run accounting report.
    pub fn report(&self) -> ClusterReport {
        let first = self.first_arrival_ms.unwrap_or(0);
        let elapsed = self.last_event_ms.saturating_sub(first);
        let throughput = if elapsed > 0 {
            self.answered as f64 / (elapsed as f64 / 1_000.0)
        } else {
            0.0
        };
        let shed = self.failover.retries_exhausted;
        let shed_ratio = if self.requests > 0 {
            shed as f64 / self.requests as f64
        } else {
            0.0
        };
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, slot)| NodeReport {
                node: i,
                crashes: slot.crashes,
                delivered: slot.delivered,
                serve: slot.service.report(),
            })
            .collect();
        ClusterReport {
            requests: self.requests,
            answered: self.answered,
            shed,
            shed_ratio,
            unfetchable: self.unfetchable,
            degraded: self.degraded,
            cascade_enabled: self.cascade.is_some(),
            cascade: self.cascade_counters,
            failover: self.failover,
            routing: self.routing,
            latency: LatencySummary::of(&self.latency),
            virtual_elapsed_ms: elapsed,
            throughput_per_vsec: throughput,
            nodes,
        }
    }

    /// Exports the end-of-run accounting into `registry`: the
    /// [`ClusterReport`] counters as `cluster.*` gauges plus the
    /// end-to-end latency histogram as `cluster.latency_ms`. Everything
    /// exported derives from virtual time and input-order counts, so the
    /// rendered json is byte-identical at any thread count.
    pub fn export_metrics(&self, registry: &mut kyp_obs::MetricsRegistry) {
        self.report().export_metrics(registry);
        registry.set_histogram("cluster.latency_ms", self.latency.clone());
    }

    fn note_time(&mut self, t: u64) {
        self.last_event_ms = self.last_event_ms.max(t);
    }

    /// The candidate nodes for `pending`, in preference order: the ring
    /// successors of its landing key, with hot keys rotating their entry
    /// point across the first `replicas` candidates.
    fn candidates(&mut self, pending: &Pending) -> Vec<usize> {
        let order = self.ring.successors(&pending.landing_key);
        let r = self.config.replicas.min(order.len()).max(1);
        let seen = self.hot.get(&pending.landing_key).copied().unwrap_or(1);
        if r > 1 && seen >= HOT_THRESHOLD {
            self.routing.hot_fanout += 1;
            let start = ((seen - HOT_THRESHOLD) % r as u64) as usize;
            let mut rotated = Vec::with_capacity(order.len());
            for i in 0..r {
                rotated.push(order[(start + i) % r]);
            }
            rotated.extend_from_slice(&order[r..]);
            rotated
        } else {
            order
        }
    }

    /// Hands `pending` to the best available node at `now_ms`: tries each
    /// candidate the router believes live, routing around refusals
    /// (per-node backpressure), black-holing into dead-but-undetected
    /// nodes, and parking when every live candidate refuses. Never sheds.
    fn dispatch(&mut self, id: u64, pending: Pending, now_ms: u64) {
        let candidates = self.candidates(&pending);
        for cand in candidates {
            let slot = &mut self.nodes[cand];
            if !slot.router_live {
                continue;
            }
            if !slot.alive {
                // Crashed but not yet detected: the router dispatches
                // into the void, exactly as a real fleet does during the
                // detection window. The request sits in `outstanding`
                // until the missed heartbeats trip failover.
                self.routing.dispatched += 1;
                slot.outstanding.insert(id, pending);
                return;
            }
            let responses = slot.service.push(ServeRequest {
                id,
                url: pending.url.clone(),
                arrival_ms: now_ms,
            });
            let mut refused = false;
            for r in responses {
                if r.id == id && matches!(r.outcome, ServeOutcome::Shed { .. }) {
                    refused = true;
                } else {
                    slot.inflight.push(r);
                }
            }
            if refused {
                self.routing.route_around += 1;
                continue;
            }
            self.routing.dispatched += 1;
            slot.outstanding.insert(id, pending);
            return;
        }
        self.routing.parked += 1;
        self.parked.push_back((id, pending));
    }

    /// Re-attempts every parked request once at `now_ms`. Requests still
    /// refused re-park (at the back), so one drain pass terminates.
    fn drain_parked(&mut self, now_ms: u64) {
        let rounds = self.parked.len();
        for _ in 0..rounds {
            let Some((id, pending)) = self.parked.pop_front() else {
                break;
            };
            self.dispatch(id, pending, now_ms);
        }
    }

    /// Any request not yet finally answered?
    fn work_remains(&self) -> bool {
        !self.parked.is_empty()
            || self.nodes.iter().any(|s| {
                !s.outstanding.is_empty()
                    || !s.inflight.is_empty()
                    || (s.alive && s.service.queue_len() > 0)
            })
    }

    /// The earliest pending event across the fleet, in `(time, kind,
    /// node)` order.
    fn next_event(&self) -> Option<Event> {
        let mut best: Option<Event> = None;
        let mut consider = |at: Option<u64>, kind: EventKind, node: usize| {
            if let Some(at) = at {
                let ev = Event { at, kind, node };
                if best.is_none_or(|b| ev < b) {
                    best = Some(ev);
                }
            }
        };
        for (i, slot) in self.nodes.iter().enumerate() {
            consider(slot.next_completion(), EventKind::Completion, i);
            if slot.alive {
                consider(slot.service.next_due(), EventKind::NodeDue, i);
            }
            consider(slot.crash_at, EventKind::Crash, i);
            consider(slot.detect_at, EventKind::Detect, i);
            consider(slot.recover_at, EventKind::Recover, i);
            consider(slot.relive_at, EventKind::Relive, i);
        }
        best
    }

    /// Processes every pending event at or before `horizon_ms`.
    fn run_events_until(&mut self, horizon_ms: u64, out: &mut Vec<ClusterResponse>) {
        while let Some(ev) = self.next_event() {
            if ev.at > horizon_ms {
                break;
            }
            self.process_event(ev, out);
        }
    }

    fn process_event(&mut self, ev: Event, out: &mut Vec<ClusterResponse>) {
        self.note_time(ev.at);
        match ev.kind {
            EventKind::Completion => {
                let done = self.nodes[ev.node].take_completions(ev.at);
                for r in done {
                    self.finalize(ev.node, r, out);
                }
            }
            EventKind::NodeDue => {
                let responses = self.nodes[ev.node]
                    .service
                    .advance_to(ev.at, &mut kyp_obs::NoopObserver);
                self.nodes[ev.node].inflight.extend(responses);
            }
            EventKind::Crash => self.crash_node(ev.node, ev.at),
            EventKind::Detect => self.detect_node(ev.node, ev.at, out),
            EventKind::Recover => self.recover_node(ev.node, ev.at),
            EventKind::Relive => {
                let slot = &mut self.nodes[ev.node];
                slot.relive_at = None;
                slot.router_live = true;
                self.drain_parked(ev.at);
            }
        }
    }

    /// The node process dies at `at`: its in-flight batch and queue are
    /// lost (the queue is physically cleared at restart), its cache shard
    /// will come back cold. The router does not know yet.
    fn crash_node(&mut self, node: usize, at: u64) {
        let interval = HEARTBEAT_INTERVAL_MS;
        let slot = &mut self.nodes[node];
        slot.alive = false;
        slot.crash_at = None;
        slot.crashes += 1;
        self.failover.crashes += 1;
        // The in-flight batch dies with the process; the requests stay in
        // `outstanding` and fail over at detection.
        slot.inflight.clear();
        // Detection: the first heartbeat strictly after the crash is
        // missed; `MISS_THRESHOLD` consecutive misses trip the detector.
        let first_missed = (at / interval + 1) * interval;
        let detect = first_missed + (MISS_THRESHOLD - 1) * interval;
        // Downtime is clamped above the detection window at construction,
        // so Crash < Detect < Recover ≤ Relive always holds.
        let recover = at + self.downtime_ms;
        let relive = recover.div_ceil(interval) * interval;
        slot.detect_at = Some(detect);
        slot.recover_at = Some(recover);
        slot.relive_at = Some(relive.max(recover));
    }

    /// Missed heartbeats trip at `at`: the router stops routing to the
    /// node and fails its outstanding requests over, in id order, with a
    /// bounded retry budget.
    fn detect_node(&mut self, node: usize, at: u64, out: &mut Vec<ClusterResponse>) {
        let slot = &mut self.nodes[node];
        slot.detect_at = None;
        slot.router_live = false;
        self.failover.detections += 1;
        let orphans: Vec<(u64, Pending)> =
            std::mem::take(&mut slot.outstanding).into_iter().collect();
        for (id, mut pending) in orphans {
            pending.retries += 1;
            self.failover.redispatched += 1;
            if pending.retries > RETRY_BUDGET {
                self.failover.retries_exhausted += 1;
                out.push(ClusterResponse {
                    node: None,
                    retries: pending.retries,
                    response: ServeResponse::immediate(
                        id,
                        pending.url,
                        ServeOutcome::Shed {
                            reason: SHED_RETRIES_EXHAUSTED.to_owned(),
                        },
                        at,
                        VerdictStage::Full,
                    ),
                });
            } else {
                self.dispatch(id, pending, at);
            }
        }
    }

    /// The process restarts cold at `at`: empty queue, cold cache shard,
    /// cold fetch memo, lifetime counters intact. The router still
    /// believes it dead until the next heartbeat ([`EventKind::Relive`]).
    fn recover_node(&mut self, node: usize, at: u64) {
        let slot = &mut self.nodes[node];
        slot.recover_at = None;
        slot.alive = true;
        slot.incarnation += 1;
        slot.up_since_ms = at;
        slot.service.restart();
        self.failover.recoveries += 1;
        if let Some(plan) = &self.config.crash {
            slot.crash_at = plan
                .crash_after(node, slot.incarnation)
                .map(|up| at.saturating_add(up));
        }
    }

    /// Finalizes one node response: matches it to its outstanding entry,
    /// rewrites latency to span from the *original* arrival, and accounts
    /// it.
    fn finalize(&mut self, node: usize, r: ServeResponse, out: &mut Vec<ClusterResponse>) {
        let slot = &mut self.nodes[node];
        let Some(pending) = slot.outstanding.remove(&r.id) else {
            // A completion for a request the router no longer tracks
            // (cannot happen by construction; dropped defensively rather
            // than double-answered).
            return;
        };
        slot.delivered += 1;
        self.note_time(r.completed_ms);
        let latency_ms = r.completed_ms.saturating_sub(pending.arrival_ms);
        match &r.outcome {
            ServeOutcome::Verdict { .. } => {
                self.answered += 1;
                if r.degraded {
                    self.degraded += 1;
                }
            }
            ServeOutcome::Unfetchable { .. } => self.unfetchable += 1,
            ServeOutcome::Shed { .. } => {}
        }
        self.latency.record(latency_ms);
        out.push(ClusterResponse {
            node: Some(node),
            retries: pending.retries,
            response: ServeResponse { latency_ms, ..r },
        });
    }
}
