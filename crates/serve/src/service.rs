//! The scoring service: admission, batching, caching and accounting wired
//! around a warm [`Pipeline`].
//!
//! # Event model
//!
//! The service is a deterministic discrete-event loop over a virtual
//! clock. Each pushed request is one arrival event; before it is admitted,
//! every batch flush that falls due at or before its arrival instant is
//! executed, in due order. A flush cuts up to `max_batch` requests off the
//! queue, scores them (cache, then pipeline for the misses) and completes
//! them all at `flush + BATCH_OVERHEAD_MS + SERVICE_COST_MS × batch_len`
//! (2 ms and 8 ms of virtual time). The scorer is busy until that
//! completion, so flushes serialize.
//!
//! # Determinism contract
//!
//! Two properties combine so the verdict stream is byte-identical across
//! thread counts *and* across cache-on/cache-off runs of the same trace:
//!
//! - **Fetch once.** The service memoizes every fetch by canonical
//!   request URL, so each unique URL hits the page source exactly once
//!   per run whatever the duplicate rate. Stateful sources (fault plans,
//!   circuit breakers, retry clocks) therefore see the same fetch
//!   sequence whether or not the verdict cache later absorbs repeats.
//! - **Pure classification.** A verdict is a pure function of the
//!   captured page, so a cached verdict equals the verdict recomputation
//!   would produce.
//!
//! The verdict cache is therefore a memo, not a policy: it maps each
//! canonical landing URL to its verdict for the service's lifetime, with
//! no capacity or expiry, because the fetch memo already holds every page
//! for that long and an entry could only be recomputed to the same bytes.
//! Freshness, if pages ever change, belongs to the fetch memo.
//!
//! The virtual cost model is deliberately cache-independent: hits and
//! misses cost the same *virtual* time, so queueing, shedding and batch
//! boundaries are identical in both runs. The cache's benefit is real
//! (wall-clock) time — hits skip feature extraction and both model
//! stages — which is exactly what the serving benchmark measures.

use crate::batcher::{BatchPolicy, MicroBatcher};
use crate::protocol::{CacheState, ServeOutcome, ServeRequest, ServeResponse};
use crate::queue::AdmissionQueue;
use crate::source::{canonical_url, PageSource};
use crate::stats::{CacheCounters, LatencySummary, ServeReport};
use kyp_core::{CascadeClassifier, CascadeCounters, CascadeDecision, Pipeline, PipelineVerdict};
use kyp_obs::{Histogram, VerdictStage};
use kyp_web::{FailureCause, ScrapedPage};
use std::collections::HashMap;

/// Shed reason reported when the admission queue is full.
pub const SHED_QUEUE_FULL: &str = "queue_full";

/// Virtual milliseconds of scoring work per request in a batch.
const SERVICE_COST_MS: u64 = 8;

/// Virtual milliseconds of fixed overhead per batch flush.
const BATCH_OVERHEAD_MS: u64 = 2;

/// Tuning of a [`ScoringService`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Admission queue depth; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Micro-batching policy.
    pub batch: BatchPolicy,
    /// Whether verdicts are memoized by canonical landing URL.
    pub cache: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            batch: BatchPolicy::default(),
            cache: true,
        }
    }
}

/// A memoized fetch: the page plus the canonical landing URL it settled
/// on (the verdict-cache key).
#[derive(Debug, Clone)]
struct StoredScrape {
    page: ScrapedPage,
    landing_key: String,
}

/// How one batched request resolves before response assembly.
enum Slot {
    Unfetchable(FailureCause),
    Cached(PipelineVerdict, bool),
    /// Index into the flush's to-classify vector.
    Pending(usize),
}

/// A long-lived online scoring service over a warm pipeline.
///
/// Generic over [`PageSource`] so the same loop serves a live simulated
/// web or a stored page capture. Drive it with [`ScoringService::push`]
/// per request (arrivals must be non-decreasing; regressions are clamped),
/// then [`ScoringService::finish`] to drain, or hand it a whole trace via
/// [`ScoringService::run_trace`].
#[derive(Debug)]
pub struct ScoringService<S> {
    pipeline: Pipeline,
    source: S,
    /// The verdict cache: `(verdict, degraded)` by canonical landing URL,
    /// or `None` with the cache off.
    cache: Option<HashMap<String, (PipelineVerdict, bool)>>,
    cache_counters: CacheCounters,
    cascade: Option<CascadeClassifier>,
    cascade_counters: CascadeCounters,
    queue: AdmissionQueue<ServeRequest>,
    batcher: MicroBatcher,
    latency: Histogram,
    page_store: HashMap<String, Result<StoredScrape, FailureCause>>,
    busy_until_ms: u64,
    last_arrival_ms: u64,
    first_arrival_ms: Option<u64>,
    last_event_ms: u64,
    answered: u64,
    unfetchable: u64,
    degraded: u64,
}

impl<S: PageSource> ScoringService<S> {
    /// A fresh service scoring pages from `source` with `pipeline`.
    pub fn new(pipeline: Pipeline, source: S, config: ServeConfig) -> Self {
        ScoringService {
            pipeline,
            source,
            cache: config.cache.then(HashMap::new),
            cache_counters: CacheCounters::default(),
            cascade: None,
            cascade_counters: CascadeCounters::default(),
            queue: AdmissionQueue::new(config.queue_capacity),
            batcher: MicroBatcher::new(config.batch),
            latency: Histogram::pow2(),
            page_store: HashMap::new(),
            busy_until_ms: 0,
            last_arrival_ms: 0,
            first_arrival_ms: None,
            last_event_ms: 0,
            answered: 0,
            unfetchable: 0,
            degraded: 0,
        }
    }

    /// Installs the URL-only cascade pre-filter in front of admission:
    /// requests whose URL score falls outside the cascade's uncertainty
    /// band are answered immediately at their arrival instant — no queue,
    /// no batch, no fetch, no cache — tagged [`VerdictStage::UrlOnly`].
    pub fn with_cascade(mut self, cascade: CascadeClassifier) -> Self {
        self.cascade = Some(cascade);
        self
    }

    /// Feeds one arrival into the service, returning every response that
    /// completes up to (and including) this arrival instant — batch
    /// flushes that fell due in the meantime, plus an immediate shed
    /// response if admission rejects the request.
    pub fn push(&mut self, request: ServeRequest) -> Vec<ServeResponse> {
        self.push_observed(request, &mut kyp_obs::NoopObserver)
    }

    /// Like [`ScoringService::push`], reporting shed, cache, batch and
    /// classification events to `obs`. The observer only watches; the
    /// responses are identical to the unobserved call.
    pub fn push_observed(
        &mut self,
        request: ServeRequest,
        obs: &mut dyn kyp_obs::PipelineObserver,
    ) -> Vec<ServeResponse> {
        let arrival = request.arrival_ms.max(self.last_arrival_ms);
        self.last_arrival_ms = arrival;
        self.first_arrival_ms.get_or_insert(arrival);
        self.last_event_ms = self.last_event_ms.max(arrival);

        let mut out = Vec::new();
        while let Some(due) = self.batcher.due_at(&self.queue, self.busy_until_ms) {
            if due > arrival {
                break;
            }
            self.flush_at(due, &mut out, obs);
        }

        // Stage one: the URL-only pre-filter. A final verdict answers at
        // the arrival instant and never touches queue, batcher, fetch or
        // cache — the whole point of the cascade. Prescreening is a pure
        // function of the URL string, so this branch is deterministic at
        // any thread count.
        if let Some(cascade) = &self.cascade {
            let decision = cascade.prescreen(&request.url);
            self.cascade_counters.record(&decision);
            obs.clock(arrival);
            obs.cascade_prescreen(decision.outcome());
            if let CascadeDecision::Final(verdict) = decision {
                self.answered += 1;
                self.latency.record(0);
                obs.verdict_stage(verdict.stage);
                out.push(ServeResponse::immediate(
                    request.id,
                    request.url,
                    ServeOutcome::from_verdict(&verdict.verdict),
                    arrival,
                    verdict.stage,
                ));
                return out;
            }
        }

        let request = ServeRequest {
            arrival_ms: arrival,
            ..request
        };
        if let Err(rejected) = self.queue.offer(request) {
            obs.clock(arrival);
            obs.shed();
            obs.verdict_stage(VerdictStage::Shed);
            out.push(ServeResponse::immediate(
                rejected.id,
                rejected.url,
                ServeOutcome::Shed {
                    reason: SHED_QUEUE_FULL.to_owned(),
                },
                arrival,
                VerdictStage::Full,
            ));
        }
        out
    }

    /// The next virtual instant a batch flush falls due, or `None` while
    /// the queue is empty.
    ///
    /// This is the scheduling seam an external event loop (the cluster
    /// router) uses to interleave this service's flushes with its own
    /// events instead of calling [`ScoringService::finish`] blind.
    pub fn next_due(&self) -> Option<u64> {
        self.batcher.due_at(&self.queue, self.busy_until_ms)
    }

    /// Advances the service's virtual clock to `now_ms` without feeding an
    /// arrival: executes every batch flush due at or before `now_ms`, in
    /// due order, reporting events to `obs`, and returns the responses.
    ///
    /// Note that a flush *starting* at or before `now_ms` may *complete*
    /// after it (completion = flush + overhead + per-request cost); the
    /// caller sees those completions in the returned responses' timestamps
    /// and decides how to sequence them against its own events.
    pub fn advance_to(
        &mut self,
        now_ms: u64,
        obs: &mut dyn kyp_obs::PipelineObserver,
    ) -> Vec<ServeResponse> {
        let mut out = Vec::new();
        while let Some(due) = self.batcher.due_at(&self.queue, self.busy_until_ms) {
            if due > now_ms {
                break;
            }
            self.flush_at(due, &mut out, obs);
        }
        out
    }

    /// Restarts the service cold after a simulated crash: the queue, the
    /// verdict-cache entries and the fetch memo are dropped and the scorer
    /// is immediately free, but every lifetime counter — admission, cache,
    /// batch, latency, answered/unfetchable/degraded — survives, so the
    /// end-of-run [`ServeReport`] still accounts for the whole lifetime
    /// across incarnations. The virtual clock is not rewound: arrivals
    /// after the restart continue the same monotone timeline.
    pub fn restart(&mut self) {
        let n = self.queue.len();
        let _ = self.queue.take_batch(n);
        if let Some(cache) = self.cache.as_mut() {
            cache.clear();
        }
        self.page_store.clear();
        self.busy_until_ms = 0;
    }

    /// Current admission-queue depth.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Drains the queue, flushing every remaining batch in due order, and
    /// returns the responses.
    pub fn finish(&mut self) -> Vec<ServeResponse> {
        self.finish_observed(&mut kyp_obs::NoopObserver)
    }

    /// Like [`ScoringService::finish`], reporting events to `obs`.
    pub fn finish_observed(
        &mut self,
        obs: &mut dyn kyp_obs::PipelineObserver,
    ) -> Vec<ServeResponse> {
        let mut out = Vec::new();
        while let Some(due) = self.batcher.due_at(&self.queue, self.busy_until_ms) {
            self.flush_at(due, &mut out, obs);
        }
        out
    }

    /// Runs a whole trace through the service: pushes every request in
    /// order, drains, and returns all responses (in completion order,
    /// shed responses at their arrival instant).
    pub fn run_trace(&mut self, trace: &[ServeRequest]) -> Vec<ServeResponse> {
        self.run_trace_observed(trace, &mut kyp_obs::NoopObserver)
    }

    /// Like [`ScoringService::run_trace`], reporting events to `obs`.
    ///
    /// The service is single-threaded at the event-loop level (only
    /// classification fans out, and that stage records/replays), so the
    /// observed stream is byte-identical at any thread count.
    pub fn run_trace_observed(
        &mut self,
        trace: &[ServeRequest],
        obs: &mut dyn kyp_obs::PipelineObserver,
    ) -> Vec<ServeResponse> {
        let mut out = Vec::new();
        for request in trace {
            out.extend(self.push_observed(request.clone(), obs));
        }
        out.extend(self.finish_observed(obs));
        out
    }

    /// The end-of-run accounting report.
    pub fn report(&self) -> ServeReport {
        let queue = self.queue.counters();
        let first = self.first_arrival_ms.unwrap_or(0);
        let elapsed = self.last_event_ms.saturating_sub(first);
        let throughput = if elapsed > 0 {
            self.answered as f64 / (elapsed as f64 / 1_000.0)
        } else {
            0.0
        };
        // Cascade-final requests never reach the admission queue, so the
        // request total adds them back in.
        let requests = queue.admitted + queue.shed + self.cascade_counters.url_only;
        let shed_ratio = if requests > 0 {
            queue.shed as f64 / requests as f64
        } else {
            0.0
        };
        ServeReport {
            requests,
            answered: self.answered,
            shed: queue.shed,
            shed_ratio,
            unfetchable: self.unfetchable,
            degraded: self.degraded,
            cache_enabled: self.cache.is_some(),
            cache: self.cache_counters,
            cascade_enabled: self.cascade.is_some(),
            cascade: self.cascade_counters,
            queue,
            batches: self.batcher.counters(),
            latency: LatencySummary::of(&self.latency),
            virtual_elapsed_ms: elapsed,
            throughput_per_vsec: throughput,
        }
    }

    /// Exports the end-of-run accounting into `registry`: every
    /// [`ServeReport`] counter as a `serve.report.*` gauge plus the full
    /// latency histogram. All exported values are derived from virtual
    /// time and input-order counts, so the rendered json is
    /// byte-identical at any thread count.
    pub fn export_metrics(&self, registry: &mut kyp_obs::MetricsRegistry) {
        let report = self.report();
        let gauge = |r: &mut kyp_obs::MetricsRegistry, name: &str, v: u64| {
            r.set_gauge(name, v.cast_signed());
        };
        gauge(registry, "serve.report.requests", report.requests);
        gauge(registry, "serve.report.answered", report.answered);
        gauge(registry, "serve.report.shed", report.shed);
        gauge(registry, "serve.report.unfetchable", report.unfetchable);
        gauge(registry, "serve.report.degraded", report.degraded);
        registry.set_gauge(
            "serve.report.cache_enabled",
            i64::from(report.cache_enabled),
        );
        gauge(registry, "serve.report.cache.hits", report.cache.hits);
        gauge(registry, "serve.report.cache.misses", report.cache.misses);
        gauge(
            registry,
            "serve.report.cache.insertions",
            report.cache.insertions,
        );
        registry.set_gauge(
            "serve.report.cascade_enabled",
            i64::from(report.cascade_enabled),
        );
        gauge(
            registry,
            "serve.report.cascade.screened",
            report.cascade.screened,
        );
        gauge(
            registry,
            "serve.report.cascade.url_only",
            report.cascade.url_only,
        );
        gauge(
            registry,
            "serve.report.cascade.fallthrough",
            report.cascade.fallthrough,
        );
        gauge(
            registry,
            "serve.report.cascade.unscorable",
            report.cascade.unscorable,
        );
        gauge(
            registry,
            "serve.report.queue.admitted",
            report.queue.admitted,
        );
        gauge(registry, "serve.report.queue.shed", report.queue.shed);
        registry.set_gauge(
            "serve.report.queue.high_water",
            report.queue.high_water.cast_signed(),
        );
        gauge(registry, "serve.report.batches", report.batches.batches);
        gauge(
            registry,
            "serve.report.batches.requests",
            report.batches.requests,
        );
        registry.set_gauge(
            "serve.report.batches.max_size",
            report.batches.max_size.cast_signed(),
        );
        gauge(
            registry,
            "serve.report.batches.full_flushes",
            report.batches.full_flushes,
        );
        gauge(
            registry,
            "serve.report.batches.deadline_flushes",
            report.batches.deadline_flushes,
        );
        gauge(
            registry,
            "serve.report.virtual_elapsed_ms",
            report.virtual_elapsed_ms,
        );
        registry.set_histogram("serve.latency_ms", self.latency.clone());
    }

    /// Executes the batch flush due at virtual instant `flush_ms`.
    fn flush_at(
        &mut self,
        flush_ms: u64,
        out: &mut Vec<ServeResponse>,
        obs: &mut dyn kyp_obs::PipelineObserver,
    ) {
        let batch = self.batcher.take(&mut self.queue);
        if batch.is_empty() {
            return;
        }
        obs.clock(flush_ms);
        obs.batch_flush(batch.len());
        let completion_ms = flush_ms
            .saturating_add(BATCH_OVERHEAD_MS)
            .saturating_add(SERVICE_COST_MS * batch.len() as u64);
        self.busy_until_ms = completion_ms;
        self.last_event_ms = self.last_event_ms.max(completion_ms);

        // Resolve each request: memoized fetch, then cache lookup; cache
        // misses accumulate into one batch for parallel classification.
        let mut slots = Vec::with_capacity(batch.len());
        let mut to_classify: Vec<(String, ScrapedPage)> = Vec::new();
        let mut pending_keys: Vec<String> = Vec::new();
        for request in &batch {
            let store_key = canonical_url(&request.url);
            // The entry API makes fetch-once memoization a single keyed
            // access: no check-then-get, nothing to expect (kyp-lint P01).
            let source = &mut self.source;
            let stored = self.page_store.entry(store_key).or_insert_with(|| {
                source.fetch(&request.url).map(|page| {
                    let landing_key = page.visit.landing_url.canonical_key().to_owned();
                    StoredScrape { page, landing_key }
                })
            });
            let slot = match stored {
                Err(cause) => Slot::Unfetchable(*cause),
                Ok(stored) => {
                    let cached = self.cache.as_ref().and_then(|c| c.get(&stored.landing_key));
                    if let Some((verdict, degraded)) = cached {
                        self.cache_counters.hits += 1;
                        obs.cache_hit();
                        Slot::Cached(verdict.clone(), *degraded)
                    } else {
                        if self.cache.is_some() {
                            self.cache_counters.misses += 1;
                            obs.cache_miss();
                        }
                        let idx = to_classify.len();
                        to_classify.push((request.url.clone(), stored.page.clone()));
                        pending_keys.push(stored.landing_key.clone());
                        Slot::Pending(idx)
                    }
                }
            };
            slots.push(slot);
        }

        let classified = self.pipeline.classify_scraped(&to_classify, obs);
        if let Some(cache) = self.cache.as_mut() {
            for (key, page) in pending_keys.into_iter().zip(&classified) {
                cache.insert(key, (page.verdict.clone(), page.degraded));
                self.cache_counters.insertions += 1;
            }
        }

        for (request, slot) in batch.into_iter().zip(slots) {
            let latency_ms = completion_ms.saturating_sub(request.arrival_ms);
            let (outcome, cache_state, degraded) = match slot {
                Slot::Unfetchable(cause) => {
                    self.unfetchable += 1;
                    (
                        ServeOutcome::Unfetchable {
                            cause: cause.wire_name().to_owned(),
                        },
                        CacheState::Skipped,
                        false,
                    )
                }
                Slot::Cached(verdict, degraded) => {
                    self.answered += 1;
                    // The wire stage stays Full (the stage that decided
                    // the cached verdict); Cached is metrics provenance.
                    obs.verdict_stage(VerdictStage::Cached);
                    let outcome = ServeOutcome::from_verdict(&verdict);
                    (outcome, CacheState::Hit, degraded)
                }
                Slot::Pending(idx) => {
                    self.answered += 1;
                    obs.verdict_stage(VerdictStage::Full);
                    // kyp-lint: allow(P02) — Pending slots are built from `classified` positions earlier in this function
                    let page = &classified[idx];
                    let state = if self.cache.is_some() {
                        CacheState::Miss
                    } else {
                        CacheState::Disabled
                    };
                    let outcome = ServeOutcome::from_verdict(&page.verdict);
                    (outcome, state, page.degraded)
                }
            };
            if degraded {
                self.degraded += 1;
            }
            self.latency.record(latency_ms);
            out.push(ServeResponse {
                id: request.id,
                url: request.url,
                outcome,
                cache: cache_state,
                degraded,
                latency_ms,
                completed_ms: completion_ms,
                stage: VerdictStage::Full,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::StoredPages;
    use crate::workload::{generate, ArrivalPattern, WorkloadConfig};
    use kyp_core::{DetectorConfig, FeatureExtractor, PhishDetector, TargetIdentifier};
    use kyp_ml::Dataset;
    use kyp_search::SearchEngine;
    use kyp_web::VisitedPage;
    use std::sync::Arc;

    fn url(s: &str) -> kyp_url::Url {
        kyp_url::Url::parse(s).unwrap()
    }

    fn phish_page(i: usize) -> VisitedPage {
        let u = url(&format!("http://paypal-secure{i}.badhost.example/login"));
        VisitedPage {
            starting_url: u.clone(),
            landing_url: u.clone(),
            redirection_chain: vec![u],
            logged_links: vec![url("http://cdn.badhost.example/kit.js")],
            href_links: vec![url("http://paypal.com/")],
            text: "paypal secure login verify your paypal account password now".into(),
            title: "PayPal Login".into(),
            copyright: Some("paypal".into()),
            screenshot_text: "paypal login".into(),
            input_count: 3,
            image_count: 1,
            iframe_count: 1,
        }
    }

    fn legit_page(i: usize) -> VisitedPage {
        let u = url(&format!("http://mybank{i}.example.com/"));
        VisitedPage {
            starting_url: u.clone(),
            landing_url: u.clone(),
            redirection_chain: vec![u],
            logged_links: vec![url(&format!("http://mybank{i}.example.com/style.css"))],
            href_links: vec![url(&format!("http://mybank{i}.example.com/about"))],
            text: "welcome to our neighborhood bank branch opening hours and news".into(),
            title: "My Bank".into(),
            copyright: Some("mybank".into()),
            screenshot_text: String::new(),
            input_count: 0,
            image_count: 2,
            iframe_count: 0,
        }
    }

    fn pipeline() -> Pipeline {
        let extractor = FeatureExtractor::default();
        let mut data = Dataset::new(kyp_core::features::FEATURE_COUNT);
        for i in 0..40 {
            data.push_row(&extractor.extract(&phish_page(i)), true);
            data.push_row(&extractor.extract(&legit_page(i)), false);
        }
        let detector = PhishDetector::train(&data, &DetectorConfig::default());
        let mut engine = SearchEngine::new();
        engine.index_page(
            "paypal.com",
            "paypal",
            "paypal account login send money online payments paypal",
        );
        engine.index_page(
            "mybank0.example.com",
            "mybank0",
            "welcome neighborhood bank branch news mybank",
        );
        Pipeline::new(extractor, detector, TargetIdentifier::new(Arc::new(engine)))
    }

    fn store(pages: usize) -> (StoredPages, Vec<String>) {
        let mut all = Vec::new();
        let mut urls = Vec::new();
        for i in 0..pages {
            let p = phish_page(i);
            urls.push(p.starting_url.to_string());
            all.push(p);
            let l = legit_page(i);
            urls.push(l.starting_url.to_string());
            all.push(l);
        }
        (StoredPages::new(all), urls)
    }

    fn service(cache: bool) -> ScoringService<StoredPages> {
        let (pages, _) = store(20);
        ScoringService::new(
            pipeline(),
            pages,
            ServeConfig {
                cache,
                ..ServeConfig::default()
            },
        )
    }

    fn trace(requests: usize, duplicate_rate: f64) -> Vec<ServeRequest> {
        let (_, urls) = store(20);
        generate(
            &WorkloadConfig {
                requests,
                duplicate_rate,
                ..WorkloadConfig::default()
            },
            &urls,
        )
    }

    #[test]
    fn answers_every_request_of_a_clean_trace() {
        let mut svc = service(true);
        let trace = trace(100, 0.3);
        let responses = svc.run_trace(&trace);
        assert_eq!(responses.len(), 100);
        let report = svc.report();
        assert_eq!(report.requests, 100);
        assert_eq!(report.answered, 100);
        assert_eq!(report.shed, 0);
        assert_eq!(report.unfetchable, 0);
        assert!(report.cache.hits > 0, "duplicates should hit the cache");
        assert!(report.latency.count == 100);
        assert!(report.virtual_elapsed_ms > 0);
        assert!(report.throughput_per_vsec > 0.0);
        // Responses complete in non-decreasing virtual time.
        let times: Vec<u64> = responses.iter().map(|r| r.completed_ms).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn cache_on_and_off_produce_identical_verdict_streams() {
        let trace = trace(200, 0.4);
        let mut on = service(true);
        let mut off = service(false);
        let lines_on: Vec<String> = on
            .run_trace(&trace)
            .iter()
            .map(super::super::protocol::ServeResponse::verdict_line)
            .collect();
        let lines_off: Vec<String> = off
            .run_trace(&trace)
            .iter()
            .map(super::super::protocol::ServeResponse::verdict_line)
            .collect();
        assert_eq!(lines_on, lines_off);
        assert!(on.report().cache.hits > 0);
        assert_eq!(off.report().cache.hits, 0);
        // The virtual cost model is cache-independent, so even the timing
        // reports agree on everything but the cache counters.
        let (ron, roff) = (on.report(), off.report());
        assert_eq!(ron.latency, roff.latency);
        assert_eq!(ron.virtual_elapsed_ms, roff.virtual_elapsed_ms);
    }

    #[test]
    fn cache_counts_hits_misses_and_insertions() {
        use CacheState::{Disabled, Hit, Miss};
        let (_, urls) = store(20);
        // One request per batch, then a same-instant pair that shares one.
        let mut trace: Vec<ServeRequest> = [0, 0, 1, 0, 1, 2]
            .iter()
            .enumerate()
            .map(|(i, &u)| ServeRequest {
                id: i as u64,
                url: urls[u].clone(),
                arrival_ms: i as u64 * 1_000,
            })
            .collect();
        for id in [6, 7] {
            trace.push(ServeRequest {
                id,
                url: urls[3].clone(),
                arrival_ms: 6_000,
            });
        }
        let mut on = service(true);
        let states: Vec<CacheState> = on.run_trace(&trace).iter().map(|r| r.cache).collect();
        assert_eq!(states, [Miss, Hit, Miss, Hit, Hit, Miss, Miss, Miss]);
        let k = on.report().cache;
        assert_eq!((k.hits, k.misses, k.insertions), (3, 5, 5));

        let mut off = service(false);
        let states: Vec<CacheState> = off.run_trace(&trace).iter().map(|r| r.cache).collect();
        assert_eq!(states, [Disabled; 8]);
        assert_eq!(off.report().cache, CacheCounters::default());
    }

    #[test]
    fn revisits_after_five_virtual_minutes_still_hit_the_cache() {
        // One request per batch, 20 virtual seconds apart: an hour of
        // revisits that no capacity or expiry may turn into misses.
        let (_, urls) = store(20);
        let trace = generate(
            &WorkloadConfig {
                requests: 180,
                duplicate_rate: 0.5,
                arrival: ArrivalPattern::Steady { gap_ms: 20_000 },
                ..WorkloadConfig::default()
            },
            &urls,
        );
        let mut on = service(true);
        let responses = on.run_trace(&trace);
        assert_eq!(on.report().batches.max_size, 1);
        let mut first_visit: HashMap<String, u64> = HashMap::new();
        let mut late_revisits = 0;
        for (request, response) in trace.iter().zip(&responses) {
            assert_eq!(request.id, response.id);
            let first = *first_visit
                .entry(canonical_url(&request.url))
                .or_insert(request.arrival_ms);
            let expected = if first == request.arrival_ms {
                CacheState::Miss
            } else {
                CacheState::Hit
            };
            assert_eq!(response.cache, expected, "request {}", request.id);
            if request.arrival_ms - first > 300_000 {
                late_revisits += 1;
            }
        }
        assert!(late_revisits > 0, "no revisit after five minutes");

        let mut off = service(false);
        let lines_off: Vec<String> = off
            .run_trace(&trace)
            .iter()
            .map(ServeResponse::verdict_line)
            .collect();
        let lines_on: Vec<String> = responses.iter().map(ServeResponse::verdict_line).collect();
        assert_eq!(lines_on, lines_off);
    }

    #[test]
    fn bursty_overload_sheds_deterministically() {
        let (_, urls) = store(20);
        let trace = generate(
            &WorkloadConfig {
                requests: 120,
                duplicate_rate: 0.2,
                arrival: ArrivalPattern::Bursty {
                    burst: 40,
                    burst_gap_ms: 0,
                    idle_gap_ms: 5,
                },
                ..WorkloadConfig::default()
            },
            &urls,
        );
        let run = || {
            let (pages, _) = store(20);
            let mut svc = ScoringService::new(
                pipeline(),
                pages,
                ServeConfig {
                    queue_capacity: 8,
                    ..ServeConfig::default()
                },
            );
            let lines: Vec<String> = svc
                .run_trace(&trace)
                .iter()
                .map(super::super::protocol::ServeResponse::verdict_line)
                .collect();
            (lines, svc.report())
        };
        let (lines_a, report_a) = run();
        let (lines_b, report_b) = run();
        assert_eq!(lines_a, lines_b);
        assert_eq!(report_a, report_b);
        assert!(report_a.shed > 0, "overload must shed");
        assert_eq!(report_a.requests, 120);
        assert_eq!(
            report_a.answered + report_a.shed + report_a.unfetchable,
            120
        );
        assert_eq!(report_a.queue.high_water, 8);
    }

    #[test]
    fn unknown_urls_come_back_unfetchable() {
        let mut svc = service(true);
        let responses = svc.run_trace(&[ServeRequest {
            id: 0,
            url: "http://unknown.example.org/".into(),
            arrival_ms: 0,
        }]);
        assert_eq!(responses.len(), 1);
        assert_eq!(
            responses[0].outcome,
            ServeOutcome::Unfetchable {
                cause: "not_found".into()
            }
        );
        assert_eq!(svc.report().unfetchable, 1);
    }

    #[test]
    fn each_unique_url_fetches_once_despite_duplicates() {
        let (pages, urls) = store(4);
        let mut svc = ScoringService::new(pipeline(), pages, ServeConfig::default());
        let trace = generate(
            &WorkloadConfig {
                requests: 64,
                duplicate_rate: 0.8,
                ..WorkloadConfig::default()
            },
            &urls[..4],
        );
        svc.run_trace(&trace);
        assert!(svc.page_store.len() <= 4);
        assert_eq!(svc.report().answered, 64);
    }

    #[test]
    fn advance_to_flushes_only_due_batches() {
        let mut svc = service(false);
        let (_, urls) = store(20);
        // Two arrivals at t=0; max_batch is 8 so the pair waits for the
        // 25 ms deadline of the oldest request.
        for (i, url) in urls.iter().take(2).enumerate() {
            let out = svc.push(ServeRequest {
                id: i as u64,
                url: url.clone(),
                arrival_ms: 0,
            });
            assert!(out.is_empty());
        }
        assert_eq!(svc.next_due(), Some(25));
        let obs = &mut kyp_obs::NoopObserver;
        assert!(svc.advance_to(24, obs).is_empty(), "not due yet");
        assert_eq!(svc.queue_len(), 2);
        let out = svc.advance_to(25, obs);
        assert_eq!(out.len(), 2, "deadline flush fires at 25");
        assert!(out.iter().all(|r| r.completed_ms > 25));
        assert_eq!(svc.next_due(), None);
        assert_eq!(svc.queue_len(), 0);
    }

    #[test]
    fn restart_clears_state_but_keeps_lifetime_counters() {
        let mut svc = service(true);
        let trace = trace(40, 0.5);
        let _ = svc.run_trace(&trace);
        let before = svc.report();
        assert!(before.answered > 0 && before.cache.hits > 0);
        // Leave a backlog queued, then crash.
        let (_, urls) = store(20);
        let _ = svc.push(ServeRequest {
            id: 999,
            url: urls[0].clone(),
            arrival_ms: 1_000_000,
        });
        svc.restart();
        assert_eq!(svc.queue_len(), 0, "backlog lost with the node");
        assert!(svc.page_store.is_empty(), "fetch memo is cold");
        let after = svc.report();
        assert_eq!(after.answered, before.answered, "accounting survives");
        assert_eq!(after.cache, before.cache, "cache counters survive");
        // The cold cache misses on a key it used to hold.
        let out = svc.run_trace(&[ServeRequest {
            id: 1_000,
            url: urls[0].clone(),
            arrival_ms: 2_000_000,
        }]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].cache, CacheState::Miss, "restart emptied the cache");
    }

    #[test]
    fn restart_empties_the_cache_but_keeps_its_counters() {
        let mut svc = service(true);
        let _ = svc.run_trace(&trace(40, 0.5));
        let before = svc.report().cache;
        assert!(before.hits > 0 && before.insertions > 0);
        svc.restart();
        assert_eq!(svc.report().cache, before, "lifetime accounting survives");
        // The cold cache misses on a key it used to hold, then refills and
        // keeps counting from the surviving totals.
        let (_, urls) = store(20);
        let out = svc.run_trace(&[
            ServeRequest {
                id: 1_000,
                url: urls[0].clone(),
                arrival_ms: 2_000_000,
            },
            ServeRequest {
                id: 1_001,
                url: urls[0].clone(),
                arrival_ms: 3_000_000,
            },
        ]);
        let states: Vec<CacheState> = out.iter().map(|r| r.cache).collect();
        assert_eq!(
            states,
            [CacheState::Miss, CacheState::Hit],
            "restart emptied the cache"
        );
        let k = svc.report().cache;
        assert_eq!(
            (k.hits, k.misses, k.insertions),
            (before.hits + 1, before.misses + 1, before.insertions + 1)
        );
    }

    #[test]
    fn report_shed_ratio_matches_counts() {
        let mut svc = service(true);
        assert!(svc.report().shed_ratio.abs() < f64::EPSILON, "no requests");
        let trace = trace(100, 0.3);
        let _ = svc.run_trace(&trace);
        let report = svc.report();
        assert_eq!(report.shed, 0);
        assert!(report.shed_ratio.abs() < f64::EPSILON);
        // An overloaded service reports the exact ratio.
        let (_, urls) = store(20);
        let bursty = generate(
            &WorkloadConfig {
                requests: 120,
                duplicate_rate: 0.2,
                arrival: ArrivalPattern::Bursty {
                    burst: 40,
                    burst_gap_ms: 0,
                    idle_gap_ms: 5,
                },
                ..WorkloadConfig::default()
            },
            &urls,
        );
        let (pages, _) = store(20);
        let mut tight = ScoringService::new(
            pipeline(),
            pages,
            ServeConfig {
                queue_capacity: 8,
                ..ServeConfig::default()
            },
        );
        let _ = tight.run_trace(&bursty);
        let r = tight.report();
        assert!(r.shed > 0);
        let expected = r.shed as f64 / r.requests as f64;
        assert!((r.shed_ratio - expected).abs() < 1e-12);
    }

    fn cascade(band: kyp_core::CascadeBand) -> CascadeClassifier {
        let legit: Vec<String> = (0..40)
            .map(|i| legit_page(i).starting_url.to_string())
            .collect();
        let phish: Vec<String> = (0..40)
            .map(|i| phish_page(i).starting_url.to_string())
            .collect();
        let ranker = kyp_web::DomainRanker::from_ranked(["mybank0.example.com"]);
        let detector = kyp_core::cascade::train_url_stage(
            &legit,
            &phish,
            &ranker,
            &kyp_core::DetectorConfig::url_stage(),
        )
        .unwrap();
        CascadeClassifier::new(detector, ranker, band)
    }

    #[test]
    fn cascade_finalises_confident_urls_without_fetching() {
        let band = kyp_core::CascadeBand::new(0.35, 0.65).unwrap();
        let mut svc = service(true).with_cascade(cascade(band));
        let trace = trace(100, 0.0);
        let responses = svc.run_trace(&trace);
        assert_eq!(responses.len(), 100);
        let report = svc.report();
        assert_eq!(report.requests, 100);
        assert_eq!(report.answered, 100);
        assert!(report.cascade_enabled);
        assert_eq!(report.cascade.screened, 100);
        assert!(
            report.cascade.url_only > 50,
            "the URL stage should finalise most of this lexically easy trace: {:?}",
            report.cascade
        );
        assert_eq!(
            report.cascade.url_only + report.cascade.fallthrough + report.cascade.unscorable,
            report.cascade.screened
        );
        // Cascade-final requests never fetch: the memo only holds the
        // fallthroughs.
        assert!(svc.page_store.len() as u64 <= report.cascade.fallthrough);
        for r in &responses {
            if r.stage == kyp_obs::VerdictStage::UrlOnly {
                assert_eq!(r.latency_ms, 0, "URL-stage verdicts answer at arrival");
                assert_eq!(r.cache, CacheState::Skipped);
                assert!(r.verdict_line().ends_with(" stage=url_only"));
            }
        }
    }

    #[test]
    fn forced_full_band_is_byte_identical_to_no_cascade() {
        let trace = trace(150, 0.3);
        let mut plain = service(true);
        let mut forced = service(true).with_cascade(cascade(kyp_core::CascadeBand::FORCED_FULL));
        let lines_plain: Vec<String> = plain
            .run_trace(&trace)
            .iter()
            .map(ServeResponse::verdict_line)
            .collect();
        let lines_forced: Vec<String> = forced
            .run_trace(&trace)
            .iter()
            .map(ServeResponse::verdict_line)
            .collect();
        assert_eq!(lines_plain, lines_forced);
        let report = forced.report();
        assert_eq!(report.cascade.url_only, 0, "band 0,1 never finalises");
        assert_eq!(report.cascade.fallthrough, 150);
    }

    #[test]
    fn regressive_arrivals_are_clamped_monotone() {
        let mut svc = service(false);
        let (_, urls) = store(20);
        let mut out = svc.push(ServeRequest {
            id: 0,
            url: urls[0].clone(),
            arrival_ms: 500,
        });
        out.extend(svc.push(ServeRequest {
            id: 1,
            url: urls[1].clone(),
            arrival_ms: 100, // regresses; clamped to 500
        }));
        out.extend(svc.finish());
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|r| r.completed_ms > 500));
    }
}
