//! The serving layer's determinism contract, end to end.
//!
//! `kyp-serve` promises that the verdict stream — the
//! `ServeResponse::verdict_line` projection of every response, in
//! completion order — is byte-identical across thread counts and under a
//! seeded fault plan, and that every verdict, whether the verdict memo
//! answered it or the pipeline did, is the verdict a fresh
//! classification of the page the service fetched would give. These
//! tests drive a real trained pipeline over the simulated web through
//! `ScoringService` and `ClusterService`, record every fetch with a
//! `RecordingSource`, and check each delivered verdict against
//! `Pipeline::classify_degraded` of the page fetched for its URL. That
//! check is stronger than comparing a cached run with an uncached one,
//! which two equally wrong runs would pass.
//!
//! The model-snapshot round trip is covered here too: a service scoring
//! with a detector that went through `train → save → load` must emit
//! the same bytes as one scoring with the original in-memory detector.

use knowyourphish::cluster::{ClusterConfig, ClusterService};
use knowyourphish::core::{
    cascade::train_url_stage, CascadeBand, CascadeClassifier, CascadeDecision, DetectorConfig,
    FeatureExtractor, ModelSnapshot, PhishDetector, Pipeline, TargetIdentifier, VerdictStage,
};
use knowyourphish::datagen::{CampaignConfig, Corpus};
use knowyourphish::ml::Dataset;
use knowyourphish::serve::{
    canonical_url, generate, ArrivalPattern, BatchPolicy, CacheState, PageSource, ScoringService,
    ScraperSource, ServeConfig, ServeOutcome, ServeRequest, ServeResponse, WorkloadConfig,
};
use knowyourphish::web::{FailureCause, FaultPlan, FlakyWorld, ScrapedPage};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Micro-batch sizes the invariance sweep runs at: one request per flush,
/// and the batched default.
const MAX_BATCHES: [usize; 2] = [1, 8];

fn small_corpus() -> Corpus {
    Corpus::generate(&CampaignConfig {
        seed: 91,
        phish_train: 40,
        phish_test: 30,
        phish_brand: 8,
        leg_train: 160,
        english_test: 80,
        other_language_test: 10,
    })
}

fn train_detector(corpus: &Corpus, extractor: &FeatureExtractor) -> PhishDetector {
    let browser = knowyourphish::web::Browser::new(&corpus.world);
    let mut data = Dataset::new(extractor.feature_count());
    for url in &corpus.leg_train {
        data.push_row(&extractor.extract(&browser.visit(url).unwrap()), false);
    }
    for r in &corpus.phish_train {
        data.push_row(&extractor.extract(&browser.visit(&r.url).unwrap()), true);
    }
    PhishDetector::train(&data, &DetectorConfig::default())
}

fn pipeline_for(corpus: &Corpus) -> Pipeline {
    let extractor = FeatureExtractor::new(corpus.ranker.clone());
    knowyourphish::exec::set_threads(1);
    let detector = train_detector(corpus, &extractor);
    Pipeline::new(
        extractor,
        detector,
        TargetIdentifier::new(Arc::new(corpus.engine.clone())),
    )
}

/// A seeded 30%-duplicate trace over the corpus's test URLs, with two
/// unfetchable URLs mixed into the pool so failure responses are part of
/// the compared stream.
fn serving_trace(corpus: &Corpus) -> Vec<ServeRequest> {
    let mut pool: Vec<String> = corpus.phish_test.iter().map(|r| r.url.clone()).collect();
    pool.extend(corpus.english_test().iter().take(40).cloned());
    pool.push("http://nowhere.invalid/".into());
    pool.push("not a url".into());
    generate(
        &WorkloadConfig {
            seed: 404,
            requests: 300,
            duplicate_rate: 0.3,
            arrival: ArrivalPattern::Bursty {
                burst: 12,
                burst_gap_ms: 1,
                idle_gap_ms: 30,
            },
            fault_seed: 0,
            fault_rate: 0.0,
        },
        &pool,
    )
}

/// Trains the URL stage on the corpus's training URLs.
fn cascade_for(corpus: &Corpus) -> CascadeClassifier {
    let phish_train: Vec<String> = corpus.phish_train.iter().map(|r| r.url.clone()).collect();
    let detector = train_url_stage(
        &corpus.leg_train,
        &phish_train,
        &corpus.ranker,
        &DetectorConfig::url_stage(),
    )
    .expect("train URL stage");
    CascadeClassifier::new(detector, corpus.ranker.clone(), CascadeBand::default())
}

fn serve_config(max_batch: usize) -> ServeConfig {
    ServeConfig {
        queue_capacity: 16, // small enough that the bursts shed
        batch: BatchPolicy {
            max_batch,
            max_delay_ms: 25,
        },
    }
}

fn verdict_lines<S: PageSource>(
    mut service: ScoringService<S>,
    trace: &[ServeRequest],
) -> Vec<String> {
    service
        .run_trace(trace)
        .iter()
        .map(ServeResponse::verdict_line)
        .collect()
}

/// Every fetch a [`RecordingSource`] served: request URL and result.
type FetchLog = Rc<RefCell<Vec<(String, Result<ScrapedPage, FailureCause>)>>>;

/// A page source that logs each fetch and its result before handing the
/// result on, so a test can check every served verdict against the page
/// the service was given.
struct RecordingSource<S> {
    inner: S,
    log: FetchLog,
}

impl<S> RecordingSource<S> {
    fn new(inner: S) -> (Self, FetchLog) {
        let log = FetchLog::default();
        let source = RecordingSource {
            inner,
            log: Rc::clone(&log),
        };
        (source, log)
    }
}

impl<S: PageSource> PageSource for RecordingSource<S> {
    fn fetch(&mut self, url: &str) -> Result<ScrapedPage, FailureCause> {
        let result = self.inner.fetch(url);
        self.log.borrow_mut().push((url.to_owned(), result.clone()));
        result
    }
}

/// Checks `responses` against the fetches in `log`: each canonical
/// request URL was fetched at most once; a URL-stage verdict is the
/// cascade's; every other verdict, hit or miss, is
/// `Pipeline::classify_degraded` of the page fetched for the request's
/// URL, with that page's degraded flag; an unfetchable answer names the
/// fetch's failure. Shed responses carry no verdict and are skipped.
/// Returns the number of cache hits checked.
fn assert_verdicts_are_the_fetched_pages(
    pipeline: &Pipeline,
    cascade: Option<&CascadeClassifier>,
    log: &FetchLog,
    responses: &[&ServeResponse],
    label: &str,
) -> usize {
    let mut fresh: BTreeMap<String, (ServeOutcome, bool)> = BTreeMap::new();
    for (url, fetched) in log.borrow().iter() {
        let answer = match fetched {
            Ok(page) => {
                let verdict = pipeline.classify_degraded(&page.visit, &page.availability);
                (
                    ServeOutcome::from_verdict(&verdict),
                    page.availability.is_degraded(),
                )
            }
            Err(cause) => (
                ServeOutcome::Unfetchable {
                    cause: cause.wire_name().to_owned(),
                },
                false,
            ),
        };
        let again = fresh.insert(canonical_url(url), answer);
        assert!(again.is_none(), "{label}: {url} fetched twice");
    }
    let mut hits = 0;
    for response in responses {
        let want = match (&response.outcome, response.stage) {
            (ServeOutcome::Shed { .. }, _) => continue,
            (_, VerdictStage::UrlOnly) => {
                let screened = cascade.map(|c| c.prescreen(&response.url));
                let Some(CascadeDecision::Final(verdict)) = screened else {
                    panic!(
                        "{label}: request {} is not final at the URL stage",
                        response.id
                    );
                };
                (ServeOutcome::from_verdict(&verdict.verdict), false)
            }
            _ => fresh
                .get(&canonical_url(&response.url))
                .unwrap_or_else(|| panic!("{label}: {} answered unfetched", response.url))
                .clone(),
        };
        assert_eq!(
            (&response.outcome, response.degraded),
            (&want.0, want.1),
            "{label}: request {} ({}, cache {:?}) is not the verdict of its fetched page",
            response.id,
            response.url,
            response.cache
        );
        if response.cache == CacheState::Hit {
            hits += 1;
        }
    }
    hits
}

/// Serves `trace` through a fresh service over `source`, checks every
/// verdict against the page recorded for its URL, and returns the
/// verdict lines and the number of cache hits checked.
fn checked_serve_run<S: PageSource>(
    pipeline: &Pipeline,
    cascade: Option<&CascadeClassifier>,
    source: S,
    max_batch: usize,
    trace: &[ServeRequest],
    label: &str,
) -> (Vec<String>, usize) {
    let (source, log) = RecordingSource::new(source);
    let mut service = ScoringService::new(pipeline.clone(), source, serve_config(max_batch));
    if let Some(cascade) = cascade {
        service = service.with_cascade(cascade.clone());
    }
    let responses = service.run_trace(trace);
    assert_eq!(
        responses.len(),
        trace.len(),
        "{label}: every request answered"
    );
    let refs: Vec<&ServeResponse> = responses.iter().collect();
    let hits = assert_verdicts_are_the_fetched_pages(pipeline, cascade, &log, &refs, label);
    let lines = responses.iter().map(ServeResponse::verdict_line).collect();
    (lines, hits)
}

/// One trace over a clean simulated web, served at 1/2/8 threads, at a
/// batch size of 1 and of 8, with and without the URL-stage cascade:
/// every verdict — the verdict cache's answers included — must be the
/// verdict of the page fetched for its URL, and per batch size and
/// cascade setting every verdict stream must be byte-identical. Batching
/// changes the schedule, and so which requests are shed, so each batch
/// size has its own baseline.
#[test]
fn serve_stream_is_invariant_across_threads_and_cache() {
    let corpus = small_corpus();
    let pipeline = pipeline_for(&corpus);
    let cascade = cascade_for(&corpus);
    let trace = serving_trace(&corpus);

    let mut hits = 0;
    for max_batch in MAX_BATCHES {
        for cascade in [None, Some(&cascade)] {
            let mut baseline: Option<Vec<String>> = None;
            for threads in THREAD_COUNTS {
                knowyourphish::exec::set_threads(threads);
                let label = format!(
                    "max_batch={max_batch}, {threads} threads, cascade={}",
                    cascade.is_some()
                );
                let source = ScraperSource::new(&corpus.world);
                let (lines, run_hits) =
                    checked_serve_run(&pipeline, cascade, source, max_batch, &trace, &label);
                hits += run_hits;
                match &baseline {
                    None => baseline = Some(lines),
                    Some(base) => {
                        assert_eq!(*base, lines, "verdict stream diverges at {label}");
                    }
                }
            }
        }
    }
    assert!(hits > 0, "the sweep must check cache hits");
    knowyourphish::exec::set_threads(0);
}

/// The same sweep under a seeded fault plan: retries, transient failures
/// and circuit-breaker state make the page source stateful, but because
/// the service fetches each unique URL exactly once, the fault sequence —
/// and so the verdict stream — is identical in every configuration, and
/// every verdict is still the verdict of the (possibly degraded) page
/// the service was handed.
#[test]
fn serve_stream_is_invariant_under_faults() {
    let corpus = small_corpus();
    let pipeline = pipeline_for(&corpus);
    let cascade = cascade_for(&corpus);
    let trace = serving_trace(&corpus);

    let mut unfetchable = false;
    for max_batch in MAX_BATCHES {
        for cascade in [None, Some(&cascade)] {
            let mut baseline: Option<Vec<String>> = None;
            for threads in THREAD_COUNTS {
                knowyourphish::exec::set_threads(threads);
                let label = format!(
                    "faulty web, max_batch={max_batch}, {threads} threads, cascade={}",
                    cascade.is_some()
                );
                let flaky = FlakyWorld::new(&corpus.world, FaultPlan::new(5, 0.3));
                let source = ScraperSource::new(&flaky);
                let (lines, _) =
                    checked_serve_run(&pipeline, cascade, source, max_batch, &trace, &label);
                match &baseline {
                    None => baseline = Some(lines),
                    Some(base) => {
                        assert_eq!(*base, lines, "verdict stream diverges at {label}");
                    }
                }
            }
            // The fault plan must actually bite — otherwise this test
            // collapses into the clean-web one.
            unfetchable |= baseline
                .expect("sweep ran")
                .iter()
                .any(|l| l.contains("Unfetchable"));
        }
    }
    assert!(
        unfetchable,
        "a 0.3 fault rate should leave some URLs unfetchable"
    );
    knowyourphish::exec::set_threads(0);
}

/// The cluster delivers the same guarantee: its router fetches each URL
/// once into the shared page memo and its nodes remember only verdicts,
/// so every verdict it delivers — at 1/2/8 threads, batch sizes 1 and 8,
/// on a clean and on a faulty web, with and without the cascade — is the
/// verdict of the page the router fetched for that request's URL.
#[test]
fn cluster_verdicts_are_the_verdicts_of_the_fetched_pages() {
    let corpus = small_corpus();
    let pipeline = pipeline_for(&corpus);
    let cascade = cascade_for(&corpus);
    let trace = serving_trace(&corpus);

    let mut hits = 0;
    for threads in THREAD_COUNTS {
        knowyourphish::exec::set_threads(threads);
        for max_batch in MAX_BATCHES {
            for fault_rate in [0.0, 0.3] {
                for cascade in [None, Some(&cascade)] {
                    let label = format!(
                        "cluster, max_batch={max_batch}, {threads} threads, \
                         fault rate {fault_rate}, cascade={}",
                        cascade.is_some()
                    );
                    let flaky = FlakyWorld::new(&corpus.world, FaultPlan::new(5, fault_rate));
                    let (source, log) = RecordingSource::new(ScraperSource::new(&flaky));
                    let config = ClusterConfig {
                        shards: 2,
                        node: serve_config(max_batch),
                        ..ClusterConfig::default()
                    };
                    let mut cluster = ClusterService::new(pipeline.clone(), source, config);
                    if let Some(cascade) = cascade {
                        cluster = cluster.with_cascade(cascade.clone());
                    }
                    let responses = cluster.run_trace(&trace);
                    assert_eq!(
                        responses.len(),
                        trace.len(),
                        "{label}: every request answered"
                    );
                    let refs: Vec<&ServeResponse> = responses.iter().map(|r| &r.response).collect();
                    hits += assert_verdicts_are_the_fetched_pages(
                        &pipeline, cascade, &log, &refs, &label,
                    );
                }
            }
        }
    }
    assert!(hits > 0, "the sweep must check cache hits");
    knowyourphish::exec::set_threads(0);
}

/// `train → save → load` must be lossless for serving: a service scoring
/// with the reloaded snapshot emits byte-for-byte the stream of one
/// scoring with the original in-memory model.
#[test]
fn snapshot_round_trip_preserves_the_serving_stream() {
    let corpus = small_corpus();
    knowyourphish::exec::set_threads(1);
    let extractor = FeatureExtractor::new(corpus.ranker.clone());
    let detector = train_detector(&corpus, &extractor);
    let trace = serving_trace(&corpus);

    let snapshot = ModelSnapshot::new(detector, corpus.ranker.clone());
    let dir = std::env::temp_dir().join("kyp_serve_determinism_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.json");
    snapshot.save(&path).unwrap();
    let loaded = ModelSnapshot::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        loaded.format_version,
        knowyourphish::core::MODEL_SNAPSHOT_VERSION
    );

    let streams: Vec<Vec<String>> = [snapshot, loaded]
        .into_iter()
        .map(|snap| {
            let pipeline = Pipeline::new(
                FeatureExtractor::new(snap.ranker.clone()),
                snap.detector,
                TargetIdentifier::new(Arc::new(corpus.engine.clone())),
            );
            let source = ScraperSource::new(&corpus.world);
            verdict_lines(
                ScoringService::new(pipeline, source, serve_config(8)),
                &trace,
            )
        })
        .collect();
    assert_eq!(
        streams[0], streams[1],
        "reloaded snapshot must serve the same bytes as the in-memory model"
    );
    knowyourphish::exec::set_threads(0);
}
