//! The serving layer's determinism contract, end to end.
//!
//! `kyp-serve` promises that the verdict stream — the
//! `ServeResponse::verdict_line` projection of every response, in
//! completion order — is byte-identical across thread counts, across
//! cache-on/cache-off runs of the same trace, and under a seeded fault
//! plan. These tests drive a real trained pipeline over the simulated
//! web through `ScoringService` and byte-compare the streams, the same
//! way `tests/determinism.rs` pins down the batch classification paths.
//!
//! The model-snapshot round trip is covered here too: a service scoring
//! with a detector that went through `train → save → load` must emit
//! the same bytes as one scoring with the original in-memory detector.

use knowyourphish::core::{
    DetectorConfig, FeatureExtractor, ModelSnapshot, PhishDetector, Pipeline, TargetIdentifier,
};
use knowyourphish::datagen::{CampaignConfig, Corpus};
use knowyourphish::ml::Dataset;
use knowyourphish::serve::{
    generate, ArrivalPattern, BatchPolicy, ScoringService, ScraperSource, ServeConfig,
    ServeRequest, ServeResponse, WorkloadConfig,
};
use knowyourphish::web::{FaultPlan, FlakyWorld};
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

fn serve_config(cache_on: bool, max_batch: usize) -> ServeConfig {
    ServeConfig {
        queue_capacity: 16, // small enough that the bursts shed
        batch: BatchPolicy {
            max_batch,
            max_delay_ms: 25,
        },
        cache: cache_on,
    }
}

fn verdict_lines<S: knowyourphish::serve::PageSource>(
    mut service: ScoringService<S>,
    trace: &[ServeRequest],
) -> Vec<String> {
    service
        .run_trace(trace)
        .iter()
        .map(ServeResponse::verdict_line)
        .collect()
}

/// One trace, twelve runs — 1/2/8 threads × cache on/off, at a batch
/// size of 1 and of 8 — over a clean simulated web: per batch size,
/// every verdict stream must be byte-identical. Batching changes the
/// schedule, and so which requests are shed, so each batch size has its
/// own baseline.
#[test]
fn serve_stream_is_invariant_across_threads_and_cache() {
    let corpus = small_corpus();
    let pipeline = pipeline_for(&corpus);
    let trace = serving_trace(&corpus);

    for max_batch in MAX_BATCHES {
        let mut baseline: Option<Vec<String>> = None;
        for threads in THREAD_COUNTS {
            knowyourphish::exec::set_threads(threads);
            for cache_on in [false, true] {
                let source = ScraperSource::new(&corpus.world);
                let service = ScoringService::new(
                    pipeline.clone(),
                    source,
                    serve_config(cache_on, max_batch),
                );
                let lines = verdict_lines(service, &trace);
                assert_eq!(lines.len(), trace.len(), "every request must be answered");
                match &baseline {
                    None => baseline = Some(lines),
                    Some(base) => assert_eq!(
                        *base, lines,
                        "verdict stream diverges at max_batch={max_batch}, \
                         {threads} threads, cache={cache_on}"
                    ),
                }
            }
        }
    }
    knowyourphish::exec::set_threads(0);
}

/// The same sweep under a seeded fault plan: retries, transient failures
/// and circuit-breaker state make the page source stateful, but because
/// the service fetches each unique URL exactly once, the fault sequence —
/// and so the verdict stream — is identical in every configuration.
#[test]
fn serve_stream_is_invariant_under_faults() {
    let corpus = small_corpus();
    let pipeline = pipeline_for(&corpus);
    let trace = serving_trace(&corpus);

    let mut baseline: Option<Vec<String>> = None;
    for threads in THREAD_COUNTS {
        knowyourphish::exec::set_threads(threads);
        for cache_on in [false, true] {
            let flaky = FlakyWorld::new(&corpus.world, FaultPlan::new(5, 0.3));
            let source = ScraperSource::new(&flaky);
            let service = ScoringService::new(pipeline.clone(), source, serve_config(cache_on, 8));
            let lines = verdict_lines(service, &trace);
            match &baseline {
                None => baseline = Some(lines),
                Some(base) => assert_eq!(
                    *base, lines,
                    "faulty-web verdict stream diverges at {threads} threads, cache={cache_on}"
                ),
            }
        }
    }
    let faulty = baseline.expect("sweep ran");
    // The fault plan must actually bite — otherwise this test collapses
    // into the clean-web one.
    assert!(
        faulty.iter().any(|l| l.contains("Unfetchable")),
        "a 0.3 fault rate should leave some URLs unfetchable"
    );
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
                ScoringService::new(pipeline, source, serve_config(true, 8)),
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
