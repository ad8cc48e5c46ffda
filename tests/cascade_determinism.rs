//! The two-stage cascade's determinism contract, end to end.
//!
//! The cascade pre-filter is a pure function of the request URL string,
//! so switching it on must not cost any determinism: the verdict stream
//! stays byte-identical across thread counts and under a seeded fault
//! plan. (That every verdict the memo answers is the verdict of the page
//! fetched for it, with and without the cascade, is checked in
//! `tests/serve_determinism.rs`.) And with the forced-full band `[0, 1]`
//! every request falls through to the full pipeline, so the stream must
//! be byte-identical to a run without the cascade at all — the CLI-level
//! equivalence CI proves with `cmp`, pinned here at the library level
//! for serve and cluster both. The two engines share one URL-stage
//! tally, so on the same trace they must also agree with each other.
//!
//! The tagged URL-stage snapshot round-trips too: `train → save → load →
//! from_snapshot` must screen exactly like the in-memory classifier, and
//! a full-stage snapshot must be rejected as a cascade model.

use knowyourphish::cluster::{verdict_stream, ClusterConfig, ClusterService};
use knowyourphish::core::{
    cascade::train_url_stage, CascadeBand, CascadeClassifier, CascadeDecision, DetectorConfig,
    FeatureExtractor, ModelSnapshot, PhishDetector, Pipeline, TargetIdentifier, VerdictStage,
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

fn small_corpus() -> Corpus {
    Corpus::generate(&CampaignConfig {
        seed: 92,
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

/// Trains the URL stage on the corpus's training URLs.
fn cascade_for(corpus: &Corpus, band: CascadeBand) -> CascadeClassifier {
    let phish_train: Vec<String> = corpus.phish_train.iter().map(|r| r.url.clone()).collect();
    let detector = train_url_stage(
        &corpus.leg_train,
        &phish_train,
        &corpus.ranker,
        &DetectorConfig::url_stage(),
    )
    .expect("train URL stage");
    CascadeClassifier::new(detector, corpus.ranker.clone(), band)
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
            seed: 405,
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

fn serve_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 16,
        batch: BatchPolicy {
            max_batch: 8,
            max_delay_ms: 25,
        },
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

/// Cascade on, over a seeded faulty web: the verdict stream must be
/// byte-identical at 1/2/8 threads, and the URL stage must actually fire
/// (otherwise this collapses into the plain serve determinism test).
#[test]
fn cascade_stream_is_invariant_across_threads_and_faults() {
    let corpus = small_corpus();
    let pipeline = pipeline_for(&corpus);
    let trace = serving_trace(&corpus);
    let cascade = cascade_for(&corpus, CascadeBand::default());

    let mut baseline: Option<Vec<String>> = None;
    for threads in THREAD_COUNTS {
        knowyourphish::exec::set_threads(threads);
        let flaky = FlakyWorld::new(&corpus.world, FaultPlan::new(5, 0.3));
        let source = ScraperSource::new(&flaky);
        let service = ScoringService::new(pipeline.clone(), source, serve_config())
            .with_cascade(cascade.clone());
        let lines = verdict_lines(service, &trace);
        assert_eq!(lines.len(), trace.len(), "every request must be answered");
        match &baseline {
            None => baseline = Some(lines),
            Some(base) => assert_eq!(
                *base, lines,
                "cascade verdict stream diverges at {threads} threads"
            ),
        }
    }
    let lines = baseline.expect("sweep ran");
    assert!(
        lines.iter().any(|l| l.contains(" stage=url_only")),
        "the default band should finalise some URLs at the URL stage"
    );
    knowyourphish::exec::set_threads(0);
}

/// With the forced-full band every request falls through, so a cascade
/// service must emit byte-for-byte the stream of a cascade-free one — at
/// every thread count, on a clean and on a faulty web.
#[test]
fn forced_full_band_matches_the_cascade_free_stream() {
    let corpus = small_corpus();
    let pipeline = pipeline_for(&corpus);
    let trace = serving_trace(&corpus);
    let forced = cascade_for(&corpus, CascadeBand::FORCED_FULL);

    for threads in THREAD_COUNTS {
        knowyourphish::exec::set_threads(threads);
        for fault_rate in [0.0, 0.3] {
            // One FlakyWorld per run: it counts fetch attempts, so sharing
            // it would hand the second run a different fault schedule.
            let flaky = FlakyWorld::new(&corpus.world, FaultPlan::new(5, fault_rate));
            let source = ScraperSource::new(&flaky);
            let plain = verdict_lines(
                ScoringService::new(pipeline.clone(), source, serve_config()),
                &trace,
            );

            let flaky = FlakyWorld::new(&corpus.world, FaultPlan::new(5, fault_rate));
            let source = ScraperSource::new(&flaky);
            let mut service = ScoringService::new(pipeline.clone(), source, serve_config())
                .with_cascade(forced.clone());
            let cascaded: Vec<String> = service
                .run_trace(&trace)
                .iter()
                .map(ServeResponse::verdict_line)
                .collect();
            let report = service.report();

            assert_eq!(
                plain, cascaded,
                "forced-full band diverges from the cascade-free stream \
                 at {threads} threads, fault rate {fault_rate}"
            );
            assert!(report.cascade_enabled);
            assert_eq!(report.cascade.url_only, 0, "no URL may be final at [0,1]");
            assert_eq!(
                report.cascade.screened,
                report.cascade.fallthrough + report.cascade.unscorable
            );
        }
    }
    knowyourphish::exec::set_threads(0);
}

/// The same two contracts at the cluster layer: the id-sorted verdict
/// stream with the cascade on is invariant across threads and shard
/// counts, and the forced-full band reproduces the cascade-free bytes.
#[test]
fn cluster_cascade_stream_is_invariant_and_forced_full_matches() {
    let corpus = small_corpus();
    let pipeline = pipeline_for(&corpus);
    let trace = serving_trace(&corpus);
    let cascade = cascade_for(&corpus, CascadeBand::default());
    let forced = cascade_for(&corpus, CascadeBand::FORCED_FULL);

    let config = |shards: usize| ClusterConfig {
        shards,
        node: serve_config(),
        ..ClusterConfig::default()
    };

    let mut baseline: Option<Vec<String>> = None;
    for threads in THREAD_COUNTS {
        knowyourphish::exec::set_threads(threads);
        for shards in [1, 3] {
            let source = ScraperSource::new(&corpus.world);
            let mut cluster = ClusterService::new(pipeline.clone(), source, config(shards))
                .with_cascade(cascade.clone());
            let lines = verdict_stream(&cluster.run_trace(&trace));
            match &baseline {
                None => baseline = Some(lines),
                Some(base) => assert_eq!(
                    *base, lines,
                    "cluster cascade stream diverges at {threads} threads, {shards} shards"
                ),
            }
        }

        let source = ScraperSource::new(&corpus.world);
        let mut plain_cluster = ClusterService::new(pipeline.clone(), source, config(2));
        let plain = verdict_stream(&plain_cluster.run_trace(&trace));

        let source = ScraperSource::new(&corpus.world);
        let mut forced_cluster =
            ClusterService::new(pipeline.clone(), source, config(2)).with_cascade(forced.clone());
        let forced_lines = verdict_stream(&forced_cluster.run_trace(&trace));
        assert_eq!(
            plain, forced_lines,
            "cluster forced-full band diverges from the cascade-free stream at {threads} threads"
        );
        assert_eq!(forced_cluster.report().cascade.url_only, 0);
    }
    assert!(
        baseline
            .expect("sweep ran")
            .iter()
            .any(|l| l.contains(" stage=url_only")),
        "the default band should finalise some URLs at the cluster router"
    );
    knowyourphish::exec::set_threads(0);
}

/// The URL-stage tally is written once: on the same trace and cascade,
/// the scoring service and a 1- and a 3-shard cluster screen to the same
/// counters and answer the same requests at the URL stage with the same
/// verdict lines.
#[test]
fn service_and_cluster_agree_on_the_url_stage() {
    let corpus = small_corpus();
    let pipeline = pipeline_for(&corpus);
    let trace = serving_trace(&corpus);
    let cascade = cascade_for(&corpus, CascadeBand::default());
    let url_stage_lines = |responses: Vec<&ServeResponse>| -> Vec<(u64, String)> {
        let mut lines: Vec<(u64, String)> = responses
            .into_iter()
            .filter(|r| r.stage == VerdictStage::UrlOnly)
            .map(|r| (r.id, r.verdict_line()))
            .collect();
        lines.sort();
        lines
    };

    let source = ScraperSource::new(&corpus.world);
    let mut service =
        ScoringService::new(pipeline.clone(), source, serve_config()).with_cascade(cascade.clone());
    let served = service.run_trace(&trace);
    let expected_lines = url_stage_lines(served.iter().collect());
    let expected = service.report().cascade;
    assert_eq!(expected.screened, trace.len() as u64);
    assert!(
        expected.url_only > 0 && expected.fallthrough > 0,
        "the trace must exercise both outcomes: {expected:?}"
    );
    assert_eq!(expected_lines.len() as u64, expected.url_only);

    for shards in [1, 3] {
        let config = ClusterConfig {
            shards,
            node: serve_config(),
            ..ClusterConfig::default()
        };
        let source = ScraperSource::new(&corpus.world);
        let mut cluster =
            ClusterService::new(pipeline.clone(), source, config).with_cascade(cascade.clone());
        let responses = cluster.run_trace(&trace);
        assert_eq!(
            cluster.report().cascade,
            expected,
            "cascade counters diverge at {shards} shards"
        );
        assert_eq!(
            url_stage_lines(responses.iter().map(|r| &r.response).collect()),
            expected_lines,
            "URL-stage answers diverge at {shards} shards"
        );
    }
    knowyourphish::exec::set_threads(0);
}

/// `train → save → load → from_snapshot` must be lossless for the URL
/// stage: the reloaded classifier screens every URL exactly like the
/// in-memory one — and a full-stage snapshot is rejected, because
/// scoring 17 URL features with a 212-feature model would be silently
/// wrong.
#[test]
fn url_stage_snapshot_round_trip_screens_identically() {
    let corpus = small_corpus();
    knowyourphish::exec::set_threads(1);
    let phish_train: Vec<String> = corpus.phish_train.iter().map(|r| r.url.clone()).collect();
    let detector = train_url_stage(
        &corpus.leg_train,
        &phish_train,
        &corpus.ranker,
        &DetectorConfig::url_stage(),
    )
    .unwrap();
    let band = CascadeBand::default();
    let original = CascadeClassifier::new(detector.clone(), corpus.ranker.clone(), band);

    let snapshot = ModelSnapshot::new_url_stage(detector, corpus.ranker.clone());
    assert_eq!(snapshot.stage(), knowyourphish::core::STAGE_URL);
    let dir = std::env::temp_dir().join("kyp_cascade_determinism_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("url_model.json");
    snapshot.save(&path).unwrap();
    let loaded = ModelSnapshot::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let reloaded = CascadeClassifier::from_snapshot(loaded, band).unwrap();

    let mut urls: Vec<String> = corpus.phish_test.iter().map(|r| r.url.clone()).collect();
    urls.extend(corpus.english_test().iter().cloned());
    urls.push("not a url".into());
    let mut finals = 0;
    for url in &urls {
        assert_eq!(
            original.url_score(url).map(f64::to_bits),
            reloaded.url_score(url).map(f64::to_bits),
            "URL score diverges after the snapshot round trip for {url}"
        );
        match (original.prescreen(url), reloaded.prescreen(url)) {
            (CascadeDecision::Final(a), CascadeDecision::Final(b)) => {
                finals += 1;
                assert_eq!(a.verdict, b.verdict);
                assert_eq!(a.stage, b.stage);
            }
            (
                CascadeDecision::Uncertain { url_score: a },
                CascadeDecision::Uncertain { url_score: b },
            ) => {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            (CascadeDecision::Unscorable, CascadeDecision::Unscorable) => {}
            (a, b) => panic!("decisions diverge for {url}: {a:?} vs {b:?}"),
        }
    }
    assert!(
        finals > 0,
        "some test URLs should be final at the URL stage"
    );

    // A full-stage snapshot is not a cascade model.
    let extractor = FeatureExtractor::new(corpus.ranker.clone());
    let full = ModelSnapshot::new(train_detector(&corpus, &extractor), corpus.ranker.clone());
    assert!(
        CascadeClassifier::from_snapshot(full, band).is_err(),
        "a full-stage snapshot must be rejected as a URL-stage model"
    );
    knowyourphish::exec::set_threads(0);
}
