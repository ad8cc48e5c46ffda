//! The observability layer's determinism contract, end to end.
//!
//! `kyp-obs` promises that the rendered metrics registry json and the
//! NDJSON span trace are *byte-identical* across thread counts — the
//! observed stream is part of the repo-wide determinism contract, not a
//! best-effort diagnostic. These tests drive a real trained pipeline
//! through the online scoring service and the batch classification path
//! at 1/2/8 threads, with the verdict cache on and off, over a clean and
//! a seeded-fault simulated web, and byte-compare the rendered outputs —
//! mirroring the verdict-stream sweeps of `tests/serve_determinism.rs`.
//!
//! Cache-on and cache-off are *separate* scenarios (a disabled cache
//! emits no hit/miss events at all), each of which must be internally
//! invariant across thread counts.

use knowyourphish::core::{
    DetectorConfig, FeatureExtractor, PhishDetector, Pipeline, TargetIdentifier,
};
use knowyourphish::datagen::{CampaignConfig, Corpus};
use knowyourphish::ml::Dataset;
use knowyourphish::obs::ObsSink;
use knowyourphish::serve::{
    generate, ArrivalPattern, BatchPolicy, ScoringService, ScraperSource, ServeConfig,
    ServeRequest, WorkloadConfig,
};
use knowyourphish::web::{FaultPlan, FlakyWorld, ResilientBrowser};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

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

fn serve_config(cache_on: bool) -> ServeConfig {
    ServeConfig {
        queue_capacity: 16, // small enough that the bursts shed
        batch: BatchPolicy {
            max_batch: 8,
            max_delay_ms: 25,
        },
        cache: cache_on,
    }
}

/// Runs the shared serving trace through an observed service and returns
/// the two rendered artifacts: `(metrics.json bytes, trace NDJSON bytes)`.
fn observed_serve_run(
    pipeline: &Pipeline,
    trace: &[ServeRequest],
    corpus: &Corpus,
    cache_on: bool,
    faults: Option<FaultPlan>,
) -> (String, String) {
    let mut sink = ObsSink::new();
    let responses = match faults {
        None => {
            let source = ScraperSource::new(&corpus.world);
            let mut service = ScoringService::new(pipeline.clone(), source, serve_config(cache_on));
            let responses = service.run_trace_observed(trace, &mut sink);
            service.export_metrics(sink.registry_mut());
            responses
        }
        Some(plan) => {
            let flaky = FlakyWorld::new(&corpus.world, plan);
            let source = ScraperSource::new(&flaky);
            let mut service = ScoringService::new(pipeline.clone(), source, serve_config(cache_on));
            let responses = service.run_trace_observed(trace, &mut sink);
            service.export_metrics(sink.registry_mut());
            responses
        }
    };
    assert_eq!(responses.len(), trace.len(), "every request answered");
    let (registry, tracer) = sink.into_parts();
    (registry.render_json(), tracer.render_ndjson())
}

/// Asserts that every `(metrics, trace)` pair in `runs` is byte-identical
/// to the first, labelling divergences with `labels`.
fn assert_all_identical(runs: &[(String, String)], labels: &[String]) {
    let (base_metrics, base_trace) = &runs[0];
    for (i, (metrics, trace)) in runs.iter().enumerate().skip(1) {
        assert_eq!(
            base_metrics, metrics,
            "metrics.json diverges: {} vs {}",
            labels[0], labels[i]
        );
        assert_eq!(
            base_trace, trace,
            "trace NDJSON diverges: {} vs {}",
            labels[0], labels[i]
        );
    }
}

/// The flagship sweep: the same serving trace at 1/2/8 threads must
/// render byte-identical metrics.json and NDJSON traces — once with the
/// verdict cache enabled, once without, over a clean web and under a
/// seeded fault plan.
#[test]
fn observed_serve_artifacts_are_invariant_across_threads() {
    let corpus = small_corpus();
    let pipeline = pipeline_for(&corpus);
    let trace = serving_trace(&corpus);

    for cache_on in [false, true] {
        for faults in [None, Some(FaultPlan::new(5, 0.3))] {
            let mut runs = Vec::new();
            let mut labels = Vec::new();
            for threads in THREAD_COUNTS {
                knowyourphish::exec::set_threads(threads);
                runs.push(observed_serve_run(
                    &pipeline,
                    &trace,
                    &corpus,
                    cache_on,
                    faults.clone(),
                ));
                labels.push(format!(
                    "{threads} threads (cache={cache_on}, faults={})",
                    faults.is_some()
                ));
            }
            assert_all_identical(&runs, &labels);
            // The scenario must actually observe something, or the sweep
            // proves nothing.
            assert!(
                runs[0].1.lines().count() > 100,
                "trace suspiciously small for cache={cache_on}"
            );
        }
    }
    knowyourphish::exec::set_threads(0);
}

/// Pulls one counter/gauge value out of a rendered `metrics.json`.
fn metric_value(rendered: &str, name: &str) -> u64 {
    let v: serde_json::Value = serde_json::from_str(rendered).expect("metrics.json parses");
    let metrics = v
        .get("metrics")
        .and_then(serde_json::Value::as_array)
        .expect("metrics array");
    metrics
        .iter()
        .find(|m| m.get("name").and_then(serde_json::Value::as_str) == Some(name))
        .unwrap_or_else(|| panic!("metric {name:?} missing"))
        .get("value")
        .and_then(serde_json::Value::as_u64)
        .unwrap_or_else(|| panic!("metric {name:?} has no scalar value"))
}

/// Cache state is part of the observed stream: the enabled-cache run
/// must count hits where the disabled run counts nothing at all — a
/// disabled cache emits neither hit nor miss events.
#[test]
fn cache_events_distinguish_the_cache_scenarios() {
    let corpus = small_corpus();
    let pipeline = pipeline_for(&corpus);
    let trace = serving_trace(&corpus);
    knowyourphish::exec::set_threads(1);

    let (metrics_off, _) = observed_serve_run(&pipeline, &trace, &corpus, false, None);
    let (metrics_on, _) = observed_serve_run(&pipeline, &trace, &corpus, true, None);
    assert_ne!(metrics_off, metrics_on);
    assert!(
        metric_value(&metrics_on, "serve.cache.hits") > 0,
        "a 30%-duplicate trace must hit the enabled cache"
    );
    assert!(metric_value(&metrics_on, "serve.cache.misses") > 0);
    assert_eq!(metric_value(&metrics_off, "serve.cache.hits"), 0);
    assert_eq!(metric_value(&metrics_off, "serve.cache.misses"), 0);
    assert_eq!(metric_value(&metrics_off, "serve.report.cache_enabled"), 0);
    assert_eq!(metric_value(&metrics_on, "serve.report.cache_enabled"), 1);
    knowyourphish::exec::set_threads(0);
}

/// The batch path: `classify_all` over a faulty web must render
/// byte-identical artifacts at every thread count — scrape events stream
/// in fetch order, classification events record per page in the pool and
/// replay in input order.
#[test]
fn observed_batch_artifacts_are_invariant_across_threads() {
    let corpus = small_corpus();
    let pipeline = pipeline_for(&corpus);
    let mut urls: Vec<String> = corpus.phish_test.iter().map(|r| r.url.clone()).collect();
    urls.extend(corpus.english_test().iter().take(40).cloned());
    urls.push("http://nowhere.invalid/".into());

    let mut runs = Vec::new();
    let mut labels = Vec::new();
    let mut baseline_run = None;
    for threads in THREAD_COUNTS {
        knowyourphish::exec::set_threads(threads);
        let flaky = FlakyWorld::new(&corpus.world, FaultPlan::new(5, 0.3));
        let mut scraper = ResilientBrowser::new(&flaky);
        let mut sink = ObsSink::new();
        let run = pipeline.classify_all(&mut scraper, &urls, &mut sink);
        match &baseline_run {
            None => baseline_run = Some(run),
            Some(base) => assert_eq!(*base, run, "BatchRun diverges at {threads} threads"),
        }
        let (registry, tracer) = sink.into_parts();
        runs.push((registry.render_json(), tracer.render_ndjson()));
        labels.push(format!("{threads} threads (batch)"));
    }
    assert_all_identical(&runs, &labels);

    let ndjson = &runs[0].1;
    assert!(ndjson.contains("\"scrape\""), "scrape spans must be traced");
    assert!(
        ndjson.contains("\"classify\""),
        "classification spans must be traced"
    );
    knowyourphish::exec::set_threads(0);
}
