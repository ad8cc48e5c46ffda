//! The cluster layer's determinism contract, end to end.
//!
//! `kyp-cluster` promises that the id-sorted verdict stream
//! (`kyp_cluster::verdict_stream`) is byte-identical across shard counts,
//! replica fan-outs, ring placements, thread counts and crash schedules.
//! These tests drive a real trained pipeline over the simulated web
//! through `ClusterService` and byte-compare the streams, the same way
//! `tests/serve_determinism.rs` pins down the single-node service.
//!
//! The matrix is the acceptance gate from the issue: shards ∈ {1, 2, 4}
//! × replicas ∈ {1, 2} × threads ∈ {1, 2, 8} × crashes on/off — 36 runs,
//! one stream.

use knowyourphish::cluster::{verdict_stream, ClusterConfig, ClusterService, CrashPlan};
use knowyourphish::core::{
    DetectorConfig, FeatureExtractor, PhishDetector, Pipeline, TargetIdentifier,
};
use knowyourphish::datagen::{CampaignConfig, Corpus};
use knowyourphish::ml::Dataset;
use knowyourphish::serve::{
    generate, ArrivalPattern, BatchPolicy, PageSource, ScraperSource, ServeConfig, ServeRequest,
    WorkloadConfig,
};
use knowyourphish::web::{FaultPlan, FlakyWorld};
use std::sync::Arc;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const REPLICA_COUNTS: [usize; 2] = [1, 2];
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

fn pipeline_for(corpus: &Corpus) -> Pipeline {
    let extractor = FeatureExtractor::new(corpus.ranker.clone());
    knowyourphish::exec::set_threads(1);
    let browser = knowyourphish::web::Browser::new(&corpus.world);
    let mut data = Dataset::new(extractor.feature_count());
    for url in &corpus.leg_train {
        data.push_row(&extractor.extract(&browser.visit(url).unwrap()), false);
    }
    for r in &corpus.phish_train {
        data.push_row(&extractor.extract(&browser.visit(&r.url).unwrap()), true);
    }
    let detector = PhishDetector::train(&data, &DetectorConfig::default());
    Pipeline::new(
        extractor,
        detector,
        TargetIdentifier::new(Arc::new(corpus.engine.clone())),
    )
}

/// A seeded 50%-duplicate bursty trace over the corpus's test URLs, with
/// two unfetchable URLs mixed into the pool so failure responses are part
/// of the compared stream. The duplicate rate is high enough that some
/// landing URLs cross the hot threshold and exercise replica fan-out.
fn cluster_trace(corpus: &Corpus) -> Vec<ServeRequest> {
    let mut pool: Vec<String> = corpus.phish_test.iter().map(|r| r.url.clone()).collect();
    pool.extend(corpus.english_test().iter().take(40).cloned());
    pool.push("http://nowhere.invalid/".into());
    pool.push("not a url".into());
    generate(
        &WorkloadConfig {
            seed: 404,
            requests: 200,
            duplicate_rate: 0.5,
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

/// Every first incarnation crashes inside the trace span, so crash-on
/// runs always exercise detection and failover.
fn crash_plan() -> CrashPlan {
    let mut plan = CrashPlan::new(11, 1.0);
    plan.min_uptime_ms = 200;
    plan.max_uptime_ms = 800;
    plan.downtime_ms = 500;
    plan
}

fn cluster_config(shards: usize, replicas: usize, crash: bool) -> ClusterConfig {
    ClusterConfig {
        shards,
        replicas,
        node: ServeConfig {
            // Tight enough that bursts overflow a single node's queue and
            // exercise route-around/parking.
            queue_capacity: 4,
            batch: BatchPolicy {
                max_batch: 4,
                max_delay_ms: 25,
            },
        },
        crash: crash.then(crash_plan),
        ..ClusterConfig::default()
    }
}

fn run<S: PageSource>(
    pipeline: &Pipeline,
    source: S,
    config: ClusterConfig,
    trace: &[ServeRequest],
) -> (Vec<String>, knowyourphish::cluster::ClusterReport) {
    let mut cluster = ClusterService::new(pipeline.clone(), source, config);
    let responses = cluster.run_trace(trace);
    (verdict_stream(&responses), cluster.report())
}

/// One trace, thirty-six runs — shards × replicas × threads × crash
/// on/off — over a clean simulated web: every id-sorted verdict stream
/// must be byte-identical, and no run may shed (which would make the
/// invariance vacuous).
#[test]
fn cluster_stream_is_invariant_across_shards_replicas_threads_and_crashes() {
    let corpus = small_corpus();
    let pipeline = pipeline_for(&corpus);
    let trace = cluster_trace(&corpus);

    let mut baseline: Option<Vec<String>> = None;
    let mut hot_fanout_seen = false;
    for threads in THREAD_COUNTS {
        knowyourphish::exec::set_threads(threads);
        for shards in SHARD_COUNTS {
            for replicas in REPLICA_COUNTS {
                for crash in [false, true] {
                    let source = ScraperSource::new(&corpus.world);
                    let (lines, report) = run(
                        &pipeline,
                        source,
                        cluster_config(shards, replicas, crash),
                        &trace,
                    );
                    let shape = format!(
                        "shards={shards} replicas={replicas} threads={threads} crash={crash}"
                    );
                    assert_eq!(
                        lines.len(),
                        trace.len(),
                        "every request must be answered ({shape})"
                    );
                    assert_eq!(
                        report.failover.retries_exhausted, 0,
                        "the retry budget must absorb this crash schedule ({shape})"
                    );
                    if crash {
                        assert!(
                            report.failover.crashes > 0,
                            "a rate-1.0 crash plan must actually crash nodes ({shape})"
                        );
                    } else {
                        assert_eq!(report.failover.crashes, 0, "{shape}");
                    }
                    if shards == 1 && !crash {
                        assert!(
                            report.routing.parked > 0,
                            "bursts must overflow a single node's queue ({shape})"
                        );
                    }
                    hot_fanout_seen |= report.routing.hot_fanout > 0;
                    match &baseline {
                        None => baseline = Some(lines),
                        Some(base) => {
                            assert_eq!(*base, lines, "verdict stream diverges at {shape}");
                        }
                    }
                }
            }
        }
    }
    assert!(
        hot_fanout_seen,
        "a 50%-duplicate trace must push some landing URL over the hot threshold"
    );
    knowyourphish::exec::set_threads(0);
}

/// The ring placement seed moves every key to a different node set; the
/// verdict stream must not move with it.
#[test]
fn cluster_stream_is_invariant_across_placements() {
    let corpus = small_corpus();
    let pipeline = pipeline_for(&corpus);
    let trace = cluster_trace(&corpus);
    knowyourphish::exec::set_threads(2);

    let mut baseline: Option<Vec<String>> = None;
    for placement_seed in [1, 7, 99] {
        let config = ClusterConfig {
            placement_seed,
            ..cluster_config(4, 2, true)
        };
        let source = ScraperSource::new(&corpus.world);
        let (lines, _) = run(&pipeline, source, config, &trace);
        match &baseline {
            None => baseline = Some(lines),
            Some(base) => assert_eq!(
                *base, lines,
                "verdict stream diverges at placement seed {placement_seed}"
            ),
        }
    }
    knowyourphish::exec::set_threads(0);
}

/// The same invariance over a *faulty* web: the fault plan makes the page
/// source stateful, but the router fetches every unique URL exactly once
/// in trace order, so the fault sequence — and the stream — is identical
/// whatever the cluster shape.
#[test]
fn cluster_stream_is_invariant_under_fetch_faults() {
    let corpus = small_corpus();
    let pipeline = pipeline_for(&corpus);
    let trace = cluster_trace(&corpus);

    let mut baseline: Option<Vec<String>> = None;
    for threads in [1, 8] {
        knowyourphish::exec::set_threads(threads);
        for shards in [1, 4] {
            let flaky = FlakyWorld::new(&corpus.world, FaultPlan::new(5, 0.3));
            let source = ScraperSource::new(&flaky);
            let (lines, _) = run(&pipeline, source, cluster_config(shards, 2, true), &trace);
            match &baseline {
                None => baseline = Some(lines),
                Some(base) => assert_eq!(
                    *base, lines,
                    "faulty-web stream diverges at {shards} shards, {threads} threads"
                ),
            }
        }
    }
    let faulty = baseline.expect("sweep ran");
    assert!(
        faulty.iter().any(|l| l.contains("Unfetchable")),
        "a 0.3 fault rate should leave some URLs unfetchable"
    );
    knowyourphish::exec::set_threads(0);
}

/// The exported `cluster.*` metrics are as deterministic as the verdicts:
/// the rendered registry is byte-identical across thread counts.
#[test]
fn cluster_metrics_render_identically_across_thread_counts() {
    let corpus = small_corpus();
    let pipeline = pipeline_for(&corpus);
    let trace = cluster_trace(&corpus);

    let renders: Vec<String> = [1, 8]
        .into_iter()
        .map(|threads| {
            knowyourphish::exec::set_threads(threads);
            let source = ScraperSource::new(&corpus.world);
            let mut cluster =
                ClusterService::new(pipeline.clone(), source, cluster_config(2, 2, true));
            cluster.run_trace(&trace);
            let mut registry = knowyourphish::obs::MetricsRegistry::new();
            cluster.export_metrics(&mut registry);
            registry.render_json()
        })
        .collect();
    assert_eq!(
        renders[0], renders[1],
        "cluster metrics must not depend on the thread count"
    );
    knowyourphish::exec::set_threads(0);
}
