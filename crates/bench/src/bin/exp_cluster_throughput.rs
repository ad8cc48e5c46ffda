//! Cluster-throughput sweep: `kyp-cluster` over shards × replicas ×
//! crash rate.
//!
//! Generates a corpus, trains the detector, then replays one seeded
//! 40%-duplicate workload through a [`ClusterService`] under every
//! configuration of the sweep, measuring wall-clock pages/second and the
//! failover/shed accounting of each point. The cluster's determinism
//! contract is asserted across the whole sweep: the id-sorted verdict
//! stream must be byte-identical at every shard count, replica fan-out,
//! thread count and crash rate — crashes move *where* and *when* work
//! happens, never *what* the answers are.
//!
//! Results go to `BENCH_cluster.json` at the repo root.
//!
//! Run: `cargo run --release -p kyp-bench --bin exp_cluster_throughput -- --scale 0.02 --threads 1,4`

use kyp_bench::{harness, report, EvalArgs, ExperimentEnv, TimedSource};
use kyp_cluster::{verdict_stream, ClusterConfig, ClusterService, CrashPlan};
use kyp_core::{DetectorConfig, PhishDetector, Pipeline, TargetIdentifier};
use kyp_serve::{
    generate, ArrivalPattern, BatchPolicy, CacheConfig, ScraperSource, ServeConfig, ServeRequest,
    WorkloadConfig,
};
use kyp_web::ResilientBrowser;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Timing repetitions per sweep point (wall time takes the minimum).
const REPS: usize = 2;

/// Cluster sizes swept.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Replica fan-outs swept at every cluster size.
const REPLICA_COUNTS: [usize; 2] = [1, 2];

/// Per-incarnation crash probabilities swept.
const CRASH_RATES: [f64; 2] = [0.0, 0.2];

fn cluster_config(shards: usize, replicas: usize, crash_rate: f64, seed: u64) -> ClusterConfig {
    ClusterConfig {
        shards,
        replicas,
        node: ServeConfig {
            queue_capacity: 32,
            batch: BatchPolicy {
                max_batch: 8,
                max_delay_ms: 25,
            },
            cache: Some(CacheConfig::default()),
        },
        crash: (crash_rate > 0.0).then(|| {
            let mut plan = CrashPlan::new(seed, crash_rate);
            // Keep uptimes inside the trace span so a non-zero rate
            // actually produces crashes worth accounting.
            plan.min_uptime_ms = 200;
            plan.max_uptime_ms = 1_500;
            plan.downtime_ms = 500;
            plan
        }),
        ..ClusterConfig::default()
    }
}

fn main() {
    let args = EvalArgs::parse();
    let env = ExperimentEnv::prepare(&args);
    let c = &env.corpus;

    let phish_train: Vec<String> = c.phish_train.iter().map(|r| r.url.clone()).collect();
    let train = harness::scrape_dataset(c, &env.extractor, &c.leg_train, &phish_train);
    let detector = PhishDetector::train(&train, &DetectorConfig::default());
    let identifier = TargetIdentifier::new(Arc::new(c.engine.clone()));
    let pipeline = Pipeline::new(env.extractor.clone(), detector, identifier);

    let mut pool: Vec<String> = c.phish_test.iter().map(|r| r.url.clone()).collect();
    pool.extend(c.english_test().iter().cloned());
    let workload = WorkloadConfig {
        seed: args.seed,
        requests: (pool.len() * 2).clamp(100, 2_000),
        duplicate_rate: 0.4,
        arrival: ArrivalPattern::Bursty {
            burst: 16,
            burst_gap_ms: 1,
            idle_gap_ms: 40,
        },
        fault_seed: 0,
        fault_rate: 0.0,
    };
    let trace: Vec<ServeRequest> = generate(&workload, &pool);
    eprintln!(
        "[cluster] {} requests over {} urls (duplicate rate {})",
        trace.len(),
        pool.len(),
        workload.duplicate_rate
    );

    let sweep = if args.threads.is_empty() {
        vec![1, 4]
    } else {
        args.threads.clone()
    };

    println!(
        "Cluster throughput sweep ({} requests, best of {REPS} reps per point)",
        trace.len()
    );
    println!(
        "{:>8} {:>7} {:>9} {:>6} {:>12} {:>11} {:>11} {:>12} {:>8} {:>8} {:>7} {:>10}",
        "Threads",
        "Shards",
        "Replicas",
        "Crash",
        "Wall ms",
        "Scrape ms",
        "Score ms",
        "Pages/sec",
        "Crashes",
        "Redisp",
        "Shed",
        "Identical"
    );

    let mut baseline: Option<Vec<String>> = None;
    let mut entries = Vec::new();
    let mut all_identical = true;

    for &threads in &sweep {
        kyp_exec::set_threads(threads);
        for &shards in &SHARD_COUNTS {
            for &replicas in &REPLICA_COUNTS {
                for &crash_rate in &CRASH_RATES {
                    let mut wall = f64::INFINITY;
                    let mut scrape_wall = 0.0f64;
                    let mut lines: Vec<String> = Vec::new();
                    let mut last_report = None;
                    for _ in 0..REPS {
                        let (source, scrape_nanos) = TimedSource::new(ScraperSource::with_browser(
                            ResilientBrowser::new(&c.world),
                        ));
                        let mut cluster = ClusterService::new(
                            pipeline.clone(),
                            source,
                            cluster_config(shards, replicas, crash_rate, args.seed),
                        );
                        let t0 = Instant::now();
                        let responses = cluster.run_trace(&trace);
                        let elapsed = t0.elapsed().as_secs_f64();
                        if elapsed < wall {
                            wall = elapsed;
                            scrape_wall = scrape_nanos.load(std::sync::atomic::Ordering::Relaxed)
                                as f64
                                * 1e-9;
                        }
                        lines = verdict_stream(&responses);
                        last_report = Some(cluster.report());
                    }
                    let run_report = last_report.expect("at least one rep ran");
                    let score_wall = (wall - scrape_wall).max(0.0);
                    let node_cache_hits: u64 =
                        run_report.nodes.iter().map(|n| n.serve.cache.hits).sum();
                    if node_cache_hits + run_report.cascade.url_only > run_report.answered {
                        eprintln!(
                            "[cluster] warning: node cache hits ({node_cache_hits}) + cascade \
                             URL-only finals ({}) exceed answered ({}) — a request was \
                             double-counted as both a cache hit and a cascade hit",
                            run_report.cascade.url_only, run_report.answered
                        );
                    }

                    let identical = match &baseline {
                        None => {
                            baseline = Some(lines);
                            true
                        }
                        Some(base) => *base == lines,
                    };
                    all_identical &= identical;

                    let pages_per_sec = if wall > 0.0 {
                        run_report.answered as f64 / wall
                    } else {
                        0.0
                    };

                    println!(
                        "{threads:>8} {shards:>7} {replicas:>9} {crash_rate:>6.2} {:>12.1} {:>11.1} {:>11.1} {:>12.0} {:>8} {:>8} {:>7} {:>10}",
                        wall * 1e3,
                        scrape_wall * 1e3,
                        score_wall * 1e3,
                        pages_per_sec,
                        run_report.failover.crashes,
                        run_report.failover.redispatched,
                        run_report.shed,
                        identical
                    );

                    entries.push(report::object([
                        ("threads", report::uint(threads as u64)),
                        ("shards", report::uint(shards as u64)),
                        ("replicas", report::uint(replicas as u64)),
                        ("crash_rate", report::float(crash_rate)),
                        ("wall_ms", report::float(wall * 1e3)),
                        ("scrape_wall_ms", report::float(scrape_wall * 1e3)),
                        ("score_wall_ms", report::float(score_wall * 1e3)),
                        ("pages_per_sec", report::float(pages_per_sec)),
                        ("answered", report::uint(run_report.answered)),
                        ("unfetchable", report::uint(run_report.unfetchable)),
                        ("shed", report::uint(run_report.shed)),
                        ("shed_ratio", report::float(run_report.shed_ratio)),
                        (
                            "shed_retries_exhausted",
                            report::uint(run_report.failover.retries_exhausted),
                        ),
                        ("crashes", report::uint(run_report.failover.crashes)),
                        ("detections", report::uint(run_report.failover.detections)),
                        ("recoveries", report::uint(run_report.failover.recoveries)),
                        (
                            "redispatched",
                            report::uint(run_report.failover.redispatched),
                        ),
                        ("dispatched", report::uint(run_report.routing.dispatched)),
                        (
                            "route_around",
                            report::uint(run_report.routing.route_around),
                        ),
                        ("parked", report::uint(run_report.routing.parked)),
                        ("hot_fanout", report::uint(run_report.routing.hot_fanout)),
                        (
                            "latency",
                            report::latency_summary_value(&run_report.latency),
                        ),
                        (
                            "virtual_elapsed_ms",
                            report::uint(run_report.virtual_elapsed_ms),
                        ),
                        (
                            "throughput_per_vsec",
                            report::float(run_report.throughput_per_vsec),
                        ),
                        ("verdicts_identical", report::boolean(identical)),
                    ]));
                }
            }
        }
    }
    kyp_exec::set_threads(0); // back to auto-detection

    assert!(
        all_identical,
        "id-sorted verdict streams must be byte-identical across every \
         shard count, replica fan-out, thread count and crash rate"
    );

    let section = report::object([
        ("scale", report::float(args.scale)),
        ("seed", report::uint(args.seed)),
        ("requests", report::uint(trace.len() as u64)),
        ("pool_urls", report::uint(pool.len() as u64)),
        ("duplicate_rate", report::float(workload.duplicate_rate)),
        ("sweep", serde_json::Value::Array(entries)),
    ]);
    let path = Path::new(report::BENCH_CLUSTER_REPORT_PATH);
    report::write_bench_section(path, "cluster_throughput", section).expect("write bench report");
    println!();
    println!("Sweep written to {}", path.display());
}
