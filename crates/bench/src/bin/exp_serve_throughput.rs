//! Serving-throughput sweep: `kyp-serve` over threads × batch size ×
//! cache on/off.
//!
//! Generates a corpus, trains the detector, then replays one seeded
//! 20%-duplicate workload through a [`ScoringService`] under every
//! configuration of the sweep, measuring wall-clock pages/second. Two
//! invariants are asserted for every configuration:
//!
//! - per batch size, the stream of `ServeResponse::verdict_line`
//!   projections is byte-identical to that batch size's first (1-thread,
//!   cache-off) run — the service's determinism contract across threads
//!   and cache settings;
//! - the *virtual* timing report (latency percentiles, queue and batch
//!   counters) is identical cache-on vs cache-off, because the virtual
//!   cost model is cache-independent.
//!
//! What the cache buys is wall-clock time: hits skip feature extraction
//! and both model stages, so the cache-on rows should show higher
//! pages/second on any workload with repeats. Results go to
//! `BENCH_serve.json` at the repo root.
//!
//! Run: `cargo run --release -p kyp-bench --bin exp_serve_throughput -- --scale 0.02 --threads 1,2`

use kyp_bench::{harness, report, EvalArgs, ExperimentEnv, TimedSource};
use kyp_core::{DetectorConfig, PhishDetector, Pipeline, TargetIdentifier};
use kyp_serve::{
    generate, ArrivalPattern, BatchPolicy, CacheConfig, ScoringService, ScraperSource, ServeConfig,
    ServeRequest, WorkloadConfig,
};
use kyp_web::ResilientBrowser;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Timing repetitions per sweep point (wall time takes the minimum).
const REPS: usize = 3;

/// Batch sizes swept at every thread count.
const BATCH_SIZES: [usize; 2] = [1, 8];

fn main() {
    let args = EvalArgs::parse();
    let env = ExperimentEnv::prepare(&args);
    let c = &env.corpus;

    let phish_train: Vec<String> = c.phish_train.iter().map(|r| r.url.clone()).collect();
    let train = harness::scrape_dataset(c, &env.extractor, &c.leg_train, &phish_train);
    let detector = PhishDetector::train(&train, &DetectorConfig::default());
    let identifier = TargetIdentifier::new(Arc::new(c.engine.clone()));
    let pipeline = Pipeline::new(env.extractor.clone(), detector, identifier);

    // The workload pool: every test-set URL, phish and legitimate alike.
    let mut pool: Vec<String> = c.phish_test.iter().map(|r| r.url.clone()).collect();
    pool.extend(c.english_test().iter().cloned());
    let workload = WorkloadConfig {
        seed: args.seed,
        requests: (pool.len() * 2).clamp(100, 4_000),
        duplicate_rate: 0.2,
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
        "[serve] {} requests over {} urls (duplicate rate {})",
        trace.len(),
        pool.len(),
        workload.duplicate_rate
    );

    let sweep = if args.threads.is_empty() {
        vec![1, 2, 4]
    } else {
        args.threads.clone()
    };

    println!(
        "Serving throughput sweep ({} requests, best of {REPS} reps per point)",
        trace.len()
    );
    println!(
        "{:>8} {:>10} {:>7} {:>12} {:>11} {:>11} {:>12} {:>10} {:>8} {:>10}",
        "Threads",
        "MaxBatch",
        "Cache",
        "Wall ms",
        "Scrape ms",
        "Score ms",
        "Pages/sec",
        "p99 ms",
        "Hits",
        "Identical"
    );

    // One verdict-stream baseline per batch size: batching changes the
    // schedule (and so the shed set and completion order), but for a given
    // schedule the stream must be identical across threads and cache
    // settings.
    let mut baseline_lines: std::collections::HashMap<usize, Vec<String>> =
        std::collections::HashMap::new();
    let mut entries = Vec::new();
    let mut all_identical = true;
    // pages/sec per (threads, batch) pair, cache off then on, for the
    // cache-speedup summary.
    let mut speedups: Vec<(usize, usize, f64, f64)> = Vec::new();

    for &threads in &sweep {
        kyp_exec::set_threads(threads);
        for &max_batch in &BATCH_SIZES {
            let mut pair = [0.0f64; 2];
            for (slot, cache_on) in [(0usize, false), (1usize, true)] {
                let mut wall = f64::INFINITY;
                let mut scrape_wall = 0.0f64;
                let mut lines: Vec<String> = Vec::new();
                let mut last_report = None;
                for _ in 0..REPS {
                    let browser = ResilientBrowser::new(&c.world);
                    let (source, scrape_nanos) =
                        TimedSource::new(ScraperSource::with_browser(browser));
                    let mut service = ScoringService::new(
                        pipeline.clone(),
                        source,
                        ServeConfig {
                            queue_capacity: 64,
                            batch: BatchPolicy {
                                max_batch,
                                max_delay_ms: 25,
                            },
                            cache: cache_on.then(CacheConfig::default),
                        },
                    );
                    let t0 = Instant::now();
                    let responses = service.run_trace(&trace);
                    let elapsed = t0.elapsed().as_secs_f64();
                    if elapsed < wall {
                        wall = elapsed;
                        scrape_wall =
                            scrape_nanos.load(std::sync::atomic::Ordering::Relaxed) as f64 * 1e-9;
                    }
                    lines = responses
                        .iter()
                        .map(kyp_serve::ServeResponse::verdict_line)
                        .collect();
                    last_report = Some(service.report());
                }
                let run_report = last_report.expect("at least one rep ran");
                // Everything that is not time inside the page source —
                // queueing, batching, feature extraction, both model
                // stages — is the score share.
                let score_wall = (wall - scrape_wall).max(0.0);
                if run_report.cache.hits + run_report.cascade.url_only > run_report.answered {
                    eprintln!(
                        "[serve] warning: cache hits ({}) + cascade URL-only finals ({}) exceed \
                         answered ({}) — a request was double-counted as both a cache hit and a \
                         cascade hit",
                        run_report.cache.hits, run_report.cascade.url_only, run_report.answered
                    );
                }
                if run_report.shed_ratio > 0.5 {
                    eprintln!(
                        "[serve] warning: threads={threads} max_batch={max_batch} cache={} \
                         shed {:.0}% of requests — the configuration, not the load, is the problem",
                        if cache_on { "on" } else { "off" },
                        run_report.shed_ratio * 100.0
                    );
                }

                let identical = match baseline_lines.get(&max_batch) {
                    None => {
                        baseline_lines.insert(max_batch, lines);
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
                pair[slot] = pages_per_sec;

                println!(
                    "{threads:>8} {max_batch:>10} {:>7} {:>12.1} {:>11.1} {:>11.1} {:>12.0} {:>10} {:>8} {:>10}",
                    if cache_on { "on" } else { "off" },
                    wall * 1e3,
                    scrape_wall * 1e3,
                    score_wall * 1e3,
                    pages_per_sec,
                    run_report.latency.p99_ms,
                    run_report.cache.hits,
                    identical
                );

                let mut entry = report::object([
                    ("threads", report::uint(threads as u64)),
                    ("max_batch", report::uint(max_batch as u64)),
                    ("cache", report::boolean(cache_on)),
                    ("wall_ms", report::float(wall * 1e3)),
                    ("scrape_wall_ms", report::float(scrape_wall * 1e3)),
                    ("score_wall_ms", report::float(score_wall * 1e3)),
                    ("pages_per_sec", report::float(pages_per_sec)),
                    ("answered", report::uint(run_report.answered)),
                    ("shed", report::uint(run_report.shed)),
                    ("shed_ratio", report::float(run_report.shed_ratio)),
                    ("cache_hits", report::uint(run_report.cache.hits)),
                    (
                        "latency",
                        report::latency_summary_value(&run_report.latency),
                    ),
                    (
                        "virtual_elapsed_ms",
                        report::uint(run_report.virtual_elapsed_ms),
                    ),
                    ("verdicts_identical", report::boolean(identical)),
                ]);
                report::push_field(
                    &mut entry,
                    "batches",
                    report::uint(run_report.batches.batches),
                );
                entries.push(entry);
            }
            speedups.push((threads, max_batch, pair[0], pair[1]));
        }
    }
    kyp_exec::set_threads(0); // back to auto-detection

    assert!(
        all_identical,
        "per batch size, verdict streams must be byte-identical across \
         every thread count and cache setting"
    );

    println!();
    println!("Cache wall-clock speedup (pages/sec on ÷ off):");
    let mut speedup_entries = Vec::new();
    for (threads, max_batch, off, on) in &speedups {
        let ratio = if *off > 0.0 { on / off } else { 0.0 };
        println!("  threads {threads}, max_batch {max_batch}: {ratio:.2}x");
        speedup_entries.push(report::object([
            ("threads", report::uint(*threads as u64)),
            ("max_batch", report::uint(*max_batch as u64)),
            ("cache_speedup", report::float(ratio)),
        ]));
    }

    let section = report::object([
        ("scale", report::float(args.scale)),
        ("seed", report::uint(args.seed)),
        ("requests", report::uint(trace.len() as u64)),
        ("pool_urls", report::uint(pool.len() as u64)),
        ("duplicate_rate", report::float(workload.duplicate_rate)),
        ("sweep", serde_json::Value::Array(entries)),
        ("cache_speedups", serde_json::Value::Array(speedup_entries)),
    ]);
    let path = Path::new(report::BENCH_SERVE_REPORT_PATH);
    report::write_bench_section(path, "serve_throughput", section).expect("write bench report");
    println!();
    println!("Sweep written to {}", path.display());
}
