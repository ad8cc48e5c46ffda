//! Store-throughput sweep: the generate-once/train-forever economics of
//! `kyp-store` at corpus scale.
//!
//! For each corpus scale in `[--scale, 4 × --scale]` (so the larger
//! point is 4× the in-memory experiment default) this experiment:
//!
//! - times a full `build_store` (scrape + extract + stream to disk) —
//!   the generate-once cost, reported as write pages/second;
//! - times a cold sequential read of every stored page and every stored
//!   feature row, against the in-memory alternative each read replaces
//!   (re-scraping the corpus, re-extracting all 212 features) — the
//!   train-forever payoff, reported as a speedup;
//! - classifies every stored page through the full pipeline at each
//!   thread count of the sweep and asserts the store-backed verdict
//!   stream is byte-identical to the in-memory classification of the
//!   same scrape — the determinism contract this format exists to keep.
//!
//! Results go to `BENCH_store.json` at the repo root.
//!
//! Run: `cargo run --release -p kyp-bench --bin exp_store_throughput -- --scale 0.05 --threads 1,2,4`

use knowyourphish::storeflow;
use kyp_bench::{report, EvalArgs, ExperimentEnv};
use kyp_core::{DetectorConfig, PhishDetector, Pipeline, TargetIdentifier};
use kyp_store::{features_path, pages_path, FeatureStoreReader, PageStoreReader};
use kyp_web::ResilientBrowser;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Timing repetitions per measurement (wall time takes the minimum).
const REPS: usize = 3;

/// A fresh store directory under the system temp dir.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kyp_bench_store_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn main() {
    let args = EvalArgs::parse();
    let sweep = if args.threads.is_empty() {
        vec![1, 2, 4]
    } else {
        args.threads.clone()
    };
    let scales = [args.scale, args.scale * 4.0];

    println!("Store throughput sweep (best of {REPS} reps per measurement)");
    println!(
        "{:>8} {:>7} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "Scale", "Pages", "Write p/s", "Read p/s", "Scrape p/s", "Rows r/s", "Extract r/s"
    );

    let mut scale_entries = Vec::new();
    let mut all_identical = true;

    for scale in scales {
        let scale_args = EvalArgs {
            scale,
            seed: args.seed,
            threads: args.threads.clone(),
        };
        let env = ExperimentEnv::prepare(&scale_args);
        let corpus = &env.corpus;
        let config = scale_args.campaign();
        let dir = fresh_dir(&format!("s{}", (scale * 1000.0) as u64));

        // Generate-once: stream scrape + extraction into the store.
        let mut write_wall = f64::INFINITY;
        let mut build = None;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let report =
                storeflow::build_store(&dir, corpus, &config, &corpus.world, 0.0, config.seed)
                    .expect("build store");
            write_wall = write_wall.min(t0.elapsed().as_secs_f64());
            build = Some(report);
        }
        let build = build.expect("at least one build ran");
        let pages = build.pages;
        let store_bytes = file_len(&pages_path(&dir)) + file_len(&features_path(&dir));

        // Train-forever, pages side: cold sequential read of every page
        // vs re-scraping the same corpus.
        let mut read_wall = f64::INFINITY;
        let mut read_pages = 0usize;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let reader = PageStoreReader::open(&pages_path(&dir)).expect("open page store");
            read_pages = reader.read_all().expect("read page store").len();
            read_wall = read_wall.min(t0.elapsed().as_secs_f64());
        }
        assert_eq!(read_pages as u64, pages, "short read");

        let mut scrape_wall = f64::INFINITY;
        let mut visits = Vec::new();
        for _ in 0..REPS {
            let t0 = Instant::now();
            let mut scraper = ResilientBrowser::new(&corpus.world);
            visits = Vec::with_capacity(read_pages);
            for (_, urls, _) in corpus.scrape_bundles() {
                for url in &urls {
                    if let Ok(scraped) = scraper.scrape(url) {
                        visits.push(scraped.visit);
                    }
                }
            }
            scrape_wall = scrape_wall.min(t0.elapsed().as_secs_f64());
        }
        assert_eq!(visits.len() as u64, pages, "scrape/store page mismatch");

        // Train-forever, features side: cold stream of every stored row
        // vs re-extracting all features from the scraped pages.
        let mut rows_wall = f64::INFINITY;
        let mut rows_read = 0usize;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let mut reader =
                FeatureStoreReader::open(&features_path(&dir)).expect("open feature store");
            rows_read = 0;
            while let Some(block) = reader.next_block().expect("read feature store") {
                rows_read += block.labels.len();
            }
            rows_wall = rows_wall.min(t0.elapsed().as_secs_f64());
        }
        assert_eq!(rows_read as u64, build.rows, "short feature read");

        let mut extract_wall = f64::INFINITY;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let flat = env.extractor.extract_batch_flat(&visits);
            extract_wall = extract_wall.min(t0.elapsed().as_secs_f64());
            assert_eq!(flat.len(), visits.len() * env.extractor.feature_count());
        }

        let per_sec = |count: u64, wall: f64| if wall > 0.0 { count as f64 / wall } else { 0.0 };
        let write_ps = per_sec(pages, write_wall);
        let read_ps = per_sec(pages, read_wall);
        let scrape_ps = per_sec(pages, scrape_wall);
        let rows_ps = per_sec(build.rows, rows_wall);
        let extract_ps = per_sec(build.rows, extract_wall);
        println!(
            "{scale:>8.3} {pages:>7} {write_ps:>12.0} {read_ps:>12.0} {scrape_ps:>12.0} {rows_ps:>12.0} {extract_ps:>12.0}"
        );

        // Determinism: the store-backed verdict stream must equal the
        // in-memory classification of the same scrape, at every thread
        // count of the sweep.
        let train =
            storeflow::load_split_dataset(&dir, "leg_train", "phish_train").expect("train rows");
        let detector = PhishDetector::train(&train, &DetectorConfig::default());
        let pipeline = Pipeline::new(
            env.extractor.clone(),
            detector,
            TargetIdentifier::new(Arc::new(corpus.engine.clone())),
        );
        let mut scraper = ResilientBrowser::new(&corpus.world);
        let mut batch = Vec::new();
        for (_, urls, _) in corpus.scrape_bundles() {
            for url in &urls {
                if let Ok(scraped) = scraper.scrape(url) {
                    batch.push((url.clone(), scraped));
                }
            }
        }
        let in_memory: Vec<String> = pipeline
            .classify_scraped(&batch, &mut knowyourphish::obs::NoopObserver)
            .iter()
            .map(storeflow::verdict_line)
            .collect();
        let mut thread_entries = Vec::new();
        for &threads in &sweep {
            kyp_exec::set_threads(threads);
            let t0 = Instant::now();
            let stored = storeflow::store_verdict_lines(&dir, &pipeline).expect("store verdicts");
            let verdict_wall = t0.elapsed().as_secs_f64();
            let identical = stored == in_memory;
            all_identical &= identical;
            println!(
                "    verdicts at {threads} threads: {} lines in {:.1} ms, identical to in-memory: {identical}",
                stored.len(),
                verdict_wall * 1e3
            );
            thread_entries.push(report::object([
                ("threads", report::uint(threads as u64)),
                ("wall_ms", report::float(verdict_wall * 1e3)),
                ("verdicts", report::uint(stored.len() as u64)),
                ("identical_to_in_memory", report::boolean(identical)),
            ]));
        }
        kyp_exec::set_threads(0); // back to auto-detection

        scale_entries.push(report::object([
            ("scale", report::float(scale)),
            ("pages", report::uint(pages)),
            ("feature_rows", report::uint(build.rows)),
            ("store_bytes", report::uint(store_bytes)),
            ("write_wall_ms", report::float(write_wall * 1e3)),
            ("write_pages_per_sec", report::float(write_ps)),
            ("cold_read_wall_ms", report::float(read_wall * 1e3)),
            ("cold_read_pages_per_sec", report::float(read_ps)),
            ("rescrape_pages_per_sec", report::float(scrape_ps)),
            (
                "read_speedup_vs_rescrape",
                report::float(if scrape_ps > 0.0 {
                    read_ps / scrape_ps
                } else {
                    0.0
                }),
            ),
            ("feature_rows_per_sec", report::float(rows_ps)),
            ("reextract_rows_per_sec", report::float(extract_ps)),
            (
                "row_speedup_vs_reextract",
                report::float(if extract_ps > 0.0 {
                    rows_ps / extract_ps
                } else {
                    0.0
                }),
            ),
            ("verdict_sweep", serde_json::Value::Array(thread_entries)),
        ]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    assert!(
        all_identical,
        "store-backed verdict streams must be byte-identical to the \
         in-memory pipeline at every thread count"
    );

    let section = report::object([
        ("seed", report::uint(args.seed)),
        ("base_scale", report::float(args.scale)),
        ("scales", serde_json::Value::Array(scale_entries)),
    ]);
    let path = Path::new(report::BENCH_STORE_REPORT_PATH);
    report::write_bench_section(path, "store_throughput", section).expect("write bench report");
    println!();
    println!("Sweep written to {}", path.display());
}
