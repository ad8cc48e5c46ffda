//! Regenerates **Table VIII** (processing time per pipeline stage) and
//! benchmarks the batch-scoring hot path, before vs after the flat
//! single-core rewrite.
//!
//! First measures, per page: webpage scraping (the simulated browser
//! visit), loading data (json round-trip of the scraped bundle, as the
//! paper's scraper stores json files), feature extraction, and
//! classification. Reports median / average / standard deviation in
//! milliseconds.
//!
//! Then sweeps `--threads` (default `1,2,4`) over the batch pipeline.
//! Each sweep point runs the hot path **twice**:
//!
//! - **baseline** — the pre-rewrite implementation kept alive for
//!   measurement: per-page feature extraction with freshly allocated
//!   scratch plus the boxed-enum Gradient Boosting tree walk
//!   ([`GradientBoosting::predict_proba`] on [`PhishDetector::model`]);
//! - **flat** — scratch-reusing chunked extraction
//!   ([`FeatureExtractor::extract_batch`]) plus the compiled SoA model
//!   ([`PhishDetector::score_batch`]), with the scrape stage timed
//!   alongside.
//!
//! The two verdict streams must be bit-identical to each other and
//! across every thread count (`outputs_identical`), and the per-stage
//! walls (scrape / extract / score) are recorded per sweep point in
//! `BENCH_pipeline.json`. A sweep point where the flat path fails to
//! beat the baseline prints a warning to stderr.
//!
//! Absolute numbers will beat the paper's Python prototype by orders of
//! magnitude (Rust, simulated network); the expected *shape* holds:
//! scraping ≫ feature extraction ≫ loading ≈ classification.
//!
//! Run: `cargo run --release -p kyp-bench --bin exp_table8_timing -- --scale 0.02 --threads 1,2,4`
//!
//! [`FeatureExtractor::extract_batch`]: kyp_core::FeatureExtractor::extract_batch
//! [`GradientBoosting::predict_proba`]: kyp_ml::GradientBoosting::predict_proba
//! [`PhishDetector::model`]: kyp_core::PhishDetector::model
//! [`PhishDetector::score_batch`]: kyp_core::PhishDetector::score_batch

use kyp_bench::{harness, report, EvalArgs, ExperimentEnv};
use kyp_core::{DataSources, DetectorConfig, PhishDetector};
use kyp_web::{Browser, VisitedPage};
use std::path::Path;
use std::time::Instant;

fn main() {
    let args = EvalArgs::parse();
    let env = ExperimentEnv::prepare(&args);
    let c = &env.corpus;

    let phish_train: Vec<String> = c.phish_train.iter().map(|r| r.url.clone()).collect();
    let train = harness::scrape_dataset(c, &env.extractor, &c.leg_train, &phish_train);
    let detector = PhishDetector::train(&train, &DetectorConfig::default());

    // Timing sample: a mix of phish and legitimate pages.
    let mut sample: Vec<String> = c.phish_test.iter().map(|r| r.url.clone()).collect();
    sample.extend(c.english_test().iter().take(sample.len() * 4).cloned());

    let browser = Browser::new(&c.world);
    let mut t_scrape = Vec::with_capacity(sample.len());
    let mut t_load = Vec::with_capacity(sample.len());
    let mut t_features = Vec::with_capacity(sample.len());
    let mut t_classify = Vec::with_capacity(sample.len());
    let mut visits = Vec::with_capacity(sample.len());

    for url in &sample {
        let t0 = Instant::now();
        let Ok(visit) = browser.visit(url) else {
            continue;
        };
        t_scrape.push(ms(t0));

        // "Loading data": the scraper stores json; the classifier loads it.
        let json = serde_json::to_string(&visit).expect("serialize visit");
        let t1 = Instant::now();
        let visit: VisitedPage = serde_json::from_str(&json).expect("deserialize visit");
        t_load.push(ms(t1));

        let t2 = Instant::now();
        let sources = DataSources::from_page(&visit);
        let features = env.extractor.extract_with_sources(&visit, &sources);
        t_features.push(ms(t2));

        let t3 = Instant::now();
        let _ = detector.is_phish(&features);
        t_classify.push(ms(t3));
        visits.push(visit);
    }

    println!(
        "Table VIII: Processing time (milliseconds, {} pages)",
        t_scrape.len()
    );
    println!(
        "{:<22} {:>10} {:>10} {:>10}",
        "", "Median", "Average", "StDev"
    );
    print_row("Webpage scraping", &t_scrape);
    print_row("Loading data", &t_load);
    print_row("Features extraction", &t_features);
    print_row("Classification", &t_classify);
    let total: Vec<f64> = t_load
        .iter()
        .zip(&t_features)
        .zip(&t_classify)
        .map(|((a, b), c)| a + b + c)
        .collect();
    print_row("Total (no scraping)", &total);

    // --- Batch-scoring thread sweep: baseline vs flat hot path ----------
    let sweep = if args.threads.is_empty() {
        vec![1, 2, 4]
    } else {
        args.threads.clone()
    };

    println!();
    println!(
        "Batch hot-path sweep ({} pages, best of {REPS} reps per point)",
        visits.len()
    );
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>12} {:>10}",
        "Threads", "Base pages/s", "Flat pages/s", "Flat gain", "Scrape ms", "Identical"
    );

    let mut first_flat_wall: Option<f64> = None;
    let mut cross_point_scores: Option<Vec<u64>> = None;
    let mut cross_point_model: Option<String> = None;
    let mut entries = Vec::new();
    let mut all_identical = true;
    let hardware_threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    for &threads in &sweep {
        kyp_exec::set_threads(threads);
        // Requesting more workers than the machine has cores can't speed
        // anything up — the sweep point is still *correct* (bit-identical
        // outputs), but its speedup_vs_1 reads below 1 for scheduling
        // reasons, not algorithmic ones. Flag it instead of silently
        // reporting a regression.
        let oversubscribed = threads > hardware_threads;
        if oversubscribed {
            eprintln!(
                "warning: sweep point --threads {threads} oversubscribes the machine \
                 ({hardware_threads} hardware threads available); its speedup_vs_1 \
                 measures scheduler contention, not the pipeline"
            );
        }

        // Baseline pass: per-page extraction (fresh scratch each page)
        // scored through the boxed-enum tree walk.
        let mut base_extract = f64::INFINITY;
        let mut base_score = f64::INFINITY;
        let mut base_scores: Vec<f64> = Vec::new();
        for _ in 0..REPS {
            let t0 = Instant::now();
            let rows: Vec<Vec<f64>> =
                kyp_exec::pool().par_map(&visits, |v| env.extractor.extract(v));
            let extract_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let run: Vec<f64> =
                kyp_exec::pool().par_map(&rows, |f| detector.model().predict_proba(f));
            let score_s = t1.elapsed().as_secs_f64();
            if extract_s + score_s < base_extract + base_score {
                base_extract = extract_s;
                base_score = score_s;
            }
            base_scores = run;
        }
        let base_wall = base_extract + base_score;

        // Flat pass: scratch-reusing chunked extraction + compiled SoA
        // batch inference.
        let mut flat_extract = f64::INFINITY;
        let mut flat_score = f64::INFINITY;
        let mut flat_scores: Vec<f64> = Vec::new();
        for _ in 0..REPS {
            let t0 = Instant::now();
            let rows = env.extractor.extract_batch(&visits);
            let extract_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let run: Vec<f64> = kyp_exec::pool()
                .par_chunks(&rows, SCORE_CHUNK, |_, chunk| detector.score_batch(chunk))
                .into_iter()
                .flatten()
                .collect();
            let score_s = t1.elapsed().as_secs_f64();
            if extract_s + score_s < flat_extract + flat_score {
                flat_extract = extract_s;
                flat_score = score_s;
            }
            flat_scores = run;
        }
        let flat_wall = flat_extract + flat_score;

        // Scrape stage: lenient visits, chunked across the pool.
        let mut scrape_wall = f64::INFINITY;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let scraped: usize = kyp_exec::pool()
                .par_chunks(&sample, SCRAPE_CHUNK, |_, urls| {
                    urls.iter()
                        .filter(|url| browser.try_visit(url).is_ok())
                        .count()
                })
                .into_iter()
                .sum();
            let elapsed = t0.elapsed().as_secs_f64();
            assert!(scraped >= visits.len(), "scrape lost pages");
            if elapsed < scrape_wall {
                scrape_wall = elapsed;
            }
        }

        let t_train = Instant::now();
        let trained = PhishDetector::train(&train, &DetectorConfig::default());
        let train_wall_ms = t_train.elapsed().as_secs_f64() * 1e3;
        let model_json = serde_json::to_string(&trained).expect("serialize model");

        // Bit-identity: flat vs baseline within the point, and both vs
        // the first sweep point (thread-count invariance), plus the
        // retrained model.
        let flat_bits: Vec<u64> = flat_scores.iter().map(|s| s.to_bits()).collect();
        let base_bits: Vec<u64> = base_scores.iter().map(|s| s.to_bits()).collect();
        let identical = match (&cross_point_scores, &cross_point_model) {
            (None, None) => {
                let same = flat_bits == base_bits;
                cross_point_scores = Some(flat_bits);
                cross_point_model = Some(model_json);
                same
            }
            (Some(first_bits), Some(first_model)) => {
                flat_bits == base_bits && *first_bits == flat_bits && *first_model == model_json
            }
            _ => unreachable!("cross-point baselines are set together"),
        };
        all_identical &= identical;

        let speedup = match first_flat_wall {
            None => {
                first_flat_wall = Some(flat_wall);
                1.0
            }
            Some(first) => first / flat_wall,
        };

        let pages = visits.len() as f64;
        let base_pps = pages / base_wall;
        let flat_pps = pages / flat_wall;
        if flat_pps <= base_pps {
            eprintln!(
                "warning: flat hot path did not beat the baseline at --threads {threads} \
                 ({flat_pps:.0} <= {base_pps:.0} pages/sec)"
            );
        }

        println!(
            "{threads:>8} {base_pps:>14.0} {flat_pps:>14.0} {:>10.2} {:>12.1} {identical:>10}",
            flat_pps / base_pps,
            scrape_wall * 1e3,
        );
        let mut entry = report::timing_entry(threads, visits.len(), flat_wall, speedup);
        report::push_field(
            &mut entry,
            "baseline_pages_per_sec",
            report::float(base_pps),
        );
        report::push_field(&mut entry, "flat_pages_per_sec", report::float(flat_pps));
        report::push_field(
            &mut entry,
            "flat_speedup_vs_baseline",
            report::float(flat_pps / base_pps),
        );
        report::push_field(
            &mut entry,
            "baseline_extract_wall_ms",
            report::float(base_extract * 1e3),
        );
        report::push_field(
            &mut entry,
            "baseline_score_wall_ms",
            report::float(base_score * 1e3),
        );
        report::push_field(
            &mut entry,
            "scrape_wall_ms",
            report::float(scrape_wall * 1e3),
        );
        report::push_field(
            &mut entry,
            "extract_wall_ms",
            report::float(flat_extract * 1e3),
        );
        report::push_field(&mut entry, "score_wall_ms", report::float(flat_score * 1e3));
        report::push_field(&mut entry, "train_wall_ms", report::float(train_wall_ms));
        report::push_field(&mut entry, "outputs_identical", report::boolean(identical));
        report::push_field(
            &mut entry,
            "oversubscribed",
            report::boolean(oversubscribed),
        );
        entries.push(entry);
    }
    kyp_exec::set_threads(0); // back to auto-detection

    assert!(
        all_identical,
        "flat and baseline scoring must be bit-identical at every thread count"
    );

    let section = report::object([
        ("scale", report::float(args.scale)),
        ("seed", report::uint(args.seed)),
        ("pages", report::uint(visits.len() as u64)),
        (
            "available_parallelism",
            report::uint(hardware_threads as u64),
        ),
        ("sweep", serde_json::Value::Array(entries)),
    ]);
    let path = Path::new(report::BENCH_REPORT_PATH);
    report::write_bench_section(path, "table8_timing", section).expect("write bench report");
    println!();
    println!("Sweep written to {}", path.display());
}

/// Timing repetitions per sweep point (wall time takes the minimum).
const REPS: usize = 3;

/// Rows scored per flat-inference chunk in the thread sweep.
const SCORE_CHUNK: usize = 256;

/// URLs visited per pool chunk in the scrape-stage timing.
const SCRAPE_CHUNK: usize = 32;

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

fn print_row(label: &str, values: &[f64]) {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let median = if sorted.is_empty() {
        0.0
    } else {
        sorted[sorted.len() / 2]
    };
    let avg = values.iter().sum::<f64>() / values.len().max(1) as f64;
    let var =
        values.iter().map(|v| (v - avg) * (v - avg)).sum::<f64>() / values.len().max(1) as f64;
    println!(
        "{label:<22} {median:>10.4} {avg:>10.4} {:>10.4}",
        var.sqrt()
    );
}
