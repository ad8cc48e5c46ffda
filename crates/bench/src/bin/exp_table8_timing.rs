//! Regenerates **Table VIII** (processing time per pipeline stage).
//!
//! Measures, per page: webpage scraping (the simulated browser visit),
//! loading data (json round-trip of the scraped bundle, as the paper's
//! scraper stores json files), feature extraction, and classification.
//! Reports median / average / standard deviation in milliseconds.
//!
//! Absolute numbers will beat the paper's Python prototype by orders of
//! magnitude (Rust, simulated network); the expected *shape* holds:
//! scraping ≫ feature extraction ≫ loading ≈ classification. The table
//! times one pass over a small sample; repeated, stable per-stage costs
//! of the real request path come from perfbench's `--trace 1` ledger
//! (see README).
//!
//! Run: `cargo run --release -p kyp-bench --bin exp_table8_timing -- --scale 0.02`

use kyp_bench::{harness, EvalArgs, ExperimentEnv};
use kyp_core::{DataSources, DetectorConfig, PhishDetector};
use kyp_web::{Browser, VisitedPage};
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
}

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
