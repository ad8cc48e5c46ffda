//! **Fault-tolerance sweep**: how detection quality degrades when the
//! scraper faces an unreliable web.
//!
//! A detector is trained on a clean scrape of the training corpus, then
//! the test set is re-scraped through a [`kyp_web::FlakyWorld`] at
//! injected fault rates from 0% to 50%. At each rate the resilient
//! scraper retries transient errors, honours its per-visit deadline
//! budget and trips per-host circuit breakers; whatever it captures —
//! including partially loaded pages — is featurised with neutral values
//! for the missing sources and scored.
//!
//! Reported per rate: completion rate, degraded-page count, retries,
//! breaker trips, virtual elapsed time and AUC over the completed pages.
//! Everything runs on the virtual clock, so output is reproducible for a
//! seed.
//!
//! Run: `cargo run --release -p kyp-bench --bin exp_fault_tolerance -- --scale 0.05`

use kyp_bench::{harness, EvalArgs, ExperimentEnv};
use kyp_core::{DetectorConfig, PhishDetector, ScrapeReport};
use kyp_ml::metrics;
use kyp_web::{FaultPlan, FlakyWorld, ResilientBrowser};

fn main() {
    let args = EvalArgs::parse();
    let env = ExperimentEnv::prepare(&args);
    let c = &env.corpus;

    let phish_train: Vec<String> = c.phish_train.iter().map(|r| r.url.clone()).collect();
    let train = harness::scrape_dataset(c, &env.extractor, &c.leg_train, &phish_train);
    let detector = PhishDetector::train(&train, &DetectorConfig::default());

    // Labeled test set: legitimate English pages + phishing pages.
    let mut test: Vec<(String, bool)> = Vec::new();
    test.extend(c.english_test().iter().map(|u| (u.clone(), false)));
    test.extend(c.phish_test.iter().map(|r| (r.url.clone(), true)));

    println!("Fault tolerance: completion and AUC vs injected fault rate");
    println!(
        "({} test pages, fault seed {}, all faults enabled)",
        test.len(),
        args.seed
    );
    println!();
    println!(
        "{:>6}  {:>9}  {:>8}  {:>7}  {:>5}  {:>10}  {:>6}",
        "rate", "completed", "degraded", "retries", "trips", "virt-ms", "AUC"
    );

    let mut clean_auc = None;
    for pct in (0..=50).step_by(10) {
        let rate = pct as f64 / 100.0;
        let plan = FaultPlan::new(args.seed, rate);
        let flaky = FlakyWorld::new(&c.world, plan);
        let mut scraper = ResilientBrowser::new(&flaky);

        let mut report = ScrapeReport::default();
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for (url, label) in &test {
            let outcome = scraper.scrape(url);
            report.record(&outcome);
            if let Ok(page) = outcome {
                let features = env
                    .extractor
                    .extract_degraded(&page.visit, &page.availability);
                scores.push(detector.score(&features));
                labels.push(*label);
            }
        }
        report.retries = scraper.total_retries();
        report.breaker_trips = scraper.breaker().trips();
        report.virtual_elapsed_ms = scraper.clock().now_ms();

        let auc = metrics::auc(&scores, &labels);
        let clean = *clean_auc.get_or_insert(auc);
        println!(
            "{:>5.0}%  {:>4}/{:<4}  {:>8}  {:>7}  {:>5}  {:>10}  {:.4}  (Δ {:+.4})",
            rate * 100.0,
            report.completed,
            report.requested,
            report.degraded,
            report.retries,
            report.breaker_trips,
            report.virtual_elapsed_ms,
            auc,
            auc - clean
        );
    }
    println!();
    println!("AUC is computed over the pages each sweep managed to capture;");
    println!("degraded pages are scored from partial sources, not dropped.");
}
