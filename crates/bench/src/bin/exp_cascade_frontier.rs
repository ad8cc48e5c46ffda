//! Cost/accuracy frontier of the two-stage URL cascade.
//!
//! Trains the full 212-feature detector and the cheap URL-only first
//! stage on the same training split, then sweeps the cascade's
//! uncertainty band from degenerate (`[0.5, 0.5]` — almost every page
//! final at the URL stage) to forced-full (`[0, 1]` — every page runs
//! the full pipeline). Each band reports:
//!
//! - **scrapes avoided**: the fraction of test pages whose URL score
//!   fell outside the band, so the browser never ran;
//! - **AUC delta**: deployed-cascade AUC (URL score where final, full
//!   score where fallen through) minus full-pipeline AUC, in absolute
//!   value — what the shortcut costs in ranking quality.
//!
//! Results go to `BENCH_cascade.json` at the repo root, stamped with the
//! scale and seed of the corpus they were computed on. What the avoided
//! scrapes save in wall-clock time is perfbench's `scan-store` and
//! `serve-cascade` workloads (see README).
//!
//! Run: `cargo run --release -p kyp-bench --bin exp_cascade_frontier -- --scale 0.02 --seed 7`

use kyp_bench::{harness, report, EvalArgs, ExperimentEnv};
use kyp_core::{
    cascade::train_url_stage, CascadeBand, CascadeClassifier, DetectorConfig, PhishDetector,
};
use kyp_ml::metrics;
use kyp_web::VisitedPage;
use std::path::Path;

/// Symmetric band half-widths around the 0.5 score midpoint, narrowest
/// to widest; 0.5 yields the forced-full band `[0, 1]`.
const HALF_WIDTHS: [f64; 7] = [0.0, 0.05, 0.1, 0.2, 0.35, 0.45, 0.5];

/// Everything the sweep needs.
struct FrontierInputs {
    cascade: CascadeClassifier,
    /// Test-set request URLs, legitimate pages then phishing pages.
    test_urls: Vec<String>,
    /// Label per test URL (`true` = phishing).
    test_labels: Vec<bool>,
    /// Full-pipeline detector score per test URL.
    full_scores: Vec<f64>,
}

/// Synthesises a corpus, scrapes it, trains both stages and scores the
/// test split with the full pipeline.
fn frontier_inputs(args: &EvalArgs) -> FrontierInputs {
    let env = ExperimentEnv::prepare(args);
    let c = &env.corpus;

    let phish_train: Vec<String> = c.phish_train.iter().map(|r| r.url.clone()).collect();
    let train = harness::scrape_dataset(c, &env.extractor, &c.leg_train, &phish_train);
    let detector = PhishDetector::train(&train, &DetectorConfig::default());
    let url_detector = train_url_stage(
        &c.leg_train,
        &phish_train,
        &c.ranker,
        &DetectorConfig::url_stage(),
    )
    .expect("train URL stage");
    let cascade = CascadeClassifier::new(url_detector, c.ranker.clone(), CascadeBand::default());

    let phish_test: Vec<String> = c.phish_test.iter().map(|r| r.url.clone()).collect();
    let mut visits: Vec<VisitedPage> = harness::scrape_visits(c, c.english_test());
    let legit_pages = visits.len();
    visits.extend(harness::scrape_visits(c, &phish_test));
    let test_urls: Vec<String> = visits.iter().map(|v| v.starting_url.to_string()).collect();
    let test_labels: Vec<bool> = (0..visits.len()).map(|i| i >= legit_pages).collect();
    let rows = env.extractor.extract_batch(&visits);
    let full_scores = detector.score_batch(&rows);

    FrontierInputs {
        cascade,
        test_urls,
        test_labels,
        full_scores,
    }
}

fn main() {
    let args = EvalArgs::parse();
    let mut inputs = frontier_inputs(&args);
    let n = inputs.test_urls.len();
    let full_auc = metrics::auc(&inputs.full_scores, &inputs.test_labels);
    eprintln!("[cascade] {n} test pages, full-pipeline AUC {full_auc:.4}");

    println!("Cascade band frontier ({n} test pages, full AUC {full_auc:.4})");
    println!(
        "{:>12} {:>10} {:>10} {:>12} {:>12}",
        "Band", "Avoided", "Avoided%", "DeployedAUC", "AUC delta"
    );

    let mut entries = Vec::new();
    let mut frontier_met = false;
    for &half in &HALF_WIDTHS {
        // Round to two decimals so 0.5 - 0.35 prints as 0.15, not as
        // its closest f64 neighbour.
        let lo = ((0.5 - half).max(0.0) * 100.0).round() / 100.0;
        let hi = ((0.5 + half).min(1.0) * 100.0).round() / 100.0;
        let band = CascadeBand::new(lo, hi).expect("a symmetric half-width band is always valid");
        inputs.cascade.set_band(band);

        // Deployed scores: the URL score where it is final, the full
        // score where the page falls through (or the URL is unscorable).
        let mut deployed = Vec::with_capacity(n);
        let mut avoided = 0u64;
        let mut unscorable = 0u64;
        for (i, url) in inputs.test_urls.iter().enumerate() {
            match inputs.cascade.url_score(url) {
                Some(s) if !band.contains(s) => {
                    avoided += 1;
                    deployed.push(s);
                }
                Some(_) => deployed.push(inputs.full_scores[i]),
                None => {
                    unscorable += 1;
                    deployed.push(inputs.full_scores[i]);
                }
            }
        }
        let deployed_auc = metrics::auc(&deployed, &inputs.test_labels);
        let auc_delta = (full_auc - deployed_auc).abs();
        let avoided_frac = avoided as f64 / n as f64;

        if avoided_frac >= 0.5 && auc_delta <= 0.01 {
            frontier_met = true;
        }

        println!(
            "{:>12} {avoided:>10} {:>9.1}% {deployed_auc:>12.4} {auc_delta:>12.4}",
            band.to_string(),
            avoided_frac * 100.0,
        );

        entries.push(report::object([
            ("lo", report::float(band.lo)),
            ("hi", report::float(band.hi)),
            ("screened", report::uint(n as u64)),
            ("scrapes_avoided", report::uint(avoided)),
            ("scrapes_avoided_frac", report::float(avoided_frac)),
            ("unscorable", report::uint(unscorable)),
            ("deployed_auc", report::float(deployed_auc)),
            ("auc_delta", report::float(auc_delta)),
        ]));
    }

    assert!(
        frontier_met,
        "no band avoided >= 50% of scrapes within an AUC delta of 0.01 — \
         the cascade frontier regressed"
    );

    let section = report::object([
        ("scale", report::float(args.scale)),
        ("seed", report::uint(args.seed)),
        ("test_pages", report::uint(n as u64)),
        ("full_auc", report::float(full_auc)),
        ("sweep", serde_json::Value::Array(entries)),
    ]);
    let path = Path::new(report::BENCH_CASCADE_REPORT_PATH);
    report::write_bench_section(path, "cascade_frontier", section).expect("write bench report");
    println!();
    println!("Frontier written to {}", path.display());
}
