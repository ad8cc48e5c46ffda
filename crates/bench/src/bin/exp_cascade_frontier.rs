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
//!   value — what the shortcut costs in ranking quality;
//! - **pages/sec**: wall-clock throughput of the deployed
//!   screen-then-maybe-classify loop over the whole test set.
//!
//! Results go to `BENCH_cascade.json` at the repo root. With
//! `--from-store <dir>` the detector trains from a `kyp gen` directory's
//! persisted rows and the sweep runs over its stored pages — no
//! generation or scraping at all.
//!
//! Run: `cargo run --release -p kyp-bench --bin exp_cascade_frontier -- --scale 0.02`
//! or:  `cargo run --release -p kyp-bench --bin exp_cascade_frontier -- --from-store store/`

use kyp_bench::{harness, report, EvalArgs, ExperimentEnv};
use kyp_core::{
    cascade::train_url_stage, CascadeBand, CascadeClassifier, CascadeDecision, DetectorConfig,
    FeatureExtractor, PhishDetector,
};
use kyp_ml::metrics;
use kyp_serve::{PageSource, StoredPages};
use kyp_web::VisitedPage;
use std::path::Path;
use std::time::Instant;

/// Symmetric band half-widths around the 0.5 score midpoint, narrowest
/// to widest; 0.5 yields the forced-full band `[0, 1]`.
const HALF_WIDTHS: [f64; 7] = [0.0, 0.05, 0.1, 0.2, 0.35, 0.45, 0.5];

/// Everything the sweep needs, however it was sourced.
struct FrontierInputs {
    detector: PhishDetector,
    cascade: CascadeClassifier,
    extractor: FeatureExtractor,
    /// Test-set request URLs, legitimate pages then phishing pages.
    test_urls: Vec<String>,
    /// Label per test URL (`true` = phishing).
    test_labels: Vec<bool>,
    /// Full-pipeline detector score per test URL.
    full_scores: Vec<f64>,
    /// The captured test pages, for timing the fall-through path.
    pages: StoredPages,
}

/// Generation path: synthesise a corpus, scrape it, train both stages.
fn generated_inputs(args: &EvalArgs) -> FrontierInputs {
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
        detector,
        cascade,
        extractor: env.extractor,
        test_urls,
        test_labels,
        full_scores,
        pages: StoredPages::new(visits),
    }
}

/// Store path: train from persisted feature rows and sweep over the
/// stored pages — nothing is generated or scraped.
fn store_inputs(dir: &Path) -> Result<FrontierInputs, String> {
    use knowyourphish::storeflow;

    let ranker = storeflow::load_ranker(dir)?;
    let train = storeflow::load_split_dataset(dir, "leg_train", "phish_train")?;
    let detector = PhishDetector::train(&train, &DetectorConfig::default());
    let (leg_urls, phish_urls) = storeflow::load_split_urls(dir, "leg_train", "phish_train")?;
    let url_detector = train_url_stage(
        &leg_urls,
        &phish_urls,
        &ranker,
        &DetectorConfig::url_stage(),
    )?;
    let cascade = CascadeClassifier::new(url_detector, ranker.clone(), CascadeBand::default());

    let (full_scores, test_labels) =
        storeflow::score_split_streaming(dir, &detector, "leg_test", "phish_test")?;
    let (leg_test, phish_test) = storeflow::load_split_urls(dir, "leg_test", "phish_test")?;
    let mut test_urls = leg_test;
    test_urls.extend(phish_test);
    if test_urls.len() != full_scores.len() {
        return Err(format!(
            "store test split mismatch: {} URLs vs {} scored rows",
            test_urls.len(),
            full_scores.len()
        ));
    }
    let (pages, _) = storeflow::load_serving_pages(dir)?;

    Ok(FrontierInputs {
        detector,
        extractor: FeatureExtractor::new(ranker),
        cascade,
        test_urls,
        test_labels,
        full_scores,
        pages,
    })
}

fn main() {
    let args = EvalArgs::parse();
    let from_store = {
        let mut iter = std::env::args().skip(1);
        let mut dir = None;
        while let Some(a) = iter.next() {
            if a == "--from-store" {
                dir = iter.next();
            }
        }
        dir
    };
    let mut inputs = match &from_store {
        Some(dir) => store_inputs(Path::new(dir)).expect("load store inputs"),
        None => generated_inputs(&args),
    };
    let n = inputs.test_urls.len();
    let full_auc = metrics::auc(&inputs.full_scores, &inputs.test_labels);
    eprintln!(
        "[cascade] {} test pages, full-pipeline AUC {full_auc:.4}{}",
        n,
        from_store
            .as_deref()
            .map(|d| format!(" (from store {d})"))
            .unwrap_or_default()
    );

    println!("Cascade band frontier ({n} test pages, full AUC {full_auc:.4})");
    println!(
        "{:>12} {:>10} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "Band", "Avoided", "Avoided%", "DeployedAUC", "AUC delta", "Wall ms", "Pages/sec"
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

        // Wall-clock the deployed loop: screen every URL, fetch +
        // extract + score only the fall-through set.
        let t0 = Instant::now();
        for url in &inputs.test_urls {
            match inputs.cascade.prescreen(url) {
                CascadeDecision::Final(verdict) => {
                    std::hint::black_box(verdict.score());
                }
                CascadeDecision::Uncertain { .. } | CascadeDecision::Unscorable => {
                    if let Ok(page) = inputs.pages.fetch(url) {
                        let row = inputs.extractor.extract(&page.visit);
                        std::hint::black_box(inputs.detector.score(&row));
                    }
                }
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        let pages_per_sec = if wall > 0.0 { n as f64 / wall } else { 0.0 };

        if avoided_frac >= 0.5 && auc_delta <= 0.01 {
            frontier_met = true;
        }

        println!(
            "{:>12} {avoided:>10} {:>9.1}% {deployed_auc:>12.4} {auc_delta:>12.4} {:>12.1} {pages_per_sec:>12.0}",
            band.to_string(),
            avoided_frac * 100.0,
            wall * 1e3
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
            ("wall_ms", report::float(wall * 1e3)),
            ("pages_per_sec", report::float(pages_per_sec)),
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
        ("from_store", report::boolean(from_store.is_some())),
        ("test_pages", report::uint(n as u64)),
        ("full_auc", report::float(full_auc)),
        ("sweep", serde_json::Value::Array(entries)),
    ]);
    let path = Path::new(report::BENCH_CASCADE_REPORT_PATH);
    report::write_bench_section(path, "cascade_frontier", section).expect("write bench report");
    println!();
    println!("Frontier written to {}", path.display());
}
