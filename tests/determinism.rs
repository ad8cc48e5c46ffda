//! The execution layer's hard requirement: bit-identical outputs at any
//! thread count.
//!
//! Every parallel path introduced by `kyp-exec` — batch classification,
//! batch feature extraction, gradient-boosting fits, dataset scoring,
//! cross-validation folds — must produce byte-for-byte the same result at
//! 1, 2 and 8 threads. Each test drives the thread count through
//! `kyp_exec::set_threads` (the same knob `KYP_THREADS` and `--threads`
//! plumb into) and compares serialized outputs across counts.
//!
//! The tests restore auto-detection (`set_threads(0)`) on exit; because
//! every computation is thread-count-invariant by design, a concurrent
//! test observing a temporary override still sees identical results.

use knowyourphish::core::{
    DetectorConfig, FeatureExtractor, PhishDetector, Pipeline, TargetIdentifier,
};
use knowyourphish::datagen::{CampaignConfig, Corpus};
use knowyourphish::ml::{cv, Dataset, GbmParams, GradientBoosting};
use knowyourphish::web::{FaultPlan, FlakyWorld, ResilientBrowser};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn small_corpus() -> Corpus {
    Corpus::generate(&CampaignConfig {
        seed: 77,
        phish_train: 40,
        phish_test: 30,
        phish_brand: 8,
        leg_train: 160,
        english_test: 80,
        other_language_test: 10,
    })
}

fn training_data(corpus: &Corpus, extractor: &FeatureExtractor) -> Dataset {
    let browser = knowyourphish::web::Browser::new(&corpus.world);
    let mut data = Dataset::new(extractor.feature_count());
    for url in &corpus.leg_train {
        data.push_row(&extractor.extract(&browser.visit(url).unwrap()), false);
    }
    for r in &corpus.phish_train {
        data.push_row(&extractor.extract(&browser.visit(&r.url).unwrap()), true);
    }
    data
}

/// `PhishDetector::train` (GBM fit with parallel split search and binned
/// raw-score updates) must serialize identically at every thread count.
#[test]
fn detector_training_is_thread_count_invariant() {
    let corpus = small_corpus();
    let extractor = FeatureExtractor::new(corpus.ranker.clone());
    let train = training_data(&corpus, &extractor);

    let mut baseline: Option<String> = None;
    for threads in THREAD_COUNTS {
        knowyourphish::exec::set_threads(threads);
        let detector = PhishDetector::train(&train, &DetectorConfig::default());
        let json = serde_json::to_string(&detector).unwrap();
        match &baseline {
            None => baseline = Some(json),
            Some(base) => {
                assert!(*base == json, "trained model diverges at {threads} threads");
            }
        }
    }
    knowyourphish::exec::set_threads(0);
}

/// `Pipeline::classify_all` over a faulty web: verdict order, per-verdict
/// content and the full `ScrapeReport` must be byte-identical at every
/// thread count.
#[test]
fn classify_all_is_thread_count_invariant() {
    let corpus = small_corpus();
    let extractor = FeatureExtractor::new(corpus.ranker.clone());
    let train = training_data(&corpus, &extractor);

    knowyourphish::exec::set_threads(1);
    let detector = PhishDetector::train(&train, &DetectorConfig::default());
    let pipeline = Pipeline::new(
        extractor,
        detector,
        TargetIdentifier::new(Arc::new(corpus.engine.clone())),
    );

    let mut urls: Vec<String> = corpus.phish_test.iter().map(|r| r.url.clone()).collect();
    urls.extend(corpus.english_test().iter().take(40).cloned());
    urls.push("http://nowhere.invalid/".into());
    urls.push("not a url".into());

    let mut baseline: Option<(String, Vec<String>)> = None;
    for threads in THREAD_COUNTS {
        knowyourphish::exec::set_threads(threads);
        let flaky = FlakyWorld::new(&corpus.world, FaultPlan::new(5, 0.3));
        let mut scraper = ResilientBrowser::new(&flaky);
        let run = pipeline.classify_all(&mut scraper, &urls, &mut knowyourphish::obs::NoopObserver);
        let report_json = serde_json::to_string(&run.report).unwrap();
        let verdicts: Vec<String> = run
            .classified
            .iter()
            .map(|c| format!("{} {:?} {}", c.url, c.verdict, c.degraded))
            .collect();
        match &baseline {
            None => baseline = Some((report_json, verdicts)),
            Some((base_report, base_verdicts)) => {
                assert_eq!(
                    *base_report, report_json,
                    "scrape report diverges at {threads} threads"
                );
                assert_eq!(
                    *base_verdicts, verdicts,
                    "verdicts diverge at {threads} threads"
                );
            }
        }
    }
    knowyourphish::exec::set_threads(0);
}

/// Stratified k-fold CV with concurrently fitted folds must pool the same
/// scores in the same order at every thread count, and match the serial
/// `cross_validate` bit for bit.
#[test]
fn kfold_is_thread_count_invariant() {
    let corpus = small_corpus();
    let extractor = FeatureExtractor::new(corpus.ranker.clone());
    let data = training_data(&corpus, &extractor);

    let params = GbmParams {
        n_trees: 30,
        seed: 3,
        ..GbmParams::default()
    };
    let fit = |tr: &Dataset, te: &Dataset| -> Vec<f64> {
        GradientBoosting::fit(tr, &params).predict_dataset(te)
    };

    knowyourphish::exec::set_threads(1);
    let (serial_scores, serial_labels) = cv::cross_validate(&data, 4, 11, fit);
    let serial_bits: Vec<u64> = serial_scores.iter().map(|s| s.to_bits()).collect();

    for threads in THREAD_COUNTS {
        knowyourphish::exec::set_threads(threads);
        let (scores, labels) = cv::cross_validate_par(&data, 4, 11, fit);
        let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
        assert_eq!(serial_bits, bits, "CV scores diverge at {threads} threads");
        assert_eq!(serial_labels, labels);
    }
    knowyourphish::exec::set_threads(0);
}

/// Batch feature extraction and batch scoring agree with the pointwise
/// serial path at every thread count.
#[test]
fn batch_extraction_and_scoring_are_thread_count_invariant() {
    let corpus = small_corpus();
    let extractor = FeatureExtractor::new(corpus.ranker.clone());
    let browser = knowyourphish::web::Browser::new(&corpus.world);
    let visits: Vec<_> = corpus
        .english_test()
        .iter()
        .chain(corpus.phish_test.iter().map(|r| &r.url).take(20))
        .filter_map(|u| browser.visit(u).ok())
        .collect();
    assert!(visits.len() >= 40, "corpus must yield a real batch");

    knowyourphish::exec::set_threads(1);
    let train = training_data(&corpus, &extractor);
    let detector = PhishDetector::train(&train, &DetectorConfig::default());
    let serial_rows: Vec<Vec<f64>> = visits.iter().map(|v| extractor.extract(v)).collect();
    let mut test = Dataset::new(extractor.feature_count());
    for row in &serial_rows {
        test.push_row(row, false);
    }
    let serial_scores: Vec<u64> = detector
        .score_dataset(&test)
        .iter()
        .map(|s| s.to_bits())
        .collect();

    for threads in THREAD_COUNTS {
        knowyourphish::exec::set_threads(threads);
        assert_eq!(
            extractor.extract_batch(&visits),
            serial_rows,
            "feature vectors diverge at {threads} threads"
        );
        let bits: Vec<u64> = detector
            .score_dataset(&test)
            .iter()
            .map(|s| s.to_bits())
            .collect();
        assert_eq!(serial_scores, bits, "scores diverge at {threads} threads");
    }
    knowyourphish::exec::set_threads(0);
}
