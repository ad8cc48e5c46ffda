//! The store's determinism contract: `kyp gen` must write
//! byte-identical files at any thread count and across repeated runs,
//! its index and ranking sidecars must not depend on the fault plan,
//! and everything later streamed *out* of a store — training matrices,
//! models, scores, verdict streams, serving pages — must be
//! byte-identical to the in-memory pipeline it replaced.

use knowyourphish::core::{
    DetectorConfig, FeatureExtractor, PhishDetector, Pipeline, TargetIdentifier,
};
use knowyourphish::datagen::{CampaignConfig, Corpus};
use knowyourphish::ml::Dataset;
use knowyourphish::serve::{PageSource, StoredPages};
use knowyourphish::storeflow;
use knowyourphish::web::{FaultPlan, FlakyWorld, ResilientBrowser};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn small_config() -> CampaignConfig {
    CampaignConfig {
        seed: 77,
        phish_train: 30,
        phish_test: 20,
        phish_brand: 8,
        leg_train: 100,
        english_test: 60,
        other_language_test: 10,
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build(dir: &Path, corpus: &Corpus, config: &CampaignConfig) -> storeflow::StoreBuildReport {
    storeflow::build_store(dir, corpus, config, &corpus.world, 0.0, config.seed).unwrap()
}

fn store_bytes(dir: &Path) -> (Vec<u8>, Vec<u8>) {
    (
        std::fs::read(knowyourphish::store::pages_path(dir)).unwrap(),
        std::fs::read(knowyourphish::store::features_path(dir)).unwrap(),
    )
}

/// The written store files are byte-identical at 1, 2 and 8 threads and
/// across repeated runs at the same thread count.
#[test]
fn store_files_are_byte_identical_across_threads_and_runs() {
    let config = small_config();
    let corpus = Corpus::generate(&config);

    let mut baseline: Option<(Vec<u8>, Vec<u8>)> = None;
    for threads in THREAD_COUNTS {
        knowyourphish::exec::set_threads(threads);
        let dir = fresh_dir(&format!("kyp_store_det_t{threads}"));
        let report = build(&dir, &corpus, &config);
        assert_eq!(report.pages, report.rows, "one feature row per page");
        assert!(report.pages > 0);
        let bytes = store_bytes(&dir);
        match &baseline {
            None => baseline = Some(bytes),
            Some(base) => {
                assert!(
                    base.0 == bytes.0,
                    "pages.kyps diverges at {threads} threads"
                );
                assert!(
                    base.1 == bytes.1,
                    "features.kypf diverges at {threads} threads"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Same thread count, fresh run, fresh corpus generation: still the
    // same bytes (generation itself is seeded).
    knowyourphish::exec::set_threads(2);
    let again = Corpus::generate(&config);
    let dir = fresh_dir("kyp_store_det_rerun");
    build(&dir, &again, &config);
    let bytes = store_bytes(&dir);
    let base = baseline.unwrap();
    assert!(base.0 == bytes.0, "pages.kyps diverges across runs");
    assert!(base.1 == bytes.1, "features.kypf diverges across runs");
    std::fs::remove_dir_all(&dir).unwrap();
    knowyourphish::exec::set_threads(0);
}

/// A model trained from stored feature rows is byte-identical to one
/// trained from freshly scraped + extracted pages, and store-streamed
/// scores are bit-identical to in-memory dataset scoring.
#[test]
fn stored_rows_train_and_score_identically_to_in_memory() {
    let config = small_config();
    let corpus = Corpus::generate(&config);
    let dir = fresh_dir("kyp_store_det_train");
    build(&dir, &corpus, &config);

    // In-memory reference: scrape the same bundles in the same order and
    // featurize legit-then-phish, the layout `load_split_dataset` keeps.
    let extractor = FeatureExtractor::new(corpus.ranker.clone());
    let mut scraper = ResilientBrowser::new(&corpus.world);
    let mut visits: Vec<(bool, Vec<knowyourphish::web::VisitedPage>)> = Vec::new();
    for (_, urls, is_phish) in corpus.scrape_bundles() {
        let pages: Vec<_> = urls
            .iter()
            .filter_map(|u| scraper.scrape(u).ok().map(|s| s.visit))
            .collect();
        visits.push((is_phish, pages));
    }
    // Bundle order follows generation: 0 phish_train, 1 phish_test,
    // 2 leg_train, 3 leg_test. Training = leg_train then phish_train.
    let mut in_memory = Dataset::new(extractor.feature_count());
    for row in extractor.extract_batch(&visits[2].1) {
        in_memory.push_row(&row, false);
    }
    for row in extractor.extract_batch(&visits[0].1) {
        in_memory.push_row(&row, true);
    }
    // Test rows, as `kyp eval` scores them: leg_test, then phish_test.
    let mut test_rows = extractor.extract_batch(&visits[3].1);
    test_rows.extend(extractor.extract_batch(&visits[1].1));

    let mut baseline: Option<(String, Vec<u64>)> = None;
    for threads in THREAD_COUNTS {
        knowyourphish::exec::set_threads(threads);
        let from_store = storeflow::load_split_dataset(&dir, "leg_train", "phish_train").unwrap();
        assert_eq!(from_store.labels(), in_memory.labels());

        let stored_model = PhishDetector::train(&from_store, &DetectorConfig::default());
        let memory_model = PhishDetector::train(&in_memory, &DetectorConfig::default());
        let stored_json = serde_json::to_string(&stored_model).unwrap();
        let memory_json = serde_json::to_string(&memory_model).unwrap();
        assert!(
            stored_json == memory_json,
            "store-trained model diverges from in-memory at {threads} threads"
        );

        let (scores, labels) =
            storeflow::score_split_streaming(&dir, &stored_model, "leg_test", "phish_test")
                .unwrap();
        let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
        assert_eq!(labels.iter().filter(|l| **l).count(), visits[1].1.len());
        let memory_bits: Vec<u64> = memory_model
            .score_batch(&test_rows)
            .iter()
            .map(|s| s.to_bits())
            .collect();
        assert_eq!(
            bits, memory_bits,
            "store-streamed scores diverge from in-memory at {threads} threads"
        );
        match &baseline {
            None => baseline = Some((stored_json, bits)),
            Some((base_model, base_bits)) => {
                assert!(
                    *base_model == stored_json,
                    "model diverges at {threads} threads"
                );
                assert_eq!(*base_bits, bits, "scores diverge at {threads} threads");
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
    knowyourphish::exec::set_threads(0);
}

/// The store-backed verdict stream equals the in-memory classification
/// of the same scraped pages, at every thread count.
#[test]
fn store_verdict_stream_matches_in_memory_classification() {
    let config = small_config();
    let corpus = Corpus::generate(&config);
    let dir = fresh_dir("kyp_store_det_verdicts");
    build(&dir, &corpus, &config);

    knowyourphish::exec::set_threads(1);
    let extractor = FeatureExtractor::new(corpus.ranker.clone());
    let train = storeflow::load_split_dataset(&dir, "leg_train", "phish_train").unwrap();
    let detector = PhishDetector::train(&train, &DetectorConfig::default());
    let pipeline = Pipeline::new(
        extractor,
        detector,
        TargetIdentifier::new(Arc::new(corpus.engine.clone())),
    );

    // In-memory reference: classify the live scrape of the same bundles.
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

    for threads in THREAD_COUNTS {
        knowyourphish::exec::set_threads(threads);
        let from_store = storeflow::store_verdict_lines(&dir, &pipeline).unwrap();
        assert!(
            in_memory == from_store,
            "store verdict stream diverges from in-memory at {threads} threads"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
    knowyourphish::exec::set_threads(0);
}

/// A serving page source rebuilt from a store answers fetches exactly
/// like one built from the in-memory page list.
#[test]
fn serving_pages_from_store_match_in_memory_source() {
    let config = small_config();
    let corpus = Corpus::generate(&config);
    let dir = fresh_dir("kyp_store_det_serve");
    build(&dir, &corpus, &config);

    let mut scraper = ResilientBrowser::new(&corpus.world);
    let mut pages = Vec::new();
    let mut urls = Vec::new();
    for (_, bundle_urls, _) in corpus.scrape_bundles() {
        for url in &bundle_urls {
            if let Ok(scraped) = scraper.scrape(url) {
                pages.push(scraped.visit);
                urls.push(url.clone());
            }
        }
    }
    let mut in_memory = StoredPages::new(pages);
    let (mut via_flow, flow_urls) = storeflow::load_serving_pages(&dir).unwrap();
    assert_eq!(urls, flow_urls, "request pool order diverges");
    assert_eq!(in_memory.len(), via_flow.len());
    for url in &urls {
        let a = in_memory.fetch(url).unwrap();
        let b = via_flow.fetch(url).unwrap();
        let reference = serde_json::to_string(&a.visit).unwrap();
        assert_eq!(reference, serde_json::to_string(&b.visit).unwrap());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The index and ranking sidecars describe the clean web, however the
/// store was scraped: a clean build takes the index from its own
/// scrape, a build through a faulty web lands every legitimate page
/// again, and `write_corpus_sidecars` alone does the same. All three
/// write the same bytes.
#[test]
fn sidecars_do_not_depend_on_how_the_store_was_scraped() {
    let config = small_config();
    let corpus = Corpus::generate(&config);
    let clean = fresh_dir("kyp_store_det_sidecars_clean");
    build(&clean, &corpus, &config);
    let faulty = fresh_dir("kyp_store_det_sidecars_faulty");
    let flaky = FlakyWorld::new(&corpus.world, FaultPlan::new(config.seed, 0.3));
    storeflow::build_store(&faulty, &corpus, &config, &flaky, 0.3, config.seed).unwrap();
    let relanded = fresh_dir("kyp_store_det_sidecars_relanded");
    std::fs::create_dir_all(&relanded).unwrap();
    storeflow::write_corpus_sidecars(&relanded, &corpus).unwrap();

    for name in ["index.jsonl", "ranker.json"] {
        let want = std::fs::read(relanded.join(name)).unwrap();
        assert!(!want.is_empty(), "{name} is empty");
        for dir in [&clean, &faulty] {
            assert!(
                std::fs::read(dir.join(name)).unwrap() == want,
                "{} differs from the re-landed {name}",
                dir.join(name).display()
            );
        }
    }
    for dir in [clean, faulty, relanded] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}
