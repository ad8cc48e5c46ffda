//! The cascade store scan reads each block as a checked view and builds
//! only the pages the URL stage does not finalise. Its lines, counters
//! and errors must still be the ones the pieces give on their own: the
//! URL-stage line of `prescreen` for a final row, the cascade-free
//! scan's line for every other row, and `next_block`'s error for a
//! block that does not decode, even when the bad field sits in a row
//! that is never built.

use knowyourphish::core::{
    cascade::train_url_stage, CascadeBand, CascadeClassifier, CascadeCounters, CascadeDecision,
    ClassifiedPage, DetectorConfig, ModelSnapshot, PhishDetector, Pipeline,
};
use knowyourphish::datagen::{CampaignConfig, Corpus};
use knowyourphish::store::{fnv1a64, pages_path, PageStoreReader, StoreError};
use knowyourphish::storeflow;
use std::path::{Path, PathBuf};

/// Builds a real store under a fresh temp dir.
fn real_store(name: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let config = CampaignConfig {
        seed,
        phish_train: 30,
        phish_test: 20,
        phish_brand: 8,
        leg_train: 100,
        english_test: 60,
        other_language_test: 10,
    };
    let corpus = Corpus::generate(&config);
    storeflow::build_store(&dir, &corpus, &config, &corpus.world, 0.0, seed).unwrap();
    dir
}

/// The two stages `kyp train` and `kyp cascade-train` fit from a store,
/// the URL stage at the default band.
fn models(dir: &Path) -> (Pipeline, CascadeClassifier) {
    let ranker = storeflow::load_ranker(dir).unwrap();
    let train = storeflow::load_split_dataset(dir, "leg_train", "phish_train").unwrap();
    let detector = PhishDetector::train(&train, &DetectorConfig::default());
    let pipeline =
        storeflow::load_pipeline(dir, ModelSnapshot::new(detector, ranker.clone())).unwrap();
    let (legit, phish) = storeflow::load_split_urls(dir, "leg_train", "phish_train").unwrap();
    let url_stage = train_url_stage(&legit, &phish, &ranker, &DetectorConfig::url_stage()).unwrap();
    let cascade = CascadeClassifier::new(url_stage, ranker, CascadeBand::default());
    (pipeline, cascade)
}

#[test]
fn cascade_lines_are_prescreen_lines_or_full_scan_lines() {
    let dir = real_store("kyp_store_cascade_lines", 77);
    knowyourphish::exec::set_threads(1);
    let (pipeline, cascade) = models(&dir);
    let plain = storeflow::store_verdict_lines(&dir, &pipeline).unwrap();
    let (lines, counters) =
        storeflow::store_verdict_lines_cascade(&dir, &pipeline, &cascade).unwrap();
    assert_eq!(lines.len(), plain.len());

    let mut expected_counters = CascadeCounters::default();
    for (line, full) in lines.iter().zip(&plain) {
        let url = full.split('\t').next().unwrap_or_default();
        let decision = cascade.prescreen(url);
        expected_counters.record(&decision);
        let expected = match decision {
            CascadeDecision::Final(v) => {
                let page = ClassifiedPage {
                    url: url.to_owned(),
                    verdict: v.verdict,
                    degraded: false,
                };
                storeflow::verdict_line(&page) + " stage=url_only"
            }
            CascadeDecision::Uncertain { .. } | CascadeDecision::Unscorable => full.clone(),
        };
        assert_eq!(line, &expected);
    }
    assert_eq!(counters, expected_counters);
    assert_eq!(counters.screened, plain.len() as u64);
    assert!(
        counters.url_only > 0 && counters.fallthrough > 0,
        "both stages must run: {counters:?}"
    );
    knowyourphish::exec::set_threads(0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `(payload start, payload end)` of every block of a page store file.
fn block_payloads(bytes: &[u8]) -> Vec<(usize, usize)> {
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let mut at = 16 + word(12) + 8;
    let mut blocks = Vec::new();
    while at < bytes.len() {
        let start = at + 8;
        let end = start + word(at);
        blocks.push((start, end));
        at = end + 8;
    }
    blocks
}

/// The first error `next_block` meets draining the store at `path`.
fn next_block_error(path: &Path) -> StoreError {
    let mut reader = PageStoreReader::open(path).unwrap();
    loop {
        match reader.next_block() {
            Ok(Some(_)) => {}
            Ok(None) => panic!("the store decoded without error"),
            Err(e) => return e,
        }
    }
}

#[test]
fn an_unparseable_href_in_a_url_final_row_fails_the_cascade_scan() {
    let dir = real_store("kyp_store_cascade_bad_href", 78);
    let (pipeline, cascade) = models(&dir);
    let path = pages_path(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let blocks = block_payloads(&bytes);

    // A row the URL stage finalises, with an absolute href whose text
    // appears exactly once in its block, so only the href column holds it.
    let mut reader = PageStoreReader::open(&path).unwrap();
    let mut target = None;
    'blocks: for &(start, end) in &blocks {
        let pages = reader.next_block().unwrap().unwrap();
        let payload = &bytes[start..end];
        for page in &pages {
            if !matches!(
                cascade.prescreen_url(&page.starting_url),
                CascadeDecision::Final(_)
            ) {
                continue;
            }
            for href in &page.href_links {
                let Some(scheme_len) = href.as_str().find("://") else {
                    continue;
                };
                let text = href.as_str().as_bytes();
                let mut hits = payload.windows(text.len()).enumerate();
                let Some((at, _)) = hits.find(|(_, w)| *w == text) else {
                    continue;
                };
                if hits.any(|(_, w)| w == text) {
                    continue;
                }
                target = Some((start, end, start + at + scheme_len + 3));
                break 'blocks;
            }
        }
    }
    let (start, end, host) = target.expect("a URL-final row with a unique absolute href");

    // A leading dot makes the host's first label empty; the block
    // checksum is rewritten, so only the column walk can notice.
    bytes[host] = b'.';
    let sum = fnv1a64(&bytes[start..end]).to_le_bytes();
    bytes[end..end + 8].copy_from_slice(&sum);
    std::fs::write(&path, &bytes).unwrap();

    let expected = next_block_error(&path);
    assert!(
        matches!(&expected, StoreError::Corrupt { detail, .. }
            if detail.starts_with("href_links ") && detail.ends_with("does not parse: EmptyLabel")),
        "{expected}"
    );
    let err = storeflow::store_verdict_lines_cascade(&dir, &pipeline, &cascade).unwrap_err();
    assert_eq!(err, format!("read page store: {expected}"));
    std::fs::remove_dir_all(&dir).unwrap();
}
