//! Corruption robustness over *real* store files written by the real
//! generation pipeline: every bit-flip and truncation must surface as a
//! typed [`StoreError`] (or, for truncation exactly on a block
//! boundary, a silently shorter read — torn tail writes are
//! indistinguishable from a shorter run by design). Nothing panics.

use knowyourphish::datagen::{CampaignConfig, Corpus};
use knowyourphish::store::{
    features_path, pages_path, FeatureStoreReader, PageStoreReader, StoreError,
    STORE_FORMAT_VERSION,
};
use knowyourphish::storeflow;
use std::path::{Path, PathBuf};

fn tiny_config() -> CampaignConfig {
    CampaignConfig {
        seed: 41,
        phish_train: 10,
        phish_test: 6,
        phish_brand: 5,
        leg_train: 30,
        english_test: 20,
        other_language_test: 5,
    }
}

/// Builds a real store under a fresh temp dir and returns it.
fn real_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let config = tiny_config();
    let corpus = Corpus::generate(&config);
    storeflow::build_store(&dir, &corpus, &config, &corpus.world, 0.0, config.seed).unwrap();
    dir
}

fn read_all_pages(path: &Path) -> Result<Vec<knowyourphish::web::VisitedPage>, StoreError> {
    PageStoreReader::open(path)?.read_all()
}

/// Walks every block as a checked view, building no page.
fn drain_views(path: &Path) -> Result<usize, StoreError> {
    let mut reader = PageStoreReader::open(path)?;
    let mut rows = 0;
    while let Some(view) = reader.next_view()? {
        rows += view.len();
    }
    Ok(rows)
}

fn drain_features(path: &Path) -> Result<usize, StoreError> {
    let mut reader = FeatureStoreReader::open(path)?;
    let mut rows = 0;
    while let Some(block) = reader.next_block()? {
        rows += block.labels.len();
    }
    Ok(rows)
}

#[test]
fn bad_magic_is_a_typed_error() {
    let dir = real_store("kyp_store_corrupt_magic");
    let path = pages_path(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    match read_all_pages(&path) {
        Err(StoreError::BadMagic { .. }) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn future_format_version_is_refused() {
    let dir = real_store("kyp_store_corrupt_version");
    let path = features_path(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&(STORE_FORMAT_VERSION + 1).to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    match drain_features(&path) {
        Err(StoreError::VersionMismatch { found, expected }) => {
            assert_eq!(found, STORE_FORMAT_VERSION + 1);
            assert_eq!(expected, STORE_FORMAT_VERSION);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn opening_a_features_file_as_pages_is_a_kind_mismatch() {
    let dir = real_store("kyp_store_corrupt_kind");
    match read_all_pages(&features_path(&dir)) {
        Err(StoreError::KindMismatch { .. }) => {}
        other => panic!("expected KindMismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Flipping any single byte of either file is detected: the header is
/// checksummed, every block payload is checksummed, and the framing
/// fields are validated during decode. Sweep flips across the whole
/// file at regular intervals.
#[test]
fn every_sampled_bit_flip_is_detected() {
    let dir = real_store("kyp_store_corrupt_flip");
    for (path, is_pages) in [(pages_path(&dir), true), (features_path(&dir), false)] {
        let original = std::fs::read(&path).unwrap();
        let len = original.len();
        let mut positions: Vec<usize> = (0..40).map(|i| i * len / 40).collect();
        positions.push(len - 1);
        positions.dedup();
        for pos in positions {
            let mut bytes = original.clone();
            bytes[pos] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            let outcome = if is_pages {
                read_all_pages(&path).map(|pages| pages.len())
            } else {
                drain_features(&path)
            };
            assert!(
                outcome.is_err(),
                "bit flip at byte {pos}/{len} of {} went undetected",
                path.display()
            );
            if is_pages {
                assert!(
                    drain_views(&path).is_err(),
                    "bit flip at byte {pos}/{len} of {} went undetected by next_view",
                    path.display()
                );
            }
        }
        std::fs::write(&path, &original).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Truncating the file anywhere is either a typed error or — exactly on
/// a block boundary — a clean, shorter read. Never a panic, never a
/// full-length result.
#[test]
fn every_sampled_truncation_is_detected_or_cleanly_shorter() {
    let dir = real_store("kyp_store_corrupt_trunc");
    let path = pages_path(&dir);
    let original = std::fs::read(&path).unwrap();
    let full = read_all_pages(&path).unwrap().len();
    let len = original.len();
    let mut cuts: Vec<usize> = (1..30).map(|i| i * len / 30).collect();
    cuts.extend([4, 11, len - 9, len - 1]);
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts {
        std::fs::write(&path, &original[..cut]).unwrap();
        match read_all_pages(&path) {
            Err(_) => {}
            Ok(pages) => assert!(
                pages.len() < full,
                "truncation to {cut}/{len} bytes still read all {full} pages"
            ),
        }
    }
    // Cutting inside the tail checksum is specifically Truncated.
    std::fs::write(&path, &original[..len - 3]).unwrap();
    match read_all_pages(&path) {
        Err(StoreError::Truncated { .. }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
    std::fs::write(&path, &original).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `store inspect` reports post-header damage instead of erroring out,
/// and flags the directory as not clean.
#[test]
fn inspect_surfaces_damage_without_failing() {
    let dir = real_store("kyp_store_corrupt_inspect");
    let clean = knowyourphish::store::inspect_dir(&dir).unwrap();
    assert!(clean.is_clean());
    assert!(clean.render().contains("status: clean"));

    let path = features_path(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    let damaged = knowyourphish::store::inspect_dir(&dir).unwrap();
    assert!(!damaged.is_clean());
    assert!(
        damaged.features.damage.is_some(),
        "inspection must capture the damaged block"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
