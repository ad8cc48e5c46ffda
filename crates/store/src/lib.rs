#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! Persistent columnar corpus and feature store for the Know Your Phish
//! reproduction — generate once, train forever.
//!
//! Every experiment used to regenerate the simulated web and re-extract
//! all 212 features in memory, capping corpus size at what fits in RAM.
//! This crate is the durable middle: `kyp gen --out <dir>` streams
//! scraped page bundles *and* their extracted feature matrices to disk,
//! and `kyp train/eval/scan --data <dir>` stream them back through the
//! flat inference hot path without re-scraping or re-extracting — the
//! generate-once/score-many shape of the paper's captured-corpus
//! evaluation (Section VI).
//!
//! A store directory holds two files sharing one framing
//! (see [`format`]):
//!
//! - `pages.kyps` — [`PageStoreWriter`]/[`PageStoreReader`]: columnar
//!   [`kyp_web::VisitedPage`] blocks;
//! - `features.kypf` — [`FeatureStoreWriter`]/[`FeatureStoreReader`]:
//!   labeled f64 feature rows grouped by bundle, stored as raw IEEE-754
//!   bits so loaded matrices are bit-identical to extracted ones.
//!
//! # Integrity contract
//!
//! Both files open with magic + [`STORE_FORMAT_VERSION`] + a typed
//! [`StoreHeader`] carrying the [`WorldStamp`] (seed and corpus
//! configuration) the content was generated from. Every structure is
//! checksummed ([`xxh64`], since format 2): a bit flip anywhere surfaces as
//! [`StoreError::Corrupt`], a torn tail as [`StoreError::Truncated`],
//! and a pages/features pairing from different worlds as
//! [`StoreError::StampMismatch`] — hard errors in the style of
//! `ModelSnapshot`, never a silently wrong corpus.
//!
//! # Determinism contract
//!
//! Writers serialize exactly what they are handed in input order, with
//! no clocks, no entropy and no map iteration, so the same world always
//! produces byte-identical store files — `cmp` across runs and thread
//! counts is part of CI.

pub mod features;
pub mod format;
pub mod inspect;
pub mod pages;

pub use features::{FeatureBlock, FeatureStoreReader, FeatureStoreWriter};
pub use format::{
    fnv1a64, xxh64, FrameReader, FrameWriter, StoreError, StoreHeader, StoreKind, WorldStamp,
    BLOCK_RECORDS, STORE_FORMAT_VERSION, STORE_MAGIC,
};
pub use inspect::{inspect_dir, inspect_file, DirInspection, FileInspection};
pub use pages::{PageBlock, PageStoreReader, PageStoreWriter};

use std::path::{Path, PathBuf};

/// File name of the page store inside a store directory.
pub const PAGES_FILE: &str = "pages.kyps";

/// File name of the feature store inside a store directory.
pub const FEATURES_FILE: &str = "features.kypf";

/// Path of the page store inside `dir`.
pub fn pages_path(dir: &Path) -> PathBuf {
    dir.join(PAGES_FILE)
}

/// Path of the feature store inside `dir`.
pub fn features_path(dir: &Path) -> PathBuf {
    dir.join(FEATURES_FILE)
}

/// Checks that a page header and a feature header describe the same
/// generated world: equal stamps and equal bundle lists.
///
/// # Errors
///
/// [`StoreError::StampMismatch`] naming the disagreeing part.
pub fn validate_pair(pages: &StoreHeader, features: &StoreHeader) -> Result<(), StoreError> {
    if pages.stamp != features.stamp {
        return Err(StoreError::StampMismatch {
            detail: format!(
                "pages were generated from {:?} but features from {:?}",
                pages.stamp, features.stamp
            ),
        });
    }
    if pages.bundles != features.bundles {
        return Err(StoreError::StampMismatch {
            detail: format!(
                "pages hold bundles {:?} but features hold {:?}",
                pages.bundles, features.bundles
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(kind: StoreKind, seed: u64) -> StoreHeader {
        StoreHeader {
            kind,
            stamp: WorldStamp {
                seed,
                phish_train: 1,
                phish_test: 1,
                phish_brand: 1,
                leg_train: 1,
                english_test: 1,
                other_language_test: 1,
                fault_rate: 0.0,
                fault_seed: 0,
            },
            n_features: 0,
            bundles: vec!["a".into()],
            block_records: BLOCK_RECORDS as u32,
        }
    }

    #[test]
    fn pair_validation() {
        let p = header(StoreKind::Pages, 1);
        let f = header(StoreKind::Features, 1);
        assert!(validate_pair(&p, &f).is_ok());
        let other = header(StoreKind::Features, 2);
        assert!(matches!(
            validate_pair(&p, &other),
            Err(StoreError::StampMismatch { .. })
        ));
        let mut renamed = header(StoreKind::Features, 1);
        renamed.bundles = vec!["b".into()];
        assert!(matches!(
            validate_pair(&p, &renamed),
            Err(StoreError::StampMismatch { .. })
        ));
    }

    #[test]
    fn paths_join() {
        let dir = Path::new("/tmp/store");
        assert!(pages_path(dir).ends_with(PAGES_FILE));
        assert!(features_path(dir).ends_with(FEATURES_FILE));
    }
}
