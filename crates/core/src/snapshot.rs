//! The persisted model artifact shared by every entry point.
//!
//! Training (`kyp train`), evaluation (`kyp eval`), single-page scanning
//! (`kyp scan`) and the online scoring service (`kyp serve`) all exchange
//! the same self-contained json bundle: the trained detector plus the
//! domain ranking it was fitted against. [`ModelSnapshot`] is that bundle,
//! stamped with an explicit format version so a service never silently
//! loads a model written by an incompatible build.
//!
//! # Examples
//!
//! ```
//! use kyp_core::{DetectorConfig, ModelSnapshot, PhishDetector};
//! use kyp_ml::Dataset;
//! use kyp_web::DomainRanker;
//!
//! let mut train = Dataset::new(2);
//! for i in 0..200 {
//!     let v = f64::from(i % 2);
//!     train.push_row(&[v, 1.0 - v], v > 0.5);
//! }
//! let detector = PhishDetector::train(&train, &DetectorConfig::default());
//! let snapshot = ModelSnapshot::new(detector, DomainRanker::default());
//!
//! let json = snapshot.to_json().unwrap();
//! let back = ModelSnapshot::from_json(&json).unwrap();
//! assert_eq!(back.format_version, kyp_core::MODEL_SNAPSHOT_VERSION);
//! ```

use crate::cascade::URL_FEATURE_COUNT;
use crate::features::FEATURE_COUNT;
use crate::PhishDetector;
use kyp_web::DomainRanker;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// The snapshot format this build writes and accepts.
///
/// Bump on any change to the serialized shape of [`ModelSnapshot`] (or of
/// the detector/ranker inside it) that older readers would misinterpret.
pub const MODEL_SNAPSHOT_VERSION: u32 = 1;

/// Stage tag of a cascade URL-only model (`stage: "url"`).
pub const STAGE_URL: &str = "url";

/// Stage tag of a full 212-feature pipeline model. Full-stage snapshots
/// omit the field entirely, so artifacts written before the cascade
/// existed keep their exact bytes and parse as full-stage.
pub const STAGE_FULL: &str = "full";

/// A versioned, self-contained trained-model bundle: everything `eval`,
/// `scan` and `serve` need to score pages offline.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    /// Format version stamp; see [`MODEL_SNAPSHOT_VERSION`].
    pub format_version: u32,
    /// The trained detection classifier.
    pub detector: PhishDetector,
    /// The domain-popularity ranking the features were computed against.
    pub ranker: DomainRanker,
    /// Which cascade stage the model scores: `Some("url")` for the
    /// URL-only pre-filter, `None` for the full pipeline. Absent from the
    /// json of full-stage snapshots, keeping pre-cascade artifacts
    /// byte-identical.
    pub stage: Option<String>,
}

// Hand-written (de)serialization: the stage field must be *absent* — not
// null — from full-stage json so pre-cascade snapshots keep their exact
// bytes, and absent-means-full on the way back in.
impl Serialize for ModelSnapshot {
    fn to_json_value(&self) -> serde::Value {
        let mut fields = vec![
            (
                "format_version".to_owned(),
                self.format_version.to_json_value(),
            ),
            ("detector".to_owned(), self.detector.to_json_value()),
            ("ranker".to_owned(), self.ranker.to_json_value()),
        ];
        if let Some(stage) = &self.stage {
            fields.push(("stage".to_owned(), serde::Value::String(stage.clone())));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for ModelSnapshot {
    fn from_json_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let fields = value
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for struct ModelSnapshot"))?;
        let field = |name: &str| serde::obj_get(fields, name);
        Ok(ModelSnapshot {
            format_version: Deserialize::from_json_value(field("format_version"))
                .map_err(|e| serde::Error::custom(format!("ModelSnapshot.format_version: {e}")))?,
            detector: Deserialize::from_json_value(field("detector"))
                .map_err(|e| serde::Error::custom(format!("ModelSnapshot.detector: {e}")))?,
            ranker: Deserialize::from_json_value(field("ranker"))
                .map_err(|e| serde::Error::custom(format!("ModelSnapshot.ranker: {e}")))?,
            stage: Deserialize::from_json_value(field("stage"))
                .map_err(|e| serde::Error::custom(format!("ModelSnapshot.stage: {e}")))?,
        })
    }
}

/// Why a snapshot could not be loaded.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The content is not a parseable snapshot.
    Malformed(String),
    /// The content carries no `format_version` stamp — most likely a
    /// bundle written before snapshots were versioned.
    MissingVersion,
    /// The content was written by an incompatible format version.
    VersionMismatch {
        /// The version found in the file.
        found: u64,
        /// The version this build supports.
        expected: u32,
    },
    /// The snapshot scores a different cascade stage than the seam that
    /// loaded it expects — e.g. a 17-feature URL model handed to the
    /// 212-feature pipeline, or vice versa.
    StageMismatch {
        /// The stage tag found in the file (`"full"` when untagged).
        found: String,
        /// The stage the loading seam requires.
        expected: String,
    },
    /// The model scores rows of another width than its stage's rows —
    /// a split on a feature past the row's end would index out of it.
    WidthMismatch {
        /// The stage both the seam and the snapshot name.
        stage: String,
        /// The model's `n_features`.
        found: usize,
        /// The width of that stage's feature rows.
        expected: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Malformed(e) => write!(f, "malformed model snapshot: {e}"),
            SnapshotError::MissingVersion => write!(
                f,
                "model snapshot has no format_version field \
                 (pre-versioned bundle? re-run `kyp train` to regenerate it)"
            ),
            SnapshotError::VersionMismatch { found, expected } => write!(
                f,
                "model snapshot format version {found} is not supported \
                 (this build reads version {expected}; re-run `kyp train` \
                 with a matching build)"
            ),
            SnapshotError::StageMismatch { found, expected } => write!(
                f,
                "model snapshot scores the {found:?} cascade stage, but this \
                 seam needs a {expected:?}-stage model (train one with \
                 `kyp cascade-train` for \"url\", `kyp train` for \"full\")"
            ),
            SnapshotError::WidthMismatch {
                stage,
                found,
                expected,
            } => write!(
                f,
                "model snapshot scores {found} features, but {stage:?}-stage \
                 rows have {expected}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl ModelSnapshot {
    /// Bundles a trained detector and its ranking at the current format
    /// version.
    pub fn new(detector: PhishDetector, ranker: DomainRanker) -> Self {
        ModelSnapshot {
            format_version: MODEL_SNAPSHOT_VERSION,
            detector,
            ranker,
            stage: None,
        }
    }

    /// Bundles a URL-stage (cascade pre-filter) model, tagged
    /// `stage: "url"` so full-pipeline seams reject it at load time.
    pub fn new_url_stage(detector: PhishDetector, ranker: DomainRanker) -> Self {
        ModelSnapshot {
            format_version: MODEL_SNAPSHOT_VERSION,
            detector,
            ranker,
            stage: Some(STAGE_URL.to_owned()),
        }
    }

    /// The cascade stage this snapshot scores; untagged snapshots are
    /// full-stage.
    pub fn stage(&self) -> &str {
        self.stage.as_deref().unwrap_or(STAGE_FULL)
    }

    /// Verifies the snapshot scores the stage a loading seam expects
    /// ([`STAGE_URL`] or [`STAGE_FULL`]), over rows of that stage's
    /// width: [`URL_FEATURE_COUNT`] or [`FEATURE_COUNT`] features.
    /// `from_json` checks every split against the model's own
    /// `n_features`; this check ties that to the rows the seam scores.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::StageMismatch`] when the stage differs, and
    /// [`SnapshotError::WidthMismatch`] when the width does.
    pub fn require_stage(&self, expected: &str) -> Result<(), SnapshotError> {
        if self.stage() != expected {
            return Err(SnapshotError::StageMismatch {
                found: self.stage().to_owned(),
                expected: expected.to_owned(),
            });
        }
        let width = if expected == STAGE_URL {
            URL_FEATURE_COUNT
        } else {
            FEATURE_COUNT
        };
        let found = self.detector.model().n_features();
        if found != width {
            return Err(SnapshotError::WidthMismatch {
                stage: expected.to_owned(),
                found,
                expected: width,
            });
        }
        Ok(())
    }

    /// Serializes the snapshot to its json interchange form.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Malformed`] when serialization fails
    /// (practically unreachable for a well-formed snapshot).
    pub fn to_json(&self) -> Result<String, SnapshotError> {
        serde_json::to_string(self).map_err(|e| SnapshotError::Malformed(e.to_string()))
    }

    /// Parses a snapshot, verifying the format version *before* touching
    /// the payload.
    ///
    /// # Errors
    ///
    /// - [`SnapshotError::Malformed`] when the text is not a json object
    ///   or the payload does not deserialize;
    /// - [`SnapshotError::MissingVersion`] when there is no
    ///   `format_version` stamp;
    /// - [`SnapshotError::VersionMismatch`] when the stamp differs from
    ///   [`MODEL_SNAPSHOT_VERSION`].
    pub fn from_json(json: &str) -> Result<Self, SnapshotError> {
        let value: serde_json::Value =
            serde_json::from_str(json).map_err(|e| SnapshotError::Malformed(e.to_string()))?;
        let Some(version) = value.get("format_version") else {
            return Err(SnapshotError::MissingVersion);
        };
        let Some(found) = version.as_u64() else {
            return Err(SnapshotError::Malformed(format!(
                "format_version is not an integer: {version:?}"
            )));
        };
        if found != u64::from(MODEL_SNAPSHOT_VERSION) {
            return Err(SnapshotError::VersionMismatch {
                found,
                expected: MODEL_SNAPSHOT_VERSION,
            });
        }
        let snapshot: Self =
            serde_json::from_value(value).map_err(|e| SnapshotError::Malformed(e.to_string()))?;
        // The ensemble's tree walks index nodes unchecked; a tampered or
        // corrupted artifact must be rejected here, not panic mid-score.
        snapshot
            .detector
            .validate()
            .map_err(SnapshotError::Malformed)?;
        // Compile the flat inference tables eagerly: every consumer of a
        // loaded snapshot (eval, scan, serve, cluster) is about to score
        // with it, and the first request should not pay the compilation.
        snapshot.detector.warm();
        Ok(snapshot)
    }

    /// Writes the snapshot to `path` as json.
    ///
    /// # Errors
    ///
    /// Propagates serialization and filesystem failures.
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        std::fs::write(path, self.to_json()?)?;
        Ok(())
    }

    /// Reads and validates a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures and every [`Self::from_json`]
    /// error.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetectorConfig;
    use kyp_ml::Dataset;

    fn snapshot() -> ModelSnapshot {
        snapshot_of_width(2)
    }

    /// A row of `width` features alternating `v` and `1 - v`.
    fn row(v: f64, width: usize) -> Vec<f64> {
        (0..width)
            .map(|i| if i % 2 == 0 { v } else { 1.0 - v })
            .collect()
    }

    /// A full-stage snapshot trained on rows of `width` features.
    fn snapshot_of_width(width: usize) -> ModelSnapshot {
        let mut train = Dataset::new(width);
        for i in 0..120 {
            let v = f64::from(i % 2);
            train.push_row(&row(v, width), v > 0.5);
        }
        let detector = PhishDetector::train(&train, &DetectorConfig::default());
        ModelSnapshot::new(detector, DomainRanker::from_ranked(["example.com"]))
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let snap = snapshot();
        let json = snap.to_json().unwrap();
        let back = ModelSnapshot::from_json(&json).unwrap();
        assert_eq!(back.format_version, MODEL_SNAPSHOT_VERSION);
        for row in [[1.0, 0.0], [0.0, 1.0], [0.3, 0.7]] {
            assert_eq!(
                snap.detector.score(&row).to_bits(),
                back.detector.score(&row).to_bits(),
                "scores must be bit-identical after a round trip"
            );
        }
    }

    #[test]
    fn roundtrip_then_compile_matches_original_flat_walk() {
        // The serialized form carries only the boxed ensemble; a loaded
        // snapshot recompiles its flat tables, and the recompiled walk
        // must be bit-identical to the original detector's — both the
        // flat path and the boxed reference path.
        let snap = snapshot();
        let back = ModelSnapshot::from_json(&snap.to_json().unwrap()).unwrap();
        let probes = [[1.0, 0.0], [0.0, 1.0], [0.3, 0.7], [2.5, -1.5]];
        for p in &probes {
            assert_eq!(
                snap.detector.score(p).to_bits(),
                back.detector.score(p).to_bits()
            );
            assert_eq!(
                back.detector.score(p).to_bits(),
                back.detector.model().predict_proba(p).to_bits()
            );
        }
        let batch = back.detector.score_batch(&probes);
        for (p, got) in probes.iter().zip(&batch) {
            assert_eq!(got.to_bits(), snap.detector.score(p).to_bits());
        }
    }

    #[test]
    fn missing_version_is_an_explicit_error() {
        // A pre-versioned bundle: detector + ranker, no stamp.
        let err = ModelSnapshot::from_json(r#"{"detector": {}, "ranker": {}}"#).unwrap_err();
        assert!(matches!(err, SnapshotError::MissingVersion), "{err}");
        assert!(err.to_string().contains("format_version"));
    }

    #[test]
    fn version_mismatch_is_an_explicit_error() {
        let snap = snapshot();
        let json =
            snap.to_json()
                .unwrap()
                .replacen("\"format_version\":1", "\"format_version\":999", 1);
        match ModelSnapshot::from_json(&json) {
            Err(SnapshotError::VersionMismatch { found, expected }) => {
                assert_eq!(found, 999);
                assert_eq!(expected, MODEL_SNAPSHOT_VERSION);
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    /// A snapshot whose tree child indices point out of range must be
    /// rejected at load time — before it can drive the unchecked
    /// inference walks out of bounds (regression test for the
    /// kyp-lint P02 finding on `FlatModel::compile_node`).
    #[test]
    fn out_of_range_tree_reference_is_malformed_not_a_panic() {
        let json = snapshot().to_json().unwrap();
        // Redirect the first split's `left` child far out of range, same
        // string-surgery style as the version-mismatch test above.
        let pos = json
            .find("\"left\":")
            .expect("fixture snapshot holds no split node to corrupt")
            + "\"left\":".len();
        let end = pos
            + json[pos..]
                .find(|c: char| !c.is_ascii_digit())
                .expect("unterminated left index");
        let tampered = format!("{}9999999{}", &json[..pos], &json[end..]);
        let err = ModelSnapshot::from_json(&tampered).unwrap_err();
        match err {
            SnapshotError::Malformed(detail) => {
                assert!(detail.contains("out of range"), "{detail}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn untagged_snapshots_are_full_stage_and_keep_their_bytes() {
        let snap = snapshot_of_width(FEATURE_COUNT);
        assert_eq!(snap.stage(), STAGE_FULL);
        assert!(snap.require_stage(STAGE_FULL).is_ok());
        let json = snap.to_json().unwrap();
        assert!(
            !json.contains("\"stage\""),
            "full-stage snapshots must serialize without a stage field"
        );
        let back = ModelSnapshot::from_json(&json).unwrap();
        assert_eq!(back.stage(), STAGE_FULL);
    }

    #[test]
    fn url_stage_tag_round_trips_with_identical_scores() {
        let base = snapshot_of_width(URL_FEATURE_COUNT);
        let snap = ModelSnapshot::new_url_stage(base.detector.clone(), base.ranker.clone());
        assert_eq!(snap.stage(), STAGE_URL);
        let json = snap.to_json().unwrap();
        assert!(json.contains("\"stage\":\"url\""), "{json}");
        let back = ModelSnapshot::from_json(&json).unwrap();
        assert_eq!(back.stage(), STAGE_URL);
        assert!(back.require_stage(STAGE_URL).is_ok());
        for v in [1.0, 0.0, 0.3] {
            let row = row(v, URL_FEATURE_COUNT);
            assert_eq!(
                snap.detector.score(&row).to_bits(),
                back.detector.score(&row).to_bits()
            );
        }
    }

    #[test]
    fn a_model_of_another_width_than_its_stage_is_refused() {
        let narrow = snapshot();
        let url = ModelSnapshot::new_url_stage(narrow.detector.clone(), narrow.ranker.clone());
        for (snap, stage, expected) in [
            (&narrow, STAGE_FULL, FEATURE_COUNT),
            (&url, STAGE_URL, URL_FEATURE_COUNT),
        ] {
            match snap.require_stage(stage) {
                Err(SnapshotError::WidthMismatch {
                    stage: named,
                    found,
                    expected: width,
                }) => {
                    assert_eq!((named.as_str(), found, width), (stage, 2, expected));
                }
                other => panic!("expected a width mismatch, got {other:?}"),
            }
        }
        let err = narrow.require_stage(STAGE_FULL).unwrap_err().to_string();
        assert_eq!(
            err,
            "model snapshot scores 2 features, but \"full\"-stage rows have 212"
        );
    }

    #[test]
    fn stage_mismatch_is_an_explicit_error() {
        let full = snapshot();
        let err = full.require_stage(STAGE_URL).unwrap_err();
        match err {
            SnapshotError::StageMismatch { found, expected } => {
                assert_eq!(found, STAGE_FULL);
                assert_eq!(expected, STAGE_URL);
            }
            other => panic!("expected stage mismatch, got {other:?}"),
        }
        let url = ModelSnapshot::new_url_stage(full.detector.clone(), full.ranker.clone());
        assert!(matches!(
            url.require_stage(STAGE_FULL),
            Err(SnapshotError::StageMismatch { .. })
        ));
        assert!(url
            .require_stage(STAGE_FULL)
            .unwrap_err()
            .to_string()
            .contains("cascade-train"));
    }

    #[test]
    fn garbage_is_malformed() {
        assert!(matches!(
            ModelSnapshot::from_json("{not json"),
            Err(SnapshotError::Malformed(_))
        ));
        assert!(matches!(
            ModelSnapshot::from_json(r#"{"format_version": "one"}"#),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join("kyp_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        let snap = snapshot();
        snap.save(&path).unwrap();
        let back = ModelSnapshot::load(&path).unwrap();
        assert_eq!(
            snap.detector.score(&[1.0, 0.0]).to_bits(),
            back.detector.score(&[1.0, 0.0]).to_bits()
        );
        let _ = std::fs::remove_file(&path);
    }
}
