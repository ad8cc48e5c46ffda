//! The phishing detection classifier (Section IV-C): Gradient Boosting
//! over the 212-feature vector, with the paper's discrimination threshold
//! of 0.7 favouring the legitimate class.

use kyp_ml::{Dataset, FlatModel, GbmParams, GradientBoosting};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Configuration of [`PhishDetector`].
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Gradient boosting hyper-parameters.
    pub gbm: GbmParams,
    /// Discrimination threshold: confidences in `[threshold, 1]` predict
    /// phishing (the paper sets 0.7).
    pub threshold: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            gbm: GbmParams::default(),
            threshold: 0.7,
        }
    }
}

/// A trained phishing detector.
///
/// # Examples
///
/// ```
/// use kyp_core::{DetectorConfig, PhishDetector};
/// use kyp_ml::Dataset;
///
/// let mut train = Dataset::new(2);
/// for i in 0..300 {
///     let v = f64::from(i % 3 == 0);
///     train.push_row(&[v, 1.0 - v], v > 0.5);
/// }
/// let detector = PhishDetector::train(&train, &DetectorConfig::default());
/// assert!(detector.is_phish(&[1.0, 0.0]));
/// assert!(!detector.is_phish(&[0.0, 1.0]));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhishDetector {
    model: GradientBoosting,
    threshold: f64,
    /// Flat inference tables compiled lazily from `model`; never
    /// serialized (the boxed ensemble is the interchange form) and
    /// bit-identical to it, so cloning or round-tripping a detector
    /// only resets this cache.
    #[serde(skip)]
    compiled: OnceLock<FlatModel>,
}

impl PhishDetector {
    /// Trains a detector on a labeled feature dataset (`true` = phishing).
    ///
    /// # Panics
    ///
    /// Panics when the dataset is empty or single-class (see
    /// [`GradientBoosting::fit`]).
    pub fn train(data: &Dataset, config: &DetectorConfig) -> Self {
        PhishDetector {
            model: GradientBoosting::fit(data, &config.gbm),
            threshold: config.threshold,
            compiled: OnceLock::new(),
        }
    }

    /// The compiled flat-inference twin of the model, built on first use.
    fn flat(&self) -> &FlatModel {
        self.compiled.get_or_init(|| self.model.compile())
    }

    /// Eagerly compiles the flat inference tables (normally built lazily
    /// on the first score). Call after loading a snapshot so the first
    /// request does not pay the compilation cost.
    pub fn warm(&self) {
        let _ = self.flat();
    }

    /// The phishing confidence of a feature vector, in `[0, 1]`.
    ///
    /// Scored through the compiled [`FlatModel`]; bit-identical to the
    /// boxed ensemble walk of [`Self::model`].
    pub fn score(&self, features: &[f64]) -> f64 {
        self.flat().predict_proba(features)
    }

    /// Confidence scores for a batch of feature vectors, walked
    /// batch-major through the compiled model. Element `i` is
    /// bit-identical to `score(&rows[i])`.
    pub fn score_batch<R: AsRef<[f64]>>(&self, rows: &[R]) -> Vec<f64> {
        self.flat().predict_batch(rows)
    }

    /// Class prediction at the configured threshold.
    pub fn is_phish(&self, features: &[f64]) -> bool {
        self.score(features) >= self.threshold
    }

    /// Confidence scores for every row of a dataset.
    pub fn score_dataset(&self, data: &Dataset) -> Vec<f64> {
        self.model.predict_dataset(data)
    }

    /// The discrimination threshold in use.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Overrides the discrimination threshold (used for ROC sweeps).
    pub fn set_threshold(&mut self, threshold: f64) {
        self.threshold = threshold;
    }

    /// Structural validation of the wrapped ensemble; see
    /// [`GradientBoosting::validate`]. Called on snapshot load, before
    /// the unchecked inference walks ever see the model.
    ///
    /// # Errors
    ///
    /// Describes the first malformed tree.
    pub fn validate(&self) -> Result<(), String> {
        self.model.validate()
    }

    /// The underlying boosting model (feature importances, tree count).
    pub fn model(&self) -> &GradientBoosting {
        &self.model
    }

    /// Calibrates the discrimination threshold on held-out data: picks the
    /// lowest threshold whose false-positive rate stays within `max_fpr`
    /// (maximising recall at the allowed FP budget), sets it, and returns
    /// it. This is the operational tuning the paper performs with its ROC
    /// analysis before settling on 0.7.
    ///
    /// # Panics
    ///
    /// Panics when `validation` is empty.
    pub fn calibrate_threshold(&mut self, validation: &Dataset, max_fpr: f64) -> f64 {
        assert!(!validation.is_empty(), "validation set must not be empty");
        let scores = self.score_dataset(validation);
        let labels = validation.labels();
        // Candidate thresholds: every distinct legitimate score (the FPR
        // only changes there), descending, plus 1.0.
        let mut candidates: Vec<f64> = scores
            .iter()
            .zip(labels)
            .filter(|(_, &y)| !y)
            .map(|(s, _)| *s)
            .collect();
        candidates.push(1.0);
        candidates.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        candidates.dedup();

        let mut best = 1.0;
        for t in candidates {
            let c = kyp_ml::metrics::Confusion::at_threshold(&scores, labels, t);
            if c.fpr() <= max_fpr {
                best = t;
            } else {
                break;
            }
        }
        self.threshold = best;
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_train() -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..400 {
            let phishy = i % 2 == 0;
            let x = if phishy { 0.9 } else { 0.1 };
            d.push_row(&[x, f64::from(i % 7)], phishy);
        }
        d
    }

    #[test]
    fn train_and_classify() {
        let det = PhishDetector::train(&toy_train(), &DetectorConfig::default());
        assert!(det.is_phish(&[0.9, 3.0]));
        assert!(!det.is_phish(&[0.1, 3.0]));
        assert_eq!(det.threshold(), 0.7);
    }

    #[test]
    fn threshold_shifts_decisions() {
        let mut det = PhishDetector::train(&toy_train(), &DetectorConfig::default());
        let score = det.score(&[0.9, 3.0]);
        det.set_threshold(score + 1e-6);
        assert!(!det.is_phish(&[0.9, 3.0]));
        det.set_threshold(score - 1e-6);
        assert!(det.is_phish(&[0.9, 3.0]));
    }

    #[test]
    fn score_dataset_matches() {
        let data = toy_train();
        let det = PhishDetector::train(&data, &DetectorConfig::default());
        let scores = det.score_dataset(&data);
        assert_eq!(scores.len(), data.len());
        assert_eq!(scores[0], det.score(data.row(0)));
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let det = PhishDetector::train(&toy_train(), &DetectorConfig::default());
        let json = serde_json::to_string(&det).unwrap();
        let back: PhishDetector = serde_json::from_str(&json).unwrap();
        let probe = [0.42, 5.0];
        assert_eq!(det.score(&probe), back.score(&probe));
        assert_eq!(det.threshold(), back.threshold());
    }

    #[test]
    fn calibrate_threshold_respects_fpr_budget() {
        let data = toy_train();
        let mut det = PhishDetector::train(&data, &DetectorConfig::default());
        // Build a noisy validation set.
        let mut valid = Dataset::new(2);
        for i in 0..300 {
            let phishy = i % 2 == 0;
            let x = if phishy { 0.8 } else { 0.2 } + (i % 10) as f64 * 0.02;
            valid.push_row(&[x, 1.0], phishy);
        }
        let t = det.calibrate_threshold(&valid, 0.01);
        assert_eq!(det.threshold(), t);
        let scores = det.score_dataset(&valid);
        let c = kyp_ml::metrics::Confusion::at_threshold(&scores, valid.labels(), t);
        assert!(c.fpr() <= 0.01, "fpr {} at threshold {t}", c.fpr());
        // Tighter budget never lowers the threshold.
        let tighter = det.calibrate_threshold(&valid, 0.001);
        assert!(tighter >= t);
    }

    #[test]
    #[should_panic(expected = "validation set must not be empty")]
    fn calibrate_requires_data() {
        let mut det = PhishDetector::train(&toy_train(), &DetectorConfig::default());
        det.calibrate_threshold(&Dataset::new(2), 0.01);
    }

    #[test]
    fn flat_path_matches_reference_bits() {
        let det = PhishDetector::train(&toy_train(), &DetectorConfig::default());
        let probes = [[0.9, 3.0], [0.1, 3.0], [0.42, 5.0], [-2.0, 100.0]];
        for p in &probes {
            assert_eq!(
                det.score(p).to_bits(),
                det.model().predict_proba(p).to_bits()
            );
        }
        let batch = det.score_batch(&probes);
        for (p, got) in probes.iter().zip(&batch) {
            assert_eq!(got.to_bits(), det.model().predict_proba(p).to_bits());
        }
    }

    #[test]
    fn warm_is_idempotent() {
        let det = PhishDetector::train(&toy_train(), &DetectorConfig::default());
        det.warm();
        det.warm();
        assert_eq!(
            det.score(&[0.9, 3.0]).to_bits(),
            det.model().predict_proba(&[0.9, 3.0]).to_bits()
        );
    }

    #[test]
    fn model_accessible() {
        let det = PhishDetector::train(&toy_train(), &DetectorConfig::default());
        assert!(det.model().n_trees() > 0);
    }
}
