//! Stochastic gradient boosting with logistic loss (Friedman 2002), the
//! classifier of the paper's Section IV-C.

use crate::tree::{BinnedMatrix, TreeParams};
use crate::{Dataset, RegressionTree};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of [`GradientBoosting`].
///
/// The defaults are tuned for the paper's regime: a few thousand training
/// examples and ~200 features.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GbmParams {
    /// Number of boosting iterations (trees).
    pub n_trees: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum examples per leaf.
    pub min_samples_leaf: usize,
    /// Minimum hessian sum per child.
    pub min_child_weight: f64,
    /// L2 regularisation on leaf values.
    pub lambda: f64,
    /// Row subsampling fraction per iteration (the "stochastic" in
    /// stochastic gradient boosting).
    pub subsample: f64,
    /// Column subsampling fraction per tree.
    pub colsample: f64,
    /// RNG seed for subsampling (fits are deterministic given a seed).
    pub seed: u64,
}

impl Default for GbmParams {
    fn default() -> Self {
        GbmParams {
            n_trees: 150,
            learning_rate: 0.1,
            max_depth: 4,
            min_samples_leaf: 5,
            min_child_weight: 1e-3,
            lambda: 1.0,
            subsample: 0.8,
            colsample: 0.8,
            seed: 42,
        }
    }
}

/// A fitted gradient-boosting classifier.
///
/// Outputs a confidence in `[0, 1]` that an instance belongs to the
/// positive (phishing) class; the paper compares this against a
/// discrimination threshold of 0.7, favouring the legitimate class.
///
/// # Examples
///
/// See the [crate docs](crate) for a full fit/predict example.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GradientBoosting {
    trees: Vec<RegressionTree>,
    base_score: f64,
    learning_rate: f64,
    n_features: usize,
}

impl GradientBoosting {
    /// Fits a model on `data`.
    ///
    /// # Panics
    ///
    /// Panics when `data` is empty or contains a single class only.
    pub fn fit(data: &Dataset, params: &GbmParams) -> Self {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let pos = data.positives();
        let neg = data.negatives();
        assert!(
            pos > 0 && neg > 0,
            "training data must contain both classes (got {pos} positive, {neg} negative)"
        );

        let n = data.len();
        let binned = BinnedMatrix::build(data);
        let base_score = (pos as f64 / neg as f64).ln();
        let mut raw: Vec<f64> = vec![base_score; n];
        let mut grads = vec![0.0; n];
        let mut hess = vec![0.0; n];
        let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
        let pool = kyp_exec::pool();
        let tree_params = TreeParams {
            max_depth: params.max_depth,
            min_samples_leaf: params.min_samples_leaf,
            min_child_weight: params.min_child_weight,
            lambda: params.lambda,
        };

        let mut all_rows: Vec<u32> = (0..n as u32).collect();
        let mut all_cols: Vec<usize> = (0..data.n_features()).collect();
        let row_take = ((n as f64 * params.subsample).round() as usize).clamp(1, n);
        let col_take = ((data.n_features() as f64 * params.colsample).round() as usize)
            .clamp(1, data.n_features());

        let mut trees = Vec::with_capacity(params.n_trees);
        for _ in 0..params.n_trees {
            // Logistic loss: p = σ(raw); g = p - y; h = p (1 - p).
            for i in 0..n {
                let p = sigmoid(raw[i]);
                let y = f64::from(data.label(i));
                grads[i] = p - y;
                hess[i] = (p * (1.0 - p)).max(1e-9);
            }
            all_rows.shuffle(&mut rng);
            let rows = &mut all_rows[..row_take];
            all_cols.shuffle(&mut rng);
            let mut cols = all_cols[..col_take].to_vec();
            cols.sort_unstable();

            let tree = RegressionTree::fit_with_grad(
                &binned,
                &grads,
                &hess,
                rows,
                &tree_params,
                Some(&cols),
                &pool,
            );
            // Update raw scores for every row (not just the subsample),
            // traversing the already-built BinnedMatrix instead of
            // re-binning each raw feature vector against thresholds.
            tree.add_predictions_binned(&binned, params.learning_rate, &mut raw, &pool);
            trees.push(tree);
        }

        GradientBoosting {
            trees,
            base_score,
            learning_rate: params.learning_rate,
            n_features: data.n_features(),
        }
    }

    /// The raw (log-odds) score of a feature vector.
    pub fn decision_function(&self, features: &[f64]) -> f64 {
        debug_assert_eq!(features.len(), self.n_features);
        let mut score = self.base_score;
        for tree in &self.trees {
            score += self.learning_rate * tree.predict(features);
        }
        score
    }

    /// The confidence in `[0, 1]` that the instance is positive (phishing).
    pub fn predict_proba(&self, features: &[f64]) -> f64 {
        sigmoid(self.decision_function(features))
    }

    /// Class prediction at a discrimination threshold (the paper uses 0.7).
    pub fn predict(&self, features: &[f64], threshold: f64) -> bool {
        self.predict_proba(features) >= threshold
    }

    /// Confidence scores for every row of a dataset.
    ///
    /// The ensemble is compiled to a [`crate::FlatModel`] once, then rows
    /// are scored in parallel on the default [`kyp_exec`] pool; the result
    /// is bit-identical to mapping [`GradientBoosting::predict_proba`]
    /// over the rows serially.
    pub fn predict_dataset(&self, data: &Dataset) -> Vec<f64> {
        let flat = self.compile();
        kyp_exec::pool().par_map_index(data.len(), |i| flat.predict_proba(data.row(i)))
    }

    /// Compiles the ensemble into a [`crate::FlatModel`] for
    /// cache-friendly inference. Scoring through the compiled model is
    /// bit-identical to [`GradientBoosting::predict_proba`].
    pub fn compile(&self) -> crate::FlatModel {
        crate::FlatModel::compile(self)
    }

    /// Structural validation of the ensemble, for models deserialized
    /// from untrusted artifacts (a hand-edited or corrupted snapshot
    /// can otherwise drive the unchecked tree walks of
    /// [`RegressionTree::predict`] and [`crate::FlatModel`] out of
    /// bounds). Models produced by [`GradientBoosting::fit`] pass by
    /// construction.
    ///
    /// # Errors
    ///
    /// Describes the first malformed tree: an out-of-range child or
    /// feature index, a node cycle, or a non-finite threshold.
    pub fn validate(&self) -> Result<(), String> {
        for (t, tree) in self.trees.iter().enumerate() {
            tree.validate(self.n_features)
                .map_err(|e| format!("tree {t}: {e}"))?;
        }
        Ok(())
    }

    /// The fitted trees, in boosting order (for compilation).
    pub(crate) fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// The prior log-odds every score starts from (for compilation).
    pub(crate) fn base_score(&self) -> f64 {
        self.base_score
    }

    /// The shrinkage applied to each tree (for compilation).
    pub(crate) fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of features the model was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Total split gain per feature, normalised to sum to 1.
    ///
    /// The paper (Section VII-A) discusses which feature groups carry the
    /// signal; this is the hook for that analysis.
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut imp = vec![0.0; self.n_features];
        for tree in &self.trees {
            tree.accumulate_importance(&mut imp);
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }
}

#[inline]
pub(crate) fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::BinnedMatrix;

    fn toy(n: usize, noise: bool) -> Dataset {
        // Two informative features + one constant.
        let mut d = Dataset::new(3);
        for i in 0..n {
            let x = (i % 100) as f64 / 100.0;
            let label = if noise && i % 17 == 0 {
                x <= 0.5
            } else {
                x > 0.5
            };
            d.push_row(&[x, 1.0 - x, 7.0], label);
        }
        d
    }

    #[test]
    fn learns_separable_problem() {
        let d = toy(500, false);
        let m = GradientBoosting::fit(&d, &GbmParams::default());
        assert!(m.predict_proba(&[0.9, 0.1, 7.0]) > 0.9);
        assert!(m.predict_proba(&[0.1, 0.9, 7.0]) < 0.1);
        assert!(m.predict(&[0.95, 0.05, 7.0], 0.7));
        assert!(!m.predict(&[0.05, 0.95, 7.0], 0.7));
    }

    #[test]
    fn tolerates_label_noise() {
        let d = toy(1000, true);
        let m = GradientBoosting::fit(&d, &GbmParams::default());
        assert!(m.predict_proba(&[0.95, 0.05, 7.0]) > 0.7);
        assert!(m.predict_proba(&[0.05, 0.95, 7.0]) < 0.3);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = toy(300, true);
        let p = GbmParams {
            seed: 7,
            ..GbmParams::default()
        };
        let a = GradientBoosting::fit(&d, &p);
        let b = GradientBoosting::fit(&d, &p);
        let probe = [0.3, 0.7, 7.0];
        assert_eq!(a.predict_proba(&probe), b.predict_proba(&probe));
    }

    #[test]
    fn different_seeds_differ() {
        let d = toy(300, true);
        let a = GradientBoosting::fit(
            &d,
            &GbmParams {
                seed: 1,
                ..Default::default()
            },
        );
        let b = GradientBoosting::fit(
            &d,
            &GbmParams {
                seed: 2,
                ..Default::default()
            },
        );
        let probe = [0.49, 0.51, 7.0];
        // Not a strict requirement, but with stochastic subsampling the raw
        // scores should essentially never coincide exactly.
        assert_ne!(
            a.decision_function(&probe).to_bits(),
            b.decision_function(&probe).to_bits()
        );
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let d = toy(200, true);
        let m = GradientBoosting::fit(&d, &GbmParams::default());
        for (row, _) in d.iter() {
            let p = m.predict_proba(row);
            assert!((0.0..=1.0).contains(&p), "p = {p}");
        }
    }

    #[test]
    fn importance_ignores_constant_feature() {
        let d = toy(500, false);
        let m = GradientBoosting::fit(&d, &GbmParams::default());
        let imp = m.feature_importance();
        assert_eq!(imp.len(), 3);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(imp[2], 0.0, "constant feature has zero importance");
        assert!(imp[0] + imp[1] > 0.99);
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn single_class_panics() {
        let mut d = Dataset::new(1);
        d.push_row(&[1.0], true);
        d.push_row(&[2.0], true);
        GradientBoosting::fit(&d, &GbmParams::default());
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_panics() {
        GradientBoosting::fit(&Dataset::new(1), &GbmParams::default());
    }

    #[test]
    fn predict_dataset_matches_pointwise() {
        let d = toy(100, false);
        let m = GradientBoosting::fit(
            &d,
            &GbmParams {
                n_trees: 20,
                ..Default::default()
            },
        );
        let scores = m.predict_dataset(&d);
        assert_eq!(scores.len(), d.len());
        assert_eq!(scores[3], m.predict_proba(d.row(3)));
    }

    /// The fit loop maintains raw scores through the BinnedMatrix; the
    /// replay below reproduces them bit-for-bit against
    /// `decision_function`'s raw-row traversal, proving the binned update
    /// is a drop-in for `raw[i] += lr * tree.predict(data.row(i))`.
    #[test]
    fn binned_raw_update_matches_raw_traversal_replay() {
        let d = toy(400, true);
        let m = GradientBoosting::fit(&d, &GbmParams::default());
        let binned = BinnedMatrix::build(&d);
        for pool in [kyp_exec::Pool::new(1), kyp_exec::Pool::new(4)] {
            let mut raw = vec![m.base_score; d.len()];
            for tree in &m.trees {
                tree.add_predictions_binned(&binned, m.learning_rate, &mut raw, &pool);
            }
            for (i, r) in raw.iter().enumerate() {
                assert_eq!(
                    r.to_bits(),
                    m.decision_function(d.row(i)).to_bits(),
                    "row {i} diverges ({} threads)",
                    pool.threads()
                );
            }
        }
    }

    #[test]
    fn fitted_models_validate_and_tampered_ones_do_not() {
        let d = toy(200, false);
        let m = GradientBoosting::fit(&d, &GbmParams::default());
        assert!(m.validate().is_ok());
        // Round-trip through json and corrupt a child reference, the way
        // a damaged snapshot would arrive.
        let json = serde_json::to_string(&m).unwrap();
        let tampered = json.replacen("\"left\":1", "\"left\":1000000", 1);
        assert_ne!(json, tampered, "fixture model holds no matching split");
        let bad: GradientBoosting = serde_json::from_str(&tampered).unwrap();
        let err = bad.validate().unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn n_trees_reported() {
        let d = toy(100, false);
        let m = GradientBoosting::fit(
            &d,
            &GbmParams {
                n_trees: 13,
                ..Default::default()
            },
        );
        assert_eq!(m.n_trees(), 13);
        assert_eq!(m.n_features(), 3);
    }
}
