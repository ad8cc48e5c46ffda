//! Compiled, cache-friendly GBM inference: the hot-path twin of
//! [`GradientBoosting`].
//!
//! The boosting model stores each tree as a `Vec` of boxed-enum nodes —
//! ideal for fitting, terrible for scoring: every step of a traversal
//! chases a pointer into a heterogeneous allocation and branches on the
//! enum tag. [`FlatModel`] compiles the whole ensemble once into
//! structure-of-arrays node tables (`feature`, `threshold`, packed child
//! references with a leaf tag bit) laid out in depth-first order, so a
//! traversal touches three small parallel arrays that stay resident in
//! L1/L2 across rows and trees.
//!
//! Scoring is **bit-identical** to the boxed walk: compilation copies
//! thresholds and leaf values verbatim, the comparison direction is
//! preserved (`x <= t` goes left, NaN goes right), and the per-row
//! accumulation order (base score, then trees in boosting order, each
//! scaled by the learning rate) is exactly the order
//! [`GradientBoosting::decision_function`] uses. The equivalence is
//! enforced by property tests in `tests/flat_equivalence.rs`.

use crate::gbm::sigmoid;
use crate::tree::Node;
use crate::GradientBoosting;

/// High bit of a packed child reference: set when the reference points
/// into the leaf-value table instead of the node tables.
const LEAF_BIT: u32 = 1 << 31;

/// Rows per block in [`FlatModel::predict_batch`]: small enough that a
/// block's accumulators live in L1, large enough to amortise streaming
/// the node tables once per tree per block.
const BATCH_BLOCK: usize = 64;

/// A gradient-boosting ensemble compiled for inference.
///
/// Produced by [`GradientBoosting::compile`]; immutable afterwards. All
/// trees share four parallel arrays indexed by node id, nodes of one tree
/// are contiguous in depth-first order, and leaves live in a separate
/// value table addressed through tagged child references.
///
/// # Examples
///
/// ```
/// use kyp_ml::{Dataset, GbmParams, GradientBoosting};
///
/// let mut data = Dataset::new(2);
/// for i in 0..200 {
///     let v = i as f64 / 100.0;
///     data.push_row(&[v, -v], v > 1.0);
/// }
/// let model = GradientBoosting::fit(&data, &GbmParams::default());
/// let flat = model.compile();
/// let probe = [1.8, -1.8];
/// assert_eq!(
///     flat.predict_proba(&probe).to_bits(),
///     model.predict_proba(&probe).to_bits()
/// );
/// ```
#[derive(Debug, Clone)]
pub struct FlatModel {
    n_features: usize,
    base_score: f64,
    learning_rate: f64,
    /// Per-tree root references, packed like child references (a
    /// single-leaf tree's root points straight into `leaf_values`).
    roots: Vec<u32>,
    /// Split feature per internal node.
    feature: Vec<u32>,
    /// Split threshold per internal node: `x <= threshold` goes left.
    threshold: Vec<f64>,
    /// Packed `[left, right]` child references per internal node.
    children: Vec<[u32; 2]>,
    /// Leaf values, addressed by `reference & !LEAF_BIT`.
    leaf_values: Vec<f64>,
}

impl FlatModel {
    /// Compiles the ensemble of `model` into flat node tables.
    pub(crate) fn compile(model: &GradientBoosting) -> Self {
        let mut flat = FlatModel {
            n_features: model.n_features(),
            base_score: model.base_score(),
            learning_rate: model.learning_rate(),
            roots: Vec::with_capacity(model.n_trees()),
            feature: Vec::new(),
            threshold: Vec::new(),
            children: Vec::new(),
            leaf_values: Vec::new(),
        };
        for tree in model.trees() {
            let root = flat.compile_node(tree.nodes(), 0);
            flat.roots.push(root);
        }
        flat
    }

    /// Recursively lays node `idx` of `nodes` out depth-first, returning
    /// its packed reference.
    fn compile_node(&mut self, nodes: &[Node], idx: usize) -> u32 {
        // kyp-lint: allow(P02) — child indices are range-checked by RegressionTree::validate before untrusted models reach compilation
        match &nodes[idx] {
            Node::Leaf { value } => {
                let slot = self.leaf_values.len() as u32;
                debug_assert!(slot & LEAF_BIT == 0, "leaf table overflow");
                self.leaf_values.push(*value);
                slot | LEAF_BIT
            }
            Node::Split {
                feature,
                threshold,
                left,
                right,
                ..
            } => {
                let slot = self.feature.len();
                debug_assert!((slot as u32) & LEAF_BIT == 0, "node table overflow");
                self.feature.push(*feature as u32);
                self.threshold.push(*threshold);
                self.children.push([0, 0]); // patched below
                let l = self.compile_node(nodes, *left);
                let r = self.compile_node(nodes, *right);
                // kyp-lint: allow(P02) — slot was pushed into `children` a few lines up
                self.children[slot] = [l, r];
                slot as u32
            }
        }
    }

    /// Number of features the compiled model expects.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of trees in the compiled ensemble.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total internal (split) nodes across all trees.
    pub fn node_count(&self) -> usize {
        self.feature.len()
    }

    /// Total leaves across all trees.
    pub fn leaf_count(&self) -> usize {
        self.leaf_values.len()
    }

    /// Walks one tree for one row, returning the leaf value.
    #[inline]
    fn tree_leaf(&self, mut node: u32, row: &[f64]) -> f64 {
        while node & LEAF_BIT == 0 {
            let i = node as usize;
            // `x <= t` goes left; NaN fails the comparison and goes right,
            // exactly like the boxed walk.
            // kyp-lint: allow(P02) — validated trees split on features below n_features, and every seam that loads a model checks n_features against its rows (ModelSnapshot::require_stage)
            let go_left = row[self.feature[i] as usize] <= self.threshold[i];
            node = self.children[i][usize::from(!go_left)]; // kyp-lint: allow(P02) — compiled in bounds, as above
        }
        // kyp-lint: allow(P02) — leaf references are compiled in bounds, same argument as above
        self.leaf_values[(node & !LEAF_BIT) as usize]
    }

    /// The raw (log-odds) score of a feature vector — bit-identical to
    /// [`GradientBoosting::decision_function`].
    pub fn decision_function(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.n_features);
        let mut score = self.base_score;
        for &root in &self.roots {
            score += self.learning_rate * self.tree_leaf(root, row);
        }
        score
    }

    /// The confidence in `[0, 1]` that the row is positive — bit-identical
    /// to [`GradientBoosting::predict_proba`].
    pub fn predict_proba(&self, row: &[f64]) -> f64 {
        sigmoid(self.decision_function(row))
    }

    /// Confidence scores for a batch of rows, walked batch-major: each
    /// block of [`BATCH_BLOCK`] rows is carried through all trees together
    /// so the node tables are streamed once per tree per block instead of
    /// once per tree per row.
    ///
    /// Element `i` is bit-identical to `predict_proba(&rows[i])`: the
    /// per-row accumulation order (base, then trees in order) is
    /// unchanged; only the loop nest is tiled.
    pub fn predict_batch<R: AsRef<[f64]>>(&self, rows: &[R]) -> Vec<f64> {
        let mut out = vec![self.base_score; rows.len()];
        for (block, scores) in rows.chunks(BATCH_BLOCK).zip(out.chunks_mut(BATCH_BLOCK)) {
            for &root in &self.roots {
                for (row, score) in block.iter().zip(scores.iter_mut()) {
                    *score += self.learning_rate * self.tree_leaf(root, row.as_ref());
                }
            }
        }
        for score in &mut out {
            *score = sigmoid(*score);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{Dataset, GbmParams, GradientBoosting};

    fn toy(n: usize) -> Dataset {
        let mut d = Dataset::new(3);
        for i in 0..n {
            let x = (i % 100) as f64 / 100.0;
            let y = ((i * 13) % 7) as f64;
            d.push_row(&[x, y, x * y], x > 0.5);
        }
        d
    }

    #[test]
    fn compiled_layout_is_complete() {
        let d = toy(300);
        let m = GradientBoosting::fit(&d, &GbmParams::default());
        let flat = m.compile();
        assert_eq!(flat.n_trees(), m.n_trees());
        assert_eq!(flat.n_features(), m.n_features());
        // Every tree contributes internal nodes + leaves == node_count.
        assert!(flat.leaf_count() > flat.n_trees() - 1);
        assert!(flat.node_count() > 0);
    }

    #[test]
    fn pointwise_matches_boxed_walk() {
        let d = toy(400);
        let m = GradientBoosting::fit(&d, &GbmParams::default());
        let flat = m.compile();
        for i in 0..d.len() {
            let row = d.row(i);
            assert_eq!(
                flat.decision_function(row).to_bits(),
                m.decision_function(row).to_bits(),
                "row {i}"
            );
            assert_eq!(
                flat.predict_proba(row).to_bits(),
                m.predict_proba(row).to_bits(),
                "row {i}"
            );
        }
    }

    #[test]
    fn batch_matches_pointwise_at_odd_sizes() {
        let d = toy(257); // not a multiple of the block size
        let m = GradientBoosting::fit(
            &d,
            &GbmParams {
                n_trees: 30,
                ..GbmParams::default()
            },
        );
        let flat = m.compile();
        let rows: Vec<Vec<f64>> = (0..d.len()).map(|i| d.row(i).to_vec()).collect();
        let batch = flat.predict_batch(&rows);
        assert_eq!(batch.len(), rows.len());
        for (i, (row, got)) in rows.iter().zip(&batch).enumerate() {
            assert_eq!(got.to_bits(), m.predict_proba(row).to_bits(), "row {i}");
        }
    }

    #[test]
    fn single_leaf_trees_compile() {
        // Depth-0 trees: every root is a leaf reference.
        let d = toy(200);
        let m = GradientBoosting::fit(
            &d,
            &GbmParams {
                n_trees: 5,
                max_depth: 0,
                ..GbmParams::default()
            },
        );
        let flat = m.compile();
        assert_eq!(flat.node_count(), 0);
        assert_eq!(flat.leaf_count(), 5);
        let probe = [0.3, 2.0, 0.6];
        assert_eq!(
            flat.predict_proba(&probe).to_bits(),
            m.predict_proba(&probe).to_bits()
        );
    }

    #[test]
    fn empty_batch() {
        let d = toy(200);
        let m = GradientBoosting::fit(&d, &GbmParams::default());
        let flat = m.compile();
        let rows: Vec<Vec<f64>> = Vec::new();
        assert!(flat.predict_batch(&rows).is_empty());
    }
}
