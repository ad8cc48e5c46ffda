//! Histogram-binned regression trees — the base learners of the gradient
//! boosting model.
//!
//! Features are pre-binned into at most [`MAX_BINS`] quantile bins once per
//! training run, into one contiguous column of bin indices per feature
//! ([`BinnedMatrix`]); split search then costs `O(features × rows)` per
//! node instead of requiring per-node sorts. Leaf values are Newton steps
//! `-ΣG / (ΣH + λ)`, so the same tree code serves any twice-differentiable
//! loss (the booster uses the logistic loss).
//!
//! # Split search
//!
//! A node gathers its rows' `(g, h)` pairs once, in row order, and sums
//! its totals from them in that order. The candidate columns that are not
//! constant over the training set are scanned in groups of four: one pass
//! over the node's rows adds each row's pair to its bin in every column of
//! the group. Consecutive rows often share a bin (most columns have only a
//! few), and an add into one histogram waits on the store of the add
//! before it; four histograms filled side by side keep four such chains in
//! flight. Each bin still sums its rows in row order, so every histogram,
//! gain and split is the same f64 a one-column-at-a-time scan computes.
//! Only the bins a column uses are zeroed. The walk over a column's bins
//! skips empty bins, whose left sums equal the bin before's and so repeat
//! a gain that strict `>` has already seen, and stops at the first bin
//! whose right side holds fewer than `min_samples_leaf` rows, since that
//! side only shrinks. Nodes of at least `PAR_SPLIT_MIN_CELLS` rows ×
//! columns fan the groups out over the pool; candidates are reduced in
//! column order with strict `>` either way, so an exact tie goes to the
//! earliest column and every tree is the same at any thread count.

use crate::Dataset;
use kyp_exec::Pool;
use serde::{Deserialize, Serialize};

/// Maximum number of histogram bins per feature.
pub(crate) const MAX_BINS: usize = 64;

/// Below this `rows × columns` volume a node's split search stays serial:
/// spawning scoped workers costs more than scanning the histograms.
const PAR_SPLIT_MIN_CELLS: usize = 1 << 15;

/// Columns whose histograms one pass over a node's rows fills.
const GROUP: usize = 4;

/// Parameters controlling a single tree fit.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub(crate) struct TreeParams {
    pub max_depth: usize,
    pub min_samples_leaf: usize,
    pub min_child_weight: f64,
    pub lambda: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 4,
            min_samples_leaf: 5,
            min_child_weight: 1e-3,
            lambda: 1.0,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum Node {
    Split {
        feature: usize,
        /// Raw-value threshold: `x <= threshold` goes left.
        threshold: f64,
        left: usize,
        right: usize,
        /// Total gain contributed by this split (for feature importance).
        gain: f64,
    },
    Leaf {
        value: f64,
    },
}

/// A fitted regression tree.
///
/// Produced by the gradient booster; can also be fitted standalone on a
/// squared-error objective via [`RegressionTree::fit`].
///
/// # Examples
///
/// ```
/// use kyp_ml::{Dataset, RegressionTree};
/// let mut d = Dataset::new(1);
/// for i in 0..100 {
///     let x = i as f64;
///     d.push_row(&[x], false);
/// }
/// let targets: Vec<f64> = (0..100).map(|i| if i < 50 { -1.0 } else { 1.0 }).collect();
/// let tree = RegressionTree::fit(&d, &targets, 3);
/// assert!(tree.predict(&[10.0]) < 0.0);
/// assert!(tree.predict(&[90.0]) > 0.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

impl RegressionTree {
    /// Fits a standalone squared-error regression tree of depth
    /// `max_depth` to `targets`.
    ///
    /// # Panics
    ///
    /// Panics when `targets.len() != data.len()` or the dataset is empty.
    pub fn fit(data: &Dataset, targets: &[f64], max_depth: usize) -> Self {
        assert_eq!(data.len(), targets.len());
        assert!(!data.is_empty(), "cannot fit a tree on an empty dataset");
        let binned = BinnedMatrix::build(data);
        // Squared error: g = -target (at f = 0), h = 1 → leaf = mean(target).
        let grads: Vec<f64> = targets.iter().map(|t| -t).collect();
        let hess = vec![1.0; targets.len()];
        let params = TreeParams {
            max_depth,
            lambda: 0.0,
            ..TreeParams::default()
        };
        let mut rows: Vec<u32> = (0..data.len() as u32).collect();
        Self::fit_with_grad(
            &binned,
            &grads,
            &hess,
            &mut rows,
            &params,
            None,
            &kyp_exec::pool(),
        )
    }

    /// Fits a tree to gradients/hessians over the given row set.
    /// `columns` optionally restricts the features considered; `pool`
    /// parallelises the split search on large nodes (the tree is
    /// bit-identical at any thread count).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fit_with_grad(
        binned: &BinnedMatrix,
        grads: &[f64],
        hess: &[f64],
        rows: &mut [u32],
        params: &TreeParams,
        columns: Option<&[usize]>,
        pool: &Pool,
    ) -> Self {
        // A column constant over the training set has no threshold, so it
        // can never split.
        let splittable = |&f: &usize| !binned.thresholds[f].is_empty();
        let cols = match columns {
            Some(c) => c.iter().copied().filter(splittable).collect(),
            None => (0..binned.n_features).filter(splittable).collect(),
        };
        let mut grower = Grower {
            binned,
            grads,
            hess,
            params,
            cols,
            pool,
            nodes: Vec::new(),
            gh: Vec::with_capacity(rows.len()),
            hist: [[Slot::default(); MAX_BINS]; GROUP],
            spill: Vec::with_capacity(rows.len()),
        };
        grower.build(rows, 0);
        RegressionTree {
            nodes: grower.nodes,
        }
    }

    /// Structural validation for trees deserialized from untrusted
    /// artifacts: every child reference must stay in range, every node
    /// must be reachable at most once (no cycles, no shared subtrees),
    /// split features must fit `n_features` and thresholds be finite.
    /// Trees built by [`RegressionTree::fit`] satisfy this by
    /// construction; [`predict`](Self::predict) and the flat compiler
    /// index nodes unchecked on the strength of it.
    pub(crate) fn validate(&self, n_features: usize) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("tree has no nodes".to_owned());
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![0usize];
        while let Some(idx) = stack.pop() {
            match seen.get_mut(idx) {
                None => {
                    return Err(format!(
                        "node reference {idx} is out of range ({} nodes)",
                        self.nodes.len()
                    ));
                }
                Some(visited) if *visited => {
                    return Err(format!(
                        "node {idx} is referenced twice (cycle or shared subtree)"
                    ));
                }
                Some(visited) => *visited = true,
            }
            if let Some(Node::Split {
                feature,
                threshold,
                left,
                right,
                ..
            }) = self.nodes.get(idx)
            {
                if *feature >= n_features {
                    return Err(format!(
                        "split feature {feature} is out of range ({n_features} features)"
                    ));
                }
                if !threshold.is_finite() {
                    return Err(format!("split threshold {threshold} is not finite"));
                }
                stack.push(*left);
                stack.push(*right);
            }
        }
        Ok(())
    }

    /// Predicts the tree's output for a raw feature vector.
    pub fn predict(&self, features: &[f64]) -> f64 {
        let mut idx = 0;
        loop {
            // kyp-lint: allow(P02) — fitted trees reference in-range children by construction; untrusted ones pass `validate` first
            match &self.nodes[idx] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    // kyp-lint: allow(P02) — feature indices are bounded by `validate` / the fit that built the tree
                    idx = if features[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Adds `scale ×` this tree's prediction for every row of `binned` to
    /// `out`, traversing bin indices instead of re-comparing raw values.
    ///
    /// Exactly equivalent to `out[i] += scale * predict(data.row(i))` for
    /// the dataset `binned` was built from: each split's threshold is a
    /// value copied verbatim out of `binned.thresholds`, so resolving it
    /// back to its bin index `b` gives `bin(row, f) <= b  ⟺
    /// row[f] <= threshold`. Avoids the per-row `partition_point`
    /// re-binning the boosting loop otherwise pays every round, and fans
    /// the traversal out over `pool`.
    pub(crate) fn add_predictions_binned(
        &self,
        binned: &BinnedMatrix,
        scale: f64,
        out: &mut [f64],
        pool: &Pool,
    ) {
        debug_assert_eq!(out.len(), binned.n_rows());
        let split_bins: Vec<u8> = self
            .nodes
            .iter()
            .map(|node| match node {
                Node::Leaf { .. } => 0,
                Node::Split {
                    feature, threshold, ..
                } => {
                    let th = &binned.thresholds[*feature];
                    let b = th.partition_point(|t| *t < *threshold);
                    debug_assert!(b < th.len() && th[b] == *threshold);
                    b as u8
                }
            })
            .collect();
        pool.par_chunks_mut(out, |offset, chunk| {
            for (k, r) in chunk.iter_mut().enumerate() {
                let row = offset + k;
                let mut idx = 0;
                loop {
                    match &self.nodes[idx] {
                        Node::Leaf { value } => {
                            *r += scale * value;
                            break;
                        }
                        Node::Split {
                            feature,
                            left,
                            right,
                            ..
                        } => {
                            idx = if binned.bin(row, *feature) <= split_bins[idx] {
                                *left
                            } else {
                                *right
                            };
                        }
                    }
                }
            }
        });
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The tree's nodes, for compilation into a flat layout.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Adds each split's gain to `importance[feature]`.
    pub(crate) fn accumulate_importance(&self, importance: &mut [f64]) {
        for node in &self.nodes {
            if let Node::Split { feature, gain, .. } = node {
                importance[*feature] += gain.max(0.0);
            }
        }
    }
}

/// One histogram bin: the gradient and hessian sums of the rows that fall
/// in it, and their count.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    g: f64,
    h: f64,
    n: u32,
}

/// The histograms of one column group.
type Histograms = [[Slot; MAX_BINS]; GROUP];

/// What a node's split search reads.
struct NodeStats<'a> {
    rows: &'a [u32],
    /// The rows' `(g, h)` pairs, in row order.
    gh: &'a [(f64, f64)],
    g_total: f64,
    h_total: f64,
    parent_score: f64,
}

/// One tree fit: the inputs every node reads, the nodes built so far and
/// the scratch every node reuses.
struct Grower<'a> {
    binned: &'a BinnedMatrix,
    grads: &'a [f64],
    hess: &'a [f64],
    params: &'a TreeParams,
    /// The candidate columns that can split, in the caller's order.
    cols: Vec<usize>,
    pool: &'a Pool,
    nodes: Vec<Node>,
    /// The current node's `(g, h)` pairs, in row order.
    gh: Vec<(f64, f64)>,
    /// The serial split search's histograms.
    hist: Histograms,
    /// The rows a partition sends right, until they are copied back.
    spill: Vec<u32>,
}

impl Grower<'_> {
    /// Recursively builds a subtree over `rows`, returning its node index.
    fn build(&mut self, rows: &mut [u32], depth: usize) -> usize {
        let params = self.params;
        self.gh.clear();
        self.gh.extend(
            rows.iter()
                .map(|&r| (self.grads[r as usize], self.hess[r as usize])),
        );
        let (g_total, h_total) = self
            .gh
            .iter()
            .fold((0.0, 0.0), |(g, h), &(dg, dh)| (g + dg, h + dh));
        let leaf_value = -g_total / (h_total + params.lambda);

        if depth >= params.max_depth || rows.len() < 2 * params.min_samples_leaf {
            return self.push(Node::Leaf { value: leaf_value });
        }

        let node = NodeStats {
            rows,
            gh: &self.gh,
            g_total,
            h_total,
            parent_score: g_total * g_total / (h_total + params.lambda),
        };
        let (binned, hist) = (self.binned, &mut self.hist);
        let groups = self.cols.chunks(GROUP);
        let candidates: Vec<Option<(usize, usize, f64)>> = if self.pool.threads() > 1
            && rows.len().saturating_mul(self.cols.len()) >= PAR_SPLIT_MIN_CELLS
        {
            let groups: Vec<&[usize]> = groups.collect();
            self.pool.par_map(&groups, |group| {
                let mut hist = [[Slot::default(); MAX_BINS]; GROUP];
                scan_group(binned, params, &node, group, &mut hist)
            })
        } else {
            groups
                .map(|group| scan_group(binned, params, &node, group, hist))
                .collect()
        };
        let Some((feature, bin, gain)) = candidates.into_iter().flatten().reduce(first_max) else {
            return self.push(Node::Leaf { value: leaf_value });
        };

        let mid = partition(rows, binned.feature_bins(feature), bin, &mut self.spill);
        debug_assert!(mid > 0 && mid < rows.len());
        let node_idx = self.push(Node::Split {
            feature,
            threshold: binned.thresholds[feature][bin],
            left: usize::MAX,
            right: usize::MAX,
            gain,
        });
        let (left_rows, right_rows) = rows.split_at_mut(mid);
        let left = self.build(left_rows, depth + 1);
        let right = self.build(right_rows, depth + 1);
        if let Node::Split {
            left: l, right: r, ..
        } = &mut self.nodes[node_idx]
        {
            *l = left;
            *r = right;
        }
        node_idx
    }

    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }
}

/// The earlier of two `(feature, bin, gain)` candidates unless the later
/// one's gain is strictly larger: folded in column order, an exact tie
/// goes to the earliest column.
fn first_max(best: (usize, usize, f64), cand: (usize, usize, f64)) -> (usize, usize, f64) {
    if cand.2 > best.2 {
        cand
    } else {
        best
    }
}

/// Fills the histograms of `group`'s columns (at most [`GROUP`]) in one
/// pass over the node's rows and returns the group's best
/// `(feature, bin, gain)`.
fn scan_group(
    binned: &BinnedMatrix,
    params: &TreeParams,
    node: &NodeStats<'_>,
    group: &[usize],
    hist: &mut Histograms,
) -> Option<(usize, usize, f64)> {
    for (&f, slots) in group.iter().zip(hist.iter_mut()) {
        slots[..=binned.thresholds[f].len()].fill(Slot::default());
    }
    let column = |k: usize| binned.feature_bins(group[k]);
    match group.len() {
        4 => fill::<4>(std::array::from_fn(column), node, hist),
        3 => fill::<3>(std::array::from_fn(column), node, hist),
        2 => fill::<2>(std::array::from_fn(column), node, hist),
        _ => fill::<1>(std::array::from_fn(column), node, hist),
    }
    group
        .iter()
        .zip(hist.iter())
        .filter_map(|(&f, slots)| {
            let (bin, gain) = best_bin(&slots[..=binned.thresholds[f].len()], params, node)?;
            Some((f, bin, gain))
        })
        .reduce(first_max)
}

/// Adds every row's `(g, h)` to its bin in each of `W` columns, rows in
/// order, so each bin's sums are the ones a scan of its column alone
/// would make.
fn fill<const W: usize>(columns: [&[u8]; W], node: &NodeStats<'_>, hist: &mut Histograms) {
    for (&r, &(g, h)) in node.rows.iter().zip(node.gh) {
        for (column, slots) in columns.iter().zip(hist.iter_mut()) {
            let slot = &mut slots[usize::from(column[r as usize])];
            slot.g += g;
            slot.h += h;
            slot.n += 1;
        }
    }
}

/// The best split of one column's histogram: the `(bin, gain)` whose
/// split sends bins `0..=bin` left, with the largest gain above `1e-12`
/// and the lowest bin among equal gains.
fn best_bin(slots: &[Slot], params: &TreeParams, node: &NodeStats<'_>) -> Option<(usize, f64)> {
    let n = node.rows.len() as u32;
    let (mut gl, mut hl, mut nl) = (0.0, 0.0, 0u32);
    let mut best: Option<(usize, f64)> = None;
    // The last bin cannot split: it would send every row left.
    let (_, splits) = slots.split_last()?;
    for (b, slot) in splits.iter().enumerate() {
        // An empty bin leaves the left sums as they were, so its gain would
        // repeat one already weighed.
        if slot.n == 0 {
            continue;
        }
        gl += slot.g;
        hl += slot.h;
        nl += slot.n;
        let nr = n - nl;
        // The right side only shrinks from here.
        if (nr as usize) < params.min_samples_leaf {
            break;
        }
        if (nl as usize) < params.min_samples_leaf {
            continue;
        }
        let (gr, hr) = (node.g_total - gl, node.h_total - hl);
        if hl < params.min_child_weight || hr < params.min_child_weight {
            continue;
        }
        let gain =
            gl * gl / (hl + params.lambda) + gr * gr / (hr + params.lambda) - node.parent_score;
        if gain > best.map_or(1e-12, |(_, g)| g) {
            best = Some((b, gain));
        }
    }
    best
}

/// Moves the rows whose bin in `column` is at most `bin` to the front,
/// keeping both sides in row order, and returns how many there are.
/// `spill` holds the other side meanwhile.
fn partition(rows: &mut [u32], column: &[u8], bin: usize, spill: &mut Vec<u32>) -> usize {
    spill.clear();
    let mut mid = 0;
    for i in 0..rows.len() {
        let r = rows[i];
        if usize::from(column[r as usize]) <= bin {
            rows[mid] = r;
            mid += 1;
        } else {
            spill.push(r);
        }
    }
    rows[mid..].copy_from_slice(spill);
    mid
}

/// A dataset pre-binned into quantile bins.
///
/// Bins are stored column-major: feature `f`'s bin indices are one
/// contiguous `[u8]` in row order ([`feature_bins`](Self::feature_bins)). A node's
/// split search reads each column it scans from that one run, at the
/// node's rows; with `r` rows and `c` columns that can split it makes
/// `r × c` histogram adds in `⌈c / 4⌉` passes over the rows, and walks at
/// most `c × MAX_BINS` bins.
#[derive(Debug, Clone)]
pub(crate) struct BinnedMatrix {
    pub n_features: usize,
    n_rows: usize,
    /// Column-major bin indices: feature `f`'s are
    /// `bins[f * n_rows..(f + 1) * n_rows]`.
    bins: Vec<u8>,
    /// Per feature: sorted candidate thresholds; bin `b` holds values
    /// `thresholds[b-1] < x <= thresholds[b]` (bin `len` holds the rest).
    pub thresholds: Vec<Vec<f64>>,
}

impl BinnedMatrix {
    pub fn build(data: &Dataset) -> Self {
        let n = data.len();
        let f_count = data.n_features();
        let mut thresholds = Vec::with_capacity(f_count);
        let mut bins = Vec::with_capacity(n * f_count);
        let mut values = Vec::with_capacity(n);
        let mut col = Vec::with_capacity(n);
        for f in 0..f_count {
            values.clear();
            values.extend((0..n).map(|i| data.row(i)[f]));
            col.clone_from(&values);
            col.sort_by(|a: &f64, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            col.dedup();
            let distinct = col.len();
            let mut th: Vec<f64> = Vec::new();
            if distinct > 1 {
                if distinct <= MAX_BINS {
                    // Midpoints between consecutive distinct values.
                    th.extend(col.windows(2).map(|w| f64::midpoint(w[0], w[1])));
                } else {
                    // Quantile cuts.
                    for q in 1..MAX_BINS {
                        let idx = q * (distinct - 1) / MAX_BINS;
                        let cut = f64::midpoint(col[idx], col[idx + 1]);
                        if th.last() != Some(&cut) {
                            th.push(cut);
                        }
                    }
                }
            }
            bins.extend(values.iter().map(|x| th.partition_point(|t| *x > *t) as u8));
            thresholds.push(th);
        }
        BinnedMatrix {
            n_features: f_count,
            n_rows: n,
            bins,
            thresholds,
        }
    }

    /// Feature `feature`'s bin indices, in row order.
    #[inline]
    pub fn feature_bins(&self, feature: usize) -> &[u8] {
        &self.bins[feature * self.n_rows..(feature + 1) * self.n_rows]
    }

    #[inline]
    pub fn bin(&self, row: usize, feature: usize) -> u8 {
        self.bins[feature * self.n_rows + row]
    }

    /// Number of binned rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Dataset, Vec<f64>) {
        let mut d = Dataset::new(2);
        let mut t = Vec::new();
        for i in 0..200 {
            let x = i as f64 / 10.0;
            d.push_row(&[x, 0.0], false);
            t.push(if x < 10.0 { -2.0 } else { 3.0 });
        }
        (d, t)
    }

    #[test]
    fn fits_step_function() {
        let (d, t) = step_data();
        let tree = RegressionTree::fit(&d, &t, 2);
        assert!((tree.predict(&[2.0, 0.0]) - -2.0).abs() < 1e-9);
        assert!((tree.predict(&[15.0, 0.0]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn depth_zero_is_single_leaf_mean() {
        let (d, t) = step_data();
        let tree = RegressionTree::fit(&d, &t, 0);
        assert_eq!(tree.node_count(), 1);
        let mean = t.iter().sum::<f64>() / t.len() as f64;
        assert!((tree.predict(&[5.0, 0.0]) - mean).abs() < 1e-9);
    }

    #[test]
    fn constant_feature_never_split() {
        let mut d = Dataset::new(1);
        let mut t = Vec::new();
        for i in 0..50 {
            d.push_row(&[7.0], false);
            t.push(i as f64);
        }
        let tree = RegressionTree::fit(&d, &t, 3);
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn interaction_learned_at_depth_two() {
        // target = a + (a AND b): the second-level split on b is only
        // useful inside the a=1 branch.
        let mut d = Dataset::new(2);
        let mut t = Vec::new();
        for i in 0..400 {
            let a = f64::from(i % 2 == 0);
            let b = f64::from((i / 2) % 2 == 0);
            d.push_row(&[a, b], false);
            t.push(a + if a > 0.5 && b > 0.5 { 1.0 } else { 0.0 });
        }
        let deep = RegressionTree::fit(&d, &t, 2);
        assert!((deep.predict(&[1.0, 1.0]) - 2.0).abs() < 1e-9);
        assert!((deep.predict(&[1.0, 0.0]) - 1.0).abs() < 1e-9);
        assert!(deep.predict(&[0.0, 1.0]).abs() < 1e-9);
    }

    #[test]
    fn binning_many_distinct_values() {
        let mut d = Dataset::new(1);
        for i in 0..10_000 {
            d.push_row(&[i as f64], false);
        }
        let binned = BinnedMatrix::build(&d);
        assert!(binned.thresholds[0].len() <= MAX_BINS - 1 + 1);
        // Bins must be monotone in the value.
        let b_lo = binned.bin(10, 0);
        let b_hi = binned.bin(9_990, 0);
        assert!(b_lo < b_hi);
    }

    #[test]
    fn partition_preserves_predicate() {
        let mut rows: Vec<u32> = (0..100).rev().collect();
        let column: Vec<u8> = (0..100).map(|r| u8::from(r % 3 != 0)).collect();
        let mut spill = vec![7];
        let mid = partition(&mut rows, &column, 0, &mut spill);
        assert_eq!(mid, 34);
        // Both sides keep their rows' order.
        let side = |left: bool| (0..100u32).rev().filter(move |r| (r % 3 == 0) == left);
        let want: Vec<u32> = side(true).chain(side(false)).collect();
        assert_eq!(rows, want);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let d = Dataset::new(1);
        let _ = RegressionTree::fit(&d, &[], 2);
    }

    /// The boosting loop's binned raw-score update must be a drop-in for
    /// re-traversing raw feature vectors: same tree, same data, same
    /// bits.
    #[test]
    fn binned_prediction_matches_raw_traversal() {
        let mut d = Dataset::new(3);
        let mut t = Vec::new();
        for i in 0..500 {
            let x = (i % 97) as f64 * 0.31;
            let y = ((i * 7) % 13) as f64 - 6.0;
            d.push_row(&[x, y, x * y], false);
            t.push(if x + y > 10.0 { 1.5 } else { -0.5 });
        }
        let binned = BinnedMatrix::build(&d);
        let tree = RegressionTree::fit(&d, &t, 4);
        for pool in [Pool::new(1), Pool::new(4)] {
            let mut accumulated = vec![0.25; d.len()];
            tree.add_predictions_binned(&binned, 0.1, &mut accumulated, &pool);
            for (i, acc) in accumulated.iter().enumerate() {
                let want = 0.25 + 0.1 * tree.predict(d.row(i));
                assert_eq!(
                    acc.to_bits(),
                    want.to_bits(),
                    "row {i} diverges ({} threads)",
                    pool.threads()
                );
            }
        }
    }

    /// The parallel split search must build the same tree as the serial
    /// one, bit for bit.
    #[test]
    fn parallel_split_search_builds_identical_tree() {
        // 6000 rows × 14 columns, one of them constant: the root's 78k
        // cells are above PAR_SPLIT_MIN_CELLS, in four column groups (the
        // last of one column), so multi-thread pools scan the root and its
        // larger children in parallel.
        const ROWS: usize = 6000;
        const COLS: usize = 14;
        const {
            assert!(ROWS * (COLS - 1) >= PAR_SPLIT_MIN_CELLS);
            assert!((COLS - 1).div_ceil(GROUP) >= 3);
        }
        let mut d = Dataset::new(COLS);
        let mut t = Vec::new();
        for i in 0..ROWS {
            // Column f takes 7 + 13f distinct values; column 5 takes one.
            let row: Vec<f64> = (0..COLS)
                .map(|f| {
                    if f == 5 {
                        1.0
                    } else {
                        ((i * (f + 3)) % (7 + 13 * f)) as f64
                    }
                })
                .collect();
            t.push(row[2] - row[9] * 0.5 + row[13] * 0.01);
            d.push_row(&row, false);
        }
        let binned = BinnedMatrix::build(&d);
        let grads: Vec<f64> = t.iter().map(|v| -v).collect();
        let hess = vec![1.0; t.len()];
        let params = TreeParams {
            max_depth: 5,
            ..TreeParams::default()
        };
        let fit = |threads: usize| {
            let mut rows: Vec<u32> = (0..d.len() as u32).collect();
            let tree = RegressionTree::fit_with_grad(
                &binned,
                &grads,
                &hess,
                &mut rows,
                &params,
                None,
                &Pool::new(threads),
            );
            serde_json::to_string(&tree).unwrap()
        };
        let serial = fit(1);
        assert!(serial.matches("Split").count() > 10, "{serial}");
        for threads in [2, 8] {
            assert_eq!(serial, fit(threads), "{threads} threads");
        }
    }

    #[test]
    fn n_rows_reported() {
        let mut d = Dataset::new(2);
        d.push_row(&[1.0, 2.0], true);
        d.push_row(&[3.0, 4.0], false);
        let binned = BinnedMatrix::build(&d);
        assert_eq!(binned.n_rows(), 2);
    }

    #[test]
    fn importance_accumulates_on_split_feature() {
        let (d, t) = step_data();
        let tree = RegressionTree::fit(&d, &t, 2);
        let mut imp = vec![0.0; 2];
        tree.accumulate_importance(&mut imp);
        assert!(imp[0] > 0.0, "informative feature gains importance");
        assert_eq!(imp[1], 0.0, "constant feature gains none");
    }
}
