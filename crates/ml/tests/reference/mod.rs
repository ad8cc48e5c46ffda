//! The gradient-boosting fit `kyp_ml` shipped before its grouped split
//! search: a row-major `BinnedMatrix`, one column's histogram at a time
//! (`scan_col`), a full bin walk and a two-buffer `partition`. Kept
//! unchanged apart from serial raw-score updates (the parallel ones are
//! the same per-row expression); its trees serialize exactly as
//! `kyp_ml`'s do, so the fit equivalence properties compare bytes.

use kyp_ml::{Dataset, GbmParams};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

const MAX_BINS: usize = 64;

#[derive(Serialize)]
pub enum Node {
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
        gain: f64,
    },
    Leaf {
        value: f64,
    },
}

#[derive(Serialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

#[derive(Serialize)]
pub struct GradientBoosting {
    trees: Vec<RegressionTree>,
    base_score: f64,
    learning_rate: f64,
    n_features: usize,
}

struct TreeParams {
    max_depth: usize,
    min_samples_leaf: usize,
    min_child_weight: f64,
    lambda: f64,
}

/// `kyp_ml::RegressionTree::fit`.
pub fn fit_tree(data: &Dataset, targets: &[f64], max_depth: usize) -> RegressionTree {
    let binned = BinnedMatrix::build(data);
    let grads: Vec<f64> = targets.iter().map(|t| -t).collect();
    let hess = vec![1.0; targets.len()];
    let params = TreeParams {
        max_depth,
        min_samples_leaf: 5,
        min_child_weight: 1e-3,
        lambda: 0.0,
    };
    let mut rows: Vec<u32> = (0..data.len() as u32).collect();
    let cols: Vec<usize> = (0..binned.n_features).collect();
    let mut tree = RegressionTree { nodes: Vec::new() };
    tree.build(&binned, &grads, &hess, &mut rows, &params, &cols, 0);
    tree
}

/// `kyp_ml::GradientBoosting::fit`.
pub fn fit(data: &Dataset, params: &GbmParams) -> GradientBoosting {
    let n = data.len();
    let binned = BinnedMatrix::build(data);
    let base_score = (data.positives() as f64 / data.negatives() as f64).ln();
    let mut raw: Vec<f64> = vec![base_score; n];
    let mut grads = vec![0.0; n];
    let mut hess = vec![0.0; n];
    let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
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
        let mut tree = RegressionTree { nodes: Vec::new() };
        tree.build(&binned, &grads, &hess, rows, &tree_params, &cols, 0);
        tree.add_predictions_binned(&binned, params.learning_rate, &mut raw);
        trees.push(tree);
    }
    GradientBoosting {
        trees,
        base_score,
        learning_rate: params.learning_rate,
        n_features: data.n_features(),
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl RegressionTree {
    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        binned: &BinnedMatrix,
        grads: &[f64],
        hess: &[f64],
        rows: &mut [u32],
        params: &TreeParams,
        cols: &[usize],
        depth: usize,
    ) -> usize {
        let (g_total, h_total) = rows.iter().fold((0.0, 0.0), |(g, h), &r| {
            (g + grads[r as usize], h + hess[r as usize])
        });
        let leaf_value = -g_total / (h_total + params.lambda);
        if depth >= params.max_depth || rows.len() < 2 * params.min_samples_leaf {
            return self.push(Node::Leaf { value: leaf_value });
        }
        let parent_score = g_total * g_total / (h_total + params.lambda);
        let row_view: &[u32] = rows;
        let scan_col = |f: usize| -> Option<(usize, usize, f64)> {
            let n_bins = binned.thresholds[f].len() + 1;
            if n_bins < 2 {
                return None;
            }
            let mut hist_g = [0.0f64; MAX_BINS];
            let mut hist_h = [0.0f64; MAX_BINS];
            let mut hist_n = [0u32; MAX_BINS];
            for &r in row_view {
                let b = binned.bin(r as usize, f) as usize;
                hist_g[b] += grads[r as usize];
                hist_h[b] += hess[r as usize];
                hist_n[b] += 1;
            }
            let (mut gl, mut hl, mut nl) = (0.0, 0.0, 0u32);
            let mut best: Option<(usize, f64)> = None;
            for b in 0..n_bins - 1 {
                gl += hist_g[b];
                hl += hist_h[b];
                nl += hist_n[b];
                let nr = row_view.len() as u32 - nl;
                if (nl as usize) < params.min_samples_leaf
                    || (nr as usize) < params.min_samples_leaf
                {
                    continue;
                }
                let (gr, hr) = (g_total - gl, h_total - hl);
                if hl < params.min_child_weight || hr < params.min_child_weight {
                    continue;
                }
                let gain =
                    gl * gl / (hl + params.lambda) + gr * gr / (hr + params.lambda) - parent_score;
                if gain > best.map_or(1e-12, |(_, g)| g) {
                    best = Some((b, gain));
                }
            }
            best.map(|(b, g)| (f, b, g))
        };
        let mut best: Option<(usize, usize, f64)> = None;
        for cand in cols.iter().filter_map(|&f| scan_col(f)) {
            if cand.2 > best.map_or(1e-12, |(_, _, g)| g) {
                best = Some(cand);
            }
        }
        let Some((feature, bin, gain)) = best else {
            return self.push(Node::Leaf { value: leaf_value });
        };
        let mid = partition(rows, |r| binned.bin(r as usize, feature) as usize <= bin);
        let threshold = binned.thresholds[feature][bin];
        let node_idx = self.push(Node::Split {
            feature,
            threshold,
            left: usize::MAX,
            right: usize::MAX,
            gain,
        });
        let (left_rows, right_rows) = rows.split_at_mut(mid);
        let left = self.build(binned, grads, hess, left_rows, params, cols, depth + 1);
        let right = self.build(binned, grads, hess, right_rows, params, cols, depth + 1);
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

    fn add_predictions_binned(&self, binned: &BinnedMatrix, scale: f64, out: &mut [f64]) {
        let split_bins: Vec<u8> = self
            .nodes
            .iter()
            .map(|node| match node {
                Node::Leaf { .. } => 0,
                Node::Split {
                    feature, threshold, ..
                } => binned.thresholds[*feature].partition_point(|t| *t < *threshold) as u8,
            })
            .collect();
        for (row, r) in out.iter_mut().enumerate() {
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
    }
}

fn partition<F: Fn(u32) -> bool>(rows: &mut [u32], pred: F) -> usize {
    let mut left = Vec::with_capacity(rows.len());
    let mut right = Vec::with_capacity(rows.len());
    for &r in rows.iter() {
        if pred(r) {
            left.push(r);
        } else {
            right.push(r);
        }
    }
    let mid = left.len();
    rows[..mid].copy_from_slice(&left);
    rows[mid..].copy_from_slice(&right);
    mid
}

struct BinnedMatrix {
    n_features: usize,
    /// Row-major bin indices.
    bins: Vec<u8>,
    thresholds: Vec<Vec<f64>>,
}

impl BinnedMatrix {
    fn build(data: &Dataset) -> Self {
        let n = data.len();
        let f_count = data.n_features();
        let mut thresholds = Vec::with_capacity(f_count);
        let mut col = Vec::with_capacity(n);
        for f in 0..f_count {
            col.clear();
            col.extend((0..n).map(|i| data.row(i)[f]));
            col.sort_by(|a: &f64, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            col.dedup();
            let distinct = col.len();
            let mut th: Vec<f64> = Vec::new();
            if distinct > 1 {
                if distinct <= MAX_BINS {
                    th.extend(col.windows(2).map(|w| f64::midpoint(w[0], w[1])));
                } else {
                    for q in 1..MAX_BINS {
                        let idx = q * (distinct - 1) / MAX_BINS;
                        let cut = f64::midpoint(col[idx], col[idx + 1]);
                        if th.last() != Some(&cut) {
                            th.push(cut);
                        }
                    }
                }
            }
            thresholds.push(th);
        }
        let mut bins = vec![0u8; n * f_count];
        for i in 0..n {
            let row = data.row(i);
            for f in 0..f_count {
                let b = thresholds[f].partition_point(|t| row[f] > *t);
                bins[i * f_count + f] = b as u8;
            }
        }
        BinnedMatrix {
            n_features: f_count,
            bins,
            thresholds,
        }
    }

    fn bin(&self, row: usize, feature: usize) -> u8 {
        self.bins[row * self.n_features + feature]
    }
}
