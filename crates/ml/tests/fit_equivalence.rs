//! Equivalence of the gradient-boosting fit with the pre-change fit kept
//! in `reference/`: on random datasets and parameters, and on one dataset
//! large enough for the parallel split search, the serialized model
//! equals the reference's byte for byte at 1, 2 and 8 threads.

mod reference;

use kyp_ml::{Dataset, GbmParams, GradientBoosting, RegressionTree};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes the tests that set the process-wide thread count.
static THREADS: Mutex<()> = Mutex::new(());

/// The fitted model's JSON at each of 1, 2 and 8 threads.
fn fits_at_each_pool(data: &Dataset, params: &GbmParams) -> Vec<String> {
    let _held = THREADS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let fits = [1, 2, 8]
        .map(|threads| {
            kyp_exec::set_threads(threads);
            serde_json::to_string(&GradientBoosting::fit(data, params)).unwrap()
        })
        .to_vec();
    kyp_exec::set_threads(0);
    fits
}

/// SplitMix64: a column's values and the labels from one seed each.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `rows` rows (at least two, one of each class) of columns given as
/// `(distinct values, share of zeros in 1/8ths, seed)`: one distinct value
/// makes a constant column, two a binary one, a few a tied one and more
/// than 64 a quantile-cut one.
fn dataset(rows: usize, columns: &[(u64, u64, u64)], label_seed: u64) -> Dataset {
    let mut d = Dataset::new(columns.len());
    for i in 0..rows {
        let row: Vec<f64> = columns
            .iter()
            .map(|&(distinct, zeros, seed)| {
                let h = mix(seed ^ i as u64);
                if h % 8 < zeros {
                    0.0
                } else {
                    let level = (h >> 8) % distinct;
                    (level * level) as f64 * 0.37 - 3.0
                }
            })
            .collect();
        let label = match i {
            0 => true,
            1 => false,
            _ => mix(label_seed ^ i as u64).is_multiple_of(3),
        };
        d.push_row(&row, label);
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn gbm_matches_reference(
        rows in 2usize..=600,
        columns in proptest::collection::vec((1u64..=200, 0u64..8, any::<u64>()), 1..=40),
        label_seed in any::<u64>(),
        n_trees in 1usize..=8,
        max_depth in 0usize..=6,
        min_samples_leaf in 0usize..=20,
        lambda in prop_oneof![Just(0.0), Just(1.0)],
        subsample in 0.1f64..1.0,
        colsample in 0.1f64..1.0,
        seed in any::<u64>(),
    ) {
        let data = dataset(rows, &columns, label_seed);
        let params = GbmParams {
            n_trees,
            learning_rate: 0.3,
            max_depth,
            min_samples_leaf,
            lambda,
            subsample,
            colsample,
            seed,
            ..GbmParams::default()
        };
        let want = serde_json::to_string(&reference::fit(&data, &params)).unwrap();
        for (fit, threads) in fits_at_each_pool(&data, &params).iter().zip([1, 2, 8]) {
            prop_assert_eq!(fit, &want, "{} threads", threads);
        }
    }

    #[test]
    fn regression_tree_matches_reference(
        rows in 2usize..=300,
        columns in proptest::collection::vec((1u64..=200, 0u64..8, any::<u64>()), 1..=10),
        max_depth in 0usize..=6,
    ) {
        let data = dataset(rows, &columns, 0);
        let targets: Vec<f64> = (0..rows).map(|i| (mix(i as u64) % 1000) as f64 / 100.0).collect();
        let want = serde_json::to_string(&reference::fit_tree(&data, &targets, max_depth)).unwrap();
        let got = serde_json::to_string(&RegressionTree::fit(&data, &targets, max_depth)).unwrap();
        prop_assert_eq!(got, want);
    }
}

/// 6,000 rows × 15 columns, one constant: every root scans over 2^15
/// cells (`PAR_SPLIT_MIN_CELLS`) in at least three groups of four
/// columns, so 2 and 8 threads take the parallel split search.
#[test]
fn parallel_split_search_matches_reference() {
    let columns: Vec<(u64, u64, u64)> = (0..15u64)
        .map(|f| (if f == 4 { 1 } else { 2 + 11 * f }, f % 5, f))
        .collect();
    let data = dataset(6000, &columns, 99);
    let params = GbmParams {
        n_trees: 6,
        subsample: 0.9,
        colsample: 1.0,
        ..GbmParams::default()
    };
    let want = serde_json::to_string(&reference::fit(&data, &params)).unwrap();
    for (fit, threads) in fits_at_each_pool(&data, &params).iter().zip([1, 2, 8]) {
        assert!(fit == &want, "{threads} threads");
    }
}
