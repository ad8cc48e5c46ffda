//! Regenerates **Fig. 6** (performance vs the scale of data).
//!
//! Scenario 2 training; the test set is grown in ten increments of
//! (10,000 legitimate + 100 phish) at paper scale — proportionally at
//! smaller `--scale` — sampling without replacement from the English set
//! and `phishTest`, re-measuring precision/recall/FPR at each size.
//!
//! Output: one row per increment plus `results/fig6_scalability.dat`.
//!
//! Run: `cargo run --release -p kyp-bench --bin exp_fig6_scalability -- --scale 0.05`

use kyp_bench::{harness, EvalArgs, ExperimentEnv};
use kyp_core::{DetectorConfig, PhishDetector};
use kyp_ml::metrics::Confusion;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fs;
use std::io::Write as _;

fn main() {
    let args = EvalArgs::parse();
    let env = ExperimentEnv::prepare(&args);
    let c = &env.corpus;

    let phish_train: Vec<String> = c.phish_train.iter().map(|r| r.url.clone()).collect();
    let train = harness::scrape_dataset(c, &env.extractor, &c.leg_train, &phish_train);
    let detector = PhishDetector::train(&train, &DetectorConfig::default());

    // Score everything once; the sweep samples score vectors.
    let phish_test: Vec<String> = c.phish_test.iter().map(|r| r.url.clone()).collect();
    let leg_data = harness::scrape_dataset(c, &env.extractor, c.english_test(), &[]);
    let phish_data = harness::scrape_dataset(c, &env.extractor, &[], &phish_test);
    let leg_scores = detector.score_dataset(&leg_data);
    let phish_scores = detector.score_dataset(&phish_data);

    let steps = 10usize;
    let leg_step = (leg_scores.len() / steps).max(1);
    let phish_step = (phish_scores.len() / steps).max(1);

    let mut rng = ChaCha8Rng::seed_from_u64(args.seed);
    let mut leg_order: Vec<usize> = (0..leg_scores.len()).collect();
    let mut phish_order: Vec<usize> = (0..phish_scores.len()).collect();
    leg_order.shuffle(&mut rng);
    phish_order.shuffle(&mut rng);

    fs::create_dir_all("results").expect("create results dir");
    let mut dat = String::from("# Fig.6 sample_size precision recall fpr\n");
    println!("Fig. 6: Performance vs the scale of data (threshold 0.7)");
    println!(
        "{:>10} {:>10} {:>9} {:>9} {:>10}",
        "Legit", "Phish", "Precision", "Recall", "FP Rate"
    );

    for step in 1..=steps {
        let n_leg = (leg_step * step).min(leg_order.len());
        let n_phish = (phish_step * step).min(phish_order.len());
        let mut scores: Vec<f64> = leg_order[..n_leg].iter().map(|&i| leg_scores[i]).collect();
        let mut labels = vec![false; n_leg];
        scores.extend(phish_order[..n_phish].iter().map(|&i| phish_scores[i]));
        labels.extend(std::iter::repeat_n(true, n_phish));

        let conf = Confusion::at_threshold(&scores, &labels, detector.threshold());
        println!(
            "{:>10} {:>10} {:>9.3} {:>9.3} {:>10.5}",
            n_leg,
            n_phish,
            conf.precision(),
            conf.recall(),
            conf.fpr()
        );
        dat.push_str(&format!(
            "{} {:.6} {:.6} {:.6}\n",
            n_leg + n_phish,
            conf.precision(),
            conf.recall(),
            conf.fpr()
        ));
    }

    let mut f = fs::File::create("results/fig6_scalability.dat").expect("create dat");
    f.write_all(dat.as_bytes()).expect("write dat");
    println!();
    println!("Series written to results/fig6_scalability.dat");
}
