//! Scrape-and-featurise plumbing shared by the experiment binaries.

use kyp_core::FeatureExtractor;
use kyp_datagen::{check_scale, CampaignConfig, Corpus};
use kyp_ml::Dataset;
use kyp_web::{Browser, VisitedPage};
use std::path::Path;

/// Command-line arguments common to every experiment binary.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalArgs {
    /// Fraction of the paper's Table V sizes to generate.
    pub scale: f64,
    /// Corpus seed.
    pub seed: u64,
    /// Worker threads from `--threads <n>`; `None` keeps [`kyp_exec`]'s
    /// default.
    pub threads: Option<usize>,
}

impl Default for EvalArgs {
    fn default() -> Self {
        EvalArgs {
            scale: 0.05,
            seed: 2015,
            threads: None,
        }
    }
}

impl EvalArgs {
    /// Parses the process arguments with [`EvalArgs::from_args`] and
    /// makes `--threads` the process-wide [`kyp_exec`] thread count.
    ///
    /// A bad argument prints one line naming the binary and the problem
    /// to stderr, then exits with status 1.
    pub fn parse() -> Self {
        let mut argv = std::env::args();
        let argv0 = argv.next().unwrap_or_default();
        let program = Path::new(&argv0).file_stem().unwrap_or_default();
        match Self::from_args(argv) {
            Ok(args) => {
                if let Some(n) = args.threads {
                    kyp_exec::set_threads(n);
                }
                args
            }
            Err(e) => {
                eprintln!("{}: {e}", program.to_string_lossy());
                std::process::exit(1);
            }
        }
    }

    /// Parses `--scale <f>`, `--seed <n>` and `--threads <n>` from an
    /// argument list that excludes the program name. Any other argument,
    /// a missing or malformed value, a `--scale` that
    /// [`kyp_datagen::check_scale`] refuses, or a `--threads` that is not
    /// one positive integer is
    /// an error; a repeated option keeps its last value.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut parsed = EvalArgs::default();
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            if !matches!(flag.as_str(), "--scale" | "--seed" | "--threads") {
                return Err(format!(
                    "unknown option {flag:?} (options: --scale <f>, --seed <n>, --threads <n>)"
                ));
            }
            let Some(value) = iter.next() else {
                return Err(format!(
                    "option {flag} is missing a value (expected {flag} <value>)"
                ));
            };
            let invalid = |want: &str| format!("invalid {flag} {value:?} (want {want})");
            match flag.as_str() {
                "--scale" => {
                    let scale: f64 = value.parse().map_err(|_| invalid("a number"))?;
                    check_scale(scale).map_err(|want| invalid(&want))?;
                    parsed.scale = scale;
                }
                "--seed" => {
                    parsed.seed = value
                        .parse()
                        .map_err(|_| invalid("a non-negative integer"))?;
                }
                _ => match value.parse::<usize>() {
                    Ok(n) if n >= 1 => parsed.threads = Some(n),
                    _ => return Err(invalid("a positive integer")),
                },
            }
        }
        Ok(parsed)
    }

    /// The campaign configuration for these arguments.
    pub fn campaign(&self) -> CampaignConfig {
        let mut c = CampaignConfig::scaled(self.scale);
        c.seed = self.seed;
        c
    }
}

/// A generated corpus plus the extractor wired to its domain ranking.
#[derive(Debug)]
pub struct ExperimentEnv {
    /// The generated corpus.
    pub corpus: Corpus,
    /// Feature extractor using the corpus's ranking.
    pub extractor: FeatureExtractor,
}

impl ExperimentEnv {
    /// Generates the corpus for `args` and reports its size on stderr.
    pub fn prepare(args: &EvalArgs) -> Self {
        let cfg = args.campaign();
        eprintln!(
            "[env] generating corpus (scale {:.3}, seed {}): {} phish train, {} phish test, {} leg train, {} English test",
            args.scale, args.seed, cfg.phish_train, cfg.phish_test, cfg.leg_train, cfg.english_test
        );
        let corpus = Corpus::generate(&cfg);
        let extractor = FeatureExtractor::new(corpus.ranker.clone());
        eprintln!("[env] world hosts {} entries", corpus.world_len());
        ExperimentEnv { corpus, extractor }
    }
}

/// Scrapes a URL list into visited pages. URLs that fail to load are
/// skipped with a warning (the paper's datasets were cleaned the same
/// way: unavailable pages removed).
pub fn scrape_visits(corpus: &Corpus, urls: &[String]) -> Vec<VisitedPage> {
    let browser = Browser::new(&corpus.world);
    let mut visits = Vec::with_capacity(urls.len());
    for url in urls {
        match browser.visit(url) {
            Ok(v) => visits.push(v),
            Err(e) => eprintln!("[scrape] skipping {url}: {e}"),
        }
    }
    visits
}

/// Scrapes URL lists into a labeled feature dataset
/// (`true` = phishing).
///
/// Visits run serially (the simulated browser is sequential state);
/// feature extraction fans out over the default [`kyp_exec`] pool. Row
/// order — legitimate pages then phishing, failures skipped — and every
/// feature value match the serial path bit for bit.
pub fn scrape_dataset(
    corpus: &Corpus,
    extractor: &FeatureExtractor,
    legitimate: &[String],
    phishing: &[String],
) -> Dataset {
    let browser = Browser::new(&corpus.world);
    let mut visits = Vec::with_capacity(legitimate.len() + phishing.len());
    let mut labels = Vec::with_capacity(legitimate.len() + phishing.len());
    for (urls, label) in [(legitimate, false), (phishing, true)] {
        for url in urls {
            match browser.visit(url) {
                Ok(v) => {
                    visits.push(v);
                    labels.push(label);
                }
                Err(e) => eprintln!("[scrape] skipping {url}: {e}"),
            }
        }
    }
    let rows = extractor.extract_batch(&visits);
    let mut data = Dataset::with_capacity(extractor.feature_count(), rows.len());
    for (features, label) in rows.iter().zip(labels) {
        data.push_row(features, label);
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use kyp_core::{DetectorConfig, PhishDetector};
    use kyp_ml::metrics;

    fn parse(args: &str) -> Result<EvalArgs, String> {
        EvalArgs::from_args(args.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn no_arguments_give_the_defaults() {
        let args = parse("").unwrap();
        assert_eq!(args, EvalArgs::default());
        assert_eq!(args.scale, 0.05);
        assert_eq!(args.seed, 2015);
        assert_eq!(args.threads, None);
    }

    #[test]
    fn every_option_is_read_and_the_last_repeat_wins() {
        let args = parse("--seed 7 --scale 0.1 --threads 2 --scale 0.02");
        let expected = EvalArgs {
            scale: 0.02,
            seed: 7,
            threads: Some(2),
        };
        assert_eq!(args, Ok(expected));
    }

    #[test]
    fn unknown_options_and_stray_arguments_are_refused() {
        for (args, bad) in [
            ("--scael 0.2", "--scael"),
            ("0.2", "0.2"),
            ("--help", "--help"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(&format!("unknown option {bad:?}")), "{err}");
        }
    }

    #[test]
    fn a_missing_value_is_refused() {
        for flag in ["--scale", "--seed", "--threads"] {
            let err = parse(&format!("--seed 7 {flag}")).unwrap_err();
            let want = format!("option {flag} is missing a value");
            assert!(err.contains(&want), "{err}");
        }
    }

    #[test]
    fn malformed_values_are_refused() {
        let cases = [
            ("--scale abc", "invalid --scale \"abc\" (want a number)"),
            (
                "--seed -1",
                "invalid --seed \"-1\" (want a non-negative integer)",
            ),
            ("--seed 7.5", "invalid --seed \"7.5\""),
            (
                "--threads 0",
                "invalid --threads \"0\" (want a positive integer)",
            ),
            ("--threads 1,2,4", "invalid --threads \"1,2,4\""),
            ("--threads two", "invalid --threads \"two\""),
        ];
        for (args, want) in cases {
            let err = parse(args).unwrap_err();
            assert!(err.contains(want), "{args}: {err}");
        }
    }

    #[test]
    fn scales_that_are_not_finite_and_positive_are_refused() {
        for scale in ["inf", "-inf", "nan", "NaN", "0", "-0", "-1", "1e300", "1e6"] {
            let err = parse(&format!("--scale {scale}")).unwrap_err();
            assert_eq!(
                err,
                format!("invalid --scale {scale:?} (want a finite number > 0 and at most 10)")
            );
        }
        assert_eq!(parse("--scale 1e-9").unwrap().scale, 1e-9);
        assert_eq!(parse("--scale 10").unwrap().scale, 10.0);
    }

    /// End-to-end learnability: on a small corpus, the full 212-feature
    /// detector must separate phish from legitimate pages nearly
    /// perfectly, as in the paper (AUC ≈ 0.99+).
    #[test]
    fn end_to_end_detector_learns() {
        let cfg = CampaignConfig {
            seed: 11,
            phish_train: 120,
            phish_test: 120,
            phish_brand: 10,
            leg_train: 400,
            english_test: 400,
            other_language_test: 10,
        };
        let corpus = Corpus::generate(&cfg);
        let extractor = FeatureExtractor::new(corpus.ranker.clone());

        let train_phish: Vec<String> = corpus.phish_train.iter().map(|r| r.url.clone()).collect();
        let test_phish: Vec<String> = corpus.phish_test.iter().map(|r| r.url.clone()).collect();

        let train = scrape_dataset(&corpus, &extractor, &corpus.leg_train, &train_phish);
        let test = scrape_dataset(&corpus, &extractor, corpus.english_test(), &test_phish);
        assert!(train.len() >= 500);

        let detector = PhishDetector::train(&train, &DetectorConfig::default());
        let scores = detector.score_dataset(&test);
        let auc = metrics::auc(&scores, test.labels());
        assert!(auc > 0.97, "end-to-end AUC too low: {auc}");

        let conf = metrics::Confusion::at_threshold(&scores, test.labels(), 0.7);
        assert!(conf.recall() > 0.8, "recall {}", conf.recall());
        assert!(conf.fpr() < 0.05, "fpr {}", conf.fpr());
    }
}
