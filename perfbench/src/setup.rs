//! Inputs shared by the workloads: the seeded corpus and the trained
//! two-stage classifier.

use knowyourphish::core::cascade::train_url_stage;
use knowyourphish::core::{
    CascadeBand, CascadeClassifier, DetectorConfig, FeatureExtractor, PhishDetector, Pipeline,
    TargetIdentifier,
};
use knowyourphish::datagen::{CampaignConfig, Corpus};
use knowyourphish::ml::Dataset;
use knowyourphish::web::{Browser, DomainRanker};
use std::sync::Arc;

/// Share of the paper's dataset sizes (Table V) in the corpus: 2,500
/// English test pages to 30 phishing ones, the paper's 100,000:1,216
/// mix, and 113 legitimate and 30 phishing training pages.
const SCALE: f64 = 0.025;

/// The corpus every workload draws from: Table V scaled by
/// [`CampaignConfig::scaled`].
pub fn campaign(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        ..CampaignConfig::scaled(SCALE)
    }
}

/// Visits `legitimate` then `phishing` and extracts their feature rows
/// (`true` = phishing), as `kyp train` does from a jsonl corpus.
pub fn scrape_dataset(
    corpus: &Corpus,
    extractor: &FeatureExtractor,
    legitimate: &[String],
    phishing: &[String],
) -> Result<Dataset, String> {
    let browser = Browser::new(&corpus.world);
    let mut visits = Vec::with_capacity(legitimate.len() + phishing.len());
    let mut labels = Vec::with_capacity(visits.capacity());
    for (urls, label) in [(legitimate, false), (phishing, true)] {
        for url in urls {
            let visit = browser
                .visit(url)
                .map_err(|e| format!("training page {url} did not load: {e}"))?;
            visits.push(visit);
            labels.push(label);
        }
    }
    let mut data = Dataset::with_capacity(extractor.feature_count(), visits.len());
    for (row, label) in extractor.extract_batch(&visits).iter().zip(labels) {
        data.push_row(row, label);
    }
    Ok(data)
}

/// The full pipeline over `corpus`'s ranking and search engine, with
/// `detector`.
pub fn pipeline(corpus: &Corpus, detector: PhishDetector) -> Pipeline {
    Pipeline::new(
        FeatureExtractor::new(corpus.ranker.clone()),
        detector,
        TargetIdentifier::new(Arc::new(corpus.engine.clone())),
    )
}

/// The URL-only first stage on the default band, trained on the given
/// training URLs.
pub fn cascade(
    legitimate: &[String],
    phishing: &[String],
    ranker: &DomainRanker,
) -> Result<CascadeClassifier, String> {
    let detector = train_url_stage(legitimate, phishing, ranker, &DetectorConfig::url_stage())?;
    Ok(CascadeClassifier::new(
        detector,
        ranker.clone(),
        CascadeBand::default(),
    ))
}
