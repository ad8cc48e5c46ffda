#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! The *Know Your Phish* contribution: phishing detection from 212
//! browser-observable features, and search-based target identification.
//!
//! This crate implements Sections III–V of Marchal et al. (ICDCS 2016):
//!
//! - [`DataSources`] — the term distributions of Table I ([`Source`]),
//!   split by the phisher's *control* (internal/external links) and
//!   *constraints* (RDN vs FreeURL) as described in Section III-A, held
//!   in one term dictionary per page;
//! - [`features`] — the 212-feature vector of Section IV-B, grouped into
//!   the five sets of Table III (f1 URL, f2 term-usage consistency,
//!   f3 mld usage, f4 RDN usage, f5 content);
//! - [`PhishDetector`] — the Gradient Boosting classifier of Section IV-C
//!   with the paper's 0.7 discrimination threshold;
//! - [`keyterms`] — boosted prominent / prominent / OCR prominent terms
//!   (Section V-A);
//! - [`TargetIdentifier`] — the five-step identification process of
//!   Section V-B, returning either a legitimacy confirmation or ranked
//!   candidate targets;
//! - [`Pipeline`] — the combined system of Section III-C: the detector
//!   flags potential phish, the target identifier confirms them or
//!   removes false positives.
//!
//! # Examples
//!
//! ```
//! use kyp_core::FeatureExtractor;
//! use kyp_web::{Browser, DomainRanker, Page, WebWorld};
//!
//! let mut world = WebWorld::new();
//! world.add_page("https://mybank.com/", Page::new(
//!     "<title>My Bank</title><body>Welcome to My Bank <a href=\"/login\">login</a></body>"));
//! let visit = Browser::new(&world).visit("https://mybank.com/")?;
//!
//! let extractor = FeatureExtractor::new(DomainRanker::from_ranked(["mybank.com"]));
//! let features = extractor.extract(&visit);
//! assert_eq!(features.len(), kyp_core::features::FEATURE_COUNT);
//! # Ok::<(), kyp_web::VisitError>(())
//! ```

pub mod cascade;
mod detector;
pub mod features;
pub mod keyterms;
mod pipeline;
pub(crate) mod snapshot;
mod sources;
mod target;

pub use cascade::{
    CascadeBand, CascadeClassifier, CascadeCounters, CascadeDecision, UrlFeaturizer, Verdict,
    URL_FEATURE_COUNT,
};
pub use detector::{DetectorConfig, PhishDetector};
pub use features::{ConsistencyMetric, ExtractorConfig, FeatureExtractor, FeatureSet};
/// Re-exported from `kyp-obs`: the stage tag the provenance-carrying
/// [`Verdict`] API attaches to every output.
pub use kyp_obs::VerdictStage;
pub use pipeline::{BatchRun, ClassifiedPage, Pipeline, PipelineVerdict, ScrapeReport};
pub use snapshot::{ModelSnapshot, SnapshotError, MODEL_SNAPSHOT_VERSION, STAGE_FULL, STAGE_URL};
pub use sources::{DataSources, Source};
pub use target::{TargetCandidate, TargetIdentifier, TargetIdentifierConfig, TargetVerdict};
