//! The 212-feature set of Section IV-B, grouped per Table III:
//!
//! | set | count | content |
//! |-----|-------|---------|
//! | f1  | 106   | URL lexical statistics (Table IV) |
//! | f2  | 66    | pairwise Hellinger distances between term distributions |
//! | f3  | 22    | usage of the starting/landing mld across sources |
//! | f4  | 13    | RDN usage consistency |
//! | f5  | 5     | webpage content counts |
//!
//! Feature values are plain `f64`; empty data sources produce the paper's
//! "null features" (zeros) rather than errors, so IP-hosted or content-poor
//! pages still yield a full vector.

mod consistency;
mod content;
mod mld_usage;
pub use mld_usage::canonical_mld;
mod rdn_usage;
mod url_stats;
pub(crate) use url_stats::single_url_stats;

use crate::DataSources;
use kyp_url::Url;
use kyp_web::ocr::OcrConfig;
use kyp_web::{DomainRanker, VisitedPage};

/// The four control-split link sets, computed once per page and shared by
/// the f1 and f4 features — the split predicate walks the redirection
/// chain per link, so recomputing it per family is measurable on the hot
/// path.
pub(crate) struct LinkSplits<'a> {
    pub intlog: Vec<&'a Url>,
    pub extlog: Vec<&'a Url>,
    pub intlink: Vec<&'a Url>,
    pub extlink: Vec<&'a Url>,
}

impl<'a> LinkSplits<'a> {
    pub(crate) fn of(page: &'a VisitedPage) -> Self {
        let (intlog, extlog) = page.logged_split();
        let (intlink, extlink) = page.href_split();
        Self {
            intlog,
            extlog,
            intlink,
            extlink,
        }
    }
}

/// Total number of features (the paper's 212).
pub const FEATURE_COUNT: usize = 212;

/// Number of f1 (URL) features.
pub const F1_COUNT: usize = 106;
/// Number of f2 (term-usage consistency) features.
pub const F2_COUNT: usize = 66;
/// Number of f3 (starting/landing mld usage) features.
pub const F3_COUNT: usize = 22;
/// Number of f4 (RDN usage) features.
pub const F4_COUNT: usize = 13;
/// Number of f5 (webpage content) features.
pub const F5_COUNT: usize = 5;

const F1_START: usize = 0;
const F2_START: usize = F1_START + F1_COUNT;
const F3_START: usize = F2_START + F2_COUNT;
const F4_START: usize = F3_START + F3_COUNT;
const F5_START: usize = F4_START + F4_COUNT;

/// The feature groupings evaluated in the paper's Table VII and Figs. 2/5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FeatureSet {
    /// URL features only.
    F1,
    /// Term-usage consistency only.
    F2,
    /// Starting/landing mld usage only.
    F3,
    /// RDN usage only.
    F4,
    /// Webpage content only.
    F5,
    /// f1 ∪ f5.
    F15,
    /// f2 ∪ f3 ∪ f4.
    F234,
    /// The entire 212-feature set.
    All,
}

impl FeatureSet {
    /// Every evaluated feature set, in the paper's presentation order.
    pub const ALL_SETS: [FeatureSet; 8] = [
        FeatureSet::F1,
        FeatureSet::F2,
        FeatureSet::F3,
        FeatureSet::F4,
        FeatureSet::F5,
        FeatureSet::F15,
        FeatureSet::F234,
        FeatureSet::All,
    ];

    /// The column indices of this set within the full feature vector.
    pub fn columns(&self) -> Vec<usize> {
        let range = |start: usize, count: usize| (start..start + count).collect::<Vec<_>>();
        match self {
            FeatureSet::F1 => range(F1_START, F1_COUNT),
            FeatureSet::F2 => range(F2_START, F2_COUNT),
            FeatureSet::F3 => range(F3_START, F3_COUNT),
            FeatureSet::F4 => range(F4_START, F4_COUNT),
            FeatureSet::F5 => range(F5_START, F5_COUNT),
            FeatureSet::F15 => {
                let mut c = range(F1_START, F1_COUNT);
                c.extend(range(F5_START, F5_COUNT));
                c
            }
            FeatureSet::F234 => {
                let mut c = range(F2_START, F2_COUNT);
                c.extend(range(F3_START, F3_COUNT));
                c.extend(range(F4_START, F4_COUNT));
                c
            }
            FeatureSet::All => range(0, FEATURE_COUNT),
        }
    }

    /// The paper's label for this set (`f1`, ..., `fall`).
    pub fn label(&self) -> &'static str {
        match self {
            FeatureSet::F1 => "f1",
            FeatureSet::F2 => "f2",
            FeatureSet::F3 => "f3",
            FeatureSet::F4 => "f4",
            FeatureSet::F5 => "f5",
            FeatureSet::F15 => "f1,5",
            FeatureSet::F234 => "f2,3,4",
            FeatureSet::All => "fall",
        }
    }
}

/// The dissimilarity used by the f2 term-usage-consistency features.
///
/// The paper uses the squared Hellinger distance; the Jaccard set
/// distance is provided for the DESIGN.md ablation (it discards term
/// frequencies, weakening the consistency signal).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ConsistencyMetric {
    /// Squared Hellinger distance over term frequencies (the paper).
    #[default]
    Hellinger,
    /// Jaccard distance over term sets (ablation).
    Jaccard,
}

/// Optional extraction settings beyond the paper's defaults.
#[derive(Debug, Clone, Default)]
pub struct ExtractorConfig {
    /// Dissimilarity for the f2 features.
    pub consistency_metric: ConsistencyMetric,
    /// Extend f2 with the copyright and OCR-image distributions the paper
    /// tabled (Table I) but discarded: 14 distributions → 91 pairs,
    /// giving a 237-feature vector. OCR makes this the slow path.
    pub extended_distributions: bool,
    /// OCR noise profile for the image distribution (extended mode only).
    pub ocr: OcrConfig,
}

/// Total feature count in extended-distribution mode: f1 (106) +
/// extended f2 (91) + f3 (22) + f4 (13) + f5 (5).
pub const EXTENDED_FEATURE_COUNT: usize = FEATURE_COUNT - F2_COUNT + 91;

/// Extracts the full 212-feature vector from scraped pages.
///
/// Owns the local domain ranking (the paper's offline Alexa list) so
/// extraction needs no online access — the usability requirement of
/// Section IV-A.
///
/// # Examples
///
/// See the [crate docs](crate).
#[derive(Debug, Clone, Default)]
pub struct FeatureExtractor {
    ranker: DomainRanker,
    config: ExtractorConfig,
}

impl FeatureExtractor {
    /// Creates an extractor with the given domain ranking and the paper's
    /// default settings (Hellinger, 212 features).
    pub fn new(ranker: DomainRanker) -> Self {
        Self::with_config(ranker, ExtractorConfig::default())
    }

    /// Creates an extractor with explicit settings (ablations).
    pub fn with_config(ranker: DomainRanker, config: ExtractorConfig) -> Self {
        FeatureExtractor { ranker, config }
    }

    /// The domain ranking in use.
    pub fn ranker(&self) -> &DomainRanker {
        &self.ranker
    }

    /// The extraction settings in use.
    pub fn config(&self) -> &ExtractorConfig {
        &self.config
    }

    /// Number of features this extractor produces (212, or 237 in
    /// extended-distribution mode).
    pub fn feature_count(&self) -> usize {
        if self.config.extended_distributions {
            EXTENDED_FEATURE_COUNT
        } else {
            FEATURE_COUNT
        }
    }

    /// Extracts the feature vector from a page.
    pub fn extract(&self, page: &VisitedPage) -> Vec<f64> {
        let splits = LinkSplits::of(page);
        let sources = DataSources::from_page_with_splits(page, &splits, true, None);
        self.extract_observed_with(page, &sources, &splits, &mut kyp_obs::NoopObserver)
    }

    /// Pages per worker chunk in [`FeatureExtractor::extract_batch`]:
    /// large enough to amortise the fan-out, small enough to balance work
    /// across the pool.
    const BATCH_CHUNK: usize = 32;

    /// Extracts feature vectors for a batch of pages, fanning chunks of
    /// pages out over the default [`kyp_exec`] pool.
    ///
    /// Returns one vector per page in input order; element `i` is exactly
    /// `extract(&pages[i])` whatever the thread count.
    pub fn extract_batch(&self, pages: &[VisitedPage]) -> Vec<Vec<f64>> {
        let chunks = kyp_exec::pool().par_chunks(pages, Self::BATCH_CHUNK, |_, chunk| {
            chunk
                .iter()
                .map(|page| self.extract(page))
                .collect::<Vec<_>>()
        });
        chunks.into_iter().flatten().collect()
    }

    /// Extracts feature vectors for a batch of pages into one flat
    /// row-major matrix of `pages.len() * feature_count()` values — the
    /// layout the columnar feature store and `Dataset::push_flat_rows`
    /// consume without re-slicing.
    ///
    /// Row `i` holds exactly `extract(&pages[i])`, whatever the thread
    /// count: the same chunked fan-out as
    /// [`FeatureExtractor::extract_batch`], concatenated in input order.
    pub fn extract_batch_flat(&self, pages: &[VisitedPage]) -> Vec<f64> {
        let width = self.feature_count();
        let chunks = kyp_exec::pool().par_chunks(pages, Self::BATCH_CHUNK, |_, chunk| {
            let mut flat = Vec::with_capacity(chunk.len() * width);
            for page in chunk {
                flat.extend_from_slice(&self.extract(page));
            }
            flat
        });
        let mut out = Vec::with_capacity(pages.len() * width);
        for chunk in chunks {
            out.extend_from_slice(&chunk);
        }
        out
    }

    /// Extracts a complete, finite feature vector from a *partially*
    /// captured page (graceful degradation).
    ///
    /// Sources the scraper could not capture intact contribute their
    /// neutral (null-feature) values instead of half-delivered data: see
    /// [`DataSources::from_partial`]. The result always has
    /// [`FeatureExtractor::feature_count`] entries and every entry is
    /// finite, whatever the availability mask says.
    pub fn extract_degraded(
        &self,
        page: &VisitedPage,
        availability: &kyp_web::SourceAvailability,
    ) -> Vec<f64> {
        let sources = DataSources::from_partial(page, availability);
        self.extract_with_sources(page, &sources)
    }

    /// Extracts features reusing already-computed term distributions
    /// (the keyterm extractor needs the same [`DataSources`]).
    pub fn extract_with_sources(&self, page: &VisitedPage, sources: &DataSources) -> Vec<f64> {
        self.extract_observed_with(
            page,
            sources,
            &LinkSplits::of(page),
            &mut kyp_obs::NoopObserver,
        )
    }

    /// Innermost extraction: sources *and* link splits already computed,
    /// each feature family reported to `obs` as it completes. The hot
    /// paths compute one [`LinkSplits`] per page and share it between
    /// [`DataSources`] and the f1/f4 features. The observer only watches;
    /// the returned vector is identical to the unobserved call.
    pub(crate) fn extract_observed_with(
        &self,
        page: &VisitedPage,
        sources: &DataSources,
        splits: &LinkSplits<'_>,
        obs: &mut dyn kyp_obs::PipelineObserver,
    ) -> Vec<f64> {
        use kyp_obs::FeatureFamily;
        let mut out = Vec::with_capacity(self.feature_count());
        url_stats::push_f1(page, splits, &self.ranker, &mut out);
        obs.feature_family(FeatureFamily::F1Url, out.len());
        let f2_start = out.len();
        if self.config.extended_distributions {
            consistency::push_f2_extended(
                page,
                sources,
                splits,
                &self.config.ocr,
                self.config.consistency_metric,
                &mut out,
            );
        } else {
            consistency::push_f2(sources, self.config.consistency_metric, &mut out);
        }
        obs.feature_family(FeatureFamily::F2TermConsistency, out.len() - f2_start);
        let f3_start = out.len();
        mld_usage::push_f3(page, sources, &mut out);
        obs.feature_family(FeatureFamily::F3MldUsage, out.len() - f3_start);
        let f4_start = out.len();
        rdn_usage::push_f4(page, splits, &mut out);
        obs.feature_family(FeatureFamily::F4RdnUsage, out.len() - f4_start);
        let f5_start = out.len();
        content::push_f5(page, sources, &mut out);
        obs.feature_family(FeatureFamily::F5Content, out.len() - f5_start);
        debug_assert_eq!(out.len(), self.feature_count());
        out
    }
}

/// Human-readable names for all 212 features, in vector order.
pub fn feature_names() -> Vec<String> {
    let mut names = Vec::with_capacity(FEATURE_COUNT);
    url_stats::push_names(&mut names);
    consistency::push_names(&mut names);
    mld_usage::push_names(&mut names);
    rdn_usage::push_names(&mut names);
    content::push_names(&mut names);
    debug_assert_eq!(names.len(), FEATURE_COUNT);
    names
}

#[cfg(test)]
pub(crate) mod test_pages {
    use kyp_url::Url;
    use kyp_web::VisitedPage;

    pub fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    /// A paypal-targeting phish hosted on a throwaway domain.
    pub fn phish() -> VisitedPage {
        VisitedPage {
            starting_url: url("http://login-verify.badhost.tk/paypal/signin?id=77"),
            landing_url: url("http://login-verify.badhost.tk/paypal/signin?id=77"),
            redirection_chain: vec![url("http://login-verify.badhost.tk/paypal/signin?id=77")],
            logged_links: vec![
                url("https://www.paypal.com/logo.png"),
                url("https://www.paypal.com/style.css"),
                url("http://login-verify.badhost.tk/x.js"),
            ],
            href_links: vec![
                url("https://www.paypal.com/help"),
                url("https://www.paypal.com/terms"),
            ],
            text: "log in to your paypal account enter your password".into(),
            title: "PayPal Secure Login".into(),
            copyright: Some("© PayPal Inc".into()),
            screenshot_text: "log in to your paypal account".into(),
            input_count: 3,
            image_count: 4,
            iframe_count: 1,
        }
    }

    /// A legitimate bank front page on its own domain.
    pub fn legit() -> VisitedPage {
        VisitedPage {
            starting_url: url("https://www.mybank.com/"),
            landing_url: url("https://www.mybank.com/welcome"),
            redirection_chain: vec![
                url("https://www.mybank.com/"),
                url("https://www.mybank.com/welcome"),
            ],
            logged_links: vec![
                url("https://www.mybank.com/app.js"),
                url("https://www.mybank.com/main.css"),
                url("https://cdn.jsdelivr.net/lib.js"),
            ],
            href_links: vec![
                url("https://www.mybank.com/accounts"),
                url("https://www.mybank.com/mybank/mortgages"),
                url("https://partner.org/offer"),
            ],
            text: "welcome to mybank online banking accounts mortgages mybank serves you".into(),
            title: "MyBank — Online Banking".into(),
            copyright: Some("© 2015 MyBank Corp".into()),
            screenshot_text: "welcome to mybank online banking".into(),
            input_count: 1,
            image_count: 2,
            iframe_count: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_pages::{legit, phish};

    #[test]
    fn vector_has_212_features() {
        let ex = FeatureExtractor::default();
        assert_eq!(ex.extract(&phish()).len(), FEATURE_COUNT);
        assert_eq!(ex.extract(&legit()).len(), FEATURE_COUNT);
    }

    #[test]
    fn counts_match_table_iii() {
        assert_eq!(F1_COUNT, 106);
        assert_eq!(F2_COUNT, 66);
        assert_eq!(F3_COUNT, 22);
        assert_eq!(F4_COUNT, 13);
        assert_eq!(F5_COUNT, 5);
        assert_eq!(F1_COUNT + F2_COUNT + F3_COUNT + F4_COUNT + F5_COUNT, 212);
    }

    #[test]
    fn feature_set_columns() {
        assert_eq!(FeatureSet::F1.columns().len(), 106);
        assert_eq!(FeatureSet::F2.columns().len(), 66);
        assert_eq!(FeatureSet::F3.columns().len(), 22);
        assert_eq!(FeatureSet::F4.columns().len(), 13);
        assert_eq!(FeatureSet::F5.columns().len(), 5);
        assert_eq!(FeatureSet::F15.columns().len(), 111);
        assert_eq!(FeatureSet::F234.columns().len(), 101);
        assert_eq!(FeatureSet::All.columns().len(), 212);
        // Disjoint base sets cover everything exactly once.
        let mut all: Vec<usize> = [
            FeatureSet::F1,
            FeatureSet::F2,
            FeatureSet::F3,
            FeatureSet::F4,
            FeatureSet::F5,
        ]
        .iter()
        .flat_map(super::FeatureSet::columns)
        .collect();
        all.sort_unstable();
        assert_eq!(all, (0..212).collect::<Vec<_>>());
    }

    #[test]
    fn names_cover_every_feature() {
        let names = feature_names();
        assert_eq!(names.len(), FEATURE_COUNT);
        let distinct: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(distinct.len(), FEATURE_COUNT, "names must be unique");
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = FeatureSet::ALL_SETS
            .iter()
            .map(super::FeatureSet::label)
            .collect();
        assert_eq!(
            labels,
            ["f1", "f2", "f3", "f4", "f5", "f1,5", "f2,3,4", "fall"]
        );
    }

    #[test]
    fn extended_extractor_produces_237() {
        let ex = FeatureExtractor::with_config(
            kyp_web::DomainRanker::default(),
            ExtractorConfig {
                extended_distributions: true,
                ..ExtractorConfig::default()
            },
        );
        assert_eq!(ex.feature_count(), EXTENDED_FEATURE_COUNT);
        assert_eq!(EXTENDED_FEATURE_COUNT, 237);
        let v = ex.extract(&phish());
        assert_eq!(v.len(), 237);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn jaccard_extractor_differs_from_hellinger() {
        let hell = FeatureExtractor::default();
        let jac = FeatureExtractor::with_config(
            kyp_web::DomainRanker::default(),
            ExtractorConfig {
                consistency_metric: ConsistencyMetric::Jaccard,
                ..ExtractorConfig::default()
            },
        );
        let a = hell.extract(&phish());
        let b = jac.extract(&phish());
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b, "metrics must differ on real pages");
        // Non-f2 blocks identical.
        assert_eq!(a[..F2_START], b[..F2_START]);
        assert_eq!(a[F3_START..], b[F3_START..]);
    }

    #[test]
    fn all_values_finite() {
        let ex = FeatureExtractor::default();
        for page in [phish(), legit()] {
            for (i, v) in ex.extract(&page).iter().enumerate() {
                assert!(v.is_finite(), "feature {i} is {v}");
            }
        }
    }

    #[test]
    fn extract_batch_matches_pointwise_in_order() {
        let ex = FeatureExtractor::default();
        let pages: Vec<_> = (0..12)
            .flat_map(|i| {
                let mut p = phish();
                p.input_count = i;
                let mut l = legit();
                l.image_count = i;
                [p, l]
            })
            .collect();
        let batch = ex.extract_batch(&pages);
        assert_eq!(batch.len(), pages.len());
        for (page, features) in pages.iter().zip(&batch) {
            assert_eq!(features, &ex.extract(page));
        }
    }
}
