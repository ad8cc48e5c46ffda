//! A Ma-et-al.-style URL-lexical detector (KDD'09, "Beyond Blacklists").
//!
//! Classifies from the URL string alone — hashed URL tokens plus a few
//! numeric statistics — with online logistic regression. Fast and
//! content-free, but blind to everything the page serves, which is why
//! the paper's content-aware features dominate it at equal training data.

use crate::BaselineDetector;
use kyp_ml::{hash_feature, SparseLogisticRegression};
use kyp_text::extract_terms;
use kyp_url::Url;
use kyp_web::VisitedPage;

/// The URL-lexical baseline.
///
/// # Examples
///
/// ```
/// use kyp_baselines::{BaselineDetector, UrlLexical};
/// let m = UrlLexical::new();
/// assert_eq!(m.name(), "URL-lexical");
/// ```
#[derive(Debug, Clone)]
pub struct UrlLexical {
    model: SparseLogisticRegression,
}

impl Default for UrlLexical {
    fn default() -> Self {
        Self::new()
    }
}

impl UrlLexical {
    /// Creates an untrained model.
    pub fn new() -> Self {
        UrlLexical {
            model: SparseLogisticRegression::new(0.08, 1e-6),
        }
    }

    /// Sparse features of a URL: hashed host/path/query tokens and scaled
    /// numeric statistics (length, label count, digits, https).
    pub fn featurize_url(url: &Url) -> Vec<(u64, f64)> {
        let mut f: Vec<(u64, f64)> = Vec::new();
        let free = url.free_url();
        for t in extract_terms(url.host_str()) {
            f.push((hash_feature("host", &t), 1.0));
        }
        if let Some(ps) = url.public_suffix() {
            f.push((hash_feature("tld", ps), 1.0));
        }
        for t in extract_terms(&free.path)
            .into_iter()
            .chain(extract_terms(&free.query))
        {
            f.push((hash_feature("path", &t), 1.0));
        }
        f.push((hash_feature("num", "len"), url.len() as f64 / 64.0));
        f.push((
            hash_feature("num", "labels"),
            url.level_domain_count() as f64 / 4.0,
        ));
        f.push((hash_feature("num", "dots"), free.dot_count() as f64 / 4.0));
        f.push((
            hash_feature("num", "digits"),
            url.as_str().chars().filter(char::is_ascii_digit).count() as f64 / 8.0,
        ));
        f.push((hash_feature("num", "https"), f64::from(url.is_https())));
        f.push((hash_feature("num", "ip"), f64::from(url.host().is_ip())));
        f
    }

    /// Features for a visited page: its starting URL (what a URL filter
    /// sees before any page load).
    pub fn featurize(page: &VisitedPage) -> Vec<(u64, f64)> {
        Self::featurize_url(&page.starting_url)
    }

    /// Trains for `epochs` passes.
    pub fn train(&mut self, pages: &[(VisitedPage, bool)], epochs: usize) {
        let examples: Vec<(Vec<(u64, f64)>, bool)> = pages
            .iter()
            .map(|(p, y)| (Self::featurize(p), *y))
            .collect();
        self.model.fit(&examples, epochs);
    }

    /// Online update from a single example (the original system is an
    /// online learner).
    pub fn update(&mut self, page: &VisitedPage, label: bool) {
        self.model.update(&Self::featurize(page), label);
    }
}

impl BaselineDetector for UrlLexical {
    fn name(&self) -> &'static str {
        "URL-lexical"
    }

    fn score(&self, page: &VisitedPage) -> f64 {
        self.model.predict_proba(&Self::featurize(page))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{legit, phish};

    #[test]
    fn learns_url_shapes() {
        let mut m = UrlLexical::new();
        m.train(&[(phish(), true), (legit(), false)], 60);
        assert!(m.score(&phish()) > 0.8);
        assert!(m.score(&legit()) < 0.2);
    }

    #[test]
    fn online_updates_move_score() {
        let mut m = UrlLexical::new();
        let before = m.score(&phish());
        for _ in 0..30 {
            m.update(&phish(), true);
        }
        assert!(m.score(&phish()) > before);
    }

    #[test]
    fn content_blindness() {
        // Same URL, totally different page content → identical score.
        let mut m = UrlLexical::new();
        m.train(&[(phish(), true), (legit(), false)], 30);
        let mut altered = phish();
        altered.text = "completely different content".into();
        altered.title = "other".into();
        assert_eq!(m.score(&phish()), m.score(&altered));
    }

    #[test]
    fn ip_urls_featurized() {
        let url = crate::fixtures::url("http://10.2.3.4/login");
        let f = UrlLexical::featurize_url(&url);
        assert!(f
            .iter()
            .any(|(id, v)| *id == hash_feature("num", "ip") && *v == 1.0));
    }
}
