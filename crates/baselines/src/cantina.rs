//! The Cantina baseline (Zhang, Hong, Cranor — WWW'07).
//!
//! Cantina computes the TF-IDF signature of a page (its top-5 terms),
//! queries a search engine with the signature, and declares the page
//! legitimate if its own domain appears in the top results. Unlike the
//! paper's system it needs a TF-IDF corpus (language-dependent) and a
//! live search engine for *every* classification.

use crate::BaselineDetector;
use kyp_search::SearchEngine;
use kyp_text::tfidf::{Corpus as TfIdfCorpus, PreparedCorpus};
use kyp_web::VisitedPage;
use std::sync::Arc;

/// The Cantina detector.
///
/// # Examples
///
/// ```
/// use kyp_baselines::{BaselineDetector, Cantina};
/// use kyp_search::SearchEngine;
/// use kyp_text::tfidf::Corpus;
/// use std::sync::Arc;
///
/// let mut df = Corpus::new();
/// df.add_document("welcome to paypago send money");
/// let mut engine = SearchEngine::new();
/// engine.index_page("paypago.com", "paypago", "paypago send money wallet");
/// let cantina = Cantina::new(Arc::new(engine), df);
/// // (See crate tests for full classification examples.)
/// assert_eq!(cantina.name(), "Cantina");
/// ```
#[derive(Debug, Clone)]
pub struct Cantina {
    engine: Arc<SearchEngine>,
    /// IDF table compiled once at construction: Cantina weighs every
    /// classified page against the same frozen corpus, so the logarithms
    /// are precomputed instead of re-derived per page (bit-identical
    /// scores, see [`kyp_text::tfidf::Corpus::prepare`]).
    df: PreparedCorpus,
    signature_len: usize,
    top_hits: usize,
}

impl Cantina {
    /// Creates a Cantina instance over a search engine and a document-
    /// frequency corpus (built from crawled legitimate pages).
    pub fn new(engine: Arc<SearchEngine>, df: TfIdfCorpus) -> Self {
        Cantina {
            engine,
            df: df.prepare(),
            signature_len: 5,
            top_hits: 10,
        }
    }

    /// The page's TF-IDF signature terms.
    pub fn signature(&self, page: &VisitedPage) -> Vec<String> {
        let doc = format!("{} {}", page.title, page.text);
        self.df
            .top_terms(&doc, self.signature_len)
            .into_iter()
            .map(|(t, _)| t)
            .collect()
    }
}

impl BaselineDetector for Cantina {
    fn name(&self) -> &'static str {
        "Cantina"
    }

    /// 0.0 when the page's own RDN comes back for its signature query,
    /// 1.0 otherwise. Pages with no extractable signature score 1.0
    /// (Cantina's well-known weakness on text-poor pages).
    fn score(&self, page: &VisitedPage) -> f64 {
        let signature = self.signature(page);
        if signature.is_empty() {
            return 1.0;
        }
        let own_rdns = [&page.starting_url, &page.landing_url].map(kyp_url::Url::rdn);
        let hits = self.engine.query(&signature, self.top_hits);
        let confirmed = hits
            .iter()
            .any(|h| own_rdns.contains(&Some(h.rdn.as_str())));
        if confirmed {
            0.0
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{legit, phish};

    fn cantina() -> Cantina {
        let mut df = TfIdfCorpus::new();
        for _ in 0..20 {
            df.add_document("the welcome account sign with your");
        }
        df.add_document("paypago wallet money");
        let mut engine = SearchEngine::new();
        engine.index_page(
            "paypago.com",
            "paypago",
            "paypago wallet send money payments paypago account",
        );
        engine.index_page("news.com", "news", "daily news and weather");
        Cantina::new(Arc::new(engine), df)
    }

    #[test]
    fn legit_page_confirmed_by_own_domain() {
        let c = cantina();
        assert_eq!(c.score(&legit()), 0.0);
        assert!(!c.is_phish(&legit()));
    }

    #[test]
    fn phish_not_confirmed() {
        let c = cantina();
        assert_eq!(c.score(&phish()), 1.0);
        assert!(c.is_phish(&phish()));
    }

    #[test]
    fn signature_contains_distinctive_terms() {
        let c = cantina();
        let sig = c.signature(&legit());
        assert!(sig.contains(&"paypago".to_string()), "{sig:?}");
    }

    #[test]
    fn empty_text_scores_phish() {
        let mut p = phish();
        p.text = String::new();
        p.title = String::new();
        let c = cantina();
        assert_eq!(c.score(&p), 1.0);
    }
}
