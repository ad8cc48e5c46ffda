//! TF-IDF weighting over a document corpus.
//!
//! The paper's own technique deliberately avoids TF-IDF (it is language-
//! and corpus-dependent), but two consumers in this reproduction need it:
//! the Cantina baseline (Zhang et al., WWW'07) selects a page's signature
//! terms by TF-IDF, and the `kyp-search` substrate ranks documents with a
//! TF-IDF cosine score.

use crate::extract_terms;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Document-frequency statistics over a corpus, used to compute IDF.
///
/// # Examples
///
/// ```
/// use kyp_text::tfidf::Corpus;
///
/// let mut corpus = Corpus::new();
/// corpus.add_document("the bank of america bank");
/// corpus.add_document("the grocery store");
/// let top = corpus.top_terms("bank of america online banking", 2);
/// assert_eq!(top[0].0, "banking"); // only in this doc: highest idf
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Corpus {
    // Ordered map (kyp-lint D01): document frequencies are iterated by
    // serialization, and feature pipelines must never observe hash order.
    doc_freq: BTreeMap<String, u32>,
    doc_count: u32,
}

impl Corpus {
    /// Creates an empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one document's text to the corpus statistics.
    pub fn add_document(&mut self, text: &str) {
        let mut seen = std::collections::HashSet::new();
        for term in extract_terms(text) {
            if seen.insert(term.clone()) {
                *self.doc_freq.entry(term).or_insert(0) += 1;
            }
        }
        self.doc_count += 1;
    }

    /// Number of documents added.
    pub fn doc_count(&self) -> u32 {
        self.doc_count
    }

    /// Smoothed inverse document frequency of a term:
    /// `ln((1 + N) / (1 + df)) + 1`.
    pub fn idf(&self, term: &str) -> f64 {
        let df = f64::from(self.doc_freq.get(term).copied().unwrap_or(0));
        let n = f64::from(self.doc_count);
        ((1.0 + n) / (1.0 + df)).ln() + 1.0
    }

    /// TF-IDF scores of a document's terms against this corpus, in
    /// deterministic (term-sorted) order.
    pub fn tfidf(&self, text: &str) -> BTreeMap<String, f64> {
        tfidf_with(text, |t| self.idf(t))
    }

    /// The `k` highest-TF-IDF terms of a document, best first; ties broken
    /// alphabetically for determinism.
    pub fn top_terms(&self, text: &str, k: usize) -> Vec<(String, f64)> {
        top_terms_with(text, k, |t| self.idf(t))
    }

    /// Precomputes every term's IDF into a flat sorted table for batch
    /// scoring. The prepared view returns bit-identical scores to the
    /// corpus it came from: each IDF is evaluated once by the same
    /// formula instead of re-deriving the logarithm per document.
    pub fn prepare(&self) -> PreparedCorpus {
        PreparedCorpus {
            idf: self
                .doc_freq
                .keys()
                .map(|t| (t.clone(), self.idf(t)))
                .collect(),
            default_idf: self.idf(""),
        }
    }
}

/// An immutable IDF table compiled from a [`Corpus`] by
/// [`Corpus::prepare`]: the batch-scoring view used when many documents
/// are weighted against the same frozen corpus (e.g. the Cantina
/// baseline classifying a crawl).
///
/// Every score is **bit-identical** to the corresponding [`Corpus`]
/// method — the logarithms are just computed once per distinct term at
/// preparation time instead of once per document term.
///
/// # Examples
///
/// ```
/// use kyp_text::tfidf::Corpus;
///
/// let mut corpus = Corpus::new();
/// corpus.add_document("the bank of america bank");
/// corpus.add_document("the grocery store");
/// let prepared = corpus.prepare();
/// let doc = "bank of america online banking";
/// assert_eq!(prepared.top_terms(doc, 2), corpus.top_terms(doc, 2));
/// ```
#[derive(Debug, Clone)]
pub struct PreparedCorpus {
    /// `(term, idf)` sorted by term (inherited from the corpus tree).
    idf: Vec<(String, f64)>,
    /// The IDF shared by all unseen terms (`df = 0`).
    default_idf: f64,
}

impl PreparedCorpus {
    /// Smoothed inverse document frequency of a term; same value as
    /// [`Corpus::idf`] on the source corpus.
    pub fn idf(&self, term: &str) -> f64 {
        self.idf
            .binary_search_by(|(t, _)| t.as_str().cmp(term))
            .map_or(self.default_idf, |i| self.idf[i].1)
    }

    /// TF-IDF scores of a document's terms, in deterministic
    /// (term-sorted) order; same values as [`Corpus::tfidf`].
    pub fn tfidf(&self, text: &str) -> BTreeMap<String, f64> {
        tfidf_with(text, |t| self.idf(t))
    }

    /// The `k` highest-TF-IDF terms of a document, best first; ties
    /// broken alphabetically. Same ranking as [`Corpus::top_terms`].
    pub fn top_terms(&self, text: &str, k: usize) -> Vec<(String, f64)> {
        top_terms_with(text, k, |t| self.idf(t))
    }
}

/// TF-IDF scores of `text`'s terms under `idf`, in term-sorted order: the
/// one scorer behind [`Corpus`] and [`PreparedCorpus`], which differ only
/// in how they look the IDF up.
fn tfidf_with(text: &str, idf: impl Fn(&str) -> f64) -> BTreeMap<String, f64> {
    let terms = extract_terms(text);
    let total = terms.len() as f64;
    if total == 0.0 {
        return BTreeMap::new();
    }
    let mut tf: BTreeMap<String, f64> = BTreeMap::new();
    for t in terms {
        *tf.entry(t).or_insert(0.0) += 1.0;
    }
    tf.into_iter()
        .map(|(t, c)| {
            let idf = idf(&t);
            (t, c / total * idf)
        })
        .collect()
}

/// The `k` highest of [`tfidf_with`]'s scores, best first; ties broken
/// alphabetically for determinism.
fn top_terms_with(text: &str, k: usize, idf: impl Fn(&str) -> f64) -> Vec<(String, f64)> {
    let mut scored: Vec<(String, f64)> = tfidf_with(text, idf).into_iter().collect();
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idf_decreases_with_document_frequency() {
        let mut c = Corpus::new();
        c.add_document("common rare");
        c.add_document("common");
        c.add_document("common");
        assert!(c.idf("rare") > c.idf("common"));
        assert!(c.idf("unseen") > c.idf("rare"));
    }

    #[test]
    fn tfidf_empty_document() {
        let mut c = Corpus::new();
        c.add_document("something");
        assert!(c.tfidf("").is_empty());
        assert!(c.top_terms("12 34", 5).is_empty());
    }

    #[test]
    fn top_terms_ranks_distinctive_terms_first() {
        let mut c = Corpus::new();
        for _ in 0..50 {
            c.add_document("the and for with login page");
        }
        c.add_document("paypal account verification");
        let top = c.top_terms("paypal login page paypal verification", 2);
        assert_eq!(top[0].0, "paypal");
        assert!(top.len() == 2);
    }

    #[test]
    fn doc_freq_counts_documents_not_occurrences() {
        let mut c = Corpus::new();
        c.add_document("term term term");
        c.add_document("other");
        // df(term) == 1, so idf(term) == idf of a once-seen term.
        let mut c2 = Corpus::new();
        c2.add_document("term");
        c2.add_document("other");
        assert!((c.idf("term") - c2.idf("term")).abs() < 1e-12);
    }

    #[test]
    fn prepared_corpus_is_bit_identical_to_source() {
        let mut c = Corpus::new();
        for _ in 0..30 {
            c.add_document("the and for with login page");
        }
        c.add_document("paypal account verification");
        c.add_document("bank of america online banking");
        let p = c.prepare();
        let docs = [
            "paypal login page paypal verification",
            "bank of america online banking",
            "unseen terms entirely",
            "",
        ];
        for d in docs {
            for term in ["paypal", "login", "the", "unseen", ""] {
                assert_eq!(p.idf(term).to_bits(), c.idf(term).to_bits(), "{term:?}");
            }
            let a = c.tfidf(d);
            let b = p.tfidf(d);
            assert_eq!(a.len(), b.len(), "{d:?}");
            for ((ta, va), (tb, vb)) in a.iter().zip(&b) {
                assert_eq!(ta, tb);
                assert_eq!(va.to_bits(), vb.to_bits(), "{d:?} term {ta}");
            }
            assert_eq!(c.top_terms(d, 3), p.top_terms(d, 3), "{d:?}");
        }
    }

    #[test]
    fn top_terms_deterministic_on_ties() {
        let c = Corpus::new();
        let a = c.top_terms("zebra apple zebra apple", 2);
        let b = c.top_terms("apple zebra apple zebra", 2);
        assert_eq!(a, b);
    }
}
