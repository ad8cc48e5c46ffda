#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! A search-engine substrate for the *Know Your Phish* target
//! identification component.
//!
//! The paper's target identifier (Section V-B) queries a web search engine
//! with keyterms and inspects the registered domain names (RDNs) of the
//! results, under the assumption that *a search engine does not return a
//! phishing site as a top hit* — fresh phish are not yet indexed, old
//! phish are already blacklisted.
//!
//! Offline we realise that assumption literally: [`SearchEngine`] is an
//! inverted index with TF-IDF ranking over the **legitimate** corpus only.
//! The query interface matches what the identification process needs:
//! keyterm queries returning ranked RDNs ([`SearchEngine::query`]) and
//! domain-guess lookups ([`SearchEngine::query_domain`], paper Step 1).
//!
//! # Examples
//!
//! ```
//! use kyp_search::SearchEngine;
//!
//! let mut engine = SearchEngine::new();
//! engine.index_page("bankofamerica.com", "bankofamerica",
//!                   "bank of america sign in online banking america");
//! engine.index_page("weather.com", "weather", "weather forecast rain sun");
//!
//! let hits = engine.query(&["bank".into(), "america".into()], 3);
//! assert_eq!(hits[0].rdn, "bankofamerica.com");
//! ```
//!
//! # Cost
//!
//! Besides the postings, the index keeps an RDN → first page map and an
//! mld → pages map. With `n` pages indexed:
//!
//! - [`SearchEngine::index_page`] walks the page's terms once, without
//!   allocating per term: each occurrence does one keyed lookup of its
//!   term's posting list and either bumps the page's integer
//!   `(page, tf)` posting at the list's end or pushes a new one. Only a
//!   term new to the vocabulary allocates, its one owned key. The page
//!   adds one entry into each of the two maps.
//! - [`SearchEngine::query_domain`] looks up the guess and every suffix
//!   of it after a dot as RDNs, and the guess's mld and the whole guess
//!   as mlds, then merges the pages found in id order: O(labels · hits),
//!   where hits counts the pages found. It walks no other page.
//! - [`SearchEngine::query`] takes one zeroed score slot and one RDN slot
//!   per page (two O(n) allocations, filled in one pass each), adds the
//!   postings of the query terms into them, keeps each RDN's best page
//!   and sorts only the top `k` of those: O(n + postings + k log k).
//!
//! Both queries return owned hits and allocate their own scratch, because
//! one engine is shared read-only by every scoring thread.

use kyp_text::for_each_term;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// One search result: a registered domain with its relevance score.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Registered domain name of the result, e.g. `bankofamerica.com`.
    pub rdn: String,
    /// Main level domain of the result, e.g. `bankofamerica`.
    pub mld: String,
    /// TF-IDF relevance score (higher is better).
    pub score: f64,
}

#[derive(Debug, Clone)]
struct DocInfo {
    rdn: String,
    mld: String,
    norm: f64,
    /// The first document indexed under the same RDN, which stands for
    /// the RDN when a query keeps one document per RDN.
    site: u32,
}

/// An inverted-index search engine over indexed pages.
///
/// See the [crate docs](crate) for the role this plays, an example and
/// what each call costs. Clones share one index: a clone is a reference
/// count bump, and indexing into a shared engine copies the index first.
#[derive(Debug, Clone, Default)]
pub struct SearchEngine {
    index: Arc<Index>,
}

/// The index behind a [`SearchEngine`].
#[derive(Debug, Clone, Default)]
struct Index {
    docs: Vec<DocInfo>,
    /// term → (document id, term frequency) postings, where the term
    /// frequency is the term's count in the document. Hash maps are fine
    /// here and below (kyp-lint D01 permits keyed lookup): they are only
    /// ever read by key, and each list is in document-id order by
    /// construction.
    postings: HashMap<String, Vec<(u32, u32)>>,
    /// RDN → the first document indexed under it. A domain lookup needs
    /// no other: any later document of the RDN would repeat its hit.
    by_rdn: HashMap<String, u32>,
    /// MLD → every document indexed under it.
    by_mld: HashMap<String, Vec<u32>>,
}

impl SearchEngine {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes one page: its RDN, mld and searchable text (title, body,
    /// domain terms — whatever the caller deems visible to a crawler).
    pub fn index_page(&mut self, rdn: &str, mld: &str, text: &str) {
        let index = Arc::make_mut(&mut self.index);
        let id = index.docs.len() as u32;
        let postings = &mut index.postings;
        // Σ tf² over the page's terms, in integers: an occurrence that
        // takes a term's count from t to t + 1 adds 2t + 1. Exact, and
        // the same f64 as a float sum of the squares below 2^53.
        let mut squares = 0_u64;
        let mut count = |term: &str| {
            // The term's count in this page before this occurrence.
            let before = if let Some(list) = postings.get_mut(term) {
                match list.last_mut() {
                    Some((doc, tf)) if *doc == id => {
                        let before = *tf;
                        *tf += 1;
                        before
                    }
                    _ => {
                        list.push((id, 1));
                        0
                    }
                }
            } else {
                postings.insert(term.to_owned(), vec![(id, 1)]);
                0
            };
            squares += 2 * u64::from(before) + 1;
        };
        // Domain terms are searchable too, like a real engine.
        let mut scratch = String::new();
        for_each_term(text, &mut scratch, &mut count);
        for_each_term(rdn, &mut scratch, &mut count);
        let norm = (squares as f64).sqrt().max(1.0);
        let site = if let Some(&first) = index.by_rdn.get(rdn) {
            first
        } else {
            index.by_rdn.insert(rdn.to_owned(), id);
            id
        };
        match index.by_mld.get_mut(mld) {
            Some(docs) => docs.push(id),
            None => {
                index.by_mld.insert(mld.to_owned(), vec![id]);
            }
        }
        index.docs.push(DocInfo {
            rdn: rdn.to_owned(),
            mld: mld.to_owned(),
            norm,
            site,
        });
    }

    /// Number of indexed pages.
    pub fn len(&self) -> usize {
        self.index.docs.len()
    }

    /// `true` when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.index.docs.is_empty()
    }

    /// Inverse document frequency of a term found in `df` documents.
    fn idf(&self, df: usize) -> f64 {
        let df = df as f64;
        let n = self.index.docs.len() as f64;
        ((1.0 + n) / (1.0 + df)).ln() + 1.0
    }

    fn hit(&self, doc: u32, score: f64) -> SearchHit {
        let info = &self.index.docs[doc as usize];
        SearchHit {
            rdn: info.rdn.clone(),
            mld: info.mld.clone(),
            score,
        }
    }

    /// Queries the index with keyterms, returning the top-`k` distinct
    /// RDNs by TF-IDF cosine score (paper Steps 2–4), best first; ties go
    /// to the smaller RDN. Each RDN is scored by its best document, the
    /// lower document id among equals. A `k` of 0 still returns the best
    /// hit.
    pub fn query(&self, terms: &[String], k: usize) -> Vec<SearchHit> {
        // Every document's score starts at 0.0 and takes its shares in
        // query-term order, then posting order, so each sum is the same
        // f64 whatever the container. A share is tf · idf² ≥ 1, so a zero
        // score marks a document no term has touched yet.
        let mut scores = vec![0.0_f64; self.index.docs.len()];
        let mut touched: Vec<u32> = Vec::new();
        for term in terms {
            let Some(post) = self.index.postings.get(term.as_str()) else {
                continue;
            };
            let idf = self.idf(post.len());
            for &(doc, tf) in post {
                let score = &mut scores[doc as usize];
                if *score == 0.0 {
                    touched.push(doc);
                }
                *score += f64::from(tf) * idf * idf;
            }
        }
        // Keep each RDN's best document, indexed by the RDN's site.
        let mut best = vec![u32::MAX; self.index.docs.len()];
        let mut ranked: Vec<u32> = Vec::new();
        for &doc in &touched {
            let info = &self.index.docs[doc as usize];
            scores[doc as usize] /= info.norm;
            let held = &mut best[info.site as usize];
            if *held == u32::MAX {
                ranked.push(info.site);
                *held = doc;
            } else if scores[doc as usize] > scores[*held as usize]
                || (scores[doc as usize] == scores[*held as usize] && doc < *held)
            {
                *held = doc;
            }
        }
        for site in &mut ranked {
            *site = best[*site as usize];
        }
        // RDNs are distinct here, so the order is total and the top k come
        // out the same whichever way the selection partitions.
        let by_rank = |a: &u32, b: &u32| {
            scores[*b as usize]
                .partial_cmp(&scores[*a as usize])
                .unwrap_or(Ordering::Equal)
                .then_with(|| {
                    self.index.docs[*a as usize]
                        .rdn
                        .cmp(&self.index.docs[*b as usize].rdn)
                })
        };
        let take = k.max(1);
        if ranked.len() > take {
            ranked.select_nth_unstable_by(take, by_rank);
            ranked.truncate(take);
        }
        ranked.sort_unstable_by(by_rank);
        ranked
            .into_iter()
            .map(|doc| self.hit(doc, scores[doc as usize]))
            .collect()
    }

    /// Looks up a guessed domain (paper Step 1): returns up to `k`
    /// distinct RDNs, in indexing order, of the documents whose RDN is the
    /// guess or a suffix of it after a dot, or whose mld is the guess's
    /// mld or the whole guess. A `k` of 0 still returns the first hit.
    ///
    /// The guess may be a bare FQDN like `bankofamerica.com` or
    /// `www.bankofamerica.com`.
    pub fn query_domain(&self, guess: &str, k: usize) -> Vec<SearchHit> {
        let guess = guess.trim().trim_end_matches('.').to_ascii_lowercase();
        let guess_mld = guess.rsplit('.').nth(1).unwrap_or(guess.as_str());
        // The guess and every suffix of it after a dot name candidate RDNs.
        let suffixes =
            std::iter::successors(Some(guess.as_str()), |s| s.split_once('.').map(|(_, t)| t));
        let mut lists: Vec<&[u32]> = suffixes
            .filter_map(|rdn| self.index.by_rdn.get(rdn))
            .map(std::slice::from_ref)
            .chain(
                [guess_mld, guess.as_str()]
                    .into_iter()
                    .filter_map(|mld| self.index.by_mld.get(mld))
                    .map(Vec::as_slice),
            )
            .collect();
        // Merge the ascending lists, so each RDN's hit is its first
        // matching document, as in a walk over every document.
        let mut hits: Vec<SearchHit> = Vec::new();
        while let Some(doc) = lists.iter().filter_map(|l| l.first()).min().copied() {
            for list in &mut lists {
                if let Some((&head, rest)) = list.split_first() {
                    if head == doc {
                        *list = rest;
                    }
                }
            }
            let info = &self.index.docs[doc as usize];
            if hits.iter().any(|h| h.rdn == info.rdn) {
                continue;
            }
            hits.push(self.hit(doc, 1.0));
            if hits.len() >= k {
                break;
            }
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> SearchEngine {
        let mut e = SearchEngine::new();
        e.index_page(
            "bankofamerica.com",
            "bankofamerica",
            "bank of america online banking sign in secure america bank",
        );
        e.index_page(
            "paypal.com",
            "paypal",
            "paypal send money online payments account login",
        );
        e.index_page("weather.com", "weather", "weather forecast rain sun cloud");
        e
    }

    #[test]
    fn keyterm_query_ranks_relevant_site_first() {
        let e = engine();
        let hits = e.query(&["bank".into(), "america".into(), "banking".into()], 3);
        assert_eq!(hits[0].rdn, "bankofamerica.com");
        assert_eq!(hits[0].mld, "bankofamerica");
    }

    #[test]
    fn unrelated_terms_return_nothing() {
        let e = engine();
        assert!(e.query(&["zebra".into()], 3).is_empty());
        assert!(e.query(&[], 3).is_empty());
    }

    #[test]
    fn distinctive_term_beats_common_term() {
        let mut e = SearchEngine::new();
        e.index_page("a.com", "a", "login login login login paypal");
        e.index_page("b.com", "b", "login");
        e.index_page("c.com", "c", "login");
        let hits = e.query(&["paypal".into()], 2);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rdn, "a.com");
    }

    #[test]
    fn query_domain_exact_and_fqdn() {
        let e = engine();
        let hits = e.query_domain("bankofamerica.com", 3);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rdn, "bankofamerica.com");
        let www = e.query_domain("www.paypal.com", 3);
        assert_eq!(www[0].rdn, "paypal.com");
    }

    #[test]
    fn query_domain_matches_mld_across_tld() {
        let e = engine();
        // A guess with the wrong TLD still surfaces the brand site.
        let hits = e.query_domain("paypal.net", 3);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rdn, "paypal.com");
    }

    #[test]
    fn query_domain_unknown() {
        let e = engine();
        assert!(e.query_domain("totally-unknown.xyz", 3).is_empty());
    }

    #[test]
    fn multiple_pages_same_rdn_dedup() {
        let mut e = SearchEngine::new();
        e.index_page("x.com", "x", "alpha beta");
        e.index_page("x.com", "x", "alpha gamma");
        let hits = e.query(&["alpha".into()], 5);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn domain_terms_are_searchable() {
        let mut e = SearchEngine::new();
        e.index_page("stripebank.io", "stripebank", "welcome to our site");
        let hits = e.query(&["stripebank".into()], 3);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn duplicate_query_terms_do_not_double_count_ranking() {
        // Repeating a query term scores it twice, but ordering against a
        // clearly better document must not flip.
        let e = engine();
        let once = e.query(&["bank".into(), "america".into()], 3);
        let dup = e.query(&["bank".into(), "bank".into(), "america".into()], 3);
        assert_eq!(once[0].rdn, dup[0].rdn);
    }

    #[test]
    fn scores_are_positive_and_ordered() {
        let e = engine();
        let hits = e.query(&["online".into(), "account".into()], 5);
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        assert!(hits.iter().all(|h| h.score > 0.0));
    }

    #[test]
    fn empty_engine_is_silent() {
        let e = SearchEngine::new();
        assert!(e.is_empty());
        assert!(e.query(&["anything".into()], 5).is_empty());
        assert!(e.query_domain("paypago.com", 5).is_empty());
    }

    #[test]
    fn query_domain_trailing_dot_and_case() {
        let e = engine();
        assert_eq!(e.query_domain("PayPal.COM.", 3).len(), 1);
    }

    #[test]
    fn clones_share_the_index_until_one_indexes() {
        let mut a = engine();
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.index, &b.index));
        let terms: Vec<String> = vec!["bank".into(), "online".into(), "sun".into()];
        assert_eq!(a.query(&terms, 5), b.query(&terms, 5));
        assert_eq!(
            a.query_domain("paypal.net", 5),
            b.query_domain("paypal.net", 5)
        );
        let before = (b.query(&terms, 5), b.query_domain("sunbank.com", 5));
        a.index_page("sunbank.com", "sunbank", "sun bank online");
        assert!(!Arc::ptr_eq(&a.index, &b.index));
        assert_eq!((a.len(), b.len()), (4, 3));
        assert_ne!(a.query(&terms, 5), before.0);
        assert_eq!(
            (b.query(&terms, 5), b.query_domain("sunbank.com", 5)),
            before
        );
        assert_eq!(a.query_domain("sunbank.com", 5)[0].rdn, "sunbank.com");
    }

    #[test]
    fn k_limits_results() {
        let mut e = SearchEngine::new();
        for i in 0..10 {
            e.index_page(
                &format!("site{i}.com"),
                &format!("site{i}"),
                "common word here",
            );
        }
        assert_eq!(e.query(&["common".into()], 3).len(), 3);
        assert_eq!(e.len(), 10);
    }
}
