//! The search substrate `kyp_search` shipped before its RDN and MLD
//! indexes: `query_domain` walks every document and tests each RDN with
//! a fresh `format!`, and `query` sums into an ordered map over full
//! posting lists, then sorts every scored document. The equivalence
//! properties compare both calls of [`kyp_search::SearchEngine`] against
//! it.

use kyp_search::SearchHit;
use kyp_text::extract_terms;
use std::collections::{BTreeMap, HashMap, HashSet};

#[derive(Debug, Clone)]
struct DocInfo {
    rdn: String,
    mld: String,
    norm: f64,
}

/// The inverted index, documents and postings only.
#[derive(Debug, Clone, Default)]
pub struct RefEngine {
    docs: Vec<DocInfo>,
    postings: HashMap<String, Vec<(u32, f64)>>,
}

impl RefEngine {
    pub fn index_page(&mut self, rdn: &str, mld: &str, text: &str) {
        let id = self.docs.len() as u32;
        let mut tf: BTreeMap<String, f64> = BTreeMap::new();
        for term in extract_terms(text).into_iter().chain(extract_terms(rdn)) {
            *tf.entry(term).or_insert(0.0) += 1.0;
        }
        let norm = tf.values().map(|c| c * c).sum::<f64>().sqrt().max(1.0);
        for (term, count) in tf {
            self.postings.entry(term).or_default().push((id, count));
        }
        self.docs.push(DocInfo {
            rdn: rdn.to_owned(),
            mld: mld.to_owned(),
            norm,
        });
    }

    fn idf(&self, term: &str) -> f64 {
        let df = self.postings.get(term).map_or(0, Vec::len) as f64;
        let n = self.docs.len() as f64;
        ((1.0 + n) / (1.0 + df)).ln() + 1.0
    }

    pub fn query(&self, terms: &[String], k: usize) -> Vec<SearchHit> {
        let mut scores: BTreeMap<u32, f64> = BTreeMap::new();
        for term in terms {
            let idf = self.idf(term);
            if let Some(post) = self.postings.get(term.as_str()) {
                for &(doc, tf) in post {
                    *scores.entry(doc).or_insert(0.0) += tf * idf * idf;
                }
            }
        }
        let mut scored: Vec<(u32, f64)> = scores
            .into_iter()
            .map(|(d, s)| (d, s / self.docs[d as usize].norm))
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    self.docs[a.0 as usize]
                        .rdn
                        .cmp(&self.docs[b.0 as usize].rdn)
                })
        });
        let mut hits: Vec<SearchHit> = Vec::new();
        for (doc, score) in scored {
            let info = &self.docs[doc as usize];
            if hits.iter().any(|h| h.rdn == info.rdn) {
                continue;
            }
            hits.push(SearchHit {
                rdn: info.rdn.clone(),
                mld: info.mld.clone(),
                score,
            });
            if hits.len() >= k {
                break;
            }
        }
        hits
    }

    pub fn query_domain(&self, guess: &str, k: usize) -> Vec<SearchHit> {
        let guess = guess.trim().trim_end_matches('.').to_ascii_lowercase();
        let guess_mld = guess
            .rsplit('.')
            .nth(1)
            .unwrap_or(guess.as_str())
            .to_owned();
        let mut hits = Vec::new();
        let mut seen = HashSet::new();
        for info in &self.docs {
            let matched = guess == info.rdn
                || guess.ends_with(&format!(".{}", info.rdn))
                || info.mld == guess_mld
                || info.mld == guess;
            if matched && seen.insert(info.rdn.clone()) {
                hits.push(SearchHit {
                    rdn: info.rdn.clone(),
                    mld: info.mld.clone(),
                    score: 1.0,
                });
                if hits.len() >= k {
                    break;
                }
            }
        }
        hits
    }
}
