//! Corpus statistics: structural summaries of generated datasets, used by
//! the Table V census and for sanity-checking generator realism.

use kyp_web::{Browser, VisitedPage, WebWorld};
use std::collections::BTreeMap;

/// Aggregate structural statistics of a set of scraped pages.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PageSetStats {
    /// Number of pages summarised.
    pub pages: usize,
    /// Pages whose landing URL uses HTTPS.
    pub https_pages: usize,
    /// Pages hosted on a raw IP.
    pub ip_hosted: usize,
    /// Pages whose redirection chain crosses more than one RDN.
    pub cross_rdn_redirects: usize,
    /// Pages with at least one credential-style input field.
    pub with_forms: usize,
    /// Mean count of terms in the body text.
    pub mean_text_terms: f64,
    /// Mean number of HREF links per page.
    pub mean_href_links: f64,
    /// Mean fraction of links (logged + HREF) that are internal.
    pub mean_internal_ratio: f64,
    /// Histogram of redirection-chain lengths.
    pub chain_lengths: BTreeMap<usize, usize>,
}

impl PageSetStats {
    /// Summarises the given visited pages.
    pub fn from_visits<'a, I: IntoIterator<Item = &'a VisitedPage>>(visits: I) -> Self {
        let mut stats = PageSetStats::default();
        let mut text_terms = 0usize;
        let mut href_links = 0usize;
        let mut internal_ratio_sum = 0.0;
        let mut ratio_pages = 0usize;
        for v in visits {
            stats.pages += 1;
            if v.landing_url.is_https() {
                stats.https_pages += 1;
            }
            if v.landing_url.host().is_ip() {
                stats.ip_hosted += 1;
            }
            let chain_rdns: std::collections::HashSet<&str> = v
                .redirection_chain
                .iter()
                .map(|u| u.rdn().unwrap_or(u.host_str()))
                .collect();
            if chain_rdns.len() > 1 {
                stats.cross_rdn_redirects += 1;
            }
            if v.input_count > 0 {
                stats.with_forms += 1;
            }
            text_terms += kyp_text::extract_terms(&v.text).len();
            href_links += v.href_links.len();
            let (int_log, ext_log) = v.logged_split();
            let (int_href, ext_href) = v.href_split();
            let internal = int_log.len() + int_href.len();
            let total = internal + ext_log.len() + ext_href.len();
            if total > 0 {
                // kyp-lint: allow(D06) — visits arrive in stored order, so the sum order is fixed
                internal_ratio_sum += internal as f64 / total as f64;
                ratio_pages += 1;
            }
            *stats
                .chain_lengths
                .entry(v.redirection_chain.len())
                .or_insert(0) += 1;
        }
        if stats.pages > 0 {
            stats.mean_text_terms = text_terms as f64 / stats.pages as f64;
            stats.mean_href_links = href_links as f64 / stats.pages as f64;
        }
        if ratio_pages > 0 {
            stats.mean_internal_ratio = internal_ratio_sum / ratio_pages as f64;
        }
        stats
    }

    /// Scrapes `urls` from `world` and summarises the successful visits.
    pub fn from_urls(world: &WebWorld, urls: &[String]) -> Self {
        let browser = Browser::new(world);
        let visits: Vec<VisitedPage> = urls.iter().filter_map(|u| browser.visit(u).ok()).collect();
        Self::from_visits(visits.iter())
    }

    /// One-line human-readable summary.
    pub fn summary_line(&self) -> String {
        format!(
            "{} pages | https {:.0}% | ip {:.1}% | cross-rdn redirect {:.0}% | forms {:.0}% | \
             {:.0} text terms | {:.1} href links | internal {:.0}%",
            self.pages,
            pct(self.https_pages, self.pages),
            pct(self.ip_hosted, self.pages),
            pct(self.cross_rdn_redirects, self.pages),
            pct(self.with_forms, self.pages),
            self.mean_text_terms,
            self.mean_href_links,
            self.mean_internal_ratio * 100.0,
        )
    }
}

fn pct(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CampaignConfig, Corpus};

    #[test]
    fn phish_and_legit_stats_differ_in_the_documented_directions() {
        let corpus = Corpus::generate(&CampaignConfig::tiny());
        let phish_urls: Vec<String> = corpus.phish_test.iter().map(|r| r.url.clone()).collect();
        let phish = PageSetStats::from_urls(&corpus.world, &phish_urls);
        let legit = PageSetStats::from_urls(&corpus.world, corpus.english_test());

        assert_eq!(phish.pages, phish_urls.len());
        // The paper's structural claims, now measurable:
        assert!(
            phish.with_forms as f64 / phish.pages as f64
                > legit.with_forms as f64 / legit.pages as f64,
            "phish harvest credentials more often"
        );
        assert!(
            phish.mean_text_terms < legit.mean_text_terms,
            "phish carry less text ({} vs {})",
            phish.mean_text_terms,
            legit.mean_text_terms
        );
        assert!(
            phish.mean_internal_ratio < legit.mean_internal_ratio,
            "phish load more external content"
        );
        assert!(
            pct(phish.cross_rdn_redirects, phish.pages)
                > pct(legit.cross_rdn_redirects, legit.pages),
            "phish redirect across RDNs more"
        );
    }

    #[test]
    fn empty_set() {
        let stats = PageSetStats::from_visits(std::iter::empty());
        assert_eq!(stats.pages, 0);
        assert_eq!(stats.mean_text_terms, 0.0);
        assert!(!stats.summary_line().is_empty());
    }

    #[test]
    fn chain_length_histogram_counts_pages() {
        let corpus = Corpus::generate(&CampaignConfig::tiny());
        let stats = PageSetStats::from_urls(&corpus.world, corpus.english_test());
        let total: usize = stats.chain_lengths.values().sum();
        assert_eq!(total, stats.pages);
    }
}
