//! Keyterm extraction (Section V-A): a small set of terms characterising
//! the brand/service a page talks about.
//!
//! A *keyterm* is a term that appears in several user-visible data sources
//! of the page. Three extraction variants are used in sequence by the
//! target identifier:
//!
//! - **boosted prominent terms** — intersection candidates over all five
//!   visible sources;
//! - **prominent terms** — like boosted, but the text∩links intersection
//!   alone does not qualify a term (news sites repeat link anchors in
//!   text, which would flood the list with irrelevant terms);
//! - **OCR prominent terms** — terms read off the screenshot by OCR that
//!   also occur in at least one other source (handles image-based pages,
//!   at the cost of a slow OCR pass).

use crate::{DataSources, Source};
use kyp_text::DictionaryBuilder;
use kyp_web::ocr::{simulate_ocr, OcrConfig};
use kyp_web::VisitedPage;
use std::cmp::Reverse;

/// The paper's keyterm list length (N=5, "proved to be a sufficient
/// number to represent a webpage").
pub const DEFAULT_KEYTERM_COUNT: usize = 5;

/// The five user-visible term sets of Section V-A, as source masks:
/// `T_start ∪ T_startrdn ∪ T_land ∪ T_landrdn`, `T_title`, `T_text`,
/// `T_copyright`, and `T_intlink ∪ T_extlink` (FreeURL terms of HREF
/// links).
const URL_SET: u16 =
    Source::Start.bit() | Source::Startrdn.bit() | Source::Land.bit() | Source::Landrdn.bit();
const TITLE_SET: u16 = Source::Title.bit();
const TEXT_SET: u16 = Source::Text.bit();
const COPYRIGHT_SET: u16 = Source::Copyright.bit();
const LINKS_SET: u16 = Source::Intlink.bit() | Source::Extlink.bit();

/// Every visible source: their term counts rank keyterms.
const VISIBLE: u16 = URL_SET | TITLE_SET | TEXT_SET | COPYRIGHT_SET | LINKS_SET;

/// Terms of every *controlled* data source (Section III-A: everything
/// but the external links).
const CONTROLLED: u16 = Source::Text.bit()
    | Source::Title.bit()
    | Source::Copyright.bit()
    | Source::Start.bit()
    | Source::Land.bit()
    | Source::Startrdn.bit()
    | Source::Landrdn.bit()
    | Source::Intlog.bit()
    | Source::Intlink.bit()
    | Source::Intrdn.bit();

/// Per-term facts about one page, indexed by the page dictionary's term
/// ids: which sources hold each term, how often the visible sources use
/// it, and how often all of the page's sources do. Keyterm extraction
/// and target identification read these instead of building term sets.
#[derive(Debug)]
pub(crate) struct TermIndex<'a> {
    sources: &'a DataSources,
    /// Per term: a [`Source::bit`] for every source holding it.
    masks: Vec<u16>,
    /// Per term: occurrences across the visible sources — the keyterm
    /// ranking criterion.
    visible: Vec<u32>,
    /// Per term: occurrences across every page source (the image
    /// excepted) — a candidate target's appearances.
    appearances: Vec<usize>,
}

impl<'a> TermIndex<'a> {
    /// Indexes the page's sources.
    pub(crate) fn new(sources: &'a DataSources) -> Self {
        let n = sources.dictionary().len();
        let mut index = TermIndex {
            sources,
            masks: vec![0; n],
            visible: vec![0; n],
            appearances: vec![0; n],
        };
        for source in Source::ALL {
            if source == Source::Image {
                continue;
            }
            let bit = source.bit();
            for &(id, count) in sources.run(source) {
                let id = id as usize;
                if let Some(mask) = index.masks.get_mut(id) {
                    *mask |= bit;
                }
                if bit & VISIBLE != 0 {
                    if let Some(v) = index.visible.get_mut(id) {
                        *v += count;
                    }
                }
                if let Some(a) = index.appearances.get_mut(id) {
                    *a += count as usize;
                }
            }
        }
        index
    }

    fn mask(&self, id: u32) -> u16 {
        self.masks.get(id as usize).copied().unwrap_or(0)
    }

    /// In how many of the five visible sets the term occurs, with flags
    /// for the text and links memberships (needed by the *prominent*
    /// variant).
    fn membership(&self, id: u32) -> (usize, bool, bool) {
        let mask = self.mask(id);
        let in_text = mask & TEXT_SET != 0;
        let in_links = mask & LINKS_SET != 0;
        let count = usize::from(mask & URL_SET != 0)
            + usize::from(mask & TITLE_SET != 0)
            + usize::from(in_text)
            + usize::from(mask & COPYRIGHT_SET != 0)
            + usize::from(in_links);
        (count, in_text, in_links)
    }

    /// Ranks candidate terms by visible frequency, ties by term, and
    /// returns the top `n`.
    fn top(&self, mut candidates: Vec<u32>, n: usize) -> Vec<String> {
        candidates.sort_unstable_by_key(|&id| {
            (
                Reverse(self.visible.get(id as usize).copied().unwrap_or(0)),
                id,
            )
        });
        let dict = self.sources.dictionary();
        candidates
            .into_iter()
            .take(n)
            .map(|id| dict.term(id).to_owned())
            .collect()
    }

    /// Ids of every term of the page.
    fn ids(&self) -> impl Iterator<Item = u32> {
        0..self.masks.len() as u32
    }

    /// The top-`n` boosted prominent terms.
    pub(crate) fn boosted(&self, n: usize) -> Vec<String> {
        let candidates = self
            .ids()
            .filter(|&id| self.membership(id).0 >= 2)
            .collect();
        self.top(candidates, n)
    }

    /// The top-`n` prominent terms.
    pub(crate) fn prominent(&self, n: usize) -> Vec<String> {
        let candidates = self
            .ids()
            .filter(|&id| {
                let (count, in_text, in_links) = self.membership(id);
                count >= 2 && !(count == 2 && in_text && in_links)
            })
            .collect();
        self.top(candidates, n)
    }

    /// The top-`n` OCR prominent terms.
    pub(crate) fn ocr_prominent(
        &self,
        page: &VisitedPage,
        ocr: &OcrConfig,
        n: usize,
    ) -> Vec<String> {
        let mut read = DictionaryBuilder::new(1);
        read.push(0, &simulate_ocr(&page.screenshot_text, ocr));
        let read = read.into_dictionary();
        let dict = self.sources.dictionary();
        let candidates = read
            .run(0)
            .iter()
            .filter_map(|&(id, _)| dict.find(read.term(id)))
            .filter(|&id| self.membership(id).0 >= 1)
            .collect();
        self.top(candidates, n)
    }

    /// `true` when a controlled source holds `term`.
    pub(crate) fn is_controlled(&self, term: &str) -> bool {
        self.sources
            .dictionary()
            .find(term)
            .is_some_and(|id| self.mask(id) & CONTROLLED != 0)
    }

    /// The controlled terms that `canon` contains, in term order.
    pub(crate) fn controlled_within<'s>(&'s self, canon: &'s str) -> impl Iterator<Item = &'s str> {
        let dict = self.sources.dictionary();
        self.ids()
            .filter(move |&id| self.mask(id) & CONTROLLED != 0)
            .map(move |id| dict.term(id))
            .filter(move |term| canon.contains(term))
    }

    /// How often the page's sources hold `term`, summed over sources.
    pub(crate) fn appearances(&self, term: &str) -> usize {
        self.sources
            .dictionary()
            .find(term)
            .and_then(|id| self.appearances.get(id as usize).copied())
            .unwrap_or(0)
    }
}

/// Extracts the top-`n` **boosted prominent terms**: terms occurring in at
/// least two of the five visible sources, ranked by overall frequency.
pub fn boosted_prominent_terms(sources: &DataSources, n: usize) -> Vec<String> {
    TermIndex::new(sources).boosted(n)
}

/// Extracts the top-`n` **prominent terms**: like boosted, but a term
/// whose only two sources are text and HREF links does not qualify.
pub fn prominent_terms(sources: &DataSources, n: usize) -> Vec<String> {
    TermIndex::new(sources).prominent(n)
}

/// Extracts the top-`n` **OCR prominent terms**: terms recognised on the
/// page screenshot that also occur in at least one other visible source.
pub fn ocr_prominent_terms(
    page: &VisitedPage,
    sources: &DataSources,
    ocr: &OcrConfig,
    n: usize,
) -> Vec<String> {
    TermIndex::new(sources).ocr_prominent(page, ocr, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::test_pages::{legit, phish};

    #[test]
    fn boosted_finds_brand_terms_on_phish() {
        let p = phish();
        let s = DataSources::from_page(&p);
        let terms = boosted_prominent_terms(&s, 5);
        assert!(
            terms.contains(&"paypal".to_string()),
            "expected paypal in {terms:?}"
        );
        assert!(terms.len() <= 5);
    }

    #[test]
    fn boosted_finds_brand_on_legit() {
        let l = legit();
        let s = DataSources::from_page(&l);
        let terms = boosted_prominent_terms(&s, 5);
        assert!(
            terms.contains(&"mybank".to_string()),
            "expected mybank in {terms:?}"
        );
    }

    #[test]
    fn prominent_drops_text_link_only_terms() {
        // Build a news-like page: "mortgages" appears in text and in a link
        // anchor URL, nowhere else.
        let mut l = legit();
        l.title = "Daily News".into();
        l.copyright = None;
        let s = DataSources::from_page(&l);
        let boosted = boosted_prominent_terms(&s, 20);
        let prominent = prominent_terms(&s, 20);
        // "mortgages" is in text and intlink FreeURL only.
        assert!(boosted.contains(&"mortgages".to_string()));
        assert!(!prominent.contains(&"mortgages".to_string()));
    }

    #[test]
    fn ocr_terms_come_from_screenshot() {
        let mut p = phish();
        // Image-based page: no HTML text, brand only in the rendering.
        p.text = String::new();
        p.screenshot_text = "PayPal please sign in with your paypal password".into();
        let s = DataSources::from_page(&p);
        let cfg = OcrConfig {
            substitution_rate: 0.0,
            drop_rate: 0.0,
            word_loss_rate: 0.0,
            seed: 0,
        };
        let terms = ocr_prominent_terms(&p, &s, &cfg, 5);
        assert!(terms.contains(&"paypal".to_string()), "{terms:?}");
    }

    #[test]
    fn empty_page_has_no_keyterms() {
        let mut p = phish();
        p.text = String::new();
        p.title = String::new();
        p.copyright = None;
        p.href_links.clear();
        p.logged_links.clear();
        p.screenshot_text = String::new();
        let s = DataSources::from_page(&p);
        // URL still carries "paypal" and "signin" terms, but they appear in
        // a single source now, so nothing qualifies.
        assert!(boosted_prominent_terms(&s, 5).is_empty());
        assert!(prominent_terms(&s, 5).is_empty());
    }

    #[test]
    fn ranking_is_deterministic() {
        let p = phish();
        let s = DataSources::from_page(&p);
        assert_eq!(
            boosted_prominent_terms(&s, 5),
            boosted_prominent_terms(&s, 5)
        );
    }

    #[test]
    fn frequency_ranks_boosted_terms() {
        // A term used in many sources and often must outrank a term that
        // merely crosses the two-source threshold.
        let mut p = phish();
        p.text = "paypal paypal paypal account secure".into();
        p.title = "paypal account".into();
        let s = DataSources::from_page(&p);
        let terms = boosted_prominent_terms(&s, 5);
        assert_eq!(
            terms.first().map(String::as_str),
            Some("paypal"),
            "{terms:?}"
        );
    }

    #[test]
    fn ocr_noise_degrades_gracefully() {
        // Heavy OCR noise loses terms but never invents non-canonical ones.
        let p = phish();
        let s = DataSources::from_page(&p);
        let noisy = kyp_web::ocr::OcrConfig {
            substitution_rate: 0.5,
            drop_rate: 0.3,
            word_loss_rate: 0.3,
            seed: 1,
        };
        let terms = ocr_prominent_terms(&p, &s, &noisy, 5);
        for t in &terms {
            assert!(t.chars().all(|c| c.is_ascii_lowercase()));
            assert!(t.len() >= 3);
        }
    }

    #[test]
    fn visible_sets_membership_counts() {
        let p = phish();
        let s = DataSources::from_page(&p);
        let index = TermIndex::new(&s);
        let id = |term| s.dictionary().find(term).unwrap();
        // "paypal" is visible in url (path), title, text and copyright;
        // the HREF links name it only in their RDN, which is not a
        // visible set.
        assert_eq!(index.membership(id("paypal")), (4, true, false));
        let mask = index.mask(id("paypal"));
        for set in [URL_SET, TITLE_SET, TEXT_SET, COPYRIGHT_SET] {
            assert_ne!(mask & set, 0);
        }
        assert_eq!(mask & LINKS_SET, 0);
        // "signin" is in the starting URL's path only.
        assert_eq!(index.membership(id("signin")), (1, false, false));
        assert!(index.is_controlled("signin"));
        // "help" is in an external HREF link's FreeURL only: visible, but
        // not controlled.
        assert_eq!(index.membership(id("help")), (1, false, true));
        assert!(!index.is_controlled("help"));
    }

    #[test]
    fn n_limits_output() {
        let p = phish();
        let s = DataSources::from_page(&p);
        assert!(boosted_prominent_terms(&s, 2).len() <= 2);
        assert!(boosted_prominent_terms(&s, 0).is_empty());
    }
}
