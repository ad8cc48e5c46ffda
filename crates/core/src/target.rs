//! Target identification (Section V-B): decide whether a suspected page
//! is legitimate, and if not, which brand it impersonates.
//!
//! The five-step process, implemented verbatim:
//!
//! 1. Extract *boosted prominent terms*; collect mlds from the page's URLs
//!    and links; for every collected mld that can be *composed* from the
//!    keyterms (separated by dashes or digits), query the search engine
//!    with the guessed domain. If the suspected RDN comes back → the page
//!    is legitimate.
//! 2. Query the engine with the *prominent terms*. Suspected RDN in the
//!    results → legitimate. Result mlds that appear in a controlled data
//!    source become candidate targets → step 5.
//! 3. Same as 2 with *boosted prominent terms*.
//! 4. Same as 2 with *OCR prominent terms* (slow path, image-based pages).
//! 5. Rank candidates by how often they appear across the page's data
//!    sources; return the top 1–3.

use crate::keyterms::{TermIndex, DEFAULT_KEYTERM_COUNT};
use crate::DataSources;
use kyp_search::{SearchEngine, SearchHit};
use kyp_text::extract_terms;
use kyp_url::Url;
use kyp_web::ocr::OcrConfig;
use kyp_web::VisitedPage;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Number of search results inspected per query.
const SEARCH_RESULTS: usize = 10;

/// Maximum candidates returned (the paper evaluates top-1/2/3).
const MAX_CANDIDATES: usize = 3;

/// Configuration of the target identifier.
#[derive(Debug, Clone, Default)]
pub struct TargetIdentifierConfig {
    /// OCR noise profile for step 4.
    pub ocr: OcrConfig,
}

/// One candidate target brand, ranked by appearances in the page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetCandidate {
    /// The brand's main level domain, e.g. `paypal`.
    pub mld: String,
    /// The brand's registered domain, e.g. `paypal.com`.
    pub rdn: String,
    /// How many times the mld appears across the page's data sources.
    pub appearances: usize,
}

/// Outcome of target identification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetVerdict {
    /// The page's own domain came back from a search — deemed legitimate.
    Legitimate {
        /// Which step (1–4) confirmed legitimacy.
        step: u8,
    },
    /// Candidate targets found: the page impersonates `candidates[0]`
    /// (best first).
    Phish {
        /// Ranked candidate targets (at most three).
        candidates: Vec<TargetCandidate>,
    },
    /// No legitimacy confirmation and no target found (the paper's
    /// "suspicious" outcome in Section VI-D).
    Unknown,
}

impl TargetVerdict {
    /// The best candidate mld, if the verdict is `Phish`.
    pub fn top_target(&self) -> Option<&str> {
        match self {
            TargetVerdict::Phish { candidates } => candidates.first().map(|c| c.mld.as_str()),
            _ => None,
        }
    }

    /// `true` when `mld` is among the top-`k` candidates.
    pub fn has_target_in_top(&self, mld: &str, k: usize) -> bool {
        match self {
            TargetVerdict::Phish { candidates } => candidates.iter().take(k).any(|c| c.mld == mld),
            _ => false,
        }
    }
}

/// The target identification system of Section V.
///
/// Holds a handle to the search-engine substrate (shared with other
/// components) and the process configuration.
///
/// # Examples
///
/// ```
/// use kyp_core::{TargetIdentifier, TargetVerdict};
/// use kyp_search::SearchEngine;
/// use kyp_web::{Browser, Page, WebWorld};
/// use std::sync::Arc;
///
/// let mut engine = SearchEngine::new();
/// engine.index_page("mybank.com", "mybank", "mybank online banking welcome mybank");
///
/// let mut world = WebWorld::new();
/// world.add_page("https://mybank.com/", Page::new(
///     "<title>MyBank</title><body>Welcome to mybank banking <a href=\"/login\">mybank login</a></body>"));
/// let visit = Browser::new(&world).visit("https://mybank.com/")?;
///
/// let ident = TargetIdentifier::new(Arc::new(engine));
/// assert!(matches!(ident.identify(&visit), TargetVerdict::Legitimate { .. }));
/// # Ok::<(), kyp_web::VisitError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TargetIdentifier {
    engine: Arc<SearchEngine>,
    config: TargetIdentifierConfig,
}

impl TargetIdentifier {
    /// Creates an identifier with default configuration.
    pub fn new(engine: Arc<SearchEngine>) -> Self {
        Self::with_config(engine, TargetIdentifierConfig::default())
    }

    /// Creates an identifier with explicit configuration.
    pub fn with_config(engine: Arc<SearchEngine>, config: TargetIdentifierConfig) -> Self {
        TargetIdentifier { engine, config }
    }

    /// Runs the five-step identification process on a page.
    pub fn identify(&self, page: &VisitedPage) -> TargetVerdict {
        let sources = DataSources::from_page(page);
        self.identify_with_sources(page, &sources)
    }

    /// Like [`identify`](Self::identify) but reuses precomputed term
    /// distributions.
    pub fn identify_with_sources(
        &self,
        page: &VisitedPage,
        sources: &DataSources,
    ) -> TargetVerdict {
        self.identify_with_sources_observed(page, sources, &mut kyp_obs::NoopObserver)
    }

    /// Like [`identify_with_sources`](Self::identify_with_sources),
    /// reporting each identification step's outcome to `obs`. The
    /// observer only watches; the verdict is identical to the unobserved
    /// call.
    pub fn identify_with_sources_observed(
        &self,
        page: &VisitedPage,
        sources: &DataSources,
        obs: &mut dyn kyp_obs::PipelineObserver,
    ) -> TargetVerdict {
        use kyp_obs::TargetStepOutcome;
        let n = DEFAULT_KEYTERM_COUNT;
        let suspected = suspected_rdns(page);
        let terms = TermIndex::new(sources);

        // ---- Step 1: guess the target FQDN from boosted prominent terms.
        let boosted = terms.boosted(n);
        let collected = collect_mlds(page);
        for (mld, rdn) in &collected {
            if !composable(mld, &boosted) {
                continue;
            }
            let hits = self.engine.query_domain(rdn, SEARCH_RESULTS);
            if hits.iter().any(|h| suspected.contains(h.rdn.as_str())) {
                obs.target_step(1, &TargetStepOutcome::ConfirmedLegitimate);
                return TargetVerdict::Legitimate { step: 1 };
            }
        }
        obs.target_step(1, &TargetStepOutcome::Continue);

        // ---- Steps 2-4: keyterm searches over the prominent, boosted and
        // OCR prominent terms. Each step reports its outcome before step 5
        // (candidate ranking) reports the final cut. The OCR terms are the
        // slow path, so they are computed only when steps 2 and 3 continue.
        let ocr_terms =
            std::iter::once_with(|| (4, terms.ocr_prominent(page, &self.config.ocr, n)));
        let keyterm_steps = [(2, terms.prominent(n)), (3, boosted)]
            .into_iter()
            .chain(ocr_terms);
        for (step, keyterms) in keyterm_steps {
            match self.search_step(&keyterms, &suspected, &terms) {
                StepOutcome::Legitimate => {
                    obs.target_step(step, &TargetStepOutcome::ConfirmedLegitimate);
                    return TargetVerdict::Legitimate { step };
                }
                StepOutcome::Candidates(c) => {
                    obs.target_step(step, &TargetStepOutcome::Candidates { count: c.len() });
                    return Self::step5(page, &terms, c, obs);
                }
                StepOutcome::Continue => obs.target_step(step, &TargetStepOutcome::Continue),
            }
        }
        TargetVerdict::Unknown
    }

    fn search_step(
        &self,
        terms: &[String],
        suspected: &BTreeSet<&str>,
        page_terms: &TermIndex<'_>,
    ) -> StepOutcome {
        if terms.is_empty() {
            return StepOutcome::Continue;
        }
        let hits = self.engine.query(terms, SEARCH_RESULTS);
        if hits.iter().any(|h| suspected.contains(h.rdn.as_str())) {
            return StepOutcome::Legitimate;
        }
        let candidates: Vec<SearchHit> = hits
            .into_iter()
            .filter(|h| mld_appears_in(&h.mld, page_terms))
            .collect();
        if candidates.is_empty() {
            StepOutcome::Continue
        } else {
            StepOutcome::Candidates(candidates)
        }
    }

    /// Step 5: rank candidate mlds by appearances across the page,
    /// reporting the final (capped) candidate count.
    fn step5(
        page: &VisitedPage,
        page_terms: &TermIndex<'_>,
        hits: Vec<SearchHit>,
        obs: &mut dyn kyp_obs::PipelineObserver,
    ) -> TargetVerdict {
        let mut candidates: Vec<TargetCandidate> = Vec::new();
        for hit in hits {
            if candidates.iter().any(|c| c.mld == hit.mld) {
                continue;
            }
            let appearances = count_appearances(&hit.mld, page, page_terms);
            candidates.push(TargetCandidate {
                mld: hit.mld,
                rdn: hit.rdn,
                appearances,
            });
        }
        candidates.sort_by(|a, b| {
            b.appearances
                .cmp(&a.appearances)
                .then_with(|| a.mld.cmp(&b.mld))
        });
        candidates.truncate(MAX_CANDIDATES);
        obs.target_step(
            5,
            &kyp_obs::TargetStepOutcome::Candidates {
                count: candidates.len(),
            },
        );
        TargetVerdict::Phish { candidates }
    }
}

enum StepOutcome {
    Legitimate,
    Candidates(Vec<SearchHit>),
    Continue,
}

/// RDNs of the suspected page itself (starting and landing URLs).
fn suspected_rdns(page: &VisitedPage) -> BTreeSet<&str> {
    [&page.starting_url, &page.landing_url]
        .into_iter()
        .filter_map(Url::rdn)
        .collect()
}

/// mld/RDN pairs collected from the page's URLs and links (paper Step 1).
fn collect_mlds(page: &VisitedPage) -> Vec<(&str, &str)> {
    let mut out: Vec<(&str, &str)> = Vec::new();
    let mut push = |url| {
        if let (Some(mld), Some(rdn)) = (Url::mld(url), Url::rdn(url)) {
            if !out.iter().any(|(_, r)| *r == rdn) {
                out.push((mld, rdn));
            }
        }
    };
    push(&page.starting_url);
    push(&page.landing_url);
    for u in page.logged_links.iter().chain(&page.href_links) {
        push(u);
    }
    out
}

/// Whether a candidate mld "appears in" the page's controlled sources
/// (Section III-A: everything but the external links): either verbatim
/// as a term, or composable from their terms.
fn mld_appears_in(mld: &str, page_terms: &TermIndex<'_>) -> bool {
    let canon = crate::features::canonical_mld(mld);
    if canon.is_empty() {
        return false;
    }
    if page_terms.is_controlled(&canon) {
        return true;
    }
    let parts: Vec<String> = page_terms
        .controlled_within(&canon)
        .map(str::to_owned)
        .collect();
    composable(mld, &parts)
}

/// Whether `mld` can be composed from `keyterms`, possibly separated by a
/// dash or a string of digits (paper Step 1). Short filler runs of at most
/// two letters (e.g. the "of" in `bankofamerica`) are tolerated, capped at
/// three filler letters overall, and at least one keyterm must be used.
///
/// Whether the rest of the mld can be consumed depends only on the
/// position, the filler letters left and whether a keyterm was used, so
/// each such state is solved once and remembered: O(len × Σ|keyterm|),
/// where plain backtracking is exponential on a hostile label such as
/// `aaa…abbbb` against keyterms `aaa`, `aaaa`, ….
pub(crate) fn composable(mld: &str, keyterms: &[String]) -> bool {
    const MAX_FILLER: usize = 3;
    let mld = mld.to_ascii_lowercase();
    if keyterms.is_empty() || mld.is_empty() {
        return false;
    }
    fn rec(
        s: &[u8],
        pos: usize,
        filler_left: usize,
        used_keyterm: bool,
        keyterms: &[String],
        memo: &mut [Option<bool>],
    ) -> bool {
        let Some(&byte) = s.get(pos) else {
            // Consumed the whole mld.
            return used_keyterm;
        };
        let state = (pos * (MAX_FILLER + 1) + filler_left) * 2 + usize::from(used_keyterm);
        if let Some(&Some(known)) = memo.get(state) {
            return known;
        }
        let c = byte as char;
        let answer = if c == '-' || c.is_ascii_digit() {
            // Separator characters are free.
            rec(s, pos + 1, filler_left, used_keyterm, keyterms, memo)
        } else {
            // Try each keyterm as a prefix, then tolerate a short filler
            // letter. An empty keyterm is skipped: it would consume
            // nothing and lead back to this same state.
            let rest = s.get(pos..).unwrap_or_default();
            keyterms.iter().any(|k| {
                let kb = k.as_bytes();
                !kb.is_empty()
                    && rest.starts_with(kb)
                    && rec(s, pos + kb.len(), filler_left, true, keyterms, memo)
            }) || (filler_left > 0
                && c.is_ascii_alphabetic()
                && rec(s, pos + 1, filler_left - 1, used_keyterm, keyterms, memo))
        };
        if let Some(slot) = memo.get_mut(state) {
            *slot = Some(answer);
        }
        answer
    }
    let mut memo = vec![None; mld.len() * (MAX_FILLER + 1) * 2];
    rec(mld.as_bytes(), 0, MAX_FILLER, false, keyterms, &mut memo)
}

/// How many times a candidate mld appears across the page's data sources:
/// term occurrences in every distribution plus links whose RDN contains it.
fn count_appearances(mld: &str, page: &VisitedPage, page_terms: &TermIndex<'_>) -> usize {
    let canon = crate::features::canonical_mld(mld);
    if canon.is_empty() {
        return 0;
    }
    let mut count = page_terms.appearances(&canon);
    for u in page.logged_links.iter().chain(&page.href_links) {
        if let Some(rdn) = u.rdn() {
            let rdn_terms = extract_terms(rdn).join("");
            if rdn_terms.contains(&canon) {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::test_pages::{legit, phish};
    use proptest::prelude::*;

    fn engine() -> Arc<SearchEngine> {
        let mut e = SearchEngine::new();
        e.index_page(
            "paypal.com",
            "paypal",
            "paypal account login send money online payments paypal secure",
        );
        e.index_page(
            "mybank.com",
            "mybank",
            "mybank online banking welcome accounts mortgages mybank",
        );
        e.index_page("weather.com", "weather", "weather forecast sun rain");
        Arc::new(e)
    }

    #[test]
    fn phish_target_identified() {
        let ident = TargetIdentifier::new(engine());
        let verdict = ident.identify(&phish());
        assert_eq!(verdict.top_target(), Some("paypal"));
        assert!(verdict.has_target_in_top("paypal", 1));
    }

    #[test]
    fn legit_site_confirmed() {
        let ident = TargetIdentifier::new(engine());
        let verdict = ident.identify(&legit());
        assert!(
            matches!(verdict, TargetVerdict::Legitimate { .. }),
            "got {verdict:?}"
        );
    }

    #[test]
    fn hintless_page_is_unknown() {
        // A credential-harvesting page with no brand hint anywhere
        // (the paper's 17 "unknown target" pages).
        let mut p = phish();
        p.text = "enter your details below to continue".into();
        p.title = "Account verification".into();
        p.copyright = None;
        p.screenshot_text = p.text.clone();
        p.href_links.clear();
        p.logged_links.clear();
        p.starting_url = crate::features::test_pages::url("http://xgh-3321.tk/v/f?x=1");
        p.landing_url = p.starting_url.clone();
        p.redirection_chain = vec![p.starting_url.clone()];
        let ident = TargetIdentifier::new(engine());
        assert_eq!(ident.identify(&p), TargetVerdict::Unknown);
    }

    #[test]
    fn composable_paper_examples() {
        let kt = |s: &[&str]| {
            s.iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>()
        };
        // bankofamerica from {bank, america}: "of" is filler.
        assert!(composable("bankofamerica", &kt(&["bank", "america"])));
        // Dash and digit separators.
        assert!(composable("pay-pal2secure", &kt(&["pay", "pal", "secure"])));
        // Not composable from unrelated terms.
        assert!(!composable("bankofamerica", &kt(&["weather", "forecast"])));
        // Requires at least one keyterm.
        assert!(!composable("ab", &kt(&["weather"])));
        assert!(!composable("bank", &[]));
    }

    #[test]
    fn composable_rejects_long_fillers() {
        let kt = vec!["bank".to_string()];
        assert!(!composable("bankinternational", &kt));
        assert!(composable("bank-24", &kt));
    }

    #[test]
    fn composable_answers_a_hostile_label_at_once() {
        // Every split of the 59 `a`s into keyterms fails only at the
        // fourth `b`, so backtracking tries them all: tens of minutes.
        let kt: Vec<String> = (3..=7).map(|n| "a".repeat(n)).collect();
        let label = format!("{}bbbb", "a".repeat(59));
        assert_eq!(label.len(), 63);
        assert!(!composable(&label, &kt));
        assert!(composable(&label[..62], &kt));
    }

    /// `composable` before memoisation: plain backtracking.
    fn composable_backtracking(mld: &str, keyterms: &[String]) -> bool {
        let mld = mld.to_ascii_lowercase();
        if keyterms.is_empty() || mld.is_empty() {
            return false;
        }
        fn rec(
            s: &[u8],
            pos: usize,
            filler_left: usize,
            used_keyterm: bool,
            keyterms: &[String],
        ) -> bool {
            let Some(&byte) = s.get(pos) else {
                return used_keyterm;
            };
            let c = byte as char;
            if c == '-' || c.is_ascii_digit() {
                return rec(s, pos + 1, filler_left, used_keyterm, keyterms);
            }
            let rest = s.get(pos..).unwrap_or_default();
            for k in keyterms {
                let kb = k.as_bytes();
                if rest.starts_with(kb) && rec(s, pos + kb.len(), filler_left, true, keyterms) {
                    return true;
                }
            }
            if filler_left > 0 && c.is_ascii_alphabetic() {
                return rec(s, pos + 1, filler_left - 1, used_keyterm, keyterms);
            }
            false
        }
        rec(mld.as_bytes(), 0, 3, false, keyterms)
    }

    /// Short mlds, mostly over two letters so that keyterms overlap.
    fn short_mld() -> impl Strategy<Value = String> {
        prop_oneof!["[abAB1-]{0,14}", "[a-z0-9-]{0,10}"]
    }

    fn short_keyterm() -> impl Strategy<Value = String> {
        prop_oneof!["[ab]{1,4}", "[a-z]{1,3}"]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        #[test]
        fn composable_matches_backtracking(
            mld in short_mld(),
            keyterms in collection::vec(short_keyterm(), 0..5),
        ) {
            prop_assert_eq!(
                composable(&mld, &keyterms),
                composable_backtracking(&mld, &keyterms),
                "{:?} from {:?}",
                mld,
                keyterms
            );
        }
    }

    #[test]
    fn image_based_phish_found_via_ocr() {
        let mut p = phish();
        // Strip HTML text/title so steps 2-3 have nothing to work with;
        // brand only on the screenshot and in external links.
        p.text = String::new();
        p.title = String::new();
        p.copyright = None;
        p.screenshot_text = "PayPal sign in paypal secure payments paypal".into();
        let cfg = TargetIdentifierConfig {
            ocr: kyp_web::ocr::OcrConfig {
                substitution_rate: 0.0,
                drop_rate: 0.0,
                word_loss_rate: 0.0,
                seed: 0,
            },
        };
        let ident = TargetIdentifier::with_config(engine(), cfg);
        let verdict = ident.identify(&p);
        assert_eq!(verdict.top_target(), Some("paypal"), "got {verdict:?}");
    }

    #[test]
    fn candidates_capped_at_max() {
        let ident = TargetIdentifier::new(engine());
        if let TargetVerdict::Phish { candidates } = ident.identify(&phish()) {
            assert!(candidates.len() <= 3);
            // Ranked: appearances non-increasing.
            for w in candidates.windows(2) {
                assert!(w[0].appearances >= w[1].appearances);
            }
        } else {
            panic!("expected phish verdict");
        }
    }

    #[test]
    fn verdict_helpers() {
        let v = TargetVerdict::Phish {
            candidates: vec![
                TargetCandidate {
                    mld: "paypal".into(),
                    rdn: "paypal.com".into(),
                    appearances: 9,
                },
                TargetCandidate {
                    mld: "mybank".into(),
                    rdn: "mybank.com".into(),
                    appearances: 2,
                },
            ],
        };
        assert_eq!(v.top_target(), Some("paypal"));
        assert!(v.has_target_in_top("mybank", 2));
        assert!(!v.has_target_in_top("mybank", 1));
        assert_eq!(TargetVerdict::Unknown.top_target(), None);
    }
}
