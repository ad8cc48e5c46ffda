//! Term extraction, keyterms and target identification as they were
//! before the page term dictionary: `DataSources` owns one
//! [`TermDistribution`] per Table I source, f2 pairs the distributions
//! with their own merge walks, keyterms build `BTreeSet<String>` term
//! sets and merge distributions on every call, and target
//! identification looks each candidate mld up in every distribution.
//! The equivalence properties compare `kyp_core` against it.

use kyp_core::features::{canonical_mld, ConsistencyMetric};
use kyp_core::{TargetCandidate, TargetVerdict};
use kyp_search::{SearchEngine, SearchHit};
use kyp_text::{extract_term_set, extract_terms, TermDistribution};
use kyp_url::Url;
use kyp_web::ocr::{simulate_ocr, OcrConfig};
use kyp_web::{SourceAvailability, VisitedPage};
use std::collections::BTreeSet;

/// The term distributions of the paper's Table I.
#[derive(Debug, Clone)]
pub struct RefSources {
    pub text: TermDistribution,
    pub title: TermDistribution,
    pub copyright: TermDistribution,
    pub start: TermDistribution,
    pub land: TermDistribution,
    pub intlog: TermDistribution,
    pub intlink: TermDistribution,
    pub startrdn: TermDistribution,
    pub landrdn: TermDistribution,
    pub intrdn: TermDistribution,
    pub extrdn: TermDistribution,
    pub extlog: TermDistribution,
    pub extlink: TermDistribution,
}

impl RefSources {
    pub fn from_page(page: &VisitedPage) -> Self {
        let (intlog_urls, extlog_urls) = page.logged_split();
        let (intlink_urls, extlink_urls) = page.href_split();
        let free =
            |urls: &[&Url]| TermDistribution::from_texts(urls.iter().flat_map(|u| u.free_parts()));
        let rdns =
            |urls: &[&Url]| TermDistribution::from_texts(urls.iter().filter_map(|u| u.rdn()));

        let mut intrdn = rdns(&intlink_urls);
        intrdn.merge(&rdns(&intlog_urls));

        let start = TermDistribution::from_texts(page.starting_url.free_parts());
        let startrdn = TermDistribution::from_texts(page.starting_url.rdn());
        let same_url = page.starting_url == page.landing_url;
        let land = if same_url {
            start.clone()
        } else {
            TermDistribution::from_texts(page.landing_url.free_parts())
        };
        let landrdn = if same_url {
            startrdn.clone()
        } else {
            TermDistribution::from_texts(page.landing_url.rdn())
        };

        RefSources {
            text: TermDistribution::from_text(&page.text),
            title: TermDistribution::from_text(&page.title),
            copyright: TermDistribution::from_text(page.copyright.as_deref().unwrap_or("")),
            start,
            land,
            intlog: free(&intlog_urls),
            intlink: free(&intlink_urls),
            startrdn,
            landrdn,
            intrdn,
            extrdn: rdns(&extlog_urls),
            extlog: free(&extlog_urls),
            extlink: free(&extlink_urls),
        }
    }

    pub fn from_partial(page: &VisitedPage, availability: &SourceAvailability) -> Self {
        let mut sources = Self::from_page(page);
        if !availability.links {
            let empty = TermDistribution::default;
            sources.intlog = empty();
            sources.intlink = empty();
            sources.intrdn = empty();
            sources.extrdn = empty();
            sources.extlog = empty();
            sources.extlink = empty();
        }
        sources
    }

    pub fn f2_distributions(&self) -> [&TermDistribution; 12] {
        [
            &self.text,
            &self.title,
            &self.start,
            &self.land,
            &self.intlog,
            &self.intlink,
            &self.startrdn,
            &self.landrdn,
            &self.intrdn,
            &self.extrdn,
            &self.extlog,
            &self.extlink,
        ]
    }
}

fn distance(a: &TermDistribution, b: &TermDistribution, metric: ConsistencyMetric) -> f64 {
    match metric {
        ConsistencyMetric::Hellinger => a.hellinger_squared(b),
        ConsistencyMetric::Jaccard => a.jaccard_distance(b),
    }
    .unwrap_or(0.0)
}

pub fn push_f2(sources: &RefSources, metric: ConsistencyMetric, out: &mut Vec<f64>) {
    let dists = sources.f2_distributions();
    for (i, a) in dists.iter().enumerate() {
        for b in dists.iter().skip(i + 1) {
            out.push(distance(a, b, metric));
        }
    }
}

pub fn push_f2_extended(
    page: &VisitedPage,
    sources: &RefSources,
    ocr: &OcrConfig,
    metric: ConsistencyMetric,
    out: &mut Vec<f64>,
) {
    let image = TermDistribution::from_text(&simulate_ocr(&page.screenshot_text, ocr));
    let mut dists: Vec<&TermDistribution> = sources.f2_distributions().to_vec();
    dists.push(&sources.copyright);
    dists.push(&image);
    for (i, a) in dists.iter().enumerate() {
        for b in dists.iter().skip(i + 1) {
            out.push(distance(a, b, metric));
        }
    }
}

pub fn push_f3(page: &VisitedPage, sources: &RefSources, out: &mut Vec<f64>) {
    let start_mld = page
        .starting_url
        .mld()
        .map(canonical_mld)
        .unwrap_or_default();
    let land_mld = page
        .landing_url
        .mld()
        .map(canonical_mld)
        .unwrap_or_default();
    let binary_row = |mld: &String| -> [f64; 6] {
        [
            &sources.text,
            &sources.title,
            &sources.intlog,
            &sources.extlog,
            &sources.intlink,
            &sources.extlink,
        ]
        .map(|dist| f64::from(!mld.is_empty() && dist.contains(mld)))
    };
    out.extend(binary_row(&start_mld));
    out.extend(binary_row(&land_mld));
    let mass_row = |mld: &String| -> [f64; 5] {
        [
            &sources.title,
            &sources.intlog,
            &sources.extlog,
            &sources.intlink,
            &sources.extlink,
        ]
        .map(|dist| {
            if mld.is_empty() {
                0.0
            } else {
                dist.substring_mass_of(mld)
            }
        })
    };
    out.extend(mass_row(&start_mld));
    out.extend(mass_row(&land_mld));
}

pub fn push_f5(page: &VisitedPage, sources: &RefSources, out: &mut Vec<f64>) {
    out.push(f64::from(sources.text.total_count()));
    out.push(f64::from(sources.title.total_count()));
    out.push(page.input_count as f64);
    out.push(page.image_count as f64);
    out.push(page.iframe_count as f64);
}

/// The five user-visible term sets of Section V-A.
struct VisibleSets {
    url: BTreeSet<String>,
    title: BTreeSet<String>,
    text: BTreeSet<String>,
    copyright: BTreeSet<String>,
    links: BTreeSet<String>,
}

impl VisibleSets {
    fn from_sources(sources: &RefSources) -> Self {
        let set = |dists: &[&TermDistribution]| -> BTreeSet<String> {
            dists
                .iter()
                .flat_map(|d| d.terms().map(str::to_owned))
                .collect()
        };
        VisibleSets {
            url: set(&[
                &sources.start,
                &sources.startrdn,
                &sources.land,
                &sources.landrdn,
            ]),
            title: set(&[&sources.title]),
            text: set(&[&sources.text]),
            copyright: set(&[&sources.copyright]),
            links: set(&[&sources.intlink, &sources.extlink]),
        }
    }

    fn membership(&self, term: &str) -> (usize, bool, bool) {
        let in_text = self.text.contains(term);
        let in_links = self.links.contains(term);
        let count = usize::from(self.url.contains(term))
            + usize::from(self.title.contains(term))
            + usize::from(in_text)
            + usize::from(self.copyright.contains(term))
            + usize::from(in_links);
        (count, in_text, in_links)
    }

    fn all_terms(&self) -> BTreeSet<String> {
        let mut all = self.url.clone();
        all.extend(self.title.iter().cloned());
        all.extend(self.text.iter().cloned());
        all.extend(self.copyright.iter().cloned());
        all.extend(self.links.iter().cloned());
        all
    }
}

fn visible_frequency(sources: &RefSources) -> TermDistribution {
    let mut freq = sources.text.clone();
    for d in [
        &sources.title,
        &sources.copyright,
        &sources.start,
        &sources.startrdn,
        &sources.land,
        &sources.landrdn,
        &sources.intlink,
        &sources.extlink,
    ] {
        freq.merge(d);
    }
    freq
}

fn rank_terms(candidates: Vec<String>, freq: &TermDistribution, n: usize) -> Vec<String> {
    let mut scored: Vec<(String, u32)> = candidates
        .into_iter()
        .map(|t| {
            let c = freq.count(&t);
            (t, c)
        })
        .collect();
    scored.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    scored.into_iter().take(n).map(|(t, _)| t).collect()
}

pub fn boosted_prominent_terms(sources: &RefSources, n: usize) -> Vec<String> {
    let sets = VisibleSets::from_sources(sources);
    let freq = visible_frequency(sources);
    let candidates = sets
        .all_terms()
        .into_iter()
        .filter(|t| sets.membership(t).0 >= 2)
        .collect();
    rank_terms(candidates, &freq, n)
}

pub fn prominent_terms(sources: &RefSources, n: usize) -> Vec<String> {
    let sets = VisibleSets::from_sources(sources);
    let freq = visible_frequency(sources);
    let candidates = sets
        .all_terms()
        .into_iter()
        .filter(|t| {
            let (count, in_text, in_links) = sets.membership(t);
            count >= 2 && !(count == 2 && in_text && in_links)
        })
        .collect();
    rank_terms(candidates, &freq, n)
}

pub fn ocr_prominent_terms(
    page: &VisitedPage,
    sources: &RefSources,
    ocr: &OcrConfig,
    n: usize,
) -> Vec<String> {
    let read = simulate_ocr(&page.screenshot_text, ocr);
    let image_terms = extract_term_set(&read);
    let sets = VisibleSets::from_sources(sources);
    let freq = visible_frequency(sources);
    let candidates = image_terms
        .into_iter()
        .filter(|t| sets.membership(t).0 >= 1)
        .collect();
    rank_terms(candidates, &freq, n)
}

const SEARCH_RESULTS: usize = 10;
const MAX_CANDIDATES: usize = 3;
const KEYTERMS: usize = 5;

/// The five-step identification process of Section V-B.
pub fn identify(
    engine: &SearchEngine,
    ocr: &OcrConfig,
    page: &VisitedPage,
    sources: &RefSources,
) -> TargetVerdict {
    let suspected: BTreeSet<&str> = [&page.starting_url, &page.landing_url]
        .into_iter()
        .filter_map(Url::rdn)
        .collect();
    let controlled_terms = controlled_term_set(sources);

    let boosted = boosted_prominent_terms(sources, KEYTERMS);
    for (mld, rdn) in &collect_mlds(page) {
        if !composable(mld, &boosted) {
            continue;
        }
        let hits = engine.query_domain(rdn, SEARCH_RESULTS);
        if hits.iter().any(|h| suspected.contains(h.rdn.as_str())) {
            return TargetVerdict::Legitimate { step: 1 };
        }
    }
    let prominent = prominent_terms(sources, KEYTERMS);
    let ocr_terms = || ocr_prominent_terms(page, sources, ocr, KEYTERMS);
    for (step, terms) in [(2, prominent), (3, boosted)] {
        if let Some(verdict) = search_step(
            engine,
            page,
            sources,
            &terms,
            &suspected,
            &controlled_terms,
            step,
        ) {
            return verdict;
        }
    }
    search_step(
        engine,
        page,
        sources,
        &ocr_terms(),
        &suspected,
        &controlled_terms,
        4,
    )
    .unwrap_or(TargetVerdict::Unknown)
}

fn search_step(
    engine: &SearchEngine,
    page: &VisitedPage,
    sources: &RefSources,
    terms: &[String],
    suspected: &BTreeSet<&str>,
    controlled_terms: &BTreeSet<String>,
    step: u8,
) -> Option<TargetVerdict> {
    if terms.is_empty() {
        return None;
    }
    let hits = engine.query(terms, SEARCH_RESULTS);
    if hits.iter().any(|h| suspected.contains(h.rdn.as_str())) {
        return Some(TargetVerdict::Legitimate { step });
    }
    let candidates: Vec<SearchHit> = hits
        .into_iter()
        .filter(|h| mld_appears_in(&h.mld, controlled_terms))
        .collect();
    if candidates.is_empty() {
        None
    } else {
        Some(step5(page, sources, candidates))
    }
}

fn step5(page: &VisitedPage, sources: &RefSources, hits: Vec<SearchHit>) -> TargetVerdict {
    let mut candidates: Vec<TargetCandidate> = Vec::new();
    for hit in hits {
        if candidates.iter().any(|c| c.mld == hit.mld) {
            continue;
        }
        let appearances = count_appearances(&hit.mld, page, sources);
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
    TargetVerdict::Phish { candidates }
}

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

pub fn controlled_term_set(sources: &RefSources) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    for d in [
        &sources.text,
        &sources.title,
        &sources.copyright,
        &sources.start,
        &sources.land,
        &sources.startrdn,
        &sources.landrdn,
        &sources.intlog,
        &sources.intlink,
        &sources.intrdn,
    ] {
        set.extend(d.terms().map(str::to_owned));
    }
    set
}

fn mld_appears_in(mld: &str, terms: &BTreeSet<String>) -> bool {
    let canon = canonical_mld(mld);
    if canon.is_empty() {
        return false;
    }
    if terms.contains(&canon) {
        return true;
    }
    let term_vec: Vec<String> = terms
        .iter()
        .filter(|t| canon.contains(t.as_str()))
        .cloned()
        .collect();
    composable(mld, &term_vec)
}

/// `composable` as `kyp_core` has it: memoised over (position, filler
/// left, keyterm used).
fn composable(mld: &str, keyterms: &[String]) -> bool {
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
            return used_keyterm;
        };
        let state = (pos * (MAX_FILLER + 1) + filler_left) * 2 + usize::from(used_keyterm);
        if let Some(&Some(known)) = memo.get(state) {
            return known;
        }
        let c = byte as char;
        let answer = if c == '-' || c.is_ascii_digit() {
            rec(s, pos + 1, filler_left, used_keyterm, keyterms, memo)
        } else {
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

pub fn count_appearances(mld: &str, page: &VisitedPage, sources: &RefSources) -> usize {
    let canon = canonical_mld(mld);
    if canon.is_empty() {
        return 0;
    }
    let mut count = 0usize;
    for d in [
        &sources.text,
        &sources.title,
        &sources.copyright,
        &sources.start,
        &sources.land,
        &sources.startrdn,
        &sources.landrdn,
        &sources.intlog,
        &sources.intlink,
        &sources.intrdn,
        &sources.extrdn,
        &sources.extlog,
        &sources.extlink,
    ] {
        count += d.count(&canon) as usize;
    }
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
