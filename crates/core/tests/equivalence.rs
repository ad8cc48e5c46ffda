//! Equivalence of extraction, keyterms and target identification over
//! the page term dictionary with the per-source distributions they
//! replaced (kept in `reference/`): the 212-feature, 237-feature extended
//! and Jaccard vectors are bit-equal, and keyterm lists and target
//! verdicts are equal, on random pages and on hostile ones.
//!
//! The reference covers the sources-derived families (f2, f3, f5); the
//! URL (f1) and RDN-usage (f4) families never read `DataSources`, so the
//! reference vector takes them from the extractor under test.

mod reference;

use kyp_core::features::{
    ConsistencyMetric, ExtractorConfig, EXTENDED_FEATURE_COUNT, F1_COUNT, F2_COUNT, F3_COUNT,
    F4_COUNT, FEATURE_COUNT,
};
use kyp_core::{
    keyterms, DataSources, FeatureExtractor, TargetIdentifier, TargetIdentifierConfig,
    TargetVerdict,
};
use kyp_search::SearchEngine;
use kyp_url::Url;
use kyp_web::ocr::OcrConfig;
use kyp_web::{DomainRanker, SourceAvailability, VisitedPage};
use proptest::prelude::*;
use reference::RefSources;
use std::sync::Arc;

/// Text words: brand and URL terms, accented and CJK words, terms that
/// share an eight-byte prefix, and pieces too short to be terms.
const WORDS: &[&str] = &[
    "paypal",
    "PayPal",
    "bank",
    "mybank",
    "login",
    "secure",
    "account",
    "verify",
    "longprefix",
    "longprefixalpha",
    "longprefixbeta",
    "LongPrefixAlphabet",
    "abcdefgh",
    "abcdefghi",
    "café",
    "Zürich",
    "straße",
    "España",
    "ñandú",
    "Müller",
    "ÉLAN",
    "漢字",
    "サイン",
    "ab",
    "x1y2",
    "sign-in",
    "e-mail",
    "©",
    "2015",
    "zurich",
    "cafe",
];

/// Separators between words.
const SEPARATORS: &[&str] = &[" ", " ", " ", "-", ".", ", ", "\n", "/", "é"];

/// Hosts: brand domains the search engine indexes, throwaway ones, a
/// multi-label suffix, and IP hosts.
const HOSTS: &[&str] = &[
    "paypal.com",
    "www.paypal.com",
    "mybank.com",
    "login.mybank.com",
    "evil-host.tk",
    "secure-login.evil-host.tk",
    "longprefixalpha.net",
    "bank.co.uk",
    "sub.bank.co.uk",
    "cafe-zurich.ch",
    "192.168.1.1",
    "10.0.0.7",
];

/// Path and query pieces.
const PATHS: &[&str] = &[
    "",
    "paypal",
    "login",
    "longprefixalpha",
    "longprefixbeta",
    "signin",
    "a",
    "img",
    "style.css",
    "x.js",
    "mybank",
    "verify-account",
];

/// Element `i` of `list`, wrapping around.
fn pick(list: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    any::<usize>().prop_map(move |i| list[i % list.len()])
}

/// Up to `max` words with random separators; now and then nothing.
fn text(max: usize) -> impl Strategy<Value = String> {
    collection::vec((pick(WORDS), pick(SEPARATORS)), 0..max).prop_map(|words| {
        let mut text = String::new();
        for (word, sep) in words {
            text.push_str(word);
            text.push_str(sep);
        }
        text
    })
}

/// A URL over the host and path pools, with an optional query.
fn url() -> impl Strategy<Value = Url> {
    (
        pick(HOSTS),
        collection::vec(pick(PATHS), 0..3),
        pick(PATHS),
        any::<bool>(),
    )
        .prop_map(|(host, path, query, https)| {
            let scheme = if https { "https" } else { "http" };
            let mut s = format!("{scheme}://{host}/{}", path.join("/"));
            if !query.is_empty() {
                s.push_str(&format!("?q={query}"));
            }
            Url::parse(&s).expect("pool URLs parse")
        })
}

/// Links: fresh URLs, or the page's own starting/landing URL again.
fn links() -> impl Strategy<Value = Vec<Option<Url>>> {
    collection::vec(prop_oneof![url().prop_map(Some), Just(None)], 0..7)
}

/// A random page; `None` links repeat the page's own URLs.
fn page() -> impl Strategy<Value = VisitedPage> {
    (
        (url(), url(), any::<u8>()),
        (links(), links()),
        (text(40), text(6), text(4), any::<u8>()),
        (any::<usize>(), any::<usize>(), any::<usize>()),
    )
        .prop_map(
            |((start, land, shape), (logged, href), (body, title, copyright, show), counts)| {
                let landing = if shape % 3 == 0 { start.clone() } else { land };
                let mut redirection_chain = vec![start.clone()];
                if landing != start {
                    redirection_chain.push(landing.clone());
                }
                let own = |i: usize| {
                    if i.is_multiple_of(2) {
                        start.clone()
                    } else {
                        landing.clone()
                    }
                };
                let fill = |links: Vec<Option<Url>>| -> Vec<Url> {
                    links
                        .into_iter()
                        .enumerate()
                        .map(|(i, u)| u.unwrap_or_else(|| own(i)))
                        .collect()
                };
                let (logged_links, href_links) = (fill(logged), fill(href));
                VisitedPage {
                    starting_url: start,
                    landing_url: landing,
                    redirection_chain,
                    logged_links,
                    href_links,
                    screenshot_text: if show % 2 == 0 {
                        format!("{title} {body}")
                    } else {
                        title.clone()
                    },
                    text: body,
                    title,
                    copyright: (show % 3 != 0).then_some(copyright),
                    input_count: counts.0 % 5,
                    image_count: counts.1 % 9,
                    iframe_count: counts.2 % 3,
                }
            },
        )
}

/// The reference vector: f1 and f4 from `got`, f2, f3 and f5 from the
/// reference families.
fn reference_vector(
    got: &[f64],
    page: &VisitedPage,
    sources: &RefSources,
    config: &ExtractorConfig,
) -> Vec<f64> {
    let f2_len = got.len() - (FEATURE_COUNT - F2_COUNT);
    let f4_start = F1_COUNT + f2_len + F3_COUNT;
    let mut out = got[..F1_COUNT].to_vec();
    if config.extended_distributions {
        reference::push_f2_extended(
            page,
            sources,
            &config.ocr,
            config.consistency_metric,
            &mut out,
        );
    } else {
        reference::push_f2(sources, config.consistency_metric, &mut out);
    }
    reference::push_f3(page, sources, &mut out);
    out.extend_from_slice(&got[f4_start..f4_start + F4_COUNT]);
    reference::push_f5(page, sources, &mut out);
    out
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every extractor configuration the equivalence covers.
fn configs() -> Vec<ExtractorConfig> {
    let mut out = Vec::new();
    for metric in [ConsistencyMetric::Hellinger, ConsistencyMetric::Jaccard] {
        for extended in [false, true] {
            out.push(ExtractorConfig {
                consistency_metric: metric,
                extended_distributions: extended,
                ocr: OcrConfig::default(),
            });
        }
    }
    out
}

/// Checks every feature vector of `page`, full and with links
/// unavailable, against the reference.
fn assert_features_match(page: &VisitedPage) {
    for config in configs() {
        let ex = FeatureExtractor::with_config(DomainRanker::default(), config.clone());
        let width = if config.extended_distributions {
            EXTENDED_FEATURE_COUNT
        } else {
            FEATURE_COUNT
        };
        for links in [true, false] {
            let availability = SourceAvailability {
                links,
                ..SourceAvailability::FULL
            };
            let got = if links {
                ex.extract(page)
            } else {
                ex.extract_degraded(page, &availability)
            };
            assert_eq!(got.len(), width);
            assert!(got.iter().all(|v| v.is_finite()));
            let sources = RefSources::from_partial(page, &availability);
            let want = reference_vector(&got, page, &sources, &config);
            assert_eq!(
                bits(&got),
                bits(&want),
                "{:?} links={links} page={page:?}",
                config.consistency_metric
            );
            let with_sources =
                ex.extract_with_sources(page, &DataSources::from_partial(page, &availability));
            assert_eq!(bits(&with_sources), bits(&got));
        }
    }
}

/// The search engine target identification queries: brand sites whose
/// RDNs and terms the random pages reuse.
fn engine() -> Arc<SearchEngine> {
    let mut e = SearchEngine::new();
    for (rdn, mld, text) in [
        (
            "paypal.com",
            "paypal",
            "paypal secure login account paypal money",
        ),
        (
            "mybank.com",
            "mybank",
            "mybank bank login account secure mybank",
        ),
        (
            "longprefixalpha.net",
            "longprefixalpha",
            "longprefixalpha longprefixbeta longprefix verify",
        ),
        ("bank.co.uk", "bank", "bank secure login verify"),
        ("cafe-zurich.ch", "cafe-zurich", "cafe zurich strase espana"),
        ("evil-host.tk", "evil-host", "account verify signin"),
    ] {
        e.index_page(rdn, mld, text);
    }
    Arc::new(e)
}

/// OCR without noise, so screenshot terms reach the keyterm lists.
fn clean_ocr() -> OcrConfig {
    OcrConfig {
        substitution_rate: 0.0,
        drop_rate: 0.0,
        word_loss_rate: 0.0,
        seed: 0,
    }
}

/// Checks keyterm lists and target verdicts against the reference.
fn assert_identification_matches(page: &VisitedPage, engine: &Arc<SearchEngine>) {
    for links in [true, false] {
        let availability = SourceAvailability {
            links,
            ..SourceAvailability::FULL
        };
        let sources = DataSources::from_partial(page, &availability);
        let want = RefSources::from_partial(page, &availability);
        for n in [0, 2, 5, 20] {
            assert_eq!(
                keyterms::boosted_prominent_terms(&sources, n),
                reference::boosted_prominent_terms(&want, n)
            );
            assert_eq!(
                keyterms::prominent_terms(&sources, n),
                reference::prominent_terms(&want, n)
            );
            for ocr in [clean_ocr(), OcrConfig::default()] {
                assert_eq!(
                    keyterms::ocr_prominent_terms(page, &sources, &ocr, n),
                    reference::ocr_prominent_terms(page, &want, &ocr, n)
                );
            }
        }
        let ocr = clean_ocr();
        let ident =
            TargetIdentifier::with_config(Arc::clone(engine), TargetIdentifierConfig { ocr });
        assert_eq!(
            ident.identify_with_sources(page, &sources),
            reference::identify(engine, &ocr, page, &want),
            "links={links} page={page:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn features_keyterms_and_targets_match_the_reference(page in page()) {
        assert_features_match(&page);
        assert_identification_matches(&page, &engine());
    }
}

#[test]
fn random_pages_reach_every_verdict() {
    // The property above is only as strong as the verdicts it meets:
    // the page pool must confirm pages at step 1 and at a search step,
    // name targets, and leave some pages unknown.
    let engine = engine();
    let ident = TargetIdentifier::with_config(
        Arc::clone(&engine),
        TargetIdentifierConfig { ocr: clean_ocr() },
    );
    let mut seen = [0usize; 4];
    for case in 0..400 {
        let mut rng = proptest::rng::TestRng::for_case(1, case);
        let page = page().generate(&mut rng);
        let verdict = ident.identify_with_sources(&page, &DataSources::from_page(&page));
        seen[match verdict {
            TargetVerdict::Legitimate { step: 1 } => 0,
            TargetVerdict::Legitimate { .. } => 1,
            TargetVerdict::Phish { .. } => 2,
            TargetVerdict::Unknown => 3,
        }] += 1;
    }
    assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
}

fn plain_page(start: &str, text: String) -> VisitedPage {
    let start = Url::parse(start).expect("URL parses");
    VisitedPage {
        starting_url: start.clone(),
        landing_url: start.clone(),
        redirection_chain: vec![start.clone()],
        logged_links: vec![start.clone()],
        href_links: vec![
            Url::parse("https://www.paypal.com/help").expect("URL parses"),
            start,
        ],
        text,
        title: "PayPal Secure Login".into(),
        copyright: Some("© PayPal Inc".into()),
        screenshot_text: "log in to your paypal account".into(),
        input_count: 2,
        image_count: 3,
        iframe_count: 0,
    }
}

/// Checks the 212-feature vector of a hostile page against the
/// reference.
fn assert_hostile_page_matches(page: &VisitedPage) {
    let ex = FeatureExtractor::default();
    let got = ex.extract(page);
    assert_eq!(got.len(), FEATURE_COUNT);
    assert!(got.iter().all(|v| v.is_finite()));
    let want = reference_vector(
        &got,
        page,
        &RefSources::from_page(page),
        &ExtractorConfig::default(),
    );
    assert_eq!(bits(&got), bits(&want));
}

#[test]
fn distinct_terms_sharing_one_prefix_match_the_reference() {
    // 200,000 distinct 12-letter terms, all `prefixab` plus four
    // letters, in scrambled order: one tied prefix run.
    let span = 26u32.pow(4);
    let text: String = (0..200_000u32)
        .map(|n| {
            let mut code = n * 7919 % span;
            let mut term = *b"prefixab____ ";
            for slot in term[8..12].iter_mut().rev() {
                *slot = b'a' + (code % 26) as u8;
                code /= 26;
            }
            String::from_utf8(term.to_vec()).expect("ASCII")
        })
        .collect();
    assert_hostile_page_matches(&plain_page("http://prefixab.example.com/login", text));
}

#[test]
fn one_term_repeated_over_a_megabyte_matches_the_reference() {
    let text = "paypalsecure ".repeat(1_000_000 / 13 + 1);
    assert!(text.len() > 1_000_000);
    assert_hostile_page_matches(&plain_page("http://paypalsecure.example.com/", text));
}

#[test]
fn a_two_megabyte_starting_url_matches_the_reference() {
    let mut url = "http://x.example.com/".to_owned();
    url.push_str(&"a".repeat(2_000_000 - url.len()));
    assert_eq!(url.len(), 2_000_000);
    assert_hostile_page_matches(&plain_page(&url, "log in to your paypal account".into()));
}
