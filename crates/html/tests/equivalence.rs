//! Equivalence of [`Document::parse`] with the interner-dispatch parser it
//! replaced (kept in `reference/`): every field, on generated corpus
//! pages, [`PageBuilder`] pages, every truncation of them, garbled
//! windows, mixed-case and entity-laden markup and arbitrary soups. The
//! browser visit built on it must equal the pre-change visit on every
//! corpus URL, on a reliable and on a fault-injecting web.

mod reference;

use kyp_datagen::{CampaignConfig, Corpus};
use kyp_html::{Document, PageBuilder};
use kyp_web::{Browser, FaultKind, FaultPlan, FlakyWorld};
use proptest::prelude::*;
use std::sync::OnceLock;

/// `html` parses to the same document as in the reference.
fn check(html: &str) {
    prop_assert_eq!(Document::parse(html), reference::parse(html), "{:?}", html);
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| Corpus::generate(&CampaignConfig::tiny()))
}

/// Every starting URL of the corpus: the four scrape bundles and the
/// legitimate test sets of every language.
fn corpus_urls() -> Vec<String> {
    let corpus = corpus();
    let mut urls: Vec<String> = corpus
        .scrape_bundles()
        .into_iter()
        .flat_map(|(_, urls, _)| urls)
        .collect();
    for (_, tests) in &corpus.language_tests {
        urls.extend(tests.iter().cloned());
    }
    urls
}

/// The landing HTML of every corpus URL.
fn corpus_pages() -> Vec<String> {
    let browser = Browser::new(&corpus().world);
    let pages: Vec<String> = corpus_urls()
        .iter()
        .filter_map(|url| browser.land(url).ok())
        .map(|landing| landing.html().to_owned())
        .collect();
    assert!(pages.len() > 500, "only {} corpus pages", pages.len());
    pages
}

/// Checks every char-boundary prefix of `html`.
fn check_truncations(html: &str) {
    for cut in (0..=html.len()).filter(|&c| html.is_char_boundary(c)) {
        check(&html[..cut]);
    }
}

#[test]
fn corpus_pages_parse_as_before() {
    for html in corpus_pages() {
        check(&html);
    }
}

#[test]
fn truncated_corpus_pages_parse_as_before() {
    let pages = corpus_pages();
    // The longest page, a non-English one and a phishing page, cut at
    // every char boundary; the rest at every 97th byte.
    let longest = pages.iter().max_by_key(|p| p.len()).unwrap();
    let foreign = pages.iter().find(|p| !p.is_ascii()).unwrap();
    for html in [longest, foreign, &pages[0]] {
        check_truncations(html);
    }
    for html in &pages {
        for cut in (0..html.len()).step_by(97) {
            if html.is_char_boundary(cut) {
                check(&html[..cut]);
            }
        }
    }
}

#[test]
fn garbled_corpus_pages_parse_as_before() {
    let urls = corpus_urls();
    for seed in 0..4 {
        let flaky = FlakyWorld::new(
            &corpus().world,
            FaultPlan::only(seed, 1.0, &[FaultKind::GarbleHtml]),
        );
        let browser = Browser::new(&flaky);
        for url in &urls {
            if let Ok(landing) = browser.land(url) {
                check(landing.html());
            }
        }
    }
}

#[test]
fn visits_equal_the_pre_change_visit() {
    let world = &corpus().world;
    let urls = corpus_urls();
    for url in &urls {
        let visit = Browser::new(world).visit(url);
        assert!(visit.is_ok(), "{url}: {visit:?}");
        assert_eq!(visit, reference::visit::visit(world, url), "{url}");
    }
    // A fault-injecting web: its attempt counters are stateful, so each
    // side gets its own copy of the same plan.
    let plan = FaultPlan::new(11, 0.3);
    let flaky = FlakyWorld::new(world, plan.clone());
    let reference_flaky = FlakyWorld::new(world, plan);
    for url in &urls {
        for _ in 0..2 {
            assert_eq!(
                Browser::new(&flaky).try_visit(url),
                reference::visit::try_visit(&reference_flaky, url),
                "{url}"
            );
            assert_eq!(
                Browser::new(&flaky).visit(url),
                reference::visit::visit(&reference_flaky, url),
                "{url}"
            );
        }
    }
}

/// Copyright notices in each anchor form and case, alone or several in
/// one text, so the anchors' priority is exercised.
fn notice() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("© 2015 Acme Inc.".to_owned()),
        Just("Copyright 2014 Beta Corp".to_owned()),
        Just("COPYRIGHT gamma".to_owned()),
        Just("(c) Delta Ltd.".to_owned()),
        Just("(C) 2013 Eps".to_owned()),
        Just("copy right (c".to_owned()),
        Just("Rights. (c) first. Copyright second. © third.".to_owned()),
        Just("ccopyright copycopyright ((c) (c (C)".to_owned()),
        "[a-z ().©]{0,30}",
    ]
}

/// Pages built with [`PageBuilder`] from generated parts.
fn built_page() -> impl Strategy<Value = String> {
    (
        "[a-zA-Z &<>\"é]{0,20}",
        collection::vec("[a-z]{1,8}", 0..4),
        collection::vec(("[a-z/#.:]{0,16}", "[A-Za-z ]{0,10}"), 0..4),
        collection::vec(notice(), 0..3),
        collection::vec("[a-z]{1,6}", 0..3),
    )
        .prop_map(|(title, paragraphs, links, notices, fields)| {
            let mut page = PageBuilder::new()
                .title(&title)
                .stylesheet("/css/site.css")
                .script("https://cdn.example.net/app.js")
                .heading(&title);
            for p in &paragraphs {
                page = page.paragraph(p);
            }
            for (href, anchor) in &links {
                page = page.link(href, anchor).image(href);
            }
            let fields: Vec<&str> = fields.iter().map(String::as_str).collect();
            page = page.form("/login", &fields).iframe("//ads.example.org/f");
            for n in &notices {
                page = page.copyright(n);
            }
            page.build()
        })
}

/// Flips the ASCII case of the characters of `s` whose bit in `mask` is
/// set.
fn mixed_case(s: &str, mask: u64) -> String {
    s.chars()
        .enumerate()
        .map(|(i, c)| {
            if mask >> (i % 64) & 1 == 1 {
                if c.is_ascii_lowercase() {
                    c.to_ascii_uppercase()
                } else {
                    c.to_ascii_lowercase()
                }
            } else {
                c
            }
        })
        .collect()
}

/// Markup with every tag the parser dispatches on, attributes and
/// entity-laden text, in mixed case.
fn cased_markup() -> impl Strategy<Value = String> {
    let tag = prop_oneof![
        Just("<head>"),
        Just("</head>"),
        Just("<title>"),
        Just("</title>"),
        Just("<a href='/x?a=1&amp;b=2'>"),
        Just("<area href=\"#top\">"),
        Just("<img src=\"/i.png\">"),
        Just("<script src=\"/s.js\"></script>"),
        Just("<embed src=''><source src=\"/v.mp4\"><audio src=a><video src=b>"),
        Just("<link rel=icon href=\"/f.ico\">"),
        Just("<iframe src=\"//f.example.net/\"></iframe><frame src=x>"),
        Just("<input type=\"HIDDEN\"><input type=text><textarea></textarea><select>"),
        Just("<input type=submit>"),
        Just("<marquee>"),
        Just("<p>"),
        Just("</p>"),
    ];
    let text = prop_oneof![
        Just("caf&eacute; &amp; cr&egrave;me"),
        Just(" &copy; 2015 Entity Corp. "),
        Just("&lt;b&gt; &#169; &#x41;&#65; &bogus; &amp"),
        Just("  plain text  "),
        Just("Copyright Acme."),
        Just("(C) Beta."),
    ];
    (
        collection::vec(
            prop_oneof![tag.prop_map(str::to_owned), text.prop_map(str::to_owned)],
            0..24,
        ),
        any::<u64>(),
    )
        .prop_map(|(parts, mask)| mixed_case(&parts.join(""), mask))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn built_pages_parse_as_before(html in built_page()) {
        check(&html);
    }

    #[test]
    fn truncated_built_pages_parse_as_before(html in built_page()) {
        check_truncations(&html);
    }

    #[test]
    fn mixed_case_entity_markup_parses_as_before(html in cased_markup()) {
        check(&html);
        check_truncations(&html);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// Arbitrary soups parse without panic, to the reference's document.
    #[test]
    fn soup_parses_as_before(html in ".{0,400}") {
        check(&html);
    }

    /// Markup-alphabet soups reach tags, entities and anchors far more
    /// often.
    #[test]
    fn markup_soup_parses_as_before(html in "[<>/a-eA-E =\"'&;#©().!iImMgGtTlLpPrRsSyYoOhH]{0,200}") {
        check(&html);
    }
}
