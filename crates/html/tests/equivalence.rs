//! Equivalence of [`Document::parse`] with the interner-dispatch parser
//! kept in `reference/`, which runs on the token stream and entity
//! decoder that shipped with it: every field, on generated corpus pages,
//! [`PageBuilder`] pages, every truncation of them, garbled windows,
//! mixed-case and entity-laden markup, hostile fragments and arbitrary
//! soups. [`decode_entities`] must equal the pre-change decoder, and the
//! browser visit built on the parser must equal the pre-change visit on
//! every corpus URL, on a reliable and on a fault-injecting web. Any
//! sequence of [`PageBuilder`] calls must build the bytes the pre-change
//! builder, kept in `reference/builder.rs`, builds.

mod reference;

use kyp_datagen::{CampaignConfig, Corpus};
use kyp_html::{decode_entities, Document, PageBuilder};
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

/// Markup the reference tokenizer handles in its edge paths: runs of
/// skipped markup, raw text with and without a close, entities at the
/// cap on their length, cut-off quotes and tags, repeated attributes,
/// slashes and Unicode whitespace before `>`, and digits or non-ASCII
/// bytes in tag names.
fn hostile_fragment() -> impl Strategy<Value = String> {
    let fixed = prop_oneof![
        // Back-to-back comments, doctypes and processing instructions,
        // and unterminated ones.
        Just("<!---->"),
        Just("<!-->"),
        Just("<!--->"),
        Just("<!-- <p>x</p> -->"),
        Just("<!DOCTYPE html>"),
        Just("<!x>"),
        Just("<?x>"),
        Just("<?xml version='1.0'?>"),
        Just("<!--"),
        Just("<!"),
        Just("<?"),
        // Raw text, closed or not, in mixed case.
        Just("<script>"),
        Just("<script>var a = '<p>';"),
        Just("</script>"),
        Just("</ScRiPt"),
        Just("</SCRIPT >"),
        Just("<SCRIPT SRC='/s.js'>"),
        Just("<style>p { x: y }"),
        Just("<StYlE>"),
        Just("</sTyLe>"),
        Just("<script/>"),
        Just("<script src=/s.js />"),
        // Cut-off quotes and tags, and a `>` inside quotes.
        Just("<a href=\"/x"),
        Just("<a href='/x"),
        Just("<img src="),
        Just("<a"),
        Just("<"),
        Just("</"),
        Just("<a href=\"/x>y\">"),
        // Repeated attributes: the first wins.
        Just("<a href=/first href=/second>"),
        Just("<a HREF=/upper href=/lower>"),
        Just("<img src='' src=/b>"),
        Just("<input type=text type=hidden>"),
        Just("<a title='href=/decoy' href=/real>"),
        Just("<a =x href=/after-empty-name>"),
        // `/`, U+00A0 or U+3000 before `>`.
        Just("<a href=/x/>"),
        Just("<a href=/x//>"),
        Just("<a href=\"/x/\"/>"),
        Just("<a href=/x/\u{a0}>"),
        Just("<script/\u{a0}>"),
        Just("<style /\u{3000}>"),
        Just("<img src=/i.png\u{3000}/>"),
        Just("<a href/>"),
        // Digits in a rule's tag name make it another tag.
        Just("<a1 href=/digit>"),
        Just("<script2>"),
        Just("</title9>"),
        Just("<img0 src=/zero>"),
        // Entities at the cap on their length: a `;` 12 bytes after the
        // `&` is read, 13 bytes after it is not.
        Just("&#0000000065;"),
        Just("&#00000000065;"),
        Just("&#x000000041;"),
        Just("&#x0000000041;"),
        Just("&#0000000169;"),
        Just("&eacute;"),
        // Non-ASCII bytes inside tag names.
        Just("<scripté>"),
        Just("<aé href=/x>"),
        Just("<titleé>"),
        Just("</titleé>"),
        Just("<headé>"),
        Just("<ä>"),
        // The elements whose text is not body text.
        Just("<head>"),
        Just("</head>"),
        Just("<title>"),
        Just("</title>"),
        Just("<p>"),
        Just("</p>"),
        Just("\n"),
        Just(" \u{a0} "),
        Just("\u{3000}"),
        Just("\u{b}"),
    ];
    prop_oneof![
        fixed.prop_map(str::to_owned),
        // `&` runs with and without a `;`, and references whose `;` is
        // near the 12-byte cap.
        "[&a;]{1,12}",
        "&#0{6,10}[1-9][0-9];",
        "&#x0{6,10}[1-9a-fA-F][0-9a-f];",
        "&[a-z]{9,13};",
        "[a-zA-Z ©().]{0,12}",
    ]
}

/// Hostile fragments joined and cut to at most 400 bytes.
fn hostile_markup() -> impl Strategy<Value = String> {
    collection::vec(hostile_fragment(), 0..40).prop_map(|parts| {
        let mut html = parts.concat();
        let mut cut = html.len().min(400);
        while !html.is_char_boundary(cut) {
            cut -= 1;
        }
        html.truncate(cut);
        html
    })
}

/// Text holding one `&`, a name of `len` bytes and a `;`, so the `;` is
/// `len + 1` bytes after the `&`, between text that may hold more `&`s
/// and `;`s. The name is a zero-padded decimal or hex reference to a
/// random code point, a known entity name or letters, cut to `len`.
fn entity_text() -> impl Strategy<Value = String> {
    (
        0usize..=14,
        0usize..4,
        0u32..0x11_0000,
        "[a-z]{14}",
        "[a-z &;#]{0,8}",
        "[a-z &;#]{0,8}",
    )
        .prop_map(|(len, shape, code, letters, before, after)| {
            let digits = len.saturating_sub(1);
            let name = match shape {
                0 => format!("#{code:0>digits$}"),
                1 => format!("#x{code:0>width$x}", width = len.saturating_sub(2)),
                2 => format!("eacute{letters}"),
                _ => letters,
            };
            let name: String = name.chars().take(len).collect();
            format!("{before}&{name};{after}")
        })
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

    /// Hostile markup parses to the reference's document.
    #[test]
    fn hostile_markup_parses_as_before(html in hostile_markup()) {
        check(&html);
        check_truncations(&html);
    }

    /// The decoder with its `;` search capped decodes as the uncapped one
    /// with the `;` at every distance up to 15 bytes from the `&`.
    #[test]
    fn entities_decode_as_before(text in entity_text()) {
        prop_assert_eq!(decode_entities(&text), reference::entity::decode_entities(&text), "{:?}", text);
    }

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

/// One [`PageBuilder`] call.
#[derive(Debug, Clone)]
enum Call {
    Title(String),
    Stylesheet(String),
    Script(String),
    Heading(String),
    Paragraph(String),
    Link(String, String),
    Image(String),
    Iframe(String),
    Form(String, Vec<String>),
    Copyright(String),
}

/// Arbitrary builder text: the escaped characters, `'`, non-ASCII
/// (two-, three- and four-byte), plain words and the empty string.
fn builder_text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "[&<>\"' a-zé€𝄞]{0,24}",
        "(pass|pin|user|&amp;|<b>|\"q\"|é){0,4}",
        ".{0,40}",
    ]
}

fn builder_call() -> impl Strategy<Value = Call> {
    let text = builder_text;
    prop_oneof![
        text().prop_map(Call::Title),
        text().prop_map(Call::Stylesheet),
        text().prop_map(Call::Script),
        text().prop_map(Call::Heading),
        text().prop_map(Call::Paragraph),
        (text(), text()).prop_map(|(h, a)| Call::Link(h, a)),
        text().prop_map(Call::Image),
        text().prop_map(Call::Iframe),
        (text(), proptest::collection::vec(text(), 0..5)).prop_map(|(a, f)| Call::Form(a, f)),
        text().prop_map(Call::Copyright),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Any sequence of builder calls builds the reference builder's bytes.
    #[test]
    fn builder_matches_reference(calls in proptest::collection::vec(builder_call(), 0..30)) {
        let mut page = PageBuilder::new();
        let mut want = reference::builder::PageBuilder::new();
        for call in &calls {
            (page, want) = match call {
                Call::Title(t) => (page.title(t), want.title(t)),
                Call::Stylesheet(h) => (page.stylesheet(h), want.stylesheet(h)),
                Call::Script(s) => (page.script(s), want.script(s)),
                Call::Heading(t) => (page.heading(t), want.heading(t)),
                Call::Paragraph(t) => (page.paragraph(t), want.paragraph(t)),
                Call::Link(h, a) => (page.link(h, a), want.link(h, a)),
                Call::Image(s) => (page.image(s), want.image(s)),
                Call::Iframe(s) => (page.iframe(s), want.iframe(s)),
                Call::Form(a, f) => {
                    let fields: Vec<&str> = f.iter().map(String::as_str).collect();
                    (page.form(a, &fields), want.form(a, &fields))
                }
                Call::Copyright(n) => (page.copyright(n), want.copyright(n)),
            };
        }
        prop_assert_eq!(page.build(), want.build(), "{:?}", calls);
    }
}

#[test]
fn a_mebibyte_of_ampersands_builds_in_linear_time() {
    let amps = "&".repeat(1 << 20);
    let start = std::time::Instant::now();
    let html = PageBuilder::new().paragraph(&amps).build();
    let took = start.elapsed();
    assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
    assert_eq!(
        html,
        reference::builder::PageBuilder::new()
            .paragraph(&amps)
            .build()
    );
}
