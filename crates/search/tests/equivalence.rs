//! Equivalence of the indexed [`SearchEngine`] with the scanning engine it
//! replaced (kept in `reference/`): both calls return equal hits, scores
//! bit for bit, on random corpora whose RDNs repeat under different mlds
//! and texts, end in one- and two-label suffixes, or are not domains at
//! all, and whose texts mix case, accents, digits and punctuation inside
//! words, fragments too short to be terms, and runs of one repeated
//! term.

mod reference;

use kyp_search::{SearchEngine, SearchHit};
use proptest::prelude::*;
use reference::RefEngine;

/// Second-level labels; some double as mlds, text words and suffixes.
const LABELS: &[&str] = &["paypal", "bank", "mybank", "shop", "a", "x-y", "b2", "com"];

/// Public suffixes, multi-label ones included.
const SUFFIXES: &[&str] = &["com", "net", "com.br", "co.uk", "io"];

/// Text words: brand and domain terms next to common ones.
const WORDS: &[&str] = &[
    "paypal", "bank", "mybank", "shop", "login", "account", "secure", "online", "com", "br",
    "money", "sign",
];

/// Text pieces past the plain words: `é`, `ß`, `ñ` and `ü` in either
/// case, digits and punctuation inside words, and fragments shorter than
/// three letters.
const PIECES: &[&str] = &[
    "café", "CAFÉ", "Straße", "STRAßE", "España", "niño", "Über", "münchen", "pay4pal", "sign-in",
    "log.in", "e2e", "my_bank", "PayPal!", "a1b2c3", "x", "ab", "é", "ßü", "ñ", "42", "...", "",
];

/// Terms the pieces canonicalise to, for queries.
const PIECE_TERMS: &[&str] = &[
    "cafe", "strase", "espana", "nino", "uber", "munchen", "pay", "pal",
];

/// What goes between two words.
const SEPARATORS: &[&str] = &[" ", ", ", "\n", "-", "/", "|"];

/// One indexed page: its RDN, mld and text.
#[derive(Debug)]
struct Page {
    rdn: String,
    mld: String,
    text: String,
}

/// Element `i` of `list`, wrapping around.
fn pick(list: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    any::<usize>().prop_map(move |i| list[i % list.len()])
}

/// An RDN of a label and a suffix, or now and then a bare label or
/// nothing.
fn rdn() -> impl Strategy<Value = String> {
    (0u8..8, pick(LABELS), pick(SUFFIXES)).prop_map(|(kind, label, suffix)| match kind {
        0 => String::new(),
        1 => label.to_owned(),
        _ => format!("{label}.{suffix}"),
    })
}

/// A word in mixed case, a piece, or one word repeated up to 40 times.
fn word() -> impl Strategy<Value = String> {
    prop_oneof![
        (pick(WORDS), any::<u64>()).prop_map(|(w, mask)| mixed_case(w, mask)),
        pick(PIECES).prop_map(str::to_owned),
        (pick(WORDS), 1usize..=40, pick(SEPARATORS)).prop_map(|(w, n, sep)| vec![w; n].join(sep)),
    ]
}

/// Up to eight words, or none, each followed by a separator.
fn text() -> impl Strategy<Value = String> {
    collection::vec((word(), pick(SEPARATORS)), 0..8)
        .prop_map(|words| words.into_iter().map(|(w, sep)| w + sep).collect())
}

/// Pages over a few RDNs, so RDNs repeat. The mld is usually the RDN's
/// first label, else any label, nothing, or a whole RDN (so a dotted
/// guess can match an mld).
fn corpus() -> impl Strategy<Value = Vec<Page>> {
    let page = (any::<usize>(), 0u8..6, any::<usize>(), pick(LABELS), text());
    (collection::vec(rdn(), 1..6), collection::vec(page, 0..24)).prop_map(|(rdns, pages)| {
        pages
            .into_iter()
            .map(|(i, kind, j, label, text)| {
                let rdn = rdns[i % rdns.len()].clone();
                let mld = match kind {
                    0 => String::new(),
                    1 => label.to_owned(),
                    2 => rdns[j % rdns.len()].clone(),
                    _ => rdn.split('.').next().unwrap_or_default().to_owned(),
                };
                Page { rdn, mld, text }
            })
            .collect()
    })
}

/// Query terms: words, domain terms and unknown terms, with repeats.
fn terms() -> impl Strategy<Value = Vec<String>> {
    let term = prop_oneof![
        pick(WORDS),
        pick(WORDS),
        pick(LABELS),
        pick(PIECE_TERMS),
        pick(&["zzz", "unknown", "", "uk"]),
    ];
    collection::vec(term.prop_map(str::to_owned), 0..7)
}

/// Uppercases the characters of `s` whose bit is set in `mask`.
fn mixed_case(s: &str, mask: u64) -> String {
    s.chars()
        .enumerate()
        .map(|(i, c)| {
            if mask >> (i % 64) & 1 == 1 {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

/// Domain guesses: an RDN under an optional `www.` or other subdomain,
/// with trailing dots, padding and mixed case; or an arbitrary string.
fn guess() -> impl Strategy<Value = String> {
    let name = (
        rdn(),
        pick(&["", "www.", "login.", "a.b.", "."]),
        pick(&["", ".", "..", " ", ". "]),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(rdn, sub, tail, mask, mix)| {
            let name = format!("{sub}{rdn}{tail}");
            if mix {
                mixed_case(&name, mask)
            } else {
                name
            }
        });
    prop_oneof![name, "[a-zA-Z0-9. -]{0,14}"]
}

fn engines(pages: &[Page]) -> (SearchEngine, RefEngine) {
    let mut engine = SearchEngine::new();
    let mut reference = RefEngine::default();
    for p in pages {
        engine.index_page(&p.rdn, &p.mld, &p.text);
        reference.index_page(&p.rdn, &p.mld, &p.text);
    }
    (engine, reference)
}

/// Equal hits, with scores equal bit for bit.
fn same_hits(got: &[SearchHit], want: &[SearchHit]) {
    prop_assert_eq!(got, want);
    for (g, w) in got.iter().zip(want) {
        prop_assert_eq!(g.score.to_bits(), w.score.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn query_matches_reference(pages in corpus(), queries in collection::vec((terms(), 0usize..=12), 1..6)) {
        let (engine, reference) = engines(&pages);
        for (terms, k) in &queries {
            same_hits(&engine.query(terms, *k), &reference.query(terms, *k));
        }
    }

    #[test]
    fn query_domain_matches_reference(pages in corpus(), guesses in collection::vec((guess(), 0usize..=12), 1..6)) {
        let (engine, reference) = engines(&pages);
        for (guess, k) in &guesses {
            same_hits(&engine.query_domain(guess, *k), &reference.query_domain(guess, *k));
        }
    }
}

/// One term 100,000 times in one page: its tf and its page's norm are far
/// past anything a generated page reaches, and still score the
/// reference's bits.
#[test]
fn a_term_repeated_100_000_times_scores_as_the_reference() {
    let page = |rdn: &str, mld: &str, text: String| Page {
        rdn: rdn.to_owned(),
        mld: mld.to_owned(),
        text,
    };
    let pages = [
        page("paypal.com", "paypal", "PayPal ".repeat(100_000)),
        page("bank.com", "bank", "bank paypal login".to_owned()),
        page(
            "shop.com",
            "shop",
            format!("shop {}", "login ".repeat(99_999)),
        ),
    ];
    let (engine, reference) = engines(&pages);
    for terms in [
        &["paypal"][..],
        &["paypal", "bank"],
        &["login"],
        &["login", "paypal", "shop"],
    ] {
        let terms: Vec<String> = terms.iter().map(|&t| t.to_owned()).collect();
        same_hits(&engine.query(&terms, 3), &reference.query(&terms, 3));
    }
}
