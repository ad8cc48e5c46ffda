//! Property-based tests for term extraction and term distributions.

use kyp_text::tfidf::Corpus;
use kyp_text::{
    canonicalize_char, extract_term_set, extract_terms, for_each_term, DictionaryBuilder,
    TermDistribution, MIN_TERM_LEN,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The char-by-char extraction `extract_terms` ran before the term
/// visitor: every character through `canonicalize_char`, no ASCII fast
/// path.
fn reference_terms(input: &str) -> Vec<String> {
    let mut terms = Vec::new();
    let mut current = String::new();
    for c in input.chars() {
        match canonicalize_char(c) {
            Some(letter) => current.push(letter),
            None => {
                if current.len() >= MIN_TERM_LEN {
                    terms.push(std::mem::take(&mut current));
                } else {
                    current.clear();
                }
            }
        }
    }
    if current.len() >= MIN_TERM_LEN {
        terms.push(current);
    }
    terms
}

/// The visitor's terms, through one scratch buffer that starts dirty.
fn visited_terms(input: &str) -> Vec<String> {
    let mut scratch = String::from("leftover");
    let mut terms = Vec::new();
    for_each_term(input, &mut scratch, |term| terms.push(term.to_owned()));
    terms
}

/// The visitor and `extract_terms` against the reference, and the
/// visitor's counts against a one-source `DictionaryBuilder`'s.
fn check_visitor(input: &str) {
    let want = reference_terms(input);
    let visited = visited_terms(input);
    prop_assert_eq!(&visited, &want);
    prop_assert_eq!(&extract_terms(input), &want);
    let mut counts: BTreeMap<&str, u32> = BTreeMap::new();
    for term in &visited {
        *counts.entry(term).or_insert(0) += 1;
    }
    let mut page = DictionaryBuilder::new(1);
    page.push(0, input);
    let dict = page.into_dictionary();
    let from_dict: BTreeMap<&str, u32> = dict
        .run(0)
        .iter()
        .map(|&(id, n)| (dict.term(id), n))
        .collect();
    prop_assert_eq!(counts, from_dict);
    prop_assert_eq!(dict.total(0) as usize, want.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The visitor yields the reference's terms on any printable input.
    #[test]
    fn visitor_matches_reference(input in ".{0,300}") {
        check_visitor(&input);
    }

    /// ... and on ASCII-heavy input: letter runs of both cases broken by
    /// digits, punctuation and the odd accented or foreign letter.
    #[test]
    fn visitor_matches_reference_ascii_heavy(input in "[a-zA-Z0-9 .,_/é-]{0,300}", tail in "[a-zA-Zßñüβ漢 ]{0,40}") {
        check_visitor(&format!("{input}{tail}{input}"));
    }
}

proptest! {
    /// Extraction never panics and every term is canonical.
    #[test]
    fn terms_are_canonical(input in ".{0,300}") {
        for t in extract_terms(&input) {
            prop_assert!(t.len() >= MIN_TERM_LEN);
            prop_assert!(t.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    /// Case and accent variations canonicalise to the same terms.
    #[test]
    fn extraction_case_insensitive(input in "[a-zA-Z ]{0,120}") {
        prop_assert_eq!(
            extract_terms(&input),
            extract_terms(&input.to_uppercase())
        );
    }

    /// The term set is the deduplicated term list.
    #[test]
    fn term_set_matches_terms(input in ".{0,200}") {
        let set = extract_term_set(&input);
        let mut dedup = Vec::new();
        for t in extract_terms(&input) {
            if !dedup.contains(&t) {
                dedup.push(t);
            }
        }
        prop_assert_eq!(set, dedup);
    }

    /// Distribution totals equal the number of extracted terms, and
    /// merging adds totals.
    #[test]
    fn distribution_accounting(a in "[a-z ]{0,150}", b in "[a-z ]{0,150}") {
        let da = TermDistribution::from_text(&a);
        let db = TermDistribution::from_text(&b);
        prop_assert_eq!(da.total_count() as usize, extract_terms(&a).len());
        let mut merged = da.clone();
        merged.merge(&db);
        prop_assert_eq!(merged.total_count(), da.total_count() + db.total_count());
        // Probabilities of a non-empty distribution sum to 1.
        if !merged.is_empty() {
            let sum: f64 = merged.iter().map(|(_, p)| p).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    /// Hellinger and Jaccard agree on the extremes.
    #[test]
    fn metrics_agree_on_extremes(terms in proptest::collection::vec("[a-z]{3,7}", 1..15)) {
        let d = TermDistribution::from_terms(terms.clone());
        prop_assert_eq!(d.hellinger_squared(&d), Some(0.0));
        prop_assert_eq!(d.jaccard_distance(&d), Some(0.0));
        // A disjoint distribution is maximally distant under both.
        let other = TermDistribution::from_terms(
            terms.iter().map(|t| format!("zzz{t}")).collect::<Vec<_>>(),
        );
        if terms.iter().all(|t| !t.starts_with("zzz")) {
            prop_assert_eq!(d.jaccard_distance(&other), Some(1.0));
            let h = d.hellinger_squared(&other).unwrap();
            prop_assert!((h - 1.0).abs() < 1e-9);
        }
    }

    /// TF-IDF scores are non-negative and only cover the document's terms.
    #[test]
    fn tfidf_support(docs in proptest::collection::vec("[a-z ]{0,60}", 0..8), query in "[a-z ]{0,60}") {
        let mut corpus = Corpus::new();
        for d in &docs {
            corpus.add_document(d);
        }
        let scores = corpus.tfidf(&query);
        let terms = extract_term_set(&query);
        prop_assert_eq!(scores.len(), terms.len());
        for (t, v) in scores {
            prop_assert!(v >= 0.0);
            prop_assert!(terms.contains(&t));
        }
    }
}
