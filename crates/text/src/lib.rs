#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! Term extraction and term-distribution machinery for the *Know Your
//! Phish* reproduction.
//!
//! Section III-B of the paper defines terms over the alphabet
//! `A = {a..z}`:
//!
//! 1. canonicalise letters — uppercase, accented and special characters are
//!    mapped to a matching letter in `A` (e.g. `B`, `β`, `b̀`, `b̂` → `b`);
//! 2. split the input whenever a character outside `A` is encountered;
//! 3. discard substrings shorter than 3 characters.
//!
//! [`for_each_term`] visits a string's terms in order without allocating
//! per term; [`extract_terms`] collects them as owned strings.
//!
//! A *term distribution* is the set of extracted terms with their relative
//! frequencies; distributions from different data sources of a webpage are
//! compared with the (squared) Hellinger distance, which yields the paper's
//! 66 term-usage-consistency features. A [`TermDictionary`] holds all of
//! one page's sources at once: its distinct terms numbered in
//! lexicographic order, and each source as a sorted `(id, count)` run.
//!
//! # Examples
//!
//! ```
//! use kyp_text::{extract_terms, TermDistribution};
//!
//! let terms = extract_terms("Café Zürich: sign-in 24/7!");
//! assert_eq!(terms, ["cafe", "zurich", "sign"]);
//!
//! let a = TermDistribution::from_text("pay pal login");
//! let b = TermDistribution::from_text("pay pal login");
//! assert_eq!(a.hellinger_squared(&b), Some(0.0));
//! ```

mod canonical;
mod dictionary;
mod distribution;
pub mod tfidf;

pub use canonical::canonicalize_char;
pub use dictionary::{DictionaryBuilder, TermDictionary};
pub use distribution::TermDistribution;

/// Minimum length of a term (paper: "throw away any substring whose length
/// is less than 3").
pub const MIN_TERM_LEN: usize = 3;

/// Extracts the terms of a string per Section III-B of the paper.
///
/// Characters are canonicalised to `[a-z]` (case folding plus accent
/// stripping); any non-letter splits the string; substrings shorter than
/// [`MIN_TERM_LEN`] are dropped. Duplicates are preserved in order of
/// appearance so callers can build frequency distributions. The owned
/// form of [`for_each_term`].
///
/// # Examples
///
/// ```
/// assert_eq!(kyp_text::extract_terms("secure-login2.example"),
///            ["secure", "login", "example"]);
/// ```
pub fn extract_terms(input: &str) -> Vec<String> {
    let mut terms = Vec::new();
    for_each_term(input, &mut String::new(), |term| {
        terms.push(term.to_owned());
    });
    terms
}

/// Visits the terms of a string per Section III-B, in order of
/// appearance, without allocating per term: each term is canonicalised
/// into `scratch` and handed to `visit` as a `&str`, the sequence
/// [`extract_terms`] returns. `scratch` is cleared first and its contents
/// afterwards are unspecified; reusing one across calls keeps its
/// capacity.
///
/// # Examples
///
/// ```
/// let mut scratch = String::new();
/// let mut lengths = Vec::new();
/// kyp_text::for_each_term("Café Zürich: sign-in 24/7!", &mut scratch, |term| {
///     lengths.push(term.len());
/// });
/// assert_eq!(lengths, [4, 6, 4]);
/// ```
pub fn for_each_term(input: &str, scratch: &mut String, mut visit: impl FnMut(&str)) {
    scratch.clear();
    let mut end_term = |term: &mut String| {
        if term.len() >= MIN_TERM_LEN {
            visit(term);
        }
        term.clear();
    };
    // The ASCII fast path of `DictionaryBuilder::push`: runs of ASCII
    // letters, the overwhelming majority in page text and URLs, are
    // copied whole and lowercased in place; only multi-byte characters
    // go through `canonicalize_char`'s full table.
    let bytes = input.as_bytes();
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        if b.is_ascii_alphabetic() {
            let run = i;
            i += 1;
            while bytes.get(i).is_some_and(u8::is_ascii_alphabetic) {
                i += 1;
            }
            let at = scratch.len();
            scratch.push_str(&input[run..i]);
            scratch[at..].make_ascii_lowercase();
        } else if b.is_ascii() {
            i += 1;
            end_term(scratch);
        } else {
            let Some(c) = input[i..].chars().next() else {
                break;
            };
            i += c.len_utf8();
            match canonicalize_char(c) {
                Some(letter) => scratch.push(letter),
                None => end_term(scratch),
            }
        }
    }
    end_term(scratch);
}

/// Counts the terms of a string per Section III-B without allocating:
/// equivalent to `extract_terms(input).len()` but with no `String` or
/// `Vec` construction. Used by hot-path features that only need the
/// count (e.g. the f1 URL statistics).
///
/// # Examples
///
/// ```
/// assert_eq!(kyp_text::term_count("secure-login2.example"), 3);
/// assert_eq!(kyp_text::term_count("a-b-c"), 0);
/// ```
pub fn term_count(input: &str) -> usize {
    let bytes = input.as_bytes();
    let mut count = 0;
    let mut len = 0;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        // ASCII bytes — the whole alphabet of URLs — are classified
        // directly; multi-byte characters take canonicalize_char's table.
        let is_letter = if b.is_ascii() {
            i += 1;
            b.is_ascii_alphabetic()
        } else {
            let Some(c) = input[i..].chars().next() else {
                break;
            };
            i += c.len_utf8();
            canonicalize_char(c).is_some()
        };
        if is_letter {
            len += 1;
        } else {
            if len >= MIN_TERM_LEN {
                count += 1;
            }
            len = 0;
        }
    }
    if len >= MIN_TERM_LEN {
        count += 1;
    }
    count
}

/// Extracts the *distinct* terms of a string, preserving first-appearance
/// order. Convenience for keyterm-set logic (Section V-A).
pub fn extract_term_set(input: &str) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    extract_terms(input)
        .into_iter()
        .filter(|t| seen.insert(t.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_non_letters() {
        assert_eq!(
            extract_terms("www.amazon.co.uk/ap/signin?_encoding=UTF8"),
            ["www", "amazon", "signin", "encoding", "utf"]
        );
    }

    #[test]
    fn drops_short_terms() {
        assert_eq!(extract_terms("a ab abc abcd"), ["abc", "abcd"]);
        assert!(extract_terms("x y z").is_empty());
    }

    #[test]
    fn folds_case_and_accents() {
        assert_eq!(extract_terms("CAFÉ müller"), ["cafe", "muller"]);
        assert_eq!(extract_terms("España ação"), ["espana", "acao"]);
    }

    #[test]
    fn digits_and_hyphens_split() {
        // Paper limitation example: "dl4a" splits into "dl" and "a", both
        // discarded as too short.
        assert!(extract_terms("dl4a").is_empty());
        assert_eq!(extract_terms("e-go s2mr"), Vec::<String>::new());
        assert_eq!(extract_terms("theinstantexchange"), ["theinstantexchange"]);
    }

    #[test]
    fn empty_input() {
        assert!(extract_terms("").is_empty());
        assert!(extract_terms("123 456 !!").is_empty());
    }

    #[test]
    fn duplicates_preserved() {
        assert_eq!(extract_terms("pay pay pal"), ["pay", "pay", "pal"]);
    }

    #[test]
    fn term_count_matches_extract_terms_len() {
        let cases = [
            "www.amazon.co.uk/ap/signin?_encoding=UTF8",
            "a ab abc abcd",
            "CAFÉ müller",
            "dl4a",
            "",
            "123 456 !!",
            "pay pay pal",
            "theinstantexchange",
            "straße βeta",
        ];
        for c in cases {
            assert_eq!(term_count(c), extract_terms(c).len(), "{c:?}");
        }
    }

    #[test]
    fn term_set_dedups_in_order() {
        assert_eq!(
            extract_term_set("pay pal pay login"),
            ["pay", "pal", "login"]
        );
    }

    #[test]
    fn greek_beta_maps_to_b() {
        // Paper example: { B, β, b̀, b̂ } → b.
        assert_eq!(extract_terms("βeta"), ["beta"]);
    }

    #[test]
    fn german_sharp_s() {
        assert_eq!(extract_terms("straße"), ["strase"]);
    }
}
