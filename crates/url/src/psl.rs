//! An embedded snapshot of public suffix rules.
//!
//! The paper relies on the [Public Suffix List](https://publicsuffix.org/)
//! to split a fully qualified domain name into a registered domain name
//! (`mld.ps`) and subdomains. Shipping the full, constantly-changing list
//! is unnecessary for the reproduction; we embed a representative rule set
//! covering every suffix produced by the synthetic web plus the common
//! multi-label and wildcard cases so the matching algorithm is exercised
//! in full (exact rules, wildcard rules and exception rules).
//!
//! Matching follows the PSL algorithm: among all rules matching a domain,
//! the one with the most labels wins; exception rules (prefixed `!`) beat
//! wildcard rules; if nothing matches, the implicit rule `*` applies (the
//! last label is the suffix).
//!
//! # Lookup
//!
//! Every [`crate::Url::parse`] runs [`suffix_label_count`], so it does not
//! allocate. [`EXACT`] is sorted by bytes in source; for each tail of one
//! up to the most labels any exact rule has, the lookup binary-searches it,
//! comparing the rule's bytes with the tail's labels joined by `.` without
//! building the joined string. The few [`WILDCARD`] and [`EXCEPTIONS`]
//! rules are scanned label by label. There is no lazily built index and no
//! sorting at run time.

use std::cmp::Ordering;

/// Exact public suffix rules: common generic and country TLDs plus the
/// multi-label suffixes registrars sell under them.
///
/// Kept sorted by bytes and free of duplicates, which the binary search in
/// [`suffix_label_count`] relies on; a unit test asserts both.
pub const EXACT: &[&str] = &[
    "ac.id", "ac.il", "ac.jp", "ac.kr", "ac.nz", "ac.th", "ac.uk", "ac.za", "ae", "agency", "app",
    "ar", "art", "at", "au", "be", "bg", "biz", "blog", "bo", "br", "ca", "cc", "cf", "ch", "cl",
    "click", "cloud", "club", "cn", "co", "co.id", "co.il", "co.in", "co.jp", "co.kr", "co.nz",
    "co.th", "co.uk", "co.za", "com", "com.ar", "com.au", "com.br", "com.cn", "com.eg", "com.hk",
    "com.mx", "com.my", "com.ph", "com.pl", "com.sa", "com.sg", "com.tr", "com.tw", "com.ua",
    "com.vn", "cy", "cz", "de", "dev", "dk", "ec", "edu", "edu.au", "edu.br", "edu.cn", "edu.mx",
    "edu.pl", "ee", "eg", "email", "es", "fi", "firm.in", "fr", "ga", "gen.in", "go.jp", "go.kr",
    "go.th", "gob.mx", "gov", "gov.au", "gov.br", "gov.cn", "gov.il", "gov.uk", "gov.za",
    "govt.nz", "gq", "gr", "group", "hk", "hr", "hu", "id", "id.au", "ie", "il", "in", "in.th",
    "ind.in", "info", "int", "io", "is", "it", "jp", "ke", "kr", "kw", "life", "link", "live",
    "lt", "ltd.uk", "lu", "lv", "ma", "me", "me.uk", "mil", "ml", "mo", "mt", "mx", "my", "name",
    "ne.jp", "net", "net.au", "net.br", "net.cn", "net.il", "net.in", "net.mx", "net.nz", "net.pl",
    "net.uk", "net.za", "news", "ng", "nl", "no", "nz", "online", "or.id", "or.jp", "or.kr", "org",
    "org.au", "org.br", "org.cn", "org.il", "org.in", "org.mx", "org.nz", "org.pl", "org.uk",
    "org.za", "page", "pe", "ph", "pl", "plc.uk", "plus", "pro", "pt", "pw", "py", "qa", "ro",
    "ru", "sa", "se", "sg", "shop", "si", "site", "sk", "space", "store", "tech", "th", "tk",
    "today", "top", "tr", "tv", "tw", "ua", "uk", "us", "uy", "vn", "web.id", "web.za", "website",
    "work", "world", "ws", "xyz", "za", "zone",
];

/// The most labels of any [`EXACT`] rule: longer tails cannot match one.
const MAX_RULE_LABELS: usize = 2;

/// Wildcard rules: `*.ck` means every label under `ck` is a public suffix.
pub const WILDCARD: &[&str] = &["ck", "er", "fk"];

/// Exception rules: these domains are registrable despite a wildcard match.
pub const EXCEPTIONS: &[&str] = &["www.ck"];

/// How many trailing labels of `labels` form the public suffix.
///
/// `labels` must be lowercased domain labels in their natural order
/// (e.g. `["www", "amazon", "co", "uk"]` → `2`).
///
/// Returns at least 1 for a non-empty input (implicit `*` rule) and at
/// most `labels.len()` (a bare public suffix like `com` is its own
/// suffix, leaving no registrable part).
///
/// # Examples
///
/// ```
/// let labels = ["www", "amazon", "co", "uk"].map(String::from);
/// assert_eq!(kyp_url::psl::suffix_label_count(&labels), 2);
/// ```
pub fn suffix_label_count(labels: &[String]) -> usize {
    if labels.is_empty() {
        return 0;
    }
    // Exception rules win outright: the matched portion *minus its first
    // label* is the suffix.
    for rule in EXCEPTIONS {
        if tail_matches(labels, rule) {
            return rule_label_count(rule) - 1;
        }
    }
    let n = labels.len();
    let mut best = 1; // implicit `*` rule
    for k in 1..=MAX_RULE_LABELS.min(n) {
        let tail = &labels[n - k..];
        if EXACT
            .binary_search_by(|rule| cmp_dotted(rule, tail))
            .is_ok()
        {
            best = k;
        }
    }
    for rule in WILDCARD {
        // `*.ck` matches any domain with at least one label before `ck`.
        let rule_labels = rule_label_count(rule);
        if n > rule_labels && tail_matches(labels, rule) {
            best = best.max(rule_labels + 1);
        }
    }
    best.min(n)
}

/// Returns `true` when a string is a known public suffix on its own
/// (useful for generators that must pick valid suffixes).
pub fn is_public_suffix(suffix: &str) -> bool {
    let labels: Vec<String> = suffix.split('.').map(str::to_owned).collect();
    if labels.iter().any(String::is_empty) {
        return false;
    }
    suffix_label_count(&labels) == labels.len()
}

fn rule_label_count(rule: &str) -> usize {
    rule.split('.').count()
}

/// `true` when `labels` ends with the labels of the dotted `rule`.
fn tail_matches(labels: &[String], rule: &str) -> bool {
    let mut labels = labels.iter().rev();
    rule.rsplit('.')
        .all(|r| labels.next().is_some_and(|l| l == r))
}

/// Orders `rule` against `tail` joined by `.`, byte by byte, without
/// building the joined string.
fn cmp_dotted(rule: &str, tail: &[String]) -> Ordering {
    let joined = tail.iter().enumerate().flat_map(|(i, label)| {
        let dot: &[u8] = if i == 0 { b"" } else { b"." };
        dot.iter().chain(label.as_bytes()).copied()
    });
    rule.bytes().cmp(joined)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(s: &str) -> Vec<String> {
        s.split('.').map(str::to_owned).collect()
    }

    #[test]
    fn single_label_tld() {
        assert_eq!(suffix_label_count(&labels("example.com")), 1);
        assert_eq!(suffix_label_count(&labels("a.b.example.org")), 1);
    }

    #[test]
    fn multi_label_suffix() {
        assert_eq!(suffix_label_count(&labels("amazon.co.uk")), 2);
        assert_eq!(suffix_label_count(&labels("www.amazon.co.uk")), 2);
        assert_eq!(suffix_label_count(&labels("shop.example.com.au")), 2);
    }

    #[test]
    fn unknown_tld_falls_back_to_one() {
        assert_eq!(suffix_label_count(&labels("example.zzztld")), 1);
    }

    #[test]
    fn wildcard_rule() {
        // *.ck: anything.ck is a suffix, so foo.bar.ck has RDN foo.bar.ck? No:
        // bar.ck is the suffix (2 labels), foo.bar.ck is registrable.
        assert_eq!(suffix_label_count(&labels("foo.bar.ck")), 2);
        assert_eq!(suffix_label_count(&labels("bar.ck")), 2);
    }

    #[test]
    fn exception_rule() {
        // !www.ck: www.ck is registrable, suffix is just "ck".
        assert_eq!(suffix_label_count(&labels("www.ck")), 1);
        assert_eq!(suffix_label_count(&labels("a.www.ck")), 1);
    }

    #[test]
    fn bare_suffix_is_whole_input() {
        assert_eq!(suffix_label_count(&labels("com")), 1);
        assert_eq!(suffix_label_count(&labels("co.uk")), 2);
    }

    #[test]
    fn empty_input() {
        assert_eq!(suffix_label_count(&[]), 0);
    }

    #[test]
    fn is_public_suffix_checks() {
        assert!(is_public_suffix("com"));
        assert!(is_public_suffix("co.uk"));
        assert!(!is_public_suffix("amazon.co.uk"));
        assert!(!is_public_suffix(""));
        assert!(!is_public_suffix("a..b"));
        assert!(is_public_suffix("zzztld")); // implicit * rule
    }

    #[test]
    fn exact_rules_are_sorted_and_deduplicated() {
        for pair in EXACT.windows(2) {
            assert!(
                pair[0] < pair[1],
                "{:?} must sort before {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn max_rule_labels_covers_every_exact_rule() {
        let longest = EXACT.iter().map(|r| rule_label_count(r)).max();
        assert_eq!(longest, Some(MAX_RULE_LABELS));
    }

    #[test]
    fn longest_rule_wins() {
        // "uk" and "co.uk" both match; co.uk must win.
        assert_eq!(suffix_label_count(&labels("x.co.uk")), 2);
        // "uk" alone for a non-listed second level.
        assert_eq!(suffix_label_count(&labels("x.zzz.uk")), 1);
    }
}
