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
//! Every [`crate::Url::parse`] runs [`suffix_label_count`] on the
//! lowercased host, so it does not allocate. Every [`EXACT`] rule has at
//! most 2 labels and at most 8 bytes, so a `const fn` packs each into one
//! big-endian `u64`, zero-padded on the right. Host bytes are never zero,
//! so padding sorts before every host byte and the byte-sorted rules give
//! strictly increasing keys: the whole table is one sorted `u64` array
//! built at compile time. A lookup packs the host's two-label tail (a
//! contiguous slice of the host) the same way and binary-searches the
//! keys; a one-label exact rule never changes the answer, because the
//! implicit `*` rule already yields one label. The few [`WILDCARD`] and
//! [`EXCEPTIONS`] rules are matched as `.`-bounded suffixes of the host.
//! There is no lazily built index and no sorting at run time.

/// Exact public suffix rules: common generic and country TLDs plus the
/// multi-label suffixes registrars sell under them.
///
/// Kept sorted by bytes and free of duplicates, so that their packed keys
/// strictly increase, which the binary search in [`suffix_label_count`]
/// relies on; a unit test asserts it.
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

/// Bytes in a packed rule key.
const KEY_BYTES: usize = 8;

/// [`EXACT`] packed by [`pack`], in the same order. Strictly increasing,
/// which the binary search in [`suffix_label_count`] relies on; a unit
/// test asserts it.
const PACKED: [u64; EXACT.len()] = pack_rules();

const fn pack_rules() -> [u64; EXACT.len()] {
    let mut keys = [0; EXACT.len()];
    let mut i = 0;
    while i < EXACT.len() {
        keys[i] = match pack(EXACT[i].as_bytes()) {
            Some(key) => key,
            None => panic!("an EXACT rule is longer than KEY_BYTES"),
        };
        i += 1;
    }
    keys
}

/// `bytes` as a big-endian `u64`, zero-padded on the right; `None` when
/// longer than [`KEY_BYTES`]. For strings without zero bytes, key order
/// is byte order.
const fn pack(bytes: &[u8]) -> Option<u64> {
    if bytes.len() > KEY_BYTES {
        return None;
    }
    let mut key = 0;
    let mut i = 0;
    while i < KEY_BYTES {
        key <<= 8;
        if i < bytes.len() {
            key |= bytes[i] as u64;
        }
        i += 1;
    }
    Some(key)
}

/// Wildcard rules: `*.ck` means every label under `ck` is a public suffix.
pub const WILDCARD: &[&str] = &["ck", "er", "fk"];

/// Exception rules: these domains are registrable despite a wildcard match.
pub const EXCEPTIONS: &[&str] = &["www.ck"];

/// How many trailing labels of `host` form the public suffix.
///
/// `host` must be a lowercased domain name of non-empty labels joined by
/// `.` (e.g. `www.amazon.co.uk` → `2`).
///
/// Returns at least 1 for a non-empty input (implicit `*` rule) and at
/// most the number of labels (a bare public suffix like `com` is its own
/// suffix, leaving no registrable part).
///
/// # Examples
///
/// ```
/// assert_eq!(kyp_url::psl::suffix_label_count("www.amazon.co.uk"), 2);
/// ```
pub fn suffix_label_count(host: &str) -> usize {
    if host.is_empty() {
        return 0;
    }
    // Exception rules win outright: the matched portion *minus its first
    // label* is the suffix.
    for rule in EXCEPTIONS {
        if host == *rule || is_strict_suffix(host, rule) {
            return rule_label_count(rule) - 1;
        }
    }
    let mut best = 1; // implicit `*` rule
    if let Some(last_dot) = host.rfind('.') {
        let tail_start = host[..last_dot].rfind('.').map_or(0, |i| i + 1);
        let key = pack(&host.as_bytes()[tail_start..]);
        if key.is_some_and(|key| PACKED.binary_search(&key).is_ok()) {
            best = 2;
        }
    }
    for rule in WILDCARD {
        // `*.ck` matches any domain with at least one label before `ck`.
        if is_strict_suffix(host, rule) {
            best = best.max(rule_label_count(rule) + 1);
        }
    }
    best
}

/// Returns `true` when a string is a known public suffix on its own
/// (useful for generators that must pick valid suffixes).
pub fn is_public_suffix(suffix: &str) -> bool {
    if suffix.split('.').any(str::is_empty) {
        return false;
    }
    suffix_label_count(suffix) == rule_label_count(suffix)
}

fn rule_label_count(rule: &str) -> usize {
    rule.split('.').count()
}

/// `true` when `host` ends with `.` followed by `rule`.
fn is_strict_suffix(host: &str, rule: &str) -> bool {
    host.strip_suffix(rule)
        .is_some_and(|head| head.ends_with('.'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_label_tld() {
        assert_eq!(suffix_label_count("example.com"), 1);
        assert_eq!(suffix_label_count("a.b.example.org"), 1);
    }

    #[test]
    fn multi_label_suffix() {
        assert_eq!(suffix_label_count("amazon.co.uk"), 2);
        assert_eq!(suffix_label_count("www.amazon.co.uk"), 2);
        assert_eq!(suffix_label_count("shop.example.com.au"), 2);
    }

    #[test]
    fn unknown_tld_falls_back_to_one() {
        assert_eq!(suffix_label_count("example.zzztld"), 1);
    }

    #[test]
    fn wildcard_rule() {
        // *.ck: anything.ck is a suffix, so foo.bar.ck has RDN foo.bar.ck? No:
        // bar.ck is the suffix (2 labels), foo.bar.ck is registrable.
        assert_eq!(suffix_label_count("foo.bar.ck"), 2);
        assert_eq!(suffix_label_count("bar.ck"), 2);
    }

    #[test]
    fn exception_rule() {
        // !www.ck: www.ck is registrable, suffix is just "ck".
        assert_eq!(suffix_label_count("www.ck"), 1);
        assert_eq!(suffix_label_count("a.www.ck"), 1);
    }

    #[test]
    fn bare_suffix_is_whole_input() {
        assert_eq!(suffix_label_count("com"), 1);
        assert_eq!(suffix_label_count("co.uk"), 2);
    }

    #[test]
    fn empty_input() {
        assert_eq!(suffix_label_count(""), 0);
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
    fn exact_rules_have_at_most_two_labels() {
        // The lookup only searches the two-label tail.
        let longest = EXACT.iter().map(|r| rule_label_count(r)).max();
        assert_eq!(longest, Some(2));
    }

    #[test]
    fn packed_keys_fit_and_strictly_increase() {
        for rule in EXACT {
            assert!(rule.len() <= KEY_BYTES, "{rule:?} does not fit a key");
            assert!(!rule.contains('\0'), "{rule:?} would alias its padding");
        }
        for (i, pair) in PACKED.windows(2).enumerate() {
            assert!(
                pair[0] < pair[1],
                "key of {:?} must sort before {:?}",
                EXACT[i],
                EXACT[i + 1]
            );
        }
        assert_eq!(pack(b"co.uk"), Some(u64::from_be_bytes(*b"co.uk\0\0\0")));
        assert_eq!(pack(b"ninebytes"), None);
    }

    #[test]
    fn longest_rule_wins() {
        // "uk" and "co.uk" both match; co.uk must win.
        assert_eq!(suffix_label_count("x.co.uk"), 2);
        // "uk" alone for a non-listed second level.
        assert_eq!(suffix_label_count("x.zzz.uk"), 1);
    }
}
