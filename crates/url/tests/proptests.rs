//! Property-based tests for URL parsing: the parser must never panic on
//! arbitrary input and must uphold the Fig. 1 decomposition invariants on
//! everything it accepts.

use kyp_url::{psl, Fqdn, Url};
use proptest::prelude::*;

/// The reference for [`psl::suffix_label_count`]: every rule checked in
/// turn, the way the PSL algorithm is written down.
fn suffix_label_count_by_scan(labels: &[String]) -> usize {
    if labels.is_empty() {
        return 0;
    }
    let matches = |rule: &[&str]| {
        rule.len() <= labels.len()
            && labels[labels.len() - rule.len()..]
                .iter()
                .zip(rule)
                .all(|(a, b)| a == b)
    };
    for rule in psl::EXCEPTIONS {
        let rule: Vec<&str> = rule.split('.').collect();
        if matches(&rule) {
            return rule.len() - 1;
        }
    }
    let mut best = 1;
    for rule in psl::EXACT {
        let rule: Vec<&str> = rule.split('.').collect();
        if matches(&rule) {
            best = best.max(rule.len());
        }
    }
    for rule in psl::WILDCARD {
        let rule: Vec<&str> = rule.split('.').collect();
        if labels.len() > rule.len() && matches(&rule) {
            best = best.max(rule.len() + 1);
        }
    }
    best.min(labels.len())
}

/// The labels of the `i`-th embedded rule (exact, wildcard, then
/// exception rules), wrapping around.
fn rule_labels(i: usize) -> Vec<String> {
    let rules = psl::EXACT
        .iter()
        .chain(psl::WILDCARD)
        .chain(psl::EXCEPTIONS);
    let n = psl::EXACT.len() + psl::WILDCARD.len() + psl::EXCEPTIONS.len();
    let rule = rules.copied().nth(i % n).unwrap_or_default();
    rule.split('.').map(str::to_owned).collect()
}

/// A label of some rule, or a short random one (which may collide with a
/// rule label too).
fn label() -> impl Strategy<Value = String> {
    prop_oneof![
        (any::<usize>(), any::<usize>()).prop_map(|(i, j)| {
            let labels = rule_labels(i);
            labels[j % labels.len()].clone()
        }),
        "[a-z]{1,3}",
    ]
}

/// Domain labels ending, half the time, in a whole rule (so multi-label,
/// wildcard and exception rules are all hit), else in arbitrary labels.
fn domain_labels() -> impl Strategy<Value = Vec<String>> {
    (
        collection::vec(label(), 0..4),
        prop_oneof![
            any::<usize>().prop_map(rule_labels),
            collection::vec(label(), 1..3)
        ],
    )
        .prop_map(|(mut labels, tail)| {
            labels.extend(tail);
            labels
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// The binary-searched rule table agrees with a scan of every rule.
    #[test]
    fn psl_lookup_matches_rule_scan(labels in domain_labels()) {
        prop_assert_eq!(
            psl::suffix_label_count(&labels),
            suffix_label_count_by_scan(&labels),
            "{:?}",
            labels
        );
    }
}

proptest! {
    /// Arbitrary byte soup never panics the parser.
    #[test]
    fn parse_never_panics(input in ".{0,120}") {
        let _ = Url::parse(&input);
    }

    /// Anything the parser accepts decomposes consistently.
    #[test]
    fn accepted_urls_decompose(input in ".{0,120}") {
        if let Ok(url) = Url::parse(&input) {
            // FQDN xor IP.
            if let Some(fqdn) = url.fqdn() {
                let rdn = url.rdn().unwrap();
                prop_assert!(fqdn.to_string().ends_with(&rdn));
                prop_assert!(fqdn.label_count() >= 1);
                // Subdomain labels + RDN labels == all labels.
                let rdn_labels = rdn.split('.').count();
                prop_assert_eq!(
                    fqdn.subdomains().len() + rdn_labels,
                    fqdn.label_count()
                );
            } else {
                prop_assert!(url.host().is_ip());
                prop_assert_eq!(url.mld(), None);
            }
            // FreeURL is derived without panic.
            let _ = url.free_url().joined();
        }
    }

    /// Valid host names round-trip through Fqdn.
    #[test]
    fn fqdn_roundtrip(labels in proptest::collection::vec("[a-z][a-z0-9]{0,8}", 1..5)) {
        let host = labels.join(".");
        let fqdn = Fqdn::parse(&host).unwrap();
        prop_assert_eq!(fqdn.to_string(), host);
        prop_assert_eq!(fqdn.label_count(), labels.len());
    }

    /// The public-suffix split always leaves a non-empty suffix of at
    /// most all labels.
    #[test]
    fn psl_split_bounds(labels in proptest::collection::vec("[a-z]{1,8}", 1..6)) {
        let n = psl::suffix_label_count(&labels);
        prop_assert!(n >= 1);
        prop_assert!(n <= labels.len());
    }

    /// same_rdn is reflexive and symmetric.
    #[test]
    fn same_rdn_relation(a in "[a-z]{1,8}", b in "[a-z]{1,8}") {
        let u = Url::parse(&format!("http://{a}.example.com/")).unwrap();
        let v = Url::parse(&format!("http://{b}.example.com/")).unwrap();
        let w = Url::parse(&format!("http://{a}.other.org/")).unwrap();
        prop_assert!(u.same_rdn(&u));
        prop_assert_eq!(u.same_rdn(&v), v.same_rdn(&u));
        prop_assert!(u.same_rdn(&v));
        prop_assert!(!u.same_rdn(&w));
    }
}
