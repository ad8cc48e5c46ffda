//! Property-based tests for URL parsing: the parser must never panic on
//! arbitrary input and must uphold the Fig. 1 decomposition invariants on
//! everything it accepts.

use kyp_url::{psl, Url};
use proptest::prelude::*;

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
                prop_assert!(fqdn.as_str().ends_with(rdn));
                prop_assert!(fqdn.label_count() >= 1);
                // Subdomain labels + RDN labels == all labels.
                let subdomain_labels = fqdn.subdomains().split('.').filter(|l| !l.is_empty());
                prop_assert_eq!(
                    subdomain_labels.count() + rdn.split('.').count(),
                    fqdn.label_count()
                );
                prop_assert!(url.canonical_key().starts_with(fqdn.as_str()));
            } else {
                prop_assert!(url.host().is_ip());
                prop_assert_eq!(url.mld(), None);
            }
            // FreeURL is derived without panic.
            let _ = url.free_url().joined();
        }
    }

    /// Valid host names round-trip through the URL's Fqdn.
    #[test]
    fn fqdn_roundtrip(labels in proptest::collection::vec("[a-z][a-z0-9]{0,8}", 1..5)) {
        let host = labels.join(".");
        let url = Url::parse(&format!("http://{host}/")).unwrap();
        let fqdn = url.fqdn().unwrap();
        prop_assert_eq!(fqdn.to_string(), host);
        prop_assert_eq!(fqdn.label_count(), labels.len());
        prop_assert!(fqdn.labels().eq(labels.iter().map(String::as_str)));
    }

    /// The public-suffix split always leaves a non-empty suffix of at
    /// most all labels.
    #[test]
    fn psl_split_bounds(labels in proptest::collection::vec("[a-z]{1,8}", 1..6)) {
        let n = psl::suffix_label_count(&labels.join("."));
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
