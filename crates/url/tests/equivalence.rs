//! Equivalence of the one-buffer [`Url`] with the `Vec<String>` parser it
//! replaced (kept in `reference/`): every accessor, and every error
//! variant, on generated URLs and on arbitrary strings.

mod reference;

use kyp_url::{psl, FreeUrl, Host, Url};
use proptest::prelude::*;
use reference::{RefFqdn, RefHost, RefUrl};

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

/// `Some` of a generated value or `None`, evenly.
fn maybe<S: Strategy + 'static>(strategy: S) -> impl Strategy<Value = Option<S::Value>>
where
    S::Value: Clone,
{
    prop_oneof![Just(None), strategy.prop_map(Some)]
}

/// Rule-ending domain names, half of them in mixed case.
fn domain() -> impl Strategy<Value = String> {
    (domain_labels(), any::<u64>(), any::<bool>()).prop_map(|(labels, mask, mix)| {
        let name = labels.join(".");
        if mix {
            mixed_case(&name, mask)
        } else {
            name
        }
    })
}

/// Hosts: domain names; IPv4 literals, some octets zero-padded; dotted
/// digit runs (mostly digit-only domains); and a few malformed names.
fn host() -> impl Strategy<Value = String> {
    let ipv4 = (collection::vec(0u16..256, 4..5), any::<bool>()).prop_map(|(octets, pad)| {
        let octets: Vec<String> = octets
            .iter()
            .map(|o| {
                if pad && o % 2 == 0 {
                    format!("{o:03}")
                } else {
                    o.to_string()
                }
            })
            .collect();
        octets.join(".")
    });
    let digits = collection::vec("[0-9]{1,4}", 3..6).prop_map(|parts| parts.join("."));
    let malformed = prop_oneof![
        Just("a..b.com".to_owned()),
        Just(".com".to_owned()),
        Just("exa mple.com".to_owned()),
        Just("ex!ample.com".to_owned()),
        Just("é.com".to_owned()),
        Just("a".repeat(64) + ".com"),
        Just(String::new()),
    ];
    prop_oneof![domain(), domain(), ipv4, digits, malformed]
}

/// Ports: mostly none, some numeric (overflowing ones included), a few
/// malformed.
fn port() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just(String::new()),
        "[0-9]{1,6}".prop_map(|p| format!(":{p}")),
        prop_oneof![
            Just(":".to_owned()),
            Just(":80a".to_owned()),
            Just(":x".to_owned())
        ],
    ]
}

/// Whole URLs: optional (mixed-case) scheme, userinfo, host, port, path,
/// query and fragment, with optional surrounding whitespace. Some
/// "schemes" break the RFC 3986 grammar, and some queries carry a `://`
/// of their own, which must never be read as the scheme.
fn url_string() -> impl Strategy<Value = String> {
    let scheme = prop_oneof![
        Just(""),
        Just("http://"),
        Just("https://"),
        Just("HTTP://"),
        Just("hTtPs://"),
        Just("ftp://"),
        Just("FTP://"),
        Just("Data://"),
        Just("svn+ssh://"),
        Just("a-b.c9://"),
        Just("9p://"),
        Just("-x://"),
        Just("h_t://"),
        Just("://"),
    ];
    let query = prop_oneof![
        "[a-zA-Z0-9=&./?:]{0,8}",
        "[a-z]{1,3}=https?://[a-z]{1,4}\\.com/",
    ];
    (
        (
            prop_oneof![Just(""), Just(" "), Just("\t ")],
            scheme,
            maybe("[a-zA-Z0-9.:]{0,6}"),
            host(),
            port(),
        ),
        (
            maybe("[a-zA-Z0-9./_@:-]{0,12}"),
            maybe(query),
            maybe("[a-z?#/.]{0,6}"),
            prop_oneof![Just(""), Just(" ")],
        ),
    )
        .prop_map(
            |((lead, scheme, userinfo, host, port), (path, query, fragment, trail))| {
                let mut s = format!("{lead}{scheme}");
                if let Some(userinfo) = userinfo {
                    s += &format!("{userinfo}@");
                }
                s += &host;
                s += &port;
                if let Some(path) = path {
                    s += &format!("/{path}");
                }
                if let Some(query) = query {
                    s += &format!("?{query}");
                }
                if let Some(fragment) = fragment {
                    s += &format!("#{fragment}");
                }
                s + trail
            },
        )
}

/// `input` parses to the same decomposition as in the reference, or
/// fails with the same error.
fn check(input: &str) {
    match (Url::parse(input), reference::parse(input)) {
        (Ok(url), Ok(r)) => assert_same(input, &url, &r),
        (Err(e), Err(f)) => prop_assert_eq!(e, f, "{input:?}"),
        (got, want) => panic!("{input:?}: {got:?} vs {want:?}"),
    }
}

/// Every accessor of `url` equals the reference's.
fn assert_same(input: &str, url: &Url, r: &RefUrl) {
    prop_assert_eq!(url.as_str(), r.raw.as_str(), "{input:?}");
    prop_assert_eq!(url.len(), r.raw.len(), "{input:?}");
    prop_assert_eq!(url.scheme().as_str(), r.scheme.as_str(), "{input:?}");
    prop_assert_eq!(url.is_https(), r.scheme == "https", "{input:?}");
    match (url.host(), &r.host) {
        (Host::Ipv4(a), RefHost::Ipv4(b)) => prop_assert_eq!(a, *b, "{input:?}"),
        (Host::Domain(f), RefHost::Domain(g)) => {
            prop_assert_eq!(f.as_str(), g.name(), "{input:?}");
            prop_assert!(
                f.labels().eq(g.labels.iter().map(String::as_str)),
                "{input:?}"
            );
            prop_assert_eq!(f.label_count(), g.labels.len(), "{input:?}");
            prop_assert_eq!(f.subdomains(), g.subdomains().join("."), "{input:?}");
        }
        (got, want) => panic!("{input:?}: host {got:?} vs {want:?}"),
    }
    prop_assert_eq!(url.host_str(), r.host_string(), "{input:?}");
    prop_assert_eq!(url.host().to_string(), r.host_string(), "{input:?}");
    prop_assert_eq!(
        url.fqdn_str(),
        r.fqdn().map(RefFqdn::name).as_deref(),
        "{input:?}"
    );
    prop_assert_eq!(url.port(), r.port, "{input:?}");
    prop_assert_eq!(url.path(), r.path.as_str(), "{input:?}");
    prop_assert_eq!(url.query(), r.query.as_deref(), "{input:?}");
    prop_assert_eq!(url.fragment(), r.fragment.as_deref(), "{input:?}");
    prop_assert_eq!(url.mld(), r.fqdn().and_then(|f| f.mld()), "{input:?}");
    prop_assert_eq!(
        url.rdn(),
        r.fqdn().map(RefFqdn::rdn).as_deref(),
        "{input:?}"
    );
    prop_assert_eq!(
        url.public_suffix(),
        r.fqdn().map(RefFqdn::public_suffix).as_deref()
    );
    prop_assert_eq!(
        url.level_domain_count(),
        r.fqdn().map_or(0, |f| f.labels.len()),
        "{input:?}"
    );
    prop_assert_eq!(
        url.fqdn_len(),
        r.fqdn().map_or(0, |f| f.name().len()),
        "{input:?}"
    );
    prop_assert_eq!(
        url.mld_len(),
        r.fqdn().and_then(|f| f.mld()).map_or(0, str::len),
        "{input:?}"
    );
    let (subdomains, path, query) = r.free_url();
    let free = FreeUrl {
        subdomains,
        path,
        query,
    };
    prop_assert_eq!(url.free_dot_count(), r.free_dot_count(), "{input:?}");
    prop_assert_eq!(url.free_dot_count(), free.dot_count(), "{input:?}");
    prop_assert_eq!(&url.free_url(), &free, "{input:?}");
    prop_assert_eq!(url.canonical_key(), r.canonical_key(), "{input:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// The packed rule table agrees with a scan of every rule.
    #[test]
    fn psl_lookup_matches_rule_scan(labels in domain_labels()) {
        prop_assert_eq!(
            psl::suffix_label_count(&labels.join(".")),
            reference::suffix_label_count_by_scan(&labels),
            "{:?}",
            labels
        );
    }

    /// Generated URLs parse to the same decomposition, or the same error.
    #[test]
    fn generated_urls_match_reference(input in url_string()) {
        check(&input);
    }

    /// `Url::check` accepts a generated URL exactly when `Url::parse`
    /// does, with the same error.
    #[test]
    fn generated_urls_check_as_they_parse(input in url_string()) {
        prop_assert_eq!(Url::check(&input), Url::parse(&input).map(|_| ()), "{:?}", input);
    }

    /// `same_rdn` agrees on pairs of generated URLs, and on a URL paired
    /// with a subdomain of its own host (which mostly shares its RDN).
    #[test]
    fn same_rdn_matches_reference(a in url_string(), b in url_string()) {
        if let (Ok(u), Ok(ru)) = (Url::parse(&a), reference::parse(&a)) {
            let sub = format!("https://z.{}/y", u.host_str());
            for other in [a.as_str(), b.as_str(), sub.as_str()] {
                if let (Ok(v), Ok(rv)) = (Url::parse(other), reference::parse(other)) {
                    prop_assert_eq!(u.same_rdn(&v), ru.same_rdn(&rv), "{:?} / {:?}", a, other);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Arbitrary strings: same decomposition or same error variant.
    #[test]
    fn soup_matches_reference(input in ".{0,120}") {
        check(&input);
    }

    /// URL-alphabet soup, which reaches the separators far more often.
    #[test]
    fn url_alphabet_soup_matches_reference(input in "[a-zA-Z0-9:/?#@. _-]{0,40}") {
        check(&input);
    }

    /// Soup checks as it parses: `Ok` together, or the same error.
    #[test]
    fn soup_checks_as_it_parses(input in ".{0,120}", alphabet in "[a-zA-Z0-9:/?#@. _-]{0,40}") {
        for s in [&input, &alphabet] {
            prop_assert_eq!(Url::check(s), Url::parse(s).map(|_| ()), "{:?}", s);
        }
    }
}
