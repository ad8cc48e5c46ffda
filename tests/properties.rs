//! Property-based tests on the core data structures and invariants,
//! spanning `kyp-url`, `kyp-text`, `kyp-ml` and `kyp-core`.

use knowyourphish::core::FeatureExtractor;
use knowyourphish::ml::metrics;
use knowyourphish::text::{extract_terms, TermDistribution};
use knowyourphish::url::Url;
use knowyourphish::web::VisitedPage;
use proptest::prelude::*;

/// Strategy for plausible host names.
fn host_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z][a-z0-9-]{0,10}[a-z0-9]", 1..4)
        .prop_map(|labels| format!("{}.com", labels.join(".")))
}

/// Strategy for URL strings (valid by construction).
fn url_strategy() -> impl Strategy<Value = String> {
    (
        prop_oneof![Just("http"), Just("https")],
        host_strategy(),
        "[a-z0-9/._-]{0,30}",
    )
        .prop_map(|(scheme, host, path)| format!("{scheme}://{host}/{path}"))
}

proptest! {
    #[test]
    fn url_decomposition_invariants(s in url_strategy()) {
        let url = Url::parse(&s).unwrap();
        // The RDN is a suffix of the FQDN.
        let fqdn = url.fqdn_str().unwrap();
        let rdn = url.rdn().unwrap();
        let dotted = format!(".{rdn}");
        prop_assert!(fqdn == rdn || fqdn.ends_with(&dotted));
        // The mld is the first label of the RDN.
        if let Some(mld) = url.mld() {
            prop_assert!(rdn.starts_with(mld));
        }
        // FreeURL parts never contain the RDN separator structure.
        let free = url.free_url();
        prop_assert!(!free.subdomains.ends_with('.'));
        // Display preserves the input.
        prop_assert_eq!(url.as_str(), s.as_str());
    }

    #[test]
    fn term_extraction_canonical(input in ".{0,200}") {
        for term in extract_terms(&input) {
            prop_assert!(term.len() >= 3);
            prop_assert!(term.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn term_extraction_idempotent(input in ".{0,120}") {
        let once = extract_terms(&input);
        let rejoined = once.join(" ");
        let twice = extract_terms(&rejoined);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn hellinger_is_a_bounded_symmetric_metric(
        a in proptest::collection::vec("[a-z]{3,8}", 1..20),
        b in proptest::collection::vec("[a-z]{3,8}", 1..20),
    ) {
        let da = TermDistribution::from_terms(a);
        let db = TermDistribution::from_terms(b);
        let ab = da.hellinger_squared(&db).unwrap();
        let ba = db.hellinger_squared(&da).unwrap();
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-9);
        // Identity of indiscernibles (one direction).
        prop_assert_eq!(da.hellinger_squared(&da), Some(0.0));
    }

    #[test]
    fn auc_is_invariant_to_monotone_transform(
        scores in proptest::collection::vec(0.0f64..1.0, 4..40),
        labels in proptest::collection::vec(any::<bool>(), 4..40),
    ) {
        let n = scores.len().min(labels.len());
        let scores = &scores[..n];
        let labels = &labels[..n];
        let auc1 = metrics::auc(scores, labels);
        let transformed: Vec<f64> = scores.iter().map(|s| s * s * 0.5 + 0.1).collect();
        let auc2 = metrics::auc(&transformed, labels);
        prop_assert!((auc1 - auc2).abs() < 1e-9, "{auc1} vs {auc2}");
        prop_assert!((0.0..=1.0).contains(&auc1));
    }

    #[test]
    fn feature_vector_always_complete_and_finite(
        start in url_strategy(),
        land in url_strategy(),
        text in ".{0,200}",
        title in ".{0,60}",
        links in proptest::collection::vec(url_strategy(), 0..6),
        inputs in 0usize..10,
    ) {
        let page = VisitedPage {
            starting_url: Url::parse(&start).unwrap(),
            landing_url: Url::parse(&land).unwrap(),
            redirection_chain: vec![
                Url::parse(&start).unwrap(),
                Url::parse(&land).unwrap(),
            ],
            logged_links: links.iter().map(|l| Url::parse(l).unwrap()).collect(),
            href_links: links.iter().map(|l| Url::parse(l).unwrap()).collect(),
            text,
            title,
            copyright: None,
            screenshot_text: String::new(),
            input_count: inputs,
            image_count: inputs / 2,
            iframe_count: 0,
        };
        let features = FeatureExtractor::default().extract(&page);
        prop_assert_eq!(features.len(), knowyourphish::core::features::FEATURE_COUNT);
        for (i, v) in features.iter().enumerate() {
            prop_assert!(v.is_finite(), "feature {i} = {v}");
        }
    }

    #[test]
    fn html_parser_never_panics(html in ".{0,400}") {
        let doc = knowyourphish::html::Document::parse(&html);
        // Counts are consistent with extracted links.
        let _ = doc.text;
        let _ = doc.title;
        prop_assert!(doc.href_links.iter().all(|h| !h.is_empty()));
    }

    #[test]
    fn ocr_output_is_subset_of_charset(text in "[a-zA-Z0-9 ]{0,120}") {
        let cfg = knowyourphish::web::ocr::OcrConfig::default();
        let out = knowyourphish::web::ocr::simulate_ocr(&text, &cfg);
        // OCR never invents whitespace runs and never grows words count.
        prop_assert!(out.split_whitespace().count() <= text.split_whitespace().count());
    }
}
