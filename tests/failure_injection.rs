//! Failure-injection tests: the system must degrade gracefully on the
//! pathological inputs the paper discusses — empty pages, IP-hosted URLs,
//! redirect loops, broken markup, hostile HTML.

use knowyourphish::core::{
    features::FEATURE_COUNT, DataSources, DetectorConfig, FeatureExtractor, PhishDetector,
    Pipeline, Source, TargetIdentifier, TargetVerdict,
};
use knowyourphish::datagen::{CampaignConfig, Corpus};
use knowyourphish::html::Document;
use knowyourphish::ml::Dataset;
use knowyourphish::search::SearchEngine;
use knowyourphish::url::Url;
use knowyourphish::web::{
    BreakerState, Browser, CircuitBreaker, FailureCause, FaultKind, FaultPlan, FlakyWorld, Page,
    ResilientBrowser, RetryPolicy, SourceAvailability, VisitError, VisitedPage, WebWorld,
};
use proptest::prelude::*;
use std::sync::Arc;

fn empty_page_visit(url: &str) -> VisitedPage {
    let u = Url::parse(url).unwrap();
    VisitedPage {
        starting_url: u.clone(),
        landing_url: u.clone(),
        redirection_chain: vec![u],
        logged_links: vec![],
        href_links: vec![],
        text: String::new(),
        title: String::new(),
        copyright: None,
        screenshot_text: String::new(),
        input_count: 0,
        image_count: 0,
        iframe_count: 0,
    }
}

#[test]
fn empty_page_yields_full_feature_vector() {
    let visit = empty_page_visit("http://empty.example.com/");
    let features = FeatureExtractor::default().extract(&visit);
    assert_eq!(features.len(), knowyourphish::core::features::FEATURE_COUNT);
    assert!(features.iter().all(|v| v.is_finite()));
}

#[test]
fn ip_hosted_page_yields_null_fqdn_features() {
    // The paper: IP-based URLs have empty FQDN term distributions.
    let visit = empty_page_visit("http://192.0.2.9/login.php?a=1");
    let sources = DataSources::from_page(&visit);
    assert!(sources.is_empty(Source::Startrdn));
    assert!(sources.is_empty(Source::Landrdn));
    let features = FeatureExtractor::default().extract(&visit);
    assert!(features.iter().all(|v| v.is_finite()));
}

#[test]
fn target_identifier_handles_contentless_page() {
    let engine = SearchEngine::new();
    let identifier = TargetIdentifier::new(Arc::new(engine));
    let verdict = identifier.identify(&empty_page_visit("http://x1y2z3.tk/f"));
    assert_eq!(verdict, TargetVerdict::Unknown);
}

#[test]
fn redirect_loops_and_dead_ends_are_errors_not_hangs() {
    let mut world = WebWorld::new();
    world.add_redirect("http://a.example.com/", "http://b.example.com/");
    world.add_redirect("http://b.example.com/", "http://a.example.com/");
    world.add_redirect("http://c.example.com/", "http://missing.example.com/");
    let browser = Browser::new(&world);
    assert_eq!(
        browser.visit("http://a.example.com/").unwrap_err(),
        VisitError::TooManyRedirects
    );
    assert!(matches!(
        browser.visit("http://c.example.com/").unwrap_err(),
        VisitError::NotFound(_)
    ));
}

#[test]
fn hostile_markup_is_contained() {
    let nasty = [
        "<<<<>>>>",
        "<a href=",
        "<script>while(true){}</script>",
        "<title><title><title>deep</title>",
        "<body onload=\"x\"><iframe><iframe><iframe>",
        "&#xFFFFFFF; &bogus; &amp",
        "<a href='http://x.com/a'>ok</a><a href=\"broken",
    ];
    for html in nasty {
        let doc = Document::parse(html);
        // No panic, and any extracted link is non-empty.
        assert!(doc.href_links.iter().all(|h| !h.is_empty()), "{html}");
    }
}

#[test]
fn deeply_nested_subdomain_obfuscation_parses() {
    let url =
        Url::parse("http://paypago.com.secure.account.verify.session.login.badhost.tk/p").unwrap();
    assert_eq!(url.rdn(), Some("badhost.tk"));
    assert_eq!(url.level_domain_count(), 9);
}

#[test]
fn scraper_skips_pages_that_fail_midworld() {
    // A world where half the URLs are dead: the harness-level behaviour
    // (skip and continue) is exercised via Browser directly.
    let mut world = WebWorld::new();
    world.add_page("http://alive.example.com/", Page::new("<body>ok</body>"));
    let browser = Browser::new(&world);
    assert!(browser.visit("http://alive.example.com/").is_ok());
    assert!(browser.visit("http://dead.example.com/").is_err());
    // The world is untouched by failed visits.
    assert_eq!(world.len(), 1);
}

/// A small world of plain pages, one host each.
fn flaky_test_world(hosts: usize) -> (WebWorld, Vec<String>) {
    let mut world = WebWorld::new();
    let mut urls = Vec::new();
    for i in 0..hosts {
        let url = format!("http://host{i}.example.com/login");
        world.add_page(
            &url,
            Page::new(format!(
                "<title>Site {i}</title><body><a href=\"/about\">about</a>\
                 <p>welcome to site number {i}, please sign in</p></body>"
            )),
        );
        urls.push(url);
    }
    (world, urls)
}

#[test]
fn transient_faults_recover_through_retries() {
    let (world, urls) = flaky_test_world(30);
    let flaky = FlakyWorld::new(&world, FaultPlan::only(5, 0.3, &[FaultKind::Transient]));
    let mut scraper = ResilientBrowser::new(&flaky);
    for url in &urls {
        let scraped = scraper
            .scrape(url)
            .unwrap_or_else(|f| panic!("{url} should recover, failed with {:?}", f.cause));
        assert!(!scraped.availability.is_degraded());
    }
    assert!(
        scraper.total_retries() > 0,
        "a 30% transient rate must force at least one retry"
    );
}

#[test]
fn permanent_timeouts_exhaust_the_deadline_budget() {
    let (world, urls) = flaky_test_world(1);
    let plan = FaultPlan::only(9, 1.0, &[FaultKind::Timeout]);
    let timeout_ms = plan.timeout_ms;
    let flaky = FlakyWorld::new(&world, plan);
    let mut scraper = ResilientBrowser::new(&flaky);
    let policy = scraper.policy().clone();

    let failure = scraper.scrape(&urls[0]).unwrap_err();
    assert!(
        matches!(
            failure.cause,
            FailureCause::DeadlineExceeded | FailureCause::Timeout
        ),
        "got {:?}",
        failure.cause
    );
    // The deadline budget cuts retries short: every attempt costs a full
    // timeout, so far fewer than max_attempts fit in the budget.
    assert!(failure.attempts < policy.max_attempts);
    assert!(failure.elapsed_ms <= policy.deadline_ms + timeout_ms);
}

#[test]
fn circuit_breaker_trips_and_half_opens() {
    let (world, urls) = flaky_test_world(1);
    let url = &urls[0];
    let host = "host0.example.com";
    let flaky = FlakyWorld::new(&world, FaultPlan::only(3, 1.0, &[FaultKind::Transient]));
    let policy = RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    };
    let cooldown_ms = 1_000;
    let mut scraper =
        ResilientBrowser::with_policy(&flaky, policy, CircuitBreaker::new(2, cooldown_ms));

    // Two straight failures trip the host's breaker...
    for _ in 0..2 {
        assert_eq!(
            scraper.scrape(url).unwrap_err().cause,
            FailureCause::Transient
        );
    }
    assert_eq!(scraper.breaker().trips(), 1);
    assert_eq!(
        scraper.breaker().state(host, scraper.clock().now_ms()),
        BreakerState::Open
    );

    // ...so the next scrape fails fast without touching the network.
    let fetches_before = flaky.total_fetches();
    let failure = scraper.scrape(url).unwrap_err();
    assert_eq!(failure.cause, FailureCause::CircuitOpen);
    assert_eq!(failure.attempts, 0);
    assert_eq!(flaky.total_fetches(), fetches_before);

    // After the cooldown the breaker half-opens and lets one probe through;
    // the probe fails, so the circuit snaps open again.
    scraper.clock().advance(cooldown_ms + 1);
    assert_eq!(
        scraper.breaker().state(host, scraper.clock().now_ms()),
        BreakerState::HalfOpen
    );
    let failure = scraper.scrape(url).unwrap_err();
    assert_eq!(failure.cause, FailureCause::Transient);
    assert_eq!(failure.attempts, 1, "half-open admits exactly one probe");
    assert!(flaky.total_fetches() > fetches_before);
    assert_eq!(scraper.breaker().trips(), 2);
}

#[test]
fn truncated_page_still_yields_full_feature_vector() {
    let (world, urls) = flaky_test_world(4);
    let flaky = FlakyWorld::new(&world, FaultPlan::only(1, 1.0, &[FaultKind::TruncateHtml]));
    let mut scraper = ResilientBrowser::new(&flaky);
    let extractor = FeatureExtractor::default();
    for url in &urls {
        let scraped = scraper.scrape(url).expect("truncation degrades, not fails");
        assert!(scraped.availability.is_degraded());
        assert!(!scraped.availability.html);
        let features = extractor.extract_degraded(&scraped.visit, &scraped.availability);
        assert_eq!(features.len(), FEATURE_COUNT);
        assert!(features.iter().all(|v| v.is_finite()), "{url}");
    }
}

proptest! {
    /// Whatever sources went missing, a degraded extraction is always a
    /// complete, finite feature vector.
    #[test]
    fn degraded_vectors_are_always_finite_and_fixed_length(
        html in any::<bool>(),
        links in any::<bool>(),
        screenshot in any::<bool>(),
        text in "[a-z ]{0,40}",
        title in "[a-z ]{0,15}",
        host in "[a-z]{3,12}",
    ) {
        let visit = VisitedPage {
            text,
            title,
            ..empty_page_visit(&format!("http://{host}.example.com/a"))
        };
        let mask = SourceAvailability { html, links, screenshot };
        let features = FeatureExtractor::default().extract_degraded(&visit, &mask);
        prop_assert_eq!(features.len(), FEATURE_COUNT);
        prop_assert!(features.iter().all(|v| v.is_finite()));
    }
}

/// The PR's acceptance scenario: a 500-page corpus scraped at a seeded
/// 30% fault rate must classify without panicking, account every failure
/// by cause, and produce bit-identical reports across same-seed runs.
#[test]
fn batch_classification_at_thirty_percent_faults_is_total_and_deterministic() {
    let cfg = CampaignConfig {
        seed: 77,
        phish_train: 60,
        phish_test: 100,
        phish_brand: 10,
        leg_train: 200,
        english_test: 400,
        other_language_test: 0,
    };
    let corpus = Corpus::generate(&cfg);
    let extractor = FeatureExtractor::new(corpus.ranker.clone());

    // Train on a clean scrape, as the paper's operators would.
    let browser = Browser::new(&corpus.world);
    let mut train = Dataset::new(FEATURE_COUNT);
    for url in &corpus.leg_train {
        let visit = browser.visit(url).unwrap();
        train.push_row(&extractor.extract(&visit), false);
    }
    for rec in &corpus.phish_train {
        let visit = browser.visit(&rec.url).unwrap();
        train.push_row(&extractor.extract(&visit), true);
    }
    let detector = PhishDetector::train(&train, &DetectorConfig::default());
    let identifier = TargetIdentifier::new(Arc::new(corpus.engine.clone()));
    let pipeline = Pipeline::new(extractor, detector, identifier);

    let mut urls: Vec<String> = corpus.english_test().to_vec();
    urls.extend(corpus.phish_test.iter().map(|r| r.url.clone()));
    assert_eq!(urls.len(), 500);

    let run_once = || {
        let flaky = FlakyWorld::new(&corpus.world, FaultPlan::new(2016, 0.3));
        let mut scraper = ResilientBrowser::new(&flaky);
        pipeline.classify_all(&mut scraper, &urls, &mut knowyourphish::obs::NoopObserver)
    };
    let run = run_once();

    // Totality: every URL is accounted for, exactly once.
    assert_eq!(run.report.requested, 500);
    assert_eq!(run.report.completed + run.report.failed, 500);
    assert_eq!(run.classified.len() as u64, run.report.completed);
    assert_eq!(
        run.report.failures_total(),
        run.report.failed,
        "per-cause failure counts must sum to the failure total"
    );
    assert_eq!(
        run.classified.iter().filter(|c| c.degraded).count() as u64,
        run.report.degraded
    );
    // 30% faults with 4 attempts of headroom: the overwhelming majority
    // of pages still complete, and the faults genuinely bit.
    assert!(run.report.completion_rate() > 0.9);
    assert!(run.report.degraded > 0);
    assert!(run.report.retries > 0);

    // Determinism: a second same-seed run is bit-identical.
    let rerun = run_once();
    assert_eq!(run.classified, rerun.classified);
    assert_eq!(
        serde_json::to_string(&run.report).unwrap(),
        serde_json::to_string(&rerun.report).unwrap()
    );
}

#[test]
fn unicode_soup_everywhere() {
    let visit = VisitedPage {
        text: "ß漢字🦀 ÀÉÎÕÜ çñø — مرحبا мир".repeat(10),
        title: "日本語タイトル β".into(),
        copyright: Some("© ☃".into()),
        screenshot_text: "🎣 phishing".into(),
        ..empty_page_visit("http://unicode.example.com/")
    };
    let features = FeatureExtractor::default().extract(&visit);
    assert!(features.iter().all(|v| v.is_finite()));
    let sources = DataSources::from_page(&visit);
    // Latin-adjacent letters canonicalise; CJK/Arabic/Cyrillic split terms.
    assert!(sources.is_empty(Source::Title) || sources.terms(Source::Title).count() > 0);
}
