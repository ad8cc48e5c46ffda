//! The combined system of Section III-C: the phishing detector tentatively
//! flags a page; flagged pages go through target identification, which
//! either names the target (confirming the phish), confirms the page as
//! legitimate (removing a false positive), or stays undecided
//! ("suspicious"). Section VI-D shows this pipeline cutting the false
//! positive rate from 0.0005 to 0.0001 on the English test set.

use crate::features::LinkSplits;
use crate::{
    DataSources, FeatureExtractor, PhishDetector, TargetCandidate, TargetIdentifier, TargetVerdict,
};
use kyp_web::{
    FailureCause, ResilientBrowser, ScrapeFailure, ScrapedPage, SourceAvailability, VisitedPage,
    World,
};
use serde::{Deserialize, Serialize};

/// Outcome of the full pipeline for one page.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineVerdict {
    /// The detector's confidence was below the threshold.
    Legitimate {
        /// Detector confidence.
        score: f64,
    },
    /// The detector flagged the page but target identification confirmed
    /// it as legitimate — a removed false positive.
    ConfirmedLegitimate {
        /// Detector confidence.
        score: f64,
        /// The identification step (1–4) that confirmed legitimacy.
        step: u8,
    },
    /// Flagged and a target was identified.
    Phish {
        /// Detector confidence.
        score: f64,
        /// Ranked candidate targets.
        candidates: Vec<TargetCandidate>,
    },
    /// Flagged, but no target found and no legitimacy confirmation.
    Suspicious {
        /// Detector confidence.
        score: f64,
    },
}

impl PipelineVerdict {
    /// `true` for the `Phish` and `Suspicious` outcomes — pages a deployed
    /// system would block or warn about.
    pub fn is_alarming(&self) -> bool {
        matches!(
            self,
            PipelineVerdict::Phish { .. } | PipelineVerdict::Suspicious { .. }
        )
    }

    /// The detector confidence the verdict carries, whichever variant.
    pub fn score(&self) -> f64 {
        match self {
            PipelineVerdict::Legitimate { score }
            | PipelineVerdict::ConfirmedLegitimate { score, .. }
            | PipelineVerdict::Phish { score, .. }
            | PipelineVerdict::Suspicious { score } => *score,
        }
    }

    /// The payload-free observation kind of this verdict.
    pub fn kind(&self) -> kyp_obs::VerdictKind {
        match self {
            PipelineVerdict::Legitimate { .. } => kyp_obs::VerdictKind::Legitimate,
            PipelineVerdict::ConfirmedLegitimate { .. } => {
                kyp_obs::VerdictKind::ConfirmedLegitimate
            }
            PipelineVerdict::Phish { .. } => kyp_obs::VerdictKind::Phish,
            PipelineVerdict::Suspicious { .. } => kyp_obs::VerdictKind::Suspicious,
        }
    }
}

/// Detector + target identifier, wired as in the paper.
///
/// # Examples
///
/// Training and running the pipeline end-to-end requires a corpus; see
/// `examples/quickstart.rs` at the repository root.
#[derive(Debug, Clone)]
pub struct Pipeline {
    extractor: FeatureExtractor,
    detector: PhishDetector,
    identifier: TargetIdentifier,
}

impl Pipeline {
    /// Assembles a pipeline from its trained components.
    pub fn new(
        extractor: FeatureExtractor,
        detector: PhishDetector,
        identifier: TargetIdentifier,
    ) -> Self {
        Pipeline {
            extractor,
            detector,
            identifier,
        }
    }

    /// The feature extractor.
    pub fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    /// The detection component.
    pub fn detector(&self) -> &PhishDetector {
        &self.detector
    }

    /// The target identification component.
    pub fn identifier(&self) -> &TargetIdentifier {
        &self.identifier
    }

    /// Classifies a page with the two-stage process.
    pub fn classify(&self, page: &VisitedPage) -> PipelineVerdict {
        self.classify_bundle(page, &SourceAvailability::FULL, &mut kyp_obs::NoopObserver)
    }

    /// Classifies a partially captured page.
    ///
    /// Sources the scraper could not deliver intact are replaced by their
    /// neutral values (see [`DataSources::from_partial`]), so the verdict
    /// is always produced from a complete, finite feature vector. With a
    /// [`SourceAvailability::FULL`] mask this is exactly
    /// [`Pipeline::classify`].
    pub fn classify_degraded(
        &self,
        page: &VisitedPage,
        availability: &SourceAvailability,
    ) -> PipelineVerdict {
        self.classify_bundle(page, availability, &mut kyp_obs::NoopObserver)
    }

    /// The canonical classification core every `classify*` entry point
    /// delegates to: degraded-aware source assembly, feature extraction,
    /// the GBM decision, and (for flagged pages) target identification —
    /// with every stage reported to `obs`.
    ///
    /// The observer only watches: the verdict is a pure function of
    /// `(page, availability)`, and passing [`kyp_obs::NoopObserver`]
    /// compiles to the uninstrumented pipeline.
    pub fn classify_bundle(
        &self,
        page: &VisitedPage,
        availability: &SourceAvailability,
        obs: &mut dyn kyp_obs::PipelineObserver,
    ) -> PipelineVerdict {
        obs.page_start(page.starting_url.as_str());
        // One control split serves the link sources and the f1/f4 features.
        let splits = LinkSplits::of(page);
        let sources = DataSources::from_page_with_splits(page, &splits, availability.links, None);
        let features = self
            .extractor
            .extract_observed_with(page, &sources, &splits, obs);
        let score = self.detector.score(&features);
        let flagged = score >= self.detector.threshold();
        obs.detector_score(score, flagged);
        let verdict = if flagged {
            match self
                .identifier
                .identify_with_sources_observed(page, &sources, obs)
            {
                TargetVerdict::Legitimate { step } => {
                    PipelineVerdict::ConfirmedLegitimate { score, step }
                }
                TargetVerdict::Phish { candidates } => PipelineVerdict::Phish { score, candidates },
                TargetVerdict::Unknown => PipelineVerdict::Suspicious { score },
            }
        } else {
            PipelineVerdict::Legitimate { score }
        };
        obs.verdict(verdict.kind());
        verdict
    }

    /// Scrapes and classifies a batch of URLs, degrading gracefully,
    /// reporting every scrape and classification stage to `obs` (pass
    /// [`kyp_obs::NoopObserver`] to watch nothing).
    ///
    /// Every URL is attempted through the resilient scraper; pages that
    /// arrive — even partially — are classified (degraded pages via
    /// [`Pipeline::classify_degraded`]), and pages that cannot be fetched
    /// at all are tallied by failure cause in the returned
    /// [`ScrapeReport`]. The batch never panics on scrape failures, and
    /// with a fault-free world it classifies every URL.
    ///
    /// All timing is virtual (the scraper's [`kyp_web::VirtualClock`]), so
    /// two runs over the same world, plan and URLs produce bit-identical
    /// reports.
    ///
    /// Scraping stays serial — the virtual clock, retry backoff and
    /// per-host circuit breakers are shared sequential state, and the
    /// determinism contract depends on their exact fetch order — but
    /// feature extraction and the two-stage verdict for every captured
    /// page fan out over the default [`kyp_exec`] pool. Verdicts come back
    /// in scrape-completion (= input) order and each page's verdict is a
    /// pure function of its captured bytes, so the [`BatchRun`] is
    /// bit-identical to the serial path at any thread count. Scrape events
    /// stream into the observer in fetch order; classification events are
    /// replayed in input order (see [`Pipeline::classify_scraped`]), so
    /// the observed stream is bit-identical at any thread count too.
    pub fn classify_all<W: World>(
        &self,
        scraper: &mut ResilientBrowser<'_, W>,
        urls: &[String],
        obs: &mut dyn kyp_obs::PipelineObserver,
    ) -> BatchRun {
        let retries_before = scraper.total_retries();
        let trips_before = scraper.breaker().trips();
        let clock_before = scraper.clock().now_ms();

        let mut report = ScrapeReport::default();
        let mut scraped_pages = Vec::new();
        for url in urls {
            let outcome = scraper.scrape_observed(url, obs);
            report.record(&outcome);
            if let Ok(scraped) = outcome {
                scraped_pages.push((url.clone(), scraped));
            }
        }
        report.retries = scraper.total_retries() - retries_before;
        report.breaker_trips = scraper.breaker().trips() - trips_before;
        report.virtual_elapsed_ms = scraper.clock().now_ms() - clock_before;

        let classified = self.classify_scraped(&scraped_pages, obs);
        BatchRun { classified, report }
    }

    /// Classifies a batch of already-scraped pages in parallel, reporting
    /// every stage to `obs`.
    ///
    /// This is the pure classification core of [`Pipeline::classify_all`]
    /// — degraded-aware feature extraction plus the two-stage verdict —
    /// fanned out over the default [`kyp_exec`] pool, shared verbatim by
    /// the batch path, the store scan and the online scoring service
    /// (`kyp-serve`). Verdicts come back in input order and each page's
    /// verdict is a pure function of its captured bytes, so the result is
    /// bit-identical to a serial loop at any thread count.
    ///
    /// Each worker records its page's events into a private
    /// [`kyp_obs::Recorder`] — a pure function of the page — and the
    /// buffers are replayed into `obs` in input order after the pool
    /// joins, so the observed stream is independent of the thread count
    /// and of how chunks were scheduled.
    pub fn classify_scraped(
        &self,
        pages: &[(String, ScrapedPage)],
        obs: &mut dyn kyp_obs::PipelineObserver,
    ) -> Vec<ClassifiedPage> {
        let results = kyp_exec::pool().par_map(pages, |(url, scraped)| {
            let mut recorder = kyp_obs::Recorder::new();
            let verdict =
                self.classify_bundle(&scraped.visit, &scraped.availability, &mut recorder);
            let page = ClassifiedPage {
                url: url.clone(),
                verdict,
                degraded: scraped.availability.is_degraded(),
            };
            (page, recorder.into_events())
        });
        results
            .into_iter()
            .map(|(page, events)| {
                kyp_obs::replay(&events, obs);
                page
            })
            .collect()
    }
}

/// One successfully classified page of a [`Pipeline::classify_all`] batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifiedPage {
    /// The URL the scrape started from.
    pub url: String,
    /// The pipeline's verdict.
    pub verdict: PipelineVerdict,
    /// Whether the page was only partially captured.
    pub degraded: bool,
}

/// Everything a [`Pipeline::classify_all`] batch produced.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRun {
    /// Verdicts for every page that could be fetched, in input order.
    pub classified: Vec<ClassifiedPage>,
    /// Aggregate counts over the whole batch.
    pub report: ScrapeReport,
}

/// Aggregate accounting of one scraping batch.
///
/// All fields are plain counts over virtual time, so a report is
/// bit-reproducible: two batches over the same world, fault plan and URL
/// list serialize identically.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrapeReport {
    /// URLs the batch attempted.
    pub requested: u64,
    /// URLs that yielded a page (including degraded ones).
    pub completed: u64,
    /// Completed pages that were only partially captured.
    pub degraded: u64,
    /// URLs that yielded no page at all.
    pub failed: u64,
    /// Retry attempts beyond each URL's first fetch.
    pub retries: u64,
    /// Times a per-host circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Failures still transient after every allowed attempt.
    pub failed_transient: u64,
    /// Failures where every attempt timed out.
    pub failed_timeout: u64,
    /// Failures abandoned because the per-visit deadline budget ran out.
    pub failed_deadline: u64,
    /// Fetches refused because the host's circuit was open.
    pub failed_circuit_open: u64,
    /// URLs whose page does not exist.
    pub failed_not_found: u64,
    /// URLs that could not be parsed.
    pub failed_bad_url: u64,
    /// Redirect chains longer than the browser's limit.
    pub failed_too_many_redirects: u64,
    /// Virtual milliseconds the batch consumed.
    pub virtual_elapsed_ms: u64,
}

impl ScrapeReport {
    /// Sum of the per-cause failure counts; always equals `failed`.
    pub fn failures_total(&self) -> u64 {
        self.failed_transient
            + self.failed_timeout
            + self.failed_deadline
            + self.failed_circuit_open
            + self.failed_not_found
            + self.failed_bad_url
            + self.failed_too_many_redirects
    }

    /// Fraction of requested URLs that yielded a page (1.0 for an empty
    /// batch).
    pub fn completion_rate(&self) -> f64 {
        if self.requested == 0 {
            1.0
        } else {
            self.completed as f64 / self.requested as f64
        }
    }

    /// Counts one scrape attempt's outcome: a request, then a completed
    /// (perhaps degraded) page or a failure under its cause, so
    /// [`ScrapeReport::failures_total`] stays equal to `failed`. Every
    /// loop that drives a scraper tallies through this.
    pub fn record(&mut self, outcome: &Result<ScrapedPage, ScrapeFailure>) {
        self.requested += 1;
        match outcome {
            Ok(scraped) => {
                self.completed += 1;
                if scraped.availability.is_degraded() {
                    self.degraded += 1;
                }
            }
            Err(failure) => {
                self.failed += 1;
                self.count_cause(failure.cause);
            }
        }
    }

    /// Adds one failure of `cause` to the matching per-cause counter.
    fn count_cause(&mut self, cause: FailureCause) {
        match cause {
            FailureCause::Transient => self.failed_transient += 1,
            FailureCause::Timeout => self.failed_timeout += 1,
            FailureCause::DeadlineExceeded => self.failed_deadline += 1,
            FailureCause::CircuitOpen => self.failed_circuit_open += 1,
            FailureCause::NotFound => self.failed_not_found += 1,
            FailureCause::BadUrl => self.failed_bad_url += 1,
            FailureCause::TooManyRedirects => self.failed_too_many_redirects += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::test_pages::{legit, phish};
    use crate::DetectorConfig;
    use kyp_ml::Dataset;
    use kyp_search::SearchEngine;
    use std::sync::Arc;

    fn pipeline() -> Pipeline {
        let extractor = FeatureExtractor::default();
        // Tiny training set built from jittered copies of the fixtures.
        let mut data = Dataset::new(crate::features::FEATURE_COUNT);
        for i in 0..40 {
            let mut p = phish();
            p.input_count = 2 + i % 3;
            data.push_row(&extractor.extract(&p), true);
            let mut l = legit();
            l.image_count = 1 + i % 4;
            data.push_row(&extractor.extract(&l), false);
        }
        let detector = PhishDetector::train(&data, &DetectorConfig::default());
        let mut engine = SearchEngine::new();
        engine.index_page(
            "paypal.com",
            "paypal",
            "paypal account login send money online payments paypal",
        );
        engine.index_page(
            "mybank.com",
            "mybank",
            "mybank online banking welcome accounts mybank",
        );
        Pipeline::new(extractor, detector, TargetIdentifier::new(Arc::new(engine)))
    }

    #[test]
    fn phish_flagged_with_target() {
        let p = pipeline();
        match p.classify(&phish()) {
            PipelineVerdict::Phish { candidates, score } => {
                assert!(score >= 0.7);
                assert_eq!(candidates[0].mld, "paypal");
            }
            v => panic!("expected phish verdict, got {v:?}"),
        }
    }

    #[test]
    fn legit_passes_detector() {
        let p = pipeline();
        match p.classify(&legit()) {
            PipelineVerdict::Legitimate { score } => assert!(score < 0.7),
            v => panic!("expected legitimate, got {v:?}"),
        }
    }

    #[test]
    fn alarming_helper() {
        assert!(PipelineVerdict::Suspicious { score: 0.9 }.is_alarming());
        assert!(PipelineVerdict::Phish {
            score: 0.9,
            candidates: vec![]
        }
        .is_alarming());
        assert!(!PipelineVerdict::Legitimate { score: 0.1 }.is_alarming());
        assert!(!PipelineVerdict::ConfirmedLegitimate {
            score: 0.8,
            step: 2
        }
        .is_alarming());
    }

    #[test]
    fn accessors_exposed() {
        let p = pipeline();
        assert_eq!(p.detector().threshold(), 0.7);
        let _ = p.extractor();
        let _ = p.identifier();
    }

    #[test]
    fn classify_matches_degraded_with_full_mask() {
        let p = pipeline();
        for page in [phish(), legit()] {
            assert_eq!(
                p.classify(&page),
                p.classify_degraded(&page, &SourceAvailability::FULL)
            );
        }
    }

    #[test]
    fn degraded_classification_still_yields_a_verdict() {
        let p = pipeline();
        let mask = SourceAvailability {
            html: false,
            links: false,
            screenshot: false,
        };
        // No panic, and a well-formed verdict either way.
        let _ = p.classify_degraded(&phish(), &mask);
        let _ = p.classify_degraded(&legit(), &mask);
    }

    fn tiny_world() -> kyp_web::WebWorld {
        use kyp_web::Page;
        let mut world = kyp_web::WebWorld::new();
        world.add_page(
            "http://a.example.com/",
            Page::new("<title>A</title><body>plain page one</body>"),
        );
        world.add_page(
            "http://b.example.com/",
            Page::new("<title>B</title><body>plain page two</body>"),
        );
        world
    }

    #[test]
    fn classify_all_clean_world_classifies_everything() {
        let p = pipeline();
        let world = tiny_world();
        let mut scraper = ResilientBrowser::new(&world);
        let urls: Vec<String> = vec![
            "http://a.example.com/".into(),
            "http://b.example.com/".into(),
            "http://missing.example.com/".into(),
            "not a url".into(),
        ];
        let run = p.classify_all(&mut scraper, &urls, &mut kyp_obs::NoopObserver);
        assert_eq!(run.report.requested, 4);
        assert_eq!(run.report.completed, 2);
        assert_eq!(run.report.failed, 2);
        assert_eq!(run.report.failed_not_found, 1);
        assert_eq!(run.report.failed_bad_url, 1);
        assert_eq!(run.report.failures_total(), run.report.failed);
        assert_eq!(run.classified.len(), 2);
        assert!(run.classified.iter().all(|c| !c.degraded));
        assert_eq!(run.classified[0].url, "http://a.example.com/");
        assert!(run.report.virtual_elapsed_ms > 0, "virtual time must pass");
    }

    #[test]
    fn classify_all_reports_are_bit_identical_across_runs() {
        let p = pipeline();
        let world = tiny_world();
        let urls: Vec<String> = vec![
            "http://a.example.com/".into(),
            "http://missing.example.com/".into(),
            "http://b.example.com/".into(),
        ];
        let plan = kyp_web::FaultPlan::new(7, 0.4);
        let run = |w: &kyp_web::WebWorld| {
            let flaky = kyp_web::FlakyWorld::new(w, plan.clone());
            let mut scraper = ResilientBrowser::new(&flaky);
            p.classify_all(&mut scraper, &urls, &mut kyp_obs::NoopObserver)
        };
        let (one, two) = (run(&world), run(&world));
        assert_eq!(one.report, two.report);
        assert_eq!(one.classified, two.classified);
        let a = serde_json::to_string(&one.report).unwrap();
        let b = serde_json::to_string(&two.report).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn recorded_failures_are_counted_under_their_cause() {
        let world = tiny_world();
        let plan = kyp_web::FaultPlan::new(3, 0.9);
        let flaky = kyp_web::FlakyWorld::new(&world, plan);
        let mut scraper = ResilientBrowser::new(&flaky);
        let mut report = ScrapeReport::default();
        for url in [
            "http://a.example.com/",
            "http://b.example.com/",
            "http://missing.example.com/",
            "not a url",
        ]
        .iter()
        .cycle()
        .take(24)
        {
            report.record(&scraper.scrape(url));
        }
        assert_eq!(report.requested, 24);
        assert_eq!(report.completed + report.failed, 24);
        assert!(report.completed > 0 && report.failed_not_found > 0 && report.failed_bad_url > 0);
        assert_eq!(report.failures_total(), report.failed);
    }

    #[test]
    fn scrape_report_roundtrips_through_json() {
        let report = ScrapeReport {
            requested: 10,
            completed: 7,
            degraded: 2,
            failed: 3,
            retries: 5,
            breaker_trips: 1,
            failed_transient: 1,
            failed_timeout: 1,
            failed_deadline: 0,
            failed_circuit_open: 0,
            failed_not_found: 1,
            failed_bad_url: 0,
            failed_too_many_redirects: 0,
            virtual_elapsed_ms: 1234,
        };
        assert_eq!(report.failures_total(), report.failed);
        assert!((report.completion_rate() - 0.7).abs() < 1e-12);
        let json = serde_json::to_string(&report).unwrap();
        let back: ScrapeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
