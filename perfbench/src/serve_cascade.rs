//! `serve-cascade`: the `kyp serve --cascade` service loop — seeded
//! request traces through the scoring service with the URL-only stage in
//! front of admission, fed by live scrapes of the simulated web rather
//! than a stored capture.

use crate::ledger::{Counts, Layer, Ledger};
use crate::setup;
use crate::Workload;
use knowyourphish::core::{
    CascadeClassifier, CascadeDecision, DetectorConfig, FeatureExtractor, PhishDetector, Pipeline,
    VerdictStage,
};
use knowyourphish::datagen::Corpus;
use knowyourphish::serve::{
    generate, CacheState, PageSource, ScoringService, ScraperSource, ServeConfig, ServeOutcome,
    ServeRequest, ServeResponse, WorkloadConfig,
};
use knowyourphish::web::{FailureCause, ResilientBrowser, ScrapedPage};
use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

/// Independent deployments served per pass. How much traffic reaches the
/// full pipeline and target identification depends on how well each
/// seed's models came out, which varies by tens of percent; several
/// deployments per run average that out.
const DEPLOYMENTS: u64 = 16;

/// Requests in each deployment's trace, the `kyp serve --requests`
/// default.
const REQUESTS: usize = 1_000;

/// One trained service stack, its trace and the verdict each request must
/// get.
#[derive(Debug)]
struct Deployment {
    corpus: Corpus,
    pipeline: Pipeline,
    cascade: CascadeClassifier,
    trace: Vec<ServeRequest>,
    /// Per URL: the outcome and deciding stage the service must report.
    expected: HashMap<String, (ServeOutcome, VerdictStage)>,
}

/// The deployments of one run.
#[derive(Debug)]
pub struct ServeCascade {
    deployments: Vec<Deployment>,
}

/// Sets up [`DEPLOYMENTS`] deployments, each from its own seed derived
/// from `seed`.
pub fn setup(seed: u64) -> Result<ServeCascade, String> {
    let deployments = (0..DEPLOYMENTS)
        .map(|i| deployment(seed.wrapping_mul(DEPLOYMENTS).wrapping_add(i)))
        .collect::<Result<_, _>>()?;
    Ok(ServeCascade { deployments })
}

/// Generates the corpus for `seed`, trains both stages in memory and
/// draws a trace over the test URLs with `kyp serve`'s default traffic:
/// 20% repeats, one request every 10 ms.
fn deployment(seed: u64) -> Result<Deployment, String> {
    let corpus = Corpus::generate(&setup::campaign(seed));
    let phish_train: Vec<String> = corpus.phish_train.iter().map(|r| r.url.clone()).collect();
    let extractor = FeatureExtractor::new(corpus.ranker.clone());
    let train = setup::scrape_dataset(&corpus, &extractor, &corpus.leg_train, &phish_train)?;
    let detector = PhishDetector::train(&train, &DetectorConfig::default());
    let cascade = setup::cascade(&corpus.leg_train, &phish_train, &corpus.ranker)?;
    let pipeline = setup::pipeline(&corpus, detector);

    let mut pool = corpus.english_test().to_vec();
    pool.extend(corpus.phish_test.iter().map(|r| r.url.clone()));
    let trace = generate(
        &WorkloadConfig {
            seed,
            requests: REQUESTS,
            fault_seed: seed,
            ..WorkloadConfig::default()
        },
        &pool,
    );

    Ok(Deployment {
        corpus,
        pipeline,
        cascade,
        trace,
        expected: HashMap::new(),
    })
}

/// A page source that adds the time spent in each fetch to a shared
/// counter, so fetches nested inside the service can be taken out of its
/// self time.
struct TimedSource<S> {
    inner: S,
    ns: Rc<Cell<u128>>,
}

impl<S: PageSource> PageSource for TimedSource<S> {
    fn fetch(&mut self, url: &str) -> Result<ScrapedPage, FailureCause> {
        let t0 = Instant::now();
        let page = self.inner.fetch(url);
        self.ns.set(self.ns.get() + t0.elapsed().as_nanos());
        page
    }
}

/// What serving one deployment's trace returned: every response, and the
/// batches flushed.
#[derive(Debug)]
pub struct Served {
    responses: Vec<ServeResponse>,
    batches: u64,
}

impl Deployment {
    /// The answer each URL of the trace must get, computed outside the
    /// service: the URL stage where it is final, otherwise a fresh scrape
    /// through the full pipeline.
    fn reference(&mut self) -> Result<(), String> {
        let mut scraper = ResilientBrowser::new(&self.corpus.world);
        for request in &self.trace {
            if self.expected.contains_key(&request.url) {
                continue;
            }
            let answer = match self.cascade.prescreen(&request.url) {
                CascadeDecision::Final(v) => (
                    ServeOutcome::from_verdict(&v.verdict),
                    VerdictStage::UrlOnly,
                ),
                CascadeDecision::Uncertain { .. } | CascadeDecision::Unscorable => {
                    let page = scraper
                        .scrape(&request.url)
                        .map_err(|e| format!("trace page {} did not load: {e:?}", request.url))?;
                    let verdict = self
                        .pipeline
                        .classify_degraded(&page.visit, &page.availability);
                    (ServeOutcome::from_verdict(&verdict), VerdictStage::Full)
                }
            };
            self.expected.insert(request.url.clone(), answer);
        }
        Ok(())
    }

    /// `kyp serve --cascade` over the trace.
    fn serve(&self) -> Served {
        let mut service = ScoringService::new(
            self.pipeline.clone(),
            ScraperSource::new(&self.corpus.world),
            ServeConfig::default(),
        )
        .with_cascade(self.cascade.clone());
        let responses = service.run_trace(&self.trace);
        Served {
            responses,
            batches: service.report().batches.batches,
        }
    }

    /// The cascade run in front of a cascade-free service, one span per
    /// entry point: the same answers `ScoringService::with_cascade` gives,
    /// since a URL-stage answer never touches queue, batcher or cache.
    fn traced(&self, ledger: &mut Ledger) -> Served {
        let fetch_ns = Rc::new(Cell::new(0));
        let source = TimedSource {
            inner: ScraperSource::new(&self.corpus.world),
            ns: Rc::clone(&fetch_ns),
        };
        let mut service =
            ScoringService::new(self.pipeline.clone(), source, ServeConfig::default());
        let mut responses = Vec::with_capacity(self.trace.len());
        for request in &self.trace {
            match ledger.span(Layer::UrlStage, || self.cascade.prescreen(&request.url)) {
                CascadeDecision::Final(v) => responses.push(ServeResponse {
                    id: request.id,
                    url: request.url.clone(),
                    outcome: ServeOutcome::from_verdict(&v.verdict),
                    cache: CacheState::Skipped,
                    degraded: false,
                    latency_ms: 0,
                    completed_ms: request.arrival_ms,
                    stage: VerdictStage::UrlOnly,
                }),
                CascadeDecision::Uncertain { .. } | CascadeDecision::Unscorable => {
                    let out = ledger.span(Layer::ServeCore, || service.push(request.clone()));
                    responses.extend(out);
                }
            }
        }
        responses.extend(ledger.span(Layer::ServeCore, || service.finish()));
        ledger.add(Layer::Scrape, fetch_ns.get());
        ledger.sub(Layer::ServeCore, fetch_ns.get());
        Served {
            responses,
            batches: service.report().batches.batches,
        }
    }

    /// Checks every request was answered once, with the reference verdict.
    fn check(&self, served: &Served) -> Result<Counts, String> {
        let mut counts = Counts {
            items: self.trace.len() as u64,
            batches: served.batches,
            ..Counts::default()
        };
        let mut answered = vec![false; self.trace.len()];
        for response in &served.responses {
            let Some(seen) = answered.get_mut(response.id as usize) else {
                return Err(format!("response for unknown request {}", response.id));
            };
            if std::mem::replace(seen, true) {
                return Err(format!("request {} answered twice", response.id));
            }
            if let ServeOutcome::Shed { .. } | ServeOutcome::Unfetchable { .. } = response.outcome {
                counts.failed += 1;
                continue;
            }
            let want = self.expected.get(&response.url);
            if want != Some(&(response.outcome.clone(), response.stage)) {
                return Err(format!(
                    "request {} ({}) got {:?} at stage {:?}, want {want:?}",
                    response.id, response.url, response.outcome, response.stage
                ));
            }
            match response.stage {
                VerdictStage::UrlOnly => counts.url_final += 1,
                _ if response.cache == CacheState::Hit => counts.cache_hits += 1,
                _ => {
                    counts.full += 1;
                    if matches!(&response.outcome, ServeOutcome::Verdict { kind, .. } if kind != "legitimate")
                    {
                        counts.flagged += 1;
                    }
                }
            }
        }
        if answered.iter().any(|a| !a) {
            return Err("some requests got no response".to_owned());
        }
        Ok(counts)
    }
}

impl Workload for ServeCascade {
    type Output = Vec<Served>;

    fn reference(&mut self) -> Result<(), String> {
        self.deployments
            .iter_mut()
            .try_for_each(Deployment::reference)
    }

    fn pass(&mut self, mut ledger: Option<&mut Ledger>) -> Result<Vec<Served>, String> {
        Ok(self
            .deployments
            .iter()
            .map(|d| match ledger.as_deref_mut() {
                Some(ledger) => d.traced(ledger),
                None => d.serve(),
            })
            .collect())
    }

    fn check(&mut self, served: &Vec<Served>) -> Result<Counts, String> {
        let mut total = Counts::default();
        for (deployment, served) in self.deployments.iter().zip(served) {
            total.add(deployment.check(served)?);
        }
        Ok(total)
    }
}
