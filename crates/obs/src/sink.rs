//! [`ObsSink`]: the standard [`PipelineObserver`] that wires every hook
//! into a [`MetricsRegistry`] and a [`Tracer`].
//!
//! All metric names are **pre-registered** in [`ObsSink::new`], so the
//! rendered `metrics.json` has the same layout (and the same bytes for
//! the same workload) regardless of which events actually fired or in
//! what order families of events interleave.

use crate::metrics::{MetricsRegistry, POW2_BUCKET_BOUNDS};
use crate::observer::{
    CascadeOutcome, FeatureFamily, PipelineObserver, ScrapeObservation, TargetStepOutcome,
    VerdictKind, VerdictStage,
};
use crate::trace::{FieldValue, SpanId, Tracer};

/// Scrape failure causes with dedicated counters, by wire name.
const FAILURE_CAUSES: [&str; 7] = [
    "transient",
    "timeout",
    "deadline_exceeded",
    "circuit_open",
    "not_found",
    "bad_url",
    "too_many_redirects",
];

/// Buckets for the serving layer's batch-size histogram.
const BATCH_SIZE_BOUNDS: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// The standard observer: counters/histograms into a registry, spans and
/// events into a tracer, stamped from the virtual clock forwarded through
/// [`PipelineObserver::clock`].
///
/// # Examples
///
/// ```
/// use kyp_obs::{ObsSink, PipelineObserver, VerdictKind};
///
/// let mut sink = ObsSink::new();
/// sink.clock(12);
/// sink.page_start("http://shop.example/");
/// sink.detector_score(0.1, false);
/// sink.verdict(VerdictKind::Legitimate);
/// assert_eq!(sink.registry().counter("pipeline.pages"), 1);
/// assert_eq!(sink.registry().counter("verdict.legitimate"), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ObsSink {
    registry: MetricsRegistry,
    tracer: Tracer,
    now_ms: u64,
    page_span: Option<SpanId>,
    scrape_span: Option<SpanId>,
}

impl Default for ObsSink {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsSink {
    /// A sink with every pipeline metric pre-registered in a fixed order.
    pub fn new() -> Self {
        let mut registry = MetricsRegistry::new();
        registry.register_counter("scrape.started");
        registry.register_counter("scrape.completed");
        registry.register_counter("scrape.degraded");
        registry.register_counter("scrape.failed");
        for cause in FAILURE_CAUSES {
            registry.register_counter(&format!("scrape.failed.{cause}"));
        }
        registry.register_histogram("scrape.elapsed_ms", &POW2_BUCKET_BOUNDS);
        registry.register_counter("fetch.attempts");
        registry.register_counter("fetch.failures");
        registry.register_counter("pipeline.pages");
        registry.register_counter("features.f1");
        registry.register_counter("features.f2");
        registry.register_counter("features.f3");
        registry.register_counter("features.f4");
        registry.register_counter("features.f5");
        registry.register_counter("detector.predictions");
        registry.register_counter("detector.flagged");
        for step in 1..=5u8 {
            registry.register_counter(&format!("target.step{step}.runs"));
        }
        registry.register_counter("target.confirmed_legitimate");
        registry.register_counter("target.candidates");
        registry.register_counter("verdict.legitimate");
        registry.register_counter("verdict.confirmed_legitimate");
        registry.register_counter("verdict.phish");
        registry.register_counter("verdict.suspicious");
        for stage in ["url_only", "full", "cached", "shed"] {
            registry.register_counter(&format!("verdict.stage.{stage}"));
        }
        registry.register_counter("cascade.screened");
        registry.register_counter("cascade.url_only");
        registry.register_counter("cascade.fallthrough");
        registry.register_counter("cascade.unscorable");
        registry.register_counter("serve.cache.hits");
        registry.register_counter("serve.cache.misses");
        registry.register_counter("serve.shed");
        registry.register_counter("serve.batches");
        registry.register_histogram("serve.batch_size", &BATCH_SIZE_BOUNDS);
        Self {
            registry,
            tracer: Tracer::new(),
            now_ms: 0,
            page_span: None,
            scrape_span: None,
        }
    }

    /// The metrics accumulated so far.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Mutable access, e.g. for components exporting their own gauges.
    pub fn registry_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }

    /// The trace log accumulated so far.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Splits the sink into its registry and tracer.
    pub fn into_parts(self) -> (MetricsRegistry, Tracer) {
        (self.registry, self.tracer)
    }
}

impl PipelineObserver for ObsSink {
    fn clock(&mut self, now_ms: u64) {
        self.now_ms = now_ms;
    }

    fn scrape_start(&mut self, url: &str) {
        self.registry.inc("scrape.started");
        let span = self.tracer.begin_span(
            self.now_ms,
            "scrape",
            &[("url", FieldValue::Str(url.to_owned()))],
        );
        self.scrape_span = Some(span);
    }

    fn scrape_end(&mut self, _url: &str, outcome: &ScrapeObservation) {
        let mut fields: Vec<(&str, FieldValue)> = Vec::new();
        match outcome {
            ScrapeObservation::Fetched {
                attempts,
                elapsed_ms,
                degraded,
            } => {
                self.registry.inc("scrape.completed");
                if *degraded {
                    self.registry.inc("scrape.degraded");
                }
                self.registry.observe("scrape.elapsed_ms", *elapsed_ms);
                fields.push(("ok", FieldValue::Bool(true)));
                fields.push(("attempts", FieldValue::U64(u64::from(*attempts))));
                fields.push(("elapsed_ms", FieldValue::U64(*elapsed_ms)));
                fields.push(("degraded", FieldValue::Bool(*degraded)));
            }
            ScrapeObservation::Failed {
                cause,
                attempts,
                elapsed_ms,
            } => {
                self.registry.inc("scrape.failed");
                let name = format!("scrape.failed.{cause}");
                self.registry.inc(&name);
                self.registry.observe("scrape.elapsed_ms", *elapsed_ms);
                fields.push(("ok", FieldValue::Bool(false)));
                fields.push(("cause", FieldValue::Str(cause.clone())));
                fields.push(("attempts", FieldValue::U64(u64::from(*attempts))));
                fields.push(("elapsed_ms", FieldValue::U64(*elapsed_ms)));
            }
        }
        if let Some(span) = self.scrape_span.take() {
            self.tracer.end_span(self.now_ms, span, &fields);
        } else {
            self.tracer.event(self.now_ms, "scrape_end", &fields);
        }
    }

    fn fetch_attempt(&mut self, url: &str, cost_ms: u64, ok: bool) {
        self.registry.inc("fetch.attempts");
        if !ok {
            self.registry.inc("fetch.failures");
        }
        self.tracer.event(
            self.now_ms,
            "fetch.attempt",
            &[
                ("url", FieldValue::Str(url.to_owned())),
                ("cost_ms", FieldValue::U64(cost_ms)),
                ("ok", FieldValue::Bool(ok)),
            ],
        );
    }

    fn page_start(&mut self, url: &str) {
        self.registry.inc("pipeline.pages");
        let span = self.tracer.begin_span(
            self.now_ms,
            "classify",
            &[("url", FieldValue::Str(url.to_owned()))],
        );
        self.page_span = Some(span);
    }

    fn feature_family(&mut self, family: FeatureFamily, features: usize) {
        self.registry
            .add(&format!("features.{}", family.label()), features as u64);
    }

    fn detector_score(&mut self, score: f64, flagged: bool) {
        self.registry.inc("detector.predictions");
        if flagged {
            self.registry.inc("detector.flagged");
        }
        self.tracer.event(
            self.now_ms,
            "detector.score",
            &[
                ("score", FieldValue::F64(score)),
                ("flagged", FieldValue::Bool(flagged)),
            ],
        );
    }

    fn target_step(&mut self, step: u8, outcome: &TargetStepOutcome) {
        self.registry.inc(&format!("target.step{step}.runs"));
        let outcome_field = match outcome {
            TargetStepOutcome::ConfirmedLegitimate => {
                self.registry.inc("target.confirmed_legitimate");
                FieldValue::Str("confirmed_legitimate".to_owned())
            }
            TargetStepOutcome::Candidates { count } => {
                self.registry.add("target.candidates", *count as u64);
                FieldValue::U64(*count as u64)
            }
            TargetStepOutcome::Continue => FieldValue::Str("continue".to_owned()),
        };
        self.tracer.event(
            self.now_ms,
            "target.step",
            &[
                ("step", FieldValue::U64(u64::from(step))),
                ("outcome", outcome_field),
            ],
        );
    }

    fn verdict(&mut self, kind: VerdictKind) {
        self.registry.inc(&format!("verdict.{}", kind.name()));
        let fields = [("verdict", FieldValue::Str(kind.name().to_owned()))];
        if let Some(span) = self.page_span.take() {
            self.tracer.end_span(self.now_ms, span, &fields);
        } else {
            self.tracer.event(self.now_ms, "verdict", &fields);
        }
    }

    fn cascade_prescreen(&mut self, outcome: CascadeOutcome) {
        self.registry.inc("cascade.screened");
        self.registry.inc(&format!("cascade.{}", outcome.name()));
    }

    fn verdict_stage(&mut self, stage: VerdictStage) {
        self.registry
            .inc(&format!("verdict.stage.{}", stage.name()));
    }

    fn cache_hit(&mut self) {
        self.registry.inc("serve.cache.hits");
    }

    fn cache_miss(&mut self) {
        self.registry.inc("serve.cache.misses");
    }

    fn shed(&mut self) {
        self.registry.inc("serve.shed");
        self.tracer.event(self.now_ms, "serve.shed", &[]);
    }

    fn batch_flush(&mut self, size: usize) {
        self.registry.inc("serve.batches");
        self.registry.observe("serve.batch_size", size as u64);
        self.tracer.event(
            self.now_ms,
            "serve.batch_flush",
            &[("size", FieldValue::U64(size as u64))],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{NoopObserver, Recorder};
    use crate::replay;

    fn drive(obs: &mut dyn PipelineObserver) {
        obs.clock(100);
        obs.scrape_start("http://a/");
        obs.fetch_attempt("http://a/", 40, true);
        obs.scrape_end(
            "http://a/",
            &ScrapeObservation::Fetched {
                attempts: 1,
                elapsed_ms: 40,
                degraded: false,
            },
        );
        obs.page_start("http://a/");
        obs.feature_family(FeatureFamily::F1Url, 14);
        obs.detector_score(0.91, true);
        obs.target_step(1, &TargetStepOutcome::Continue);
        obs.target_step(2, &TargetStepOutcome::Candidates { count: 2 });
        obs.target_step(5, &TargetStepOutcome::Candidates { count: 1 });
        obs.verdict(VerdictKind::Phish);
    }

    #[test]
    fn counts_and_spans_line_up() {
        let mut sink = ObsSink::new();
        drive(&mut sink);
        assert_eq!(sink.registry().counter("scrape.started"), 1);
        assert_eq!(sink.registry().counter("scrape.completed"), 1);
        assert_eq!(sink.registry().counter("fetch.attempts"), 1);
        assert_eq!(sink.registry().counter("pipeline.pages"), 1);
        assert_eq!(sink.registry().counter("features.f1"), 14);
        assert_eq!(sink.registry().counter("detector.flagged"), 1);
        assert_eq!(sink.registry().counter("target.step1.runs"), 1);
        assert_eq!(sink.registry().counter("target.candidates"), 3);
        assert_eq!(sink.registry().counter("verdict.phish"), 1);
        let nd = sink.tracer().render_ndjson();
        assert!(nd.contains("\"span_begin\""));
        assert!(nd.contains("\"name\":\"classify\""));
        assert!(nd.contains("\"verdict\":\"phish\""));
    }

    #[test]
    fn direct_and_replayed_streams_render_identically() {
        let mut direct = ObsSink::new();
        drive(&mut direct);

        let mut rec = Recorder::new();
        drive(&mut rec);
        let mut replayed = ObsSink::new();
        replay(rec.events(), &mut replayed);

        assert_eq!(
            direct.registry().render_json(),
            replayed.registry().render_json()
        );
        assert_eq!(
            direct.tracer().render_ndjson(),
            replayed.tracer().render_ndjson()
        );
    }

    #[test]
    fn metrics_layout_is_fixed_regardless_of_events() {
        let quiet = ObsSink::new();
        let mut busy = ObsSink::new();
        drive(&mut busy);
        let names = |json: &str| -> Vec<String> {
            json.lines()
                .filter(|l| l.trim_start().starts_with("\"name\""))
                .map(ToOwned::to_owned)
                .collect()
        };
        assert_eq!(
            names(&quiet.registry().render_json()),
            names(&busy.registry().render_json())
        );
    }

    #[test]
    fn failure_causes_have_dedicated_counters() {
        let mut sink = ObsSink::new();
        sink.scrape_start("http://b/");
        sink.scrape_end(
            "http://b/",
            &ScrapeObservation::Failed {
                cause: "timeout".into(),
                attempts: 3,
                elapsed_ms: 150,
            },
        );
        assert_eq!(sink.registry().counter("scrape.failed"), 1);
        assert_eq!(sink.registry().counter("scrape.failed.timeout"), 1);
        let _ = NoopObserver;
    }

    #[test]
    fn cascade_and_stage_counters_accumulate() {
        let mut sink = ObsSink::new();
        sink.cascade_prescreen(CascadeOutcome::UrlOnlyFinal);
        sink.cascade_prescreen(CascadeOutcome::Fallthrough);
        sink.cascade_prescreen(CascadeOutcome::Unscorable);
        sink.verdict_stage(VerdictStage::UrlOnly);
        sink.verdict_stage(VerdictStage::Full);
        sink.verdict_stage(VerdictStage::Cached);
        sink.verdict_stage(VerdictStage::Shed);
        assert_eq!(sink.registry().counter("cascade.screened"), 3);
        assert_eq!(sink.registry().counter("cascade.url_only"), 1);
        assert_eq!(sink.registry().counter("cascade.fallthrough"), 1);
        assert_eq!(sink.registry().counter("cascade.unscorable"), 1);
        for stage in ["url_only", "full", "cached", "shed"] {
            assert_eq!(
                sink.registry().counter(&format!("verdict.stage.{stage}")),
                1,
                "{stage}"
            );
        }
    }
}
