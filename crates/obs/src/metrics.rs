//! The metrics registry: counters, gauges and fixed-bucket histograms in
//! **stable registration order**.
//!
//! Determinism rules:
//!
//! - metrics live in a `Vec` in the order they were first registered (or
//!   first touched); the name→slot `HashMap` is only ever used for keyed
//!   lookup, never iterated (kyp-lint D01);
//! - [`MetricsRegistry::render_json`] walks that `Vec`, so two runs that
//!   register and update the same metrics in the same order produce
//!   byte-identical output;
//! - histogram bucket layouts are fixed at registration, so bucket counts
//!   never depend on the data.

use crate::json::push_str_literal;
use std::collections::HashMap;

/// Power-of-two bucket upper bounds (inclusive), 1 ms .. 65536 ms — the
/// default histogram layout, and the serving layer's latency buckets.
pub const POW2_BUCKET_BOUNDS: [u64; 17] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
];

/// A fixed-bucket histogram over `u64` observations (virtual milliseconds,
/// batch sizes, attempt counts, ...).
///
/// Percentiles report the upper bound of the bucket holding the requested
/// rank, clamped to the exact maximum observed — an over-estimate that
/// never exceeds the true maximum.
///
/// # Examples
///
/// ```
/// let mut h = kyp_obs::Histogram::pow2();
/// for ms in [1, 2, 3, 9, 120] {
///     h.record(ms);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.percentile(0.50), 4);
/// assert_eq!(h.percentile(0.99), 120);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// One count per bound, plus the trailing overflow bucket.
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// A histogram over the given strictly increasing bucket upper bounds
    /// (inclusive); observations above the last bound land in an overflow
    /// bucket.
    ///
    /// # Panics
    ///
    /// Panics when `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        // kyp-lint: allow(P02) — documented constructor contract; every caller passes static bounds
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        // kyp-lint: allow(P02) — same constructor contract as above
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The default power-of-two layout ([`POW2_BUCKET_BOUNDS`]).
    pub fn pow2() -> Self {
        Self::new(&POW2_BUCKET_BOUNDS)
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(self.bounds.len());
        // kyp-lint: allow(P02) — `idx <= bounds.len()` and `counts.len() == bounds.len() + 1`
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The bucket upper bounds this histogram was built with.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// The value at quantile `p` in `(0, 1]`: the upper bound of the
    /// bucket holding the rank-`ceil(p·n)` observation, clamped to the
    /// exact maximum observed. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return self
                    .bounds
                    .get(idx)
                    .copied()
                    .unwrap_or(self.max)
                    .min(self.max);
            }
        }
        self.max
    }

    /// Renders this histogram as a json object fragment (no surrounding
    /// name), with every field in fixed order.
    fn render_into(&self, out: &mut String) {
        out.push_str(&format!(
            "\"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, ",
            self.total,
            self.sum,
            self.max,
            self.percentile(0.50),
            self.percentile(0.90),
            self.percentile(0.99)
        ));
        out.push_str("\"bounds\": [");
        for (i, b) in self.bounds.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&b.to_string());
        }
        out.push_str("], \"counts\": [");
        for (i, c) in self.counts[..self.bounds.len()].iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&c.to_string());
        }
        out.push_str(&format!(
            "], \"overflow\": {}",
            self.counts[self.bounds.len()]
        ));
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
enum Metric {
    Counter(u64),
    Gauge(i64),
    Histogram(Histogram),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A registry of named counters, gauges and histograms.
///
/// Metrics are created explicitly (`register_*`) or implicitly on first
/// update; either way the slot order is first-touch order, and
/// [`MetricsRegistry::render_json`] emits slots in exactly that order.
/// Updating a name under the wrong type is a no-op (flagged by a debug
/// assertion), so instrumentation can never panic a release pipeline.
///
/// # Examples
///
/// ```
/// let mut m = kyp_obs::MetricsRegistry::new();
/// m.inc("pages");
/// m.add("pages", 2);
/// m.set_gauge("threads", 4);
/// m.observe("latency_ms", 17);
/// assert_eq!(m.counter("pages"), 3);
/// assert_eq!(m.gauge("threads"), 4);
/// assert!(m.render_json().contains("\"latency_ms\""));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    entries: Vec<(String, Metric)>,
    index: HashMap<String, usize>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no metric is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The slot for `name`, created as `default` when absent.
    fn slot(&mut self, name: &str, default: Metric) -> &mut Metric {
        let idx = if let Some(&idx) = self.index.get(name) {
            idx
        } else {
            let idx = self.entries.len();
            self.entries.push((name.to_owned(), default));
            self.index.insert(name.to_owned(), idx);
            idx
        };
        // kyp-lint: allow(P02) — idx is either a live index from the map or `entries.len()` right before the push above
        &mut self.entries[idx].1
    }

    /// Registers a counter at the current tail of the slot order (no-op if
    /// `name` already exists).
    pub fn register_counter(&mut self, name: &str) {
        let _ = self.slot(name, Metric::Counter(0));
    }

    /// Registers a histogram with the given bucket bounds (no-op if `name`
    /// already exists).
    pub fn register_histogram(&mut self, name: &str, bounds: &[u64]) {
        let _ = self.slot(name, Metric::Histogram(Histogram::new(bounds)));
    }

    /// Increments counter `name` by 1 (registering it on first touch).
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `delta` to counter `name` (registering it on first touch).
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.slot(name, Metric::Counter(0)) {
            Metric::Counter(c) => *c += delta,
            other => debug_assert!(false, "{name} is a {}, not a counter", other.type_name()),
        }
    }

    /// Sets gauge `name` to `value` (registering it on first touch).
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        match self.slot(name, Metric::Gauge(0)) {
            Metric::Gauge(g) => *g = value,
            other => debug_assert!(false, "{name} is a {}, not a gauge", other.type_name()),
        }
    }

    /// Records `value` into histogram `name` (registering it with the
    /// default power-of-two buckets on first touch).
    pub fn observe(&mut self, name: &str, value: u64) {
        match self.slot(name, Metric::Histogram(Histogram::pow2())) {
            Metric::Histogram(h) => h.record(value),
            other => debug_assert!(false, "{name} is a {}, not a histogram", other.type_name()),
        }
    }

    /// Replaces histogram `name` with an externally accumulated one
    /// (registering the slot on first touch) — how components that keep
    /// their own [`Histogram`] export it.
    pub fn set_histogram(&mut self, name: &str, hist: Histogram) {
        let bounds = hist.bounds().to_vec();
        match self.slot(name, Metric::Histogram(Histogram::new(&bounds))) {
            Metric::Histogram(h) => *h = hist,
            other => debug_assert!(false, "{name} is a {}, not a histogram", other.type_name()),
        }
    }

    /// Current value of counter `name` (0 when absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.index.get(name).map(|&i| &self.entries[i].1) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Current value of gauge `name` (0 when absent or not a gauge).
    pub fn gauge(&self, name: &str) -> i64 {
        match self.index.get(name).map(|&i| &self.entries[i].1) {
            Some(Metric::Gauge(g)) => *g,
            _ => 0,
        }
    }

    /// The histogram registered as `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.index.get(name).map(|&i| &self.entries[i].1) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Renders every metric, in registration order, as pretty-printed
    /// json. Two registries built by the same event sequence render
    /// byte-identically; a trailing newline makes the file diff-friendly.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"kyp-obs/metrics/v1\",\n  \"metrics\": [");
        for (i, (name, metric)) in self.entries.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    { \"name\": ");
            push_str_literal(&mut out, name);
            out.push_str(&format!(", \"type\": \"{}\", ", metric.type_name()));
            match metric {
                Metric::Counter(c) => out.push_str(&format!("\"value\": {c}")),
                Metric::Gauge(g) => out.push_str(&format!("\"value\": {g}")),
                Metric::Histogram(h) => h.render_into(&mut out),
            }
            out.push_str(" }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::pow2();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.max(), 0);
        assert!(h.mean() == 0.0);
    }

    #[test]
    fn percentiles_match_the_serving_layer_semantics() {
        let mut h = Histogram::pow2();
        for ms in 1..=100 {
            h.record(ms);
        }
        assert_eq!(h.percentile(0.50), 64);
        assert_eq!(h.percentile(0.90), 100, "clamped to exact max");
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn overflow_bucket_reports_exact_max() {
        let mut h = Histogram::new(&[1, 2]);
        h.record(1);
        h.record(1_000_000);
        assert_eq!(h.percentile(0.99), 1_000_000);
        assert_eq!(h.percentile(0.50), 1);
    }

    #[test]
    fn single_observation_dominates_every_percentile() {
        let mut h = Histogram::pow2();
        h.record(7);
        assert_eq!(h.percentile(0.01), 7, "bucket bound 8 clamps to max");
        assert_eq!(h.percentile(0.50), 7);
        assert_eq!(h.percentile(1.0), 7);
    }

    #[test]
    fn boundary_values_land_in_their_bucket() {
        let mut h = Histogram::pow2();
        h.record(0);
        h.record(1);
        h.record(2);
        // Ranks: 0→bucket ≤1, 1→bucket ≤1, 2→bucket ≤2.
        assert_eq!(h.percentile(1.0 / 3.0), 1);
        assert_eq!(h.percentile(2.0 / 3.0), 1);
        assert_eq!(h.percentile(1.0), 2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        let _ = Histogram::new(&[4, 2]);
    }

    #[test]
    fn registry_counts_and_gauges() {
        let mut m = MetricsRegistry::new();
        m.inc("a");
        m.add("a", 4);
        m.set_gauge("g", -3);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.gauge("g"), -3);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn render_preserves_registration_order() {
        let mut m = MetricsRegistry::new();
        m.register_counter("zebra");
        m.register_counter("aardvark");
        m.inc("zebra");
        let json = m.render_json();
        let z = json.find("zebra").unwrap();
        let a = json.find("aardvark").unwrap();
        assert!(z < a, "registration order, not alphabetical:\n{json}");
    }

    #[test]
    fn render_is_reproducible() {
        let build = || {
            let mut m = MetricsRegistry::new();
            m.inc("pages");
            m.observe("lat", 3);
            m.observe("lat", 900_000);
            m.set_gauge("threads", 8);
            m.render_json()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn histogram_json_has_fixed_fields() {
        let mut m = MetricsRegistry::new();
        m.register_histogram("h", &[1, 2, 4]);
        m.observe("h", 3);
        m.observe("h", 99);
        let json = m.render_json();
        assert!(json.contains("\"count\": 2"), "{json}");
        assert!(json.contains("\"bounds\": [1, 2, 4]"), "{json}");
        assert!(json.contains("\"overflow\": 1"), "{json}");
        assert!(json.ends_with('\n'));
    }

    #[test]
    fn mismatched_kind_updates_are_ignored_in_release() {
        let mut m = MetricsRegistry::new();
        m.register_counter("c");
        // In debug builds these would assert; the release contract is
        // "no-op, keep the registered value".
        if cfg!(not(debug_assertions)) {
            m.set_gauge("c", 7);
            m.observe("c", 7);
            assert_eq!(m.counter("c"), 0);
        }
    }

    #[test]
    fn exported_histogram_replaces_slot() {
        let mut h = Histogram::new(&[10, 20]);
        h.record(15);
        let mut m = MetricsRegistry::new();
        m.set_histogram("lat", h.clone());
        assert_eq!(m.histogram("lat"), Some(&h));
    }
}
