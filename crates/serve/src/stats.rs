//! Latency accounting: a fixed-bucket histogram with percentile summaries,
//! and the service's serializable run report.
//!
//! The histogram is a thin façade over [`kyp_obs::Histogram`] pinned to
//! the power-of-two bucket layout, so the serving layer's percentile
//! semantics are exactly the observability layer's: bucket upper bounds
//! (an over-estimate never exceeding 2× the true value), clamped to the
//! exact maximum observed so no percentile overshoots it.

use crate::batcher::BatchCounters;
use crate::cache::CacheCounters;
use crate::queue::QueueCounters;
use kyp_core::CascadeCounters;
use serde::{Deserialize, Serialize};

/// Upper bounds (inclusive) of the histogram's regular buckets, in ms.
/// Values above the last bound land in the overflow bucket. Identical to
/// [`kyp_obs::POW2_BUCKET_BOUNDS`].
pub const LATENCY_BUCKET_BOUNDS_MS: [u64; 17] = kyp_obs::POW2_BUCKET_BOUNDS;

/// A fixed-bucket latency histogram over virtual milliseconds.
///
/// # Examples
///
/// ```
/// use kyp_serve::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for ms in [1, 2, 3, 9, 120] {
///     h.record(ms);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.percentile(0.50), 4);   // 3 rounds up to its bucket bound
/// assert_eq!(h.percentile(0.99), 120); // bucket bound 128, clamped to max
/// assert_eq!(h.max_ms(), 120);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    inner: kyp_obs::Histogram,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            inner: kyp_obs::Histogram::pow2(),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, ms: u64) {
        self.inner.record(ms);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// Largest observation recorded (0 when empty).
    pub fn max_ms(&self) -> u64 {
        self.inner.max()
    }

    /// Mean observation (0.0 when empty).
    pub fn mean_ms(&self) -> f64 {
        self.inner.mean()
    }

    /// The value at quantile `p` in `(0, 1]`, as the upper bound of the
    /// bucket holding the rank-`ceil(p·n)` observation — clamped to the
    /// exact maximum observed, so no percentile ever exceeds
    /// [`LatencyHistogram::max_ms`]. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        self.inner.percentile(p)
    }

    /// The underlying observability histogram (for registry export).
    pub fn as_histogram(&self) -> &kyp_obs::Histogram {
        &self.inner
    }

    /// The standard percentile summary of this histogram.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.inner.count(),
            mean_ms: self.inner.mean(),
            p50_ms: self.inner.percentile(0.50),
            p90_ms: self.inner.percentile(0.90),
            p99_ms: self.inner.percentile(0.99),
            max_ms: self.inner.max(),
        }
    }
}

/// Serializable percentile summary of a [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Observations summarized.
    pub count: u64,
    /// Mean latency.
    pub mean_ms: f64,
    /// Median (bucket upper bound).
    pub p50_ms: u64,
    /// 90th percentile (bucket upper bound).
    pub p90_ms: u64,
    /// 99th percentile (bucket upper bound).
    pub p99_ms: u64,
    /// Exact maximum observed.
    pub max_ms: u64,
}

/// Serializable end-of-run report of a scoring service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Requests pushed at the service (admitted + shed).
    pub requests: u64,
    /// Requests answered with a pipeline verdict.
    pub answered: u64,
    /// Requests rejected by admission control.
    pub shed: u64,
    /// `shed / requests` in `[0, 1]` (0.0 when no requests arrived) — the
    /// first number to read in an overload report. Sustained ratios above
    /// 0.5 mean the configuration, not the load, is the problem.
    #[serde(default)]
    pub shed_ratio: f64,
    /// Requests whose page could not be fetched.
    pub unfetchable: u64,
    /// Answered requests served from a degraded (partial) capture.
    pub degraded: u64,
    /// Whether the verdict cache was enabled.
    pub cache_enabled: bool,
    /// Verdict-cache event counts.
    pub cache: CacheCounters,
    /// Whether the URL-only cascade pre-filter was enabled.
    pub cascade_enabled: bool,
    /// Cascade pre-filter event counts.
    pub cascade: CascadeCounters,
    /// Admission-queue event counts.
    pub queue: QueueCounters,
    /// Micro-batcher event counts.
    pub batches: BatchCounters,
    /// Latency percentiles over answered + unfetchable requests.
    pub latency: LatencySummary,
    /// Virtual span of the run: last completion minus first arrival.
    pub virtual_elapsed_ms: u64,
    /// Answered requests per virtual second.
    pub throughput_per_vsec: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.max_ms(), 0);
        assert!(h.mean_ms() == 0.0);
    }

    #[test]
    fn percentiles_on_known_inputs() {
        let mut h = LatencyHistogram::new();
        // 100 observations: 1..=100 ms.
        for ms in 1..=100 {
            h.record(ms);
        }
        assert_eq!(h.count(), 100);
        // Rank 50 is 50 ms → bucket (32, 64].
        assert_eq!(h.percentile(0.50), 64);
        // Rank 90 is 90 ms → bucket (64, 128], clamped to the exact max.
        assert_eq!(h.percentile(0.90), 100);
        assert_eq!(h.percentile(0.99), 100);
        assert_eq!(h.max_ms(), 100);
        assert!((h.mean_ms() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn single_observation_dominates_every_percentile() {
        let mut h = LatencyHistogram::new();
        h.record(7);
        assert_eq!(h.percentile(0.01), 7, "bucket bound 8 clamps to max");
        assert_eq!(h.percentile(0.50), 7);
        assert_eq!(h.percentile(1.0), 7);
    }

    #[test]
    fn overflow_bucket_reports_exact_max() {
        let mut h = LatencyHistogram::new();
        h.record(1);
        h.record(1_000_000);
        assert_eq!(h.percentile(0.99), 1_000_000);
        assert_eq!(h.percentile(0.50), 1);
        assert_eq!(h.max_ms(), 1_000_000);
    }

    #[test]
    fn boundary_values_land_in_their_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        // Ranks: 0→bucket ≤1, 1→bucket ≤1, 2→bucket ≤2.
        assert_eq!(h.percentile(1.0 / 3.0), 1);
        assert_eq!(h.percentile(2.0 / 3.0), 1);
        assert_eq!(h.percentile(1.0), 2);
    }

    #[test]
    fn summary_mirrors_percentile_calls() {
        let mut h = LatencyHistogram::new();
        for ms in [3, 5, 9, 17, 200] {
            h.record(ms);
        }
        let s = h.summary();
        assert_eq!(s.count, 5);
        assert_eq!(s.p50_ms, h.percentile(0.5));
        assert_eq!(s.p90_ms, h.percentile(0.9));
        assert_eq!(s.p99_ms, h.percentile(0.99));
        assert_eq!(s.max_ms, 200);
        let json = serde_json::to_string(&s).unwrap();
        let back: LatencySummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
