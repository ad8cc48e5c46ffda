//! Latency accounting: the percentile summary of a latency histogram,
//! and the service's serializable run report with its cache counts.
//!
//! Latencies are recorded into a [`kyp_obs::Histogram::pow2`], so the
//! serving layer's percentile semantics are exactly the observability
//! layer's: bucket upper bounds (an over-estimate never exceeding 2× the
//! true value), clamped to the exact maximum observed so no percentile
//! overshoots it.

use crate::batcher::BatchCounters;
use crate::queue::QueueCounters;
use kyp_core::CascadeCounters;
use kyp_obs::Histogram;
use serde::{Deserialize, Serialize};

/// Serializable percentile summary of a latency [`Histogram`] over
/// virtual milliseconds.
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

impl LatencySummary {
    /// The standard percentile summary of `histogram`.
    ///
    /// # Examples
    ///
    /// ```
    /// use kyp_obs::Histogram;
    /// use kyp_serve::LatencySummary;
    ///
    /// let mut h = Histogram::pow2();
    /// for ms in [1, 2, 3, 9, 120] {
    ///     h.record(ms);
    /// }
    /// let s = LatencySummary::of(&h);
    /// assert_eq!(s.count, 5);
    /// assert_eq!(s.p50_ms, 4); // 3 rounds up to its bucket bound
    /// assert_eq!(s.p99_ms, 120); // bucket bound 128, clamped to max
    /// assert_eq!(s.max_ms, 120);
    /// ```
    pub fn of(histogram: &Histogram) -> Self {
        LatencySummary {
            count: histogram.count(),
            mean_ms: histogram.mean(),
            p50_ms: histogram.percentile(0.50),
            p90_ms: histogram.percentile(0.90),
            p99_ms: histogram.percentile(0.99),
            max_ms: histogram.max(),
        }
    }
}

/// Verdict-cache event counts of one service's lifetime; a restart
/// empties the cache but keeps them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheCounters {
    /// Lookups answered from a cached verdict.
    pub hits: u64,
    /// Lookups that found no verdict for the landing URL.
    pub misses: u64,
    /// Verdicts written.
    pub insertions: u64,
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

    fn summary_of(values: impl IntoIterator<Item = u64>) -> LatencySummary {
        let mut h = Histogram::pow2();
        for ms in values {
            h.record(ms);
        }
        LatencySummary::of(&h)
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = summary_of([]);
        assert_eq!((s.count, s.p50_ms, s.p99_ms, s.max_ms), (0, 0, 0, 0));
        assert!(s.mean_ms == 0.0);
    }

    #[test]
    fn percentiles_on_known_inputs() {
        // 100 observations: 1..=100 ms. Rank 50 is 50 ms → bucket
        // (32, 64]; rank 90 is 90 ms → bucket (64, 128], clamped to the
        // exact max.
        let s = summary_of(1..=100);
        assert_eq!(s.count, 100);
        assert_eq!((s.p50_ms, s.p90_ms, s.p99_ms), (64, 100, 100));
        assert_eq!(s.max_ms, 100);
        assert!((s.mean_ms - 50.5).abs() < 1e-9);
    }

    #[test]
    fn overflow_bucket_reports_exact_max() {
        let s = summary_of([1, 1_000_000]);
        assert_eq!(s.p50_ms, 1);
        assert_eq!(s.p99_ms, 1_000_000);
        assert_eq!(s.max_ms, 1_000_000);
    }

    #[test]
    fn summary_mirrors_percentile_calls() {
        let mut h = Histogram::pow2();
        for ms in [3, 5, 9, 17, 200] {
            h.record(ms);
        }
        let s = LatencySummary::of(&h);
        assert_eq!(s.count, 5);
        assert_eq!(s.mean_ms, h.mean());
        assert_eq!(s.p50_ms, h.percentile(0.5));
        assert_eq!(s.p90_ms, h.percentile(0.9));
        assert_eq!(s.p99_ms, h.percentile(0.99));
        assert_eq!(s.max_ms, 200);
        let json = serde_json::to_string(&s).unwrap();
        let back: LatencySummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
