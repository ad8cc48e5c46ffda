//! Seeded workload generation: deterministic request traces for driving a
//! scoring service.
//!
//! A [`WorkloadConfig`] plus a URL pool fully determines the trace — which
//! URLs arrive, in what order, how often one repeats, and when each
//! arrives on the virtual clock. The same config always yields the same
//! trace, so any-thread-count and any-batch-size comparisons replay
//! identical inputs.

use crate::protocol::ServeRequest;
use kyp_web::FaultPlan;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// How request arrivals are spaced on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalPattern {
    /// One request every `gap_ms` virtual milliseconds.
    Steady {
        /// Gap between consecutive arrivals.
        gap_ms: u64,
    },
    /// Tight bursts separated by idle gaps — the shape that exercises
    /// admission control and batching.
    Bursty {
        /// Requests per burst (clamped ≥ 1).
        burst: usize,
        /// Gap between arrivals inside a burst.
        burst_gap_ms: u64,
        /// Gap between the end of one burst and the start of the next.
        idle_gap_ms: u64,
    },
}

impl Default for ArrivalPattern {
    fn default() -> Self {
        ArrivalPattern::Steady { gap_ms: 10 }
    }
}

/// Full specification of a deterministic request trace.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Seed for URL selection and duplicate decisions.
    pub seed: u64,
    /// Requests to generate.
    pub requests: usize,
    /// Probability in `[0, 1]` that a request repeats an already-seen URL.
    pub duplicate_rate: f64,
    /// Arrival spacing.
    pub arrival: ArrivalPattern,
    /// Seed of the fault plan overlaying the trace (see
    /// [`WorkloadConfig::fault_plan`]).
    pub fault_seed: u64,
    /// Fault probability in `[0, 1]`; 0 disables the fault plan.
    pub fault_rate: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 2015,
            requests: 1_000,
            duplicate_rate: 0.2,
            arrival: ArrivalPattern::default(),
            fault_seed: 2015,
            fault_rate: 0.0,
        }
    }
}

impl WorkloadConfig {
    /// The fault plan this workload asks the world to run under, or
    /// `None` for a fault-free run.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        if self.fault_rate > 0.0 {
            Some(FaultPlan::new(self.fault_seed, self.fault_rate))
        } else {
            None
        }
    }
}

/// Generates the request trace for `config` over a URL `pool`.
///
/// URLs are drawn from a seeded shuffle of the pool; with probability
/// `duplicate_rate` a request instead repeats a uniformly-chosen
/// already-issued URL. Once the pool is exhausted every further request is
/// a repeat. Ids are `0..requests` and arrivals are non-decreasing.
///
/// # Panics
///
/// Panics if `pool` is empty and `config.requests > 0`.
pub fn generate(config: &WorkloadConfig, pool: &[String]) -> Vec<ServeRequest> {
    assert!(
        pool.is_empty() == (config.requests == 0) || !pool.is_empty(),
        "cannot generate a non-empty trace from an empty url pool"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut order: Vec<&String> = pool.iter().collect();
    order.shuffle(&mut rng);
    let mut next_fresh = 0usize;
    let mut seen: Vec<&String> = Vec::new();
    let mut trace = Vec::with_capacity(config.requests);
    let mut arrival_ms = 0u64;
    for id in 0..config.requests as u64 {
        let repeat = !seen.is_empty()
            && (next_fresh >= order.len() || rng.gen_bool(config.duplicate_rate.clamp(0.0, 1.0)));
        let url = if repeat {
            // kyp-lint: allow(P01) — `repeat` is only true when seen is non-empty
            *seen.choose(&mut rng).expect("seen is non-empty")
        } else {
            let fresh = order[next_fresh];
            next_fresh += 1;
            seen.push(fresh);
            fresh
        };
        trace.push(ServeRequest {
            id,
            url: url.clone(),
            arrival_ms,
        });
        arrival_ms = arrival_ms.saturating_add(gap_after(&config.arrival, id));
    }
    trace
}

/// Virtual gap between arrival `index` and the next one.
fn gap_after(pattern: &ArrivalPattern, index: u64) -> u64 {
    match *pattern {
        ArrivalPattern::Steady { gap_ms } => gap_ms,
        ArrivalPattern::Bursty {
            burst,
            burst_gap_ms,
            idle_gap_ms,
        } => {
            let burst = burst.max(1) as u64;
            if (index + 1).is_multiple_of(burst) {
                idle_gap_ms
            } else {
                burst_gap_ms
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("http://site{i}.example.com/"))
            .collect()
    }

    #[test]
    fn same_config_same_trace() {
        let config = WorkloadConfig {
            requests: 200,
            duplicate_rate: 0.3,
            ..WorkloadConfig::default()
        };
        let p = pool(100);
        assert_eq!(generate(&config, &p), generate(&config, &p));
    }

    #[test]
    fn different_seed_different_trace() {
        let p = pool(100);
        let a = generate(
            &WorkloadConfig {
                requests: 50,
                ..WorkloadConfig::default()
            },
            &p,
        );
        let b = generate(
            &WorkloadConfig {
                requests: 50,
                seed: 99,
                ..WorkloadConfig::default()
            },
            &p,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn duplicate_rate_produces_repeats() {
        let config = WorkloadConfig {
            requests: 500,
            duplicate_rate: 0.5,
            ..WorkloadConfig::default()
        };
        let trace = generate(&config, &pool(1_000));
        let unique: std::collections::HashSet<&str> =
            trace.iter().map(|r| r.url.as_str()).collect();
        assert!(unique.len() < trace.len(), "expected some repeats");
        // Roughly half the requests should be fresh draws.
        assert!(unique.len() > trace.len() / 4);
    }

    #[test]
    fn zero_duplicate_rate_never_repeats_while_pool_lasts() {
        let config = WorkloadConfig {
            requests: 80,
            duplicate_rate: 0.0,
            ..WorkloadConfig::default()
        };
        let trace = generate(&config, &pool(100));
        let unique: std::collections::HashSet<&str> =
            trace.iter().map(|r| r.url.as_str()).collect();
        assert_eq!(unique.len(), trace.len());
    }

    #[test]
    fn exhausted_pool_falls_back_to_repeats() {
        let config = WorkloadConfig {
            requests: 30,
            duplicate_rate: 0.0,
            ..WorkloadConfig::default()
        };
        let trace = generate(&config, &pool(5));
        assert_eq!(trace.len(), 30);
        let unique: std::collections::HashSet<&str> =
            trace.iter().map(|r| r.url.as_str()).collect();
        assert_eq!(unique.len(), 5);
    }

    #[test]
    fn steady_arrivals_are_evenly_spaced() {
        let config = WorkloadConfig {
            requests: 5,
            duplicate_rate: 0.0,
            arrival: ArrivalPattern::Steady { gap_ms: 25 },
            ..WorkloadConfig::default()
        };
        let trace = generate(&config, &pool(10));
        let arrivals: Vec<u64> = trace.iter().map(|r| r.arrival_ms).collect();
        assert_eq!(arrivals, vec![0, 25, 50, 75, 100]);
    }

    #[test]
    fn bursty_arrivals_cluster() {
        let config = WorkloadConfig {
            requests: 6,
            duplicate_rate: 0.0,
            arrival: ArrivalPattern::Bursty {
                burst: 3,
                burst_gap_ms: 1,
                idle_gap_ms: 100,
            },
            ..WorkloadConfig::default()
        };
        let trace = generate(&config, &pool(10));
        let arrivals: Vec<u64> = trace.iter().map(|r| r.arrival_ms).collect();
        assert_eq!(arrivals, vec![0, 1, 2, 102, 103, 104]);
    }

    #[test]
    fn ids_are_sequential() {
        let trace = generate(
            &WorkloadConfig {
                requests: 10,
                ..WorkloadConfig::default()
            },
            &pool(10),
        );
        for (i, req) in trace.iter().enumerate() {
            assert_eq!(req.id, i as u64);
        }
    }

    #[test]
    fn fault_plan_gated_on_rate() {
        let mut config = WorkloadConfig::default();
        assert!(config.fault_plan().is_none());
        config.fault_rate = 0.25;
        assert!(config.fault_plan().is_some());
    }
}
