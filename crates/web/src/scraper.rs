//! A resilient scraper: bounded retries with deterministic backoff, a
//! per-visit deadline budget, and a per-host circuit breaker.
//!
//! The paper's crawler scraped hundreds of thousands of live URLs; at that
//! scale transient fetch failures, slow hosts and dead kits are the normal
//! case, not the exception. [`ResilientBrowser`] wraps [`Browser`] with
//! the production-shaped machinery:
//!
//! - [`RetryPolicy`]: bounded attempts, exponential backoff with
//!   deterministic jitter, and a per-visit deadline on the virtual clock —
//!   no real sleeping, no wall-clock reads, so runs are bit-reproducible;
//! - [`CircuitBreaker`]: after repeated failures a host's circuit opens
//!   and further visits fail fast; after a cooldown the circuit half-opens
//!   and a probe visit decides whether it closes again.

use crate::browser::{Browser, VisitError};
use crate::clock::VirtualClock;
use crate::visit::{SourceAvailability, VisitedPage};
use crate::world::World;
use kyp_url::Url;
use std::collections::HashMap;

/// Retry behaviour of a [`ResilientBrowser`], all in virtual milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Maximum visit attempts per URL (≥ 1; the first attempt counts).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff_ms: u64,
    /// Upper bound on a single backoff pause.
    pub max_backoff_ms: u64,
    /// Total virtual-time budget for one URL, attempts and pauses
    /// included. Once exceeded the visit fails with
    /// [`FailureCause::DeadlineExceeded`].
    pub deadline_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 100,
            max_backoff_ms: 2_000,
            deadline_ms: 15_000,
        }
    }
}

impl RetryPolicy {
    /// The pause before retry number `retry` (1-based) of the URL hashed
    /// to `salt`: capped exponential backoff with deterministic jitter in
    /// the upper half of the window (AWS-style "equal jitter", but seeded
    /// by URL and retry number instead of a live RNG).
    pub fn backoff_ms(&self, retry: u32, salt: u64) -> u64 {
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << (retry - 1).min(20))
            .min(self.max_backoff_ms);
        let half = exp / 2;
        let jitter = if half == 0 {
            0
        } else {
            crate::fault::mix(salt, u64::from(retry)) % (half + 1)
        };
        half + jitter
    }
}

/// State of one host's circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests fail fast until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe request is allowed through.
    HalfOpen,
}

#[derive(Debug, Clone)]
struct HostCircuit {
    consecutive_failures: u32,
    state: BreakerState,
    open_until_ms: u64,
}

/// Per-host circuit breaker over virtual time.
///
/// `failure_threshold` consecutive retryable failures open a host's
/// circuit for `cooldown_ms`; while open, visits fail fast without
/// touching the network. After the cooldown the circuit half-opens: the
/// next visit is a probe whose outcome closes the circuit (success) or
/// re-opens it immediately (failure).
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    failure_threshold: u32,
    cooldown_ms: u64,
    hosts: HashMap<String, HostCircuit>,
    trips: u64,
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        CircuitBreaker::new(5, 30_000)
    }
}

impl CircuitBreaker {
    /// A breaker tripping after `failure_threshold` consecutive failures,
    /// cooling down for `cooldown_ms` virtual milliseconds.
    pub fn new(failure_threshold: u32, cooldown_ms: u64) -> Self {
        CircuitBreaker {
            failure_threshold: failure_threshold.max(1),
            cooldown_ms,
            hosts: HashMap::new(),
            trips: 0,
        }
    }

    /// The current state of `host`'s circuit (Closed when never seen).
    pub fn state(&self, host: &str, now_ms: u64) -> BreakerState {
        match self.hosts.get(host) {
            None => BreakerState::Closed,
            Some(c) => match c.state {
                BreakerState::Open if now_ms >= c.open_until_ms => BreakerState::HalfOpen,
                s => s,
            },
        }
    }

    /// How many times any circuit has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Whether a request to `host` may proceed at `now_ms`. Moves an
    /// expired `Open` circuit to `HalfOpen`.
    pub fn allow(&mut self, host: &str, now_ms: u64) -> bool {
        let Some(c) = self.hosts.get_mut(host) else {
            return true;
        };
        match c.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open if now_ms >= c.open_until_ms => {
                c.state = BreakerState::HalfOpen;
                true
            }
            BreakerState::Open => false,
        }
    }

    /// Records a successful visit: the circuit closes and failures reset.
    pub fn record_success(&mut self, host: &str) {
        if let Some(c) = self.hosts.get_mut(host) {
            c.consecutive_failures = 0;
            c.state = BreakerState::Closed;
        }
    }

    /// Records a retryable failure; may trip the circuit open.
    pub fn record_failure(&mut self, host: &str, now_ms: u64) {
        let c = self.hosts.entry(host.to_owned()).or_insert(HostCircuit {
            consecutive_failures: 0,
            state: BreakerState::Closed,
            open_until_ms: 0,
        });
        c.consecutive_failures += 1;
        let probe_failed = c.state == BreakerState::HalfOpen;
        if probe_failed || c.consecutive_failures >= self.failure_threshold {
            c.state = BreakerState::Open;
            c.open_until_ms = now_ms.saturating_add(self.cooldown_ms);
            c.consecutive_failures = 0;
            self.trips += 1;
        }
    }
}

/// Why a scrape ultimately failed — the per-cause axis of scrape reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureCause {
    /// The URL did not parse.
    BadUrl,
    /// Nothing hosted at the URL (or a redirect led nowhere).
    NotFound,
    /// The redirect chain exceeded the browser's limit.
    TooManyRedirects,
    /// Transient fetch failures exhausted every attempt.
    Transient,
    /// Timeouts exhausted every attempt.
    Timeout,
    /// The per-visit deadline budget ran out before an attempt succeeded.
    DeadlineExceeded,
    /// The host's circuit was open; the visit failed fast.
    CircuitOpen,
}

impl FailureCause {
    /// Stable snake_case name used on the wire: scrape reports, scoring
    /// responses and observability metrics all spell causes this way.
    pub fn wire_name(self) -> &'static str {
        match self {
            FailureCause::BadUrl => "bad_url",
            FailureCause::NotFound => "not_found",
            FailureCause::TooManyRedirects => "too_many_redirects",
            FailureCause::Transient => "transient",
            FailureCause::Timeout => "timeout",
            FailureCause::DeadlineExceeded => "deadline_exceeded",
            FailureCause::CircuitOpen => "circuit_open",
        }
    }

    fn of(error: &VisitError) -> Self {
        match error {
            VisitError::BadUrl(_) => FailureCause::BadUrl,
            VisitError::NotFound(_) => FailureCause::NotFound,
            VisitError::TooManyRedirects => FailureCause::TooManyRedirects,
            VisitError::Transient(_) => FailureCause::Transient,
            VisitError::Timeout(_) => FailureCause::Timeout,
            // Truncated never escapes the lenient path.
            VisitError::Truncated(_) => FailureCause::Transient,
        }
    }
}

/// A successful scrape: the visit plus resilience bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapedPage {
    /// The collected data sources.
    pub visit: VisitedPage,
    /// Which sources arrived intact.
    pub availability: SourceAvailability,
    /// Attempts spent (1 = first try succeeded).
    pub attempts: u32,
    /// Virtual milliseconds from first fetch to success.
    pub elapsed_ms: u64,
}

/// A failed scrape: the cause plus resilience bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapeFailure {
    /// Why the scrape gave up.
    pub cause: FailureCause,
    /// The final underlying error, when one was observed.
    pub error: Option<VisitError>,
    /// Attempts spent before giving up (0 when the circuit was open).
    pub attempts: u32,
    /// Virtual milliseconds burned.
    pub elapsed_ms: u64,
}

/// A [`Browser`] wrapped in retry, deadline and circuit-breaker logic.
///
/// # Examples
///
/// ```
/// use kyp_web::{FaultPlan, FlakyWorld, Page, ResilientBrowser, WebWorld};
///
/// let mut world = WebWorld::new();
/// world.add_page("http://example.com/", Page::new("<body>ok</body>"));
/// let flaky = FlakyWorld::new(&world, FaultPlan::new(3, 0.3));
/// let mut scraper = ResilientBrowser::new(&flaky);
/// // Under a 30% fault rate most visits succeed after few retries.
/// let page = scraper.scrape("http://example.com/").unwrap();
/// assert!(page.attempts >= 1);
/// ```
#[derive(Debug)]
pub struct ResilientBrowser<'w, W: World> {
    browser: Browser<'w, W>,
    policy: RetryPolicy,
    breaker: CircuitBreaker,
    clock: VirtualClock,
    retries: u64,
}

impl<'w, W: World> ResilientBrowser<'w, W> {
    /// A scraper with the default policy and breaker.
    pub fn new(world: &'w W) -> Self {
        Self::with_policy(world, RetryPolicy::default(), CircuitBreaker::default())
    }

    /// A scraper with explicit retry policy and circuit breaker.
    pub fn with_policy(world: &'w W, policy: RetryPolicy, breaker: CircuitBreaker) -> Self {
        assert!(policy.max_attempts >= 1, "max_attempts must be at least 1");
        ResilientBrowser {
            browser: Browser::new(world),
            policy,
            breaker,
            clock: VirtualClock::new(),
            retries: 0,
        }
    }

    /// The virtual clock every delay and timeout is charged against.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The circuit breaker (for inspection).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Total retries performed across all scrapes so far.
    pub fn total_retries(&self) -> u64 {
        self.retries
    }

    /// Scrapes one URL with retries, backoff, deadline and breaker.
    ///
    /// Degraded pages (truncated HTML, missing screenshot) are successes
    /// with the corresponding [`SourceAvailability`] flags cleared — the
    /// caller decides how to use partial data.
    ///
    /// # Errors
    ///
    /// [`ScrapeFailure`] with the terminal [`FailureCause`] once retries,
    /// the deadline budget, or the host's circuit rule out success.
    pub fn scrape(&mut self, url: &str) -> Result<ScrapedPage, ScrapeFailure> {
        self.scrape_observed(url, &mut kyp_obs::NoopObserver)
    }

    /// Like [`ResilientBrowser::scrape`], reporting the scrape span and
    /// every fetch attempt to `obs`, stamped from the virtual clock. The
    /// observer only watches; the result is identical to the unobserved
    /// call.
    ///
    /// # Errors
    ///
    /// Exactly as [`ResilientBrowser::scrape`].
    pub fn scrape_observed(
        &mut self,
        url: &str,
        obs: &mut dyn kyp_obs::PipelineObserver,
    ) -> Result<ScrapedPage, ScrapeFailure> {
        obs.clock(self.clock.now_ms());
        obs.scrape_start(url);
        let result = self.scrape_inner(url, obs);
        obs.clock(self.clock.now_ms());
        let outcome = match &result {
            Ok(page) => kyp_obs::ScrapeObservation::Fetched {
                attempts: page.attempts,
                elapsed_ms: page.elapsed_ms,
                degraded: page.availability.is_degraded(),
            },
            Err(failure) => kyp_obs::ScrapeObservation::Failed {
                cause: failure.cause.wire_name().to_owned(),
                attempts: failure.attempts,
                elapsed_ms: failure.elapsed_ms,
            },
        };
        obs.scrape_end(url, &outcome);
        result
    }

    fn scrape_inner(
        &mut self,
        url: &str,
        obs: &mut dyn kyp_obs::PipelineObserver,
    ) -> Result<ScrapedPage, ScrapeFailure> {
        let parsed = match Url::parse(url) {
            Ok(u) => u,
            Err(e) => {
                return Err(ScrapeFailure {
                    cause: FailureCause::BadUrl,
                    error: Some(VisitError::BadUrl(e)),
                    attempts: 0,
                    elapsed_ms: 0,
                })
            }
        };
        let host = parsed.host_str();
        let started_ms = self.clock.now_ms();
        let deadline_ms = started_ms.saturating_add(self.policy.deadline_ms);
        if !self.breaker.allow(host, started_ms) {
            return Err(ScrapeFailure {
                cause: FailureCause::CircuitOpen,
                error: None,
                attempts: 0,
                elapsed_ms: 0,
            });
        }
        let salt = url_salt(url);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let fail = |cause, error, clock: &VirtualClock| {
                Err(ScrapeFailure {
                    cause,
                    error,
                    attempts,
                    elapsed_ms: clock.now_ms() - started_ms,
                })
            };
            match self.browser.try_visit_url(parsed.clone()) {
                Ok(outcome) => {
                    self.clock.advance(outcome.cost_ms);
                    obs.clock(self.clock.now_ms());
                    obs.fetch_attempt(url, outcome.cost_ms, true);
                    self.breaker.record_success(host);
                    return Ok(ScrapedPage {
                        visit: outcome.visit,
                        availability: outcome.availability,
                        attempts,
                        elapsed_ms: self.clock.now_ms() - started_ms,
                    });
                }
                Err(failure) => {
                    self.clock.advance(failure.cost_ms);
                    obs.clock(self.clock.now_ms());
                    obs.fetch_attempt(url, failure.cost_ms, false);
                    if !failure.error.is_retryable() {
                        return fail(
                            FailureCause::of(&failure.error),
                            Some(failure.error),
                            &self.clock,
                        );
                    }
                    self.breaker.record_failure(host, self.clock.now_ms());
                    if attempts >= self.policy.max_attempts {
                        return fail(
                            FailureCause::of(&failure.error),
                            Some(failure.error),
                            &self.clock,
                        );
                    }
                    if self.clock.now_ms() >= deadline_ms {
                        return fail(
                            FailureCause::DeadlineExceeded,
                            Some(failure.error),
                            &self.clock,
                        );
                    }
                    let backoff = self.policy.backoff_ms(attempts, salt);
                    if self.clock.now_ms().saturating_add(backoff) >= deadline_ms {
                        return fail(
                            FailureCause::DeadlineExceeded,
                            Some(failure.error),
                            &self.clock,
                        );
                    }
                    self.clock.advance(backoff);
                    if !self.breaker.allow(host, self.clock.now_ms()) {
                        return fail(FailureCause::CircuitOpen, Some(failure.error), &self.clock);
                    }
                    self.retries += 1;
                }
            }
        }
    }
}

/// Stable per-URL hash used to seed backoff jitter.
fn url_salt(url: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in url.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultKind, FaultPlan, FlakyWorld, Page, WebWorld};

    fn world() -> WebWorld {
        let mut w = WebWorld::new();
        w.add_page(
            "http://site.example.com/a",
            Page::new("<title>T</title><body><p>hello</p></body>"),
        );
        w
    }

    #[test]
    fn clean_world_single_attempt() {
        let w = world();
        let mut s = ResilientBrowser::new(&w);
        let page = s.scrape("http://site.example.com/a").unwrap();
        assert_eq!(page.attempts, 1);
        assert_eq!(page.availability, SourceAvailability::FULL);
        assert_eq!(s.total_retries(), 0);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for retry in 1..6 {
            let a = p.backoff_ms(retry, 77);
            let b = p.backoff_ms(retry, 77);
            assert_eq!(a, b, "same inputs, same pause");
            assert!(a <= p.max_backoff_ms);
        }
        // Different URLs jitter differently somewhere in the window.
        let distinct: std::collections::HashSet<u64> =
            (0..32).map(|salt| p.backoff_ms(3, salt)).collect();
        assert!(distinct.len() > 1, "jitter should vary with the salt");
    }

    #[test]
    fn retries_until_success_on_flaky_world() {
        let w = world();
        // High fault rate, transient-only: retries eventually win.
        let flaky = FlakyWorld::new(&w, FaultPlan::only(5, 0.6, &[FaultKind::Transient]));
        let mut s = ResilientBrowser::with_policy(
            &flaky,
            RetryPolicy {
                max_attempts: 20,
                deadline_ms: 600_000,
                ..RetryPolicy::default()
            },
            CircuitBreaker::new(50, 1_000),
        );
        let page = s.scrape("http://site.example.com/a").unwrap();
        assert!(page.attempts >= 1);
        assert_eq!(page.visit.title, "T");
    }

    #[test]
    fn permanent_failures_do_not_retry() {
        let w = world();
        let mut s = ResilientBrowser::new(&w);
        let f = s.scrape("http://gone.example.com/").unwrap_err();
        assert_eq!(f.cause, FailureCause::NotFound);
        assert_eq!(f.attempts, 1);
        assert_eq!(s.total_retries(), 0);
    }

    #[test]
    fn breaker_trips_and_half_opens() {
        let mut b = CircuitBreaker::new(3, 1_000);
        assert!(b.allow("h.com", 0));
        b.record_failure("h.com", 10);
        b.record_failure("h.com", 20);
        assert_eq!(b.state("h.com", 20), BreakerState::Closed);
        b.record_failure("h.com", 30);
        assert_eq!(b.trips(), 1);
        assert_eq!(b.state("h.com", 40), BreakerState::Open);
        assert!(!b.allow("h.com", 40));
        // Cooldown elapses → half-open, one probe allowed.
        assert_eq!(b.state("h.com", 1_031), BreakerState::HalfOpen);
        assert!(b.allow("h.com", 1_031));
        // Failed probe re-opens immediately.
        b.record_failure("h.com", 1_040);
        assert_eq!(b.trips(), 2);
        assert!(!b.allow("h.com", 1_050));
        // Next probe succeeds → closed.
        assert!(b.allow("h.com", 2_100));
        b.record_success("h.com");
        assert_eq!(b.state("h.com", 2_200), BreakerState::Closed);
    }

    #[test]
    fn breaker_half_opens_exactly_at_expiry() {
        let mut b = CircuitBreaker::new(1, 1_000);
        b.record_failure("h.com", 500); // trips: open until 1_500
        assert_eq!(b.state("h.com", 1_499), BreakerState::Open);
        assert!(!b.allow("h.com", 1_499), "one tick before expiry");
        // The boundary is inclusive: now == open_until_ms half-opens.
        assert_eq!(b.state("h.com", 1_500), BreakerState::HalfOpen);
        assert!(b.allow("h.com", 1_500));
    }

    #[test]
    fn breaker_probe_success_closes_and_resets_failures() {
        let mut b = CircuitBreaker::new(2, 1_000);
        b.record_failure("h.com", 0);
        b.record_failure("h.com", 10); // trips: open until 1_010
        assert!(b.allow("h.com", 1_010), "cooldown over, probe allowed");
        assert_eq!(b.state("h.com", 1_010), BreakerState::HalfOpen);
        b.record_success("h.com");
        assert_eq!(b.state("h.com", 1_010), BreakerState::Closed);
        // Success reset the failure streak: one new failure is below the
        // threshold again, so the circuit stays closed.
        b.record_failure("h.com", 1_020);
        assert_eq!(b.state("h.com", 1_021), BreakerState::Closed);
        assert_eq!(b.trips(), 1, "only the original trip counted");
    }

    #[test]
    fn breaker_probe_failure_reopens_with_a_fresh_window() {
        let mut b = CircuitBreaker::new(1, 1_000);
        b.record_failure("h.com", 0); // open until 1_000
        assert!(b.allow("h.com", 2_500), "probe long after expiry");
        assert_eq!(b.state("h.com", 2_500), BreakerState::HalfOpen);
        // The failed probe re-opens with a cooldown anchored at the probe
        // failure instant (2_500), not at the stale original window.
        b.record_failure("h.com", 2_500);
        assert_eq!(b.trips(), 2);
        assert_eq!(b.state("h.com", 3_000), BreakerState::Open);
        assert!(
            !b.allow("h.com", 3_499),
            "old window (1_000) must not apply; fresh one ends at 3_500"
        );
        assert_eq!(b.state("h.com", 3_500), BreakerState::HalfOpen);
        assert!(b.allow("h.com", 3_500));
    }

    #[test]
    fn deadline_budget_bounds_timeout_retries() {
        let w = world();
        let mut plan = FaultPlan::only(9, 1.0, &[FaultKind::Timeout]);
        plan.timeout_ms = 6_000;
        let flaky = FlakyWorld::new(&w, plan);
        let mut s = ResilientBrowser::with_policy(
            &flaky,
            RetryPolicy {
                max_attempts: 100,
                deadline_ms: 15_000,
                ..RetryPolicy::default()
            },
            CircuitBreaker::new(1_000, 60_000),
        );
        let f = s.scrape("http://site.example.com/a").unwrap_err();
        assert_eq!(f.cause, FailureCause::DeadlineExceeded);
        // 6 s per timed-out attempt against a 15 s budget: the third
        // attempt can never start.
        assert!(f.attempts <= 3, "attempts {}", f.attempts);
        assert!(s.clock().now_ms() <= 21_000);
    }

    #[test]
    fn open_circuit_fails_fast_without_fetching() {
        let w = world();
        let flaky = FlakyWorld::new(&w, FaultPlan::only(1, 1.0, &[FaultKind::Transient]));
        let mut s = ResilientBrowser::with_policy(
            &flaky,
            RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            },
            CircuitBreaker::new(3, 1_000_000),
        );
        // Two scrapes × two attempts = 4 failures → breaker trips.
        let _ = s.scrape("http://site.example.com/a");
        let _ = s.scrape("http://site.example.com/a");
        assert!(s.breaker().trips() >= 1);
        let fetches_before = flaky.total_fetches();
        let f = s.scrape("http://site.example.com/a").unwrap_err();
        assert_eq!(f.cause, FailureCause::CircuitOpen);
        assert_eq!(f.attempts, 0);
        assert_eq!(flaky.total_fetches(), fetches_before, "failed fast");
    }

    #[test]
    fn scrape_is_deterministic_for_a_seed() {
        let w = world();
        let run = || {
            let flaky = FlakyWorld::new(&w, FaultPlan::new(33, 0.4));
            let mut s = ResilientBrowser::new(&flaky);
            let mut log = Vec::new();
            for _ in 0..10 {
                match s.scrape("http://site.example.com/a") {
                    Ok(p) => log.push(format!("ok:{}:{}", p.attempts, p.elapsed_ms)),
                    Err(f) => log.push(format!("err:{:?}:{}", f.cause, f.elapsed_ms)),
                }
            }
            log.push(format!("t={}", s.clock().now_ms()));
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn degraded_pages_are_successes() {
        let w = world();
        let flaky = FlakyWorld::new(&w, FaultPlan::only(8, 1.0, &[FaultKind::DropScreenshot]));
        let mut s = ResilientBrowser::new(&flaky);
        let page = s.scrape("http://site.example.com/a").unwrap();
        assert!(!page.availability.screenshot);
        assert!(page.availability.is_degraded());
        assert_eq!(page.visit.screenshot_text, "");
    }
}
