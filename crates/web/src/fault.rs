//! Deterministic fault injection for the simulated web.
//!
//! [`FlakyWorld`] wraps a [`WebWorld`] and disturbs a seeded fraction of
//! fetches with the failure modes a live scraper meets: connection resets,
//! server timeouts, HTML streams cut off mid-transfer, corrupted markup,
//! redirect hops that stop answering, and renderer screenshot failures.
//!
//! Every decision derives from a hash of `(seed, url, attempt)` — there is
//! no wall clock and no global RNG — so a given seed reproduces the exact
//! same fault schedule fetch-for-fetch. A URL that fails transiently on
//! attempt *n* may succeed on attempt *n + 1*, which is what gives the
//! retrying scraper in [`crate::ResilientBrowser`] something to win
//! against.

use crate::world::{Fetch, FetchResult, FetchedPage, WebWorld, World};
use kyp_url::Url;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// One injectable failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The connection drops before a response arrives.
    Transient,
    /// The server never answers; the fetch burns its timeout budget.
    Timeout,
    /// The HTML stream is cut off partway through the document.
    TruncateHtml,
    /// A window of the HTML is overwritten with garbage bytes.
    GarbleHtml,
    /// A redirect hop stops answering (only fires on redirect entries).
    DropRedirect,
    /// The page loads but the renderer produces no screenshot.
    DropScreenshot,
}

impl FaultKind {
    /// Every kind, in the order used for weighted selection.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::Transient,
        FaultKind::Timeout,
        FaultKind::TruncateHtml,
        FaultKind::GarbleHtml,
        FaultKind::DropRedirect,
        FaultKind::DropScreenshot,
    ];
}

/// Seeded description of which faults to inject and how often.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the per-fetch fault decisions.
    pub seed: u64,
    /// Probability in `[0, 1]` that any single fetch is disturbed.
    pub fault_rate: f64,
    /// Failure modes eligible for injection (uniformly chosen).
    pub kinds: Vec<FaultKind>,
    /// Virtual cost of a fetch that answers (cleanly or not).
    pub latency_ms: u64,
    /// Virtual cost charged by a timed-out fetch.
    pub timeout_ms: u64,
}

impl FaultPlan {
    /// A plan injecting every [`FaultKind`] at `fault_rate`.
    pub fn new(seed: u64, fault_rate: f64) -> Self {
        FaultPlan {
            seed,
            fault_rate,
            kinds: FaultKind::ALL.to_vec(),
            latency_ms: 40,
            timeout_ms: 5_000,
        }
    }

    /// A plan restricted to the given failure modes.
    ///
    /// # Panics
    ///
    /// Panics when `kinds` is empty — a plan that faults into nothing is a
    /// configuration bug.
    pub fn only(seed: u64, fault_rate: f64, kinds: &[FaultKind]) -> Self {
        assert!(!kinds.is_empty(), "fault plan needs at least one kind");
        FaultPlan {
            kinds: kinds.to_vec(),
            ..FaultPlan::new(seed, fault_rate)
        }
    }

    /// The fault this plan injects on attempt `attempt` of `key`, if any.
    ///
    /// A pure function of `(seed, key, attempt)` — no clock, no interior
    /// state — so any layer that names its trials can reuse one plan as a
    /// deterministic failure schedule: [`FlakyWorld`] keys by URL and
    /// fetch attempt, `kyp-cluster` keys by node id and incarnation.
    pub fn decide(&self, key: &str, attempt: u32) -> Option<FaultKind> {
        let h = mix(self.seed ^ stable_hash(key.as_bytes()), u64::from(attempt));
        if unit_f64(h) >= self.fault_rate {
            return None;
        }
        let idx = (mix(h, 0x9E37_79B9_7F4A_7C15) % self.kinds.len() as u64) as usize;
        Some(self.kinds[idx])
    }
}

/// A [`WebWorld`] wrapper that injects the faults of a [`FaultPlan`].
///
/// Interior state tracks how many times each URL has been fetched, so the
/// fault decision for a URL's *n*-th attempt is a pure function of
/// `(seed, url, n)` — deterministic across runs, yet different across
/// retries.
///
/// # Examples
///
/// ```
/// use kyp_web::{Browser, FaultKind, FaultPlan, FlakyWorld, Page, WebWorld};
///
/// let mut world = WebWorld::new();
/// world.add_page("http://example.com/", Page::new("<body>ok</body>"));
/// // Fault every fetch with a connection reset:
/// let flaky = FlakyWorld::new(&world, FaultPlan::only(7, 1.0, &[FaultKind::Transient]));
/// assert!(Browser::new(&flaky).visit("http://example.com/").is_err());
/// ```
#[derive(Debug)]
pub struct FlakyWorld<'w> {
    inner: &'w WebWorld,
    plan: FaultPlan,
    // Ordered map (kyp-lint D01): `total_fetches` sums the values.
    attempts: RefCell<BTreeMap<String, u32>>,
}

impl<'w> FlakyWorld<'w> {
    /// Wraps `inner`, disturbing fetches per `plan`.
    pub fn new(inner: &'w WebWorld, plan: FaultPlan) -> Self {
        FlakyWorld {
            inner,
            plan,
            attempts: RefCell::new(BTreeMap::new()),
        }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// How many times `url` has been fetched so far.
    pub fn attempts_for(&self, url: &Url) -> u32 {
        self.attempts
            .borrow()
            .get(url.canonical_key())
            .copied()
            .unwrap_or(0)
    }

    /// Total fetches served (across all URLs).
    pub fn total_fetches(&self) -> u64 {
        self.attempts.borrow().values().map(|&n| u64::from(n)).sum()
    }

    /// The fault injected on attempt `attempt` of `url`, if any.
    fn decide(&self, key: &str, attempt: u32) -> Option<FaultKind> {
        self.plan.decide(key, attempt)
    }
}

impl World for FlakyWorld<'_> {
    fn fetch(&self, url: &Url) -> FetchResult {
        let key = url.canonical_key();
        let attempt = {
            let mut map = self.attempts.borrow_mut();
            let n = map.entry(key.to_owned()).or_insert(0);
            *n += 1;
            *n
        };
        let clean = |outcome| FetchResult {
            outcome,
            cost_ms: self.plan.latency_ms,
        };
        // The underlying truth, before any disturbance.
        let truth = self.inner.fetch(url).outcome;
        let Some(fault) = self.decide(key, attempt) else {
            return clean(truth);
        };
        let h = mix(
            self.plan.seed ^ stable_hash(key.as_bytes()),
            u64::from(attempt) | 1 << 32,
        );
        match (fault, truth) {
            (FaultKind::Transient, _) => clean(Fetch::Transient),
            (FaultKind::Timeout, _) => FetchResult {
                outcome: Fetch::TimedOut,
                cost_ms: self.plan.timeout_ms,
            },
            (FaultKind::TruncateHtml, Fetch::Page(fp)) => {
                let cut = truncate_fraction(&fp.page.html, 0.2 + 0.6 * unit_f64(h));
                clean(Fetch::Page(FetchedPage {
                    page: crate::Page {
                        html: cut,
                        rendered_text: fp.page.rendered_text,
                    },
                    truncated: true,
                    screenshot_missing: fp.screenshot_missing,
                }))
            }
            (FaultKind::GarbleHtml, Fetch::Page(fp)) => {
                let garbled = garble(&fp.page.html, h);
                clean(Fetch::Page(FetchedPage {
                    page: crate::Page {
                        html: garbled,
                        rendered_text: fp.page.rendered_text,
                    },
                    ..fp
                }))
            }
            (FaultKind::DropRedirect, Fetch::Redirect(_)) => clean(Fetch::Transient),
            (FaultKind::DropScreenshot, Fetch::Page(fp)) => clean(Fetch::Page(FetchedPage {
                screenshot_missing: true,
                ..fp
            })),
            // A content fault on a non-page entry degenerates to the truth:
            // there is no HTML to truncate on a redirect, and nothing at
            // all on a missing URL.
            (_, truth) => clean(truth),
        }
    }
}

/// Cuts `html` to roughly `fraction` of its bytes, on a char boundary.
fn truncate_fraction(html: &str, fraction: f64) -> String {
    let target = (html.len() as f64 * fraction) as usize;
    let mut cut = target.min(html.len());
    while cut > 0 && !html.is_char_boundary(cut) {
        cut -= 1;
    }
    html[..cut].to_owned()
}

/// Overwrites a hash-chosen window of `html` with junk bytes — the kind of
/// corruption a flaky proxy or interrupted gzip stream produces.
fn garble(html: &str, h: u64) -> String {
    if html.is_empty() {
        return String::new();
    }
    let start_target = (mix(h, 1) % html.len() as u64) as usize;
    let len_target = 8 + (mix(h, 2) % 56) as usize;
    let mut start = start_target.min(html.len());
    while start > 0 && !html.is_char_boundary(start) {
        start -= 1;
    }
    let mut end = (start + len_target).min(html.len());
    while end < html.len() && !html.is_char_boundary(end) {
        end += 1;
    }
    let junk: String = (0..end - start)
        .map(|i| {
            // Printable junk with markup metacharacters mixed in, so the
            // parser's tolerance is genuinely exercised.
            const JUNK: &[u8] = b"<>&\"'=x%#;";
            JUNK[(mix(h, 3 + i as u64) % JUNK.len() as u64) as usize] as char
        })
        .collect();
    format!("{}{}{}", &html[..start], junk, &html[end..])
}

/// FNV-1a over bytes: a stable, dependency-free, platform-independent
/// hash. This is the name-to-u64 primitive every deterministic layer
/// shares — fault schedules here, hash-ring placement in `kyp-cluster` —
/// so placements and fault decisions never vary across builds or runs.
pub fn stable_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64 finalizer over `a ⊕ golden·b` — the per-decision hash,
/// shared with the retry policy's deterministic jitter and the cluster
/// layer's seeded draws (uptime spans, virtual-node tokens).
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to `[0, 1)` with 53 bits of precision.
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Page;

    fn base_world() -> WebWorld {
        let mut w = WebWorld::new();
        w.add_page(
            "http://site.example.com/a",
            Page::new("<title>T</title><body><p>hello world</p><a href='/x'>x</a></body>"),
        );
        w.add_redirect("http://hop.example.com/r", "http://site.example.com/a");
        w
    }

    fn fetch_outcome(world: &FlakyWorld<'_>, url: &str) -> Fetch {
        world.fetch(&Url::parse(url).unwrap()).outcome
    }

    #[test]
    fn zero_rate_never_faults() {
        let w = base_world();
        let flaky = FlakyWorld::new(&w, FaultPlan::new(1, 0.0));
        for _ in 0..50 {
            match fetch_outcome(&flaky, "http://site.example.com/a") {
                Fetch::Page(fp) => {
                    assert!(!fp.truncated && !fp.screenshot_missing);
                }
                o => panic!("unexpected outcome {o:?}"),
            }
        }
    }

    #[test]
    fn full_rate_always_faults() {
        let w = base_world();
        let flaky = FlakyWorld::new(
            &w,
            FaultPlan::only(2, 1.0, &[FaultKind::Transient, FaultKind::Timeout]),
        );
        for _ in 0..20 {
            match fetch_outcome(&flaky, "http://site.example.com/a") {
                Fetch::Transient | Fetch::TimedOut => {}
                o => panic!("expected a fault, got {o:?}"),
            }
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let w = base_world();
        let run = || {
            let flaky = FlakyWorld::new(&w, FaultPlan::new(42, 0.5));
            (0..30)
                .map(|_| format!("{:?}", fetch_outcome(&flaky, "http://site.example.com/a")))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let w = base_world();
        let run = |seed| {
            let flaky = FlakyWorld::new(&w, FaultPlan::new(seed, 0.5));
            (0..30)
                .map(|_| format!("{:?}", fetch_outcome(&flaky, "http://site.example.com/a")))
                .collect::<Vec<_>>()
        };
        assert_ne!(run(1), run(2), "distinct seeds should disagree somewhere");
    }

    #[test]
    fn truncation_respects_char_boundaries() {
        let mut w = WebWorld::new();
        w.add_page(
            "http://u.example.com/",
            Page::new("日本語テキスト".repeat(40)),
        );
        let flaky = FlakyWorld::new(&w, FaultPlan::only(3, 1.0, &[FaultKind::TruncateHtml]));
        for _ in 0..10 {
            match fetch_outcome(&flaky, "http://u.example.com/") {
                Fetch::Page(fp) => {
                    assert!(fp.truncated);
                    assert!(fp.page.html.len() < "日本語テキスト".len() * 40);
                }
                o => panic!("unexpected {o:?}"),
            }
        }
    }

    #[test]
    fn garble_preserves_length_and_utf8() {
        let html = "<body>αβγ test δεζ ".repeat(20);
        for i in 0..50 {
            let g = garble(&html, mix(99, i));
            assert!(!g.is_empty());
            // Valid UTF-8 by construction (String), and same byte length
            // modulo boundary adjustment.
            assert!(g.len() >= html.len() - 4 && g.len() <= html.len() + 4);
        }
    }

    #[test]
    fn timeout_charges_timeout_cost() {
        let w = base_world();
        let flaky = FlakyWorld::new(&w, FaultPlan::only(4, 1.0, &[FaultKind::Timeout]));
        let r = flaky.fetch(&Url::parse("http://site.example.com/a").unwrap());
        assert_eq!(r.outcome, Fetch::TimedOut);
        assert_eq!(r.cost_ms, flaky.plan().timeout_ms);
    }

    #[test]
    fn drop_redirect_only_hits_redirects() {
        let w = base_world();
        let flaky = FlakyWorld::new(&w, FaultPlan::only(5, 1.0, &[FaultKind::DropRedirect]));
        assert_eq!(
            fetch_outcome(&flaky, "http://hop.example.com/r"),
            Fetch::Transient
        );
        // On a page entry the kind degenerates to the clean fetch.
        assert!(matches!(
            fetch_outcome(&flaky, "http://site.example.com/a"),
            Fetch::Page(_)
        ));
    }

    #[test]
    fn attempt_counters_advance() {
        let w = base_world();
        let flaky = FlakyWorld::new(&w, FaultPlan::new(6, 0.3));
        let url = Url::parse("http://site.example.com/a").unwrap();
        assert_eq!(flaky.attempts_for(&url), 0);
        flaky.fetch(&url);
        flaky.fetch(&url);
        assert_eq!(flaky.attempts_for(&url), 2);
        assert_eq!(flaky.total_fetches(), 2);
    }

    #[test]
    fn fault_rate_roughly_honoured() {
        let mut w = WebWorld::new();
        for i in 0..400 {
            w.add_page(
                &format!("http://h{i}.example.com/"),
                Page::new("<body>x</body>"),
            );
        }
        let flaky = FlakyWorld::new(&w, FaultPlan::new(11, 0.3));
        let mut faulted = 0;
        for i in 0..400 {
            match fetch_outcome(&flaky, &format!("http://h{i}.example.com/")) {
                Fetch::Page(fp) if !fp.truncated && !fp.screenshot_missing => {}
                _ => faulted += 1,
            }
        }
        let rate = f64::from(faulted) / 400.0;
        assert!((0.18..0.42).contains(&rate), "observed fault rate {rate}");
    }
}
