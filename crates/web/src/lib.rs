#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! A simulated web and browser/scraper for the *Know Your Phish*
//! reproduction.
//!
//! The paper's experimental setup scrapes live webpages with a monitored
//! Firefox (Section VI-A), recording the data sources of Section II-C:
//! starting URL, landing URL, redirection chain, logged links, HTML and a
//! screenshot. Offline, we substitute a deterministic **simulated web**:
//!
//! - [`WebWorld`] hosts pages and redirects addressed by URL,
//! - [`Browser`] "visits" a URL: follows redirects, parses the HTML,
//!   resolves embedded resources (the *logged links*) and outgoing HREF
//!   links, and captures the rendered text in lieu of a screenshot,
//! - [`VisitedPage`] is the resulting data-source bundle — the *only*
//!   interface the detection pipeline sees, exactly as in the paper,
//! - [`ocr::simulate_ocr`] extracts noisy terms from the "screenshot",
//! - [`DomainRanker`] substitutes the paper's local copy of the Alexa
//!   top-1M ranking.
//!
//! # Fault model and resilience
//!
//! Live scraping fails constantly: connections reset, servers stall, HTML
//! arrives cut off, redirect hops die, renderers miss screenshots. The
//! crate models all of it deterministically:
//!
//! - [`FlakyWorld`] wraps a [`WebWorld`] behind the same [`World`] trait
//!   and injects a seeded [`FaultPlan`] of those failures — every fault
//!   decision is a hash of `(seed, url, attempt)`, never a wall clock;
//! - [`ResilientBrowser`] retries with a [`RetryPolicy`] (bounded
//!   attempts, capped exponential backoff with deterministic jitter, a
//!   per-visit deadline budget) and fails fast on hosts whose
//!   [`CircuitBreaker`] circuit is open;
//! - all waiting happens on a [`VirtualClock`] — runs never sleep and are
//!   bit-reproducible for a given seed;
//! - partially delivered pages surface as successes with
//!   [`SourceAvailability`] flags cleared, so the pipeline can extract
//!   features from what *did* arrive (graceful degradation) instead of
//!   dropping the page.
//!
//! # Examples
//!
//! ```
//! use kyp_web::{Browser, Page, WebWorld};
//!
//! let mut world = WebWorld::new();
//! world.add_page(
//!     "https://example.com/",
//!     Page::new("<title>Example</title><body><a href=\"/about\">About</a></body>"),
//! );
//! let browser = Browser::new(&world);
//! let visit = browser.visit("https://example.com/")?;
//! assert_eq!(visit.title, "Example");
//! assert_eq!(visit.href_links.len(), 1);
//! # Ok::<(), kyp_web::VisitError>(())
//! ```

mod browser;
mod clock;
mod fault;
pub mod ocr;
mod ranking;
mod scraper;
mod visit;
mod world;

pub use browser::{Browser, Landing, VisitError, VisitFailure, VisitOutcome};
pub use clock::VirtualClock;
pub use fault::{mix, stable_hash, FaultKind, FaultPlan, FlakyWorld};
pub use ranking::{DomainRanker, UNRANKED};
pub use scraper::{
    BreakerState, CircuitBreaker, FailureCause, ResilientBrowser, RetryPolicy, ScrapeFailure,
    ScrapedPage,
};
pub use visit::{SourceAvailability, VisitedPage};
pub use world::{Fetch, FetchResult, FetchedPage, Page, WebWorld, World};
