//! The shared fetch memo: one scrape per unique URL for the whole cluster.
//!
//! Determinism across shard counts hinges on the page source seeing the
//! same fetch sequence whatever the cluster shape. A stateful source (a
//! fault plan, a circuit breaker, a retry clock) answers differently
//! depending on *when* it is asked, and per-node fetching would make that
//! order a function of placement. The router therefore performs every
//! fetch itself, in trace (first-occurrence) order, and deposits the
//! result here; nodes read through [`SharedStore`] — a [`PageSource`]
//! that only ever does keyed lookups of already-fetched pages. It is the
//! cluster's one page memo: each node's scoring service remembers only
//! landing URLs and verdicts, and drops the page it read once classified.

use kyp_serve::{canonical_url, PageSource};
use kyp_web::{FailureCause, ScrapedPage};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// A cheaply clonable handle onto the cluster's fetch memo. Every node's
/// scoring service holds one; the router holds the writing side.
///
/// Lookups are keyed ([`canonical_url`] of the request URL), never
/// iterated, so the map underneath cannot leak iteration order into
/// anything (kyp-lint D01).
#[derive(Debug, Clone, Default)]
pub struct SharedStore {
    pages: Rc<RefCell<HashMap<String, Result<ScrapedPage, FailureCause>>>>,
}

impl SharedStore {
    /// An empty store.
    pub fn new() -> Self {
        SharedStore::default()
    }

    /// Whether `key` has been fetched already.
    pub fn contains(&self, key: &str) -> bool {
        self.pages.borrow().contains_key(key)
    }

    /// The stored fetch result for `key`, if any.
    pub fn get(&self, key: &str) -> Option<Result<ScrapedPage, FailureCause>> {
        self.pages.borrow().get(key).cloned()
    }

    /// The canonical key of the landing URL stored for `key`, or the
    /// stored failure, if any: what [`SharedStore::get`] would say of the
    /// page's landing URL, read in place without copying the page.
    pub fn landing_key(&self, key: &str) -> Option<Result<String, FailureCause>> {
        self.pages.borrow().get(key).map(|fetched| match fetched {
            Ok(page) => Ok(page.visit.landing_url.canonical_key().to_owned()),
            Err(cause) => Err(*cause),
        })
    }

    /// Records the fetch result for `key`. First write wins: the memo is
    /// append-only, so a page can never change under a node.
    pub fn put(&self, key: String, result: Result<ScrapedPage, FailureCause>) {
        self.pages.borrow_mut().entry(key).or_insert(result);
    }
}

impl PageSource for SharedStore {
    /// Keyed read of the memo. The router only dispatches requests whose
    /// fetch already succeeded, so a miss here means a caller bypassed
    /// the router; it surfaces as [`FailureCause::NotFound`] rather than
    /// panicking.
    fn fetch(&mut self, url: &str) -> Result<ScrapedPage, FailureCause> {
        self.get(&canonical_url(url))
            .unwrap_or(Err(FailureCause::NotFound))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kyp_url::Url;
    use kyp_web::{SourceAvailability, VisitedPage};

    fn page(url: &str) -> ScrapedPage {
        let u = Url::parse(url).unwrap();
        ScrapedPage {
            visit: VisitedPage {
                starting_url: u.clone(),
                landing_url: u.clone(),
                redirection_chain: vec![u],
                logged_links: Vec::new(),
                href_links: Vec::new(),
                text: "hello".into(),
                title: "T".into(),
                copyright: None,
                screenshot_text: String::new(),
                input_count: 0,
                image_count: 0,
                iframe_count: 0,
            },
            availability: SourceAvailability::FULL,
            attempts: 1,
            elapsed_ms: 0,
        }
    }

    #[test]
    fn clones_share_one_memo() {
        let a = SharedStore::new();
        let mut b = a.clone();
        let key = canonical_url("http://x.example.com/p");
        a.put(key, Ok(page("http://x.example.com/p")));
        let fetched = b.fetch("https://x.example.com/p?q=1").unwrap();
        assert_eq!(fetched.visit.title, "T");
        assert!(b.contains("x.example.com/p"));
    }

    #[test]
    fn first_write_wins() {
        let store = SharedStore::new();
        let key = canonical_url("http://x.example.com/");
        store.put(key.clone(), Err(FailureCause::Timeout));
        store.put(key.clone(), Ok(page("http://x.example.com/")));
        assert_eq!(store.get(&key), Some(Err(FailureCause::Timeout)));
    }

    #[test]
    fn landing_key_agrees_with_get() {
        let store = SharedStore::new();
        let fetched = canonical_url("http://x.example.com/start");
        let mut landed = page("http://x.example.com/start");
        landed.visit.landing_url = Url::parse("https://Y.example.com/end?q=1").unwrap();
        store.put(fetched.clone(), Ok(landed));
        let failed = canonical_url("http://down.example.com/");
        store.put(failed.clone(), Err(FailureCause::Timeout));
        for key in [fetched.as_str(), failed.as_str(), "never.example.com/"] {
            let via_get = store
                .get(key)
                .map(|r| r.map(|p| p.visit.landing_url.canonical_key().to_owned()));
            assert_eq!(store.landing_key(key), via_get, "{key}");
        }
        assert_eq!(
            store.landing_key(&fetched),
            Some(Ok("y.example.com/end".to_owned()))
        );
    }

    #[test]
    fn missing_key_reads_not_found() {
        let mut store = SharedStore::new();
        assert_eq!(
            store.fetch("http://never.example.com/"),
            Err(FailureCause::NotFound)
        );
    }
}
