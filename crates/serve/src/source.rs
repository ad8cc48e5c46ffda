//! Where scored pages come from: a live scraper or a stored capture.
//!
//! The service is generic over [`PageSource`] so the same scoring loop
//! runs against a simulated web (tests, benchmarks — via
//! [`ScraperSource`]) or against a previously captured page set (the CLI,
//! whose page store carries visited pages but no raw HTML — via
//! [`StoredPages`]).

use kyp_url::Url;
use kyp_web::{
    FailureCause, ResilientBrowser, ScrapedPage, SourceAvailability, VisitedPage, World,
};
use std::collections::HashMap;

/// A provider of scraped pages keyed by request URL.
pub trait PageSource {
    /// Fetches `url`, returning the scraped page or the terminal failure
    /// cause. Implementations must be deterministic: the same sequence of
    /// calls yields the same sequence of results.
    fn fetch(&mut self, url: &str) -> Result<ScrapedPage, FailureCause>;
}

/// The fetch-memo key of a request URL: [`Url::canonical_key`]
/// (`{fqdn-or-host}/{path}`) — scheme-, port- and query-insensitive, the
/// key the simulated web itself uses for pages — or the raw string when
/// the URL does not parse. The scoring service and the cluster router
/// both key their memos with it, so they always agree.
pub fn canonical_url(url: &str) -> String {
    Url::parse(url).map_or_else(|_| url.to_owned(), |u| u.canonical_key().to_owned())
}

/// A [`PageSource`] that scrapes live from a [`World`] through the
/// resilient browser (retries, backoff, circuit breaking).
#[derive(Debug)]
pub struct ScraperSource<'w, W: World> {
    browser: ResilientBrowser<'w, W>,
}

impl<'w, W: World> ScraperSource<'w, W> {
    /// A source scraping `world` with the default retry policy.
    pub fn new(world: &'w W) -> Self {
        ScraperSource {
            browser: ResilientBrowser::new(world),
        }
    }
}

impl<W: World> PageSource for ScraperSource<'_, W> {
    fn fetch(&mut self, url: &str) -> Result<ScrapedPage, FailureCause> {
        self.browser.scrape(url).map_err(|f| f.cause)
    }
}

/// A [`PageSource`] over previously captured pages, keyed by the
/// canonical form of each page's starting URL.
///
/// Captured pages carry no raw HTML, so a world cannot be rebuilt from
/// them — but a full [`VisitedPage`] is exactly what classification
/// needs. Lookups that miss the store report [`FailureCause::NotFound`];
/// unparsable URLs report [`FailureCause::BadUrl`].
#[derive(Debug, Clone)]
pub struct StoredPages {
    pages: HashMap<String, VisitedPage>,
}

impl StoredPages {
    /// A store over `pages`, indexed by canonical starting URL. Later
    /// duplicates of a key win.
    pub fn new(items: impl IntoIterator<Item = VisitedPage>) -> Self {
        let pages = items
            .into_iter()
            .map(|p| (p.starting_url.canonical_key().to_owned(), p))
            .collect();
        StoredPages { pages }
    }

    /// Stored pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// `true` when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

impl PageSource for StoredPages {
    fn fetch(&mut self, url: &str) -> Result<ScrapedPage, FailureCause> {
        let url = Url::parse(url).map_err(|_| FailureCause::BadUrl)?;
        let visit = self
            .pages
            .get(url.canonical_key())
            .ok_or(FailureCause::NotFound)?;
        Ok(ScrapedPage {
            visit: visit.clone(),
            availability: SourceAvailability::FULL,
            attempts: 1,
            elapsed_ms: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(starting_url: &str, title: &str) -> VisitedPage {
        let url = Url::parse(starting_url).unwrap();
        VisitedPage {
            starting_url: url.clone(),
            landing_url: url.clone(),
            redirection_chain: vec![url],
            logged_links: Vec::new(),
            href_links: Vec::new(),
            text: format!("text of {title}"),
            title: title.to_owned(),
            copyright: None,
            screenshot_text: String::new(),
            input_count: 0,
            image_count: 0,
            iframe_count: 0,
        }
    }

    #[test]
    fn canonical_url_drops_scheme_and_query() {
        let a = canonical_url("http://www.example.com/login?next=/home");
        let b = canonical_url("https://www.example.com/login");
        assert_eq!(a, b);
        assert_eq!(a, "www.example.com/login");
        assert_eq!(canonical_url("not a url ://"), "not a url ://");
    }

    #[test]
    fn canonical_url_keeps_host_and_path_apart() {
        // Regression: keys rendered as `{host}{path}` gave both pages the
        // key "ab.com", so they shared verdict-cache and memo entries.
        let a = canonical_url("http://ab.co/m");
        let b = canonical_url("http://ab.com/");
        assert_eq!(a, "ab.co/m");
        assert_eq!(b, "ab.com/");
        let mut store = StoredPages::new(vec![
            page("http://ab.co/m", "co"),
            page("http://ab.com/", "com"),
        ]);
        assert_eq!(store.len(), 2);
        assert_eq!(store.fetch("http://ab.co/m").unwrap().visit.title, "co");
        assert_eq!(store.fetch("https://ab.com").unwrap().visit.title, "com");
    }

    #[test]
    fn stored_pages_hit_and_miss() {
        let mut store = StoredPages::new(vec![page("http://a.example.com/x", "A")]);
        assert_eq!(store.len(), 1);
        let hit = store.fetch("https://a.example.com/x?utm=1").unwrap();
        assert_eq!(hit.visit.title, "A");
        assert_eq!(hit.availability, SourceAvailability::FULL);
        assert_eq!(
            store.fetch("http://missing.example.com/").unwrap_err(),
            FailureCause::NotFound
        );
        assert_eq!(
            store.fetch("not a url ://").unwrap_err(),
            FailureCause::BadUrl
        );
    }
}
