use kyp_url::Url;
use std::collections::HashMap;

/// Virtual milliseconds a healthy fetch costs on [`WebWorld`].
pub(crate) const NOMINAL_FETCH_MS: u64 = 40;

/// A served page plus any delivery defects observed while loading it.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchedPage {
    /// The page content as received (possibly cut off or corrupted).
    pub page: Page,
    /// The HTML stream ended before the server finished sending.
    pub truncated: bool,
    /// The renderer failed to capture a screenshot of the page.
    pub screenshot_missing: bool,
}

impl FetchedPage {
    /// A defect-free fetch of `page`.
    pub fn clean(page: Page) -> Self {
        FetchedPage {
            page,
            truncated: false,
            screenshot_missing: false,
        }
    }
}

/// Outcome of fetching a single URL, as a network stack would report it.
#[derive(Debug, Clone, PartialEq)]
pub enum Fetch {
    /// A page was served.
    Page(FetchedPage),
    /// An HTTP redirect to the given (possibly relative) target.
    Redirect(String),
    /// Nothing is hosted at the URL.
    NotFound,
    /// The connection failed mid-flight (reset, DNS hiccup, 5xx).
    Transient,
    /// The server accepted the connection but never answered.
    TimedOut,
}

/// One fetch outcome with its cost on the virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchResult {
    /// What came back.
    pub outcome: Fetch,
    /// Virtual milliseconds the fetch took (timeouts cost the most).
    pub cost_ms: u64,
}

/// Anything a [`Browser`](crate::Browser) can fetch URLs from.
///
/// [`WebWorld`] is the reliable implementation; fault-injecting wrappers
/// like [`FlakyWorld`](crate::FlakyWorld) implement the same trait, so the
/// whole visit machinery runs unchanged over an unreliable web.
pub trait World {
    /// Fetches one URL. Implementations must be deterministic given their
    /// construction-time seed and the sequence of calls — no wall clock,
    /// no global RNG.
    fn fetch(&self, url: &Url) -> FetchResult;
}

impl World for WebWorld {
    fn fetch(&self, url: &Url) -> FetchResult {
        let outcome = match self.lookup(url) {
            Some(Entry::Page(p)) => Fetch::Page(FetchedPage::clean(p.clone())),
            Some(Entry::Redirect(t)) => Fetch::Redirect(t.clone()),
            None => Fetch::NotFound,
        };
        FetchResult {
            outcome,
            cost_ms: NOMINAL_FETCH_MS,
        }
    }
}

/// A page hosted in the simulated web.
///
/// `rendered_text` stands in for a screenshot: it is what optical
/// character recognition would read off the loaded page. For ordinary
/// pages it defaults to the HTML's visible text; image-based pages (a
/// documented evasion technique, Section VII-C) can carry text that exists
/// *only* in the rendering and not in the HTML.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    /// The HTML source served for this URL.
    pub html: String,
    /// Text visible on the rendered page (screenshot proxy). When `None`,
    /// the browser derives it from the HTML body text.
    pub rendered_text: Option<String>,
}

impl Page {
    /// Creates a page whose rendering matches its HTML text.
    pub fn new(html: impl Into<String>) -> Self {
        Page {
            html: html.into(),
            rendered_text: None,
        }
    }

    /// Creates a page with explicit rendered text (image-based pages).
    pub fn with_rendered_text(html: impl Into<String>, rendered: impl Into<String>) -> Self {
        Page {
            html: html.into(),
            rendered_text: Some(rendered.into()),
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Entry {
    Page(Page),
    Redirect(String),
}

/// The simulated web: a set of URLs hosting pages or redirects.
///
/// Lookup ignores scheme and query so that `http://x/a`, `https://x/a`
/// and `https://x/a?utm=1` address the same resource, like a typical web
/// server would.
#[derive(Debug, Clone, Default)]
pub struct WebWorld {
    entries: HashMap<String, Entry>,
}

impl WebWorld {
    /// Creates an empty world.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses `url` and returns its lookup key ([`Url::canonical_key`]),
    /// or `None` for unparsable URLs.
    fn key_str(url: &str) -> Option<String> {
        Url::parse(url).ok().map(|u| u.canonical_key().to_owned())
    }

    /// Hosts a page at `url`.
    ///
    /// # Panics
    ///
    /// Panics when `url` does not parse — world construction is
    /// programmer-controlled, so a bad URL is a bug in the generator.
    pub fn add_page(&mut self, url: &str, page: Page) {
        let key = Self::key_str(url).unwrap_or_else(|| panic!("invalid url {url:?}"));
        self.entries.insert(key, Entry::Page(page));
    }

    /// Hosts a redirect from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics when `from` does not parse.
    pub fn add_redirect(&mut self, from: &str, to: &str) {
        let key = Self::key_str(from).unwrap_or_else(|| panic!("invalid url {from:?}"));
        self.entries.insert(key, Entry::Redirect(to.to_owned()));
    }

    /// Resolves a URL to a page or redirect target.
    pub(crate) fn lookup(&self, url: &Url) -> Option<&Entry> {
        self.entries.get(url.canonical_key())
    }

    /// Number of hosted entries (pages + redirects).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is hosted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetch_outcome(w: &WebWorld, url: &str) -> Fetch {
        w.fetch(&Url::parse(url).unwrap()).outcome
    }

    #[test]
    fn lookup_ignores_scheme_and_query() {
        let mut w = WebWorld::new();
        w.add_page("http://example.com/a", Page::new("<body>x</body>"));
        for probe in [
            "https://example.com/a",
            "http://example.com/a?q=1",
            "example.com/a",
        ] {
            assert!(
                matches!(fetch_outcome(&w, probe), Fetch::Page(_)),
                "probe {probe}"
            );
        }
        assert_eq!(fetch_outcome(&w, "http://example.com/b"), Fetch::NotFound);
    }

    #[test]
    fn redirect_entries() {
        let mut w = WebWorld::new();
        w.add_redirect("http://a.com/", "https://b.com/");
        assert_eq!(
            fetch_outcome(&w, "http://a.com/"),
            Fetch::Redirect("https://b.com/".into())
        );
    }

    #[test]
    fn ip_hosts_supported() {
        let mut w = WebWorld::new();
        w.add_page("http://10.1.2.3/login", Page::new("<body>login</body>"));
        assert!(matches!(
            fetch_outcome(&w, "http://10.1.2.3/login"),
            Fetch::Page(_)
        ));
    }

    #[test]
    fn fetches_are_clean_and_cost_nominal_latency() {
        let mut w = WebWorld::new();
        w.add_page("http://example.com/", Page::new("<body>x</body>"));
        let r = w.fetch(&Url::parse("http://example.com/").unwrap());
        assert_eq!(r.cost_ms, NOMINAL_FETCH_MS);
        match r.outcome {
            Fetch::Page(fp) => assert!(!fp.truncated && !fp.screenshot_missing),
            o => panic!("unexpected outcome {o:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "invalid url")]
    fn bad_url_panics() {
        WebWorld::new().add_page("http://", Page::new(""));
    }

    #[test]
    fn len_and_overwrite() {
        let mut w = WebWorld::new();
        assert!(w.is_empty());
        w.add_page("http://x.com/", Page::new("a"));
        w.add_page("https://x.com/", Page::new("b"));
        assert_eq!(w.len(), 1, "same key overwrites");
    }

    #[test]
    fn rendered_text_variants() {
        let p = Page::new("<body>hi</body>");
        assert_eq!(p.rendered_text, None);
        let q = Page::with_rendered_text("<body><img src='x'></body>", "Bank login");
        assert_eq!(q.rendered_text.as_deref(), Some("Bank login"));
    }
}
