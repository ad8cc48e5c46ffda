use crate::visit::{SourceAvailability, VisitedPage};
use crate::world::{Fetch, FetchedPage, WebWorld, World};
use kyp_html::Document;
use kyp_url::{ParseUrlError, Url};
use std::error::Error;
use std::fmt;

/// Maximum redirects the browser follows before giving up.
const MAX_REDIRECTS: usize = 10;

/// Error returned by [`Browser::visit`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VisitError {
    /// The starting URL (or a redirect target) did not parse.
    BadUrl(ParseUrlError),
    /// No resource is hosted at the URL.
    NotFound(String),
    /// The redirect chain exceeded the browser's limit.
    TooManyRedirects,
    /// A fetch failed transiently (reset connection, flaky DNS, 5xx);
    /// retrying may succeed.
    Transient(String),
    /// A fetch hit its timeout without an answer; retrying may succeed.
    Timeout(String),
    /// The landing page's HTML stream was cut off mid-transfer. The
    /// lenient path ([`Browser::try_visit`]) accepts such pages as
    /// degraded; the strict [`Browser::visit`] reports this error.
    Truncated(String),
}

impl VisitError {
    /// `true` for failures worth retrying (transient by nature).
    pub fn is_retryable(&self) -> bool {
        matches!(self, VisitError::Transient(_) | VisitError::Timeout(_))
    }
}

impl fmt::Display for VisitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VisitError::BadUrl(e) => write!(f, "invalid url: {e}"),
            VisitError::NotFound(u) => write!(f, "no resource hosted at {u}"),
            VisitError::TooManyRedirects => write!(f, "redirect chain too long"),
            VisitError::Transient(u) => write!(f, "transient fetch failure at {u}"),
            VisitError::Timeout(u) => write!(f, "fetch timed out at {u}"),
            VisitError::Truncated(u) => write!(f, "html stream truncated at {u}"),
        }
    }
}

impl Error for VisitError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VisitError::BadUrl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseUrlError> for VisitError {
    fn from(e: ParseUrlError) -> Self {
        VisitError::BadUrl(e)
    }
}

/// A successful (possibly degraded) lenient visit: the collected data
/// sources, what was captured intact, and the virtual time spent.
#[derive(Debug, Clone, PartialEq)]
pub struct VisitOutcome {
    /// The collected data-source bundle.
    pub visit: VisitedPage,
    /// Which sources were captured intact.
    pub availability: SourceAvailability,
    /// Total fetch cost on the virtual clock, in milliseconds.
    pub cost_ms: u64,
}

/// A failed visit together with the virtual time it burned — retry logic
/// must charge failed attempts against the deadline budget too.
#[derive(Debug, Clone, PartialEq)]
pub struct VisitFailure {
    /// What went wrong.
    pub error: VisitError,
    /// Virtual milliseconds spent before failing.
    pub cost_ms: u64,
}

/// A scripted browser over a [`World`] — the reproduction's analogue of
/// the paper's monitored Selenium/Firefox scraper.
///
/// Generic over the world implementation: [`WebWorld`] (the default) is
/// perfectly reliable, [`FlakyWorld`](crate::FlakyWorld) injects faults.
///
/// A visit is two steps: a redirect walk to the landing page
/// ([`Browser::land`]), then the collection of every data source from it.
///
/// # Examples
///
/// See the [crate docs](crate).
#[derive(Debug)]
pub struct Browser<'w, W: World = WebWorld> {
    world: &'w W,
}

// Manual impls: `#[derive]` would needlessly require `W: Clone`.
impl<W: World> Clone for Browser<'_, W> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<W: World> Copy for Browser<'_, W> {}

impl<'w, W: World> Browser<'w, W> {
    /// Creates a browser over a world.
    pub fn new(world: &'w W) -> Self {
        Browser { world }
    }

    /// Visits `starting_url`: follows redirects, loads the landing page,
    /// and collects every Section II-C data source.
    ///
    /// This is the *strict* entry point: any delivery defect is an error.
    /// Use [`Browser::try_visit`] to accept degraded pages.
    ///
    /// # Errors
    ///
    /// - [`VisitError::BadUrl`] when a URL does not parse,
    /// - [`VisitError::NotFound`] when nothing is hosted at the landing URL,
    /// - [`VisitError::TooManyRedirects`] after 10 redirects,
    /// - [`VisitError::Transient`] / [`VisitError::Timeout`] when a fetch
    ///   fails (only on fault-injecting worlds),
    /// - [`VisitError::Truncated`] when the landing HTML was cut off.
    pub fn visit(&self, starting_url: &str) -> Result<VisitedPage, VisitError> {
        Ok(self.land(starting_url)?.collect().visit)
    }

    /// The redirect walk of [`Browser::visit`], without collecting the
    /// data sources: the landing URL and the page served there, for a
    /// caller that needs no more than that page. It fails exactly where
    /// [`Browser::visit`] fails.
    ///
    /// # Errors
    ///
    /// See [`Browser::visit`].
    pub fn land(&self, starting_url: &str) -> Result<Landing, VisitError> {
        let start = Url::parse(starting_url).map_err(VisitError::BadUrl)?;
        let landing = self.walk(start).map_err(|f| f.error)?;
        if landing.fetched.truncated {
            return Err(VisitError::Truncated(landing.url.to_string()));
        }
        Ok(landing)
    }

    /// Lenient visit: accepts partially delivered pages, reporting what
    /// was captured via [`SourceAvailability`].
    ///
    /// A truncated HTML stream yields a degraded [`VisitOutcome`] (parsed
    /// from the partial document, `html`/`links` flags cleared) instead of
    /// an error; a missing screenshot clears the `screenshot` flag and
    /// leaves `screenshot_text` empty. Hard failures — unreachable or
    /// unparsable URLs, failed fetches — are still errors, with the
    /// virtual time spent attached.
    ///
    /// # Errors
    ///
    /// See [`Browser::visit`]; `Truncated` is never returned here.
    pub fn try_visit(&self, starting_url: &str) -> Result<VisitOutcome, VisitFailure> {
        let start = Url::parse(starting_url).map_err(|e| VisitFailure {
            error: VisitError::BadUrl(e),
            cost_ms: 0,
        })?;
        self.try_visit_url(start)
    }

    /// [`Browser::try_visit`] from a starting URL the caller has parsed
    /// already.
    pub(crate) fn try_visit_url(&self, start: Url) -> Result<VisitOutcome, VisitFailure> {
        self.walk(start).map(Landing::collect)
    }

    /// Follows redirects from `start` to the first page served, whatever
    /// its delivery defects.
    fn walk(&self, start: Url) -> Result<Landing, VisitFailure> {
        let mut cost_ms = 0u64;
        let fail = |error, cost_ms| Err(VisitFailure { error, cost_ms });
        let mut chain = vec![start.clone()];
        let mut current = start.clone();
        let mut buf = String::new();
        for _ in 0..=MAX_REDIRECTS {
            let result = self.world.fetch(&current);
            cost_ms += result.cost_ms;
            match result.outcome {
                Fetch::Redirect(target) => {
                    let Some(next) = resolve_href(&current, &target, &mut buf) else {
                        return fail(VisitError::NotFound(target), cost_ms);
                    };
                    chain.push(next.clone());
                    current = next;
                }
                Fetch::NotFound => return fail(VisitError::NotFound(current.to_string()), cost_ms),
                Fetch::Transient => {
                    return fail(VisitError::Transient(current.to_string()), cost_ms)
                }
                Fetch::TimedOut => return fail(VisitError::Timeout(current.to_string()), cost_ms),
                Fetch::Page(fetched) => {
                    return Ok(Landing {
                        start,
                        chain,
                        url: current,
                        fetched,
                        cost_ms,
                    })
                }
            }
        }
        fail(VisitError::TooManyRedirects, cost_ms)
    }
}

/// Where a redirect walk ended: the URLs it crossed and the page served
/// at the last one, as returned by [`Browser::land`].
#[derive(Debug, Clone, PartialEq)]
pub struct Landing {
    start: Url,
    /// Every URL crossed, from `start` to `url` inclusive.
    chain: Vec<Url>,
    url: Url,
    fetched: FetchedPage,
    cost_ms: u64,
}

impl Landing {
    /// The landing URL: the final URL in the address bar.
    pub fn url(&self) -> &Url {
        &self.url
    }

    /// The HTML source served at the landing URL.
    pub fn html(&self) -> &str {
        &self.fetched.page.html
    }

    /// Collects every data source of the landing page: parses its HTML
    /// once, takes the document's strings over and resolves its links
    /// against the landing URL.
    fn collect(self) -> VisitOutcome {
        let Landing {
            start,
            chain,
            url,
            fetched,
            cost_ms,
        } = self;
        let FetchedPage {
            page,
            truncated,
            screenshot_missing,
        } = fetched;
        let doc = Document::parse(&page.html);
        let mut buf = String::new();
        let logged_links = resolve_all(&url, &doc.resource_links, &mut buf);
        let href_links = resolve_all(&url, &doc.href_links, &mut buf);
        let screenshot_text = if screenshot_missing {
            String::new()
        } else {
            page.rendered_text.unwrap_or_else(|| doc.text.clone())
        };
        let visit = VisitedPage {
            starting_url: start,
            landing_url: url,
            redirection_chain: chain,
            logged_links,
            href_links,
            text: doc.text,
            title: doc.title,
            copyright: doc.copyright,
            screenshot_text,
            input_count: doc.input_count,
            image_count: doc.image_count,
            iframe_count: doc.iframe_count,
        };
        VisitOutcome {
            visit,
            availability: SourceAvailability {
                html: !truncated,
                links: !truncated,
                screenshot: !screenshot_missing,
            },
            cost_ms,
        }
    }
}

/// Resolves every link of `hrefs` against `base`, dropping the ones that
/// do not resolve.
fn resolve_all(base: &Url, hrefs: &[String], buf: &mut String) -> Vec<Url> {
    hrefs
        .iter()
        .filter_map(|href| resolve_href(base, href, buf))
        .collect()
}

/// Resolves an href/src attribute against a base URL, the way a browser
/// would: an href that starts with a scheme and `://` parses as-is,
/// protocol-relative URLs inherit the scheme, absolute paths keep the
/// host, relative paths append to the base directory. The URL text is
/// assembled in `buf`, scratch space reused from link to link.
fn resolve_href(base: &Url, href: &str, buf: &mut String) -> Option<Url> {
    let href = href.trim();
    if href.is_empty() || href.starts_with('#') {
        return None;
    }
    if Url::starts_with_scheme(href) {
        return Url::parse(href).ok();
    }
    buf.clear();
    buf.push_str(base.scheme().as_str());
    buf.push_str("://");
    if let Some(rest) = href.strip_prefix("//") {
        buf.push_str(rest);
    } else {
        buf.push_str(base.host_str());
        buf.push('/');
        if let Some(path) = href.strip_prefix('/') {
            buf.push_str(path);
        } else {
            // Relative path: resolve against the base's directory.
            let base_path = base.path();
            if let Some(i) = base_path.rfind('/') {
                buf.push_str(&base_path[..=i]);
            }
            buf.push_str(href);
        }
    }
    Url::parse(buf).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::Page;
    use crate::{FaultKind, FaultPlan, FlakyWorld};

    fn resolve(base: &Url, href: &str) -> Option<Url> {
        resolve_href(base, href, &mut String::new())
    }

    fn world() -> WebWorld {
        let mut w = WebWorld::new();
        w.add_redirect("http://short.ly/x", "https://site.example.com/landing");
        w.add_page(
            "https://site.example.com/landing",
            Page::new(
                r#"<title>Site</title><body>
                   <p>Hello world copyright 2015 Site Inc.</p>
                   <a href="/about">About</a>
                   <a href="https://other.net/x">Other</a>
                   <a href="sub/page">Rel</a>
                   <img src="//cdn.example.net/i.png">
                   <script src="/app.js"></script>
                   </body>"#,
            ),
        );
        w
    }

    #[test]
    fn follows_redirects_and_records_chain() {
        let w = world();
        let v = Browser::new(&w).visit("http://short.ly/x").unwrap();
        assert_eq!(v.starting_url.as_str(), "http://short.ly/x");
        assert_eq!(v.landing_url.as_str(), "https://site.example.com/landing");
        assert_eq!(v.redirection_chain.len(), 2);
        assert_eq!(v.title, "Site");
        assert!(v.copyright.as_deref().unwrap().contains("Site Inc"));
    }

    #[test]
    fn resolves_links_against_landing() {
        let w = world();
        let v = Browser::new(&w).visit("http://short.ly/x").unwrap();
        let hrefs: Vec<&str> = v.href_links.iter().map(Url::as_str).collect();
        assert_eq!(
            hrefs,
            [
                "https://site.example.com/about",
                "https://other.net/x",
                "https://site.example.com/sub/page",
            ]
        );
        let logged: Vec<&str> = v.logged_links.iter().map(Url::as_str).collect();
        assert_eq!(
            logged,
            [
                "https://cdn.example.net/i.png",
                "https://site.example.com/app.js"
            ]
        );
    }

    #[test]
    fn screenshot_defaults_to_body_text() {
        let w = world();
        let v = Browser::new(&w).visit("http://short.ly/x").unwrap();
        assert_eq!(v.screenshot_text, v.text);
    }

    #[test]
    fn explicit_rendered_text_wins() {
        let mut w = WebWorld::new();
        w.add_page(
            "http://img.example.com/",
            Page::with_rendered_text("<body><img src='/b.png'></body>", "Big Bank Login"),
        );
        let v = Browser::new(&w).visit("http://img.example.com/").unwrap();
        assert_eq!(v.screenshot_text, "Big Bank Login");
        assert_eq!(v.text, "");
    }

    #[test]
    fn not_found() {
        let w = world();
        let err = Browser::new(&w)
            .visit("http://missing.example.com/")
            .unwrap_err();
        assert!(matches!(err, VisitError::NotFound(_)));
    }

    #[test]
    fn bad_url() {
        let w = world();
        let err = Browser::new(&w).visit("http://").unwrap_err();
        assert!(matches!(err, VisitError::BadUrl(_)));
    }

    #[test]
    fn redirect_loop_detected() {
        let mut w = WebWorld::new();
        w.add_redirect("http://a.com/", "http://b.com/");
        w.add_redirect("http://b.com/", "http://a.com/");
        let err = Browser::new(&w).visit("http://a.com/").unwrap_err();
        assert_eq!(err, VisitError::TooManyRedirects);
    }

    #[test]
    fn resolve_href_cases() {
        let base = Url::parse("https://www.example.com/dir/page.html").unwrap();
        assert_eq!(
            resolve(&base, "other.html").unwrap().as_str(),
            "https://www.example.com/dir/other.html"
        );
        assert_eq!(
            resolve(&base, "/root.html").unwrap().as_str(),
            "https://www.example.com/root.html"
        );
        assert_eq!(
            resolve(&base, "//cdn.net/x").unwrap().as_str(),
            "https://cdn.net/x"
        );
        assert_eq!(
            resolve(&base, "http://abs.net/").unwrap().as_str(),
            "http://abs.net/"
        );
        assert_eq!(resolve(&base, "#frag"), None);
        assert_eq!(resolve(&base, ""), None);
    }

    #[test]
    fn href_is_absolute_only_when_it_starts_with_a_scheme() {
        // A `://` inside the query of a same-site path used to make the
        // whole href parse as an absolute URL on another host.
        let base = Url::parse("https://www.example.com/dir/page.html").unwrap();
        let out = resolve(&base, "/out?to=https://bank.example.net/login").unwrap();
        assert_eq!(
            out.as_str(),
            "https://www.example.com/out?to=https://bank.example.net/login"
        );
        assert_eq!(out.rdn(), Some("example.com"));
        let rel = resolve(&base, "go?u=http://x.net/").unwrap();
        assert_eq!(
            rel.as_str(),
            "https://www.example.com/dir/go?u=http://x.net/"
        );
        let proto = resolve(&base, "//cdn.net/x?u=http://y.org/").unwrap();
        assert_eq!(proto.rdn(), Some("cdn.net"));
        assert_eq!(
            resolve(&base, " HTTPS://Other.NET/a ").unwrap().rdn(),
            Some("other.net")
        );

        let mut w = WebWorld::new();
        w.add_page(
            "https://shop.example.com/",
            Page::new(r#"<body><a href="/out?to=https://bank.example.net/login">x</a></body>"#),
        );
        let v = Browser::new(&w).visit("https://shop.example.com/").unwrap();
        let (internal, external) = v.href_split();
        assert_eq!((internal.len(), external.len()), (1, 0));
    }

    #[test]
    fn land_reaches_the_page_visit_collects() {
        let w = world();
        let landing = Browser::new(&w).land("http://short.ly/x").unwrap();
        let v = Browser::new(&w).visit("http://short.ly/x").unwrap();
        assert_eq!(landing.url(), &v.landing_url);
        let doc = Document::parse(landing.html());
        assert_eq!((doc.title, doc.text), (v.title, v.text));
        assert_eq!(
            Browser::new(&w)
                .land("http://missing.example.com/")
                .unwrap_err(),
            Browser::new(&w)
                .visit("http://missing.example.com/")
                .unwrap_err()
        );
    }

    #[test]
    fn land_rejects_what_visit_rejects() {
        let w = world();
        for kind in [
            FaultKind::TruncateHtml,
            FaultKind::Transient,
            FaultKind::Timeout,
            FaultKind::DropRedirect,
            FaultKind::GarbleHtml,
            FaultKind::DropScreenshot,
        ] {
            let flaky = FlakyWorld::new(&w, FaultPlan::only(3, 1.0, &[kind]));
            let landed = Browser::new(&flaky).land("http://short.ly/x").map(|_| ());
            let flaky = FlakyWorld::new(&w, FaultPlan::only(3, 1.0, &[kind]));
            let visited = Browser::new(&flaky).visit("http://short.ly/x").map(|_| ());
            assert_eq!(landed, visited, "{kind:?}");
        }
        let flaky = FlakyWorld::new(&w, FaultPlan::only(3, 1.0, &[FaultKind::TruncateHtml]));
        let err = Browser::new(&flaky).land("http://short.ly/x").unwrap_err();
        assert!(matches!(err, VisitError::Truncated(_)));
    }

    #[test]
    fn query_preserved_in_landing_url() {
        let mut w = WebWorld::new();
        w.add_page("http://site.example.com/login", Page::new("<body>x</body>"));
        let v = Browser::new(&w)
            .visit("http://site.example.com/login?session=abc&id=9")
            .unwrap();
        // Lookup ignores the query, but the landing URL keeps it — the
        // FreeURL features must see what the victim's address bar shows.
        assert_eq!(v.landing_url.query(), Some("session=abc&id=9"));
        assert!(v.landing_url.free_url().joined().contains("session"));
    }

    #[test]
    fn redirect_chain_records_every_hop_in_order() {
        let mut w = WebWorld::new();
        w.add_redirect("http://a.example.net/", "http://b.example.net/");
        w.add_redirect("http://b.example.net/", "http://c.example.net/");
        w.add_page("http://c.example.net/", Page::new("<body>end</body>"));
        let v = Browser::new(&w).visit("http://a.example.net/").unwrap();
        let hops: Vec<&str> = v
            .redirection_chain
            .iter()
            .filter_map(Url::fqdn_str)
            .collect();
        assert_eq!(hops, ["a.example.net", "b.example.net", "c.example.net"]);
        assert_eq!(v.landing_url.as_str(), "http://c.example.net/");
    }

    #[test]
    fn duplicate_resources_kept_as_logged() {
        // Browsers request a resource once per reference; the logged-links
        // list keeps the references (the paper's counts are per request).
        let mut w = WebWorld::new();
        w.add_page(
            "http://dup.example.com/",
            Page::new(r#"<body><img src="/a.png"><img src="/a.png"></body>"#),
        );
        let v = Browser::new(&w).visit("http://dup.example.com/").unwrap();
        assert_eq!(v.logged_links.len(), 2);
        assert_eq!(v.image_count, 2);
    }

    #[test]
    fn redirect_target_query_preserved_in_chain() {
        // Regression: a redirect target carrying a query string must keep
        // it through resolve_href and into the recorded chain — tracking
        // tokens in intermediate hops feed the FreeURL distributions.
        let mut w = WebWorld::new();
        w.add_redirect(
            "http://go.example.com/r",
            "http://land.example.com/next?sid=42&cmd=login",
        );
        w.add_redirect("http://rel.example.com/r", "/local?tok=abc");
        w.add_page("http://land.example.com/next", Page::new("<body>a</body>"));
        w.add_page("http://rel.example.com/local", Page::new("<body>b</body>"));

        let v = Browser::new(&w).visit("http://go.example.com/r").unwrap();
        assert_eq!(v.redirection_chain.len(), 2);
        assert_eq!(v.redirection_chain[1].query(), Some("sid=42&cmd=login"));
        assert_eq!(v.landing_url.query(), Some("sid=42&cmd=login"));

        // Relative redirect targets keep their query too.
        let v = Browser::new(&w).visit("http://rel.example.com/r").unwrap();
        assert_eq!(v.redirection_chain[1].query(), Some("tok=abc"));
        assert_eq!(
            v.landing_url.as_str(),
            "http://rel.example.com/local?tok=abc"
        );
    }

    #[test]
    fn resolve_href_ip_base() {
        let base = Url::parse("http://10.0.0.1/a/b").unwrap();
        assert_eq!(resolve(&base, "/c").unwrap().as_str(), "http://10.0.0.1/c");
    }
}
