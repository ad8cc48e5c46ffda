#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! URL decomposition for the *Know Your Phish* reproduction.
//!
//! The paper (Section II-B, Fig. 1) decomposes a URL as
//!
//! ```text
//! protocol://[subdomains.]mld.ps[/path][?query]
//!            \________FQDN________/
//!             \______RDN_____/  (mld + public suffix)
//! FreeURL = subdomains + path + query   (fully attacker-controlled)
//! ```
//!
//! The *registered domain name* (RDN) is the only part of a URL a phisher
//! cannot choose freely: it has to be registered with a registrar. The
//! *main level domain* (mld) is the label immediately before the public
//! suffix. Everything else — subdomains, path, query — is **FreeURL**.
//!
//! # Examples
//!
//! ```
//! use kyp_url::Url;
//!
//! # fn main() -> Result<(), kyp_url::ParseUrlError> {
//! let url = Url::parse("https://www.amazon.co.uk/ap/signin?_encoding=UTF8")?;
//! assert!(url.is_https());
//! assert_eq!(url.fqdn_str(), Some("www.amazon.co.uk"));
//! assert_eq!(url.rdn(), Some("amazon.co.uk"));
//! assert_eq!(url.mld(), Some("amazon"));
//! assert_eq!(url.free_url().subdomains, "www");
//! assert_eq!(url.canonical_key(), "www.amazon.co.uk/ap/signin");
//! # Ok(())
//! # }
//! ```
//!
//! # Layout
//!
//! A [`Url`] owns exactly one heap buffer, allocated once at its final
//! size. The buffer starts with the input string, verbatim. The scheme,
//! host, port, path, query and fragment are byte offsets into it, and so
//! are the label, public-suffix and RDN boundaries of the host. Two
//! things are appended after the input, each only when the input does
//! not already hold it:
//!
//! - the canonical key `host/path` ([`Url::canonical_key`]), whose host
//!   is lowercased and IPv4 hosts are in dotted decimal. The input holds
//!   it whenever the host is lowercase and the path's `/` follows it
//!   directly, with no port in between;
//! - the lowercased scheme, for an uppercase scheme other than
//!   `http`/`https`.
//!
//! [`Scheme`], [`Host`] and [`Fqdn`] are `Copy` views built on demand and
//! own nothing. The accessors return `&str` into the buffer:
//! [`Url::host_str`], [`Url::fqdn_str`], [`Url::rdn`], [`Url::mld`],
//! [`Url::public_suffix`], [`Url::path`], [`Url::query`],
//! [`Url::fragment`] and [`Url::canonical_key`]; [`Fqdn::labels`] iterates
//! the labels as `&str`. Only [`Url::free_url`] builds owned strings.
//!
//! A `Url` serializes as its input string and deserializes through
//! [`Url::parse`], so no serialized offset is ever taken on trust.

mod error;
mod fqdn;
mod parse;
pub mod psl;

pub use error::ParseUrlError;
pub use fqdn::Fqdn;

use fqdn::DomainSplit;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};

/// The protocol of a URL, borrowed from the [`Url`] it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme<'a> {
    /// Plain-text HTTP.
    Http,
    /// TLS-protected HTTP.
    Https,
    /// Any other scheme (`ftp`, `data`, ...), lowercased.
    Other(&'a str),
}

impl<'a> Scheme<'a> {
    /// Returns the scheme as the (lowercased) string before `://`.
    pub fn as_str(&self) -> &'a str {
        match *self {
            Scheme::Http => "http",
            Scheme::Https => "https",
            Scheme::Other(s) => s,
        }
    }
}

impl fmt::Display for Scheme<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The host component of a URL: either a domain name or an IPv4 literal.
///
/// The paper notes (Section VII-B) that IP-based URLs have empty
/// FQDN-derived term distributions, which makes them a (costly) evasion
/// vector; we therefore model them explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Host<'a> {
    /// A fully qualified domain name.
    Domain(Fqdn<'a>),
    /// An IPv4 literal such as `192.0.2.7`.
    Ipv4([u8; 4]),
}

impl<'a> Host<'a> {
    /// Returns the FQDN if the host is a domain name.
    pub fn fqdn(&self) -> Option<Fqdn<'a>> {
        match *self {
            Host::Domain(f) => Some(f),
            Host::Ipv4(_) => None,
        }
    }

    /// Returns `true` when the host is an IPv4 literal.
    pub fn is_ip(&self) -> bool {
        matches!(self, Host::Ipv4(_))
    }
}

impl fmt::Display for Host<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Host::Domain(d) => write!(f, "{d}"),
            Host::Ipv4([a, b, c, d]) => write!(f, "{a}.{b}.{c}.{d}"),
        }
    }
}

/// The parts of a URL the phisher controls without constraint
/// (Section II-B: subdomains, path and query).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FreeUrl {
    /// Subdomain labels joined with `.` (empty when the FQDN equals the RDN).
    pub subdomains: String,
    /// The path with the leading `/` trimmed (may be empty).
    pub path: String,
    /// The query string without the leading `?` (may be empty).
    pub query: String,
}

impl FreeUrl {
    /// Concatenates the FreeURL parts into one string for lexical analysis.
    ///
    /// Parts are joined with `/` and `?` so that label boundaries survive;
    /// the term extractor of `kyp-text` splits on any non-letter anyway.
    pub fn joined(&self) -> String {
        let mut out =
            String::with_capacity(self.subdomains.len() + self.path.len() + self.query.len() + 2);
        out.push_str(&self.subdomains);
        if !self.path.is_empty() {
            out.push('/');
            out.push_str(&self.path);
        }
        if !self.query.is_empty() {
            out.push('?');
            out.push_str(&self.query);
        }
        out
    }

    /// Counts ASCII dots across all FreeURL parts (paper feature #2:
    /// "count of dots in FreeURL", which spots domain-name-looking strings
    /// smuggled into attacker-controlled URL parts).
    pub fn dot_count(&self) -> usize {
        self.subdomains.matches('.').count()
            + self.path.matches('.').count()
            + self.query.matches('.').count()
    }
}

/// A byte range of a [`Url`]'s buffer.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    end: usize,
}

impl Span {
    fn of(self, buf: &str) -> &str {
        &buf[self.start..self.end]
    }

    fn is_empty(self) -> bool {
        self.start == self.end
    }
}

/// A [`Url`]'s scheme; the text of any other scheme is a span.
#[derive(Debug, Clone, Copy)]
enum SchemeAt {
    Http,
    Https,
    Other(Span),
}

/// A [`Url`]'s host kind; the host text is the key's first bytes.
#[derive(Debug, Clone, Copy)]
enum HostAt {
    Domain(DomainSplit),
    Ipv4([u8; 4]),
}

/// A parsed URL with the decomposition of the paper's Fig. 1.
///
/// See the [crate docs](crate) for the structure and the one-buffer
/// layout. Cloning copies that one buffer. Two URLs are equal when their
/// input strings are; everything else is a function of the input.
#[derive(Clone)]
pub struct Url {
    /// The input verbatim, then the appended copies the crate docs list.
    buf: String,
    /// `buf[..input_len]` is the input.
    input_len: usize,
    scheme: SchemeAt,
    /// The canonical `host/path` key: in the input when it already
    /// appears there, else appended after it.
    key: Span,
    /// The host is the key's first `host_len` bytes; a `/` follows.
    host_len: usize,
    host: HostAt,
    port: Option<u16>,
    query: Option<Span>,
    fragment: Option<Span>,
}

impl Url {
    /// Parses a URL string.
    ///
    /// The parser is deliberately lenient in the way a browser address bar
    /// is: a missing scheme defaults to `http`, uppercase hosts are folded
    /// to lowercase.
    ///
    /// # Errors
    ///
    /// Returns [`ParseUrlError`] when the input has no host, a label is
    /// empty (`a..b`), or the host contains characters outside
    /// `[a-z0-9_-]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use kyp_url::Url;
    /// let url = Url::parse("https://example.com/a")?;
    /// assert_eq!(url.mld(), Some("example"));
    /// # Ok::<(), kyp_url::ParseUrlError>(())
    /// ```
    pub fn parse(input: &str) -> Result<Self, ParseUrlError> {
        parse::parse(input)
    }

    /// Runs every check [`Url::parse`] runs, without building the URL:
    /// the same scanner, stopped before the buffer is allocated, so it
    /// never allocates. `check(s)` is `Ok` exactly when `parse(s)` is,
    /// with the same error.
    ///
    /// # Errors
    ///
    /// The [`ParseUrlError`] that [`Url::parse`] returns for `input`.
    ///
    /// # Examples
    ///
    /// ```
    /// use kyp_url::{ParseUrlError, Url};
    /// assert_eq!(Url::check("https://example.com/a"), Ok(()));
    /// assert_eq!(Url::check("http://a..b/"), Err(ParseUrlError::EmptyLabel));
    /// ```
    pub fn check(input: &str) -> Result<(), ParseUrlError> {
        parse::check(input)
    }

    /// Whether `s` starts with a scheme and `://`, the one test
    /// [`Url::parse`] reads a scheme by: an RFC 3986 scheme,
    /// `ALPHA *( ALPHA / DIGIT / "+" / "-" / "." )`, directly followed by
    /// `://`.
    ///
    /// # Examples
    ///
    /// ```
    /// use kyp_url::Url;
    /// assert!(Url::starts_with_scheme("https://example.com/"));
    /// assert!(!Url::starts_with_scheme("/out?to=https://example.com/"));
    /// ```
    pub fn starts_with_scheme(s: &str) -> bool {
        parse::scheme_len(s.as_bytes()).is_some()
    }

    /// The original string this URL was parsed from.
    pub fn as_str(&self) -> &str {
        &self.buf[..self.input_len]
    }

    /// Total length of the URL string (paper URL feature #4).
    pub fn len(&self) -> usize {
        self.input_len
    }

    /// Returns `true` if the raw URL string is empty (never after `parse`).
    pub fn is_empty(&self) -> bool {
        self.input_len == 0
    }

    /// The URL scheme.
    pub fn scheme(&self) -> Scheme<'_> {
        match self.scheme {
            SchemeAt::Http => Scheme::Http,
            SchemeAt::Https => Scheme::Https,
            SchemeAt::Other(text) => Scheme::Other(text.of(&self.buf)),
        }
    }

    /// `true` when the scheme is HTTPS (paper URL feature #1).
    pub fn is_https(&self) -> bool {
        matches!(self.scheme, SchemeAt::Https)
    }

    /// The host component.
    pub fn host(&self) -> Host<'_> {
        match self.host {
            HostAt::Domain(split) => Host::Domain(Fqdn::new(self.host_str(), split)),
            HostAt::Ipv4(octets) => Host::Ipv4(octets),
        }
    }

    /// The host as text: the lowercased domain name, or the IPv4 literal
    /// in dotted decimal without leading zeros (the [`Host`] display
    /// form).
    pub fn host_str(&self) -> &str {
        &self.buf[self.key.start..self.key.start + self.host_len]
    }

    /// The FQDN, unless the host is an IP literal.
    pub fn fqdn(&self) -> Option<Fqdn<'_>> {
        self.host().fqdn()
    }

    /// The FQDN as a dotted string, e.g. `www.amazon.co.uk`.
    pub fn fqdn_str(&self) -> Option<&str> {
        self.fqdn().map(|f| f.as_str())
    }

    /// The explicit port, if one was present.
    pub fn port(&self) -> Option<u16> {
        self.port
    }

    /// The path without its leading slash (empty string for `/` or none).
    pub fn path(&self) -> &str {
        &self.buf[self.key.start + self.host_len + 1..self.key.end]
    }

    /// The query string without the leading `?`.
    pub fn query(&self) -> Option<&str> {
        self.query.map(|s| s.of(&self.buf))
    }

    /// The fragment without the leading `#`.
    pub fn fragment(&self) -> Option<&str> {
        self.fragment.map(|s| s.of(&self.buf))
    }

    /// The canonical lookup key `host/path`: [`Url::host_str`], `/`, then
    /// [`Url::path`]. Scheme, userinfo, port, query and fragment do not
    /// take part, so `http://x/a`, `https://X:8080/a?q=1` and
    /// `http://u@x/a#f` share the key `x/a`. The simulated web, the page
    /// stores and the verdict cache all key pages by it.
    pub fn canonical_key(&self) -> &str {
        self.key.of(&self.buf)
    }

    /// The registered domain name (`mld.ps`), e.g. `amazon.co.uk`.
    ///
    /// `None` for IP-literal hosts.
    pub fn rdn(&self) -> Option<&str> {
        self.fqdn().map(|f| f.rdn())
    }

    /// The main level domain — the label before the public suffix.
    pub fn mld(&self) -> Option<&str> {
        self.fqdn().and_then(|f| f.mld())
    }

    /// The public suffix, e.g. `co.uk`.
    pub fn public_suffix(&self) -> Option<&str> {
        self.fqdn().map(|f| f.public_suffix())
    }

    /// Number of labels in the FQDN (paper URL feature #3,
    /// "count of level domains"). Zero for IP hosts.
    pub fn level_domain_count(&self) -> usize {
        self.fqdn().map_or(0, |f| f.label_count())
    }

    /// Length of the FQDN string (paper URL feature #5). Zero for IP hosts.
    pub fn fqdn_len(&self) -> usize {
        self.fqdn().map_or(0, |f| f.len())
    }

    /// Length of the mld (paper URL feature #6). Zero for IP hosts.
    pub fn mld_len(&self) -> usize {
        self.mld().map_or(0, str::len)
    }

    /// Subdomain labels joined by `.`; empty for IP-literal hosts.
    fn subdomains(&self) -> &str {
        self.fqdn().map_or("", |f| f.subdomains())
    }

    /// The attacker-controlled parts: subdomains, path and query.
    ///
    /// For IP-literal hosts the subdomain part is empty.
    pub fn free_url(&self) -> FreeUrl {
        FreeUrl {
            subdomains: self.subdomains().to_owned(),
            path: self.path().to_owned(),
            query: self.query().unwrap_or_default().to_owned(),
        }
    }

    /// The FreeURL text as borrowed pieces: the dotted subdomains, the
    /// path, then the query.
    ///
    /// Term extraction over these pieces yields exactly the terms of
    /// `free_url().joined()` — the joining `/`/`?` characters are term
    /// separators anyway — without allocating the intermediate strings.
    /// Empty pieces contribute nothing.
    pub fn free_parts(&self) -> impl Iterator<Item = &str> {
        // The field, not `self.query()`: kyp-lint resolves `.query()` calls
        // by name alone, which would charge `SearchEngine::query` here.
        let query = self.query.map(|q| q.of(&self.buf));
        [self.subdomains(), self.path()].into_iter().chain(query)
    }

    /// Dots across the FreeURL parts without building them
    /// (`free_url().dot_count()`).
    pub fn free_dot_count(&self) -> usize {
        self.free_parts()
            .map(|part| part.matches('.').count())
            .sum()
    }

    /// `true` when both URLs share the same registered domain name.
    ///
    /// This is the internal/external link split of Section III-A: a URL is
    /// *internal* to a page when its RDN is one of the RDNs the page owner
    /// controls. Two identical IP hosts count as the same origin.
    pub fn same_rdn(&self, other: &Url) -> bool {
        match (self.host, other.host) {
            (HostAt::Domain(_), HostAt::Domain(_)) => self.rdn() == other.rdn(),
            (HostAt::Ipv4(a), HostAt::Ipv4(b)) => a == b,
            _ => false,
        }
    }
}

impl PartialEq for Url {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Url {}

impl Hash for Url {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Url").field(&self.as_str()).finish()
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Url {
    type Err = ParseUrlError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

impl AsRef<str> for Url {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// A URL serializes as its input string.
impl Serialize for Url {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::String(self.as_str().to_owned())
    }
}

/// A URL deserializes by parsing a string, so no offset is taken on
/// trust; a string that does not parse is an error.
impl Deserialize for Url {
    fn from_json_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let s = value
            .as_str()
            .ok_or_else(|| serde::Error::custom(format!("expected url string, got {value:?}")))?;
        Url::parse(s).map_err(|e| serde::Error::custom(format!("invalid url {s:?}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amazon_example_from_paper() {
        let url = Url::parse("https://www.amazon.co.uk/ap/signin?_encoding=UTF8").unwrap();
        assert_eq!(url.scheme(), Scheme::Https);
        assert_eq!(url.fqdn_str(), Some("www.amazon.co.uk"));
        assert_eq!(url.rdn(), Some("amazon.co.uk"));
        assert_eq!(url.mld(), Some("amazon"));
        assert_eq!(url.public_suffix(), Some("co.uk"));
        let free = url.free_url();
        assert_eq!(free.subdomains, "www");
        assert_eq!(free.path, "ap/signin");
        assert_eq!(free.query, "_encoding=UTF8");
    }

    #[test]
    fn scheme_defaults_to_http() {
        let url = Url::parse("example.com/x").unwrap();
        assert_eq!(url.scheme(), Scheme::Http);
        assert!(!url.is_https());
    }

    #[test]
    fn scheme_in_a_query_is_not_the_scheme() {
        // Everything before the first `://` used to be taken as the
        // scheme, so the host became the one in the query parameter.
        let url = Url::parse("secure-paypal.com.evil.xyz/login?r=https://www.paypal.com/").unwrap();
        assert_eq!(url.scheme(), Scheme::Http);
        assert_eq!(url.fqdn_str(), Some("secure-paypal.com.evil.xyz"));
        assert_eq!(url.rdn(), Some("evil.xyz"));
        assert_eq!(url.path(), "login");
        assert_eq!(url.query(), Some("r=https://www.paypal.com/"));
        let url = Url::parse("svn+ssh://code.example.org/repo").unwrap();
        assert_eq!(url.scheme(), Scheme::Other("svn+ssh"));
        assert_eq!(url.rdn(), Some("example.org"));
    }

    #[test]
    fn other_scheme_is_preserved_lowercased() {
        let url = Url::parse("ftp://files.example.com/pub").unwrap();
        assert_eq!(url.scheme(), Scheme::Other("ftp"));
        let url = Url::parse("FTP://files.example.com/pub").unwrap();
        assert_eq!(url.scheme(), Scheme::Other("ftp"));
        assert_eq!(url.as_str(), "FTP://files.example.com/pub");
        assert_eq!(
            Url::parse("HTTPS://x.com/").unwrap().scheme(),
            Scheme::Https
        );
    }

    #[test]
    fn ip_host_has_no_fqdn() {
        let url = Url::parse("http://192.168.0.1/login").unwrap();
        assert!(url.host().is_ip());
        assert_eq!(url.fqdn(), None);
        assert_eq!(url.rdn(), None);
        assert_eq!(url.mld(), None);
        assert_eq!(url.level_domain_count(), 0);
        assert_eq!(url.fqdn_len(), 0);
        assert_eq!(url.free_url().subdomains, "");
        assert_eq!(url.host_str(), "192.168.0.1");
    }

    #[test]
    fn port_is_parsed_and_not_in_fqdn() {
        let url = Url::parse("http://example.com:8080/a").unwrap();
        assert_eq!(url.port(), Some(8080));
        assert_eq!(url.fqdn_str(), Some("example.com"));
        assert_eq!(url.path(), "a");
        assert_eq!(url.canonical_key(), "example.com/a");
    }

    #[test]
    fn fragment_split_off() {
        let url = Url::parse("http://example.com/a?b=c#frag").unwrap();
        assert_eq!(url.fragment(), Some("frag"));
        assert_eq!(url.query(), Some("b=c"));
    }

    #[test]
    fn host_lowercased_path_case_preserved() {
        let url = Url::parse("HTTP://WWW.Example.COM/Path").unwrap();
        assert_eq!(url.fqdn_str(), Some("www.example.com"));
        assert_eq!(url.rdn(), Some("example.com"));
        assert_eq!(url.path(), "Path");
        assert_eq!(url.canonical_key(), "www.example.com/Path");
        assert_eq!(url.as_str(), "HTTP://WWW.Example.COM/Path");
    }

    #[test]
    fn free_url_dot_count() {
        let url = Url::parse("http://a.b.example.com/p.q/r?x=1.2.3").unwrap();
        // subdomains "a.b" has 1 dot, path "p.q/r" has 1, query "x=1.2.3" has 2.
        assert_eq!(url.free_url().dot_count(), 4);
    }

    #[test]
    fn free_url_joined() {
        let url = Url::parse("http://login.pay.example.com/sign/in?user=x").unwrap();
        assert_eq!(url.free_url().joined(), "login.pay/sign/in?user=x");
    }

    #[test]
    fn free_parts_and_dot_count_match_free_url() {
        let cases = [
            "http://a.b.example.com/p.q/r?x=1.2.3",
            "http://login.pay.example.com/sign/in?user=x",
            "https://example.com/",
            "http://10.0.0.1/x.y?q=1",
            "https://www.amazon.co.uk/ap/signin?_encoding=UTF8",
        ];
        for s in cases {
            let url = Url::parse(s).unwrap();
            let free = url.free_url();
            assert_eq!(url.free_dot_count(), free.dot_count(), "{s}");
            let parts: Vec<&str> = url.free_parts().collect();
            assert_eq!(parts[..2], [&free.subdomains, &free.path], "{s}");
            assert_eq!(parts.get(2).copied().unwrap_or_default(), free.query, "{s}");
        }
    }

    #[test]
    fn canonical_key_keeps_host_and_path_apart() {
        // Without the separator these two pages shared the key "ab.com".
        let a = Url::parse("http://ab.co/m").unwrap();
        let b = Url::parse("http://ab.com/").unwrap();
        assert_eq!(a.canonical_key(), "ab.co/m");
        assert_eq!(b.canonical_key(), "ab.com/");
        assert_ne!(a.canonical_key(), b.canonical_key());
        for same in [
            "https://AB.co/m",
            "http://ab.co:8080/m?q=1#f",
            "http://user@ab.co/m",
        ] {
            assert_eq!(
                Url::parse(same).unwrap().canonical_key(),
                "ab.co/m",
                "{same}"
            );
        }
        assert_eq!(
            Url::parse("http://ab.co").unwrap().canonical_key(),
            "ab.co/"
        );
    }

    #[test]
    fn ip_hosts_render_in_dotted_decimal() {
        let url = Url::parse("http://010.0.0.001:81/x").unwrap();
        assert_eq!(url.host(), Host::Ipv4([10, 0, 0, 1]));
        assert_eq!(url.host_str(), "10.0.0.1");
        assert_eq!(url.canonical_key(), "10.0.0.1/x");
        assert_eq!(url.host_str(), url.host().to_string());
        assert_eq!(url.as_str(), "http://010.0.0.001:81/x");
    }

    #[test]
    fn same_rdn_across_subdomains() {
        let a = Url::parse("http://login.example.com/").unwrap();
        let b = Url::parse("https://cdn.example.com/x").unwrap();
        let c = Url::parse("https://example.org/").unwrap();
        assert!(a.same_rdn(&b));
        assert!(!a.same_rdn(&c));
    }

    #[test]
    fn same_rdn_ip_hosts() {
        let a = Url::parse("http://10.0.0.1/x").unwrap();
        let b = Url::parse("http://10.0.0.1/y").unwrap();
        let c = Url::parse("http://10.0.0.2/y").unwrap();
        let d = Url::parse("http://example.com/y").unwrap();
        assert!(a.same_rdn(&b));
        assert!(!a.same_rdn(&c));
        assert!(!a.same_rdn(&d));
        assert!(!d.same_rdn(&a));
    }

    #[test]
    fn errors_on_empty_and_garbage() {
        assert!(Url::parse("").is_err());
        assert!(Url::parse("http://").is_err());
        assert!(Url::parse("http://exa mple.com").is_err());
        assert!(Url::parse("http://a..b.com").is_err());
    }

    #[test]
    fn display_roundtrips_raw() {
        let s = " https://www.amazon.co.uk/ap/signin?_encoding=UTF8";
        let url = Url::parse(s).unwrap();
        assert_eq!(url.to_string(), s);
        assert_eq!(url.as_str(), s);
        assert_eq!(url.len(), s.len());
        assert_eq!(format!("{url:?}"), format!("Url({s:?})"));
    }

    #[test]
    fn serde_is_the_url_string() {
        let s = "HTTP://Login.Example.COM:8080/a?b=c#d";
        let url = Url::parse(s).unwrap();
        let value = url.to_json_value();
        assert_eq!(value, serde::Value::String(s.to_owned()));
        assert_eq!(Url::from_json_value(&value), Ok(url));
        for bad in [
            serde::Value::String("http://a..b/".to_owned()),
            serde::Value::String(String::new()),
            serde::Value::Null,
            serde::Value::Object(Vec::new()),
        ] {
            assert!(Url::from_json_value(&bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn equality_and_hash_follow_the_input_string() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |u: &Url| {
            let mut h = DefaultHasher::new();
            u.hash(&mut h);
            h.finish()
        };
        let a = Url::parse("http://Example.com/a").unwrap();
        let b = Url::parse("http://Example.com/a").unwrap();
        let c = Url::parse("http://example.com/a").unwrap();
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(a, c);
    }

    #[test]
    fn fromstr_works() {
        let url: Url = "http://example.com".parse().unwrap();
        assert_eq!(url.mld(), Some("example"));
    }

    #[test]
    fn url_features_lengths() {
        let url = Url::parse("https://secure.bank-login.example.net/a/b").unwrap();
        assert_eq!(url.level_domain_count(), 4);
        assert_eq!(url.fqdn_len(), "secure.bank-login.example.net".len());
        assert_eq!(url.mld_len(), "example".len());
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Url>();
        assert_send_sync::<Fqdn<'static>>();
    }
}
