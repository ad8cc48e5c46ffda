use kyp_url::Url;
use serde::{Deserialize, Serialize};

/// Which of a visit's data sources were actually captured intact.
///
/// A fault-free visit captures everything ([`SourceAvailability::FULL`]).
/// Degraded visits — truncated HTML streams, failed screenshot capture —
/// clear the corresponding flags so downstream feature extraction can
/// substitute neutral values instead of trusting half-delivered data (see
/// `DataSources::from_partial` in `kyp-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceAvailability {
    /// The full HTML document arrived (false when the stream was cut off).
    pub html: bool,
    /// The logged/HREF link lists are complete (false when truncation may
    /// have cut references off the end of the document).
    pub links: bool,
    /// A screenshot (rendered text) was captured.
    pub screenshot: bool,
}

impl SourceAvailability {
    /// Every source captured intact.
    pub const FULL: SourceAvailability = SourceAvailability {
        html: true,
        links: true,
        screenshot: true,
    };

    /// `true` when any source is missing or incomplete.
    pub fn is_degraded(&self) -> bool {
        *self != Self::FULL
    }
}

impl Default for SourceAvailability {
    fn default() -> Self {
        Self::FULL
    }
}

/// The complete data-source bundle a browser collects while loading a
/// webpage — Section II-C of the paper, and the *only* input of the
/// feature extractor and target identifier.
///
/// This is a passive data structure (all fields public) mirroring the json
/// files the paper's Selenium scraper writes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VisitedPage {
    /// The URL the user was given (distributed by email, message, ...).
    pub starting_url: Url,
    /// The final URL in the address bar once the page loaded.
    pub landing_url: Url,
    /// Every URL crossed from starting to landing URL (inclusive).
    pub redirection_chain: Vec<Url>,
    /// URLs the browser requested while loading embedded content
    /// (scripts, stylesheets, images, iframes).
    pub logged_links: Vec<Url>,
    /// Outgoing `<a href>` targets, resolved against the landing URL.
    pub href_links: Vec<Url>,
    /// The text rendered between `<body>` tags.
    pub text: String,
    /// The `<title>` content.
    pub title: String,
    /// The copyright notice found in the text, if any.
    pub copyright: Option<String>,
    /// Text visible on the rendered page — the screenshot stand-in that
    /// the simulated OCR reads (Section V-A, *OCR prominent terms*).
    pub screenshot_text: String,
    /// Count of user-data input fields (feature set f5).
    pub input_count: usize,
    /// Count of images (feature set f5).
    pub image_count: usize,
    /// Count of iframes (feature set f5).
    pub iframe_count: usize,
}

impl VisitedPage {
    /// The RDNs the page owner is assumed to control: every RDN appearing
    /// in the redirection chain (Section III-A, *Control*).
    ///
    /// IP-hosted steps contribute their host string.
    pub fn controlled_rdns(&self) -> Vec<&str> {
        let mut rdns: Vec<&str> = Vec::new();
        for url in &self.redirection_chain {
            let rdn = url.rdn().unwrap_or(url.host_str());
            if !rdns.contains(&rdn) {
                rdns.push(rdn);
            }
        }
        rdns
    }

    /// Splits `links` into (internal, external) against the controlled
    /// RDN set (Section III-A).
    ///
    /// A link is internal when it shares an RDN with any redirection-chain
    /// step ([`Url::same_rdn`]) — the same predicate as matching against
    /// [`VisitedPage::controlled_rdns`], but computed without building a
    /// single RDN string (deduplicating the chain is irrelevant under
    /// `any`).
    pub fn split_links<'a>(&self, links: &'a [Url]) -> (Vec<&'a Url>, Vec<&'a Url>) {
        links
            .iter()
            .partition(|u| self.redirection_chain.iter().any(|c| c.same_rdn(u)))
    }

    /// Internal and external logged links.
    pub fn logged_split(&self) -> (Vec<&Url>, Vec<&Url>) {
        self.split_links(&self.logged_links)
    }

    /// Internal and external HREF links.
    pub fn href_split(&self) -> (Vec<&Url>, Vec<&Url>) {
        self.split_links(&self.href_links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    pub(crate) fn sample() -> VisitedPage {
        VisitedPage {
            starting_url: url("http://short.ly/x"),
            landing_url: url("https://landing.example.com/page"),
            redirection_chain: vec![
                url("http://short.ly/x"),
                url("https://landing.example.com/page"),
            ],
            logged_links: vec![
                url("https://landing.example.com/style.css"),
                url("https://cdn.thirdparty.net/lib.js"),
            ],
            href_links: vec![
                url("https://landing.example.com/about"),
                url("https://other.org/x"),
                url("http://short.ly/y"),
            ],
            text: "welcome to the page".into(),
            title: "Example".into(),
            copyright: None,
            screenshot_text: "welcome to the page".into(),
            input_count: 1,
            image_count: 2,
            iframe_count: 0,
        }
    }

    #[test]
    fn controlled_rdns_from_chain() {
        let v = sample();
        assert_eq!(v.controlled_rdns(), ["short.ly", "example.com"]);
    }

    #[test]
    fn logged_links_split() {
        let v = sample();
        let (int, ext) = v.logged_split();
        assert_eq!(int.len(), 1);
        assert_eq!(ext.len(), 1);
        assert_eq!(ext[0].rdn(), Some("thirdparty.net"));
    }

    #[test]
    fn href_links_split_includes_redirector() {
        let v = sample();
        let (int, ext) = v.href_split();
        // landing.example.com/about and short.ly/y are both internal
        // because both RDNs appear in the redirection chain.
        assert_eq!(int.len(), 2);
        assert_eq!(ext.len(), 1);
    }

    #[test]
    fn serde_roundtrip() {
        let v = sample();
        let json = serde_json::to_string(&v).unwrap();
        let back: VisitedPage = serde_json::from_str(&json).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn ip_chain_controlled() {
        let mut v = sample();
        v.redirection_chain = vec![url("http://10.0.0.1/a")];
        assert_eq!(v.controlled_rdns(), ["10.0.0.1"]);
    }
}
