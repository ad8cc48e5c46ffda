use kyp_text::{TermDistribution, TermScratch};
use kyp_url::Url;
use kyp_web::{SourceAvailability, VisitedPage};

/// The term distributions of the paper's Table I, computed once per page
/// and shared by the f2/f3 features and the keyterm extractor.
///
/// Distributions are grouped by the phisher's *level of control*
/// (internal vs external links, split on the RDNs of the redirection
/// chain) and *constraints* (RDN — registrar-constrained — vs FreeURL —
/// freely choosable), per Section III-A.
#[derive(Debug, Clone)]
pub struct DataSources {
    /// `D_text`: rendered body text.
    pub text: TermDistribution,
    /// `D_title`: page title.
    pub title: TermDistribution,
    /// `D_copyright`: copyright notice (used by keyterms, not by f2).
    pub copyright: TermDistribution,
    /// `D_start`: FreeURL of the starting URL.
    pub start: TermDistribution,
    /// `D_land`: FreeURL of the landing URL.
    pub land: TermDistribution,
    /// `D_intlog`: FreeURL of internal logged links.
    pub intlog: TermDistribution,
    /// `D_intlink`: FreeURL of internal HREF links.
    pub intlink: TermDistribution,
    /// `D_startrdn`: RDN of the starting URL.
    pub startrdn: TermDistribution,
    /// `D_landrdn`: RDN of the landing URL.
    pub landrdn: TermDistribution,
    /// `D_intrdn`: RDNs of internal links (HREF and logged).
    pub intrdn: TermDistribution,
    /// `D_extrdn`: RDNs of external logged links.
    pub extrdn: TermDistribution,
    /// `D_extlog`: FreeURL of external logged links.
    pub extlog: TermDistribution,
    /// `D_extlink`: FreeURL of external HREF links.
    pub extlink: TermDistribution,
}

impl DataSources {
    /// Computes every distribution from a scraped page.
    pub fn from_page(page: &VisitedPage) -> Self {
        Self::from_page_in(page, &mut TermScratch::new())
    }

    /// Computes every distribution from a scraped page, reusing
    /// `scratch`'s buffers for the term extraction. Identical output to
    /// [`Self::from_page`]; meant for batch loops, where one scratch
    /// serves thousands of pages without reallocating.
    pub fn from_page_in(page: &VisitedPage, scratch: &mut TermScratch) -> Self {
        Self::from_page_with_splits(page, &crate::features::LinkSplits::of(page), scratch)
    }

    /// [`Self::from_page_in`] with the control-split link sets already
    /// computed — the extraction hot path computes them once per page and
    /// shares them with the f1/f4 features.
    pub(crate) fn from_page_with_splits(
        page: &VisitedPage,
        splits: &crate::features::LinkSplits<'_>,
        scratch: &mut TermScratch,
    ) -> Self {
        let (intlog_urls, extlog_urls) = (&splits.intlog, &splits.extlog);
        let (intlink_urls, extlink_urls) = (&splits.intlink, &splits.extlink);

        // URL-derived distributions extract terms straight from the URLs'
        // borrowed pieces: the joined FreeURL string would only add
        // separators that term extraction splits on anyway.
        let free = |urls: &[&Url], scratch: &mut TermScratch| {
            TermDistribution::from_texts_in(urls.iter().flat_map(|u| u.free_parts()), scratch)
        };
        let rdns = |urls: &[&Url], scratch: &mut TermScratch| {
            TermDistribution::from_texts_in(urls.iter().filter_map(|u| u.rdn()), scratch)
        };

        let mut intrdn = rdns(intlink_urls, scratch);
        intrdn.merge(&rdns(intlog_urls, scratch));

        // Pages that land where they started (no cross-host redirect)
        // share the starting URL's distributions: equal URLs extract
        // equal distributions, so cloning is bit-identical and skips a
        // second extraction + sort.
        let start = TermDistribution::from_texts_in(page.starting_url.free_parts(), scratch);
        let startrdn = TermDistribution::from_texts_in(page.starting_url.rdn(), scratch);
        let same_url = page.starting_url == page.landing_url;
        let land = if same_url {
            start.clone()
        } else {
            TermDistribution::from_texts_in(page.landing_url.free_parts(), scratch)
        };
        let landrdn = if same_url {
            startrdn.clone()
        } else {
            TermDistribution::from_texts_in(page.landing_url.rdn(), scratch)
        };

        DataSources {
            text: TermDistribution::from_text_in(&page.text, scratch),
            title: TermDistribution::from_text_in(&page.title, scratch),
            copyright: TermDistribution::from_text_in(
                page.copyright.as_deref().unwrap_or(""),
                scratch,
            ),
            start,
            land,
            intlog: free(intlog_urls, scratch),
            intlink: free(intlink_urls, scratch),
            startrdn,
            landrdn,
            intrdn,
            extrdn: rdns(extlog_urls, scratch),
            extlog: free(extlog_urls, scratch),
            extlink: free(extlink_urls, scratch),
        }
    }

    /// Computes distributions from a *partially* captured page.
    ///
    /// Sources the scraper could not capture intact are replaced by empty
    /// distributions — the same neutral value a genuinely empty source
    /// produces — rather than trusting half-delivered data:
    ///
    /// - when `links` is unavailable (truncated HTML may have cut
    ///   references off the end of the document), every link-derived
    ///   distribution is emptied;
    /// - URL-derived and text-derived distributions always remain: the
    ///   URLs are known before any content arrives, and partial text is
    ///   still honest evidence (a prefix of the real page).
    ///
    /// Consistency features over empty distributions collapse to their
    /// null value, so degraded pages still yield complete, finite feature
    /// vectors (see `FeatureExtractor::extract_degraded`).
    pub fn from_partial(page: &VisitedPage, availability: &SourceAvailability) -> Self {
        let mut sources = Self::from_page(page);
        if !availability.links {
            let empty = TermDistribution::default;
            sources.intlog = empty();
            sources.intlink = empty();
            sources.intrdn = empty();
            sources.extrdn = empty();
            sources.extlog = empty();
            sources.extlink = empty();
        }
        sources
    }

    /// The 12 distributions used by the f2 consistency features, in the
    /// crate's canonical order (Table I minus copyright and image).
    pub fn f2_distributions(&self) -> [&TermDistribution; 12] {
        [
            &self.text,
            &self.title,
            &self.start,
            &self.land,
            &self.intlog,
            &self.intlink,
            &self.startrdn,
            &self.landrdn,
            &self.intrdn,
            &self.extrdn,
            &self.extlog,
            &self.extlink,
        ]
    }

    /// Names matching [`DataSources::f2_distributions`], for feature naming.
    pub fn f2_names() -> [&'static str; 12] {
        [
            "text", "title", "start", "land", "intlog", "intlink", "startrdn", "landrdn", "intrdn",
            "extrdn", "extlog", "extlink",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn page() -> VisitedPage {
        VisitedPage {
            starting_url: url("http://evil-host.tk/paypal/login?session=abc"),
            landing_url: url("http://evil-host.tk/paypal/login?session=abc"),
            redirection_chain: vec![url("http://evil-host.tk/paypal/login?session=abc")],
            logged_links: vec![
                url("http://evil-host.tk/style.css"),
                url("https://www.paypal.com/logo.png"),
            ],
            href_links: vec![
                url("https://www.paypal.com/help"),
                url("http://evil-host.tk/submit"),
            ],
            text: "log in to your paypal account".into(),
            title: "PayPal Login".into(),
            copyright: Some("© PayPal Inc".into()),
            screenshot_text: "log in to your paypal account".into(),
            input_count: 2,
            image_count: 1,
            iframe_count: 0,
        }
    }

    #[test]
    fn distributions_reflect_sources() {
        let s = DataSources::from_page(&page());
        assert!(s.text.contains("paypal"));
        assert!(s.title.contains("paypal"));
        assert!(s.title.contains("login"));
        assert!(s.copyright.contains("paypal"));
        // FreeURL of the starting URL: path "paypal/login" + query.
        assert!(s.start.contains("paypal"));
        assert!(s.start.contains("session"));
        // startrdn holds the phisher's registered domain terms.
        assert!(s.startrdn.contains("evil"));
        assert!(s.startrdn.contains("host"));
        assert!(!s.startrdn.contains("paypal"));
    }

    #[test]
    fn internal_external_split_follows_chain_control() {
        let s = DataSources::from_page(&page());
        // paypal.com is NOT in the redirection chain → external.
        assert!(s.extrdn.contains("paypal"));
        assert!(!s.intrdn.contains("paypal"));
        assert!(s.intrdn.contains("evil"));
        // External HREF FreeURL contains "help".
        assert!(s.extlink.contains("help"));
        assert!(s.intlink.contains("submit"));
        // External logged FreeURL: "logo.png" → "logo" + "png".
        assert!(s.extlog.contains("logo"));
        assert!(s.intlog.contains("css"));
    }

    #[test]
    fn partial_sources_blank_link_distributions() {
        let p = page();
        let degraded = SourceAvailability {
            html: false,
            links: false,
            screenshot: true,
        };
        let s = DataSources::from_partial(&p, &degraded);
        for d in [
            &s.intlog, &s.intlink, &s.intrdn, &s.extrdn, &s.extlog, &s.extlink,
        ] {
            assert!(d.is_empty(), "link-derived distributions must be neutral");
        }
        // URL- and text-derived distributions survive.
        assert!(s.start.contains("paypal"));
        assert!(s.text.contains("paypal"));

        // A full mask reproduces from_page exactly.
        let full = DataSources::from_partial(&p, &SourceAvailability::FULL);
        assert_eq!(
            format!("{full:?}"),
            format!("{:?}", DataSources::from_page(&p))
        );
    }

    #[test]
    fn f2_distribution_count() {
        let s = DataSources::from_page(&page());
        assert_eq!(s.f2_distributions().len(), 12);
        assert_eq!(DataSources::f2_names().len(), 12);
    }

    #[test]
    fn scratch_reuse_matches_fresh_construction() {
        let mut scratch = kyp_text::TermScratch::new();
        let p = page();
        // Reuse the same scratch repeatedly; every pass must equal the
        // allocate-fresh path.
        for _ in 0..3 {
            let a = DataSources::from_page_in(&p, &mut scratch);
            let b = DataSources::from_page(&p);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn missing_copyright_is_empty() {
        let mut p = page();
        p.copyright = None;
        let s = DataSources::from_page(&p);
        assert!(s.copyright.is_empty());
    }

    #[test]
    fn ip_urls_give_empty_rdn_distributions() {
        let mut p = page();
        p.starting_url = url("http://192.168.1.1/login");
        p.landing_url = url("http://192.168.1.1/login");
        p.redirection_chain = vec![url("http://192.168.1.1/login")];
        let s = DataSources::from_page(&p);
        assert!(
            s.startrdn.is_empty(),
            "paper: IP URLs → empty distributions"
        );
        assert!(s.landrdn.is_empty());
    }
}
