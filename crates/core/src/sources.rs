use kyp_text::{DictionaryBuilder, TermDictionary, TermDistribution};
use kyp_url::Url;
use kyp_web::{SourceAvailability, VisitedPage};

/// One data source of the paper's Table I.
///
/// Sources are grouped by the phisher's *level of control* (internal vs
/// external links, split on the RDNs of the redirection chain) and
/// *constraints* (RDN — registrar-constrained — vs FreeURL — freely
/// choosable), per Section III-A. The first twelve, in declaration order,
/// are the f2 consistency sources ([`Source::F2`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// `D_text`: rendered body text.
    Text,
    /// `D_title`: page title.
    Title,
    /// `D_start`: FreeURL of the starting URL.
    Start,
    /// `D_land`: FreeURL of the landing URL.
    Land,
    /// `D_intlog`: FreeURL of internal logged links.
    Intlog,
    /// `D_intlink`: FreeURL of internal HREF links.
    Intlink,
    /// `D_startrdn`: RDN of the starting URL.
    Startrdn,
    /// `D_landrdn`: RDN of the landing URL.
    Landrdn,
    /// `D_intrdn`: RDNs of internal links (HREF and logged).
    Intrdn,
    /// `D_extrdn`: RDNs of external logged links.
    Extrdn,
    /// `D_extlog`: FreeURL of external logged links.
    Extlog,
    /// `D_extlink`: FreeURL of external HREF links.
    Extlink,
    /// `D_copyright`: copyright notice (keyterms and extended f2).
    Copyright,
    /// `D_image`: OCR read of the screenshot. Only the extended f2
    /// features intern it; every other [`DataSources`] leaves it empty.
    Image,
}

impl Source {
    /// The 12 distributions used by the f2 consistency features, in the
    /// crate's canonical order (Table I minus copyright and image).
    pub const F2: [Source; 12] = [
        Source::Text,
        Source::Title,
        Source::Start,
        Source::Land,
        Source::Intlog,
        Source::Intlink,
        Source::Startrdn,
        Source::Landrdn,
        Source::Intrdn,
        Source::Extrdn,
        Source::Extlog,
        Source::Extlink,
    ];

    /// Every source of Table I: [`Source::F2`], then copyright and
    /// image — the extended f2 order.
    pub const ALL: [Source; 14] = [
        Source::Text,
        Source::Title,
        Source::Start,
        Source::Land,
        Source::Intlog,
        Source::Intlink,
        Source::Startrdn,
        Source::Landrdn,
        Source::Intrdn,
        Source::Extrdn,
        Source::Extlog,
        Source::Extlink,
        Source::Copyright,
        Source::Image,
    ];

    /// The source's short name (`text`, `startrdn`, ...), as feature
    /// names spell it.
    pub fn name(self) -> &'static str {
        match self {
            Source::Text => "text",
            Source::Title => "title",
            Source::Start => "start",
            Source::Land => "land",
            Source::Intlog => "intlog",
            Source::Intlink => "intlink",
            Source::Startrdn => "startrdn",
            Source::Landrdn => "landrdn",
            Source::Intrdn => "intrdn",
            Source::Extrdn => "extrdn",
            Source::Extlog => "extlog",
            Source::Extlink => "extlink",
            Source::Copyright => "copyright",
            Source::Image => "image",
        }
    }

    /// The source's bit in a per-term source mask.
    pub(crate) const fn bit(self) -> u16 {
        1 << self as u16
    }
}

/// The term distributions of the paper's Table I, computed once per page
/// and shared by the f2/f3/f5 features, the keyterm extractor and the
/// target identifier.
///
/// Every source of the page is interned into one [`TermDictionary`]: the
/// page's distinct terms numbered in lexicographic order, and each
/// source as a sorted `(id, count)` run. A page that lands where it
/// started reads its landing sources from the starting URL's runs.
#[derive(Debug, Clone)]
pub struct DataSources {
    dict: TermDictionary,
    /// Whether the link-derived sources were captured.
    links: bool,
    /// Starting URL == landing URL: `Land`/`Landrdn` read the starting
    /// URL's runs.
    same_url: bool,
}

impl DataSources {
    /// Computes every distribution from a scraped page.
    pub fn from_page(page: &VisitedPage) -> Self {
        Self::from_page_with_splits(page, &crate::features::LinkSplits::of(page), true, None)
    }

    /// Interns the page's sources, with the control-split link sets
    /// already computed — the extraction hot path computes them once per
    /// page and shares them with the f1/f4 features. The link-derived
    /// sources stay empty unless `links`; `image` is the OCR read the
    /// extended f2 features intern as [`Source::Image`].
    pub(crate) fn from_page_with_splits(
        page: &VisitedPage,
        splits: &crate::features::LinkSplits<'_>,
        links: bool,
        image: Option<&str>,
    ) -> Self {
        // URL-derived sources take terms straight from the URLs'
        // borrowed pieces: the joined FreeURL string would only add
        // separators that term extraction splits on anyway.
        fn free(dict: &mut DictionaryBuilder, source: Source, urls: &[&Url]) {
            for part in urls.iter().flat_map(|u| u.free_parts()) {
                dict.push(source as usize, part);
            }
        }
        fn rdns(dict: &mut DictionaryBuilder, source: Source, urls: &[&Url]) {
            for rdn in urls.iter().filter_map(|u| u.rdn()) {
                dict.push(source as usize, rdn);
            }
        }
        let mut dict = DictionaryBuilder::new(Source::ALL.len());
        dict.push(Source::Text as usize, &page.text);
        dict.push(Source::Title as usize, &page.title);
        if let Some(copyright) = &page.copyright {
            dict.push(Source::Copyright as usize, copyright);
        }
        free(&mut dict, Source::Start, &[&page.starting_url]);
        rdns(&mut dict, Source::Startrdn, &[&page.starting_url]);
        // Equal URLs extract equal distributions, so a page that lands
        // where it started interns the URL once.
        let same_url = page.starting_url == page.landing_url;
        if !same_url {
            free(&mut dict, Source::Land, &[&page.landing_url]);
            rdns(&mut dict, Source::Landrdn, &[&page.landing_url]);
        }
        if links {
            free(&mut dict, Source::Intlog, &splits.intlog);
            free(&mut dict, Source::Intlink, &splits.intlink);
            free(&mut dict, Source::Extlog, &splits.extlog);
            free(&mut dict, Source::Extlink, &splits.extlink);
            rdns(&mut dict, Source::Intrdn, &splits.intlink);
            rdns(&mut dict, Source::Intrdn, &splits.intlog);
            rdns(&mut dict, Source::Extrdn, &splits.extlog);
        }
        if let Some(read) = image {
            dict.push(Source::Image as usize, read);
        }
        DataSources {
            dict: dict.into_dictionary(),
            links,
            same_url,
        }
    }

    /// Computes distributions from a *partially* captured page.
    ///
    /// Sources the scraper could not capture intact are left empty — the
    /// same neutral value a genuinely empty source produces — rather than
    /// trusting half-delivered data:
    ///
    /// - when `links` is unavailable (truncated HTML may have cut
    ///   references off the end of the document), every link-derived
    ///   distribution is empty;
    /// - URL-derived and text-derived distributions always remain: the
    ///   URLs are known before any content arrives, and partial text is
    ///   still honest evidence (a prefix of the real page).
    ///
    /// Consistency features over empty distributions collapse to their
    /// null value, so degraded pages still yield complete, finite feature
    /// vectors (see `FeatureExtractor::extract_degraded`).
    pub fn from_partial(page: &VisitedPage, availability: &SourceAvailability) -> Self {
        Self::from_page_with_splits(
            page,
            &crate::features::LinkSplits::of(page),
            availability.links,
            None,
        )
    }

    /// The sources again, with the OCR read `image` interned as
    /// [`Source::Image`] and the same link availability.
    pub(crate) fn with_image(
        &self,
        page: &VisitedPage,
        splits: &crate::features::LinkSplits<'_>,
        image: &str,
    ) -> Self {
        Self::from_page_with_splits(page, splits, self.links, Some(image))
    }

    /// The page's term dictionary; index its runs with [`Self::dictionary_slot`].
    pub(crate) fn dictionary(&self) -> &TermDictionary {
        &self.dict
    }

    /// The dictionary source holding `source`'s run.
    pub(crate) fn dictionary_slot(&self, source: Source) -> usize {
        match source {
            Source::Land if self.same_url => Source::Start as usize,
            Source::Landrdn if self.same_url => Source::Startrdn as usize,
            _ => source as usize,
        }
    }

    /// `source`'s `(id, count)` pairs, ascending by term id.
    pub(crate) fn run(&self, source: Source) -> &[(u32, u32)] {
        self.dict.run(self.dictionary_slot(source))
    }

    /// Total term occurrences in `source`.
    pub fn total(&self, source: Source) -> u32 {
        self.dict.total(self.dictionary_slot(source))
    }

    /// `true` when `source` holds no term. Empty distributions yield the
    /// paper's "null features" (Section VII-B, IP-based URLs).
    pub fn is_empty(&self, source: Source) -> bool {
        self.total(source) == 0
    }

    /// `true` when `source` holds `term`.
    pub fn contains(&self, source: Source, term: &str) -> bool {
        self.dict
            .find(term)
            .is_some_and(|id| self.dict.count(self.dictionary_slot(source), id) > 0)
    }

    /// `source`'s distinct terms, in lexicographic order.
    pub fn terms(&self, source: Source) -> impl Iterator<Item = &str> + '_ {
        self.run(source).iter().map(|&(id, _)| self.dict.term(id))
    }

    /// `source` as an owned [`TermDistribution`].
    pub fn distribution(&self, source: Source) -> TermDistribution {
        self.dict.distribution(self.dictionary_slot(source))
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
        assert!(s.contains(Source::Text, "paypal"));
        assert!(s.contains(Source::Title, "paypal"));
        assert!(s.contains(Source::Title, "login"));
        assert!(s.contains(Source::Copyright, "paypal"));
        // FreeURL of the starting URL: path "paypal/login" + query.
        assert!(s.contains(Source::Start, "paypal"));
        assert!(s.contains(Source::Start, "session"));
        // startrdn holds the phisher's registered domain terms.
        assert!(s.contains(Source::Startrdn, "evil"));
        assert!(s.contains(Source::Startrdn, "host"));
        assert!(!s.contains(Source::Startrdn, "paypal"));
    }

    #[test]
    fn internal_external_split_follows_chain_control() {
        let s = DataSources::from_page(&page());
        // paypal.com is NOT in the redirection chain → external.
        assert!(s.contains(Source::Extrdn, "paypal"));
        assert!(!s.contains(Source::Intrdn, "paypal"));
        assert!(s.contains(Source::Intrdn, "evil"));
        // External HREF FreeURL contains "help".
        assert!(s.contains(Source::Extlink, "help"));
        assert!(s.contains(Source::Intlink, "submit"));
        // External logged FreeURL: "logo.png" → "logo" + "png".
        assert!(s.contains(Source::Extlog, "logo"));
        assert!(s.contains(Source::Intlog, "css"));
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
            Source::Intlog,
            Source::Intlink,
            Source::Intrdn,
            Source::Extrdn,
            Source::Extlog,
            Source::Extlink,
        ] {
            assert!(s.is_empty(d), "link-derived distributions must be neutral");
        }
        // URL- and text-derived distributions survive.
        assert!(s.contains(Source::Start, "paypal"));
        assert!(s.contains(Source::Text, "paypal"));

        // A full mask reproduces from_page exactly.
        let full = DataSources::from_partial(&p, &SourceAvailability::FULL);
        assert_eq!(
            format!("{full:?}"),
            format!("{:?}", DataSources::from_page(&p))
        );
    }

    #[test]
    fn f2_distribution_count() {
        assert_eq!(Source::F2.len(), 12);
        assert_eq!(Source::ALL[..12], Source::F2);
        for (i, s) in Source::ALL.into_iter().enumerate() {
            assert_eq!(s as usize, i, "{}", s.name());
        }
    }

    #[test]
    fn one_dictionary_matches_per_source_distributions() {
        // Each source read off the shared dictionary equals the
        // distribution of that source's texts alone.
        let mut p = page();
        p.landing_url = url("https://www.evil-host.tk/paypal/verify?step=2");
        for p in [page(), p] {
            let s = DataSources::from_page(&p);
            let splits = crate::features::LinkSplits::of(&p);
            let free = |urls: &[&Url]| {
                TermDistribution::from_texts(urls.iter().flat_map(|u| u.free_parts()))
            };
            let rdns =
                |urls: &[&Url]| TermDistribution::from_texts(urls.iter().filter_map(|u| u.rdn()));
            let mut intrdn = rdns(&splits.intlink);
            intrdn.merge(&rdns(&splits.intlog));
            let want = [
                (Source::Text, TermDistribution::from_text(&p.text)),
                (Source::Title, TermDistribution::from_text(&p.title)),
                (Source::Start, free(&[&p.starting_url])),
                (Source::Land, free(&[&p.landing_url])),
                (Source::Intlog, free(&splits.intlog)),
                (Source::Intlink, free(&splits.intlink)),
                (Source::Startrdn, rdns(&[&p.starting_url])),
                (Source::Landrdn, rdns(&[&p.landing_url])),
                (Source::Intrdn, intrdn),
                (Source::Extrdn, rdns(&splits.extlog)),
                (Source::Extlog, free(&splits.extlog)),
                (Source::Extlink, free(&splits.extlink)),
                (
                    Source::Copyright,
                    TermDistribution::from_text(p.copyright.as_deref().unwrap_or("")),
                ),
                (Source::Image, TermDistribution::new()),
            ];
            for (source, dist) in want {
                assert_eq!(s.distribution(source), dist, "{}", source.name());
                assert_eq!(s.total(source), dist.total_count(), "{}", source.name());
            }
        }
    }

    #[test]
    fn missing_copyright_is_empty() {
        let mut p = page();
        p.copyright = None;
        let s = DataSources::from_page(&p);
        assert!(s.is_empty(Source::Copyright));
    }

    #[test]
    fn ip_urls_give_empty_rdn_distributions() {
        let mut p = page();
        p.starting_url = url("http://192.168.1.1/login");
        p.landing_url = url("http://192.168.1.1/login");
        p.redirection_chain = vec![url("http://192.168.1.1/login")];
        let s = DataSources::from_page(&p);
        assert!(
            s.is_empty(Source::Startrdn),
            "paper: IP URLs → empty distributions"
        );
        assert!(s.is_empty(Source::Landrdn));
    }
}
