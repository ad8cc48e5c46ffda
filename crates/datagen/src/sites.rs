//! Legitimate-site generators.
//!
//! Each generated site hosts one landing page in the [`WebWorld`] (plus
//! optional redirect entries); outgoing links and resources are URLs that
//! need no hosting since the browser does not recurse into them. Sites
//! follow the structural regularities the paper attributes to legitimate
//! pages: the registered domain spells the brand/service, term usage is
//! coherent across text/title/domain/links, most links and resources are
//! internal, and redirection stays within the owner's RDN.

use crate::brands::Brand;
use crate::lexicon::{self, Language};
use kyp_html::PageBuilder;
use kyp_web::{Page, WebWorld};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The flavours of legitimate site the generator produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SiteKind {
    /// A brand's front page.
    BrandFront,
    /// A brand's login page (looks superficially phish-like: https + form).
    BrandLogin,
    /// A news portal: link anchors repeat in body text.
    News,
    /// A personal blog: text heavy, few links.
    Blog,
    /// An online shop: forms, many images.
    Shop,
    /// A company site: strong mld/text consistency.
    Corporate,
    /// A blog hosted on a shared platform: the RDN belongs to the
    /// platform, not the author, so the mld is unrelated to the content —
    /// the legitimate pages the paper reports as hardest (Section VII-B).
    PlatformBlog,
    /// A minimal splash/login page (webmail, intranet): little text, a
    /// credential form — superficially phish-shaped.
    Splash,
    /// A parked domain: near-empty content and concentrated external ad
    /// links — the legitimate pages the paper reports being misclassified
    /// as phish (Section VII-B).
    ParkedLike,
    /// A small credential portal (shared shape with brand-less harvester
    /// kits — the irreducibly ambiguous cohort).
    Portal,
}

/// Shared hosting platforms (blogspot-like): many unrelated sites under
/// one registered domain.
const PLATFORM_RDNS: [&str; 4] = [
    "blogpark.com",
    "webhostia.net",
    "pagecloud.io",
    "homesite.co",
];

/// Legitimate URL shorteners used in marketing emails: a legitimate page
/// reached through a cross-RDN redirect, like a phish would be.
const SHORTENER_RDNS: [&str; 3] = ["lnkgo.co", "tinyhop.info", "shrt.link"];

/// Description of one generated site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteInfo {
    /// URL to give the browser.
    pub start_url: String,
    /// The site's registered domain.
    pub rdn: String,
    /// The site's mld.
    pub mld: String,
    /// Text a search-engine crawler would index for this site.
    pub index_text: String,
    /// What flavour of site was generated.
    pub kind: SiteKind,
}

/// Deterministic generator of legitimate sites.
///
/// # Examples
///
/// ```
/// use kyp_datagen::{Language, SiteGenerator};
/// use kyp_web::{Browser, WebWorld};
///
/// let mut world = WebWorld::new();
/// let mut generator = SiteGenerator::new(7);
/// let info = generator.generic_site(&mut world, Language::French);
/// let visit = Browser::new(&world).visit(&info.start_url)?;
/// assert_eq!(visit.landing_url.rdn(), Some(info.rdn.as_str()));
/// # Ok::<(), kyp_web::VisitError>(())
/// ```
#[derive(Debug)]
pub struct SiteGenerator {
    rng: ChaCha8Rng,
    counter: u64,
}

impl SiteGenerator {
    /// Creates a generator; equal seeds reproduce identical sites.
    pub fn new(seed: u64) -> Self {
        SiteGenerator {
            rng: ChaCha8Rng::seed_from_u64(seed),
            counter: 0,
        }
    }

    /// Generates a brand's site (front or login page) on its real domain.
    pub fn brand_site(
        &mut self,
        world: &mut WebWorld,
        brand: &Brand,
        language: Language,
    ) -> SiteInfo {
        self.counter += 1;
        let kind = if self.rng.gen_bool(0.35) {
            SiteKind::BrandLogin
        } else {
            SiteKind::BrandFront
        };
        let domain = &brand.domain;
        let host = if self.rng.gen_bool(0.7) {
            format!("www.{domain}")
        } else {
            domain.clone()
        };
        // Non-English brand pages live in a localised site section so
        // they coexist with the English front page.
        let lang_prefix = match language.path_code() {
            "" => String::new(),
            code => format!("{code}/"),
        };
        let (page_path, start_path) = match kind {
            SiteKind::BrandLogin => (
                format!("{lang_prefix}signin"),
                format!("{lang_prefix}signin"),
            ),
            _ => (lang_prefix.clone(), lang_prefix),
        };
        let landing = format!("https://{host}/{page_path}");

        // Vocabulary: sector keywords + language prose + the brand name.
        let keywords = brand.sector.keywords();
        let mut text_parts: Vec<String> = Vec::new();
        for _ in 0..self.rng.gen_range(3..6) {
            let mut sentence = lexicon::sample_sentence(&mut self.rng, language, 8, 1);
            if self.rng.gen_bool(0.8) {
                sentence.push(' ');
                sentence.push_str(&brand.display);
            }
            if self.rng.gen_bool(0.6) {
                sentence.push(' ');
                sentence.push_str(keywords.choose(&mut self.rng).expect("keywords"));
            }
            text_parts.push(sentence);
        }

        let service = language.service_words();
        let title = format!(
            "{} — {}",
            brand.display,
            keywords.choose(&mut self.rng).expect("keywords")
        );
        let mut page = PageBuilder::new()
            .title(&title)
            .heading(&format!("{} {}", language.welcome(), brand.display))
            .stylesheet(&format!("https://{host}/assets/main.css"))
            .script(&format!("https://{host}/assets/app.js"));
        for p in &text_parts {
            page = page.paragraph(p);
        }
        // Internal links spelling the brand and services.
        for _ in 0..self.rng.gen_range(3..7) {
            let word = service.choose(&mut self.rng).expect("service");
            page = page.link(
                &format!("https://{host}/{}/{word}", brand.name),
                &format!("{} {word}", brand.display),
            );
        }
        // Occasional external partner link / CDN resource.
        if self.rng.gen_bool(0.5) {
            page = page.link("https://partner-network.com/offers", "Partners");
        }
        if self.rng.gen_bool(0.6) {
            page = page.script("https://cdn.webstatic.net/lib/analytics.js");
        }
        for i in 0..self.rng.gen_range(1..4) {
            page = page.image(&format!("/img/visual{i}.png"));
        }
        if kind == SiteKind::BrandLogin {
            page = page.form("/session", &["username", "password"]);
        }
        page = page.copyright(&format!(
            "© 2015 {} Inc. All rights reserved.",
            brand.display
        ));

        let html = page.build();
        let index_text = format!("{} {} {}", title, text_parts.join(" "), brand.domain);
        world.add_page(&landing, Page::new(html));

        // Entry point: often the bare domain redirecting to the canonical
        // www host (same RDN — world lookup ignores the scheme, so the
        // redirect must come from a different host/path).
        let start_url = if host != *domain && self.rng.gen_bool(0.5) {
            let from = format!("http://{domain}/{start_path}");
            world.add_redirect(&from, &landing);
            from
        } else {
            landing.clone()
        };

        SiteInfo {
            start_url,
            rdn: domain.clone(),
            mld: brand.name.clone(),
            index_text,
            kind,
        }
    }

    /// Generates a generic legitimate site on a fresh synthetic domain —
    /// or on a shared platform / behind a URL shortener for the hard
    /// tails the paper discusses in Section VII-B.
    pub fn generic_site(&mut self, world: &mut WebWorld, language: Language) -> SiteInfo {
        self.counter += 1;
        let roll = self.rng.gen_range(0..100);
        let kind = match roll {
            0..=20 => SiteKind::News,
            21..=41 => SiteKind::Blog,
            42..=58 => SiteKind::Shop,
            59..=76 => SiteKind::Corporate,
            77..=88 => SiteKind::PlatformBlog,
            89..=94 => SiteKind::Splash,
            95..=96 => SiteKind::ParkedLike,
            _ => SiteKind::Portal,
        };
        if kind == SiteKind::PlatformBlog {
            return self.platform_blog(world, language);
        }
        if kind == SiteKind::Splash {
            return self.splash_site(world, language);
        }
        if kind == SiteKind::ParkedLike {
            return self.parked_site(world, language);
        }
        if kind == SiteKind::Portal {
            let spec =
                crate::portal::portal_site(&mut self.rng, self.counter, world, language, 0.0);
            return SiteInfo {
                start_url: spec.start_url,
                rdn: spec.rdn,
                mld: spec.mld,
                index_text: spec.index_text,
                kind: SiteKind::Portal,
            };
        }

        let mld = self.fresh_mld();
        let suffix = *lexicon::legit_suffixes(language)
            .choose(&mut self.rng)
            .expect("suffixes");
        let rdn = format!("{mld}.{suffix}");
        let host = if self.rng.gen_bool(0.6) {
            format!("www.{rdn}")
        } else {
            rdn.clone()
        };
        let https = self.rng.gen_bool(0.65);
        let scheme = if https { "https" } else { "http" };
        let path = self.landing_path(kind, language);
        let landing = format!("{scheme}://{host}/{path}");

        // The site's "identity terms": mld tokens reused across sources.
        let identity: Vec<String> = kyp_text::extract_terms(&mld);
        let identity_str = identity.join(" ");

        let mut text_parts: Vec<String> = Vec::new();
        let paragraphs = match kind {
            SiteKind::Blog | SiteKind::News => self.rng.gen_range(5..9),
            _ => self.rng.gen_range(3..6),
        };
        for _ in 0..paragraphs {
            let mut s = lexicon::sample_sentence(&mut self.rng, language, 10, 1);
            if self.rng.gen_bool(0.55) && !identity_str.is_empty() {
                s.push(' ');
                s.push_str(&identity_str);
            }
            text_parts.push(s);
        }

        let title = match kind {
            SiteKind::News => format!(
                "{identity_str} — {}",
                lexicon::sample_words(&mut self.rng, language, 2).join(" ")
            ),
            _ => format!(
                "{identity_str} {}",
                lexicon::sample_words(&mut self.rng, language, 1)[0]
            ),
        };

        let mut page = PageBuilder::new()
            .title(&title)
            .heading(&format!("{} {identity_str}", language.welcome()))
            .stylesheet("/css/site.css");
        for p in &text_parts {
            page = page.paragraph(p);
        }

        // Links: internal majority; news sites repeat the anchor word in a
        // nearby paragraph (the text∩links noise motivating prominent terms).
        let n_links = match kind {
            SiteKind::News => self.rng.gen_range(6..12),
            SiteKind::Blog => self.rng.gen_range(1..4),
            _ => self.rng.gen_range(3..8),
        };
        for _ in 0..n_links {
            let word = *language
                .common_words()
                .choose(&mut self.rng)
                .expect("words");
            page = page.link(&format!("/{}", slugify(word)), word);
            if kind == SiteKind::News {
                page = page.paragraph(&format!(
                    "{word} {}",
                    lexicon::sample_sentence(&mut self.rng, language, 6, 0)
                ));
            }
        }
        // External links for news/corporate.
        if matches!(kind, SiteKind::News | SiteKind::Corporate) {
            for _ in 0..self.rng.gen_range(1..4) {
                let token = *lexicon::DOMAIN_TOKENS
                    .choose(&mut self.rng)
                    .expect("tokens");
                let www = if self.rng.gen_bool(0.5) { "www." } else { "" };
                page = page.link(
                    &format!(
                        "https://{www}{token}-press.com/article/{}",
                        self.rng.gen_range(1..999)
                    ),
                    &lexicon::sample_words(&mut self.rng, language, 2).join(" "),
                );
            }
        }
        // Resources.
        for i in 0..self.rng.gen_range(1..5) {
            page = page.image(&format!("/media/photo{i}.jpg"));
        }
        if self.rng.gen_bool(0.4) {
            page = page.script("https://cdn.webstatic.net/lib/analytics.js");
        }
        if kind == SiteKind::Shop {
            page = page.form("/search", &["query"]);
            if self.rng.gen_bool(0.4) {
                page = page.form("/newsletter", &["email"]);
            }
        }
        if self.rng.gen_bool(0.7) {
            page = page.copyright(&format!("© 2015 {identity_str}"));
        }

        let html = page.build();
        let index_text = format!("{} {}", title, text_parts.join(" "));
        world.add_page(&landing, Page::new(html));

        let start_url = if self.rng.gen_bool(0.06) {
            // A marketing email link through a legitimate URL shortener:
            // a cross-RDN redirect chain on a legitimate page.
            self.shortener_entry(world, &landing)
        } else if host != rdn && self.rng.gen_bool(0.25) {
            let from = format!("http://{rdn}/");
            world.add_redirect(&from, &landing);
            from
        } else {
            landing.clone()
        };

        SiteInfo {
            start_url,
            rdn,
            mld,
            index_text,
            kind,
        }
    }

    /// A realistic landing path: URL feeds contain deep links (articles,
    /// products, CMS scripts with queries), not just front pages.
    fn landing_path(&mut self, kind: SiteKind, language: Language) -> String {
        let word = slugify(lexicon::sample_words(&mut self.rng, language, 1)[0]);
        let word = if word.is_empty() {
            "page".to_owned()
        } else {
            word
        };
        let id: u32 = self.rng.gen_range(10..9999);
        match (kind, self.rng.gen_range(0..10)) {
            // Front page.
            (_, 0..=3) => String::new(),
            (SiteKind::News, 4..=6) => format!("news/2015/{word}-{id}.html"),
            (SiteKind::News, _) => format!("article.php?id={id}&ref={word}"),
            (SiteKind::Blog, 4..=6) => format!("2015/09/{word}.html"),
            (SiteKind::Blog, _) => format!("index.php?p={id}"),
            (SiteKind::Shop, 4..=6) => format!("product/{word}-{id}.html"),
            (SiteKind::Shop, _) => format!("shop.php?item={id}&cat={word}"),
            (_, 4..=6) => format!("{word}.html"),
            (_, 7..=8) => format!("pages/{word}/{id}"),
            _ => format!("index.php?page={word}"),
        }
    }

    /// A short URL redirecting to `landing` (cross-RDN chain).
    fn shortener_entry(&mut self, world: &mut WebWorld, landing: &str) -> String {
        let shortener = *SHORTENER_RDNS.choose(&mut self.rng).expect("shorteners");
        let code: String = (0..6)
            .map(|_| (b'a' + self.rng.gen_range(0u8..26)) as char)
            .collect();
        let from = format!("http://{shortener}/{code}");
        world.add_redirect(&from, landing);
        from
    }

    /// A blog on a shared hosting platform: content identity lives in the
    /// subdomain and page, the RDN belongs to the platform.
    fn platform_blog(&mut self, world: &mut WebWorld, language: Language) -> SiteInfo {
        let platform = *PLATFORM_RDNS.choose(&mut self.rng).expect("platforms");
        let author = self.fresh_mld();
        let host = format!("{author}.{platform}");
        let landing = format!("https://{host}/");
        let identity_str = kyp_text::extract_terms(&author).join(" ");

        let mut text_parts: Vec<String> = Vec::new();
        for _ in 0..self.rng.gen_range(4..8) {
            let mut s = lexicon::sample_sentence(&mut self.rng, language, 10, 0);
            if self.rng.gen_bool(0.5) && !identity_str.is_empty() {
                s.push(' ');
                s.push_str(&identity_str);
            }
            text_parts.push(s);
        }
        let title = format!("{identity_str} — {platform}");
        let mut page = PageBuilder::new()
            .title(&title)
            .heading(&format!("{} {identity_str}", language.welcome()))
            // Platform assets live on the platform's CDN, not the blog host.
            .stylesheet(&format!("https://static.{platform}/theme.css"))
            .script(&format!("https://static.{platform}/platform.js"));
        for p in &text_parts {
            page = page.paragraph(p);
        }
        for _ in 0..self.rng.gen_range(1..4) {
            let word = *language
                .common_words()
                .choose(&mut self.rng)
                .expect("words");
            page = page.link(&format!("/{}", slugify(word)), word);
        }
        if self.rng.gen_bool(0.5) {
            page = page.image(&format!("https://static.{platform}/banner.png"));
        }
        let html = page.build();
        world.add_page(&landing, Page::new(html));

        let mld = platform.split('.').next().unwrap_or(platform).to_owned();
        SiteInfo {
            start_url: landing,
            rdn: platform.to_owned(),
            mld,
            index_text: format!("{title} {}", text_parts.join(" ")),
            kind: SiteKind::PlatformBlog,
        }
    }

    /// A parked domain page: the near-empty, ad-laden tail the paper
    /// reports as its main false-positive source.
    fn parked_site(&mut self, world: &mut WebWorld, language: Language) -> SiteInfo {
        let mld = self.fresh_mld();
        let suffix = *lexicon::legit_suffixes(language)
            .choose(&mut self.rng)
            .expect("suffixes");
        let rdn = format!("{mld}.{suffix}");
        let landing = format!("http://{rdn}/");
        let identity_str = kyp_text::extract_terms(&mld).join(" ");
        let ad_network = *["adgrid.net", "clickyield.com", "parkzone.co"]
            .choose(&mut self.rng)
            .expect("ad networks");

        let title = format!("{rdn} — domain parked");
        let mut page = PageBuilder::new()
            .title(&title)
            .paragraph("this domain may be for sale")
            .script(&format!("https://{ad_network}/serve.js"));
        // Concentrated external ad links, like a phish funnelling to its
        // target.
        for i in 0..self.rng.gen_range(2..5) {
            page = page.link(
                &format!("https://{ad_network}/click?slot={i}"),
                "sponsored listing",
            );
        }
        if self.rng.gen_bool(0.5) {
            page = page.image(&format!("https://{ad_network}/banner.png"));
        }
        if self.rng.gen_bool(0.3) {
            page = page.form("/search", &["query"]);
        }
        let html = page.build();
        world.add_page(&landing, Page::new(html));

        SiteInfo {
            start_url: landing,
            rdn,
            mld,
            index_text: format!("{title} {identity_str} parked domain"),
            kind: SiteKind::ParkedLike,
        }
    }

    /// A minimal splash/login page (webmail, intranet portal).
    fn splash_site(&mut self, world: &mut WebWorld, language: Language) -> SiteInfo {
        let mld = self.fresh_mld();
        let suffix = *lexicon::legit_suffixes(language)
            .choose(&mut self.rng)
            .expect("suffixes");
        let rdn = format!("{mld}.{suffix}");
        let host = if self.rng.gen_bool(0.5) {
            format!("mail.{rdn}")
        } else {
            rdn.clone()
        };
        let landing = format!("https://{host}/login");
        let identity_str = kyp_text::extract_terms(&mld).join(" ");
        let service = language.service_words();
        let title = format!(
            "{identity_str} {}",
            service.choose(&mut self.rng).expect("service")
        );
        let sentence = lexicon::sample_sentence(&mut self.rng, language, 3, 2);
        let mut page = PageBuilder::new()
            .title(&title)
            .heading(&identity_str)
            .paragraph(&sentence)
            .stylesheet("/login.css")
            .form("/session", &["username", "password"]);
        if self.rng.gen_bool(0.5) {
            page = page.copyright(&format!("© 2015 {identity_str}"));
        }
        let html = page.build();
        world.add_page(&landing, Page::new(html));

        SiteInfo {
            start_url: landing.clone(),
            rdn,
            mld,
            index_text: format!("{title} {sentence} {identity_str}"),
            kind: SiteKind::Splash,
        }
    }

    /// A unique, plausible mld: one or two tokens, occasionally awkward
    /// shapes the paper's Section VII-B discusses (long concatenations,
    /// hyphens, digits).
    fn fresh_mld(&mut self) -> String {
        let a = *lexicon::DOMAIN_TOKENS
            .choose(&mut self.rng)
            .expect("tokens");
        let b = *lexicon::DOMAIN_TOKENS
            .choose(&mut self.rng)
            .expect("tokens");
        let id = self.counter;
        match self.rng.gen_range(0..10) {
            // Long concatenation without separators ("theinstantexchange").
            0 => format!("the{a}{b}x{id}"),
            // Hyphenated.
            1 | 2 => format!("{a}-{b}{id}"),
            // Short with digit ("dl4a" shape).
            3 => format!("{}{id}{}", &a[..2.min(a.len())], &b[..1]),
            // Plain compound.
            _ => format!("{a}{b}{id}"),
        }
    }
}

fn slugify(word: &str) -> String {
    kyp_text::extract_terms(word).join("-")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brands::BrandCorpus;
    use kyp_web::Browser;

    #[test]
    fn brand_site_scrapes_cleanly() {
        let corpus = BrandCorpus::standard();
        let mut world = WebWorld::new();
        let mut generator = SiteGenerator::new(1);
        let info = generator.brand_site(&mut world, corpus.cyclic(0), Language::English);
        let visit = Browser::new(&world).visit(&info.start_url).unwrap();
        assert_eq!(visit.landing_url.rdn(), Some(info.rdn.as_str()));
        assert!(!visit.text.is_empty());
        assert!(!visit.title.is_empty());
        assert!(!visit.href_links.is_empty());
    }

    #[test]
    fn brand_site_is_term_consistent() {
        let corpus = BrandCorpus::standard();
        let brand = corpus.by_name("paypago").unwrap();
        let mut world = WebWorld::new();
        let mut generator = SiteGenerator::new(3);
        // Generate several, check one that mentions the brand.
        for _ in 0..5 {
            let info = generator.brand_site(&mut world, brand, Language::English);
            let visit = Browser::new(&world).visit(&info.start_url).unwrap();
            let text_lower = visit.text.to_lowercase();
            if text_lower.contains("paypago") {
                assert_eq!(visit.landing_url.mld(), Some("paypago"));
                return;
            }
        }
        panic!("no generated page mentioned the brand");
    }

    #[test]
    fn generic_sites_have_unique_domains() {
        // Platform blogs intentionally share the platform RDN; every other
        // site must get a fresh registered domain.
        let mut world = WebWorld::new();
        let mut generator = SiteGenerator::new(9);
        let mut rdns = std::collections::HashSet::new();
        for _ in 0..50 {
            let info = generator.generic_site(&mut world, Language::German);
            if info.kind != SiteKind::PlatformBlog {
                assert!(rdns.insert(info.rdn.clone()), "duplicate rdn {}", info.rdn);
            }
        }
    }

    #[test]
    fn hard_legit_tails_are_generated() {
        let mut world = WebWorld::new();
        let mut generator = SiteGenerator::new(21);
        let mut kinds = std::collections::HashSet::new();
        let mut cross_rdn_entry = 0;
        for _ in 0..200 {
            let info = generator.generic_site(&mut world, Language::English);
            kinds.insert(info.kind);
            let visit = Browser::new(&world).visit(&info.start_url).unwrap();
            let chain_rdns: std::collections::HashSet<_> = visit
                .redirection_chain
                .iter()
                .filter_map(kyp_url::Url::rdn)
                .collect();
            if chain_rdns.len() > 1 {
                cross_rdn_entry += 1;
            }
        }
        assert!(kinds.contains(&SiteKind::PlatformBlog));
        assert!(kinds.contains(&SiteKind::Splash));
        assert!(cross_rdn_entry > 0, "shortener entries must occur");
    }

    #[test]
    fn generic_sites_scrape_in_all_languages() {
        for (i, lang) in Language::ALL.into_iter().enumerate() {
            let mut world = WebWorld::new();
            let mut generator = SiteGenerator::new(100 + i as u64);
            for _ in 0..5 {
                let info = generator.generic_site(&mut world, lang);
                let visit = Browser::new(&world).visit(&info.start_url).unwrap();
                assert!(!visit.text.is_empty(), "{} page empty", lang.name());
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let gen_once = |seed| {
            let mut world = WebWorld::new();
            let mut generator = SiteGenerator::new(seed);
            (0..10)
                .map(|_| generator.generic_site(&mut world, Language::Spanish).rdn)
                .collect::<Vec<_>>()
        };
        assert_eq!(gen_once(5), gen_once(5));
        assert_ne!(gen_once(5), gen_once(6));
    }

    #[test]
    fn redirects_stay_on_same_rdn() {
        let corpus = BrandCorpus::standard();
        let mut world = WebWorld::new();
        let mut generator = SiteGenerator::new(11);
        for i in 0..20 {
            let info = generator.brand_site(&mut world, corpus.cyclic(i), Language::English);
            let visit = Browser::new(&world).visit(&info.start_url).unwrap();
            let rdns: std::collections::HashSet<_> = visit
                .redirection_chain
                .iter()
                .filter_map(kyp_url::Url::rdn)
                .collect();
            assert_eq!(rdns.len(), 1, "legit chains stay on one RDN");
        }
    }
}
