//! Phishing-kit generators.
//!
//! Encodes the structural regularities the paper documents for phishing
//! pages (Sections II-A, III-A) and the evasion variants of Section VII:
//!
//! - hosted on domains unrelated to the target (compromised hosts, cheap
//!   TLDs) or obfuscated ones (target brand in subdomain/path, typosquats,
//!   raw IPs);
//! - content mimics the target: brand terms in text/title/copyright,
//!   resources and outgoing links point at the *real* target domain
//!   (outside the phisher's control);
//! - credential-harvesting forms;
//! - longer redirection chains crossing several RDNs;
//! - evasion tails: minimal text, image-based pages, misspelled terms.

use crate::brands::Brand;
use crate::lexicon::{self, Language};
use kyp_html::PageBuilder;
use kyp_web::{Page, WebWorld};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Where the phisher hosts the kit (Section II-B obfuscation taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum HostingStrategy {
    /// A compromised unrelated domain, kit buried in a deep path.
    Compromised,
    /// The target brand spelled inside the subdomain
    /// (`paypago.com.secure-check.badhost.tk`).
    BrandSubdomain,
    /// The target brand in the URL path only.
    BrandPath,
    /// A typosquatted variant of the target domain (`paypag0.com`).
    Typosquat,
    /// A freshly registered deceptive domain spelling the brand plus a
    /// service word (`paypago-secure.tk`) — the mld *matches* the page
    /// content, defeating the f3 features the way real campaigns do.
    DeceptiveMld,
    /// A raw IPv4 host (the paper's hard-to-classify tail).
    IpHost,
}

impl HostingStrategy {
    /// All strategies (for exhaustive ablations).
    pub const ALL: [HostingStrategy; 6] = [
        HostingStrategy::Compromised,
        HostingStrategy::BrandSubdomain,
        HostingStrategy::BrandPath,
        HostingStrategy::Typosquat,
        HostingStrategy::DeceptiveMld,
        HostingStrategy::IpHost,
    ];
}

/// Optional evasion techniques (Section VII-C).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvasionProfile {
    /// Keep almost no text content.
    pub minimal_text: bool,
    /// Render the brand only in an image (empty HTML text).
    pub image_based: bool,
    /// Misspell brand terms in the text (typosquatting the content).
    pub typo_terms: bool,
    /// Carry no brand hint at all (target only in the luring email) —
    /// produces the paper's "unknown target" pages.
    pub no_brand_hint: bool,
    /// A fully cloned, self-hosted kit: resources served locally, few or
    /// no links to the target, HTTPS — the stealthy tail that keeps the
    /// classifier's recall below 1.
    pub self_contained: bool,
}

/// Description of one generated phishing site.
#[derive(Debug, Clone, PartialEq)]
pub struct PhishSite {
    /// URL distributed to victims.
    pub start_url: String,
    /// The impersonated brand's mld, or `None` for hint-less kits.
    pub target: Option<String>,
    /// Hosting strategy used.
    pub hosting: HostingStrategy,
    /// Evasion flags applied.
    pub evasion: EvasionProfile,
}

/// Deterministic generator of phishing sites.
///
/// # Examples
///
/// ```
/// use kyp_datagen::{BrandCorpus, EvasionProfile, Language, PhishGenerator};
/// use kyp_web::{Browser, WebWorld};
///
/// let corpus = BrandCorpus::standard();
/// let mut world = WebWorld::new();
/// let mut generator = PhishGenerator::new(13);
/// let phish = generator.phish_site(
///     &mut world, corpus.cyclic(0), Language::English, None, EvasionProfile::default());
/// let visit = Browser::new(&world).visit(&phish.start_url)?;
/// assert!(visit.input_count >= 2, "phish harvest credentials");
/// # Ok::<(), kyp_web::VisitError>(())
/// ```
#[derive(Debug)]
pub struct PhishGenerator {
    rng: ChaCha8Rng,
    counter: u64,
    compromised_pool: Vec<String>,
    decoy_brands: Vec<Brand>,
}

impl PhishGenerator {
    /// Creates a generator; equal seeds reproduce identical kits.
    pub fn new(seed: u64) -> Self {
        PhishGenerator {
            rng: ChaCha8Rng::seed_from_u64(seed),
            counter: 0,
            compromised_pool: Vec::new(),
            decoy_brands: Vec::new(),
        }
    }

    /// Supplies brands that kits may mention *besides* their target —
    /// template remnants and partner logos that make target ranking
    /// ambiguous (why the paper's top-3 beats its top-1 accuracy).
    pub fn set_decoy_brands(&mut self, brands: Vec<Brand>) {
        self.decoy_brands = brands;
    }

    /// Supplies real legitimate RDNs that `Compromised` kits may hijack.
    ///
    /// Phishers frequently host kits in deep paths of hacked legitimate
    /// sites; such hosts may even be popularity-ranked, removing the
    /// easiest URL signals. Without a pool, compromised kits fall back to
    /// freshly registered throwaway domains.
    pub fn set_compromised_pool(&mut self, rdns: Vec<String>) {
        self.compromised_pool = rdns;
    }

    /// Generates one phishing site targeting `brand`.
    ///
    /// `hosting` picks the strategy, or a realistic random mix when `None`
    /// (IP hosting kept under ~2%, matching the paper's observation).
    pub fn phish_site(
        &mut self,
        world: &mut WebWorld,
        brand: &Brand,
        language: Language,
        hosting: Option<HostingStrategy>,
        evasion: EvasionProfile,
    ) -> PhishSite {
        self.counter += 1;
        let hosting = hosting.unwrap_or_else(|| {
            let roll = self.rng.gen_range(0..100);
            match roll {
                0..=34 => HostingStrategy::Compromised,
                35..=49 => HostingStrategy::BrandSubdomain,
                50..=64 => HostingStrategy::BrandPath,
                65..=82 => HostingStrategy::DeceptiveMld,
                83..=97 => HostingStrategy::Typosquat,
                _ => HostingStrategy::IpHost,
            }
        });

        // Brand-less harvesters mostly reuse the generic portal shape —
        // the cohort that genuinely overlaps with small legitimate sites.
        if evasion.no_brand_hint && self.rng.gen_bool(0.7) {
            let spec =
                crate::portal::portal_site(&mut self.rng, self.counter, world, language, 0.4);
            return PhishSite {
                start_url: spec.start_url,
                target: None,
                hosting,
                evasion,
            };
        }

        let (host, phisher_rdn) = self.phisher_host(brand, hosting, evasion.no_brand_hint);
        let path = self.phisher_path(brand, hosting, &evasion);
        // Self-contained kits often bother with TLS; quick kits rarely do.
        let https_prob = if evasion.self_contained { 0.5 } else { 0.08 };
        let scheme = if self.rng.gen_bool(https_prob) {
            "https"
        } else {
            "http"
        };
        let landing = format!("{scheme}://{host}/{path}");
        let html_page = self.build_page(brand, language, &evasion);
        world.add_page(&landing, html_page);

        // Redirection: about half the kits are reached through 1–2
        // redirectors on other shady RDNs.
        let start_url = if self.rng.gen_bool(0.5) {
            let hops = self.rng.gen_range(1..=2);
            let mut current_target = landing.clone();
            let mut entry = landing.clone();
            for h in 0..hops {
                let redirector = format!(
                    "http://{}{}.{}/r{}",
                    pick(&mut self.rng, lexicon::DOMAIN_TOKENS),
                    self.counter,
                    pick(&mut self.rng, lexicon::PHISH_SUFFIXES),
                    h
                );
                world.add_redirect(&redirector, &current_target);
                current_target.clone_from(&redirector);
                entry = redirector;
            }
            entry
        } else {
            landing
        };

        let _ = phisher_rdn; // informational; kept for future ablations
        PhishSite {
            start_url,
            target: (!evasion.no_brand_hint).then(|| brand.name.clone()),
            hosting,
            evasion,
        }
    }

    /// The phisher-controlled host per strategy.
    fn phisher_host(
        &mut self,
        brand: &Brand,
        hosting: HostingStrategy,
        no_brand_hint: bool,
    ) -> (String, String) {
        let token_a = pick(&mut self.rng, lexicon::DOMAIN_TOKENS);
        let token_b = pick(&mut self.rng, lexicon::DOMAIN_TOKENS);
        let id = self.counter;
        match hosting {
            HostingStrategy::IpHost => {
                let ip = format!(
                    "{}.{}.{}.{}",
                    self.rng.gen_range(11..240),
                    self.rng.gen_range(0..255),
                    self.rng.gen_range(0..255),
                    self.rng.gen_range(1..255)
                );
                (ip.clone(), ip)
            }
            HostingStrategy::Typosquat if !no_brand_hint => {
                let squat = typosquat(&brand.name, &mut self.rng);
                let rdn = format!("{squat}.{}", pick(&mut self.rng, lexicon::PHISH_SUFFIXES));
                (rdn.clone(), rdn)
            }
            HostingStrategy::DeceptiveMld if !no_brand_hint => {
                let service = pick(
                    &mut self.rng,
                    &["secure", "login", "account", "verify", "support", "online"],
                );
                let mld = match self.rng.gen_range(0..3) {
                    0 => format!("{}-{service}", brand.name),
                    1 => format!("{service}-{}", brand.name),
                    _ => format!("{}{service}", brand.name),
                };
                let rdn = format!("{mld}.{}", pick(&mut self.rng, lexicon::PHISH_SUFFIXES));
                let host = if self.rng.gen_bool(0.3) {
                    format!("www.{rdn}")
                } else {
                    rdn.clone()
                };
                (host, rdn)
            }
            HostingStrategy::BrandSubdomain if !no_brand_hint => {
                let rdn = format!(
                    "{token_a}-{token_b}{id}.{}",
                    pick(&mut self.rng, lexicon::PHISH_SUFFIXES)
                );
                // Target domain spelled into the subdomains, dots intact.
                (format!("{}.secure-check.{rdn}", brand.domain), rdn)
            }
            _ => {
                // Compromised / BrandPath / hint-less fallbacks share the
                // "unrelated registered domain" shape. Truly compromised
                // kits reuse a hijacked legitimate domain from the pool.
                let rdn = if hosting == HostingStrategy::Compromised
                    && !self.compromised_pool.is_empty()
                    && self.rng.gen_bool(0.45)
                {
                    let i = self.rng.gen_range(0..self.compromised_pool.len());
                    self.compromised_pool[i].clone()
                } else {
                    format!(
                        "{token_a}{token_b}{id}.{}",
                        pick(&mut self.rng, lexicon::PHISH_SUFFIXES)
                    )
                };
                let host = if self.rng.gen_bool(0.4) {
                    format!(
                        "{}.{rdn}",
                        pick(&mut self.rng, &["secure", "account", "www", "login"])
                    )
                } else {
                    rdn.clone()
                };
                (host, rdn)
            }
        }
    }

    /// The attacker-chosen path (long, brandy for BrandPath kits).
    fn phisher_path(
        &mut self,
        brand: &Brand,
        hosting: HostingStrategy,
        evasion: &EvasionProfile,
    ) -> String {
        let service = pick(
            &mut self.rng,
            &["login", "signin", "verify", "update", "webscr", "secure"],
        );
        let noise: u32 = self.rng.gen_range(100..99999);
        let brandy = !evasion.no_brand_hint
            && matches!(
                hosting,
                HostingStrategy::BrandPath | HostingStrategy::Compromised
            );
        // Path shapes overlap with legitimate CMS URLs: some kits use
        // long obfuscated paths, others keep it short.
        match (brandy, self.rng.gen_range(0..10)) {
            (true, 0..=4) => format!(
                "{}/{service}/{noise}/index.php?cmd={service}&dispatch={noise}",
                brand.name
            ),
            (true, 5..=7) => format!("{}/{service}.php?id={noise}", brand.name),
            (true, _) => format!("{}/{service}", brand.name),
            (false, 0..=4) => format!("{service}/{noise}/index.php?cmd={service}"),
            (false, 5..=7) => format!("{service}.php?id={noise}"),
            (false, _) => format!("{service}/{noise}"),
        }
    }

    /// The kit's landing page content.
    fn build_page(&mut self, brand: &Brand, language: Language, evasion: &EvasionProfile) -> Page {
        // Template reuse: some kits are old campaigns re-pointed at a new
        // target — the visible content still spells the previous brand
        // while links and the harvest endpoint serve the real target.
        // These are the pages whose target only ranks at top-2/top-3.
        let content_brand =
            if !evasion.no_brand_hint && !self.decoy_brands.is_empty() && self.rng.gen_bool(0.12) {
                let idx = self.rng.gen_range(0..self.decoy_brands.len());
                let decoy = self.decoy_brands[idx].clone();
                if decoy.name == brand.name {
                    brand.clone()
                } else {
                    decoy
                }
            } else {
                brand.clone()
            };
        let brand_word = if evasion.typo_terms {
            typosquat(&content_brand.name, &mut self.rng)
        } else {
            content_brand.display.clone()
        };
        // Kits reference the target both with and without the www host.
        let target_host = if self.rng.gen_bool(0.5) {
            format!("www.{}", brand.domain)
        } else {
            brand.domain.clone()
        };
        let keywords = content_brand.sector.keywords();

        let mut page = PageBuilder::new();
        if evasion.no_brand_hint {
            page = page.title("Account verification");
        } else {
            page = page.title(&format!(
                "{brand_word} {}",
                pick(
                    &mut self.rng,
                    &["Login", "Sign In", "Verify Account", "Security Check"]
                )
            ));
        }

        // Text: mimics the target with urgency vocabulary. Self-contained
        // clones copy more of the target's prose.
        let text_sentences = if evasion.minimal_text || evasion.image_based {
            0
        } else if evasion.self_contained {
            self.rng.gen_range(3..6)
        } else {
            self.rng.gen_range(1..3)
        };
        let reused_template = content_brand.name != brand.name;
        for _ in 0..text_sentences {
            let mut s = lexicon::sample_sentence(&mut self.rng, language, 4, 2);
            if !evasion.no_brand_hint {
                s.push(' ');
                s.push_str(&brand_word);
                if self.rng.gen_bool(0.6) {
                    s.push(' ');
                    s.push_str(pick(&mut self.rng, keywords));
                }
            }
            page = page.paragraph(&s);
        }
        // A sloppily re-pointed template keeps a stray mention of the real
        // target in the prose, so both brands surface as candidates.
        if reused_template && text_sentences > 0 {
            page = page.paragraph(&format!(
                "{} {}",
                brand.display,
                pick(&mut self.rng, brand.sector.keywords())
            ));
        }

        // Resources: mostly lifted from the real target (uncontrolled!) —
        // unless the kit is a self-contained clone serving local copies.
        if !evasion.no_brand_hint && !evasion.self_contained {
            for res in ["logo.png", "style.css", "secure.js"] {
                if self.rng.gen_bool(0.85) {
                    page = page.image(&format!("https://{target_host}/{res}"));
                }
            }
            // Outgoing links to the target keep the page believable.
            // Image-based kits wrap images, not text, so their anchors
            // carry no rendered terms.
            for link in ["help", "privacy", "terms"] {
                if self.rng.gen_bool(0.75) {
                    let anchor = if evasion.image_based || evasion.minimal_text {
                        String::new()
                    } else {
                        format!("{brand_word} {link}")
                    };
                    page = page.link(&format!("https://{target_host}/{link}"), &anchor);
                }
            }
        }
        // Cloned relative navigation: kits copied from the target keep
        // some of its nav links, which resolve on the phisher's own host.
        if self.rng.gen_bool(0.7) {
            let n_nav = self.rng.gen_range(1..4);
            for nav in ["signin", "account", "contact"].iter().take(n_nav) {
                let anchor = if evasion.image_based || evasion.minimal_text {
                    String::new()
                } else if evasion.no_brand_hint {
                    (*nav).to_owned()
                } else {
                    format!("{brand_word} {nav}")
                };
                page = page.link(&format!("/{nav}"), &anchor);
            }
        }
        // Own resources: self-contained clones serve everything locally.
        page = page.stylesheet("/kit.css");
        if evasion.self_contained {
            for res in ["logo.png", "hero.jpg"] {
                page = page.image(&format!("/assets/{res}"));
            }
            page = page.script("/assets/app.js");
            // At most one discreet link to the target.
            if !evasion.no_brand_hint && self.rng.gen_bool(0.4) {
                page = page.link(&format!("https://{target_host}/help"), "help");
            }
        } else if !evasion.no_brand_hint && self.rng.gen_bool(0.3) {
            page = page.iframe(&format!("https://{target_host}/frame"));
        }

        // Decoy brand mentions: leftover template text or partner
        // references that also point at another brand.
        if !evasion.no_brand_hint && !self.decoy_brands.is_empty() && self.rng.gen_bool(0.2) {
            let idx = self.rng.gen_range(0..self.decoy_brands.len());
            let decoy = self.decoy_brands[idx].clone();
            if decoy.name != brand.name {
                let mentions = self.rng.gen_range(1..=3);
                for _ in 0..mentions {
                    if !evasion.image_based && !evasion.minimal_text {
                        page = page.paragraph(&format!(
                            "in partnership with {} {}",
                            decoy.display,
                            pick(&mut self.rng, decoy.sector.keywords())
                        ));
                    }
                }
                if self.rng.gen_bool(0.6) {
                    page = page.link(
                        &format!("https://www.{}/partner", decoy.domain),
                        &decoy.display,
                    );
                }
            }
        }

        // The harvest form.
        let fields: &[&str] = match self.rng.gen_range(0..3) {
            0 => &["email", "password"],
            1 => &["username", "password", "pin"],
            _ => &["cardnumber", "expiry", "cvv", "password"],
        };
        page = page.form("/collect.php", fields);

        // Image-based kits draw the notice inside the image too.
        if !evasion.no_brand_hint && !evasion.image_based && self.rng.gen_bool(0.6) {
            page = page.copyright(&format!("© 2015 {}", content_brand.display));
        }

        let html = page.build();
        if evasion.image_based && !evasion.no_brand_hint {
            // Brand text exists only on the rendering, not in the HTML.
            let rendered = format!(
                "{} {} sign in to continue {}",
                brand.display,
                pick(&mut self.rng, keywords),
                brand.display
            );
            Page::with_rendered_text(html, rendered)
        } else {
            Page::new(html)
        }
    }
}

fn pick<'a, R: Rng>(rng: &mut R, pool: &[&'a str]) -> &'a str {
    pool.choose(rng).expect("non-empty pool")
}

/// Produces a typosquatted variant of a brand name: letter swap, doubled
/// letter, dropped letter, or look-alike digit substitution.
fn typosquat<R: Rng>(name: &str, rng: &mut R) -> String {
    let chars: Vec<char> = name.chars().collect();
    if chars.len() < 4 {
        return format!("{name}{}", rng.gen_range(0..9));
    }
    let mut out = chars.clone();
    match rng.gen_range(0..4) {
        0 => {
            // Swap two adjacent letters.
            let i = rng.gen_range(0..out.len() - 1);
            out.swap(i, i + 1);
        }
        1 => {
            // Double a letter.
            let i = rng.gen_range(0..out.len());
            out.insert(i, out[i]);
        }
        2 => {
            // Drop a letter.
            let i = rng.gen_range(1..out.len());
            out.remove(i);
        }
        _ => {
            // Look-alike substitution.
            for c in &mut out {
                match *c {
                    'o' => {
                        *c = '0';
                        break;
                    }
                    'l' => {
                        *c = '1';
                        break;
                    }
                    'e' => {
                        *c = '3';
                        break;
                    }
                    _ => {}
                }
            }
        }
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brands::BrandCorpus;
    use kyp_web::Browser;

    fn setup() -> (WebWorld, PhishGenerator, BrandCorpus) {
        (
            WebWorld::new(),
            PhishGenerator::new(2),
            BrandCorpus::standard(),
        )
    }

    #[test]
    fn phish_scrapes_and_harvests() {
        let (mut world, mut generator, corpus) = setup();
        for i in 0..20 {
            let site = generator.phish_site(
                &mut world,
                corpus.cyclic(i),
                Language::English,
                None,
                EvasionProfile::default(),
            );
            let visit = Browser::new(&world).visit(&site.start_url).unwrap();
            assert!(visit.input_count >= 2, "kit {i} has {}", visit.input_count);
        }
    }

    #[test]
    fn phish_points_at_target() {
        let (mut world, mut generator, corpus) = setup();
        let brand = corpus.by_name("paypago").unwrap();
        let mut pointed = 0;
        for _ in 0..10 {
            let site = generator.phish_site(
                &mut world,
                brand,
                Language::English,
                Some(HostingStrategy::Compromised),
                EvasionProfile::default(),
            );
            let visit = Browser::new(&world).visit(&site.start_url).unwrap();
            let hits = visit
                .logged_links
                .iter()
                .chain(&visit.href_links)
                .filter(|u| u.rdn() == Some(brand.domain.as_str()))
                .count();
            if hits > 0 {
                pointed += 1;
            }
            assert_eq!(site.target.as_deref(), Some("paypago"));
        }
        assert!(pointed >= 8, "only {pointed}/10 kits referenced the target");
    }

    #[test]
    fn phisher_domain_differs_from_target() {
        let (mut world, mut generator, corpus) = setup();
        for i in 0..30 {
            let brand = corpus.cyclic(i);
            let site = generator.phish_site(
                &mut world,
                brand,
                Language::English,
                None,
                EvasionProfile::default(),
            );
            let visit = Browser::new(&world).visit(&site.start_url).unwrap();
            assert_ne!(
                visit.landing_url.rdn(),
                Some(brand.domain.as_str()),
                "kit must not be hosted on the target"
            );
        }
    }

    #[test]
    fn brand_subdomain_strategy_spells_target_in_fqdn() {
        let (mut world, mut generator, corpus) = setup();
        let brand = corpus.by_name("paypago").unwrap();
        let site = generator.phish_site(
            &mut world,
            brand,
            Language::English,
            Some(HostingStrategy::BrandSubdomain),
            EvasionProfile::default(),
        );
        let visit = Browser::new(&world).visit(&site.start_url).unwrap();
        let fqdn = visit.landing_url.fqdn_str().unwrap();
        assert!(fqdn.starts_with("paypago.com."), "fqdn {fqdn}");
        assert_ne!(visit.landing_url.rdn(), Some("paypago.com"));
    }

    #[test]
    fn ip_host_strategy() {
        let (mut world, mut generator, corpus) = setup();
        let site = generator.phish_site(
            &mut world,
            corpus.cyclic(3),
            Language::English,
            Some(HostingStrategy::IpHost),
            EvasionProfile::default(),
        );
        let visit = Browser::new(&world).visit(&site.start_url).unwrap();
        assert!(visit.landing_url.host().is_ip());
    }

    #[test]
    fn image_based_kit_hides_text_in_rendering() {
        let (mut world, mut generator, corpus) = setup();
        let brand = corpus.by_name("paypago").unwrap();
        let site = generator.phish_site(
            &mut world,
            brand,
            Language::English,
            Some(HostingStrategy::Compromised),
            EvasionProfile {
                image_based: true,
                ..EvasionProfile::default()
            },
        );
        let visit = Browser::new(&world).visit(&site.start_url).unwrap();
        assert!(!visit.text.to_lowercase().contains("paypago"));
        assert!(visit.screenshot_text.to_lowercase().contains("paypago"));
    }

    #[test]
    fn hintless_kit_has_no_target() {
        let (mut world, mut generator, corpus) = setup();
        let site = generator.phish_site(
            &mut world,
            corpus.cyclic(7),
            Language::English,
            Some(HostingStrategy::Compromised),
            EvasionProfile {
                no_brand_hint: true,
                ..EvasionProfile::default()
            },
        );
        assert_eq!(site.target, None);
        let visit = Browser::new(&world).visit(&site.start_url).unwrap();
        let brand = corpus.cyclic(7);
        assert!(!visit.text.to_lowercase().contains(&brand.name));
        assert!(!visit.title.to_lowercase().contains(&brand.name));
        // A hintless kit may keep generic navigation, but nothing on the
        // page — anchors or loaded resources — may reference the target.
        for link in visit.href_links.iter().chain(&visit.logged_links) {
            let s = link.as_str().to_lowercase();
            assert!(
                !s.contains(&brand.name) && !s.contains(&brand.domain),
                "hintless kit leaks target through link {s}"
            );
        }
    }

    #[test]
    fn typosquat_variants() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..20 {
            let squat = typosquat("paypago", &mut rng);
            assert_ne!(squat, "paypago");
            assert!(!squat.is_empty());
        }
        // Short names get a digit suffix.
        let squat = typosquat("abc", &mut rng);
        assert!(squat.starts_with("abc"));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let corpus = BrandCorpus::standard();
            let mut world = WebWorld::new();
            let mut generator = PhishGenerator::new(seed);
            (0..10)
                .map(|i| {
                    generator
                        .phish_site(
                            &mut world,
                            corpus.cyclic(i),
                            Language::English,
                            None,
                            EvasionProfile::default(),
                        )
                        .start_url
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
    }
}
