//! Dataset campaigns mirroring the paper's Table V.
//!
//! A [`Corpus`] bundles everything an experiment needs: the simulated web,
//! the domain ranking (Alexa substitute), the search-engine index over the
//! legitimate corpus, and the URL lists of each dataset:
//!
//! | paper set    | here                | paper size |
//! |--------------|---------------------|------------|
//! | `phishTrain` | `phish_train`       | 1,036      |
//! | `phishTest`  | `phish_test`        | 1,216      |
//! | `phishBrand` | `phish_brand`       | 600 / 126 targets |
//! | `legTrain`   | `leg_train`         | 4,531      |
//! | `English`    | `language_tests[0]` | 100,000    |
//! | fr/de/it/pt/es | `language_tests[1..]` | 10,000 each |
//!
//! Sizes scale linearly via [`CampaignConfig::scaled`] so experiments can
//! trade fidelity for runtime; the class ratios (85–125 legitimate per
//! phish at full scale) are preserved.

use crate::brands::BrandCorpus;
use crate::lexicon::Language;
use crate::phish::{EvasionProfile, HostingStrategy, PhishGenerator};
use crate::sites::SiteGenerator;
use kyp_search::SearchEngine;
use kyp_web::{DomainRanker, WebWorld};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The largest corpus scale [`check_scale`] accepts: ten times the
/// paper's Table V, about 1.5 million pages to generate and scrape.
pub const MAX_SCALE: f64 = 10.0;

/// Checks a corpus scale before anything is sized from it.
/// [`CampaignConfig::scaled`] turns the scale into page counts, so it
/// must be a finite number > 0 and at most [`MAX_SCALE`]; a larger one
/// would ask for more pages than memory holds, and an infinite one
/// saturates every count. The error says what a scale must be, for the
/// caller's message.
///
/// # Examples
///
/// ```
/// use kyp_datagen::campaign::check_scale;
///
/// assert!(check_scale(0.02).is_ok());
/// for refused in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e6, 1e300] {
///     assert!(check_scale(refused).is_err());
/// }
/// ```
pub fn check_scale(scale: f64) -> Result<(), String> {
    // NaN fails both comparisons, and infinity the second.
    if scale > 0.0 && scale <= MAX_SCALE {
        Ok(())
    } else {
        Err(format!("a finite number > 0 and at most {MAX_SCALE}"))
    }
}

/// Sizes and seed of a corpus generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Master seed; every sub-generator derives from it.
    pub seed: u64,
    /// Phishing training set size (paper: 1,036).
    pub phish_train: usize,
    /// Phishing test set size (paper: 1,216).
    pub phish_test: usize,
    /// Target-identification set size (paper: 600).
    pub phish_brand: usize,
    /// Legitimate (English) training set size (paper: 4,531).
    pub leg_train: usize,
    /// English test set size (paper: 100,000).
    pub english_test: usize,
    /// Per-language test set size for fr/de/it/pt/es (paper: 10,000).
    pub other_language_test: usize,
}

impl CampaignConfig {
    /// The paper's full Table V sizes (heavy: ~150k pages).
    pub fn paper_scale() -> Self {
        CampaignConfig {
            seed: 2015,
            phish_train: 1_036,
            phish_test: 1_216,
            phish_brand: 600,
            leg_train: 4_531,
            english_test: 100_000,
            other_language_test: 10_000,
        }
    }

    /// Table V scaled by `fraction` (class ratios preserved; minimums keep
    /// every set non-trivial). Callers taking the fraction from a user
    /// run [`check_scale`] on it first.
    pub fn scaled(fraction: f64) -> Self {
        let full = Self::paper_scale();
        let s = |n: usize, min: usize| (((n as f64) * fraction).round() as usize).max(min);
        CampaignConfig {
            seed: full.seed,
            phish_train: s(full.phish_train, 30),
            phish_test: s(full.phish_test, 30),
            phish_brand: s(full.phish_brand, 20),
            leg_train: s(full.leg_train, 100),
            english_test: s(full.english_test, 200),
            other_language_test: s(full.other_language_test, 50),
        }
    }

    /// A minimal corpus for unit tests and doc examples.
    pub fn tiny() -> Self {
        CampaignConfig {
            seed: 7,
            phish_train: 30,
            phish_test: 30,
            phish_brand: 24,
            leg_train: 120,
            english_test: 150,
            other_language_test: 40,
        }
    }
}

/// One phishing URL with its ground-truth target.
#[derive(Debug, Clone, PartialEq)]
pub struct PhishRecord {
    /// The URL distributed to victims.
    pub url: String,
    /// Ground-truth target mld, `None` for hint-less kits (the paper's
    /// "unknown target" pages).
    pub target: Option<String>,
}

/// A fully generated evaluation corpus (see the module docs).
#[derive(Debug)]
pub struct Corpus {
    /// The simulated web hosting every page.
    pub world: WebWorld,
    /// The offline popularity ranking (Alexa substitute).
    pub ranker: DomainRanker,
    /// Search engine indexed over the legitimate corpus only.
    pub engine: SearchEngine,
    /// The brand corpus used for targets and brand sites.
    pub brands: BrandCorpus,
    /// Phishing training URLs (paper `phishTrain`).
    pub phish_train: Vec<PhishRecord>,
    /// Phishing test URLs, collected "later" (paper `phishTest`).
    pub phish_test: Vec<PhishRecord>,
    /// Target-identification set with known targets (paper `phishBrand`).
    pub phish_brand: Vec<PhishRecord>,
    /// Legitimate training URLs (paper `legTrain`).
    pub leg_train: Vec<String>,
    /// Per-language legitimate test sets, English first.
    pub language_tests: Vec<(Language, Vec<String>)>,
}

impl Corpus {
    /// Generates a corpus. Deterministic for a given config.
    pub fn generate(config: &CampaignConfig) -> Corpus {
        let mut world = WebWorld::new();
        let brands = BrandCorpus::standard();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

        let mut engine = SearchEngine::new();
        let mut legit_rdns: Vec<String> = Vec::new();

        // --- Brand sites: the anchor legitimate corpus, always indexed.
        let mut site_gen = SiteGenerator::new(config.seed.wrapping_add(1));
        let mut brand_urls: Vec<String> = Vec::new();
        for brand in brands.brands() {
            let info = site_gen.brand_site(&mut world, brand, Language::English);
            engine.index_page(&info.rdn, &info.mld, &info.index_text);
            legit_rdns.push(info.rdn.clone());
            brand_urls.push(info.start_url);
        }

        // --- Legitimate training set (English): generic + brand mix.
        let mut leg_train = Vec::with_capacity(config.leg_train);
        for i in 0..config.leg_train {
            if i % 12 == 0 {
                // Revisit a brand site (popular sites recur in URL feeds).
                leg_train.push(brand_urls[i / 12 % brand_urls.len()].clone());
            } else {
                let info = site_gen.generic_site(&mut world, Language::English);
                engine.index_page(&info.rdn, &info.mld, &info.index_text);
                legit_rdns.push(info.rdn.clone());
                leg_train.push(info.start_url);
            }
        }

        // --- Language test sets.
        let mut language_tests = Vec::new();
        for (li, lang) in Language::ALL.into_iter().enumerate() {
            let n = if lang == Language::English {
                config.english_test
            } else {
                config.other_language_test
            };
            let mut lang_gen = SiteGenerator::new(config.seed.wrapping_add(10 + li as u64));
            let mut urls = Vec::with_capacity(n);
            for i in 0..n {
                if i % 25 == 0 && lang != Language::English {
                    // Localised brand sites: brands serve their customers
                    // in their own language.
                    let brand = brands.cyclic(i / 25 + li * 31);
                    let info = lang_gen.brand_site(&mut world, brand, lang);
                    engine.index_page(&info.rdn, &info.mld, &info.index_text);
                    urls.push(info.start_url);
                } else if i % 10 == 0 {
                    urls.push(brand_urls[(i / 10 + li * 13) % brand_urls.len()].clone());
                } else {
                    let info = lang_gen.generic_site(&mut world, lang);
                    engine.index_page(&info.rdn, &info.mld, &info.index_text);
                    legit_rdns.push(info.rdn.clone());
                    urls.push(info.start_url);
                }
            }
            language_tests.push((lang, urls));
        }

        // --- Domain ranking: brands at the top, then ~40% of generic
        // legitimate domains (the paper reports 43.5% of test RDNs ranked).
        let mut ranked: Vec<String> = brands.brands().iter().map(|b| b.domain.clone()).collect();
        let mut generic: Vec<String> = legit_rdns
            .iter()
            .filter(|r| !ranked.contains(r))
            .cloned()
            .collect();
        generic.shuffle(&mut rng);
        generic.truncate((generic.len() as f64 * 0.4) as usize);
        ranked.extend(generic);
        let ranker = DomainRanker::from_ranked(ranked);

        // --- Phishing campaigns: three "collection campaigns" with
        // different seeds (the paper's temporally separated feeds).
        // Compromised kits may hijack generic legitimate domains (some of
        // which are popularity-ranked), removing the easy URL signals.
        let mut pool = legit_rdns.clone();
        pool.shuffle(&mut rng);
        pool.truncate(300.min(pool.len()));
        let phish_train = Self::phish_campaign(
            &mut world,
            &brands,
            &pool,
            config.seed.wrapping_add(100),
            config.phish_train,
            false,
        );
        let phish_test = Self::phish_campaign(
            &mut world,
            &brands,
            &pool,
            config.seed.wrapping_add(200),
            config.phish_test,
            false,
        );
        let phish_brand = Self::phish_campaign(
            &mut world,
            &brands,
            &pool,
            config.seed.wrapping_add(300),
            config.phish_brand,
            true,
        );

        Corpus {
            world,
            ranker,
            engine,
            brands,
            phish_train,
            phish_test,
            phish_brand,
            leg_train,
            language_tests,
        }
    }

    /// Generates one phishing collection campaign.
    ///
    /// `for_brand_eval` biases the mix for the `phishBrand` replica: every
    /// brand appears as a target and ~3% of kits are hint-less (the
    /// paper's 17/600 unknown-target pages).
    fn phish_campaign(
        world: &mut WebWorld,
        brands: &BrandCorpus,
        compromised_pool: &[String],
        seed: u64,
        count: usize,
        for_brand_eval: bool,
    ) -> Vec<PhishRecord> {
        let mut generator = PhishGenerator::new(seed);
        generator.set_compromised_pool(compromised_pool.to_vec());
        generator.set_decoy_brands(brands.brands().to_vec());
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(1));
        let mut records = Vec::with_capacity(count);
        for i in 0..count {
            let brand = brands.cyclic(if for_brand_eval {
                i // cycle so every brand occurs
            } else {
                rng.gen_range(0..brands.len() * 3) // popular brands repeat
            });
            // Phish follow their victims' languages, mostly English.
            let language = if rng.gen_bool(0.7) {
                Language::English
            } else {
                *[
                    Language::French,
                    Language::German,
                    Language::Italian,
                    Language::Portuguese,
                    Language::Spanish,
                ]
                .choose(&mut rng)
                .expect("languages")
            };
            let evasion = EvasionProfile {
                minimal_text: rng.gen_bool(0.05),
                image_based: rng.gen_bool(0.03),
                typo_terms: rng.gen_bool(0.03),
                no_brand_hint: rng.gen_bool(if for_brand_eval { 0.03 } else { 0.06 }),
                self_contained: rng.gen_bool(0.18),
            };
            // Hosting: realistic mix, with the paper's ~2% IP tail.
            let hosting = if rng.gen_bool(0.02) {
                Some(HostingStrategy::IpHost)
            } else {
                None
            };
            let site = generator.phish_site(world, brand, language, hosting, evasion);
            records.push(PhishRecord {
                url: site.start_url,
                target: site.target,
            });
        }
        records
    }

    /// The English test set (always present).
    pub fn english_test(&self) -> &[String] {
        &self.language_tests[0].1
    }

    /// The four named scrape bundles in their canonical order —
    /// `(name, urls, is_phish)` — shared by the store writer and every
    /// reference that re-scrapes the corpus (tests, benchmarks), so all
    /// of them scrape the exact same pages in the exact same order.
    pub fn scrape_bundles(&self) -> Vec<(&'static str, Vec<String>, bool)> {
        vec![
            (
                "phish_train",
                self.phish_train.iter().map(|r| r.url.clone()).collect(),
                true,
            ),
            (
                "phish_test",
                self.phish_test.iter().map(|r| r.url.clone()).collect(),
                true,
            ),
            ("leg_train", self.leg_train.clone(), false),
            ("leg_test", self.english_test().to_vec(), false),
        ]
    }

    /// Total number of hosted pages/redirects.
    pub fn world_len(&self) -> usize {
        self.world.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kyp_web::Browser;

    fn corpus() -> Corpus {
        Corpus::generate(&CampaignConfig::tiny())
    }

    #[test]
    fn sizes_match_config() {
        let c = corpus();
        let cfg = CampaignConfig::tiny();
        assert_eq!(c.phish_train.len(), cfg.phish_train);
        assert_eq!(c.phish_test.len(), cfg.phish_test);
        assert_eq!(c.phish_brand.len(), cfg.phish_brand);
        assert_eq!(c.leg_train.len(), cfg.leg_train);
        assert_eq!(c.english_test().len(), cfg.english_test);
        assert_eq!(c.language_tests.len(), 6);
        assert_eq!(c.language_tests[3].1.len(), cfg.other_language_test);
    }

    #[test]
    fn every_url_scrapes() {
        let c = corpus();
        let browser = Browser::new(&c.world);
        for r in c
            .phish_train
            .iter()
            .chain(&c.phish_test)
            .chain(&c.phish_brand)
        {
            browser
                .visit(&r.url)
                .unwrap_or_else(|e| panic!("{}: {e}", r.url));
        }
        for u in c.leg_train.iter().chain(c.english_test()) {
            browser.visit(u).unwrap_or_else(|e| panic!("{u}: {e}"));
        }
        for (lang, urls) in &c.language_tests {
            for u in urls {
                browser
                    .visit(u)
                    .unwrap_or_else(|e| panic!("{} {u}: {e}", lang.name()));
            }
        }
    }

    #[test]
    fn brand_targets_are_known_brands() {
        let c = corpus();
        for r in &c.phish_brand {
            if let Some(t) = &r.target {
                assert!(c.brands.by_name(t).is_some(), "unknown target {t}");
            }
        }
        // Most phishBrand entries have a target.
        let with_target = c.phish_brand.iter().filter(|r| r.target.is_some()).count();
        assert!(with_target >= c.phish_brand.len() * 8 / 10);
    }

    #[test]
    fn engine_knows_brand_sites() {
        let c = corpus();
        let hits = c.engine.query_domain("paypago.com", 3);
        assert!(!hits.is_empty());
    }

    #[test]
    fn ranker_covers_brands_not_phishers() {
        let c = corpus();
        assert!(c.ranker.contains("paypago.com"));
        let browser = Browser::new(&c.world);
        // Phisher landing RDNs must be unranked.
        let v = browser.visit(&c.phish_test[0].url).unwrap();
        if let Some(rdn) = v.landing_url.rdn() {
            assert!(!c.ranker.contains(rdn), "phisher rdn {rdn} ranked");
        }
    }

    #[test]
    fn scrape_bundles_follow_generation_order() {
        let c = corpus();
        let bundles = c.scrape_bundles();
        let names: Vec<&str> = bundles.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(
            names,
            ["phish_train", "phish_test", "leg_train", "leg_test"]
        );
        assert_eq!(bundles[0].1[0], c.phish_train[0].url);
        assert_eq!(bundles[2].1, c.leg_train);
        assert!(bundles[0].2 && bundles[1].2);
        assert!(!bundles[2].2 && !bundles[3].2);
    }

    #[test]
    fn deterministic() {
        let a = corpus();
        let b = corpus();
        assert_eq!(a.phish_test[5].url, b.phish_test[5].url);
        assert_eq!(a.leg_train[17], b.leg_train[17]);
        assert_eq!(a.world_len(), b.world_len());
    }

    #[test]
    fn train_and_test_campaigns_differ() {
        let c = corpus();
        let train: std::collections::HashSet<&str> =
            c.phish_train.iter().map(|r| r.url.as_str()).collect();
        let overlap = c
            .phish_test
            .iter()
            .filter(|r| train.contains(r.url.as_str()))
            .count();
        assert_eq!(overlap, 0, "campaigns must not share URLs");
    }
}
