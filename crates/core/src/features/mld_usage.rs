//! Feature set f3: 22 features on the usage of the starting and landing
//! mld across the page (Section IV-B).
//!
//! Legitimate sites register domains that spell their brand, so the mld
//! reappears in the text, title and link URLs; phishing domains have no
//! relation to the page's purported brand. Twelve binary features test
//! whether the mld occurs as a term in {text, title, intlog, extlog,
//! intlink, extlink} (6 per mld), and ten features sum the probability
//! mass of terms that are substrings of the mld over {title, intlog,
//! extlog, intlink, extlink} (5 per mld; text is excluded — its many short
//! terms would match spuriously).

use crate::{DataSources, Source};
use kyp_text::canonicalize_char;
use kyp_web::VisitedPage;

/// Canonical letter-only form of an mld: `secure-login2` → `securelogin`.
///
/// The mld may contain digits and hyphens which term extraction would
/// split on; comparisons use the letters only.
pub fn canonical_mld(mld: &str) -> String {
    mld.chars().filter_map(canonicalize_char).collect()
}

/// Sources of the binary "mld is a term of" features, in feature order.
const BINARY_SOURCES: [Source; 6] = [
    Source::Text,
    Source::Title,
    Source::Intlog,
    Source::Extlog,
    Source::Intlink,
    Source::Extlink,
];

/// Sources of the substring-mass features, in feature order.
const MASS_SOURCES: [Source; 5] = [
    Source::Title,
    Source::Intlog,
    Source::Extlog,
    Source::Intlink,
    Source::Extlink,
];

/// One mld's 6 binary and 5 mass features.
fn mld_row(sources: &DataSources, mld: &str) -> ([f64; 6], [f64; 5]) {
    if mld.is_empty() {
        return ([0.0; 6], [0.0; 5]);
    }
    let dict = sources.dictionary();
    // The mld is looked up once; each source then searches its run for
    // the id.
    let id = dict.find(mld);
    let binary = BINARY_SOURCES.map(|s| {
        f64::from(id.is_some_and(|id| sources.run(s).binary_search_by_key(&id, |e| e.0).is_ok()))
    });
    // `mld.contains(term)` is decided once per distinct term of the mass
    // sources.
    let mut spelled: Vec<Option<bool>> = vec![None; dict.len()];
    let mass = MASS_SOURCES.map(|s| {
        let total = f64::from(sources.total(s)).max(1.0);
        sources
            .run(s)
            .iter()
            .filter(|&&(id, _)| {
                spelled
                    .get_mut(id as usize)
                    .is_some_and(|known| *known.get_or_insert_with(|| mld.contains(dict.term(id))))
            })
            .map(|&(_, count)| f64::from(count) / total)
            .sum()
    });
    (binary, mass)
}

pub(crate) fn push_f3(page: &VisitedPage, sources: &DataSources, out: &mut Vec<f64>) {
    let start_mld = page
        .starting_url
        .mld()
        .map(canonical_mld)
        .unwrap_or_default();
    let land_mld = page
        .landing_url
        .mld()
        .map(canonical_mld)
        .unwrap_or_default();

    // Both rows are pure functions of the mld, so when starting and
    // landing mld coincide (no cross-domain redirect) the landing row is
    // the starting row, not a recomputation.
    let (start_binary, start_mass) = mld_row(sources, &start_mld);
    let (land_binary, land_mass) = if start_mld == land_mld {
        (start_binary, start_mass)
    } else {
        mld_row(sources, &land_mld)
    };
    out.extend(start_binary);
    out.extend(land_binary);
    out.extend(start_mass);
    out.extend(land_mass);
}

pub(crate) fn push_names(names: &mut Vec<String>) {
    for which in ["start", "land"] {
        for src in ["text", "title", "intlog", "extlog", "intlink", "extlink"] {
            names.push(format!("f3.{which}_mld.in.{src}"));
        }
    }
    for which in ["start", "land"] {
        for src in ["title", "intlog", "extlog", "intlink", "extlink"] {
            names.push(format!("f3.{which}_mld.mass.{src}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::test_pages::{legit, phish};

    fn f3_of(page: &kyp_web::VisitedPage) -> Vec<f64> {
        let sources = DataSources::from_page(page);
        let mut out = Vec::new();
        push_f3(page, &sources, &mut out);
        out
    }

    #[test]
    fn produces_22_features() {
        assert_eq!(f3_of(&phish()).len(), 22);
        let mut names = Vec::new();
        push_names(&mut names);
        assert_eq!(names.len(), 22);
    }

    #[test]
    fn legit_mld_appears_in_sources() {
        // legit() lands on www.mybank.com and its text contains "mybank".
        let out = f3_of(&legit());
        let names = {
            let mut n = Vec::new();
            push_names(&mut n);
            n
        };
        let idx = names
            .iter()
            .position(|n| n == "f3.land_mld.in.text")
            .unwrap();
        assert_eq!(out[idx], 1.0);
        // intlink FreeURL contains "mybank" in a path segment.
        let idx2 = names
            .iter()
            .position(|n| n == "f3.land_mld.in.intlink")
            .unwrap();
        assert_eq!(out[idx2], 1.0);
    }

    #[test]
    fn phish_mld_absent_from_sources() {
        // phish() is hosted on badhost.tk; "badhost" never appears in
        // text or title.
        let out = f3_of(&phish());
        let names = {
            let mut n = Vec::new();
            push_names(&mut n);
            n
        };
        for probe in ["f3.land_mld.in.text", "f3.land_mld.in.title"] {
            let idx = names.iter().position(|n| n == probe).unwrap();
            assert_eq!(out[idx], 0.0, "{probe}");
        }
    }

    #[test]
    fn canonical_mld_strips_separators() {
        assert_eq!(canonical_mld("pay-pal"), "paypal");
        assert_eq!(canonical_mld("secure2bank"), "securebank");
        assert_eq!(canonical_mld("BANKofAmérica"), "bankofamerica");
        assert_eq!(canonical_mld("123"), "");
    }

    #[test]
    fn ip_url_gives_zero_features() {
        let mut p = phish();
        p.starting_url = crate::features::test_pages::url("http://10.0.0.1/x");
        p.landing_url = p.starting_url.clone();
        p.redirection_chain = vec![p.starting_url.clone()];
        let out = f3_of(&p);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn substring_mass_rewards_brand_spelling_domains() {
        // The legitimate page's internal links live on mybank.com, and
        // title contains "mybank": mass features should be positive.
        let out = f3_of(&legit());
        let names = {
            let mut n = Vec::new();
            push_names(&mut n);
            n
        };
        let idx = names
            .iter()
            .position(|n| n == "f3.land_mld.mass.title")
            .unwrap();
        assert!(out[idx] > 0.0);
    }
}
