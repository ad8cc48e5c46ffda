//! Feature set f1: 106 URL lexical statistics (paper Table IV).
//!
//! Nine statistics describe a single URL; they are computed for the
//! starting and landing URLs directly (18 features), and features 3–9 are
//! aggregated as mean/median/standard deviation over the four link sets
//! split by control (internal/external logged and HREF links; 84
//! features), plus the https ratio (feature 1) per link set (4 features).

use kyp_text::term_count;
use kyp_url::Url;
use kyp_web::{DomainRanker, VisitedPage};

/// The seven per-URL statistics that get aggregated over link sets
/// (Table IV features 3–9).
const AGG_STATS: [&str; 7] = [
    "level_domains",
    "url_len",
    "fqdn_len",
    "mld_len",
    "url_terms",
    "mld_terms",
    "alexa_rank",
];

/// The nine statistics of a single URL (Table IV order). Shared with the
/// cascade's URL-only featurizer (`crate::cascade`), whose first nine
/// features are exactly this row.
pub(crate) fn single_url_stats(url: &Url, ranker: &DomainRanker) -> [f64; 9] {
    [
        f64::from(url.is_https()),
        url.free_dot_count() as f64,
        url.level_domain_count() as f64,
        url.len() as f64,
        url.fqdn_len() as f64,
        url.mld_len() as f64,
        term_count(url.as_str()) as f64,
        url.mld().map_or(0.0, |m| term_count(m) as f64),
        rank_of(url, ranker),
    ]
}

/// Features 3–9 of one URL (the aggregatable subset).
fn agg_stats(url: &Url, ranker: &DomainRanker) -> [f64; 7] {
    let [_https, _dots, ldc, len, fqdn, mld, terms, mld_terms, rank] =
        single_url_stats(url, ranker);
    [ldc, len, fqdn, mld, terms, mld_terms, rank]
}

/// Alexa rank of the URL's RDN; unranked for IP hosts.
fn rank_of(url: &Url, ranker: &DomainRanker) -> f64 {
    f64::from(url.rdn().map_or(kyp_web::UNRANKED, |rdn| ranker.rank(rdn)))
}

/// Pushes all 106 f1 features.
pub(crate) fn push_f1(
    page: &VisitedPage,
    splits: &crate::features::LinkSplits<'_>,
    ranker: &DomainRanker,
    out: &mut Vec<f64>,
) {
    let start_stats = single_url_stats(&page.starting_url, ranker);
    out.extend(start_stats);
    // Equal URLs yield equal statistics (pure function of the URL), so a
    // page that lands where it started reuses the starting row.
    if page.starting_url == page.landing_url {
        out.extend(start_stats);
    } else {
        out.extend(single_url_stats(&page.landing_url, ranker));
    }

    for set in [
        &splits.intlog,
        &splits.extlog,
        &splits.intlink,
        &splits.extlink,
    ] {
        push_link_set(set, ranker, out);
    }
}

/// 22 features for one link set: https ratio + (mean, median, std) of the
/// seven aggregatable statistics. Empty sets yield zeros (null features).
fn push_link_set(urls: &[&Url], ranker: &DomainRanker, out: &mut Vec<f64>) {
    if urls.is_empty() {
        out.extend(std::iter::repeat_n(0.0, 1 + AGG_STATS.len() * 3));
        return;
    }
    let https = urls.iter().filter(|u| u.is_https()).count() as f64 / urls.len() as f64;
    out.push(https);
    let per_url: Vec<[f64; 7]> = urls.iter().map(|u| agg_stats(u, ranker)).collect();
    let mut column = Vec::with_capacity(urls.len());
    for stat in 0..AGG_STATS.len() {
        column.clear();
        // kyp-lint: allow(P02) — rows are [f64; 7] and stat ranges over AGG_STATS.len() == 7
        column.extend(per_url.iter().map(|row| row[stat]));
        out.push(mean(&column));
        out.push(median(&mut column));
        out.push(std_dev(&column));
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median; sorts its input in place. Empty input yields 0 (the null
/// feature), matching the empty-set convention of [`push_link_set`].
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = values.len();
    let mid = values.get(n / 2).copied().unwrap_or_default();
    if n % 2 == 1 {
        mid
    } else {
        values
            .get((n / 2).wrapping_sub(1))
            .map_or(mid, |&lo| f64::midpoint(lo, mid))
    }
}

/// Population standard deviation.
fn std_dev(values: &[f64]) -> f64 {
    let m = mean(values);
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64).sqrt()
}

/// Pushes the 106 f1 feature names.
pub(crate) fn push_names(names: &mut Vec<String>) {
    const SINGLE: [&str; 9] = [
        "https",
        "freeurl_dots",
        "level_domains",
        "url_len",
        "fqdn_len",
        "mld_len",
        "url_terms",
        "mld_terms",
        "alexa_rank",
    ];
    for stat in SINGLE {
        names.push(format!("f1.start.{stat}"));
    }
    for stat in SINGLE {
        names.push(format!("f1.land.{stat}"));
    }
    for set in ["intlog", "extlog", "intlink", "extlink"] {
        names.push(format!("f1.{set}.https_ratio"));
        for stat in AGG_STATS {
            for agg in ["mean", "median", "std"] {
                names.push(format!("f1.{set}.{stat}.{agg}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::test_pages::{legit, phish, url};

    #[test]
    fn single_url_stats_values() {
        let ranker = DomainRanker::from_ranked(["amazon.co.uk"]);
        let u = url("https://www.amazon.co.uk/ap/signin?_encoding=UTF8");
        let s = single_url_stats(&u, &ranker);
        assert_eq!(s[0], 1.0); // https
        assert_eq!(s[1], 0.0); // no dots in FreeURL parts
        assert_eq!(s[2], 4.0); // www.amazon.co.uk → 4 level domains
        assert_eq!(s[3], u.len() as f64);
        assert_eq!(s[4], "www.amazon.co.uk".len() as f64);
        assert_eq!(s[5], "amazon".len() as f64);
        // terms of the whole URL: https www amazon signin encoding utf
        assert_eq!(s[6], 6.0);
        assert_eq!(s[7], 1.0); // "amazon" is one term
        assert_eq!(s[8], 1.0); // ranked first
    }

    #[test]
    fn dots_counted_in_free_url() {
        let ranker = DomainRanker::new();
        // Subdomain "paypal.com.secure" contributes 2 dots to FreeURL.
        let u = url("http://paypal.com.secure.badhost.tk/a.php");
        let s = single_url_stats(&u, &ranker);
        assert_eq!(s[1], 3.0);
        assert_eq!(s[2], 5.0); // 5 level domains
    }

    #[test]
    fn unranked_domain_gets_default() {
        let ranker = DomainRanker::new();
        let u = url("http://nowhere.example.xyz/");
        let s = single_url_stats(&u, &ranker);
        assert_eq!(s[8], f64::from(kyp_web::UNRANKED));
    }

    #[test]
    fn ip_url_stats_are_null() {
        let ranker = DomainRanker::new();
        let u = url("http://10.0.0.1/login");
        let s = single_url_stats(&u, &ranker);
        assert_eq!(s[2], 0.0); // no level domains
        assert_eq!(s[4], 0.0); // no fqdn length
        assert_eq!(s[5], 0.0); // no mld
        assert_eq!(s[8], f64::from(kyp_web::UNRANKED));
    }

    #[test]
    fn f1_produces_106_features() {
        let mut out = Vec::new();
        push_f1(
            &phish(),
            &crate::features::LinkSplits::of(&phish()),
            &DomainRanker::new(),
            &mut out,
        );
        assert_eq!(out.len(), 106);
        let mut names = Vec::new();
        push_names(&mut names);
        assert_eq!(names.len(), 106);
    }

    #[test]
    fn empty_link_sets_are_zero() {
        let mut p = legit();
        p.logged_links.clear();
        p.href_links.clear();
        let mut out = Vec::new();
        push_f1(
            &p,
            &crate::features::LinkSplits::of(&p),
            &DomainRanker::new(),
            &mut out,
        );
        // The four link-set blocks (positions 18..106) must all be zero.
        assert!(out[18..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn aggregates_are_consistent() {
        let mut vals = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&vals), 2.5);
        assert_eq!(median(&mut vals), 2.5);
        let mut odd = vec![5.0, 1.0, 3.0];
        assert_eq!(median(&mut odd), 3.0);
        assert!((std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.0).abs() < 1e-12);
        assert_eq!(std_dev(&[3.0]), 0.0);
    }

    #[test]
    fn https_ratio_reflects_links() {
        let p = phish();
        let mut out = Vec::new();
        push_f1(
            &p,
            &crate::features::LinkSplits::of(&p),
            &DomainRanker::new(),
            &mut out,
        );
        // extlog set = the two https paypal.com resources → ratio 1.0.
        let extlog_https = out[18 + 22];
        assert_eq!(extlog_https, 1.0);
        // intlog set = the single http badhost resource → ratio 0.0.
        let intlog_https = out[18];
        assert_eq!(intlog_https, 0.0);
    }
}
