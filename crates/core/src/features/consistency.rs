//! Feature set f2: 66 term-usage-consistency features — the pairwise
//! (squared) Hellinger distances between the 12 term distributions of
//! Table I, excluding copyright and image (Section IV-B).
//!
//! The conjecture these features encode: legitimate pages use the same
//! key terms coherently across *all* their parts (a bank's text, title,
//! domain name and internal links all spell the brand), while a phish can
//! only imitate the parts its author controls — the registrar-constrained
//! RDN and the uncontrolled external links betray the inconsistency.

use crate::features::{ConsistencyMetric, LinkSplits};
use crate::{DataSources, Source};
use kyp_text::TermDictionary;
use kyp_web::ocr::{simulate_ocr, OcrConfig};
use kyp_web::VisitedPage;

/// One distinct term of a source in the f2 pair table.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// The term's dictionary id.
    id: u32,
    /// `count / total`.
    p: f64,
    /// `p.sqrt()`.
    sqrt_p: f64,
}

/// The f2 id kernel's tables over a page's sources: each source's run as
/// `(id, p, √p)` entries, and a dense row of `√p` per source indexed by
/// term id, 0.0 where the source lacks the term.
///
/// Every term of a non-empty source has `p ≥ 1/total > 0`, so a 0.0 in a
/// row means "absent". Ids follow lexicographic term order, so walking a
/// run visits terms in the order the string-keyed merge walk did, with
/// the same `f64` operands: every distance keeps its bits.
struct PairTable {
    /// All sources' entries, source after source.
    entries: Vec<Entry>,
    /// Per source: its entries' range in `entries`.
    spans: Vec<(usize, usize)>,
    /// Per source: a row of `width` `√p` values.
    rows: Vec<f64>,
    /// Distinct terms on the page (row length).
    width: usize,
}

impl PairTable {
    /// Tables for the dictionary sources `slots`, in order.
    fn build(dict: &TermDictionary, slots: &[usize]) -> Self {
        let width = dict.len();
        let mut table = PairTable {
            entries: Vec::with_capacity(slots.iter().map(|&s| dict.run(s).len()).sum()),
            spans: Vec::with_capacity(slots.len()),
            rows: vec![0.0; slots.len() * width],
            width,
        };
        for (k, &slot) in slots.iter().enumerate() {
            let start = table.entries.len();
            let total = f64::from(dict.total(slot)).max(1.0);
            let row = table
                .rows
                .get_mut(k * width..(k + 1) * width)
                .unwrap_or_default();
            for &(id, count) in dict.run(slot) {
                let p = f64::from(count) / total;
                let sqrt_p = p.sqrt();
                table.entries.push(Entry { id, p, sqrt_p });
                if let Some(cell) = row.get_mut(id as usize) {
                    *cell = sqrt_p;
                }
            }
            table.spans.push((start, table.entries.len()));
        }
        table
    }

    /// Source `k`'s entries and its dense row.
    fn operand(&self, k: usize) -> (&[Entry], &[f64]) {
        let entries = self
            .spans
            .get(k)
            .and_then(|&(s, e)| self.entries.get(s..e))
            .unwrap_or_default();
        let row = self
            .rows
            .get(k * self.width..(k + 1) * self.width)
            .unwrap_or_default();
        (entries, row)
    }

    /// The f2 distance between sources `a` and `b` (positions in the
    /// build order); 0.0 — the paper's null feature — when either is
    /// empty.
    ///
    /// Hellinger (Eq. 1) runs the two passes of the merge walk it
    /// replaces: pass 1 walks `a`'s terms in order reading `b`'s `√p`
    /// from its row, pass 2 walks `b`'s terms adding `p` wherever `a`'s
    /// row holds 0. Jaccard counts `a`'s terms that `b`'s row holds.
    fn distance(&self, a: usize, b: usize, metric: ConsistencyMetric) -> f64 {
        let ((run_a, row_a), (run_b, row_b)) = (self.operand(a), self.operand(b));
        if run_a.is_empty() || run_b.is_empty() {
            return 0.0;
        }
        let sqrt_in = |row: &[f64], id: u32| row.get(id as usize).copied().unwrap_or(0.0);
        match metric {
            ConsistencyMetric::Hellinger => {
                let mut sum = 0.0;
                for e in run_a {
                    let d = e.sqrt_p - sqrt_in(row_b, e.id);
                    sum += d * d;
                }
                for e in run_b {
                    if sqrt_in(row_a, e.id) == 0.0 {
                        sum += e.p;
                    }
                }
                (sum / 2.0).clamp(0.0, 1.0)
            }
            ConsistencyMetric::Jaccard => {
                let shared = run_a.iter().filter(|e| sqrt_in(row_b, e.id) != 0.0).count();
                let union = run_a.len() + run_b.len() - shared;
                1.0 - shared as f64 / union as f64
            }
        }
    }
}

/// Pushes the pairwise distances for all pairs `(i, j)` with `i < j` over
/// `order`.
fn push_pairs(
    sources: &DataSources,
    order: &[Source],
    metric: ConsistencyMetric,
    out: &mut Vec<f64>,
) {
    let slots: Vec<usize> = order.iter().map(|&s| sources.dictionary_slot(s)).collect();
    let table = PairTable::build(sources.dictionary(), &slots);
    for a in 0..slots.len() {
        for b in a + 1..slots.len() {
            out.push(table.distance(a, b, metric));
        }
    }
}

/// Pushes the 66 f2 features: pairwise distances for all pairs `(i, j)`
/// with `i < j` over [`Source::F2`]. Pairs involving an empty
/// distribution yield 0 (the paper's null features).
pub(crate) fn push_f2(sources: &DataSources, metric: ConsistencyMetric, out: &mut Vec<f64>) {
    push_pairs(sources, &Source::F2, metric, out);
}

/// Pushes the 91 extended f2 features: the 12 standard distributions plus
/// copyright and the OCR-read image distribution (all of Table I),
/// pairwise. The paper discarded copyright (often empty) and image (OCR
/// is slow); this is the extension path for the DESIGN.md ablation. The
/// OCR read is interned as [`Source::Image`] into the page's sources
/// again, with the same link availability.
pub(crate) fn push_f2_extended(
    page: &VisitedPage,
    sources: &DataSources,
    splits: &LinkSplits<'_>,
    ocr: &OcrConfig,
    metric: ConsistencyMetric,
    out: &mut Vec<f64>,
) {
    let read = simulate_ocr(&page.screenshot_text, ocr);
    let extended = sources.with_image(page, splits, &read);
    push_pairs(&extended, &Source::ALL, metric, out);
}

/// Pushes the 66 f2 feature names (`f2.hellinger.text~title`, ...).
pub(crate) fn push_names(names: &mut Vec<String>) {
    for (i, a) in Source::F2.iter().enumerate() {
        for b in &Source::F2[i + 1..] {
            names.push(format!("f2.hellinger.{}~{}", a.name(), b.name()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::test_pages::{legit, phish};

    fn f2_of(page: &kyp_web::VisitedPage) -> Vec<f64> {
        let sources = DataSources::from_page(page);
        let mut out = Vec::new();
        push_f2(&sources, ConsistencyMetric::Hellinger, &mut out);
        out
    }

    #[test]
    fn produces_66_features_in_unit_interval() {
        for page in [phish(), legit()] {
            let out = f2_of(&page);
            assert_eq!(out.len(), 66);
            assert!(out.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn names_align() {
        let mut names = Vec::new();
        push_names(&mut names);
        assert_eq!(names.len(), 66);
        assert_eq!(names[0], "f2.hellinger.text~title");
        assert_eq!(names[65], "f2.hellinger.extlog~extlink");
    }

    #[test]
    fn phish_rdn_inconsistency_shows() {
        // For the phish, the landing RDN (badhost.tk) shares nothing with
        // the title (PayPal Secure Login): distance should be 1.
        let names = {
            let mut n = Vec::new();
            push_names(&mut n);
            n
        };
        let phish_f2 = f2_of(&phish());
        let idx = names
            .iter()
            .position(|n| n == "f2.hellinger.title~landrdn")
            .unwrap();
        assert!(
            phish_f2[idx] > 0.99,
            "phish title~landrdn = {}",
            phish_f2[idx]
        );

        // For the legitimate page, the brand term appears in both.
        let legit_f2 = f2_of(&legit());
        assert!(
            legit_f2[idx] < phish_f2[idx],
            "legit {} vs phish {}",
            legit_f2[idx],
            phish_f2[idx]
        );
    }

    #[test]
    fn jaccard_metric_also_bounded() {
        let sources = DataSources::from_page(&phish());
        let mut out = Vec::new();
        push_f2(&sources, ConsistencyMetric::Jaccard, &mut out);
        assert_eq!(out.len(), 66);
        assert!(out.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn extended_produces_91_features() {
        let page = phish();
        let sources = DataSources::from_page(&page);
        let mut out = Vec::new();
        push_f2_extended(
            &page,
            &sources,
            &LinkSplits::of(&page),
            &kyp_web::ocr::OcrConfig::default(),
            ConsistencyMetric::Hellinger,
            &mut out,
        );
        assert_eq!(out.len(), 91);
        assert!(out.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn empty_sources_are_null_not_extreme() {
        let mut p = phish();
        p.text.clear();
        p.title.clear();
        let out = f2_of(&p);
        // text~title pair (index 0) must be 0, not 1.
        assert_eq!(out[0], 0.0);
    }

    #[test]
    fn id_kernel_matches_pairwise_distances_bitwise() {
        // The kernel must reproduce TermDistribution's merge walks bit
        // for bit, in both orders of each pair.
        let texts = [
            "one two three three",
            "two three four",
            "pay pal paypal bank pay",
            "pay bank banking online pal",
            // Long terms sharing an eight-byte prefix exercise the
            // dictionary's tail tie-break.
            "longprefixalpha longprefixbeta longprefix",
            "longprefixalpha longprefixgamma",
            "Café Zürich sign-in",
            "cafe zurich login",
            "zzz yyy xxx www aaa",
            "aaa bbb ccc",
            "aaa bbb ccc",
        ];
        let mut builder = kyp_text::DictionaryBuilder::new(texts.len());
        for (slot, text) in texts.iter().enumerate() {
            builder.push(slot, text);
        }
        let dict = builder.into_dictionary();
        let slots: Vec<usize> = (0..texts.len()).collect();
        let table = PairTable::build(&dict, &slots);
        for metric in [ConsistencyMetric::Hellinger, ConsistencyMetric::Jaccard] {
            for (a, x) in texts.iter().enumerate() {
                for (b, y) in texts.iter().enumerate() {
                    let (dx, dy) = (
                        kyp_text::TermDistribution::from_text(x),
                        kyp_text::TermDistribution::from_text(y),
                    );
                    let want = match metric {
                        ConsistencyMetric::Hellinger => dx.hellinger_squared(&dy),
                        ConsistencyMetric::Jaccard => dx.jaccard_distance(&dy),
                    };
                    assert_eq!(
                        table.distance(a, b, metric).to_bits(),
                        want.expect("non-empty").to_bits(),
                        "{metric:?} {x:?} vs {y:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn id_kernel_empty_source_is_null() {
        let mut builder = kyp_text::DictionaryBuilder::new(3);
        builder.push(0, "alpha beta");
        builder.push(2, "12 !!");
        let dict = builder.into_dictionary();
        let table = PairTable::build(&dict, &[0, 1, 2]);
        for metric in [ConsistencyMetric::Hellinger, ConsistencyMetric::Jaccard] {
            assert_eq!(table.distance(0, 1, metric), 0.0);
            assert_eq!(table.distance(1, 0, metric), 0.0);
            assert_eq!(table.distance(2, 0, metric), 0.0);
            assert_eq!(table.distance(1, 2, metric), 0.0);
        }
        // A page without a single term still gives a table.
        let none = kyp_text::DictionaryBuilder::new(2).into_dictionary();
        let table = PairTable::build(&none, &[0, 1]);
        assert_eq!(table.distance(0, 1, ConsistencyMetric::Hellinger), 0.0);
    }
}
