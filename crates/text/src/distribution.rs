use crate::{DictionaryBuilder, MIN_TERM_LEN};
use serde::{Deserialize, Serialize};

/// A term distribution `D_S`: the terms of a data source with their
/// relative frequencies (Section III-B).
///
/// The distribution is stored as raw counts so distributions can be merged
/// cheaply; probabilities are derived on demand. Internally the distinct
/// terms live concatenated in one `String` with a `(start, end, count)`
/// span table sorted by term: lookups are a binary search over contiguous
/// memory, and the pairwise distances walk two sorted tables in lockstep.
/// Text is turned into terms by a one-source [`crate::TermDictionary`];
/// the feature extractor reads a whole page's sources from one dictionary
/// instead of building a distribution per source. The JSON form is
/// unchanged from the original tree-backed representation (`counts` as a
/// sorted object).
///
/// # Examples
///
/// ```
/// use kyp_text::TermDistribution;
///
/// let d = TermDistribution::from_text("pay pal pay");
/// assert_eq!(d.probability("pay"), 2.0 / 3.0);
/// assert_eq!(d.probability("pal"), 1.0 / 3.0);
/// assert_eq!(d.probability("bank"), 0.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TermDistribution {
    /// Distinct terms in lexicographic order, concatenated back to back.
    terms: String,
    /// `(start, end, count)` per distinct term, in term order. The
    /// representation is canonical (offsets follow from the sorted terms),
    /// so derived equality matches logical equality.
    spans: Vec<(u32, u32, u32)>,
    total: u32,
}

/// Appends one distinct term to a `(terms, spans)` table under
/// construction.
#[inline]
fn push_entry(terms: &mut String, spans: &mut Vec<(u32, u32, u32)>, term: &str, count: u32) {
    let start = terms.len() as u32;
    terms.push_str(term);
    spans.push((start, terms.len() as u32, count));
}

impl TermDistribution {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a distribution from raw text using the paper's term
    /// extraction rules.
    pub fn from_text(text: &str) -> Self {
        Self::from_texts([text])
    }

    /// Builds a distribution from several texts (e.g. the FreeURL parts of
    /// a whole set of links), through a one-source [`DictionaryBuilder`].
    pub fn from_texts<I, S>(texts: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut builder = DictionaryBuilder::new(1);
        for t in texts {
            builder.push(0, t.as_ref());
        }
        builder.into_dictionary().distribution(0)
    }

    /// Builds a distribution from distinct terms in ascending order with
    /// their counts, and the total those counts sum to.
    pub(crate) fn from_sorted_counts<'t>(
        counts: impl Iterator<Item = (&'t str, u32)>,
        total: u32,
    ) -> Self {
        let mut terms = String::new();
        let mut spans = Vec::new();
        for (t, c) in counts {
            push_entry(&mut terms, &mut spans, t, c);
        }
        TermDistribution {
            terms,
            spans,
            total,
        }
    }

    /// Builds a distribution from already-extracted terms.
    pub fn from_terms<I, S>(terms: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut all: Vec<String> = terms.into_iter().map(Into::into).collect();
        debug_assert!(
            all.iter()
                .all(|term| term.len() >= MIN_TERM_LEN
                    && term.chars().all(|c| c.is_ascii_lowercase())),
            "terms are not canonical"
        );
        let total = all.len() as u32;
        all.sort_unstable();
        let mut terms = String::new();
        let mut spans: Vec<(u32, u32, u32)> = Vec::new();
        for term in &all {
            match spans.last_mut() {
                Some(last) if terms[last.0 as usize..last.1 as usize] == **term => last.2 += 1,
                _ => push_entry(&mut terms, &mut spans, term, 1),
            }
        }
        TermDistribution {
            terms,
            spans,
            total,
        }
    }

    /// The `i`-th distinct term (term order).
    #[inline]
    fn term_at(&self, i: usize) -> &str {
        let (s, e, _) = self.spans[i];
        &self.terms[s as usize..e as usize]
    }

    /// Raw count of the `i`-th distinct term.
    #[inline]
    fn count_at(&self, i: usize) -> u32 {
        self.spans[i].2
    }

    /// Adds one occurrence of an (already canonical) term.
    pub fn add_term(&mut self, term: String) {
        debug_assert!(
            term.len() >= crate::MIN_TERM_LEN && term.chars().all(|c| c.is_ascii_lowercase()),
            "term {term:?} is not canonical"
        );
        match self
            .spans
            .binary_search_by(|&(s, e, _)| self.terms[s as usize..e as usize].cmp(&term))
        {
            Ok(i) => self.spans[i].2 += 1,
            Err(i) => {
                // Insert the term's bytes where the displaced span started
                // (or at the end), shifting the following offsets.
                let at = self
                    .spans
                    .get(i)
                    .map_or(self.terms.len(), |&(s, _, _)| s as usize);
                self.terms.insert_str(at, &term);
                let len = term.len() as u32;
                for span in &mut self.spans[i..] {
                    span.0 += len;
                    span.1 += len;
                }
                self.spans
                    .insert(i, (at as u32, (at + term.len()) as u32, 1));
            }
        }
        self.total += 1;
    }

    /// Merges another distribution into this one (one pass over both
    /// sorted count tables).
    pub fn merge(&mut self, other: &TermDistribution) {
        if other.spans.is_empty() {
            self.total += other.total;
            return;
        }
        let mut terms = String::with_capacity(self.terms.len() + other.terms.len());
        let mut spans = Vec::with_capacity(self.spans.len() + other.spans.len());
        let (mut i, mut j) = (0, 0);
        while i < self.spans.len() && j < other.spans.len() {
            let (a, b) = (self.term_at(i), other.term_at(j));
            match a.cmp(b) {
                std::cmp::Ordering::Less => {
                    push_entry(&mut terms, &mut spans, a, self.count_at(i));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    push_entry(&mut terms, &mut spans, b, other.count_at(j));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    push_entry(
                        &mut terms,
                        &mut spans,
                        a,
                        self.count_at(i) + other.count_at(j),
                    );
                    i += 1;
                    j += 1;
                }
            }
        }
        for k in i..self.spans.len() {
            push_entry(&mut terms, &mut spans, self.term_at(k), self.count_at(k));
        }
        for k in j..other.spans.len() {
            push_entry(&mut terms, &mut spans, other.term_at(k), other.count_at(k));
        }
        self.terms = terms;
        self.spans = spans;
        self.total += other.total;
    }

    /// Index of `term` in the sorted span table, if present.
    #[inline]
    fn find(&self, term: &str) -> Option<usize> {
        self.spans
            .binary_search_by(|&(s, e, _)| self.terms[s as usize..e as usize].cmp(term))
            .ok()
    }

    /// Number of *distinct* terms.
    pub fn distinct_len(&self) -> usize {
        self.spans.len()
    }

    /// Total number of term occurrences.
    pub fn total_count(&self) -> u32 {
        self.total
    }

    /// `true` when no terms were extracted. Empty distributions yield the
    /// paper's "null features" (Section VII-B, IP-based URLs).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The probability `p_i` of a term (0.0 for absent terms).
    pub fn probability(&self, term: &str) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        f64::from(self.find(term).map_or(0, |i| self.count_at(i))) / f64::from(self.total)
    }

    /// Raw occurrence count of a term.
    pub fn count(&self, term: &str) -> u32 {
        self.find(term).map_or(0, |i| self.count_at(i))
    }

    /// `true` when the term occurs at least once.
    pub fn contains(&self, term: &str) -> bool {
        self.find(term).is_some()
    }

    /// Iterates over `(term, probability)` pairs in lexicographic term
    /// order (deterministic, so float accumulations are reproducible).
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        let total = f64::from(self.total.max(1));
        self.spans
            .iter()
            .map(move |&(s, e, c)| (&self.terms[s as usize..e as usize], f64::from(c) / total))
    }

    /// Iterates over the distinct terms.
    pub fn terms(&self) -> impl Iterator<Item = &str> + '_ {
        self.spans
            .iter()
            .map(|&(s, e, _)| &self.terms[s as usize..e as usize])
    }

    /// The squared Hellinger distance between two distributions
    /// (paper Equation 1):
    ///
    /// `H²(P,Q) = ½ Σ_{x ∈ P∪Q} (√P(x) − √Q(x))²`
    ///
    /// Bounded in `[0, 1]`: `0` means identical distributions, `1` means
    /// disjoint supports.
    ///
    /// Returns `None` when either distribution is empty — the paper treats
    /// comparisons with empty sources as *null features* rather than
    /// extreme distances.
    ///
    /// Both sorted count tables are walked in lockstep, but the float
    /// accumulation order is exactly the original two-pass order (all of
    /// `self`'s terms, then the terms only in `other`), so the result is
    /// bit-identical to the tree-backed implementation.
    pub fn hellinger_squared(&self, other: &TermDistribution) -> Option<f64> {
        if self.is_empty() || other.is_empty() {
            return None;
        }
        let p_total = f64::from(self.total.max(1));
        let q_total = f64::from(other.total);
        let mut sum = 0.0;
        // Pass 1: every term of `self` in sorted order; `other`'s matching
        // count is found by advancing a merge cursor instead of a lookup.
        let mut j = 0;
        for i in 0..self.spans.len() {
            let t = self.term_at(i);
            let p = f64::from(self.count_at(i)) / p_total;
            while j < other.spans.len() && other.term_at(j) < t {
                j += 1;
            }
            let q = if j < other.spans.len() && other.term_at(j) == t {
                f64::from(other.count_at(j)) / q_total
            } else {
                0.0
            };
            let d = p.sqrt() - q.sqrt();
            sum += d * d;
        }
        // Pass 2: terms only in `other` — P(x) = 0 so the contribution is
        // Q(x) — again found by a merge cursor over `self`.
        let q_total = f64::from(other.total.max(1));
        let mut i = 0;
        for j in 0..other.spans.len() {
            let t = other.term_at(j);
            while i < self.spans.len() && self.term_at(i) < t {
                i += 1;
            }
            if i < self.spans.len() && self.term_at(i) == t {
                continue;
            }
            sum += f64::from(other.count_at(j)) / q_total;
        }
        Some((sum / 2.0).clamp(0.0, 1.0))
    }

    /// Jaccard distance between the *term sets* (ignoring frequencies):
    /// `1 − |A∩B| / |A∪B|`, in `[0, 1]`.
    ///
    /// A naive alternative to [`hellinger_squared`] used by the design
    /// ablations: it discards how often terms are used, which is exactly
    /// the information the paper's consistency conjecture relies on.
    /// Returns `None` when either distribution is empty, mirroring the
    /// null-feature convention.
    ///
    /// [`hellinger_squared`]: TermDistribution::hellinger_squared
    pub fn jaccard_distance(&self, other: &TermDistribution) -> Option<f64> {
        if self.is_empty() || other.is_empty() {
            return None;
        }
        // Intersection size via a merge walk over both sorted tables.
        let mut intersection = 0usize;
        let (mut i, mut j) = (0, 0);
        while i < self.spans.len() && j < other.spans.len() {
            match self.term_at(i).cmp(other.term_at(j)) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    intersection += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let union = self.distinct_len() + other.distinct_len() - intersection;
        Some(1.0 - intersection as f64 / union as f64)
    }

    /// Sum of probability mass of terms that are substrings of `needle`
    /// (used by the f3 features: how much of a source's mass "spells out"
    /// the starting/landing mld).
    pub fn substring_mass_of(&self, needle: &str) -> f64 {
        self.iter()
            .filter(|(t, _)| needle.contains(t))
            .map(|(_, p)| p)
            .sum()
    }
}

// Hand-written (de)serialization: `counts` must keep its original JSON
// shape — an object with sorted member names — even though the backing
// store is now a sorted vector rather than a tree. The vector is already
// in member order, so serialization is a direct copy.
impl Serialize for TermDistribution {
    fn to_json_value(&self) -> serde::Value {
        let members: serde::Object = self
            .spans
            .iter()
            .map(|&(s, e, c)| {
                (
                    self.terms[s as usize..e as usize].to_string(),
                    c.to_json_value(),
                )
            })
            .collect();
        serde::Value::Object(vec![
            ("counts".to_string(), serde::Value::Object(members)),
            ("total".to_string(), self.total.to_json_value()),
        ])
    }
}

impl Deserialize for TermDistribution {
    fn from_json_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let fields = value
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for TermDistribution"))?;
        let members = serde::obj_get(fields, "counts")
            .as_object()
            .ok_or_else(|| serde::Error::custom("TermDistribution.counts: expected object"))?;
        let mut counts = Vec::with_capacity(members.len());
        for (t, v) in members {
            counts.push((
                t.clone(),
                u32::from_json_value(v).map_err(|e| {
                    serde::Error::custom(format!("TermDistribution.counts[{t:?}]: {e}"))
                })?,
            ));
        }
        // Tolerate out-of-order members from hand-edited fixtures; the
        // invariant is a sorted table.
        counts.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let total = u32::from_json_value(serde::obj_get(fields, "total"))
            .map_err(|e| serde::Error::custom(format!("TermDistribution.total: {e}")))?;
        Ok(Self::from_sorted_counts(
            counts.iter().map(|(t, c)| (t.as_str(), *c)),
            total,
        ))
    }
}

impl FromIterator<String> for TermDistribution {
    fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
        Self::from_terms(iter)
    }
}

impl Extend<String> for TermDistribution {
    fn extend<I: IntoIterator<Item = String>>(&mut self, iter: I) {
        self.merge(&Self::from_terms(iter));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(text: &str) -> TermDistribution {
        TermDistribution::from_text(text)
    }

    #[test]
    fn probabilities_sum_to_one() {
        let d = dist("alpha beta beta gamma gamma gamma");
        let sum: f64 = d.iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(d.total_count(), 6);
        assert_eq!(d.distinct_len(), 3);
    }

    #[test]
    fn identical_distributions_have_zero_distance() {
        let a = dist("secure bank login bank");
        let b = dist("bank secure bank login");
        assert_eq!(a.hellinger_squared(&b), Some(0.0));
    }

    #[test]
    fn disjoint_distributions_have_distance_one() {
        let a = dist("alpha beta");
        let b = dist("gamma delta");
        let h = a.hellinger_squared(&b).unwrap();
        assert!((h - 1.0).abs() < 1e-12, "h = {h}");
    }

    #[test]
    fn distance_is_symmetric() {
        let a = dist("one two three three");
        let b = dist("two three four");
        let ab = a.hellinger_squared(&b).unwrap();
        let ba = b.hellinger_squared(&a).unwrap();
        assert!((ab - ba).abs() < 1e-12);
        assert!(ab > 0.0 && ab < 1.0);
    }

    #[test]
    fn hellinger_matches_naive_lookup_implementation() {
        // The merge-walk must reproduce the original two-pass
        // "iterate + probability() lookup" accumulation bit for bit.
        let pairs = [
            ("one two three three", "two three four"),
            ("alpha beta", "gamma delta"),
            ("pay pal paypal bank pay", "pay bank banking online pal"),
            ("aaa bbb ccc", "aaa bbb ccc"),
            ("zzz yyy xxx www", "aaa zzz mmm"),
        ];
        for (x, y) in pairs {
            let a = dist(x);
            let b = dist(y);
            let mut sum = 0.0;
            for (t, p) in a.iter() {
                let q = b.probability(t);
                let d = p.sqrt() - q.sqrt();
                sum += d * d;
            }
            for (t, q) in b.iter() {
                if !a.contains(t) {
                    sum += q;
                }
            }
            let naive = (sum / 2.0).clamp(0.0, 1.0);
            assert_eq!(
                a.hellinger_squared(&b).unwrap().to_bits(),
                naive.to_bits(),
                "{x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn empty_distribution_yields_null_feature() {
        let a = dist("alpha beta");
        let empty = TermDistribution::new();
        assert_eq!(a.hellinger_squared(&empty), None);
        assert_eq!(empty.hellinger_squared(&a), None);
        assert_eq!(empty.hellinger_squared(&empty), None);
        assert!(empty.is_empty());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = dist("alpha beta");
        let b = dist("beta gamma");
        a.merge(&b);
        assert_eq!(a.count("beta"), 2);
        assert_eq!(a.total_count(), 4);
        assert_eq!(a.distinct_len(), 3);
        let terms: Vec<&str> = a.terms().collect();
        assert_eq!(terms, ["alpha", "beta", "gamma"], "stays sorted");
    }

    #[test]
    fn jaccard_bounds_and_symmetry() {
        let a = dist("alpha beta gamma");
        let b = dist("beta gamma delta");
        let ab = a.jaccard_distance(&b).unwrap();
        assert_eq!(ab, b.jaccard_distance(&a).unwrap());
        assert!((ab - 0.5).abs() < 1e-12, "2 shared of 4 distinct: {ab}");
        assert_eq!(a.jaccard_distance(&a), Some(0.0));
        let c = dist("zeta");
        assert_eq!(a.jaccard_distance(&c), Some(1.0));
        assert_eq!(a.jaccard_distance(&TermDistribution::new()), None);
    }

    #[test]
    fn jaccard_ignores_frequencies_hellinger_does_not() {
        let balanced = dist("alpha beta");
        let skewed = dist("alpha alpha alpha alpha alpha alpha alpha beta");
        assert_eq!(balanced.jaccard_distance(&skewed), Some(0.0));
        assert!(balanced.hellinger_squared(&skewed).unwrap() > 0.05);
    }

    #[test]
    fn substring_mass() {
        let d = dist("pay pal paypal bank");
        // needle "paypal" contains "pay", "pal" and "paypal" but not "bank".
        let mass = d.substring_mass_of("paypal");
        assert!((mass - 0.75).abs() < 1e-12);
        assert_eq!(d.substring_mass_of("zzz"), 0.0);
    }

    #[test]
    fn from_texts_and_extend() {
        let d = TermDistribution::from_texts(["alpha beta", "beta gamma"]);
        assert_eq!(d.count("beta"), 2);
        let mut d2 = TermDistribution::new();
        d2.extend(vec!["alpha".to_string(), "alpha".to_string()]);
        assert_eq!(d2.count("alpha"), 2);
    }

    #[test]
    fn collect_from_iterator() {
        let d: TermDistribution = vec!["foo".to_string(), "bar".to_string()]
            .into_iter()
            .collect();
        assert_eq!(d.distinct_len(), 2);
    }

    #[test]
    fn probability_of_absent_term_is_zero() {
        let d = dist("alpha");
        assert_eq!(d.probability("beta"), 0.0);
        assert!(!d.contains("beta"));
        assert!(d.contains("alpha"));
    }

    #[test]
    fn from_text_matches_extracted_terms() {
        let texts = [
            "Café Zürich: sign-in 24/7!",
            "pay pal paypal",
            "",
            "abc abc abc xyz",
            "longprefixalpha longprefixbeta longprefix longprefixalpha",
        ];
        for t in texts {
            assert_eq!(
                TermDistribution::from_text(t),
                TermDistribution::from_terms(crate::extract_terms(t)),
                "{t:?}"
            );
        }
        let all: Vec<String> = texts.iter().flat_map(|t| crate::extract_terms(t)).collect();
        assert_eq!(
            TermDistribution::from_texts(texts),
            TermDistribution::from_terms(all)
        );
    }

    #[test]
    fn from_terms_equals_incremental_add_term() {
        let terms = ["pay", "pal", "pay", "bank", "abc"];
        let bulk = TermDistribution::from_terms(terms.iter().copied().map(String::from));
        let mut inc = TermDistribution::new();
        for t in terms {
            inc.add_term(t.to_string());
        }
        assert_eq!(bulk, inc);
    }

    #[test]
    fn prefix_key_order_matches_lexicographic() {
        // The dictionary sorts terms by prefix key: shorter terms sort
        // before their extensions; ties past eight bytes fall to the tail
        // compare.
        use crate::dictionary::prefix_key;
        let terms = [
            "abc",
            "abcd",
            "abcdefgh",
            "abcdefghi",
            "abcdefghz",
            "zzz",
            "paypal",
        ];
        let mut by_key: Vec<&str> = terms.to_vec();
        by_key.sort_unstable_by(|a, b| {
            let (ab, bb) = (a.as_bytes(), b.as_bytes());
            prefix_key(ab)
                .cmp(&prefix_key(bb))
                .then_with(|| ab[ab.len().min(8)..].cmp(&bb[bb.len().min(8)..]))
        });
        let mut lex: Vec<&str> = terms.to_vec();
        lex.sort_unstable();
        assert_eq!(by_key, lex);
    }

    #[test]
    fn serde_preserves_map_shape_and_roundtrips() {
        let d = dist("pay pal pay bank");
        let json = serde_json::to_string(&d).unwrap();
        // The original tree-backed form: an object keyed by sorted terms.
        assert_eq!(json, r#"{"counts":{"bank":1,"pal":1,"pay":2},"total":4}"#);
        let back: TermDistribution = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
        // Out-of-order members still deserialize to the sorted invariant.
        let reordered: TermDistribution =
            serde_json::from_str(r#"{"counts":{"pay":2,"bank":1,"pal":1},"total":4}"#).unwrap();
        assert_eq!(reordered, d);
    }
}
