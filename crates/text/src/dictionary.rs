//! One term dictionary per page.
//!
//! A page's data sources (Table I) share most of their terms: the brand
//! the title spells recurs in the text, the URLs and the links. A
//! [`DictionaryBuilder`] canonicalises every source of a page into one
//! buffer; [`DictionaryBuilder::into_dictionary`] sorts all of the page's term
//! occurrences once, numbers the distinct terms in lexicographic order
//! and emits every source's sorted `(id, count)` run and total in the
//! same walk. Consumers then compare sources by walking integer ids
//! instead of merging strings, and because ids follow term order, every
//! walk visits terms in the order a string merge would.

use crate::{canonicalize_char, TermDistribution, MIN_TERM_LEN};

/// The first eight bytes of a term packed big-endian into a `u64`,
/// zero-padded on the right. Terms are canonical (`[a-z]+`, no zero
/// bytes), so comparing keys equals comparing the first eight bytes
/// lexicographically, with a shorter term sorting before its extensions —
/// exactly the prefix of full lexicographic order. Two distinct terms
/// share a key only when both are at least eight bytes long and agree on
/// the first eight, so a tie-break on the bytes past the prefix restores
/// the total order.
#[inline]
pub(crate) fn prefix_key(bytes: &[u8]) -> u64 {
    if let Some(head) = bytes.first_chunk::<8>() {
        return u64::from_be_bytes(*head);
    }
    let mut key = 0;
    for (k, &b) in bytes.iter().enumerate() {
        key |= u64::from(b) << (56 - 8 * k);
    }
    key
}

/// One kept term occurrence of a page under construction.
#[derive(Debug, Clone, Copy)]
struct Occurrence {
    /// [`prefix_key`] of the term.
    key: u64,
    /// Byte span of the term in the builder's buffer.
    start: u32,
    end: u32,
    /// The source the occurrence was pushed under.
    source: u32,
}

impl Occurrence {
    /// The term's bytes past the eight-byte prefix (usually empty).
    #[inline]
    fn tail<'b>(&self, buf: &'b [u8]) -> &'b [u8] {
        &buf[(self.start + 8).min(self.end) as usize..self.end as usize]
    }
}

/// Where one source's run lives in the dictionary's entry table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Run {
    /// First entry of the run.
    offset: u32,
    /// Distinct terms in the run.
    len: u32,
    /// Term occurrences in the source (the distribution's total).
    total: u32,
}

/// Collects the terms of a page's sources for one [`TermDictionary`].
///
/// # Examples
///
/// ```
/// use kyp_text::DictionaryBuilder;
///
/// let mut page = DictionaryBuilder::new(2);
/// page.push(0, "PayPal login");
/// page.push(1, "paypal paypal account");
/// let dict = page.into_dictionary();
/// let terms: Vec<&str> = (0..dict.len() as u32).map(|id| dict.term(id)).collect();
/// assert_eq!(terms, ["account", "login", "paypal"]);
/// assert_eq!(dict.run(0), [(1, 1), (2, 1)]);
/// assert_eq!(dict.run(1), [(0, 1), (2, 2)]);
/// assert_eq!(dict.total(1), 3);
/// ```
#[derive(Debug, Clone)]
pub struct DictionaryBuilder {
    /// Canonicalised letters of every kept term, concatenated: ASCII
    /// lowercase only.
    buf: Vec<u8>,
    /// Every kept term occurrence, in push order until `into_dictionary` sorts.
    occurrences: Vec<Occurrence>,
    /// Per source: its run, filled in by `into_dictionary`; only `total` counts
    /// while pushing.
    runs: Vec<Run>,
    /// Distinct terms' spans, filled in by `into_dictionary`.
    terms: Vec<(u32, u32)>,
    /// Run entries, filled in by `into_dictionary`.
    entries: Vec<(u32, u32)>,
}

impl DictionaryBuilder {
    /// A builder for a page with `sources` data sources, numbered
    /// `0..sources`.
    pub fn new(sources: usize) -> Self {
        let mut runs = Vec::new();
        runs.resize(sources, Run::default());
        DictionaryBuilder {
            buf: Vec::new(),
            occurrences: Vec::new(),
            runs,
            terms: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Ends the term starting at `start`: records it under `source` when
    /// long enough, discards it otherwise. Returns the next term's start.
    #[inline]
    fn flush_term(&mut self, source: usize, start: usize) -> usize {
        let end = self.buf.len();
        if end - start >= MIN_TERM_LEN {
            self.occurrences.push(Occurrence {
                key: prefix_key(&self.buf[start..end]),
                start: start as u32,
                end: end as u32,
                source: source as u32,
            });
            self.runs[source].total += 1;
        } else {
            self.buf.truncate(start);
        }
        self.buf.len()
    }

    /// Adds the terms of `text` to source `source` (paper Section III-B:
    /// canonicalise letters, split on everything else, drop terms shorter
    /// than [`MIN_TERM_LEN`]). A source may be pushed any number of
    /// times; its distribution covers every text pushed under it.
    ///
    /// Runs of ASCII letters — the overwhelming majority in page text and
    /// URLs — are copied whole and lowercased on the way; only multi-byte
    /// characters go through [`canonicalize_char`]'s full table, matching
    /// its ASCII fast path exactly.
    ///
    /// # Panics
    ///
    /// When `source` is not below the count given to [`Self::new`].
    pub fn push(&mut self, source: usize, text: &str) {
        // At most one term per four bytes: three letters and a separator.
        self.buf.reserve(text.len());
        self.occurrences
            .reserve((text.len() + 1) / (MIN_TERM_LEN + 1));
        let bytes = text.as_bytes();
        let mut start = self.buf.len();
        let mut i = 0;
        while let Some(&b) = bytes.get(i) {
            if b.is_ascii_alphabetic() {
                // A run of ASCII letters is copied whole, lowercased on
                // the way (`| 0x20` lowercases an ASCII letter).
                let run = i;
                i += 1;
                while bytes.get(i).is_some_and(u8::is_ascii_alphabetic) {
                    i += 1;
                }
                self.buf.extend(bytes[run..i].iter().map(|b| b | 0x20));
            } else if b.is_ascii() {
                i += 1;
                start = self.flush_term(source, start);
            } else {
                let Some(c) = text[i..].chars().next() else {
                    break;
                };
                i += c.len_utf8();
                match canonicalize_char(c) {
                    Some(letter) => self.buf.push(letter as u8),
                    None => start = self.flush_term(source, start),
                }
            }
        }
        self.flush_term(source, start);
    }

    /// Sorts the page's term occurrences once, numbers the distinct terms
    /// in lexicographic order, and emits every source's sorted
    /// `(id, count)` run in the same walk.
    ///
    /// Occurrences sort by their eight-byte prefix key alone, an integer
    /// sort; only a run of equal keys that holds a term longer than eight
    /// bytes is then sorted by the bytes past the prefix. No hashing, so
    /// a hostile page still costs O(n log n).
    pub fn into_dictionary(self) -> TermDictionary {
        let DictionaryBuilder {
            buf,
            mut occurrences,
            mut runs,
            mut terms,
            mut entries,
        } = self;
        let bytes = buf.as_slice();
        occurrences.sort_unstable_by_key(|o| o.key);
        terms.reserve(occurrences.len());

        // Each source's run gets a segment as long as its occurrence
        // count, which bounds its distinct terms.
        let mut offset = 0;
        for run in &mut runs {
            run.offset = offset;
            offset += run.total;
        }
        entries.resize(offset as usize, (0, 0));

        let mut i = 0;
        while i < occurrences.len() {
            let key = occurrences[i].key;
            let mut j = i + 1;
            while j < occurrences.len() && occurrences[j].key == key {
                j += 1;
            }
            let group = &mut occurrences[i..j];
            // Equal keys name one term unless the key's last byte is a
            // letter and some term runs past it.
            let long = key & 0xff != 0 && group.iter().any(|o| o.end - o.start > 8);
            if long {
                group.sort_unstable_by(|a, b| a.tail(bytes).cmp(b.tail(bytes)));
            }
            for k in 0..group.len() {
                let o = group[k];
                if k == 0 || (long && o.tail(bytes) != group[k - 1].tail(bytes)) {
                    terms.push((o.start, o.end));
                }
                let id = (terms.len() - 1) as u32;
                let run = &mut runs[o.source as usize];
                let at = (run.offset + run.len) as usize;
                if run.len > 0 && entries[at - 1].0 == id {
                    entries[at - 1].1 += 1;
                } else {
                    entries[at] = (id, 1);
                    run.len += 1;
                }
            }
            i = j;
        }
        TermDictionary {
            buf: String::from_utf8(buf).expect("canonical terms are ASCII"),
            terms,
            entries,
            runs,
        }
    }
}

/// A page's distinct terms, numbered in lexicographic order, with every
/// source's term counts as a sorted `(id, count)` run. Built by
/// [`DictionaryBuilder`].
///
/// # Examples
///
/// ```
/// use kyp_text::{DictionaryBuilder, TermDistribution};
///
/// let mut page = DictionaryBuilder::new(2);
/// page.push(0, "pay pal pay");
/// page.push(1, "Pay bank");
/// let dict = page.into_dictionary();
/// let pay = dict.find("pay").unwrap();
/// assert_eq!(dict.term(pay), "pay");
/// assert_eq!((dict.count(0, pay), dict.count(1, pay)), (2, 1));
/// assert_eq!(dict.find("paypal"), None);
/// assert_eq!(dict.distribution(0), TermDistribution::from_text("pay pal pay"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TermDictionary {
    /// The builder's buffer; distinct terms point into it.
    buf: String,
    /// `(start, end)` byte span of each distinct term, in id order.
    terms: Vec<(u32, u32)>,
    /// Every source's run, each in its own segment.
    entries: Vec<(u32, u32)>,
    /// Per source: where its run lives, and its total.
    runs: Vec<Run>,
}

impl TermDictionary {
    /// Number of distinct terms across all sources.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` when no source holds a term.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The term numbered `id`.
    ///
    /// # Panics
    ///
    /// When `id` is not below [`Self::len`].
    pub fn term(&self, id: u32) -> &str {
        let (s, e) = self.terms[id as usize];
        &self.buf[s as usize..e as usize]
    }

    /// The id of `term`, if any source holds it.
    pub fn find(&self, term: &str) -> Option<u32> {
        self.terms
            .binary_search_by(|&(s, e)| self.buf[s as usize..e as usize].cmp(term))
            .ok()
            .map(|i| i as u32)
    }

    /// Source `source`'s `(id, count)` pairs, ascending by id (so in
    /// lexicographic term order). Empty for an unknown source.
    pub fn run(&self, source: usize) -> &[(u32, u32)] {
        self.runs.get(source).map_or(&[], |r| {
            &self.entries[r.offset as usize..(r.offset + r.len) as usize]
        })
    }

    /// Total term occurrences in source `source` (0 for an unknown
    /// source).
    pub fn total(&self, source: usize) -> u32 {
        self.runs.get(source).map_or(0, |r| r.total)
    }

    /// How often source `source` holds the term numbered `id`.
    pub fn count(&self, source: usize, id: u32) -> u32 {
        let run = self.run(source);
        run.binary_search_by_key(&id, |&(i, _)| i)
            .map_or(0, |k| run[k].1)
    }

    /// Source `source` as an owned [`TermDistribution`].
    pub fn distribution(&self, source: usize) -> TermDistribution {
        TermDistribution::from_sorted_counts(
            self.run(source).iter().map(|&(id, c)| (self.term(id), c)),
            self.total(source),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract_terms;

    fn one_source(text: &str) -> TermDictionary {
        let mut b = DictionaryBuilder::new(1);
        b.push(0, text);
        b.into_dictionary()
    }

    #[test]
    fn ids_follow_lexicographic_order_and_runs_count() {
        let texts = [
            "Café Zürich: sign-in 24/7!",
            "pay pal paypal pay",
            "",
            "longprefixalpha longprefixbeta longprefix longprefixalpha abcdefgh",
        ];
        let mut b = DictionaryBuilder::new(texts.len());
        for (s, t) in texts.iter().enumerate() {
            b.push(s, t);
        }
        let dict = b.into_dictionary();
        let all: Vec<&str> = (0..dict.len() as u32).map(|id| dict.term(id)).collect();
        let mut want: Vec<String> = texts.iter().flat_map(|t| extract_terms(t)).collect();
        want.sort_unstable();
        want.dedup();
        assert_eq!(all, want);
        for (s, t) in texts.iter().enumerate() {
            let terms = extract_terms(t);
            assert_eq!(dict.total(s) as usize, terms.len());
            assert_eq!(dict.distribution(s), TermDistribution::from_terms(terms));
            assert!(dict.run(s).windows(2).all(|w| w[0].0 < w[1].0));
        }
        assert_eq!(
            dict.find("longprefixalpha").map(|id| dict.term(id)),
            Some("longprefixalpha")
        );
        assert_eq!(dict.find("absent"), None);
        let alpha = dict.find("longprefixalpha").unwrap();
        assert_eq!(dict.count(3, alpha), 2);
        assert_eq!(dict.count(0, alpha), 0);
    }

    #[test]
    fn a_source_pushed_twice_counts_both_texts() {
        let mut b = DictionaryBuilder::new(2);
        b.push(1, "alpha beta");
        b.push(0, "beta");
        b.push(1, "beta gamma");
        let dict = b.into_dictionary();
        assert_eq!(
            dict.distribution(1),
            TermDistribution::from_texts(["alpha beta", "beta gamma"])
        );
        assert_eq!(dict.total(1), 4);
        assert_eq!(dict.distribution(0), TermDistribution::from_text("beta"));
    }

    #[test]
    fn unknown_sources_are_empty() {
        let dict = one_source("alpha");
        assert!(dict.run(5).is_empty());
        assert_eq!(dict.total(5), 0);
        assert!(TermDictionary::default().is_empty());
    }

    #[test]
    fn many_terms_sharing_a_prefix_number_in_order() {
        // Every term shares the eight-byte prefix `sameprefx`, so the
        // whole page is one tied run, ordered by the tail alone.
        let words: Vec<String> = (0..2000u32)
            .rev()
            .map(|n| {
                let tail: String = (0..4)
                    .map(|k| char::from(b'a' + ((n >> (5 * k)) % 26) as u8))
                    .collect();
                format!("sameprefx{tail}")
            })
            .collect();
        let dict = one_source(&words.join(" "));
        let mut want = words.clone();
        want.sort_unstable();
        want.dedup();
        assert_eq!(dict.len(), want.len());
        for (id, w) in want.iter().enumerate() {
            assert_eq!(dict.term(id as u32), w);
        }
        assert_eq!(dict.total(0) as usize, words.len());
    }

    #[test]
    fn one_repeated_term_is_one_entry() {
        let dict = one_source(&"paypalsecure ".repeat(10_000));
        assert_eq!(dict.len(), 1);
        assert_eq!(dict.run(0), [(0, 10_000)]);
    }
}
