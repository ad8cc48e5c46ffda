//! The two-stage serving cascade: a cheap URL-only pre-filter in front of
//! the full scrape-and-classify pipeline.
//!
//! The paper's 212-feature pipeline pays a full scrape for every page,
//! but most of its discriminative power on easy cases comes from URL
//! lexical signals. The cascade exploits that: a small GBM over
//! [`URL_FEATURE_COUNT`] lexical features scores every request first, and
//! only scores inside a configurable uncertainty band
//! ([`CascadeBand`]) fall through to the full pipeline. Scores outside
//! the band are **final** at ~0 virtual scrape cost, tagged
//! [`VerdictStage::UrlOnly`].
//!
//! Determinism: the pre-filter is a pure function of the request URL
//! string and the band — no clock, no cache, no shared state — so
//! cascade decisions are identical at any thread count, and a band of
//! `0,1` (every score is uncertain) reproduces the non-cascade output
//! byte for byte.
//!
//! # Examples
//!
//! ```
//! use kyp_core::{CascadeBand, CascadeClassifier, CascadeDecision, DetectorConfig};
//! use kyp_core::cascade::train_url_stage;
//! use kyp_web::DomainRanker;
//!
//! let ranker = DomainRanker::from_ranked(["bigbank.com"]);
//! let legit: Vec<String> = (0..40).map(|i| format!("https://s{i}.bigbank.com/")).collect();
//! let phish: Vec<String> =
//!     (0..40).map(|i| format!("http://bigbank.com.login{i}.badhost.tk/a@b")).collect();
//! let detector = train_url_stage(&legit, &phish, &ranker, &DetectorConfig::url_stage())
//!     .unwrap();
//! let cascade = CascadeClassifier::new(detector, ranker, CascadeBand::new(0.35, 0.65).unwrap());
//! match cascade.prescreen("https://s99.bigbank.com/") {
//!     CascadeDecision::Final(v) => assert_eq!(v.stage, kyp_core::VerdictStage::UrlOnly),
//!     other => println!("uncertain: {other:?}"),
//! }
//! ```

use crate::{DetectorConfig, PipelineVerdict};
use kyp_ml::Dataset;
use kyp_obs::{CascadeOutcome, VerdictKind, VerdictStage};
use kyp_url::Url;
use kyp_web::DomainRanker;
use serde::{Deserialize, Serialize};

/// Number of URL-lexical features the cascade's stage-one model consumes:
/// the nine per-URL statistics of the full pipeline's f1 family plus
/// eight cascade-specific lexical signals (IP host, `@`, digits, hyphens,
/// path depth, query length, typosquat distance).
pub const URL_FEATURE_COUNT: usize = 17;

/// How many top-ranked domains the typosquat-distance feature compares
/// against.
const TYPOSQUAT_REFERENCES: usize = 64;

/// Cap on the typosquat edit distance (beyond this the URL is simply
/// "not similar to any popular domain").
const TYPOSQUAT_CAP: usize = 10;

/// What a non-ASCII reference char becomes in [`reference_bytes`]: a byte
/// outside the 128-entry match-mask tables, so it matches no query byte.
const NON_ASCII: u8 = 0x80;

/// Most `u64` words [`PackedReferences`] fills: at worst one per
/// reference.
const MAX_WORDS: usize = TYPOSQUAT_REFERENCES;

/// A verdict together with the cascade stage that produced it — the
/// provenance-carrying verdict API.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The classification outcome.
    pub verdict: PipelineVerdict,
    /// Which stage decided it.
    pub stage: VerdictStage,
}

impl Verdict {
    /// Wraps a full-pipeline verdict (the stage every pre-cascade path
    /// emits, keeping old outputs byte-identical).
    pub fn full(verdict: PipelineVerdict) -> Self {
        Verdict {
            verdict,
            stage: VerdictStage::Full,
        }
    }

    /// Wraps a URL-only pre-filter verdict.
    pub fn url_only(verdict: PipelineVerdict) -> Self {
        Verdict {
            verdict,
            stage: VerdictStage::UrlOnly,
        }
    }

    /// The confidence score the deciding stage produced.
    pub fn score(&self) -> f64 {
        self.verdict.score()
    }

    /// The verdict label (legitimate / confirmed_legitimate / phish /
    /// suspicious).
    pub fn label(&self) -> VerdictKind {
        self.verdict.kind()
    }
}

/// The cascade's uncertainty band: URL scores in `[lo, hi]` (inclusive)
/// fall through to the full pipeline; scores outside it are final.
///
/// `CascadeBand::FORCED_FULL` (`0,1`) sends everything to the full
/// pipeline — the configuration CI uses to prove byte-identity with the
/// non-cascade path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeBand {
    /// Scores strictly below `lo` finalise as legitimate.
    pub lo: f64,
    /// Scores strictly above `hi` finalise as suspicious.
    pub hi: f64,
}

impl CascadeBand {
    /// The band covering every score: nothing finalises at the URL stage.
    pub const FORCED_FULL: CascadeBand = CascadeBand { lo: 0.0, hi: 1.0 };

    /// A validated band.
    ///
    /// # Errors
    ///
    /// Rejects non-finite bounds, bounds outside `[0, 1]`, and `lo > hi`.
    pub fn new(lo: f64, hi: f64) -> Result<Self, String> {
        if !lo.is_finite() || !hi.is_finite() {
            return Err(format!("cascade band bounds must be finite, got {lo},{hi}"));
        }
        if !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) {
            return Err(format!(
                "cascade band bounds must lie in [0, 1], got {lo},{hi}"
            ));
        }
        if lo > hi {
            return Err(format!("cascade band is inverted: lo {lo} > hi {hi}"));
        }
        Ok(CascadeBand { lo, hi })
    }

    /// Parses the CLI form `lo,hi` (e.g. `0.1,0.9`) with hard errors on
    /// anything malformed.
    ///
    /// # Errors
    ///
    /// Rejects missing commas, non-numeric parts, and every
    /// [`Self::new`] violation.
    pub fn parse(s: &str) -> Result<Self, String> {
        let Some((lo_s, hi_s)) = s.split_once(',') else {
            return Err(format!("invalid cascade band {s:?} (want lo,hi)"));
        };
        let lo: f64 = lo_s
            .trim()
            .parse()
            .map_err(|_| format!("invalid cascade band lower bound {lo_s:?}"))?;
        let hi: f64 = hi_s
            .trim()
            .parse()
            .map_err(|_| format!("invalid cascade band upper bound {hi_s:?}"))?;
        Self::new(lo, hi)
    }

    /// `true` when `score` is uncertain (falls through to the full
    /// pipeline).
    pub fn contains(self, score: f64) -> bool {
        self.lo <= score && score <= self.hi
    }
}

impl Default for CascadeBand {
    /// The operating point the frontier sweep recommends: wide enough to
    /// keep the AUC delta tiny, narrow enough to skip most scrapes.
    fn default() -> Self {
        CascadeBand { lo: 0.15, hi: 0.85 }
    }
}

impl std::fmt::Display for CascadeBand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{},{}", self.lo, self.hi)
    }
}

/// What the pre-filter concluded for one URL.
#[derive(Debug, Clone, PartialEq)]
pub enum CascadeDecision {
    /// The URL score fell outside the band; this verdict is final and no
    /// scrape happens.
    Final(Verdict),
    /// The score fell inside the band; the full pipeline decides.
    Uncertain {
        /// The stage-one score, kept for frontier accounting.
        url_score: f64,
    },
    /// The URL did not parse; the full pipeline decides (and reports the
    /// fetch failure as usual).
    Unscorable,
}

impl CascadeDecision {
    /// The payload-free observation of this decision.
    pub fn outcome(&self) -> CascadeOutcome {
        match self {
            CascadeDecision::Final(_) => CascadeOutcome::UrlOnlyFinal,
            CascadeDecision::Uncertain { .. } => CascadeOutcome::Fallthrough,
            CascadeDecision::Unscorable => CascadeOutcome::Unscorable,
        }
    }
}

/// Event counts of the URL-only cascade pre-filter: the one tally the
/// store scan, the scoring service and the cluster router keep. All zero
/// when the cascade is disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CascadeCounters {
    /// Requests the URL stage prescreened (every arrival when enabled).
    pub screened: u64,
    /// Requests finalised by the URL stage — each one a scrape avoided.
    pub url_only: u64,
    /// Requests whose URL score fell inside the uncertainty band.
    pub fallthrough: u64,
    /// Requests whose URL did not parse (the full pipeline decides).
    pub unscorable: u64,
}

impl CascadeCounters {
    /// Counts one prescreen: `screened` plus the counter of its outcome.
    pub fn record(&mut self, decision: &CascadeDecision) {
        self.screened += 1;
        match decision {
            CascadeDecision::Final(_) => self.url_only += 1,
            CascadeDecision::Uncertain { .. } => self.fallthrough += 1,
            CascadeDecision::Unscorable => self.unscorable += 1,
        }
    }
}

/// Extracts [`URL_FEATURE_COUNT`] lexical features from a raw URL —
/// stage one's entire input. Pure and allocation-light; never panics.
#[derive(Debug, Clone)]
pub struct UrlFeaturizer {
    ranker: DomainRanker,
    /// Main-level domains of the best-ranked RDNs — the typosquat
    /// references — packed as patterns.
    references: PackedReferences,
}

impl UrlFeaturizer {
    /// Builds a featurizer over a domain-popularity ranking.
    pub fn new(ranker: DomainRanker) -> Self {
        let references = PackedReferences::new(&reference_mlds(&ranker));
        UrlFeaturizer { ranker, references }
    }

    /// The ranking the featurizer was built over.
    pub fn ranker(&self) -> &DomainRanker {
        &self.ranker
    }

    /// The feature row of a parsed URL.
    pub fn features(&self, url: &Url) -> [f64; URL_FEATURE_COUNT] {
        let [https, dots, ldc, len, fqdn_len, mld_len, terms, mld_terms, rank] =
            crate::features::single_url_stats(url, &self.ranker);
        let raw = url.as_str();
        let digits = raw.chars().filter(char::is_ascii_digit).count();
        let digit_ratio = if raw.is_empty() {
            0.0
        } else {
            digits as f64 / raw.len() as f64
        };
        let hyphens = url.fqdn_str().map_or(0, |f| f.matches('-').count());
        let path_depth = url.path().split('/').filter(|s| !s.is_empty()).count();
        let query_len = url.query().map_or(0, str::len);
        let typo = self.typosquat_distance(url);
        [
            https,
            dots,
            ldc,
            len,
            fqdn_len,
            mld_len,
            terms,
            mld_terms,
            rank,
            f64::from(url.host().is_ip()),
            raw.matches('@').count() as f64,
            digits as f64,
            digit_ratio,
            hyphens as f64,
            path_depth as f64,
            query_len as f64,
            typo as f64,
        ]
    }

    /// Parses and featurizes a raw URL string; `None` when it does not
    /// parse.
    pub fn features_of(&self, url: &str) -> Option<[f64; URL_FEATURE_COUNT]> {
        Url::parse(url).ok().map(|u| self.features(&u))
    }

    /// Minimum capped edit distance between the URL's main-level domain
    /// and the top-ranked MLDs. `0` means the MLD *is* a popular domain;
    /// `1`–`2` on an unranked RDN is the typosquat signature; the cap
    /// means "unrelated".
    fn typosquat_distance(&self, url: &Url) -> usize {
        url.mld()
            .map_or(TYPOSQUAT_CAP, |mld| self.references.min_distance(mld))
    }
}

/// The typosquat references of a ranking: the main-level domains of its
/// best-ranked RDNs, in deterministic `(rank, name)` order, as
/// [`reference_bytes`].
fn reference_mlds(ranker: &DomainRanker) -> Vec<Vec<u8>> {
    ranker
        .top_rdns(TYPOSQUAT_REFERENCES)
        .into_iter()
        .map(|(_rank, rdn)| {
            let mld = rdn
                .split_once('.')
                .map_or(rdn.as_str(), |(mld, _suffix)| mld);
            reference_bytes(mld)
        })
        .collect()
}

/// A typosquat reference as a byte string: one byte per char, every
/// non-ASCII char mapped to [`NON_ASCII`].
fn reference_bytes(mld: &str) -> Vec<u8> {
    mld.chars()
        .map(|c| if c.is_ascii() { c as u8 } else { NON_ASCII })
        .collect()
}

/// `true` for 1..=64 ASCII bytes: a query MLD [`PackedReferences`] and
/// [`MatchMasks`] accept.
fn fits_one_word(mld: &str) -> bool {
    !mld.is_empty() && mld.len() <= 64 && mld.is_ascii()
}

/// One packed reference: the bits it owns in its word.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// Index of the word.
    word: usize,
    /// The reference's bits, one per byte, lowest first.
    bits: u64,
    /// The reference's length in bytes: the number of `bits`.
    len: usize,
}

/// The typosquat references as the *patterns* of Myers' bit-parallel edit
/// distance, packed many to a `u64` word (multi-pattern bit-parallelism;
/// Hyyrö, Fredriksson and Navarro, 2005). Each reference of 1..=64 bytes
/// owns a segment of consecutive bits of one word, filled from bit 0 up,
/// and a query MLD is walked once as the *text* across every word.
///
/// Within a word the DP columns of all its segments advance together:
/// the addition's carry stops at each segment's highest bit, and the
/// shifts bring row 0's +1 into each segment's lowest bit, so no segment
/// sees another. After the last text char a segment holds the vertical
/// deltas of its final column, and its distance is row 0's value plus
/// their sum: `n + |pv ∩ seg| − |mv ∩ seg|`. The minimum over every
/// reference is the one the single-pattern kernel finds, capped at
/// [`TYPOSQUAT_CAP`].
#[derive(Debug, Clone, Default)]
struct PackedReferences {
    /// Words in use.
    words: usize,
    /// `eq[c * words + w]`: the bits of word `w` whose reference byte is
    /// `c`, for every ASCII `c`.
    eq: Vec<u64>,
    /// Per word: the lowest bit of every segment.
    first: Vec<u64>,
    /// Per word: the highest bit of every segment.
    last: Vec<u64>,
    /// Every packed reference.
    segments: Vec<Segment>,
    /// References no word holds (over 64 bytes), as the text side of
    /// [`MatchMasks::capped_distance`]. Only a deserialized ranker
    /// carries one.
    long: Vec<Vec<u8>>,
    /// Whether a reference is empty: it scores the query's length. Only
    /// a deserialized ranker carries one.
    empty: bool,
}

impl PackedReferences {
    /// Packs references of one byte per char (see [`reference_bytes`]),
    /// each into the current word while it fits and into a new word
    /// otherwise.
    fn new(references: &[Vec<u8>]) -> Self {
        let mut packed = PackedReferences::default();
        // (word, lowest bit, reference) of every packed reference.
        let mut placed = Vec::with_capacity(references.len());
        let mut used = 64;
        for reference in references {
            let len = reference.len();
            if len == 0 {
                packed.empty = true;
                continue;
            }
            if used + len > 64 {
                if len > 64 || packed.words == MAX_WORDS {
                    packed.long.push(reference.clone());
                    continue;
                }
                packed.words += 1;
                used = 0;
            }
            placed.push((packed.words - 1, used, reference));
            used += len;
        }
        let words = packed.words;
        packed.eq = vec![0; 128 * words];
        packed.first = vec![0; words];
        packed.last = vec![0; words];
        for (word, low, reference) in placed {
            let len = reference.len();
            for (bit, &c) in reference.iter().enumerate() {
                // A non-ASCII char has no row: it matches nothing.
                if let Some(mask) = packed.eq.get_mut(usize::from(c) * words + word) {
                    *mask |= 1 << (low + bit);
                }
            }
            if let (Some(first), Some(last)) =
                (packed.first.get_mut(word), packed.last.get_mut(word))
            {
                *first |= 1 << low;
                *last |= 1 << (low + len - 1);
            }
            packed.segments.push(Segment {
                word,
                bits: (u64::MAX >> (64 - len)) << low,
                len,
            });
        }
        packed
    }

    /// `min(levenshtein(mld, r), TYPOSQUAT_CAP)` over every reference
    /// `r`, counting a non-ASCII reference char as matching nothing.
    /// `Url::parse` yields MLDs of 1..=63 bytes of `[a-z0-9_-]`; one that
    /// is not 1..=64 ASCII bytes (only a deserialized `Url` can carry it)
    /// counts as unrelated.
    fn min_distance(&self, mld: &str) -> usize {
        if !fits_one_word(mld) {
            return TYPOSQUAT_CAP;
        }
        let text = mld.as_bytes();
        // Vertical deltas of every segment's current column, all +1 at
        // column 0; bits above a word's last segment never reach it.
        let mut pv = [!0u64; MAX_WORDS];
        let mut mv = [0u64; MAX_WORDS];
        for &c in text {
            // Row `c` and the rows after it; the zip keeps one per word.
            let eqs = self
                .eq
                .get(usize::from(c) * self.words..)
                .unwrap_or_default();
            let state = pv.iter_mut().zip(mv.iter_mut());
            let masks = eqs.iter().zip(&self.first).zip(&self.last);
            for ((pv, mv), ((&eq, &first), &last)) in state.zip(masks) {
                // The step of `MatchMasks::capped_distance`, with each
                // segment's carry dropped at its highest bit.
                let xv = eq | *mv;
                let x = eq & *pv;
                let sum = (x & !last).wrapping_add(*pv & !last) ^ ((x ^ *pv) & last);
                let xh = (sum ^ *pv) | eq;
                let ph = *mv | !(xh | *pv);
                let mh = *pv & xh;
                // Row 0 grows by one per text char in every segment.
                let ph = (ph << 1) | first;
                let mh = (mh << 1) & !first;
                *pv = mh | !(xv | ph);
                *mv = ph & xv;
            }
        }
        let n = text.len();
        let mut best = if self.empty { n } else { TYPOSQUAT_CAP };
        for s in &self.segments {
            if let (Some(&pv), Some(&mv)) = (pv.get(s.word), mv.get(s.word)) {
                // n + |pv ∩ seg| − |mv ∩ seg|, as n + |pv ∩ seg| + |¬mv ∩ seg| − len.
                best = best.min(n + ones(pv & s.bits, !mv & s.bits) - s.len);
            }
        }
        if !self.long.is_empty() {
            // The single-pattern kernel, with the query as the pattern.
            if let Some(masks) = MatchMasks::new(mld) {
                for reference in &self.long {
                    best = best.min(masks.capped_distance(reference, best));
                }
            }
        }
        best.min(TYPOSQUAT_CAP)
    }
}

/// `a.count_ones() + b.count_ones()` in one pass of the SWAR population
/// count (the build targets no `popcnt` instruction): two-bit and
/// four-bit lane sums of each word, then one byte-lane sum of both.
fn ones(a: u64, b: u64) -> usize {
    const M1: u64 = 0x5555_5555_5555_5555;
    const M2: u64 = 0x3333_3333_3333_3333;
    const M4: u64 = 0x0f0f_0f0f_0f0f_0f0f;
    const H01: u64 = 0x0101_0101_0101_0101;
    let a = a - ((a >> 1) & M1);
    let b = b - ((b >> 1) & M1);
    // Four-bit lanes of at most 4 + 4 = 8.
    let s = (a & M2) + ((a >> 2) & M2) + (b & M2) + ((b >> 2) & M2);
    // Byte lanes of at most 16; their sum, at most 128, is the top byte.
    let s = (s & M4) + ((s >> 4) & M4);
    (s.wrapping_mul(H01) >> 56) as usize
}

/// The pattern side of the bit-parallel edit distance of Myers (1999), in
/// Hyyrö's formulation for whole-string Levenshtein distance: one `u64`
/// holds a column of the DP matrix as vertical +1/-1 delta bits, so each
/// text char costs a handful of word operations instead of a row of cells.
/// The query MLD is the one pattern: [`PackedReferences`] runs it against
/// the references no word holds.
struct MatchMasks {
    /// Bit `i` of `peq[c]` is set when pattern byte `i` is `c`.
    peq: [u64; 128],
    /// The bit of the pattern's last byte.
    last: u64,
    /// Pattern length in bytes, which are its chars.
    len: usize,
}

impl MatchMasks {
    /// Masks for a pattern of 1..=64 ASCII bytes; `None` for any other.
    fn new(pattern: &str) -> Option<Self> {
        if !fits_one_word(pattern) {
            return None;
        }
        let mut peq = [0u64; 128];
        let mut bit = 1u64;
        let mut last = 0;
        for b in pattern.bytes() {
            if let Some(mask) = peq.get_mut(usize::from(b)) {
                *mask |= bit;
            }
            last = bit;
            bit <<= 1;
        }
        Some(MatchMasks {
            peq,
            last,
            len: pattern.len(),
        })
    }

    /// `min(levenshtein(pattern, text), cap)`, where `text` holds one byte
    /// per char (see [`reference_bytes`]).
    fn capped_distance(&self, text: &[u8], cap: usize) -> usize {
        if self.len.abs_diff(text.len()) >= cap {
            return cap;
        }
        // Vertical deltas of the current column, all +1 at column 0; bits
        // above the pattern never carry into the ones below.
        let (mut pv, mut mv) = (!0u64, 0u64);
        let mut score = self.len;
        for &c in text {
            let eq = self.peq.get(usize::from(c)).copied().unwrap_or(0);
            let xv = eq | mv;
            let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
            let ph = mv | !(xh | pv);
            let mh = pv & xh;
            if ph & self.last != 0 {
                score += 1;
            } else if mh & self.last != 0 {
                score -= 1;
            }
            // Row 0 of the matrix grows by one per text char.
            let ph = (ph << 1) | 1;
            let mh = mh << 1;
            pv = mh | !(xv | ph);
            mv = ph & xv;
        }
        score.min(cap)
    }
}

/// Stage one of the cascade: URL featurizer + small GBM + band.
///
/// [`Self::prescreen`] and [`Self::prescreen_url`] are pure functions of
/// the URL, so cascade decisions are deterministic at any thread count
/// and independent of caches, clocks and request order.
#[derive(Debug, Clone)]
pub struct CascadeClassifier {
    featurizer: UrlFeaturizer,
    detector: crate::PhishDetector,
    band: CascadeBand,
}

impl CascadeClassifier {
    /// Assembles the pre-filter from a trained URL-stage detector, the
    /// ranking it was fitted against, and an uncertainty band.
    pub fn new(detector: crate::PhishDetector, ranker: DomainRanker, band: CascadeBand) -> Self {
        CascadeClassifier {
            featurizer: UrlFeaturizer::new(ranker),
            detector,
            band,
        }
    }

    /// Assembles the pre-filter from a loaded URL-stage snapshot.
    ///
    /// # Errors
    ///
    /// Rejects snapshots not tagged `stage: "url"` — scoring
    /// [`URL_FEATURE_COUNT`] features with a 212-feature model would be
    /// silently wrong.
    pub fn from_snapshot(
        snapshot: crate::ModelSnapshot,
        band: CascadeBand,
    ) -> Result<Self, crate::SnapshotError> {
        snapshot.require_stage(crate::snapshot::STAGE_URL)?;
        Ok(Self::new(snapshot.detector, snapshot.ranker, band))
    }

    /// The configured uncertainty band.
    pub fn band(&self) -> CascadeBand {
        self.band
    }

    /// Replaces the uncertainty band (used by the frontier sweep, which
    /// trains once and sweeps many bands).
    pub fn set_band(&mut self, band: CascadeBand) {
        self.band = band;
    }

    /// The stage-one featurizer.
    pub fn featurizer(&self) -> &UrlFeaturizer {
        &self.featurizer
    }

    /// Scores the raw URL without deciding — the frontier sweep's probe.
    pub fn url_score(&self, url: &str) -> Option<f64> {
        self.featurizer
            .features_of(url)
            .map(|row| self.detector.score(&row))
    }

    /// Screens one raw request URL: [`Self::prescreen_url`] of its parse.
    /// A URL that does not parse is [`CascadeDecision::Unscorable`] and
    /// falls through.
    pub fn prescreen(&self, url: &str) -> CascadeDecision {
        match Url::parse(url) {
            Ok(url) => self.prescreen_url(&url),
            Err(_) => CascadeDecision::Unscorable,
        }
    }

    /// Screens one parsed request URL.
    ///
    /// Scores below the band finalise as [`PipelineVerdict::Legitimate`];
    /// scores above it finalise as [`PipelineVerdict::Suspicious`] (the
    /// URL stage can flag but never identify a target). Scores inside the
    /// band fall through.
    pub fn prescreen_url(&self, url: &Url) -> CascadeDecision {
        let score = self.detector.score(&self.featurizer.features(url));
        if self.band.contains(score) {
            CascadeDecision::Uncertain { url_score: score }
        } else if score < self.band.lo {
            CascadeDecision::Final(Verdict::url_only(PipelineVerdict::Legitimate { score }))
        } else {
            CascadeDecision::Final(Verdict::url_only(PipelineVerdict::Suspicious { score }))
        }
    }
}

impl DetectorConfig {
    /// The URL-stage hyper-parameters: a deliberately small ensemble —
    /// stage one must stay ~free next to a virtual scrape.
    pub fn url_stage() -> Self {
        let mut config = DetectorConfig::default();
        config.gbm.n_trees = 40;
        config.gbm.max_depth = 3;
        config
    }
}

/// Trains the URL-stage detector from labeled raw URLs. Unparseable URLs
/// are skipped (they fall through at serve time anyway); the counts of
/// usable rows are returned alongside the detector.
///
/// # Errors
///
/// Fails when either class has no parseable URL — a GBM cannot fit a
/// single-class set.
pub fn train_url_stage(
    legitimate: &[String],
    phishing: &[String],
    ranker: &DomainRanker,
    config: &DetectorConfig,
) -> Result<crate::PhishDetector, String> {
    let featurizer = UrlFeaturizer::new(ranker.clone());
    let mut data = Dataset::with_capacity(URL_FEATURE_COUNT, legitimate.len() + phishing.len());
    let mut counts = [0usize; 2];
    for (urls, label) in [(legitimate, false), (phishing, true)] {
        for url in urls {
            if let Some(row) = featurizer.features_of(url) {
                data.push_row(&row, label);
                counts[usize::from(label)] += 1;
            }
        }
    }
    let [legit_rows, phish_rows] = counts;
    if legit_rows == 0 || phish_rows == 0 {
        return Err(format!(
            "cannot train the URL stage: {legit_rows} legitimate and {phish_rows} phishing \
             parseable URLs (need both classes)"
        ));
    }
    Ok(crate::PhishDetector::train(&data, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ranker() -> DomainRanker {
        DomainRanker::from_ranked(["bigbank.com", "shopmart.co.uk", "news.fr"])
    }

    fn urls(pattern: &str, n: usize) -> Vec<String> {
        (0..n)
            .map(|i| pattern.replace("{i}", &i.to_string()))
            .collect()
    }

    fn trained() -> CascadeClassifier {
        let legit = urls("https://s{i}.bigbank.com/account", 60);
        let phish = urls(
            "http://bigbank.com.verify{i}.badhost.tk/login.php?id={i}",
            60,
        );
        let detector =
            train_url_stage(&legit, &phish, &ranker(), &DetectorConfig::url_stage()).unwrap();
        CascadeClassifier::new(detector, ranker(), CascadeBand::new(0.3, 0.7).unwrap())
    }

    #[test]
    fn feature_row_shape_and_signals() {
        let f = UrlFeaturizer::new(ranker());
        let row = f
            .features_of("http://bigbank.com@10.0.0.1/a/b/c?x=1")
            .unwrap();
        assert_eq!(row.len(), URL_FEATURE_COUNT);
        assert_eq!(row[9], 1.0, "IP host");
        assert_eq!(row[10], 1.0, "@ count");
        assert_eq!(row[14], 3.0, "path depth");
        assert_eq!(row[15], 3.0, "query length");
    }

    #[test]
    fn typosquat_distance_separates_brands_from_noise() {
        let f = UrlFeaturizer::new(ranker());
        let dist = |u: &str| {
            let parsed = Url::parse(u).unwrap();
            f.typosquat_distance(&parsed)
        };
        assert_eq!(dist("https://www.bigbank.com/"), 0, "the brand itself");
        assert_eq!(dist("https://www.bigbanc.com/"), 1, "one-edit typosquat");
        assert_eq!(
            dist("http://zzqqxxyy-unrelated.tk/"),
            TYPOSQUAT_CAP,
            "unrelated domains hit the cap"
        );
        assert_eq!(dist("http://10.0.0.1/"), TYPOSQUAT_CAP, "no mld at all");
    }

    /// Capped Levenshtein distance over chars: the row-by-row DP the
    /// featurizer used before the bit-parallel kernel, kept as its
    /// reference.
    fn levenshtein_capped(a: &str, b: &str, cap: usize) -> usize {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.len().abs_diff(b.len()) >= cap {
            return cap;
        }
        let mut prev: Vec<usize> = (0..=b.len()).collect();
        for (i, &ca) in a.iter().enumerate() {
            let mut row = Vec::with_capacity(b.len() + 1);
            row.push(i + 1);
            let mut row_min = i + 1;
            for (j, &cb) in b.iter().enumerate() {
                let diag = prev.get(j).copied().unwrap_or(usize::MAX);
                let up = prev.get(j + 1).copied().unwrap_or(usize::MAX);
                let left = row.last().copied().unwrap_or(usize::MAX);
                let cost = usize::from(ca != cb);
                let v = diag
                    .saturating_add(cost)
                    .min(up.saturating_add(1))
                    .min(left.saturating_add(1));
                row_min = row_min.min(v);
                row.push(v);
            }
            if row_min >= cap {
                return cap;
            }
            prev = row;
        }
        prev.last().copied().unwrap_or(0).min(cap)
    }

    fn kernel(pattern: &str, text: &str, cap: usize) -> usize {
        MatchMasks::new(pattern)
            .unwrap()
            .capped_distance(&reference_bytes(text), cap)
    }

    #[test]
    fn kernel_basics() {
        assert_eq!(kernel("kitten", "sitting", 10), 3);
        assert_eq!(kernel("abc", "", 10), 3);
        assert_eq!(kernel("same", "same", 10), 0);
        assert_eq!(kernel("short", "muchlongerstring", 4), 4);
        assert_eq!(
            kernel("paypal", "paypäl", 10),
            1,
            "non-ASCII matches nothing"
        );
        assert_eq!(kernel("abc", "abcé", 10), 1, "one char, not two bytes");
        assert!(MatchMasks::new("").is_none());
        assert!(MatchMasks::new(&"a".repeat(65)).is_none());
        assert!(MatchMasks::new("bänk").is_none());
    }

    /// A pattern of `[a-z0-9_-]` and a text drawn near it by up to 14
    /// random edits (some inserting non-ASCII chars), or unrelated.
    fn pattern_and_text() -> impl Strategy<Value = (String, String)> {
        let edited = (
            prop_oneof!["[ab_]{1,63}", "[a-z0-9_-]{1,63}"],
            collection::vec((0usize..3, any::<usize>(), "[ab_xé漢]"), 0..15),
        )
            .prop_map(|(pattern, edits): (String, Vec<(usize, usize, String)>)| {
                let mut text: Vec<char> = pattern.chars().collect();
                for (op, at, c) in edits {
                    let c = c.chars().next().unwrap();
                    let at = at % (text.len() + 1);
                    match op {
                        0 => text.insert(at, c),
                        1 if at < text.len() => {
                            text.remove(at);
                        }
                        _ if at < text.len() => text[at] = c,
                        _ => {}
                    }
                }
                (pattern, text.into_iter().collect())
            });
        let unrelated = ("[a-z0-9_-]{1,63}", prop_oneof!["[ab_é]{0,90}", ".{0,90}"]);
        prop_oneof![edited, unrelated]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        #[test]
        fn kernel_matches_textbook_dp(pair in pattern_and_text(), cap in 1usize..=12) {
            let (pattern, text) = pair;
            prop_assert_eq!(
                kernel(&pattern, &text, cap),
                levenshtein_capped(&pattern, &text, cap),
                "{:?} vs {:?} capped at {}",
                pattern,
                text,
                cap
            );
        }
    }

    /// The typosquat distance as the single-pattern kernel computes it:
    /// the MLD is the one pattern and each reference in turn the text.
    fn single_pattern_distance(references: &[Vec<u8>], url: &Url) -> usize {
        let Some(masks) = url.mld().and_then(MatchMasks::new) else {
            return TYPOSQUAT_CAP;
        };
        references.iter().fold(TYPOSQUAT_CAP, |best, reference| {
            best.min(masks.capped_distance(reference, best))
        })
    }

    /// `min(levenshtein(query, r), TYPOSQUAT_CAP)` over `references` by the
    /// textbook DP.
    fn textbook_min(references: &[String], query: &str) -> usize {
        references
            .iter()
            .map(|r| levenshtein_capped(query, r, TYPOSQUAT_CAP))
            .fold(TYPOSQUAT_CAP, usize::min)
    }

    #[test]
    fn ones_counts_both_words() {
        for (a, b) in [
            (0, 0),
            (u64::MAX, u64::MAX),
            (u64::MAX, 0),
            (1 << 63, 1),
            (0x5555_5555_5555_5555, 0xaaaa_aaaa_aaaa_aaaa),
            (0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210),
        ] {
            assert_eq!(ones(a, b), (a.count_ones() + b.count_ones()) as usize);
        }
    }

    #[test]
    fn packing_fills_words_and_sets_aside_what_none_holds() {
        let refs = |specs: &[(&str, usize)]| -> Vec<Vec<u8>> {
            specs
                .iter()
                .map(|&(s, n)| reference_bytes(&s.repeat(n)))
                .collect()
        };
        // 40 + 24 bytes fill one word; 1 byte opens a second one.
        let packed = PackedReferences::new(&refs(&[("a", 40), ("b", 24), ("c", 1)]));
        assert_eq!((packed.words, packed.segments.len()), (2, 3));
        assert_eq!(packed.first, [1 | 1 << 40, 1]);
        assert_eq!(packed.last, [1 << 39 | 1 << 63, 1]);
        assert!(packed.long.is_empty() && !packed.empty);
        // Empty and over-long references are held outside the words.
        let packed = PackedReferences::new(&refs(&[("", 1), ("é", 70), ("a", 64)]));
        assert_eq!(
            (packed.words, packed.long.len(), packed.empty),
            (1, 1, true)
        );
        assert_eq!(packed.min_distance("b"), 1, "the empty reference");
        assert_eq!(packed.min_distance(&"a".repeat(63)), 1);
        // A 65th word is never opened: its reference takes the
        // single-pattern path.
        let packed = PackedReferences::new(&refs(&[("ab", 32); MAX_WORDS + 1]));
        assert_eq!((packed.words, packed.long.len()), (MAX_WORDS, 1));
        assert_eq!(packed.min_distance(&"ab".repeat(32)), 0);
        assert_eq!(packed.min_distance(&"ab".repeat(31)), 2);
        // Queries that are not 1..=64 ASCII bytes count as unrelated.
        for query in ["", "bänk", &"a".repeat(65)] {
            assert_eq!(packed.min_distance(query), TYPOSQUAT_CAP, "{query:?}");
        }
    }

    /// A reference set of 0–80 MLDs of 0–90 chars (non-ASCII chars,
    /// duplicates and references over 64 bytes included), a query of
    /// 1–63 bytes of `[a-z0-9_-]` drawn near one of them by up to 6
    /// edits or unrelated, and a host form for the query.
    fn references_and_query() -> impl Strategy<Value = (Vec<String>, String, usize)> {
        let reference: proptest::strategy::Union<String> = prop_oneof![
            "[a-z0-9-]{1,16}",
            "[a-z0-9-]{1,16}",
            "[a-z0-9-]{1,16}",
            "[ab_]{0,12}",
            "[a-zé漢]{0,90}",
            "[ab]{60,90}",
        ];
        (
            collection::vec(reference, 0..=80),
            any::<usize>(),
            any::<bool>(),
            collection::vec((0usize..3, any::<usize>(), "[a-z0-9_-]"), 0..=6),
            "[a-z0-9_-]{1,63}",
            0usize..4,
        )
            .prop_map(|(mut references, pick, near, edits, unrelated, host)| {
                if references.is_empty() || !near {
                    return (references, unrelated, host);
                }
                let base = references[pick % references.len()].clone();
                references.push(base.clone());
                let alphabet = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
                let mut query: Vec<char> = base
                    .chars()
                    .map(|c| if alphabet(c) { c } else { 'x' })
                    .collect();
                for (op, at, c) in edits {
                    let c = c.chars().next().unwrap();
                    let at = at % (query.len() + 1);
                    match op {
                        0 => query.insert(at, c),
                        1 if at < query.len() => {
                            query.remove(at);
                        }
                        _ if at < query.len() => query[at] = c,
                        _ => {}
                    }
                }
                query.truncate(63);
                if query.is_empty() {
                    query.push('a');
                }
                (references, query.into_iter().collect(), host)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        #[test]
        fn packed_references_match_textbook_dp(case in references_and_query()) {
            let (references, query, host) = case;
            let bytes: Vec<Vec<u8>> = references.iter().map(|r| reference_bytes(r)).collect();
            prop_assert_eq!(
                PackedReferences::new(&bytes).min_distance(&query),
                textbook_min(&references, &query),
                "{:?} against {:?}",
                query,
                references
            );
            // Through a featurizer: its references are the MLDs of the
            // ranking's top RDNs (repeated MLDs under other suffixes), and
            // a host with no MLD is unrelated.
            let suffixes = ["com", "net", "co.uk"];
            let featurizer = UrlFeaturizer::new(DomainRanker::from_ranked(
                references
                    .iter()
                    .enumerate()
                    .map(|(i, r)| format!("{r}.{}", suffixes[i % suffixes.len()])),
            ));
            let url = match host {
                0 => format!("http://{query}.com/a"),
                1 => format!("https://www.{query}.co.uk/"),
                2 => "http://10.0.0.7/login".to_owned(),
                _ => "http://co.uk/".to_owned(),
            };
            if let Ok(url) = Url::parse(&url) {
                let want = match url.mld() {
                    Some(mld) => {
                        let top: Vec<String> = featurizer
                            .ranker()
                            .top_rdns(TYPOSQUAT_REFERENCES)
                            .into_iter()
                            .map(|(_, rdn)| rdn.split_once('.').map_or(rdn.clone(), |(m, _)| m.to_owned()))
                            .collect();
                        textbook_min(&top, mld)
                    }
                    None => TYPOSQUAT_CAP,
                };
                prop_assert_eq!(featurizer.typosquat_distance(&url), want, "{}", url.as_str());
            }
        }
    }

    /// A URL-stage snapshot over a ranking no generated corpus has — an
    /// empty MLD, a 70-byte one, a non-ASCII one and repeated ones —
    /// loads, and scores exactly what the single-pattern kernel scores.
    #[test]
    fn hostile_ranker_snapshot_matches_single_pattern_path() {
        let long = "a".repeat(70);
        let ranker = DomainRanker::from_ranked([
            ".com".to_owned(),
            format!("{long}.com"),
            "bänk.com".to_owned(),
            "bigbank.com".to_owned(),
            "bigbank.net".to_owned(),
            "bigbank.co.uk".to_owned(),
            "shopmart.com".to_owned(),
        ]);
        let legit = urls("https://s{i}.bigbank.com/account", 60);
        let phish = urls("http://bank{i}.badhost.tk/login.php?id={i}", 60);
        let detector =
            train_url_stage(&legit, &phish, &ranker, &DetectorConfig::url_stage()).unwrap();
        let json = crate::ModelSnapshot::new_url_stage(detector, ranker)
            .to_json()
            .unwrap();
        let snapshot = crate::ModelSnapshot::from_json(&json).unwrap();
        let cascade = CascadeClassifier::from_snapshot(snapshot, CascadeBand::default()).unwrap();
        let featurizer = cascade.featurizer();
        let references = reference_mlds(featurizer.ranker());
        assert!(references.iter().any(Vec::is_empty));
        assert!(references.iter().any(|r| r.len() == 70));
        assert!(references.contains(&vec![b'b', NON_ASCII, b'n', b'k']));
        assert_eq!(
            references
                .iter()
                .filter(|r| r.as_slice() == b"bigbank")
                .count(),
            3
        );
        let probes = [
            "http://b.com/".to_owned(),
            format!("http://{}.com/", "a".repeat(63)),
            "http://bank.com/".to_owned(),
            "https://www.bigbanc.co.uk/".to_owned(),
            "http://10.0.0.1/".to_owned(),
            "http://co.uk/".to_owned(),
        ];
        let mut seen = std::collections::BTreeSet::new();
        for url in probes.iter().chain(&legit).chain(&phish) {
            let parsed = Url::parse(url).unwrap();
            let row = featurizer.features(&parsed);
            let mut want = row;
            want[16] = single_pattern_distance(&references, &parsed) as f64;
            seen.insert(want[16] as usize);
            assert_eq!(row.map(f64::to_bits), want.map(f64::to_bits), "{url}");
            assert_eq!(
                cascade.url_score(url).map(f64::to_bits),
                Some(cascade.detector.score(&want).to_bits()),
                "{url}"
            );
        }
        // The empty reference, the 70-byte one and the cap all decide.
        assert!(seen.contains(&1) && seen.contains(&7) && seen.contains(&TYPOSQUAT_CAP));
    }

    #[test]
    fn band_validation_hard_errors() {
        assert!(CascadeBand::new(0.2, 0.8).is_ok());
        assert!(CascadeBand::new(0.8, 0.2).is_err());
        assert!(CascadeBand::new(-0.1, 0.5).is_err());
        assert!(CascadeBand::new(0.0, 1.5).is_err());
        assert!(CascadeBand::new(f64::NAN, 0.5).is_err());
        assert_eq!(
            CascadeBand::parse("0.1,0.9").unwrap(),
            CascadeBand::new(0.1, 0.9).unwrap()
        );
        assert_eq!(CascadeBand::parse(" 0.1 , 0.9 ").unwrap().hi, 0.9);
        assert!(CascadeBand::parse("0.1").is_err());
        assert!(CascadeBand::parse("a,b").is_err());
        assert!(CascadeBand::parse("0.9,0.1").is_err());
        assert_eq!(CascadeBand::FORCED_FULL.to_string(), "0,1");
    }

    #[test]
    fn forced_full_band_never_finalises() {
        let mut cascade = trained();
        cascade.set_band(CascadeBand::FORCED_FULL);
        for url in urls("https://s{i}.bigbank.com/account", 20)
            .iter()
            .chain(urls("http://bigbank.com.verify{i}.badhost.tk/login.php", 20).iter())
        {
            match cascade.prescreen(url) {
                CascadeDecision::Uncertain { .. } => {}
                other => panic!("forced-full band finalised {url}: {other:?}"),
            }
        }
    }

    #[test]
    fn confident_scores_finalise_with_url_only_stage() {
        let cascade = trained();
        let mut finals = 0;
        for url in urls("https://s{i}.bigbank.com/account", 20) {
            if let CascadeDecision::Final(v) = cascade.prescreen(&url) {
                finals += 1;
                assert_eq!(v.stage, VerdictStage::UrlOnly);
                assert_eq!(v.label(), VerdictKind::Legitimate);
                assert!(v.score() < cascade.band().lo);
            }
        }
        for url in urls(
            "http://bigbank.com.verify{i}.badhost.tk/login.php?id={i}",
            20,
        ) {
            if let CascadeDecision::Final(v) = cascade.prescreen(&url) {
                finals += 1;
                assert_eq!(v.label(), VerdictKind::Suspicious);
                assert!(v.score() > cascade.band().hi);
            }
        }
        assert!(
            finals > 20,
            "the trained stage should be confident: {finals}/40"
        );
    }

    #[test]
    fn unparseable_urls_fall_through() {
        let cascade = trained();
        assert_eq!(cascade.prescreen("http://"), CascadeDecision::Unscorable);
        assert_eq!(cascade.prescreen(""), CascadeDecision::Unscorable);
    }

    #[test]
    fn prescreen_is_a_pure_function_of_the_url() {
        let cascade = trained();
        let url = "http://bigbank.com.verify3.badhost.tk/login.php?id=3";
        let first = cascade.prescreen(url);
        for _ in 0..3 {
            assert_eq!(cascade.prescreen(url), first);
        }
    }

    #[test]
    fn prescreen_is_prescreen_url_of_the_parse() {
        let cascade = trained();
        let mut finals = 0;
        for url in urls("https://s{i}.bigbank.com/account", 20)
            .into_iter()
            .chain(urls(
                "http://bigbank.com.verify{i}.badhost.tk/login.php?id={i}",
                20,
            ))
            .chain(urls("http://mixed{i}.example.org/a", 20))
        {
            let decision = cascade.prescreen_url(&Url::parse(&url).unwrap());
            finals += usize::from(matches!(decision, CascadeDecision::Final(_)));
            assert_eq!(cascade.prescreen(&url), decision, "{url}");
        }
        assert!(finals > 0);
    }

    #[test]
    fn training_rejects_single_class_inputs() {
        let legit = urls("https://s{i}.bigbank.com/", 10);
        let err = train_url_stage(&legit, &[], &ranker(), &DetectorConfig::url_stage());
        assert!(err.is_err());
        let unparseable = vec!["http://".to_owned()];
        let err = train_url_stage(
            &legit,
            &unparseable,
            &ranker(),
            &DetectorConfig::url_stage(),
        );
        assert!(err.unwrap_err().contains("0 phishing"));
    }

    #[test]
    fn record_counts_screened_and_exactly_one_outcome() {
        let decisions = [
            (
                CascadeDecision::Final(Verdict::url_only(PipelineVerdict::Legitimate {
                    score: 0.01,
                })),
                CascadeOutcome::UrlOnlyFinal,
                [1, 0, 0],
            ),
            (
                CascadeDecision::Uncertain { url_score: 0.5 },
                CascadeOutcome::Fallthrough,
                [0, 1, 0],
            ),
            (
                CascadeDecision::Unscorable,
                CascadeOutcome::Unscorable,
                [0, 0, 1],
            ),
        ];
        let mut total = CascadeCounters::default();
        for (decision, outcome, [url_only, fallthrough, unscorable]) in decisions {
            assert_eq!(decision.outcome(), outcome);
            let mut one = CascadeCounters::default();
            one.record(&decision);
            assert_eq!(
                one,
                CascadeCounters {
                    screened: 1,
                    url_only,
                    fallthrough,
                    unscorable,
                },
                "{decision:?}"
            );
            total.record(&decision);
        }
        assert_eq!(
            total,
            CascadeCounters {
                screened: 3,
                url_only: 1,
                fallthrough: 1,
                unscorable: 1,
            }
        );
    }

    #[test]
    fn counters_keep_their_wire_names() {
        let json = serde_json::to_string(&CascadeCounters {
            screened: 4,
            url_only: 3,
            fallthrough: 1,
            unscorable: 0,
        })
        .unwrap();
        assert_eq!(
            json,
            r#"{"screened":4,"url_only":3,"fallthrough":1,"unscorable":0}"#
        );
    }

    #[test]
    fn verdict_wrapper_accessors() {
        let v = Verdict::full(PipelineVerdict::Legitimate { score: 0.12 });
        assert_eq!(v.stage, VerdictStage::Full);
        assert_eq!(v.score(), 0.12);
        assert_eq!(v.label(), VerdictKind::Legitimate);
        let u = Verdict::url_only(PipelineVerdict::Suspicious { score: 0.93 });
        assert_eq!(u.stage, VerdictStage::UrlOnly);
        assert_eq!(u.label(), VerdictKind::Suspicious);
    }
}
