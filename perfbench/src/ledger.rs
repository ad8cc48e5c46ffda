//! The per-layer ledger of a traced run: wall time spent inside each
//! layer's public entry point, summed over a run, plus per-pass counts.
//!
//! Spans are taken here, in the benchmark, around the calls it makes into
//! each layer; nothing inside the program is instrumented. A traced pass
//! therefore drives the layers one entry point at a time, and its output
//! is checked against the same reference as the untraced pass, so the
//! ledger accounts for exactly the work the end-to-end figure measures.

use std::time::Instant;

/// A layer of the request path, named after the entry point timed.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    /// `PageStoreReader::next_block`: block read, checksum and decode.
    StoreDecode,
    /// `CascadeClassifier::prescreen`: URL parse, lexical features and
    /// the URL-stage model.
    UrlStage,
    /// `ResilientBrowser::scrape` or `PageSource::fetch`: the simulated
    /// visit, redirects, HTML parse, link resolution and retries.
    Scrape,
    /// `DataSources::from_partial` plus the 212-feature extractor.
    Extract,
    /// `PhishDetector::score`: the full-stage GBM.
    Score,
    /// `TargetIdentifier::identify_with_sources`, for flagged pages.
    Target,
    /// `PageStoreWriter::append`, `FeatureStoreWriter::append_rows` and
    /// both `finish` calls.
    StoreWrite,
    /// `storeflow::write_corpus_sidecars`: ranking and search index.
    Sidecars,
    /// `ScoringService::push`/`finish` minus the fetches they make:
    /// admission queue, micro-batcher, verdict cache and classification.
    ServeCore,
}

/// Every layer, in ledger order.
pub const LAYERS: [Layer; 9] = [
    Layer::StoreDecode,
    Layer::UrlStage,
    Layer::Scrape,
    Layer::Extract,
    Layer::Score,
    Layer::Target,
    Layer::StoreWrite,
    Layer::Sidecars,
    Layer::ServeCore,
];

impl Layer {
    /// The per-layer metric reporting this layer's time per item.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::StoreDecode => "store_decode_ns",
            Layer::UrlStage => "url_stage_ns",
            Layer::Scrape => "scrape_ns",
            Layer::Extract => "extract_ns",
            Layer::Score => "score_ns",
            Layer::Target => "target_ns",
            Layer::StoreWrite => "store_write_ns",
            Layer::Sidecars => "sidecars_ns",
            Layer::ServeCore => "serve_core_ns",
        }
    }
}

/// Accumulated nanoseconds per layer.
#[derive(Debug, Default)]
pub struct Ledger {
    ns: [u128; LAYERS.len()],
}

impl Ledger {
    /// Runs `f` as one span of `layer`.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(layer, t0.elapsed().as_nanos());
        out
    }

    /// Adds `ns` measured elsewhere to `layer`.
    pub fn add(&mut self, layer: Layer, ns: u128) {
        self.ns[layer as usize] += ns;
    }

    /// Moves `ns` out of `layer`: a parent span's self time excludes
    /// the child spans nested in it.
    pub fn sub(&mut self, layer: Layer, ns: u128) {
        let slot = &mut self.ns[layer as usize];
        *slot = slot.saturating_sub(ns);
    }

    /// Nanoseconds recorded against `layer`.
    pub fn ns(&self, layer: Layer) -> u128 {
        self.ns[layer as usize]
    }

    /// Nanoseconds recorded against every layer.
    pub fn total(&self) -> u128 {
        self.ns.iter().sum()
    }
}

/// Work counted in one pass. Every pass of a run repeats the same inputs,
/// so these are equal across passes and the last one is reported.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Pages (scan, crawl) or requests (serve) handled.
    pub items: u64,
    /// Items that failed: scrapes given up, requests shed or unfetchable.
    pub failed: u64,
    /// Items the URL stage answered without a scrape.
    pub url_final: u64,
    /// Items the full 212-feature pipeline classified.
    pub full: u64,
    /// Full-pipeline items flagged by the detector, so target
    /// identification ran.
    pub flagged: u64,
    /// Serving verdict-cache hits.
    pub cache_hits: u64,
    /// Serving micro-batches flushed.
    pub batches: u64,
    /// Store bytes written (crawl) or read (scan).
    pub store_bytes: u64,
}

impl Counts {
    /// Adds `other`'s counts to these.
    pub fn add(&mut self, other: Counts) {
        self.items += other.items;
        self.failed += other.failed;
        self.url_final += other.url_final;
        self.full += other.full;
        self.flagged += other.flagged;
        self.cache_hits += other.cache_hits;
        self.batches += other.batches;
        self.store_bytes += other.store_bytes;
    }
}
