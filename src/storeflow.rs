//! The generate-once/train-forever pipeline over a corpus directory.
//!
//! A `kyp gen` directory is the one corpus format on disk, and this
//! module alone knows its layout: the columnar page and feature stores
//! (`pages.kyps`, `features.kypf`), the offline popularity ranking
//! (`ranker.json`), the search-engine index over the legitimate corpus
//! (`index.jsonl`) and one sample phish for single-page scans
//! (`sample_phish.json`). The `kyp` CLI, the determinism tests and the
//! benchmarks all go through it, so all of them stream the same bytes:
//!
//! - [`build_store`] scrapes a generated [`Corpus`] bundle by bundle
//!   and streams both the visited pages *and* their extracted feature
//!   rows to disk in bounded memory (one block at a time); on a clean
//!   web it writes the search index from the same visits, so each page
//!   is visited once, and under faults [`write_corpus_sidecars`]
//!   re-lands the legitimate pages on the clean web;
//! - [`load_split_dataset`] streams feature blocks back into the
//!   legit-rows-then-phish-rows [`Dataset`] layout `kyp train` fits;
//! - [`score_split_streaming`] pushes feature blocks through the
//!   compiled flat model without ever materialising the full matrix;
//! - [`load_ranker`] and [`load_pipeline`] read the sidecars back into
//!   a ranking and a scoring pipeline;
//! - [`store_verdict_lines`] classifies every stored page and renders
//!   the deterministic verdict stream (scores as exact bit patterns)
//!   that CI byte-compares across thread counts and against the
//!   in-memory pipeline;
//! - [`load_serving_pages`] rebuilds the `kyp serve` / `kyp cluster`
//!   page source from a store directory.

use crate::core::features::FEATURE_COUNT;
use crate::core::{
    CascadeClassifier, CascadeCounters, CascadeDecision, ClassifiedPage, FeatureExtractor,
    ModelSnapshot, PhishDetector, Pipeline, PipelineVerdict, ScrapeReport, TargetIdentifier,
    VerdictStage,
};
use crate::datagen::{CampaignConfig, Corpus};
use crate::html::Document;
use crate::ml::Dataset;
use crate::search::SearchEngine;
use crate::serve::StoredPages;
use crate::url::Url;
use crate::web::{
    Browser, DomainRanker, ResilientBrowser, ScrapedPage, SourceAvailability, VisitedPage, World,
};
use kyp_store::{
    features_path, pages_path, validate_pair, FeatureStoreReader, FeatureStoreWriter, FrameReader,
    PageStoreReader, PageStoreWriter, StoreHeader, StoreKind, WorldStamp, BLOCK_RECORDS,
};
use serde::Deserialize;
use std::fs;
use std::fs::File;
use std::io::{BufRead as _, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

/// One searchable page of the legitimate index (`index.jsonl`) — the
/// persisted form of what a crawler would store about a site.
/// [`write_index_line`] writes it without building one.
#[derive(Debug, Deserialize)]
struct IndexEntry {
    /// Registered domain of the landing URL.
    rdn: String,
    /// Main level domain of the landing URL.
    mld: String,
    /// Title and body text, the engine's indexable content.
    text: String,
}

/// Appends the `index.jsonl` line of a page that landed at `landing_url`
/// with `title` and `text`: the compact JSON of an [`IndexEntry`] whose
/// `text` is `"{title} {text}"`, escaped straight into `index` with no
/// allocation. A landing URL without a registered domain (an IP host)
/// gives no entry: the engine keys pages by RDN and mld.
fn write_index_line(
    index: &mut impl Write,
    landing_url: &Url,
    title: &str,
    text: &str,
) -> Result<(), String> {
    let (Some(rdn), Some(mld)) = (landing_url.rdn(), landing_url.mld()) else {
        return Ok(());
    };
    let mut line = || -> std::io::Result<()> {
        index.write_all(b"{\"rdn\":\"")?;
        serde_json::write_str_contents(index, rdn)?;
        index.write_all(b"\",\"mld\":\"")?;
        serde_json::write_str_contents(index, mld)?;
        index.write_all(b"\",\"text\":\"")?;
        serde_json::write_str_contents(index, title)?;
        index.write_all(b" ")?;
        serde_json::write_str_contents(index, text)?;
        index.write_all(b"\"}\n")
    };
    line().map_err(|e| e.to_string())
}

/// Writes the offline popularity ranking, `ranker.json`.
fn write_ranker(dir: &Path, corpus: &Corpus) -> Result<(), String> {
    let ranker_json = serde_json::to_string(&corpus.ranker).map_err(|e| e.to_string())?;
    fs::write(dir.join("ranker.json"), ranker_json).map_err(|e| e.to_string())
}

/// Creates a corpus directory's `index.jsonl` for streaming.
fn create_index(dir: &Path) -> Result<BufWriter<File>, String> {
    let file = File::create(dir.join("index.jsonl")).map_err(|e| e.to_string())?;
    Ok(BufWriter::new(file))
}

/// The [`WorldStamp`] describing a generation run: the campaign sizes
/// and seed plus the fault-injection parameters of the scrape.
pub fn world_stamp(config: &CampaignConfig, fault_rate: f64, fault_seed: u64) -> WorldStamp {
    WorldStamp {
        seed: config.seed,
        phish_train: config.phish_train,
        phish_test: config.phish_test,
        phish_brand: config.phish_brand,
        leg_train: config.leg_train,
        english_test: config.english_test,
        other_language_test: config.other_language_test,
        fault_rate,
        fault_seed,
    }
}

/// What [`build_store`] wrote.
#[derive(Debug)]
pub struct StoreBuildReport {
    /// Pages persisted across all bundles.
    pub pages: u64,
    /// Feature rows persisted (equals `pages`).
    pub rows: u64,
    /// Bytes of the page store file.
    pub page_bytes: u64,
    /// Bytes of the feature store file.
    pub feature_bytes: u64,
    /// Pages persisted per bundle, in bundle order.
    pub bundle_pages: Vec<(String, u64)>,
    /// Scrape accounting (attempts, failures, retries, breaker trips).
    pub scrape: ScrapeReport,
}

type PageWriter = PageStoreWriter<BufWriter<File>>;
type FeatureWriter = FeatureStoreWriter<BufWriter<File>>;

/// Writes one buffered chunk of visited pages into both store files,
/// and into `index` when given, then clears it.
fn flush_chunk(
    extractor: &FeatureExtractor,
    page_writer: &mut PageWriter,
    feature_writer: &mut FeatureWriter,
    index: Option<&mut BufWriter<File>>,
    bundle: u32,
    is_phish: bool,
    chunk: &mut Vec<VisitedPage>,
) -> Result<(), String> {
    if chunk.is_empty() {
        return Ok(());
    }
    for page in chunk.iter() {
        page_writer
            .append(page)
            .map_err(|e| format!("write page store: {e}"))?;
    }
    if let Some(index) = index {
        for page in chunk.iter() {
            write_index_line(index, &page.landing_url, &page.title, &page.text)?;
        }
    }
    let flat = extractor.extract_batch_flat(chunk);
    let labels = vec![is_phish; chunk.len()];
    feature_writer
        .append_rows(bundle, &flat, &labels)
        .map_err(|e| format!("write feature store: {e}"))?;
    chunk.clear();
    Ok(())
}

/// Streams a generated corpus into `dir`: scrapes every bundle through
/// a resilient browser over `world`, in [`Corpus::scrape_bundles`]
/// order, persisting pages and extracted feature rows one block at a
/// time.
///
/// Also writes the corpus sidecars (`ranker.json`, `index.jsonl`) so a
/// store directory is self-sufficient for train/eval/scan/serve. The
/// sidecars describe the clean web whatever the fault plan, with the
/// same bytes [`write_corpus_sidecars`] writes.
///
/// `world` must be `corpus.world` itself when `fault_rate` is 0, and a
/// fault-injecting view of it at `fault_rate` otherwise: the store
/// stamp records `fault_rate` as the description of the scraped web,
/// and a build at rate 0 takes the index from its own scrape. There a
/// scrape succeeds exactly when [`Browser::land`] does and collects the
/// landing page's title and text, so the legitimate bundles' index
/// lines are written as each of their blocks is flushed and no page is
/// visited twice. At any other rate a page may have been garbled or
/// lost in transit, so the index comes from [`write_corpus_sidecars`],
/// which lands every legitimate page again on the clean web.
///
/// # Errors
///
/// Filesystem and store-format failures, rendered as strings for the
/// CLI.
pub fn build_store<W: World>(
    dir: &Path,
    corpus: &Corpus,
    config: &CampaignConfig,
    world: &W,
    fault_rate: f64,
    fault_seed: u64,
) -> Result<StoreBuildReport, String> {
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let bundles = corpus.scrape_bundles();
    let names: Vec<String> = bundles.iter().map(|(n, _, _)| (*n).to_string()).collect();
    let stamp = world_stamp(config, fault_rate, fault_seed);
    let pages_header = StoreHeader {
        kind: StoreKind::Pages,
        stamp: stamp.clone(),
        n_features: 0,
        bundles: names.clone(),
        block_records: BLOCK_RECORDS as u32,
    };
    let features_header = StoreHeader {
        kind: StoreKind::Features,
        stamp,
        n_features: FEATURE_COUNT as u32,
        bundles: names,
        block_records: BLOCK_RECORDS as u32,
    };
    let mut page_writer = PageStoreWriter::create(&pages_path(dir), &pages_header)
        .map_err(|e| format!("create page store: {e}"))?;
    let mut feature_writer = FeatureStoreWriter::create(&features_path(dir), &features_header)
        .map_err(|e| format!("create feature store: {e}"))?;

    // The index covers the legitimate bundles, `leg_train` then
    // `leg_test`, in scrape order.
    let mut index = if fault_rate == 0.0 {
        Some(create_index(dir)?)
    } else {
        None
    };

    let extractor = FeatureExtractor::new(corpus.ranker.clone());
    let mut scraper = ResilientBrowser::new(world);
    let mut report = ScrapeReport::default();
    let mut bundle_pages = Vec::with_capacity(bundles.len());
    let mut chunk: Vec<VisitedPage> = Vec::with_capacity(BLOCK_RECORDS);
    for (bundle_id, (name, urls, is_phish)) in bundles.iter().enumerate() {
        let mut captured = 0u64;
        for url in urls {
            let outcome = scraper.scrape(url);
            report.record(&outcome);
            let Ok(scraped) = outcome else {
                continue;
            };
            captured += 1;
            chunk.push(scraped.visit);
            if chunk.len() >= BLOCK_RECORDS {
                flush_chunk(
                    &extractor,
                    &mut page_writer,
                    &mut feature_writer,
                    index.as_mut().filter(|_| !is_phish),
                    bundle_id as u32,
                    *is_phish,
                    &mut chunk,
                )?;
            }
        }
        // Bundle boundary: a block never spans bundles.
        flush_chunk(
            &extractor,
            &mut page_writer,
            &mut feature_writer,
            index.as_mut().filter(|_| !is_phish),
            bundle_id as u32,
            *is_phish,
            &mut chunk,
        )?;
        bundle_pages.push(((*name).to_string(), captured));
    }
    report.retries = scraper.total_retries();
    report.breaker_trips = scraper.breaker().trips();
    report.virtual_elapsed_ms = scraper.clock().now_ms();

    let (_, pages_written, page_bytes) = page_writer
        .finish()
        .map_err(|e| format!("finish page store: {e}"))?;
    let (_, rows_written, feature_bytes) = feature_writer
        .finish()
        .map_err(|e| format!("finish feature store: {e}"))?;
    match index {
        Some(mut index) => {
            index.flush().map_err(|e| e.to_string())?;
            write_ranker(dir, corpus)?;
        }
        None => write_corpus_sidecars(dir, corpus)?,
    }
    Ok(StoreBuildReport {
        pages: pages_written,
        rows: rows_written,
        page_bytes,
        feature_bytes,
        bundle_pages,
        scrape: report,
    })
}

/// Writes the non-page corpus artifacts a scoring stack needs next to
/// the scraped data: the offline popularity ranking (`ranker.json`) and
/// the search-engine index over the legitimate corpus (`index.jsonl`),
/// landing every `leg_train` and English-test URL on the clean
/// `corpus.world`. [`build_store`] calls it when its scrape went
/// through a faulty web; a clean build writes the same bytes from its
/// own visits.
///
/// # Errors
///
/// Serialization and filesystem failures, rendered as strings.
pub fn write_corpus_sidecars(dir: &Path, corpus: &Corpus) -> Result<(), String> {
    write_ranker(dir, corpus)?;

    // An entry needs the landing page's title and text only, so each
    // site's redirects are followed and its landing HTML parsed, but no
    // link is resolved.
    let browser = Browser::new(&corpus.world);
    let mut index = create_index(dir)?;
    for url in corpus.leg_train.iter().chain(corpus.english_test()) {
        let Ok(landing) = browser.land(url) else {
            continue;
        };
        let doc = Document::parse(landing.html());
        write_index_line(&mut index, landing.url(), &doc.title, &doc.text)?;
    }
    index.flush().map_err(|e| e.to_string())
}

/// Writes `sample_phish.json`: the first test phish as the clean web
/// serves it, pretty-printed, for single-page `kyp scan --page` demos.
/// A first test phish that does not load writes nothing.
///
/// # Errors
///
/// Filesystem failures, rendered as strings.
pub fn write_sample_phish(dir: &Path, corpus: &Corpus) -> Result<(), String> {
    let Some(first) = corpus.phish_test.first() else {
        return Ok(());
    };
    let Ok(visit) = Browser::new(&corpus.world).visit(&first.url) else {
        return Ok(());
    };
    let json = serde_json::to_string_pretty(&visit).map_err(|e| e.to_string())?;
    fs::write(dir.join("sample_phish.json"), json).map_err(|e| e.to_string())
}

/// Reads the offline popularity ranking (`ranker.json`) of a corpus
/// directory.
///
/// # Errors
///
/// Filesystem and json failures, rendered as strings.
pub fn load_ranker(dir: &Path) -> Result<DomainRanker, String> {
    let json = fs::read_to_string(dir.join("ranker.json"))
        .map_err(|e| format!("read ranker.json: {e}"))?;
    serde_json::from_str(&json).map_err(|e| e.to_string())
}

/// Rebuilds the search engine from a corpus directory's `index.jsonl`.
fn load_engine(dir: &Path) -> Result<SearchEngine, String> {
    let path = dir.join("index.jsonl");
    let file = File::open(&path).map_err(|e| format!("open {path:?}: {e}"))?;
    let mut engine = SearchEngine::new();
    for line in BufReader::new(file).lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        let entry: IndexEntry = serde_json::from_str(&line).map_err(|e| e.to_string())?;
        engine.index_page(&entry.rdn, &entry.mld, &entry.text);
    }
    Ok(engine)
}

/// Assembles the scoring pipeline of a model snapshot over a corpus
/// directory: the snapshot's detector and ranking, and a target
/// identifier over the directory's search index.
///
/// # Errors
///
/// Filesystem and json failures reading `index.jsonl`, as strings.
pub fn load_pipeline(dir: &Path, snapshot: ModelSnapshot) -> Result<Pipeline, String> {
    let identifier = TargetIdentifier::new(Arc::new(load_engine(dir)?));
    let extractor = FeatureExtractor::new(snapshot.ranker);
    Ok(Pipeline::new(extractor, snapshot.detector, identifier))
}

/// Opens the feature stream of a store directory, hard-failing unless
/// the pages and features headers stamp the same generated world.
///
/// # Errors
///
/// Every store-format error (missing files, bad magic, version or kind
/// mismatch, checksum failure, stamp mismatch), rendered as strings.
pub fn open_feature_stream(dir: &Path) -> Result<FeatureStoreReader<BufReader<File>>, String> {
    let pages = FrameReader::open(&pages_path(dir), StoreKind::Pages)
        .map_err(|e| format!("open {}: {e}", pages_path(dir).display()))?;
    let features = FeatureStoreReader::open(&features_path(dir))
        .map_err(|e| format!("open {}: {e}", features_path(dir).display()))?;
    validate_pair(pages.header(), features.header()).map_err(|e| e.to_string())?;
    Ok(features)
}

fn bundle_ids(
    header: &StoreHeader,
    legit_bundle: &str,
    phish_bundle: &str,
) -> Result<(u32, u32), String> {
    let legit = header.bundle_id(legit_bundle).ok_or_else(|| {
        format!(
            "store has no bundle {legit_bundle:?} (it holds {:?})",
            header.bundles
        )
    })?;
    let phish = header.bundle_id(phish_bundle).ok_or_else(|| {
        format!(
            "store has no bundle {phish_bundle:?} (it holds {:?})",
            header.bundles
        )
    })?;
    Ok((legit, phish))
}

/// Streams the feature rows of two bundles into the canonical training
/// layout — every legitimate row, then every phishing row, each side in
/// stored (generation) order.
///
/// # Errors
///
/// Store-format failures and unknown bundle names.
pub fn load_split_dataset(
    dir: &Path,
    legit_bundle: &str,
    phish_bundle: &str,
) -> Result<Dataset, String> {
    let mut reader = open_feature_stream(dir)?;
    let (legit_id, phish_id) = bundle_ids(reader.header(), legit_bundle, phish_bundle)?;
    let n_features = reader.n_features();
    let mut legit = Dataset::new(n_features);
    let mut phish = Dataset::new(n_features);
    while let Some(block) = reader
        .next_block()
        .map_err(|e| format!("read feature store: {e}"))?
    {
        if block.bundle == legit_id {
            legit.push_flat_rows(&block.rows, &block.labels);
        } else if block.bundle == phish_id {
            phish.push_flat_rows(&block.rows, &block.labels);
        }
    }
    if legit.is_empty() && phish.is_empty() {
        return Err(format!(
            "store holds no rows for bundles {legit_bundle:?} / {phish_bundle:?}"
        ));
    }
    legit.append(&phish);
    Ok(legit)
}

/// Streams two bundles' starting URLs back out of a store directory as
/// `(legitimate, phishing)` lists for URL-stage cascade training.
///
/// The page store does not record bundles, and its blocks re-buffer
/// across bundle boundaries — but both files persist the same records
/// in the same generation order ([`build_store`] appends each scraped
/// page to both writers). The feature stream therefore yields a bundle
/// id per record *position*, which labels the page at the same global
/// index.
///
/// # Errors
///
/// Store-format failures, unknown bundle names, and stores whose page
/// and feature files disagree on their record count.
pub fn load_split_urls(
    dir: &Path,
    legit_bundle: &str,
    phish_bundle: &str,
) -> Result<(Vec<String>, Vec<String>), String> {
    let mut features = open_feature_stream(dir)?;
    let (legit_id, phish_id) = bundle_ids(features.header(), legit_bundle, phish_bundle)?;
    let mut record_bundles: Vec<u32> = Vec::new();
    while let Some(block) = features
        .next_block()
        .map_err(|e| format!("read feature store: {e}"))?
    {
        record_bundles.resize(record_bundles.len() + block.labels.len(), block.bundle);
    }
    let mut pages = open_pages(dir)?;
    let mut legit = Vec::new();
    let mut phish = Vec::new();
    let mut index = 0usize;
    while let Some(block) = pages
        .next_view()
        .map_err(|e| format!("read page store: {e}"))?
    {
        for url in block.starting_urls() {
            let Some(&bundle) = record_bundles.get(index) else {
                return Err(
                    "page store holds more records than the feature store; regenerate the store"
                        .to_owned(),
                );
            };
            index += 1;
            if bundle == legit_id {
                legit.push(url.as_str().to_owned());
            } else if bundle == phish_id {
                phish.push(url.as_str().to_owned());
            }
        }
    }
    if index != record_bundles.len() {
        return Err(format!(
            "page store holds {index} records but the feature store holds {}; \
             regenerate the store",
            record_bundles.len()
        ));
    }
    Ok((legit, phish))
}

/// Streams two bundles' feature blocks through the compiled flat model
/// without materialising the matrix, returning `(scores, labels)` in
/// the same legit-then-phish order as [`load_split_dataset`].
///
/// # Errors
///
/// Store-format failures and unknown bundle names.
pub fn score_split_streaming(
    dir: &Path,
    detector: &PhishDetector,
    legit_bundle: &str,
    phish_bundle: &str,
) -> Result<(Vec<f64>, Vec<bool>), String> {
    let mut reader = open_feature_stream(dir)?;
    let (legit_id, phish_id) = bundle_ids(reader.header(), legit_bundle, phish_bundle)?;
    let n_features = reader.n_features();
    let mut legit: (Vec<f64>, Vec<bool>) = (Vec::new(), Vec::new());
    let mut phish: (Vec<f64>, Vec<bool>) = (Vec::new(), Vec::new());
    while let Some(block) = reader
        .next_block()
        .map_err(|e| format!("read feature store: {e}"))?
    {
        let side = if block.bundle == legit_id {
            &mut legit
        } else if block.bundle == phish_id {
            &mut phish
        } else {
            continue;
        };
        let rows: Vec<&[f64]> = block.rows.chunks(n_features).collect();
        side.0.extend(detector.score_batch(&rows));
        side.1.extend_from_slice(&block.labels);
    }
    let (mut scores, mut labels) = legit;
    scores.extend(phish.0);
    labels.extend(phish.1);
    Ok((scores, labels))
}

/// Renders one classified page as a deterministic verdict line: scores
/// as exact IEEE-754 bit patterns, so equal lines mean bit-equal
/// classifications and `cmp` on the whole stream is meaningful.
pub fn verdict_line(page: &ClassifiedPage) -> String {
    render_verdict_line(&page.url, &page.verdict, page.degraded, VerdictStage::Full)
}

/// The shared line renderer behind [`verdict_line`]: the kind is
/// spelled as every other output spells it ([`kyp_obs::VerdictKind`]),
/// and the stage tag is appended only when it differs from
/// [`VerdictStage::Full`], so every pre-cascade stream keeps its exact
/// bytes.
///
/// [`kyp_obs::VerdictKind`]: crate::obs::VerdictKind
fn render_verdict_line(
    url: &str,
    verdict: &PipelineVerdict,
    degraded: bool,
    stage: VerdictStage,
) -> String {
    let extra = match verdict {
        PipelineVerdict::ConfirmedLegitimate { step, .. } => format!(" step={step}"),
        PipelineVerdict::Phish { candidates, .. } => {
            let targets: Vec<&str> = candidates.iter().map(|c| c.mld.as_str()).collect();
            format!(" targets={}", targets.join(","))
        }
        PipelineVerdict::Legitimate { .. } | PipelineVerdict::Suspicious { .. } => String::new(),
    };
    let mut line = format!(
        "{url}\t{}{extra} score_bits={:016x} degraded={degraded}",
        verdict.kind().name(),
        verdict.score().to_bits(),
    );
    if stage != VerdictStage::Full {
        line.push_str(" stage=");
        line.push_str(stage.name());
    }
    line
}

/// Classifies every stored page block by block (scraping nothing) and
/// returns the verdict stream in stored order. Byte-identical at any
/// thread count, and to the same classification run over the in-memory
/// pipeline.
///
/// # Errors
///
/// Store-format failures, rendered as strings.
pub fn store_verdict_lines(dir: &Path, pipeline: &Pipeline) -> Result<Vec<String>, String> {
    scan_store(dir, pipeline, None).map(|(lines, _)| lines)
}

/// Like [`store_verdict_lines`], with the URL-only cascade pre-filter in
/// front: pages whose starting URL scores outside the uncertainty band
/// never run the full pipeline, and their lines carry a
/// ` stage=url_only` tag. With [`CascadeBand::FORCED_FULL`] every page
/// falls through and the stream is byte-identical to
/// [`store_verdict_lines`] — the equivalence CI proves with `cmp`.
///
/// [`CascadeBand::FORCED_FULL`]: crate::core::CascadeBand::FORCED_FULL
///
/// # Errors
///
/// Store-format failures, rendered as strings.
pub fn store_verdict_lines_cascade(
    dir: &Path,
    pipeline: &Pipeline,
    cascade: &CascadeClassifier,
) -> Result<(Vec<String>, CascadeCounters), String> {
    scan_store(dir, pipeline, Some(cascade))
}

/// The store scan behind both public entry points. Without a cascade
/// every page of a block joins its full-classification batch. With one,
/// the block is read as a [`PageBlock`](kyp_store::PageBlock): every
/// starting URL is prescreened, and only the pages that fall through are
/// built and classified. Lines come out in stored order.
fn scan_store(
    dir: &Path,
    pipeline: &Pipeline,
    cascade: Option<&CascadeClassifier>,
) -> Result<(Vec<String>, CascadeCounters), String> {
    // Per page: either a finished URL-stage line, or an index into the
    // block's full-classification batch.
    enum Line {
        Done(String),
        Pending(usize),
    }
    let mut reader = open_pages(dir)?;
    let mut lines = Vec::new();
    let mut counters = CascadeCounters::default();
    let Some(cascade) = cascade else {
        while let Some(block) = reader
            .next_block()
            .map_err(|e| format!("read page store: {e}"))?
        {
            let batch: Vec<(String, ScrapedPage)> = block.into_iter().map(stored_page).collect();
            let classified = pipeline.classify_scraped(&batch, &mut crate::obs::NoopObserver);
            lines.extend(classified.iter().map(verdict_line));
        }
        return Ok((lines, counters));
    };
    while let Some(block) = reader
        .next_view()
        .map_err(|e| format!("read page store: {e}"))?
    {
        let mut slots = Vec::with_capacity(block.len());
        let mut batch: Vec<(String, ScrapedPage)> = Vec::new();
        for (i, url) in block.starting_urls().iter().enumerate() {
            let decision = cascade.prescreen_url(url);
            counters.record(&decision);
            if let CascadeDecision::Final(v) = decision {
                slots.push(Line::Done(render_verdict_line(
                    url.as_str(),
                    &v.verdict,
                    false,
                    v.stage,
                )));
                continue;
            }
            let page = block
                .page(i)
                .ok_or_else(|| format!("page store block has no row {i}"))?;
            slots.push(Line::Pending(batch.len()));
            batch.push(stored_page(page));
        }
        let classified = pipeline.classify_scraped(&batch, &mut crate::obs::NoopObserver);
        for slot in slots {
            match slot {
                Line::Done(line) => lines.push(line),
                Line::Pending(idx) => lines.push(verdict_line(&classified[idx])),
            }
        }
    }
    Ok((lines, counters))
}

/// Opens the page store of a corpus directory.
fn open_pages(dir: &Path) -> Result<PageStoreReader<BufReader<File>>, String> {
    let path = pages_path(dir);
    PageStoreReader::open(&path).map_err(|e| format!("open {}: {e}", path.display()))
}

/// A stored page as the full pipeline takes it: keyed by its starting
/// URL, captured in full on the first attempt.
fn stored_page(visit: VisitedPage) -> (String, ScrapedPage) {
    (
        visit.starting_url.as_str().to_owned(),
        ScrapedPage {
            visit,
            availability: SourceAvailability::FULL,
            attempts: 1,
            elapsed_ms: 0,
        },
    )
}

/// Rebuilds the serving page source from a store directory: the
/// [`StoredPages`] map and the request-pool URL list, in stored order.
///
/// # Errors
///
/// Store-format failures, rendered as strings.
pub fn load_serving_pages(dir: &Path) -> Result<(StoredPages, Vec<String>), String> {
    let pages = open_pages(dir)?
        .read_all()
        .map_err(|e| format!("read {}: {e}", pages_path(dir).display()))?;
    if pages.is_empty() {
        return Err(format!(
            "store at {} holds no pages (run `kyp gen` first)",
            dir.display()
        ));
    }
    let urls: Vec<String> = pages.iter().map(|p| p.starting_url.to_string()).collect();
    Ok((StoredPages::new(pages), urls))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The line `serde_json` writes for an index entry.
    #[derive(serde::Serialize)]
    struct Line {
        rdn: String,
        mld: String,
        text: String,
    }

    #[test]
    fn index_lines_are_serde_json_lines() {
        let url = Url::parse("https://www.pay-pal2.co.uk/login").unwrap();
        let samples = [
            ("Quote \" and \\ backslash", "line\nbreak\r and\ttab"),
            (
                "control \u{1}\u{8}\u{c}\u{1b}\u{1f}",
                "non-ASCII é ü ß ñ 漢字 🦀 © \u{7f}",
            ),
            ("", ""),
            ("\"", "\\\n"),
        ];
        for (title, text) in samples {
            let mut got = Vec::new();
            write_index_line(&mut got, &url, title, text).unwrap();
            let want = serde_json::to_string(&Line {
                rdn: url.rdn().unwrap().to_owned(),
                mld: url.mld().unwrap().to_owned(),
                text: format!("{title} {text}"),
            })
            .unwrap();
            let got = String::from_utf8(got).unwrap();
            assert_eq!(got, format!("{want}\n"), "{title:?} {text:?}");
            let back: IndexEntry = serde_json::from_str(got.trim_end()).unwrap();
            assert_eq!(back.text, format!("{title} {text}"));
        }
        // An IP host has no registered domain, so no line.
        let mut got = Vec::new();
        write_index_line(
            &mut got,
            &Url::parse("http://10.0.0.1/x").unwrap(),
            "t",
            "x",
        )
        .unwrap();
        assert!(got.is_empty());
    }
}
