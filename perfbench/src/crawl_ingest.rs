//! `crawl-ingest`: `kyp gen --store` — scrape every corpus URL through
//! the resilient browser, extract its features and stream pages and rows
//! into the store.

use crate::ledger::{Counts, Layer, Ledger};
use crate::setup;
use crate::Workload;
use knowyourphish::core::features::FEATURE_COUNT;
use knowyourphish::core::FeatureExtractor;
use knowyourphish::datagen::{CampaignConfig, Corpus};
use knowyourphish::store::{
    features_path, fnv1a64, pages_path, FeatureStoreReader, FeatureStoreWriter, PageStoreReader,
    PageStoreWriter, StoreHeader, StoreKind, BLOCK_RECORDS,
};
use knowyourphish::storeflow;
use knowyourphish::web::{ResilientBrowser, VisitedPage};
use std::fs;
use std::path::{Path, PathBuf};

/// Every file a store build writes; a pass must reproduce them byte for
/// byte.
const OUTPUTS: [&str; 4] = ["pages.kyps", "features.kypf", "ranker.json", "index.jsonl"];

/// A generated corpus to ingest, and the digest and size its store must
/// have.
#[derive(Debug)]
pub struct CrawlIngest {
    dir: PathBuf,
    config: CampaignConfig,
    corpus: Corpus,
    pages: u64,
    reference: Option<(u64, u64)>,
}

/// Generates the corpus for `seed` and ingests it once into `dir`.
pub fn setup(seed: u64, dir: &Path) -> Result<CrawlIngest, String> {
    let config = setup::campaign(seed);
    let corpus = Corpus::generate(&config);
    let built = storeflow::build_store(dir, &corpus, &config, &corpus.world, 0.0, seed)?;
    if built.scrape.failed > 0 {
        return Err(format!(
            "{} corpus pages failed to load",
            built.scrape.failed
        ));
    }
    Ok(CrawlIngest {
        dir: dir.to_path_buf(),
        config,
        corpus,
        pages: built.pages,
        reference: None,
    })
}

/// Reads a store back: its pages must be the corpus URLs in bundle
/// order, and its rows the features of those pages, bit for bit.
fn verify_store(dir: &Path, corpus: &Corpus) -> Result<(), String> {
    let pages = PageStoreReader::open(&pages_path(dir))
        .and_then(PageStoreReader::read_all)
        .map_err(|e| format!("read back page store: {e}"))?;
    let stored: Vec<String> = pages.iter().map(|p| p.starting_url.to_string()).collect();
    let expected: Vec<String> = corpus
        .scrape_bundles()
        .into_iter()
        .flat_map(|(_, urls, _)| urls)
        .collect();
    if stored != expected {
        return Err("page store does not hold the corpus URLs in bundle order".to_owned());
    }
    let mut reader = FeatureStoreReader::open(&features_path(dir))
        .map_err(|e| format!("open feature store: {e}"))?;
    let mut rows = Vec::with_capacity(pages.len() * FEATURE_COUNT);
    while let Some(block) = reader
        .next_block()
        .map_err(|e| format!("read back feature store: {e}"))?
    {
        rows.extend(block.rows);
    }
    let extractor = FeatureExtractor::new(corpus.ranker.clone());
    let want = extractor.extract_batch_flat(&pages);
    let same = rows.len() == want.len()
        && rows
            .iter()
            .zip(&want)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !same {
        return Err("stored feature rows differ from re-extracting the stored pages".to_owned());
    }
    Ok(())
}

/// FNV-1a over every output file, and their total size.
fn digest(dir: &Path) -> Result<(u64, u64), String> {
    let mut bytes = Vec::new();
    for name in OUTPUTS {
        let path = dir.join(name);
        bytes.extend(fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?);
    }
    Ok((fnv1a64(&bytes), bytes.len() as u64))
}

impl CrawlIngest {
    /// `storeflow::build_store` driven one layer entry point at a time,
    /// making the same calls in the same order.
    fn traced(&self, ledger: &mut Ledger) -> Result<u64, String> {
        let corpus = &self.corpus;
        let bundles = corpus.scrape_bundles();
        let names: Vec<String> = bundles.iter().map(|(n, _, _)| (*n).to_owned()).collect();
        let stamp = storeflow::world_stamp(&self.config, 0.0, self.config.seed);
        let header = |kind, n_features| StoreHeader {
            kind,
            stamp: stamp.clone(),
            n_features,
            bundles: names.clone(),
            block_records: BLOCK_RECORDS as u32,
        };
        let pages_header = header(StoreKind::Pages, 0);
        let features_header = header(StoreKind::Features, FEATURE_COUNT as u32);
        let (mut page_writer, mut feature_writer) = ledger
            .span(Layer::StoreWrite, || {
                Ok::<_, knowyourphish::store::StoreError>((
                    PageStoreWriter::create(&pages_path(&self.dir), &pages_header)?,
                    FeatureStoreWriter::create(&features_path(&self.dir), &features_header)?,
                ))
            })
            .map_err(|e| format!("create store: {e}"))?;

        let extractor = FeatureExtractor::new(corpus.ranker.clone());
        let mut scraper = ResilientBrowser::new(&corpus.world);
        let mut failed = 0u64;
        let mut chunk: Vec<VisitedPage> = Vec::with_capacity(BLOCK_RECORDS);
        for (bundle, (_, urls, is_phish)) in bundles.iter().enumerate() {
            for url in urls {
                match ledger.span(Layer::Scrape, || scraper.scrape(url)) {
                    Ok(scraped) => chunk.push(scraped.visit),
                    Err(_) => failed += 1,
                }
                if chunk.len() >= BLOCK_RECORDS {
                    flush(
                        &extractor,
                        &mut page_writer,
                        &mut feature_writer,
                        bundle,
                        *is_phish,
                        &mut chunk,
                        ledger,
                    )?;
                }
            }
            // A block never spans bundles.
            flush(
                &extractor,
                &mut page_writer,
                &mut feature_writer,
                bundle,
                *is_phish,
                &mut chunk,
                ledger,
            )?;
        }
        ledger
            .span(Layer::StoreWrite, || {
                page_writer.finish()?;
                feature_writer.finish()
            })
            .map_err(|e| format!("finish store: {e}"))?;
        ledger.span(Layer::Sidecars, || {
            storeflow::write_corpus_sidecars(&self.dir, corpus)
        })?;
        Ok(failed)
    }
}

type PageWriter = PageStoreWriter<std::io::BufWriter<fs::File>>;
type FeatureWriter = FeatureStoreWriter<std::io::BufWriter<fs::File>>;

/// Persists one buffered block of pages and their feature rows.
fn flush(
    extractor: &FeatureExtractor,
    page_writer: &mut PageWriter,
    feature_writer: &mut FeatureWriter,
    bundle: usize,
    is_phish: bool,
    chunk: &mut Vec<VisitedPage>,
    ledger: &mut Ledger,
) -> Result<(), String> {
    if chunk.is_empty() {
        return Ok(());
    }
    ledger
        .span(Layer::StoreWrite, || {
            chunk.iter().try_for_each(|page| page_writer.append(page))
        })
        .map_err(|e| format!("write page store: {e}"))?;
    let flat = ledger.span(Layer::Extract, || extractor.extract_batch_flat(chunk));
    let labels = vec![is_phish; chunk.len()];
    ledger
        .span(Layer::StoreWrite, || {
            feature_writer.append_rows(bundle as u32, &flat, &labels)
        })
        .map_err(|e| format!("write feature store: {e}"))?;
    chunk.clear();
    Ok(())
}

impl Workload for CrawlIngest {
    /// Pages that failed to load.
    type Output = u64;

    /// Verifies the set-up's store by reading it back, then takes its
    /// digest and size as the reference.
    fn reference(&mut self) -> Result<(), String> {
        verify_store(&self.dir, &self.corpus)?;
        self.reference = Some(digest(&self.dir)?);
        Ok(())
    }

    fn pass(&mut self, ledger: Option<&mut Ledger>) -> Result<u64, String> {
        match ledger {
            Some(ledger) => self.traced(ledger),
            None => storeflow::build_store(
                &self.dir,
                &self.corpus,
                &self.config,
                &self.corpus.world,
                0.0,
                self.config.seed,
            )
            .map(|built| built.scrape.failed),
        }
    }

    fn check(&mut self, failed: &u64) -> Result<Counts, String> {
        let (digest, store_bytes) = digest(&self.dir)?;
        if self.reference != Some((digest, store_bytes)) {
            return Err("the ingested store differs from the reference build".to_owned());
        }
        Ok(Counts {
            items: self.pages + failed,
            failed: *failed,
            store_bytes,
            ..Counts::default()
        })
    }
}
