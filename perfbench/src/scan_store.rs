//! `scan-store`: `kyp scan --from-store --cascade` — classify every page
//! of a persisted corpus, URL stage first, full pipeline for the rest.

use crate::ledger::{Counts, Layer, Ledger};
use crate::setup;
use crate::Workload;
use knowyourphish::core::{
    CascadeClassifier, CascadeDecision, ClassifiedPage, DataSources, DetectorConfig, PhishDetector,
    Pipeline, PipelineVerdict, TargetVerdict,
};
use knowyourphish::datagen::Corpus;
use knowyourphish::store::{pages_path, PageStoreReader};
use knowyourphish::storeflow;
use knowyourphish::web::{SourceAvailability, VisitedPage};
use std::path::{Path, PathBuf};

const URL_ONLY_TAG: &str = " stage=url_only";

/// A store directory plus the models `kyp train --from-store` and
/// `kyp cascade-train --from-store` would fit from it.
#[derive(Debug)]
pub struct ScanStore {
    dir: PathBuf,
    pipeline: Pipeline,
    cascade: CascadeClassifier,
    /// The line each stored page must get, in stored order: its URL-stage
    /// verdict where `prescreen` is final, otherwise its line from the
    /// cascade-free scan.
    expected: Vec<String>,
    page_bytes: u64,
}

/// Generates the corpus for `seed`, persists it under `dir` and trains
/// both stages from the store.
pub fn setup(seed: u64, dir: &Path) -> Result<ScanStore, String> {
    let config = setup::campaign(seed);
    let corpus = Corpus::generate(&config);
    let built = storeflow::build_store(dir, &corpus, &config, &corpus.world, 0.0, seed)?;
    if built.scrape.failed > 0 {
        return Err(format!(
            "{} corpus pages failed to load",
            built.scrape.failed
        ));
    }
    let train = storeflow::load_split_dataset(dir, "leg_train", "phish_train")?;
    let detector = PhishDetector::train(&train, &DetectorConfig::default());
    let (legit, phish) = storeflow::load_split_urls(dir, "leg_train", "phish_train")?;
    let cascade = setup::cascade(&legit, &phish, &corpus.ranker)?;
    let pipeline = setup::pipeline(&corpus, detector);
    Ok(ScanStore {
        dir: dir.to_path_buf(),
        pipeline,
        cascade,
        expected: Vec::new(),
        page_bytes: built.page_bytes,
    })
}

impl ScanStore {
    /// The store scan driven one layer entry point at a time, in the
    /// order `storeflow::store_verdict_lines_cascade` makes the calls.
    fn traced(&self, ledger: &mut Ledger) -> Result<Vec<String>, String> {
        let path = pages_path(&self.dir);
        let mut reader = ledger
            .span(Layer::StoreDecode, || PageStoreReader::open(&path))
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        let mut lines = Vec::with_capacity(self.expected.len());
        while let Some(block) = ledger
            .span(Layer::StoreDecode, || reader.next_block())
            .map_err(|e| format!("read page store: {e}"))?
        {
            for visit in block {
                let url = visit.starting_url.to_string();
                let decision = ledger.span(Layer::UrlStage, || self.cascade.prescreen(&url));
                let (verdict, tag) = match decision {
                    CascadeDecision::Final(v) => (v.verdict, URL_ONLY_TAG),
                    CascadeDecision::Uncertain { .. } | CascadeDecision::Unscorable => {
                        (self.classify(&visit, ledger), "")
                    }
                };
                let page = ClassifiedPage {
                    url,
                    verdict,
                    degraded: false,
                };
                lines.push(storeflow::verdict_line(&page) + tag);
            }
        }
        Ok(lines)
    }

    /// `Pipeline::classify_bundle` for a fully captured page, one span
    /// per stage.
    fn classify(&self, visit: &VisitedPage, ledger: &mut Ledger) -> PipelineVerdict {
        let extractor = self.pipeline.extractor();
        let detector = self.pipeline.detector();
        let (sources, features) = ledger.span(Layer::Extract, || {
            let sources = DataSources::from_partial(visit, &SourceAvailability::FULL);
            let features = extractor.extract_with_sources(visit, &sources);
            (sources, features)
        });
        let score = ledger.span(Layer::Score, || detector.score(&features));
        if score < detector.threshold() {
            return PipelineVerdict::Legitimate { score };
        }
        let identifier = self.pipeline.identifier();
        match ledger.span(Layer::Target, || {
            identifier.identify_with_sources(visit, &sources)
        }) {
            TargetVerdict::Legitimate { step } => {
                PipelineVerdict::ConfirmedLegitimate { score, step }
            }
            TargetVerdict::Phish { candidates } => PipelineVerdict::Phish { score, candidates },
            TargetVerdict::Unknown => PipelineVerdict::Suspicious { score },
        }
    }
}

impl Workload for ScanStore {
    type Output = Vec<String>;

    fn reference(&mut self) -> Result<(), String> {
        let plain = storeflow::store_verdict_lines(&self.dir, &self.pipeline)?;
        self.expected = plain
            .into_iter()
            .map(|line| {
                let url = line.split('\t').next().unwrap_or_default().to_owned();
                match self.cascade.prescreen(&url) {
                    CascadeDecision::Final(v) => {
                        let page = ClassifiedPage {
                            url,
                            verdict: v.verdict,
                            degraded: false,
                        };
                        storeflow::verdict_line(&page) + URL_ONLY_TAG
                    }
                    CascadeDecision::Uncertain { .. } | CascadeDecision::Unscorable => line,
                }
            })
            .collect();
        Ok(())
    }

    fn pass(&mut self, ledger: Option<&mut Ledger>) -> Result<Vec<String>, String> {
        match ledger {
            Some(ledger) => self.traced(ledger),
            None => {
                storeflow::store_verdict_lines_cascade(&self.dir, &self.pipeline, &self.cascade)
                    .map(|(lines, _)| lines)
            }
        }
    }

    fn check(&mut self, lines: &Vec<String>) -> Result<Counts, String> {
        if lines.len() != self.expected.len() {
            return Err(format!(
                "scan returned {} verdicts for {} stored pages",
                lines.len(),
                self.expected.len()
            ));
        }
        let mut counts = Counts {
            items: lines.len() as u64,
            store_bytes: self.page_bytes,
            ..Counts::default()
        };
        for (line, want) in lines.iter().zip(&self.expected) {
            if line != want {
                return Err(format!(
                    "verdict differs from the reference:\n  got  {line}\n  want {want}"
                ));
            }
            if line.ends_with(URL_ONLY_TAG) {
                counts.url_final += 1;
            } else {
                counts.full += 1;
                let kind = line.split('\t').nth(1).and_then(|s| s.split(' ').next());
                if kind != Some("legitimate") {
                    counts.flagged += 1;
                }
            }
        }
        if counts.url_final == 0 || counts.full == 0 {
            return Err(format!(
                "both stages must run: {} URL-stage and {} full verdicts",
                counts.url_final, counts.full
            ));
        }
        Ok(counts)
    }
}
