//! Feature-matrix store: labeled f64 rows in checksummed blocks, grouped
//! by bundle.
//!
//! Rows are written as raw little-endian IEEE-754 bit patterns, so the
//! matrix a trainer streams back out of the store is bit-identical to
//! the one the extractor produced at generation time — the property the
//! byte-identical-model guarantee rests on. A block never spans bundles;
//! each block carries the bundle index its rows belong to, so readers
//! can route rows to train/test splits without consulting an index.

use crate::format::{FrameReader, FrameWriter, StoreError, StoreHeader, StoreKind, BLOCK_RECORDS};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Streams labeled feature rows into a store file, flushing a block per
/// [`BLOCK_RECORDS`] rows (or sooner, at a bundle boundary).
#[derive(Debug)]
pub struct FeatureStoreWriter<W: Write> {
    frame: FrameWriter<W>,
    n_features: usize,
    bundle: Option<u32>,
    n_bundles: u32,
    labels: Vec<u8>,
    rows: Vec<u8>,
    payload: Vec<u8>,
}

impl FeatureStoreWriter<BufWriter<File>> {
    /// Creates a feature store at `path` with the given header.
    ///
    /// # Errors
    ///
    /// [`StoreError::KindMismatch`] when `header.kind` is not
    /// [`StoreKind::Features`], [`StoreError::Corrupt`] when the header
    /// declares zero feature columns, plus filesystem failures.
    pub fn create(path: &Path, header: &StoreHeader) -> Result<Self, StoreError> {
        if header.kind != StoreKind::Features {
            return Err(StoreError::KindMismatch {
                found: header.kind,
                expected: StoreKind::Features,
            });
        }
        if header.n_features == 0 {
            return Err(StoreError::Corrupt {
                offset: 0,
                detail: "a feature store needs n_features > 0".to_string(),
            });
        }
        Ok(FeatureStoreWriter {
            n_features: header.n_features as usize,
            n_bundles: header.bundles.len() as u32,
            frame: FrameWriter::create(path, header)?,
            bundle: None,
            labels: Vec::new(),
            rows: Vec::new(),
            payload: Vec::new(),
        })
    }
}

impl<W: Write> FeatureStoreWriter<W> {
    /// Appends `labels.len()` rows (flat row-major `rows`, exactly
    /// `labels.len() * n_features` values) belonging to bundle index
    /// `bundle`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the shapes disagree or `bundle` is
    /// out of range for the header's bundle list.
    pub fn append_rows(
        &mut self,
        bundle: u32,
        rows: &[f64],
        labels: &[bool],
    ) -> Result<(), StoreError> {
        if rows.len() != labels.len() * self.n_features {
            return Err(StoreError::Corrupt {
                offset: 0,
                detail: format!(
                    "shape mismatch: {} values for {} rows of {} features",
                    rows.len(),
                    labels.len(),
                    self.n_features
                ),
            });
        }
        if bundle >= self.n_bundles {
            return Err(StoreError::Corrupt {
                offset: 0,
                detail: format!(
                    "bundle index {bundle} out of range ({} bundles)",
                    self.n_bundles
                ),
            });
        }
        if self.bundle.is_some_and(|b| b != bundle) {
            self.flush_block()?;
        }
        self.bundle = Some(bundle);
        for (i, &label) in labels.iter().enumerate() {
            self.labels.push(u8::from(label));
            for &v in &rows[i * self.n_features..(i + 1) * self.n_features] {
                self.rows.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            if self.labels.len() >= BLOCK_RECORDS {
                self.flush_block()?;
                self.bundle = Some(bundle);
            }
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<(), StoreError> {
        let n = self.labels.len();
        if n == 0 {
            return Ok(());
        }
        let Some(bundle) = self.bundle else {
            return Ok(());
        };
        self.payload.clear();
        self.payload.extend_from_slice(&bundle.to_le_bytes());
        self.payload.extend_from_slice(&self.labels);
        self.payload.extend_from_slice(&self.rows);
        self.frame.write_block(n as u32, &self.payload)?;
        self.labels.clear();
        self.rows.clear();
        self.bundle = None;
        Ok(())
    }

    /// Flushes any partial block and the underlying file; returns
    /// `(blocks, records, bytes)` written.
    pub fn finish(mut self) -> Result<(u64, u64, u64), StoreError> {
        self.flush_block()?;
        self.frame.finish()
    }
}

/// One decoded block of feature rows.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureBlock {
    /// Index into the header's bundle list.
    pub bundle: u32,
    /// Per-row labels (`true` = phishing).
    pub labels: Vec<bool>,
    /// Flat row-major matrix: `labels.len() * n_features` values.
    pub rows: Vec<f64>,
}

/// Streams feature blocks back out of a store file.
#[derive(Debug)]
pub struct FeatureStoreReader<R: Read> {
    frame: FrameReader<R>,
    n_features: usize,
    payload: Vec<u8>,
}

impl FeatureStoreReader<BufReader<File>> {
    /// Opens the feature store at `path`, validating magic, version,
    /// header checksum and kind.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let frame = FrameReader::open(path, StoreKind::Features)?;
        Self::from_frame(frame)
    }
}

impl<R: Read> FeatureStoreReader<R> {
    /// Wraps an already-open frame reader (must hold features).
    pub fn from_frame(frame: FrameReader<R>) -> Result<Self, StoreError> {
        if frame.header().kind != StoreKind::Features {
            return Err(StoreError::KindMismatch {
                found: frame.header().kind,
                expected: StoreKind::Features,
            });
        }
        Ok(FeatureStoreReader {
            n_features: frame.header().n_features as usize,
            frame,
            payload: Vec::new(),
        })
    }

    /// The validated file header.
    pub fn header(&self) -> &StoreHeader {
        self.frame.header()
    }

    /// Feature columns per row.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Decodes the next block, or `None` at a clean EOF.
    pub fn next_block(&mut self) -> Result<Option<FeatureBlock>, StoreError> {
        let offset = self.frame.offset();
        let Some(n) = self.frame.next_block(&mut self.payload)? else {
            return Ok(None);
        };
        let n = n as usize;
        // A forged record count times a forged header width can pass
        // `usize::MAX`: a size no payload holds.
        let want = n
            .checked_mul(self.n_features)
            .and_then(|values| values.checked_mul(8))
            .and_then(|bytes| bytes.checked_add(4 + n));
        if want != Some(self.payload.len()) {
            let want = want.map_or_else(|| "more than usize::MAX".to_owned(), |w| w.to_string());
            return Err(StoreError::Corrupt {
                offset,
                detail: format!(
                    "feature block holds {} bytes, expected {want} for {n} rows",
                    self.payload.len()
                ),
            });
        }
        // Decoded through `get` even though the length was validated
        // above: the bounds live with the accesses, so the two cannot
        // drift apart, and a decode bug surfaces as `Corrupt`, not a
        // panic in a reader entry point.
        let short = |what: &str| StoreError::Corrupt {
            offset,
            detail: format!("feature block ends inside {what}"),
        };
        let bundle = self
            .payload
            .get(..4)
            .and_then(|b| <[u8; 4]>::try_from(b).ok())
            .map(u32::from_le_bytes)
            .ok_or_else(|| short("bundle id"))?;
        if self.frame.header().bundle_name(bundle).is_none() {
            return Err(StoreError::Corrupt {
                offset,
                detail: format!("feature block references unknown bundle {bundle}"),
            });
        }
        let mut labels = Vec::with_capacity(n);
        for &b in self.payload.get(4..4 + n).ok_or_else(|| short("labels"))? {
            match b {
                0 => labels.push(false),
                1 => labels.push(true),
                other => {
                    return Err(StoreError::Corrupt {
                        offset,
                        detail: format!("label byte has invalid value {other}"),
                    })
                }
            }
        }
        let mut rows = Vec::with_capacity(n * self.n_features);
        let row_bytes = self.payload.get(4 + n..).ok_or_else(|| short("rows"))?;
        for chunk in row_bytes.chunks_exact(8) {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            rows.push(f64::from_bits(u64::from_le_bytes(word)));
        }
        Ok(Some(FeatureBlock {
            bundle,
            labels,
            rows,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::WorldStamp;

    fn header(n_features: u32) -> StoreHeader {
        StoreHeader {
            kind: StoreKind::Features,
            stamp: WorldStamp {
                seed: 3,
                phish_train: 1,
                phish_test: 1,
                phish_brand: 1,
                leg_train: 1,
                english_test: 1,
                other_language_test: 1,
                fault_rate: 0.0,
                fault_seed: 0,
            },
            n_features,
            bundles: vec!["leg_train".into(), "phish_train".into()],
            block_records: BLOCK_RECORDS as u32,
        }
    }

    fn writer(bytes: &mut Vec<u8>, n_features: usize) -> FeatureStoreWriter<&mut Vec<u8>> {
        FeatureStoreWriter {
            frame: FrameWriter::new(bytes, &header(n_features as u32)).unwrap(),
            n_features,
            bundle: None,
            n_bundles: 2,
            labels: Vec::new(),
            rows: Vec::new(),
            payload: Vec::new(),
        }
    }

    #[test]
    fn roundtrip_rows_bit_exact() {
        let mut bytes = Vec::new();
        let mut w = writer(&mut bytes, 3);
        // Exotic bit patterns must survive exactly: negative zero,
        // subnormals, infinities and a quiet NaN payload.
        let rows = vec![
            -0.0,
            f64::MIN_POSITIVE / 2.0,
            f64::INFINITY,
            1.0 / 3.0,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_0000_0000_beef),
        ];
        w.append_rows(0, &rows, &[false, true]).unwrap();
        w.append_rows(1, &[1.0, 2.0, 3.0], &[true]).unwrap();
        let (blocks, records, _) = w.finish().unwrap();
        assert_eq!(blocks, 2, "bundle switch must cut a block");
        assert_eq!(records, 3);

        let frame = FrameReader::new(&bytes[..]).unwrap();
        let mut r = FeatureStoreReader::from_frame(frame).unwrap();
        let a = r.next_block().unwrap().unwrap();
        assert_eq!(a.bundle, 0);
        assert_eq!(a.labels, [false, true]);
        let got: Vec<u64> = a.rows.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = rows.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "row bits must round-trip exactly");
        let b = r.next_block().unwrap().unwrap();
        assert_eq!((b.bundle, b.labels.len()), (1, 1));
        assert!(r.next_block().unwrap().is_none());
    }

    #[test]
    fn long_bundle_splits_into_blocks() {
        let mut bytes = Vec::new();
        let mut w = writer(&mut bytes, 2);
        let n = BLOCK_RECORDS + 5;
        let rows: Vec<f64> = (0..n * 2).map(|i| i as f64).collect();
        let labels = vec![true; n];
        w.append_rows(1, &rows, &labels).unwrap();
        let (blocks, records, _) = w.finish().unwrap();
        assert_eq!(blocks, 2);
        assert_eq!(records, n as u64);

        let frame = FrameReader::new(&bytes[..]).unwrap();
        let mut r = FeatureStoreReader::from_frame(frame).unwrap();
        let mut back_rows = Vec::new();
        let mut back_labels = Vec::new();
        while let Some(block) = r.next_block().unwrap() {
            assert_eq!(block.bundle, 1);
            back_rows.extend(block.rows);
            back_labels.extend(block.labels);
        }
        assert_eq!(back_rows, rows);
        assert_eq!(back_labels, labels);
    }

    #[test]
    fn forged_shape_past_usize_is_corrupt_not_an_overflow() {
        let mut bytes = Vec::new();
        let mut fw = FrameWriter::new(&mut bytes, &header(u32::MAX)).unwrap();
        fw.write_block(u32::MAX, &[0, 0, 0, 0, 1]).unwrap();
        fw.finish().unwrap();
        let frame = FrameReader::new(&bytes[..]).unwrap();
        match FeatureStoreReader::from_frame(frame).unwrap().next_block() {
            Err(StoreError::Corrupt { detail, .. }) => assert_eq!(
                detail,
                "feature block holds 5 bytes, expected more than usize::MAX for 4294967295 rows"
            ),
            other => panic!("expected a corrupt-block error, got {other:?}"),
        }
    }

    #[test]
    fn shape_mismatch_is_typed() {
        let mut bytes = Vec::new();
        let mut w = writer(&mut bytes, 2);
        assert!(matches!(
            w.append_rows(0, &[1.0], &[true]),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(matches!(
            w.append_rows(9, &[1.0, 2.0], &[true]),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
