//! The shared on-disk framing: magic, version stamp, checksummed json
//! header, then a sequence of length-prefixed checksummed blocks.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ magic  "KYPSTORE"                                  8 bytes   │
//! │ format_version  (2)                          u32 LE 4 bytes  │
//! │ header_len                                   u32 LE 4 bytes  │
//! │ header json  (StoreHeader, serde)            header_len      │
//! │ header checksum  (XXH64 of header json)      u64 LE 8 bytes  │
//! ├──────────────────────────────────────────────────────────────┤
//! │ block 0: payload_len u32 LE │ record_count u32 LE            │
//! │          payload … payload_len bytes                         │
//! │          checksum  (XXH64 of payload)        u64 LE 8 bytes  │
//! ├──────────────────────────────────────────────────────────────┤
//! │ block 1: …                                                   │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! There is deliberately no footer: writers append blocks as data
//! streams in and never seek backwards, so a crash mid-write leaves a
//! prefix of valid blocks followed by at most one torn block, which
//! readers surface as [`StoreError::Truncated`] rather than silently
//! accepting a short corpus.
//!
//! Every checksum is [`xxh64`] (seed 0) of the bytes it follows, stored
//! little-endian. Format 1 checksummed with FNV-1a 64 and is otherwise
//! the same bytes; a reader refuses any version but
//! [`STORE_FORMAT_VERSION`] with [`StoreError::VersionMismatch`].

use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Leading magic bytes of every store file.
pub const STORE_MAGIC: [u8; 8] = *b"KYPSTORE";

/// The store format this build writes and accepts.
///
/// Bump on any change to the framing, the header schema, or the block
/// payload encodings that older readers would misinterpret — mismatches
/// are hard errors in the style of `ModelSnapshot`.
pub const STORE_FORMAT_VERSION: u32 = 2;

/// Records per block: bounds writer memory and the unit of checksum
/// verification and streaming reads.
pub const BLOCK_RECORDS: usize = 256;

/// Upper bound accepted for a single block payload; a length field above
/// this is treated as corruption instead of being allocated.
const MAX_BLOCK_LEN: u32 = 1 << 30;

/// What a store file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StoreKind {
    /// Scraped [`kyp_web::VisitedPage`] bundles, columnar per block.
    Pages,
    /// Extracted feature matrices: labeled f64 rows grouped by bundle.
    Features,
}

impl StoreKind {
    /// Lower-case human name, used in messages and `store inspect`.
    pub fn name(self) -> &'static str {
        match self {
            StoreKind::Pages => "pages",
            StoreKind::Features => "features",
        }
    }
}

/// The exact world configuration a store was generated from.
///
/// Pages and features written into one store directory must carry the
/// same stamp; training against features extracted from a different
/// world than the pages (or the ranker) would silently skew every
/// downstream number, so [`validate_pair`](crate::validate_pair) makes
/// it a hard [`StoreError::StampMismatch`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldStamp {
    /// Master seed of the simulated web.
    pub seed: u64,
    /// Phishing training-set size.
    pub phish_train: usize,
    /// Phishing test-set size.
    pub phish_test: usize,
    /// Distinct brands targeted by the phishing campaigns.
    pub phish_brand: usize,
    /// Legitimate training-set size.
    pub leg_train: usize,
    /// English legitimate test-set size.
    pub english_test: usize,
    /// Non-English legitimate test-set size.
    pub other_language_test: usize,
    /// Scrape fault-injection rate (0.0 = clean web).
    pub fault_rate: f64,
    /// Seed of the fault plan (meaningful only when `fault_rate > 0`).
    pub fault_seed: u64,
}

/// The typed, versioned header at the front of every store file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreHeader {
    /// What the blocks of this file encode.
    pub kind: StoreKind,
    /// The world configuration the content was generated from.
    pub stamp: WorldStamp,
    /// Feature columns per row (`0` for page stores).
    pub n_features: u32,
    /// Bundle names, in generation order; block payloads reference
    /// bundles by index into this list.
    pub bundles: Vec<String>,
    /// The block record capacity the writer used (informational).
    pub block_records: u32,
}

impl StoreHeader {
    /// The index of `name` in the bundle list.
    pub fn bundle_id(&self, name: &str) -> Option<u32> {
        self.bundles
            .iter()
            .position(|b| b == name)
            .map(|i| i as u32)
    }

    /// The bundle name at index `id`.
    pub fn bundle_name(&self, id: u32) -> Option<&str> {
        self.bundles.get(id as usize).map(String::as_str)
    }
}

/// Why a store file could not be written or read.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// The file does not start with [`STORE_MAGIC`].
    BadMagic {
        /// The first eight bytes actually found.
        found: [u8; 8],
    },
    /// The file was written by an incompatible format version.
    VersionMismatch {
        /// The version stamped in the file.
        found: u32,
        /// The version this build supports.
        expected: u32,
    },
    /// The file holds a different kind of content than the caller asked
    /// for (e.g. a features file opened as a page store).
    KindMismatch {
        /// The kind stamped in the file header.
        found: StoreKind,
        /// The kind the caller expected.
        expected: StoreKind,
    },
    /// The file ends mid-structure — a torn write or a truncated copy.
    Truncated {
        /// Byte offset at which the structure was cut off.
        offset: u64,
        /// What was being read when the data ran out.
        detail: String,
    },
    /// The bytes are structurally present but wrong: checksum mismatch,
    /// implausible lengths, undecodable payloads.
    Corrupt {
        /// Byte offset of the corrupt structure.
        offset: u64,
        /// What failed to verify or decode.
        detail: String,
    },
    /// Two store files that must describe the same world do not.
    StampMismatch {
        /// Which header fields disagree.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::BadMagic { found } => write!(
                f,
                "not a kyp store file: magic {found:?} (expected {STORE_MAGIC:?})"
            ),
            StoreError::VersionMismatch { found, expected } => write!(
                f,
                "store format version {found} is not supported (this build \
                 reads version {expected}; re-run `kyp gen --out` with a \
                 matching build)"
            ),
            StoreError::KindMismatch { found, expected } => write!(
                f,
                "store holds {} but {} were expected",
                found.name(),
                expected.name()
            ),
            StoreError::Truncated { offset, detail } => {
                write!(f, "store truncated at byte {offset}: {detail}")
            }
            StoreError::Corrupt { offset, detail } => {
                write!(f, "store corrupt at byte {offset}: {detail}")
            }
            StoreError::StampMismatch { detail } => {
                write!(f, "store stamp mismatch: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// FNV-1a 64-bit hash, one byte at a time.
///
/// No longer the store checksum (that is [`xxh64`] since format 2): it
/// stays as perfbench's digest of a store build's output files, which
/// only has to be the same function on both sides of a comparison.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

/// XXH64 with seed 0 — the header and block checksum.
///
/// Four independent 8-byte lanes of add-multiply-rotate rounds, so it
/// runs at memory speed instead of one multiply per byte. Each round
/// rotates its product by 31 bits before the next multiply, so a flip of
/// a word's bit 63 is mixed back into the low bits instead of carried
/// out of the word, which is how any two such flips cancel in a
/// word-at-a-time FNV-1a. Written out from the published specification
/// (`xxhash_spec.md`), with no dependency, no allocation and no panic
/// site.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut lanes = [
            XXH_P1.wrapping_add(XXH_P2),
            XXH_P2,
            0,
            XXH_P1.wrapping_neg(),
        ];
        for stripe in &mut stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = xxh_round(*lane, le64(word));
            }
        }
        let [l1, l2, l3, l4] = lanes;
        let h = l1
            .rotate_left(1)
            .wrapping_add(l2.rotate_left(7))
            .wrapping_add(l3.rotate_left(12))
            .wrapping_add(l4.rotate_left(18));
        lanes.into_iter().fold(h, |h, lane| {
            (h ^ xxh_round(0, lane))
                .wrapping_mul(XXH_P1)
                .wrapping_add(XXH_P4)
        })
    } else {
        XXH_P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        h ^= xxh_round(0, le64(word));
        h = h.rotate_left(27).wrapping_mul(XXH_P1).wrapping_add(XXH_P4);
    }
    let mut quads = words.remainder().chunks_exact(4);
    for quad in &mut quads {
        let quad = <[u8; 4]>::try_from(quad).map_or(0, u32::from_le_bytes);
        h ^= u64::from(quad).wrapping_mul(XXH_P1);
        h = h.rotate_left(23).wrapping_mul(XXH_P2).wrapping_add(XXH_P3);
    }
    for &b in quads.remainder() {
        h ^= u64::from(b).wrapping_mul(XXH_P5);
        h = h.rotate_left(11).wrapping_mul(XXH_P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
}

/// One XXH64 round: mixes an 8-byte word into a lane.
fn xxh_round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

/// A little-endian word of an 8-byte chunk (every caller passes one).
fn le64(word: &[u8]) -> u64 {
    <[u8; 8]>::try_from(word).map_or(0, u64::from_le_bytes)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes the framing: header up front, then checksummed blocks on
/// demand. Generic over `Write` so tests can frame into a `Vec<u8>`.
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    out: W,
    offset: u64,
    blocks: u64,
    records: u64,
}

impl FrameWriter<BufWriter<File>> {
    /// Creates `path` (truncating any previous file) and writes the
    /// header for `header`.
    pub fn create(path: &Path, header: &StoreHeader) -> Result<Self, StoreError> {
        let file = File::create(path)?;
        FrameWriter::new(BufWriter::new(file), header)
    }
}

impl<W: Write> FrameWriter<W> {
    /// Writes magic, version and the checksummed header into `out`.
    pub fn new(mut out: W, header: &StoreHeader) -> Result<Self, StoreError> {
        let json = serde_json::to_string(header)
            .map_err(|e| StoreError::Corrupt {
                offset: 0,
                detail: format!("header failed to serialize: {e}"),
            })?
            .into_bytes();
        let mut head = Vec::with_capacity(16 + json.len() + 8);
        head.extend_from_slice(&STORE_MAGIC);
        put_u32(&mut head, STORE_FORMAT_VERSION);
        put_u32(&mut head, json.len() as u32);
        head.extend_from_slice(&json);
        head.extend_from_slice(&xxh64(&json).to_le_bytes());
        out.write_all(&head)?;
        Ok(FrameWriter {
            out,
            offset: head.len() as u64,
            blocks: 0,
            records: 0,
        })
    }

    /// Appends one checksummed block of `record_count` records.
    pub fn write_block(&mut self, record_count: u32, payload: &[u8]) -> Result<(), StoreError> {
        let mut head = [0u8; 8];
        head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        head[4..].copy_from_slice(&record_count.to_le_bytes());
        self.out.write_all(&head)?;
        self.out.write_all(payload)?;
        self.out.write_all(&xxh64(payload).to_le_bytes())?;
        self.offset += 8 + payload.len() as u64 + 8;
        self.blocks += 1;
        self.records += u64::from(record_count);
        Ok(())
    }

    /// Flushes and returns `(blocks, records, bytes)` written.
    pub fn finish(mut self) -> Result<(u64, u64, u64), StoreError> {
        self.out.flush()?;
        Ok((self.blocks, self.records, self.offset))
    }
}

/// Reads the framing sequentially: validates magic, version and header
/// once, then yields verified block payloads one at a time so readers
/// never hold more than one block in memory.
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    input: R,
    header: StoreHeader,
    offset: u64,
    blocks_read: u64,
}

impl FrameReader<BufReader<File>> {
    /// Opens `path` and validates that it holds `expected` content.
    pub fn open(path: &Path, expected: StoreKind) -> Result<Self, StoreError> {
        let reader = Self::open_any(path)?;
        if reader.header.kind != expected {
            return Err(StoreError::KindMismatch {
                found: reader.header.kind,
                expected,
            });
        }
        Ok(reader)
    }

    /// Opens `path` accepting either kind (used by `store inspect`).
    pub fn open_any(path: &Path) -> Result<Self, StoreError> {
        let file = File::open(path)?;
        FrameReader::new(BufReader::new(file))
    }
}

impl<R: Read> FrameReader<R> {
    /// Validates magic, version and header checksum, parses the header.
    pub fn new(mut input: R) -> Result<Self, StoreError> {
        let mut offset = 0u64;
        let mut magic = [0u8; 8];
        read_exact_at(&mut input, &mut magic, offset, "file magic")?;
        if magic != STORE_MAGIC {
            return Err(StoreError::BadMagic { found: magic });
        }
        offset += 8;
        let mut word = [0u8; 4];
        read_exact_at(&mut input, &mut word, offset, "format version")?;
        let version = u32::from_le_bytes(word);
        if version != STORE_FORMAT_VERSION {
            return Err(StoreError::VersionMismatch {
                found: version,
                expected: STORE_FORMAT_VERSION,
            });
        }
        offset += 4;
        read_exact_at(&mut input, &mut word, offset, "header length")?;
        let header_len = u32::from_le_bytes(word);
        if header_len > MAX_BLOCK_LEN {
            return Err(StoreError::Corrupt {
                offset,
                detail: format!("implausible header length {header_len}"),
            });
        }
        offset += 4;
        let mut json = Vec::new();
        read_vec_at(&mut input, &mut json, header_len, offset, "header json")?;
        offset += u64::from(header_len);
        let mut sum = [0u8; 8];
        read_exact_at(&mut input, &mut sum, offset, "header checksum")?;
        if u64::from_le_bytes(sum) != xxh64(&json) {
            return Err(StoreError::Corrupt {
                offset,
                detail: "header checksum mismatch".to_string(),
            });
        }
        offset += 8;
        let text = std::str::from_utf8(&json).map_err(|e| StoreError::Corrupt {
            offset: 16,
            detail: format!("header json is not utf-8: {e}"),
        })?;
        let header: StoreHeader = serde_json::from_str(text).map_err(|e| StoreError::Corrupt {
            offset: 16,
            detail: format!("header json does not parse: {e}"),
        })?;
        Ok(FrameReader {
            input,
            header,
            offset,
            blocks_read: 0,
        })
    }

    /// The validated file header.
    pub fn header(&self) -> &StoreHeader {
        &self.header
    }

    /// Blocks yielded so far.
    pub fn blocks_read(&self) -> u64 {
        self.blocks_read
    }

    /// Current byte offset into the file.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Reads the next block into `payload`, returning its record count,
    /// or `None` at a clean end of file.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] when the file ends mid-block and
    /// [`StoreError::Corrupt`] on checksum mismatch or an implausible
    /// length field.
    pub fn next_block(&mut self, payload: &mut Vec<u8>) -> Result<Option<u32>, StoreError> {
        let mut head = [0u8; 8];
        match read_head(&mut self.input, &mut head) {
            HeadRead::Eof => return Ok(None),
            HeadRead::Partial(got) => {
                return Err(StoreError::Truncated {
                    offset: self.offset + got as u64,
                    detail: "file ends inside a block header".to_string(),
                });
            }
            HeadRead::Err(e) => return Err(StoreError::Io(e)),
            HeadRead::Full => {}
        }
        let [l0, l1, l2, l3, c0, c1, c2, c3] = head;
        let payload_len = u32::from_le_bytes([l0, l1, l2, l3]);
        let record_count = u32::from_le_bytes([c0, c1, c2, c3]);
        if payload_len > MAX_BLOCK_LEN {
            return Err(StoreError::Corrupt {
                offset: self.offset,
                detail: format!("implausible block length {payload_len}"),
            });
        }
        self.offset += 8;
        read_vec_at(
            &mut self.input,
            payload,
            payload_len,
            self.offset,
            "block payload",
        )?;
        self.offset += u64::from(payload_len);
        let mut sum = [0u8; 8];
        read_exact_at(&mut self.input, &mut sum, self.offset, "block checksum")?;
        if u64::from_le_bytes(sum) != xxh64(payload) {
            return Err(StoreError::Corrupt {
                offset: self.offset,
                detail: format!("block {} checksum mismatch", self.blocks_read),
            });
        }
        self.offset += 8;
        self.blocks_read += 1;
        Ok(Some(record_count))
    }
}

enum HeadRead {
    Full,
    Eof,
    Partial(usize),
    Err(std::io::Error),
}

/// Reads an 8-byte block head, distinguishing a clean EOF (zero bytes)
/// from a torn one (some bytes).
fn read_head<R: Read>(input: &mut R, head: &mut [u8; 8]) -> HeadRead {
    let mut got = 0;
    while got < head.len() {
        // kyp-lint: allow(P02) — the loop guard keeps `got < head.len()`, so the range is in bounds
        match input.read(&mut head[got..]) {
            Ok(0) => {
                return if got == 0 {
                    HeadRead::Eof
                } else {
                    HeadRead::Partial(got)
                }
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return HeadRead::Err(e),
        }
    }
    HeadRead::Full
}

/// `read_exact` that reports a short read as [`StoreError::Truncated`]
/// at `offset` instead of a bare io error.
fn read_exact_at<R: Read>(
    input: &mut R,
    buf: &mut [u8],
    offset: u64,
    what: &str,
) -> Result<(), StoreError> {
    input.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Truncated {
                offset,
                detail: format!("file ends inside {what}"),
            }
        } else {
            StoreError::Io(e)
        }
    })
}

/// Replaces `buf` with the next `len` bytes of `input`, reporting a short
/// read like [`read_exact_at`]. The buffer grows only as bytes arrive, so
/// a forged length over a short file costs what the file holds, not what
/// the length claims.
fn read_vec_at<R: Read>(
    input: &mut R,
    buf: &mut Vec<u8>,
    len: u32,
    offset: u64,
    what: &str,
) -> Result<(), StoreError> {
    buf.clear();
    let got = input.by_ref().take(u64::from(len)).read_to_end(buf)?;
    if got == len as usize {
        Ok(())
    } else {
        Err(StoreError::Truncated {
            offset,
            detail: format!("file ends inside {what}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(kind: StoreKind) -> StoreHeader {
        StoreHeader {
            kind,
            stamp: WorldStamp {
                seed: 7,
                phish_train: 10,
                phish_test: 10,
                phish_brand: 3,
                leg_train: 20,
                english_test: 10,
                other_language_test: 5,
                fault_rate: 0.0,
                fault_seed: 0,
            },
            n_features: 0,
            bundles: vec!["a".into(), "b".into()],
            block_records: BLOCK_RECORDS as u32,
        }
    }

    fn frame_bytes(blocks: &[(u32, &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = FrameWriter::new(&mut out, &header(StoreKind::Pages)).unwrap();
        for &(n, payload) in blocks {
            w.write_block(n, payload).unwrap();
        }
        w.finish().unwrap();
        out
    }

    #[test]
    fn roundtrip_blocks() {
        let bytes = frame_bytes(&[(2, b"hello"), (1, b""), (3, b"worldly")]);
        let mut r = FrameReader::new(&bytes[..]).unwrap();
        assert_eq!(r.header(), &header(StoreKind::Pages));
        let mut payload = Vec::new();
        assert_eq!(r.next_block(&mut payload).unwrap(), Some(2));
        assert_eq!(payload, b"hello");
        assert_eq!(r.next_block(&mut payload).unwrap(), Some(1));
        assert_eq!(payload, b"");
        assert_eq!(r.next_block(&mut payload).unwrap(), Some(3));
        assert_eq!(payload, b"worldly");
        assert_eq!(r.next_block(&mut payload).unwrap(), None);
        assert_eq!(r.blocks_read(), 3);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = frame_bytes(&[(1, b"x")]);
        bytes[0] = b'X';
        match FrameReader::new(&bytes[..]) {
            Err(StoreError::BadMagic { found }) => assert_eq!(found[0], b'X'),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_is_typed() {
        // Format 1 (FNV-1a checksums) is refused by its version, before
        // any checksum is read, as is any version but this build's.
        for found in [1, STORE_FORMAT_VERSION + 1, 0xFF] {
            let mut bytes = frame_bytes(&[(1, b"x")]);
            bytes[8..12].copy_from_slice(&u32::to_le_bytes(found));
            let err = FrameReader::new(&bytes[..]).unwrap_err();
            match &err {
                StoreError::VersionMismatch {
                    found: f,
                    expected: STORE_FORMAT_VERSION,
                } => assert_eq!(*f, found),
                other => panic!("expected VersionMismatch, got {other:?}"),
            }
            let message = format!("store format version {found} is not supported");
            assert!(err.to_string().starts_with(&message), "{err}");
        }
    }

    #[test]
    fn header_bitflip_is_corrupt() {
        let mut bytes = frame_bytes(&[(1, b"x")]);
        bytes[20] ^= 0x01; // inside the header json
        assert!(matches!(
            FrameReader::new(&bytes[..]),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn payload_bitflip_is_corrupt() {
        let bytes = frame_bytes(&[(1, b"payload-data")]);
        let mut flipped = bytes.clone();
        let i = flipped.len() - 12; // inside the payload, before its checksum
        flipped[i] ^= 0x80;
        let mut r = FrameReader::new(&flipped[..]).unwrap();
        let mut payload = Vec::new();
        assert!(matches!(
            r.next_block(&mut payload),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = frame_bytes(&[(1, b"some-payload-bytes")]);
        // Cut inside the final checksum.
        let cut = &bytes[..bytes.len() - 3];
        let mut r = FrameReader::new(cut).unwrap();
        let mut payload = Vec::new();
        assert!(matches!(
            r.next_block(&mut payload),
            Err(StoreError::Truncated { .. })
        ));
        // Cut inside the block head.
        let head_cut = frame_bytes(&[]);
        let mut with_partial_head = head_cut.clone();
        with_partial_head.extend_from_slice(&[1, 2, 3]);
        let mut r = FrameReader::new(&with_partial_head[..]).unwrap();
        assert!(matches!(
            r.next_block(&mut payload),
            Err(StoreError::Truncated { .. })
        ));
    }

    /// A forged length over a few present bytes: 256 MiB, under
    /// `MAX_BLOCK_LEN`, so only the bytes present can refuse it.
    const FORGED_LEN: u32 = 256 << 20;

    /// Reads through to `inner`, keeping the widest buffer a caller asked
    /// it to fill: a reader cannot be asked to fill more than its caller
    /// allocated.
    #[derive(Debug)]
    struct Widest<R> {
        inner: R,
        widest: usize,
    }

    impl<R: Read> Read for Widest<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.widest = self.widest.max(buf.len());
            self.inner.read(buf)
        }
    }

    #[test]
    fn forged_block_length_is_truncated_without_allocating_it() {
        let mut bytes = frame_bytes(&[]);
        let body_at = bytes.len() as u64;
        bytes.extend_from_slice(&FORGED_LEN.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(b"a few payload bytes");
        let mut r = FrameReader::new(&bytes[..]).unwrap();
        let mut payload = Vec::new();
        match r.next_block(&mut payload) {
            Err(StoreError::Truncated { offset, detail }) => {
                assert_eq!(offset, body_at + 8);
                assert_eq!(detail, "file ends inside block payload");
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        assert!(payload.capacity() < 1 << 20, "{}", payload.capacity());
    }

    #[test]
    fn forged_header_length_is_truncated_without_allocating_it() {
        let mut bytes = STORE_MAGIC.to_vec();
        bytes.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&FORGED_LEN.to_le_bytes());
        bytes.extend_from_slice(b"{\"kind\":");
        let mut input = Widest {
            inner: &bytes[..],
            widest: 0,
        };
        match FrameReader::new(&mut input) {
            Err(StoreError::Truncated { offset, detail }) => {
                assert_eq!(offset, 16);
                assert_eq!(detail, "file ends inside header json");
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        assert!(input.widest < 1 << 20, "{}", input.widest);
    }

    #[test]
    fn kind_check_on_open() {
        let dir = std::env::temp_dir().join("kyp_store_format_kind");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.kyps");
        let w = FrameWriter::create(&path, &header(StoreKind::Pages)).unwrap();
        w.finish().unwrap();
        assert!(FrameReader::open(&path, StoreKind::Pages).is_ok());
        assert!(matches!(
            FrameReader::open(&path, StoreKind::Features),
            Err(StoreError::KindMismatch { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn xxh64_vectors() {
        // Published XXH64 answers for seed 0; the last is 39 bytes, so it
        // takes the four-lane path and then an 8-byte-free tail.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    /// `len` bytes that are neither constant nor periodic.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn every_tail_length_round_trips() {
        // 0..=64 bytes reach every tail the stripes leave: no stripe or
        // one, then zero to three 8-byte words, an optional 4-byte quad
        // and zero to three single bytes.
        for len in 0..=64 {
            let payload = noise(len);
            let bytes = frame_bytes(&[(1, &payload)]);
            let sum = &bytes[bytes.len() - 8..];
            assert_eq!(sum, xxh64(&payload).to_le_bytes(), "len {len}");
            let mut r = FrameReader::new(&bytes[..]).unwrap();
            let mut back = Vec::new();
            assert_eq!(r.next_block(&mut back).unwrap(), Some(1), "len {len}");
            assert_eq!(back, payload, "len {len}");
            assert_eq!(r.next_block(&mut back).unwrap(), None);
        }
    }

    /// A page block's size in a seed-7 store: 1,802 bytes per page.
    const PAGE_BYTES: usize = 1802;

    /// The error reading the one block of `bytes` gives.
    fn block_error(bytes: &[u8]) -> StoreError {
        let mut r = FrameReader::new(bytes).unwrap();
        match r.next_block(&mut Vec::new()) {
            Err(e) => e,
            Ok(n) => panic!("a flipped block decoded: {n:?}"),
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let payload = noise(PAGE_BYTES);
        let bytes = frame_bytes(&[(1, &payload)]);
        let start = bytes.len() - 8 - PAGE_BYTES;
        for bit in 0..PAGE_BYTES * 8 {
            let mut flipped = bytes.clone();
            flipped[start + bit / 8] ^= 1 << (bit % 8);
            match block_error(&flipped) {
                StoreError::Corrupt { detail, .. } => {
                    assert_eq!(detail, "block 0 checksum mismatch", "bit {bit}");
                }
                other => panic!("bit {bit}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_pair_of_high_bit_flips_is_detected() {
        // Flipping bit 63 of two 8-byte words cancels in a word-at-a-time
        // FNV-1a (the multiply carries it out of the word); XXH64
        // rotates it back down before the next multiply.
        let payload = noise(PAGE_BYTES);
        let sum = xxh64(&payload);
        let words = PAGE_BYTES / 8;
        let mut flipped = payload.clone();
        for i in 0..words {
            flipped[8 * i + 7] ^= 0x80;
            for j in i + 1..words {
                flipped[8 * j + 7] ^= 0x80;
                assert_ne!(xxh64(&flipped), sum, "words {i} and {j}");
                flipped[8 * j + 7] ^= 0x80;
            }
            flipped[8 * i + 7] ^= 0x80;
        }
    }
}
