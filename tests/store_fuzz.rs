//! Structured fuzzing of the store readers over *real* store files.
//!
//! A bit flip only reaches the checksum (`store_corruption.rs`). These
//! cases edit the fields the decoders trust instead: block record
//! counts, string and URL-list length prefixes, copyright flags and
//! numeric columns of page blocks; bundle ids, labels and values of
//! feature blocks; and the header json of both files. Every edited
//! structure gets a correct FNV-1a 64 checksum, so each edit reaches the
//! decoder. Every case must end in `Ok` or a typed [`StoreError`] within
//! a time bound, and on every edited page block `next_block` and
//! `next_view` must agree: the same pages, or the same error.

use knowyourphish::datagen::{CampaignConfig, Corpus};
use knowyourphish::store::{
    features_path, fnv1a64, pages_path, FeatureStoreReader, FrameReader, PageStoreReader,
    StoreError,
};
use knowyourphish::storeflow;
use proptest::prelude::*;
use std::ops::Range;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Longest one edited file may take to decode. The unedited files
/// decode in milliseconds; a reader that allocated or looped on a
/// forged count would blow far past this.
const TIME_BOUND: Duration = Duration::from_secs(5);

/// Edits per case.
const MAX_EDITS: usize = 3;

/// The page and feature files of one real store, generated once. Its
/// pages fit one block, so the page file gets that block again: a block
/// then follows every edited one.
fn store() -> &'static (Vec<u8>, Vec<u8>) {
    static STORE: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    STORE.get_or_init(|| {
        let config = CampaignConfig {
            seed: 43,
            phish_train: 8,
            phish_test: 4,
            phish_brand: 4,
            leg_train: 12,
            english_test: 8,
            other_language_test: 4,
        };
        let dir = std::env::temp_dir().join("kyp_store_structured_fuzz");
        let _ = std::fs::remove_dir_all(&dir);
        let corpus = Corpus::generate(&config);
        storeflow::build_store(&dir, &corpus, &config, &corpus.world, 0.0, config.seed).unwrap();
        let mut pages = std::fs::read(pages_path(&dir)).unwrap();
        let features = std::fs::read(features_path(&dir)).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let frame = Frame::of(&pages);
        assert_eq!(frame.blocks.len(), 1);
        let block = frame.blocks[0].head..frame.blocks[0].payload.end + 8;
        pages.extend_from_within(block);
        (pages, features)
    })
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn put_u32(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// One block of a store file: where its head sits and its payload.
struct Block {
    head: usize,
    payload: Range<usize>,
}

/// The framing of a store file: its header json and its blocks.
struct Frame {
    json: Range<usize>,
    blocks: Vec<Block>,
}

impl Frame {
    fn of(bytes: &[u8]) -> Self {
        let json = 16..16 + u32_at(bytes, 12) as usize;
        let mut blocks = Vec::new();
        let mut at = json.end + 8;
        while at < bytes.len() {
            let start = at + 8;
            let end = start + u32_at(bytes, at) as usize;
            blocks.push(Block {
                head: at,
                payload: start..end,
            });
            at = end + 8;
        }
        Frame { json, blocks }
    }
}

/// What a decoder trusts at one offset of a block payload.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Field {
    /// A string's or URL's `u32` length prefix.
    Len,
    /// A `u32` count of one row's URLs.
    ListCount,
    /// A one-byte flag: copyright present, or a row's label.
    Flag,
    /// A `u32` column value: page counters, or a feature block's bundle.
    Number,
    /// One feature value's low `u32`.
    Value,
}

/// Every trusted field of a page block payload of `n` rows, walked in
/// the order the writer lays the columns out.
fn page_fields(payload: &[u8], n: usize) -> Vec<(usize, Field)> {
    let mut fields = Vec::new();
    let mut at = 0;
    let strs = |at: &mut usize, count: usize, fields: &mut Vec<(usize, Field)>| {
        for _ in 0..count {
            fields.push((*at, Field::Len));
            *at += 4 + u32_at(payload, *at) as usize;
        }
    };
    strs(&mut at, n, &mut fields); // starting URLs
    strs(&mut at, n, &mut fields); // landing URLs
    for _list in ["redirection_chain", "logged_links", "href_links"] {
        let mut total = 0;
        for _ in 0..n {
            fields.push((at, Field::ListCount));
            total += u32_at(payload, at) as usize;
            at += 4;
        }
        strs(&mut at, total, &mut fields);
    }
    strs(&mut at, n, &mut fields); // text
    strs(&mut at, n, &mut fields); // title
    let present: usize = payload[at..at + n]
        .iter()
        .map(|&f| usize::from(f == 1))
        .sum();
    fields.extend((at..at + n).map(|i| (i, Field::Flag)));
    at += n;
    strs(&mut at, present, &mut fields); // copyright
    strs(&mut at, n, &mut fields); // screenshot text
    for _column in ["input_count", "image_count", "iframe_count"] {
        fields.extend((0..n).map(|i| (at + 4 * i, Field::Number)));
        at += 4 * n;
    }
    assert_eq!(at, payload.len(), "the walk covers the payload");
    fields
}

/// Every trusted field of a feature block payload of `n` rows.
fn feature_fields(payload: &[u8], n: usize) -> Vec<(usize, Field)> {
    let mut fields = vec![(0, Field::Number)];
    fields.extend((4..4 + n).map(|i| (i, Field::Flag)));
    fields.extend((4 + n..payload.len()).step_by(8).map(|i| (i, Field::Value)));
    fields
}

/// A replacement for a trusted `u32` near `old`: zero, one, off by one,
/// a little or a lot larger, the maximum, or anything.
fn near(old: u32, pick: usize, any: u32) -> u32 {
    match pick % 8 {
        0 => 0,
        1 => 1,
        2 => old.wrapping_sub(1),
        3 => old.wrapping_add(1),
        4 => old.wrapping_add(any % 64),
        5 => old.wrapping_mul(2).max(old.wrapping_add(1000)),
        6 => u32::MAX,
        _ => any,
    }
}

/// One edit: which block (or the header), which field, and what value.
type Edit = (usize, usize, usize, u32);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    collection::vec(
        (any::<usize>(), any::<usize>(), any::<usize>(), any::<u32>()),
        1..=MAX_EDITS,
    )
}

/// Applies one edit to block `block` of `bytes`: to a trusted field of
/// the kind `field` picks, or to the record count. Every kind, and the
/// record count, is picked as often as the others, however many fields
/// of each kind the block holds; a kind the block has none of edits the
/// record count.
fn edit_block(
    bytes: &mut [u8],
    block: &Block,
    fields: &[(usize, Field)],
    (field, pick, any): (usize, usize, u32),
) {
    let kinds = [
        None,
        Some(Field::Len),
        Some(Field::ListCount),
        Some(Field::Flag),
        Some(Field::Number),
        Some(Field::Value),
    ];
    let kind = kinds[field % kinds.len()];
    let of_kind: Vec<usize> = fields
        .iter()
        .filter(|&&(_, k)| Some(k) == kind)
        .map(|&(at, _)| at)
        .collect();
    let index = field / kinds.len() % of_kind.len().max(1);
    if let (Some(kind), Some(&at)) = (kind, of_kind.get(index)) {
        let at = block.payload.start + at;
        match kind {
            Field::Flag => bytes[at] = [0, 1, 2, 255][pick % 4],
            Field::Value => put_u32(bytes, at, any),
            Field::Len | Field::ListCount | Field::Number => {
                let old = u32_at(bytes, at);
                put_u32(bytes, at, near(old, pick, any));
            }
        }
    } else {
        let count = u32_at(bytes, block.head + 4);
        put_u32(bytes, block.head + 4, near(count, pick, any));
    }
}

/// The span of `key`'s value in the header json: a number, a string or
/// a flat array (the writer nests only `stamp`, whose fields are
/// numbers).
fn value_span(json: &str, key: &str) -> Option<Range<usize>> {
    let start = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &json[start..];
    let len = if rest.starts_with('[') {
        rest.find(']')? + 1
    } else {
        rest.find([',', '}'])?
    };
    Some(start..start + len)
}

/// Replaces one header json field with a hostile value, drops the
/// bundle list, or cuts the json short, and returns the new json. A
/// field an earlier edit removed or cut off stays as it is.
fn edit_header(json: &[u8], (field, pick, any): (usize, usize, u32)) -> Vec<u8> {
    let mut json = String::from_utf8(json.to_vec()).unwrap();
    let any = any.to_string();
    let numbers = [
        "0",
        "1",
        &any,
        "4294967295",
        "18446744073709551615",
        "-1",
        "1e300",
        "0.5",
    ];
    let number = numbers[pick % numbers.len()].to_owned();
    let (key, value) = match field % 7 {
        0 => ("n_features", number),
        1 => ("block_records", number),
        2 => ("seed", number),
        3 => (
            "kind",
            ["\"Pages\"", "\"Features\"", "\"Bogus\"", "7"][pick % 4].to_owned(),
        ),
        4 => {
            let many: Vec<String> = (0..pick % 2000).map(|i| format!("\"b{i}\"")).collect();
            ("bundles", format!("[{}]", many.join(",")))
        }
        5 => {
            if let Some(span) = value_span(&json, "bundles") {
                json.replace_range(span.start - "\"bundles\":".len()..=span.end, "");
            }
            return json.into_bytes();
        }
        _ => {
            json.truncate(pick % (json.len() + 1));
            return json.into_bytes();
        }
    };
    if let Some(span) = value_span(&json, key) {
        json.replace_range(span, &value);
    }
    json.into_bytes()
}

/// Applies `edits` to a store file whose payloads `fields` describes:
/// every edit by index picks the header or a block. Every block gets
/// its checksum recomputed; a header edit gets its length and checksum.
fn edited(
    bytes: &[u8],
    edits: &[Edit],
    fields: impl Fn(&[u8], usize) -> Vec<(usize, Field)>,
) -> Vec<u8> {
    let frame = Frame::of(bytes);
    let mut out = bytes.to_vec();
    let mut json = bytes[frame.json.clone()].to_vec();
    for &(target, field, pick, any) in edits {
        match target % (frame.blocks.len() + 1) {
            0 => json = edit_header(&json, (field, pick, any)),
            b => {
                let block = &frame.blocks[b - 1];
                let payload = &bytes[block.payload.clone()];
                let fields = fields(payload, u32_at(bytes, block.head + 4) as usize);
                edit_block(&mut out, block, &fields, (field, pick, any));
            }
        }
    }
    for block in &frame.blocks {
        let sum = fnv1a64(&out[block.payload.clone()]);
        out[block.payload.end..block.payload.end + 8].copy_from_slice(&sum.to_le_bytes());
    }
    let mut file = out[..12].to_vec();
    file.extend_from_slice(&(json.len() as u32).to_le_bytes());
    file.extend_from_slice(&json);
    file.extend_from_slice(&fnv1a64(&json).to_le_bytes());
    file.extend_from_slice(&out[frame.json.end + 8..]);
    file
}

/// The typed outcome of one decode, as comparable text.
fn outcome<T>(result: Result<T, StoreError>) -> Result<T, String> {
    result.map_err(|e| {
        assert!(
            !matches!(e, StoreError::Io(_)),
            "no io on a byte slice: {e}"
        );
        e.to_string()
    })
}

/// Decodes an edited page file with `next_block` and `next_view` side by
/// side, block by block, and returns the number of pages they agreed on.
fn decode_pages(bytes: &[u8]) -> Result<usize, String> {
    let open = |bytes| outcome(FrameReader::new(bytes).and_then(PageStoreReader::from_frame));
    let (mut blocks, mut views) = (open(bytes)?, open(bytes)?);
    let mut pages = 0;
    loop {
        let block = outcome(blocks.next_block());
        let view = outcome(views.next_view());
        match (block, view) {
            (Ok(None), Ok(None)) => return Ok(pages),
            (Ok(Some(block)), Ok(Some(view))) => {
                assert_eq!(view.len(), block.len());
                for (i, page) in block.iter().enumerate() {
                    assert_eq!(view.page(i).as_ref(), Some(page), "row {i}");
                }
                pages += block.len();
            }
            (Err(from_block), Err(from_view)) => {
                assert_eq!(from_view, from_block, "next_view and next_block disagree");
                return Err(from_block);
            }
            (block, view) => panic!(
                "next_block and next_view disagree: {:?} vs {:?}",
                block.map(|b| b.map(|b| b.len())),
                view.map(|v| v.map(|v| v.len()))
            ),
        }
    }
}

/// Decodes an edited feature file and returns its row count.
fn decode_features(bytes: &[u8]) -> Result<usize, String> {
    let mut reader = outcome(FrameReader::new(bytes).and_then(FeatureStoreReader::from_frame))?;
    let mut rows = 0;
    while let Some(block) = outcome(reader.next_block())? {
        assert_eq!(block.rows.len(), block.labels.len() * reader.n_features());
        rows += block.labels.len();
    }
    Ok(rows)
}

/// Runs `decode` and holds it to the time bound.
fn timed<T>(what: &str, decode: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = decode();
    let took = started.elapsed();
    assert!(took < TIME_BOUND, "{what} took {took:?}");
    out
}

#[test]
fn unedited_store_decodes_in_full() {
    let (pages, features) = store();
    assert!(Frame::of(features).blocks.len() > 1);
    // The page file holds its one block twice; features hold one row
    // per page.
    let decoded = decode_pages(pages).unwrap();
    assert_eq!(decode_features(features).unwrap() * 2, decoded);
    // Recomputing the checksums of untouched bytes moves nothing.
    assert_eq!(&edited(pages, &[], page_fields), pages);
    assert_eq!(&edited(features, &[], feature_fields), features);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn edited_page_stores_decode_or_fail_typed(edits in edits()) {
        let bytes = edited(&store().0, &edits, page_fields);
        let _ = timed("page decode", || decode_pages(&bytes));
    }

    #[test]
    fn edited_feature_stores_decode_or_fail_typed(edits in edits()) {
        let bytes = edited(&store().1, &edits, feature_fields);
        let _ = timed("feature decode", || decode_features(&bytes));
    }
}

/// Every header field edit paired with every record-count edit of every
/// block: a decoder that trusts a header field to size a block meets
/// each combination at least once, which random cases reach rarely.
#[test]
fn header_and_record_count_edits_pairwise() {
    const ANY: u32 = 0x9e37_79b9;
    let (pages, features) = store();
    for (bytes, fields, decode) in [
        (
            pages,
            page_fields as fn(&[u8], usize) -> Vec<(usize, Field)>,
            decode_pages as fn(&[u8]) -> Result<usize, String>,
        ),
        (features, feature_fields, decode_features),
    ] {
        let blocks = Frame::of(bytes).blocks.len();
        for field in 0..7 {
            for pick in 0..8 {
                for block in 1..=blocks {
                    for count in 0..8 {
                        let edits = [(0, field, pick, ANY), (block, 0, count, ANY)];
                        let bytes = edited(bytes, &edits, fields);
                        let _ = timed("pairwise decode", || decode(&bytes));
                    }
                }
            }
        }
    }
}
