//! Columnar page store: streams [`VisitedPage`] bundles to disk in
//! checksummed blocks of [`BLOCK_RECORDS`] records.
//!
//! Within a block each field is stored as a column (all starting URLs,
//! then all landing URLs, …) so sequential readers decode straight-line
//! runs of homogeneous data. URLs are stored as their raw strings —
//! `kyp_url::Url` preserves its input verbatim, so re-parsing on load
//! reproduces the identical struct bit for bit.

use crate::format::{FrameReader, FrameWriter, StoreError, StoreHeader, StoreKind, BLOCK_RECORDS};
use kyp_url::Url;
use kyp_web::VisitedPage;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_urls(counts: &mut Vec<u8>, vals: &mut Vec<u8>, urls: &[Url]) {
    put_u32(counts, urls.len() as u32);
    for u in urls {
        put_str(vals, u.as_str());
    }
}

/// The in-progress column buffers for one block.
#[derive(Debug, Default)]
struct PageColumns {
    n: u32,
    starting: Vec<u8>,
    landing: Vec<u8>,
    chain_counts: Vec<u8>,
    chain_vals: Vec<u8>,
    logged_counts: Vec<u8>,
    logged_vals: Vec<u8>,
    href_counts: Vec<u8>,
    href_vals: Vec<u8>,
    text: Vec<u8>,
    title: Vec<u8>,
    copyright_flags: Vec<u8>,
    copyright_vals: Vec<u8>,
    screenshot: Vec<u8>,
    input: Vec<u8>,
    image: Vec<u8>,
    iframe: Vec<u8>,
}

impl PageColumns {
    fn push(&mut self, page: &VisitedPage) {
        self.n += 1;
        put_str(&mut self.starting, page.starting_url.as_str());
        put_str(&mut self.landing, page.landing_url.as_str());
        put_urls(
            &mut self.chain_counts,
            &mut self.chain_vals,
            &page.redirection_chain,
        );
        put_urls(
            &mut self.logged_counts,
            &mut self.logged_vals,
            &page.logged_links,
        );
        put_urls(&mut self.href_counts, &mut self.href_vals, &page.href_links);
        put_str(&mut self.text, &page.text);
        put_str(&mut self.title, &page.title);
        match &page.copyright {
            Some(c) => {
                self.copyright_flags.push(1);
                put_str(&mut self.copyright_vals, c);
            }
            None => self.copyright_flags.push(0),
        }
        put_str(&mut self.screenshot, &page.screenshot_text);
        put_u32(&mut self.input, page.input_count as u32);
        put_u32(&mut self.image, page.image_count as u32);
        put_u32(&mut self.iframe, page.iframe_count as u32);
    }

    /// Concatenates the columns into `payload` (in decode order) and
    /// resets the buffers for the next block.
    fn drain_into(&mut self, payload: &mut Vec<u8>) -> u32 {
        payload.clear();
        for col in [
            &mut self.starting,
            &mut self.landing,
            &mut self.chain_counts,
            &mut self.chain_vals,
            &mut self.logged_counts,
            &mut self.logged_vals,
            &mut self.href_counts,
            &mut self.href_vals,
            &mut self.text,
            &mut self.title,
            &mut self.copyright_flags,
            &mut self.copyright_vals,
            &mut self.screenshot,
            &mut self.input,
            &mut self.image,
            &mut self.iframe,
        ] {
            payload.extend_from_slice(col);
            col.clear();
        }
        let n = self.n;
        self.n = 0;
        n
    }
}

/// Streams pages into a store file with bounded memory: at most one
/// block of records is buffered before it is flushed as a checksummed
/// columnar block.
#[derive(Debug)]
pub struct PageStoreWriter<W: Write> {
    frame: FrameWriter<W>,
    columns: PageColumns,
    payload: Vec<u8>,
}

impl PageStoreWriter<BufWriter<File>> {
    /// Creates a page store at `path` with the given header.
    ///
    /// # Errors
    ///
    /// [`StoreError::KindMismatch`] when `header.kind` is not
    /// [`StoreKind::Pages`], plus filesystem failures.
    pub fn create(path: &Path, header: &StoreHeader) -> Result<Self, StoreError> {
        if header.kind != StoreKind::Pages {
            return Err(StoreError::KindMismatch {
                found: header.kind,
                expected: StoreKind::Pages,
            });
        }
        Ok(PageStoreWriter {
            frame: FrameWriter::create(path, header)?,
            columns: PageColumns::default(),
            payload: Vec::new(),
        })
    }
}

impl<W: Write> PageStoreWriter<W> {
    /// Appends one page, flushing a block when [`BLOCK_RECORDS`] are
    /// buffered.
    pub fn append(&mut self, page: &VisitedPage) -> Result<(), StoreError> {
        self.columns.push(page);
        if self.columns.n as usize >= BLOCK_RECORDS {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<(), StoreError> {
        let n = self.columns.drain_into(&mut self.payload);
        if n > 0 {
            self.frame.write_block(n, &self.payload)?;
        }
        Ok(())
    }

    /// Flushes any partial block and the underlying file; returns
    /// `(blocks, records, bytes)` written.
    pub fn finish(mut self) -> Result<(u64, u64, u64), StoreError> {
        self.flush_block()?;
        self.frame.finish()
    }
}

/// A bounds-checked forward cursor over a block payload; every decode
/// error is reported as a detail string the reader maps to
/// [`StoreError::Corrupt`].
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        let slice = self
            .pos
            .checked_add(n)
            .and_then(|end| self.buf.get(self.pos..end));
        match slice {
            Some(slice) => {
                self.pos += n;
                Ok(slice)
            }
            None => Err(format!(
                "block payload ends inside {what} (at {} of {})",
                self.pos,
                self.buf.len()
            )),
        }
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        let b = self.take(4, what)?;
        <[u8; 4]>::try_from(b)
            .map(u32::from_le_bytes)
            .map_err(|_| format!("{what} is not 4 bytes"))
    }

    fn byte(&mut self, what: &str) -> Result<u8, String> {
        self.take(1, what)?
            .first()
            .copied()
            .ok_or_else(|| format!("{what} is empty"))
    }

    /// A length-prefixed string, borrowed from the block payload.
    fn utf8(&mut self, what: &str) -> Result<&'a str, String> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes).map_err(|e| format!("{what} is not utf-8: {e}"))
    }

    fn string(&mut self, what: &str) -> Result<String, String> {
        self.utf8(what).map(str::to_owned)
    }

    fn url(&mut self, what: &str) -> Result<Url, String> {
        let s = self.utf8(what)?;
        Url::parse(s).map_err(|e| format!("{what} {s:?} does not parse: {e:?}"))
    }

    fn done(&self, what: &str) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after {what}",
                self.buf.len() - self.pos
            ))
        }
    }
}

fn decode_block(payload: &[u8], n: usize) -> Result<Vec<VisitedPage>, String> {
    let mut cur = Cur::new(payload);
    let starting: Vec<Url> = decode_n(&mut cur, n, |c| c.url("starting_url"))?;
    let landing: Vec<Url> = decode_n(&mut cur, n, |c| c.url("landing_url"))?;
    let chains = decode_url_lists(&mut cur, n, "redirection_chain")?;
    let logged = decode_url_lists(&mut cur, n, "logged_links")?;
    let hrefs = decode_url_lists(&mut cur, n, "href_links")?;
    let text: Vec<String> = decode_n(&mut cur, n, |c| c.string("text"))?;
    let title: Vec<String> = decode_n(&mut cur, n, |c| c.string("title"))?;
    let mut flags = Vec::with_capacity(n);
    for _ in 0..n {
        match cur.byte("copyright flag")? {
            0 => flags.push(false),
            1 => flags.push(true),
            other => return Err(format!("copyright flag has invalid value {other}")),
        }
    }
    let mut copyright = Vec::with_capacity(n);
    for &present in &flags {
        copyright.push(if present {
            Some(cur.string("copyright")?)
        } else {
            None
        });
    }
    let screenshot: Vec<String> = decode_n(&mut cur, n, |c| c.string("screenshot_text"))?;
    let input: Vec<u32> = decode_n(&mut cur, n, |c| c.u32("input_count"))?;
    let image: Vec<u32> = decode_n(&mut cur, n, |c| c.u32("image_count"))?;
    let iframe: Vec<u32> = decode_n(&mut cur, n, |c| c.u32("iframe_count"))?;
    cur.done("page columns")?;

    let mut pages = Vec::with_capacity(n);
    let mut starting = starting.into_iter();
    let mut landing = landing.into_iter();
    let mut chains = chains.into_iter();
    let mut logged = logged.into_iter();
    let mut hrefs = hrefs.into_iter();
    let mut text = text.into_iter();
    let mut title = title.into_iter();
    let mut copyright = copyright.into_iter();
    let mut screenshot = screenshot.into_iter();
    let mut input = input.into_iter();
    let mut image = image.into_iter();
    let mut iframe = iframe.into_iter();
    for _ in 0..n {
        // Every column was decoded with exactly `n` entries above, so
        // the iterators cannot run dry; the defaults are unreachable.
        pages.push(VisitedPage {
            starting_url: starting.next().ok_or("missing starting_url")?,
            landing_url: landing.next().ok_or("missing landing_url")?,
            redirection_chain: chains.next().unwrap_or_default(),
            logged_links: logged.next().unwrap_or_default(),
            href_links: hrefs.next().unwrap_or_default(),
            text: text.next().unwrap_or_default(),
            title: title.next().unwrap_or_default(),
            copyright: copyright.next().unwrap_or_default(),
            screenshot_text: screenshot.next().unwrap_or_default(),
            input_count: input.next().unwrap_or_default() as usize,
            image_count: image.next().unwrap_or_default() as usize,
            iframe_count: iframe.next().unwrap_or_default() as usize,
        });
    }
    Ok(pages)
}

fn decode_n<T>(
    cur: &mut Cur<'_>,
    n: usize,
    mut one: impl FnMut(&mut Cur<'_>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(one(cur)?);
    }
    Ok(out)
}

fn decode_url_lists(cur: &mut Cur<'_>, n: usize, what: &str) -> Result<Vec<Vec<Url>>, String> {
    let counts: Vec<u32> = decode_n(cur, n, |c| c.u32(what))?;
    let mut lists = Vec::with_capacity(n);
    for &count in &counts {
        let mut list = Vec::with_capacity(count as usize);
        for _ in 0..count {
            list.push(cur.url(what)?);
        }
        lists.push(list);
    }
    Ok(lists)
}

/// Streams page blocks back out of a store file.
#[derive(Debug)]
pub struct PageStoreReader<R: Read> {
    frame: FrameReader<R>,
    payload: Vec<u8>,
}

impl PageStoreReader<BufReader<File>> {
    /// Opens the page store at `path`, validating magic, version, header
    /// checksum and kind.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        Ok(PageStoreReader {
            frame: FrameReader::open(path, StoreKind::Pages)?,
            payload: Vec::new(),
        })
    }
}

impl<R: Read> PageStoreReader<R> {
    /// Wraps an already-open frame reader (must hold pages).
    pub fn from_frame(frame: FrameReader<R>) -> Result<Self, StoreError> {
        if frame.header().kind != StoreKind::Pages {
            return Err(StoreError::KindMismatch {
                found: frame.header().kind,
                expected: StoreKind::Pages,
            });
        }
        Ok(PageStoreReader {
            frame,
            payload: Vec::new(),
        })
    }

    /// The validated file header.
    pub fn header(&self) -> &StoreHeader {
        self.frame.header()
    }

    /// Decodes the next block of pages, or `None` at a clean EOF.
    pub fn next_block(&mut self) -> Result<Option<Vec<VisitedPage>>, StoreError> {
        let offset = self.frame.offset();
        let Some(n) = self.frame.next_block(&mut self.payload)? else {
            return Ok(None);
        };
        decode_block(&self.payload, n as usize)
            .map(Some)
            .map_err(|detail| StoreError::Corrupt { offset, detail })
    }

    /// Reads every remaining page into memory (serving-stack loads).
    pub fn read_all(mut self) -> Result<Vec<VisitedPage>, StoreError> {
        let mut pages = Vec::new();
        while let Some(block) = self.next_block()? {
            pages.extend(block);
        }
        Ok(pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::WorldStamp;

    fn header() -> StoreHeader {
        StoreHeader {
            kind: StoreKind::Pages,
            stamp: WorldStamp {
                seed: 1,
                phish_train: 2,
                phish_test: 3,
                phish_brand: 4,
                leg_train: 5,
                english_test: 6,
                other_language_test: 7,
                fault_rate: 0.25,
                fault_seed: 9,
            },
            n_features: 0,
            bundles: vec!["phish_train".into()],
            block_records: BLOCK_RECORDS as u32,
        }
    }

    fn page(i: usize) -> VisitedPage {
        let url = |s: &str| Url::parse(s).unwrap();
        VisitedPage {
            starting_url: url(&format!("http://short.ly/{i}")),
            landing_url: url(&format!("https://site{i}.example.com/login?x={i}#frag")),
            redirection_chain: vec![
                url(&format!("http://short.ly/{i}")),
                url(&format!("https://site{i}.example.com/login?x={i}#frag")),
            ],
            logged_links: vec![url("https://cdn.example.net/lib.js")],
            href_links: if i.is_multiple_of(2) {
                vec![url("https://other.org/a"), url("http://10.0.0.1/b")]
            } else {
                Vec::new()
            },
            text: format!("page body {i} with ünïcode"),
            title: format!("Title {i}"),
            copyright: if i.is_multiple_of(3) {
                Some(format!("© Brand {i}"))
            } else {
                None
            },
            screenshot_text: format!("rendered {i}"),
            input_count: i,
            image_count: i * 2,
            iframe_count: i % 4,
        }
    }

    #[test]
    fn roundtrip_pages_across_blocks() {
        let pages: Vec<VisitedPage> = (0..BLOCK_RECORDS + 17).map(page).collect();
        let mut bytes = Vec::new();
        let mut w = PageStoreWriter {
            frame: FrameWriter::new(&mut bytes, &header()).unwrap(),
            columns: PageColumns::default(),
            payload: Vec::new(),
        };
        for p in &pages {
            w.append(p).unwrap();
        }
        let (blocks, records, _) = w.finish().unwrap();
        assert_eq!(blocks, 2);
        assert_eq!(records, pages.len() as u64);

        let frame = FrameReader::new(&bytes[..]).unwrap();
        let mut r = PageStoreReader::from_frame(frame).unwrap();
        let mut back = Vec::new();
        while let Some(block) = r.next_block().unwrap() {
            back.extend(block);
        }
        assert_eq!(back, pages, "pages must round-trip exactly");
    }

    #[test]
    fn corrupt_url_surfaces_as_typed_error() {
        let mut bytes = Vec::new();
        let mut w = PageStoreWriter {
            frame: FrameWriter::new(&mut bytes, &header()).unwrap(),
            columns: PageColumns::default(),
            payload: Vec::new(),
        };
        w.append(&page(0)).unwrap();
        w.finish().unwrap();
        // Rewrite the stored block with a payload whose first string has
        // a length larger than the payload: structurally corrupt but
        // with a valid checksum, exercising the decoder's bounds checks.
        let mut forged = Vec::new();
        let mut fw = FrameWriter::new(&mut forged, &header()).unwrap();
        fw.write_block(1, &[0xFF, 0xFF, 0xFF, 0x7F, b'x']).unwrap();
        fw.finish().unwrap();
        let frame = FrameReader::new(&forged[..]).unwrap();
        let mut r = PageStoreReader::from_frame(frame).unwrap();
        assert!(matches!(r.next_block(), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn non_utf8_url_surfaces_as_typed_error() {
        let mut forged = Vec::new();
        let mut fw = FrameWriter::new(&mut forged, &header()).unwrap();
        fw.write_block(1, &[2, 0, 0, 0, b'h', 0xFF]).unwrap();
        fw.finish().unwrap();
        let frame = FrameReader::new(&forged[..]).unwrap();
        let mut r = PageStoreReader::from_frame(frame).unwrap();
        match r.next_block() {
            Err(StoreError::Corrupt { detail, .. }) => assert_eq!(
                detail,
                "starting_url is not utf-8: invalid utf-8 sequence of 1 bytes from index 1"
            ),
            other => panic!("expected a corrupt-block error, got {other:?}"),
        }
    }
}
