//! Columnar page store: streams [`VisitedPage`] bundles to disk in
//! checksummed blocks of [`BLOCK_RECORDS`] records.
//!
//! Within a block each field is stored as a column (all starting URLs,
//! then all landing URLs, …) so sequential readers decode straight-line
//! runs of homogeneous data. URLs are stored as their raw strings —
//! `kyp_url::Url` preserves its input verbatim, so re-parsing on load
//! reproduces the identical struct bit for bit.
//!
//! Both readers walk a block's columns once, with every check:
//! [`PageStoreReader::next_block`] builds every page, and
//! [`PageStoreReader::next_view`] returns a [`PageBlock`] that builds a
//! page only when asked.

use crate::format::{FrameReader, FrameWriter, StoreError, StoreHeader, StoreKind, BLOCK_RECORDS};
use kyp_url::{ParseUrlError, Url};
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

    /// A length-prefixed URL, as `url` makes it of its text: parsed, or
    /// only checked.
    fn url<U>(
        &mut self,
        what: &str,
        url: &mut impl FnMut(&'a str) -> Result<U, ParseUrlError>,
    ) -> Result<U, String> {
        let s = self.utf8(what)?;
        url(s).map_err(|e| format!("{what} {s:?} does not parse: {e:?}"))
    }

    /// `count` entries of `one`, each at least `min` bytes long. A count
    /// the bytes left cannot hold is refused before anything is
    /// allocated for it.
    fn column<T>(
        &mut self,
        count: usize,
        min: usize,
        what: &str,
        mut one: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let left = self.buf.len() - self.pos;
        if count.checked_mul(min).is_none_or(|need| need > left) {
            return Err(format!(
                "{count} {what} entries cannot fit in the {left} bytes left (at {} of {})",
                self.pos,
                self.buf.len()
            ));
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(one(self)?);
        }
        Ok(out)
    }

    /// One URL list per row: the `n` counts, then every row's URLs.
    fn url_lists<U>(
        &mut self,
        n: usize,
        what: &str,
        url: &mut impl FnMut(&'a str) -> Result<U, ParseUrlError>,
    ) -> Result<Vec<Vec<U>>, String> {
        let counts = self.column(n, 4, what, |c| c.u32(what))?;
        counts
            .into_iter()
            .map(|count| self.column(count as usize, 4, what, |c| c.url(what, url)))
            .collect()
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

/// Every column of one block, walked once with every check, strings
/// borrowed from the payload. The starting URLs are parsed; every other
/// URL becomes what the walk's `url` makes of its text: a parsed [`Url`]
/// for [`PageStoreReader::next_block`], the checked text for a
/// [`PageBlock`].
#[derive(Debug)]
struct Columns<'a, U> {
    starting: Vec<Url>,
    landing: Vec<U>,
    chains: Vec<Vec<U>>,
    logged: Vec<Vec<U>>,
    hrefs: Vec<Vec<U>>,
    text: Vec<&'a str>,
    title: Vec<&'a str>,
    copyright: Vec<Option<&'a str>>,
    screenshot: Vec<&'a str>,
    input: Vec<u32>,
    image: Vec<u32>,
    iframe: Vec<u32>,
}

impl<'a, U> Columns<'a, U> {
    /// Walks the `n` rows of `payload` in the order
    /// [`PageColumns::drain_into`] wrote them; the first failed check is
    /// the error.
    fn walk(
        payload: &'a [u8],
        n: usize,
        mut url: impl FnMut(&'a str) -> Result<U, ParseUrlError>,
    ) -> Result<Self, String> {
        let mut cur = Cur::new(payload);
        let starting = cur.column(n, 4, "starting_url", |c| {
            c.url("starting_url", &mut Url::parse)
        })?;
        let landing = cur.column(n, 4, "landing_url", |c| c.url("landing_url", &mut url))?;
        let chains = cur.url_lists(n, "redirection_chain", &mut url)?;
        let logged = cur.url_lists(n, "logged_links", &mut url)?;
        let hrefs = cur.url_lists(n, "href_links", &mut url)?;
        let text = cur.column(n, 4, "text", |c| c.utf8("text"))?;
        let title = cur.column(n, 4, "title", |c| c.utf8("title"))?;
        let flags = cur.column(n, 1, "copyright flag", |c| {
            match c.byte("copyright flag")? {
                0 => Ok(false),
                1 => Ok(true),
                other => Err(format!("copyright flag has invalid value {other}")),
            }
        })?;
        let mut copyright = Vec::with_capacity(n);
        for present in flags {
            copyright.push(if present {
                Some(cur.utf8("copyright")?)
            } else {
                None
            });
        }
        let screenshot = cur.column(n, 4, "screenshot_text", |c| c.utf8("screenshot_text"))?;
        let input = cur.column(n, 4, "input_count", |c| c.u32("input_count"))?;
        let image = cur.column(n, 4, "image_count", |c| c.u32("image_count"))?;
        let iframe = cur.column(n, 4, "iframe_count", |c| c.u32("iframe_count"))?;
        cur.done("page columns")?;
        Ok(Columns {
            starting,
            landing,
            chains,
            logged,
            hrefs,
            text,
            title,
            copyright,
            screenshot,
            input,
            image,
            iframe,
        })
    }
}

impl Columns<'_, Url> {
    /// Moves every parsed row into a page, in stored order.
    fn into_pages(self) -> Vec<VisitedPage> {
        let mut chains = self.chains.into_iter();
        let mut logged = self.logged.into_iter();
        let mut hrefs = self.hrefs.into_iter();
        let mut text = self.text.into_iter();
        let mut title = self.title.into_iter();
        let mut copyright = self.copyright.into_iter();
        let mut screenshot = self.screenshot.into_iter();
        let mut input = self.input.into_iter();
        let mut image = self.image.into_iter();
        let mut iframe = self.iframe.into_iter();
        // The walk decoded every column with one entry per starting URL,
        // so the other iterators cannot run dry; the defaults are
        // unreachable.
        self.starting
            .into_iter()
            .zip(self.landing)
            .map(|(starting_url, landing_url)| VisitedPage {
                starting_url,
                landing_url,
                redirection_chain: chains.next().unwrap_or_default(),
                logged_links: logged.next().unwrap_or_default(),
                href_links: hrefs.next().unwrap_or_default(),
                text: text.next().unwrap_or_default().to_owned(),
                title: title.next().unwrap_or_default().to_owned(),
                copyright: copyright.next().flatten().map(str::to_owned),
                screenshot_text: screenshot.next().unwrap_or_default().to_owned(),
                input_count: input.next().unwrap_or_default() as usize,
                image_count: image.next().unwrap_or_default() as usize,
                iframe_count: iframe.next().unwrap_or_default() as usize,
            })
            .collect()
    }
}

/// One page block, every column checked, each row built on request.
///
/// [`PageStoreReader::next_view`] verifies the block checksum and walks
/// every column with every check [`PageStoreReader::next_block`] makes:
/// bounds, UTF-8, copyright flags, trailing bytes, and a URL check on
/// every URL. So a view exists only for a block `next_block` would
/// decode, and no row is handed out before every row is checked. The
/// view parses only the starting URLs, runs [`Url::check`] on the rest,
/// and keeps where each row's other fields sit; [`PageBlock::page`]
/// builds one row's [`VisitedPage`].
#[derive(Debug)]
pub struct PageBlock<'a> {
    columns: Columns<'a, &'a str>,
}

impl PageBlock<'_> {
    /// Rows in the block.
    pub fn len(&self) -> usize {
        self.columns.starting.len()
    }

    /// `true` for a block of no rows.
    pub fn is_empty(&self) -> bool {
        self.columns.starting.is_empty()
    }

    /// Every row's starting URL, parsed, in stored order.
    pub fn starting_urls(&self) -> &[Url] {
        &self.columns.starting
    }

    /// Builds row `i`'s page: exactly the page [`PageStoreReader::next_block`]
    /// returns at that position. `None` when `i` is not below
    /// [`PageBlock::len`].
    pub fn page(&self, i: usize) -> Option<VisitedPage> {
        let c = &self.columns;
        // Every URL text passed `Url::check`, the scanner `Url::parse`
        // runs first, so each one parses.
        let urls = |texts: &[&str]| -> Option<Vec<Url>> {
            texts.iter().map(|s| Url::parse(s).ok()).collect()
        };
        Some(VisitedPage {
            starting_url: c.starting.get(i)?.clone(),
            landing_url: Url::parse(c.landing.get(i)?).ok()?,
            redirection_chain: urls(c.chains.get(i)?)?,
            logged_links: urls(c.logged.get(i)?)?,
            href_links: urls(c.hrefs.get(i)?)?,
            text: (*c.text.get(i)?).to_owned(),
            title: (*c.title.get(i)?).to_owned(),
            copyright: c.copyright.get(i)?.map(str::to_owned),
            screenshot_text: (*c.screenshot.get(i)?).to_owned(),
            input_count: *c.input.get(i)? as usize,
            image_count: *c.image.get(i)? as usize,
            iframe_count: *c.iframe.get(i)? as usize,
        })
    }
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

    /// Reads and verifies the next block and walks its columns, or
    /// `None` at a clean EOF.
    fn next_columns<'a, U>(
        &'a mut self,
        url: impl FnMut(&'a str) -> Result<U, ParseUrlError>,
    ) -> Result<Option<Columns<'a, U>>, StoreError> {
        let offset = self.frame.offset();
        let Some(n) = self.frame.next_block(&mut self.payload)? else {
            return Ok(None);
        };
        Columns::walk(&self.payload, n as usize, url)
            .map(Some)
            .map_err(|detail| StoreError::Corrupt { offset, detail })
    }

    /// Decodes the next block of pages, or `None` at a clean EOF.
    pub fn next_block(&mut self) -> Result<Option<Vec<VisitedPage>>, StoreError> {
        Ok(self.next_columns(Url::parse)?.map(Columns::into_pages))
    }

    /// Checks the next block as [`Self::next_block`] does and returns it
    /// as a [`PageBlock`] that builds pages on request, or `None` at a
    /// clean EOF. A block `next_block` refuses fails here with the same
    /// error.
    pub fn next_view(&mut self) -> Result<Option<PageBlock<'_>>, StoreError> {
        let columns = self.next_columns(|s| Url::check(s).map(|()| s))?;
        Ok(columns.map(|columns| PageBlock { columns }))
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

    /// Frames one block of `n` records over `payload`, with a valid
    /// checksum.
    fn forged(n: u32, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut fw = FrameWriter::new(&mut bytes, &header()).unwrap();
        fw.write_block(n, payload).unwrap();
        fw.finish().unwrap();
        bytes
    }

    fn reader(bytes: &[u8]) -> PageStoreReader<&[u8]> {
        PageStoreReader::from_frame(FrameReader::new(bytes).unwrap()).unwrap()
    }

    /// The corrupt-block detail of `bytes`' first block, through
    /// `next_block` and through `next_view`.
    fn details(bytes: &[u8]) -> [String; 2] {
        let detail = |r: Result<(), StoreError>| match r {
            Err(StoreError::Corrupt { detail, .. }) => detail,
            other => panic!("expected a corrupt-block error, got {other:?}"),
        };
        [
            detail(reader(bytes).next_block().map(drop)),
            detail(reader(bytes).next_view().map(drop)),
        ]
    }

    #[test]
    fn view_builds_the_pages_next_block_decodes() {
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
        w.finish().unwrap();

        let mut r = reader(&bytes);
        let mut back = Vec::new();
        while let Some(view) = r.next_view().unwrap() {
            assert!(!view.is_empty());
            assert!(view.page(view.len()).is_none());
            for (i, url) in view.starting_urls().iter().enumerate() {
                let page = view.page(i).unwrap();
                assert_eq!(&page.starting_url, url);
                back.push(page);
            }
        }
        assert_eq!(back, pages, "views must build the stored pages exactly");
    }

    #[test]
    fn forged_record_count_is_corrupt_not_an_abort() {
        let bytes = forged(u32::MAX, &[1, 0, 0, 0, b'x', 0]);
        for detail in details(&bytes) {
            assert_eq!(
                detail,
                "4294967295 starting_url entries cannot fit in the 6 bytes left (at 0 of 6)"
            );
        }
    }

    #[test]
    fn forged_list_count_is_corrupt_not_an_abort() {
        let mut payload = Vec::new();
        put_str(&mut payload, "http://a.example/");
        put_str(&mut payload, "http://b.example/");
        put_u32(&mut payload, u32::MAX);
        payload.extend_from_slice(&[0; 8]);
        for detail in details(&forged(1, &payload)) {
            assert_eq!(
                detail,
                "4294967295 redirection_chain entries cannot fit in the 8 bytes left (at 46 of 54)"
            );
        }
    }

    #[test]
    fn view_refuses_what_next_block_refuses_with_the_same_detail() {
        // A valid block whose last row's second href does not parse.
        let mut rows: Vec<VisitedPage> = (0..4).map(page).collect();
        let mut payload = Vec::new();
        let mut columns = PageColumns::default();
        for row in &rows {
            columns.push(row);
        }
        columns.drain_into(&mut payload);
        let good = forged(4, &payload);
        assert_eq!(reader(&good).next_view().unwrap().unwrap().len(), 4);

        rows[2].href_links[1] = Url::parse("http://10.0.0.9/b").unwrap();
        for row in &rows {
            columns.push(row);
        }
        columns.drain_into(&mut payload);
        let at = payload.windows(9).position(|w| w == b"10.0.0.9/").unwrap();
        payload[at + 5] = b'.';
        let [from_block, from_view] = details(&forged(4, &payload));
        assert_eq!(
            from_block,
            "href_links \"http://10.0...9/b\" does not parse: EmptyLabel"
        );
        assert_eq!(from_view, from_block);
    }
}
