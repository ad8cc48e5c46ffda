use crate::entity::decode_entities;
use crate::tokenizer::{self, attr, byte_mask, first_byte, word_at, Markup};
use std::borrow::Cow;

/// The data sources extracted from a page's HTML (paper Section II-C).
///
/// A passive result: every field is public, so a consumer such as the
/// browser takes the owned strings over instead of copying them. See the
/// [crate docs](crate) for an overview and an example.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Document {
    /// The trimmed `<title>` content (paper data source *Title*).
    pub title: String,
    /// The rendered body text, trimmed text runs joined by single spaces
    /// (paper data source *Text*).
    pub text: String,
    /// Raw `href` targets of outgoing links, fragments excluded (paper
    /// data source *HREF links*).
    pub href_links: Vec<String>,
    /// Raw URLs of embedded resources a browser would fetch while loading
    /// the page — the seed of the *logged links* data source.
    pub resource_links: Vec<String>,
    /// The copyright notice found in [`Document::text`], if any.
    pub copyright: Option<String>,
    /// Number of input fields that collect user data (feature set *f5*).
    pub input_count: usize,
    /// Number of images (feature set *f5*).
    pub image_count: usize,
    /// Number of iframes/frames (feature set *f5*).
    pub iframe_count: usize,
}

impl Document {
    /// Parses HTML source and extracts every data source in one pass.
    ///
    /// The parser is forgiving: unknown tags are ignored, missing `<body>`
    /// means all text outside `<head>` counts as body text, and broken
    /// markup degrades to text. It is one forward loop over the bytes
    /// that fills the document where it reads: no token stream, no
    /// recursion, and work linear in the input. Text runs are trimmed and
    /// appended where they lie, and a start tag's lowercased name picks
    /// the rule that locates and decodes at most one of its attributes.
    pub fn parse(html: &str) -> Self {
        let mut page = Page::default();
        // The text is the page's trimmed runs joined by single spaces:
        // reserving the page's length spares regrowing it run by run.
        page.doc.text.reserve(html.len());
        let mut at = 0;
        while let Some(&byte) = html.as_bytes().get(at) {
            at = if byte == b'<' {
                page.markup(html, at)
            } else {
                page.text(html, at)
            };
        }
        page.into_document()
    }
}

/// A [`Document`] being filled, and whether the loop is inside the title
/// or the head, whose text is not body text.
#[derive(Default)]
struct Page {
    doc: Document,
    in_title: bool,
    in_head: bool,
}

impl Page {
    /// Takes the text run from `at` to the next `<`; returns its end.
    fn text(&mut self, html: &str, at: usize) -> usize {
        let bytes = html.as_bytes();
        let start = if self.in_title {
            at
        } else {
            // Outside the title a run is trimmed, so leading ASCII
            // whitespace is skipped in place: most runs between tags are
            // a line break and indentation, which end right at the next
            // `<`.
            let start = tokenizer::skip_ascii_whitespace(bytes, at);
            if bytes.get(start).is_none_or(|&b| b == b'<') {
                return start;
            }
            start
        };
        let (end, entity) = tokenizer::run_end(bytes, start, b'<');
        if self.in_title || !self.in_head {
            // Both ends are char boundaries: `start` follows ASCII
            // whitespace and `end` is at a `<` or the end.
            let run = html.get(start..end).unwrap_or_default();
            let run = if entity {
                decode_entities(run)
            } else {
                Cow::Borrowed(run)
            };
            if self.in_title {
                self.doc.title.push_str(&run);
            } else {
                self.body_text(&run);
            }
        }
        end
    }

    /// Appends a decoded run, trimmed, to the body text.
    fn body_text(&mut self, run: &str) {
        let run = run.trim();
        if run.is_empty() {
            return;
        }
        if !self.doc.text.is_empty() {
            self.doc.text.push(' ');
        }
        self.doc.text.push_str(run);
    }

    /// Applies the markup opened by the `<` at `at`; returns the offset
    /// to resume at.
    fn markup(&mut self, html: &str, at: usize) -> usize {
        let (markup, next) = tokenizer::markup(html, at);
        match markup {
            Markup::Skipped => {}
            // A stray `<` is a text run of its own.
            Markup::Stray if self.in_title => self.doc.title.push('<'),
            Markup::Stray if !self.in_head => self.body_text("<"),
            Markup::Stray => {}
            Markup::EndTag(name) => {
                if name.eq_ignore_ascii_case(b"head") {
                    self.in_head = false;
                } else if name.eq_ignore_ascii_case(b"title") {
                    self.in_title = false;
                }
            }
            Markup::StartTag { name, attrs } => return self.start_tag(html, name, attrs, next),
        }
        next
    }

    /// Applies the rule of a start tag; returns the offset to resume at,
    /// past the content of a `script` or `style` element.
    fn start_tag(&mut self, html: &str, name: &[u8], attrs: &str, next: usize) -> usize {
        // Every name a rule matches fits in eight bytes.
        let mut buf = [0u8; 8];
        let Some(lower) = buf.get_mut(..name.len()) else {
            return next;
        };
        for (to, from) in lower.iter_mut().zip(name) {
            *to = from.to_ascii_lowercase();
        }
        let doc = &mut self.doc;
        match &*lower {
            b"head" => self.in_head = true,
            b"title" => self.in_title = true,
            b"a" | b"area" => {
                if let Some(href) = attr(attrs, b"href") {
                    if !href.is_empty() && !href.starts_with('#') {
                        doc.href_links.push(href.into_owned());
                    }
                }
            }
            b"img" => {
                doc.image_count += 1;
                push_resource(&mut doc.resource_links, attrs, b"src");
            }
            b"script" => {
                push_resource(&mut doc.resource_links, attrs, b"src");
                if !tokenizer::is_self_closing(attrs) {
                    return tokenizer::raw_text_end(html, next, b"</script");
                }
            }
            b"style" if !tokenizer::is_self_closing(attrs) => {
                return tokenizer::raw_text_end(html, next, b"</style");
            }
            b"embed" | b"source" | b"audio" | b"video" => {
                push_resource(&mut doc.resource_links, attrs, b"src");
            }
            b"link" => push_resource(&mut doc.resource_links, attrs, b"href"),
            b"iframe" | b"frame" => {
                doc.iframe_count += 1;
                push_resource(&mut doc.resource_links, attrs, b"src");
            }
            b"input" | b"textarea" | b"select" => {
                // Only fields that collect user data count (phishing
                // pages exist to harvest input).
                let non_data = attr(attrs, b"type").is_some_and(|t| {
                    matches!(&*t, "hidden" | "submit" | "button" | "reset" | "image")
                });
                if !non_data {
                    doc.input_count += 1;
                }
            }
            _ => {}
        }
        next
    }

    fn into_document(self) -> Document {
        let mut doc = self.doc;
        let kept = doc.title.trim_end().len();
        doc.title.truncate(kept);
        let lead = doc.title.len() - doc.title.trim_start().len();
        doc.title.drain(..lead);
        doc.copyright = find_copyright(&doc.text);
        doc
    }
}

/// Records the `name` attribute of a resource tag, unless it is missing
/// or empty.
fn push_resource(links: &mut Vec<String>, attrs: &str, name: &[u8]) {
    if let Some(url) = attr(attrs, name) {
        if !url.is_empty() {
            links.push(url.into_owned());
        }
    }
}

/// Finds the copyright notice inside rendered text: the sentence-ish
/// segment around `©`, `(c)` or the word "copyright".
fn find_copyright(text: &str) -> Option<String> {
    // The anchor's priority, not its position, decides: any `©` wins over
    // an earlier "copyright", which wins over an earlier "(c)".
    // Byte offsets must index `text` itself: Unicode lowercasing can
    // change byte lengths, so case-insensitive matching is done in place.
    let bytes = text.as_bytes();
    let (idx, start) = if let Some(found) = copyright_sign(bytes) {
        found
    } else {
        let idx = word_anchor(bytes)?;
        (idx, text.get(..idx)?.rfind('.').map_or(0, |i| i + 1))
    };
    // The notice is the segment around the anchor between periods (or
    // the ends of the text), capped to a reasonable length. The anchor
    // starts a char and the bounds are at ASCII periods, so every cut is
    // on a char boundary.
    let end = tokenizer::find_byte(bytes, idx, b'.').unwrap_or(text.len());
    let notice = text.get(start..end)?.trim();
    let notice = notice
        .char_indices()
        .nth(200)
        .and_then(|(cut, _)| notice.get(..cut))
        .unwrap_or(notice);
    (!notice.is_empty()).then(|| notice.to_owned())
}

/// The offset of the first `©` in `text` and the offset just past the
/// last `.` before it (0 if there is none), in one forward scan.
fn copyright_sign(text: &[u8]) -> Option<(usize, usize)> {
    // `©` is C2 A9 in UTF-8, and C2 is never a continuation byte.
    let mut start = 0;
    let mut from = 0;
    while let Some(at) = tokenizer::find_flagged(
        text,
        from,
        |w| byte_mask(w, 0xC2) | byte_mask(w, b'.'),
        |b| b == 0xC2 || b == b'.',
    ) {
        if text.get(at) == Some(&b'.') {
            start = at + 1;
        } else if text.get(at + 1) == Some(&0xA9) {
            return Some((at, start));
        }
        from = at + 1;
    }
    None
}

/// Offset of the first "copyright", else of the first "(c)", in any
/// ASCII case. Overlapping eight-byte windows, seven bytes a step, flag
/// the pairs `co` and `(c` in one pass; only those are compared in full.
fn word_anchor(text: &[u8]) -> Option<usize> {
    const FOLD: u64 = 0x2020_2020_2020_2020;
    let mut paren = None;
    let mut check = |at: usize| {
        let window = |len: usize| text.get(at..at + len);
        if window(9).is_some_and(|w| w.eq_ignore_ascii_case(b"copyright")) {
            return true;
        }
        if paren.is_none() && window(3).is_some_and(|w| w.eq_ignore_ascii_case(b"(c)")) {
            paren = Some(at);
        }
        false
    };
    let mut tail = 0;
    for (start, window) in text.windows(8).enumerate().step_by(7) {
        let word = word_at(window);
        // `| FOLD` lowercases ASCII letters; only `c`/`C` fold to `c`.
        let c = byte_mask(word | FOLD, b'c');
        let o = byte_mask(word | FOLD, b'o');
        let open = byte_mask(word, b'(');
        // Byte k starts a pair when byte k + 1's flag, shifted down a
        // byte, meets its own. Pairs starting at byte 7 are the next
        // window's byte 0.
        let mut hits = (c & (o >> 8)) | (open & (c >> 8));
        while hits != 0 {
            let at = start + first_byte(hits);
            if check(at) {
                return Some(at);
            }
            hits &= hits - 1;
        }
        tail = start + 7;
    }
    (tail..text.len()).find(|&at| check(at)).or(paren)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = r##"<!DOCTYPE html>
<html><head>
  <title> Example Bank — Sign in </title>
  <link rel="stylesheet" href="/css/main.css">
  <script src="https://cdn.example.net/lib.js"></script>
</head>
<body>
  <h1>Welcome to Example Bank</h1>
  <p>Access your account securely.</p>
  <a href="/accounts">Accounts</a>
  <a href="https://partner.example.org/offers">Offers</a>
  <a href="#top">top</a>
  <form><input type="text" name="user"><input type="password" name="pw">
        <input type="hidden" name="csrf"></form>
  <img src="/img/logo.png"><img src="https://cdn.example.net/hero.jpg">
  <iframe src="https://ads.example.ad/frame"></iframe>
  <footer>© 2015 Example Bank Inc. All rights reserved.</footer>
</body></html>"##;

    #[test]
    fn extracts_title() {
        let doc = Document::parse(PAGE);
        assert_eq!(doc.title, "Example Bank — Sign in");
    }

    #[test]
    fn extracts_text_without_head_or_scripts() {
        let doc = Document::parse(PAGE);
        assert!(doc.text.contains("Welcome to Example Bank"));
        assert!(doc.text.contains("Access your account securely."));
        assert!(!doc.text.contains("stylesheet"));
        assert!(!doc.text.contains("lib.js"));
    }

    #[test]
    fn truncated_documents_keep_everything_received() {
        // A fetch cut off mid-transfer still yields every data source that
        // arrived before the cut — and never panics, whatever the cut.
        for cut in (0..PAGE.len()).filter(|&c| PAGE.is_char_boundary(c)) {
            let doc = Document::parse(&PAGE[..cut]);
            assert!(doc.href_links.iter().all(|h| !h.is_empty()));
        }
        // Cut right after the first two anchors: both survive.
        let upto = PAGE.find("top</a>").unwrap();
        let doc = Document::parse(&PAGE[..upto]);
        assert_eq!(doc.title, "Example Bank — Sign in");
        assert_eq!(
            doc.href_links,
            ["/accounts", "https://partner.example.org/offers"]
        );
        assert!(doc.text.contains("Welcome to Example Bank"));
    }

    #[test]
    fn extracts_href_links_skipping_fragments() {
        let doc = Document::parse(PAGE);
        assert_eq!(
            doc.href_links,
            ["/accounts", "https://partner.example.org/offers"]
        );
    }

    #[test]
    fn extracts_resource_links() {
        let doc = Document::parse(PAGE);
        assert_eq!(
            doc.resource_links,
            [
                "/css/main.css",
                "https://cdn.example.net/lib.js",
                "/img/logo.png",
                "https://cdn.example.net/hero.jpg",
                "https://ads.example.ad/frame",
            ]
        );
    }

    #[test]
    fn counts_f5_elements() {
        let doc = Document::parse(PAGE);
        assert_eq!(doc.input_count, 2, "hidden input must not count");
        assert_eq!(doc.image_count, 2);
        assert_eq!(doc.iframe_count, 1);
    }

    #[test]
    fn finds_copyright() {
        let doc = Document::parse(PAGE);
        let c = doc.copyright.as_deref().unwrap();
        assert!(c.contains("Example Bank Inc"), "got {c:?}");
    }

    #[test]
    fn copyright_word_form() {
        let doc = Document::parse("<body>Copyright 2015 Acme Corp. Other text.</body>");
        assert_eq!(doc.copyright.as_deref(), Some("Copyright 2015 Acme Corp"));
    }

    #[test]
    fn no_copyright() {
        let doc = Document::parse("<body>hello world</body>");
        assert_eq!(doc.copyright.as_deref(), None);
    }

    #[test]
    fn empty_page() {
        let doc = Document::parse("");
        assert_eq!(doc.title, "");
        assert_eq!(doc.text, "");
        assert!(doc.href_links.is_empty());
        assert_eq!(doc.input_count, 0);
    }

    #[test]
    fn text_without_body_tag() {
        let doc = Document::parse("<p>loose text</p>");
        assert_eq!(doc.text, "loose text");
    }

    #[test]
    fn textarea_and_select_count_as_inputs() {
        let doc = Document::parse("<body><textarea></textarea><select></select></body>");
        assert_eq!(doc.input_count, 2);
    }

    /// Parses `html`, which must take less than serde_json's bound in
    /// `long_and_many_strings_parse_in_linear_time`.
    fn parse_in_bounded_time(html: &str) -> Document {
        let start = std::time::Instant::now();
        let doc = Document::parse(html);
        let took = start.elapsed();
        assert!(
            took < std::time::Duration::from_secs(5),
            "{} bytes took {took:?}",
            html.len()
        );
        doc
    }

    #[test]
    fn a_mebibyte_of_ampersands_parses_in_linear_time() {
        // No `&` has a `;` behind it. The `;` was once looked for over the
        // whole rest of the run before the entity length cap applied:
        // 0.42 s for 128 KB, quadratic.
        let amps = "&a".repeat(1 << 19);
        let doc = parse_in_bounded_time(&format!("<p>{amps}</p>"));
        assert_eq!(doc.text, amps);
        let doc = parse_in_bounded_time(&format!("<a href=\"{amps}\">x</a>"));
        assert_eq!(doc.href_links, [amps]);
    }

    #[test]
    fn runs_of_skipped_markup_do_not_recurse() {
        // Each skipped comment, doctype or processing instruction, and
        // each empty raw-text body, once cost a stack frame: 100,000
        // comments overflowed the stack. 300,000 of each parse on a
        // default test thread.
        for unit in ["<!---->", "<!x>", "<?x>", "<script></script>"] {
            let doc = parse_in_bounded_time(&unit.repeat(300_000));
            assert_eq!(doc, Document::default(), "{unit}");
        }
    }

    #[test]
    fn entities_in_text_and_title() {
        let doc = Document::parse("<title>A &amp; B</title><body>caf&eacute;</body>");
        assert_eq!(doc.title, "A & B");
        assert_eq!(doc.text, "café");
    }
}
