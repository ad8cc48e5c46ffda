//! The lexical rules of the page parser: what a `<` opens, where a tag,
//! a comment or a raw-text element ends, and the one attribute a tag's
//! rule reads.
//!
//! There is no token stream. [`Document::parse`](crate::Document::parse)
//! walks the page once and calls [`markup`] at each `<` it reaches; every
//! function here reads forward from the offset it is given and returns
//! where to resume, so nothing recurses and the work is linear in the
//! input. The rules are a forgiving scraper's:
//!
//! - comments run to the first `-->`, doctypes and processing
//!   instructions to the first `>`, and an unterminated one to the end;
//! - a `<` followed by neither a letter nor `/` and a letter is text;
//! - a tag ends at its first `>`, quoted or not; a tag cut off by a
//!   truncated fetch runs to the end of the input, so its name and
//!   complete attributes are salvaged instead of leaking into the text;
//! - a tag's name is its leading ASCII letters and digits, matched
//!   without regard to ASCII case;
//! - the content of `script` and `style` runs to the first `</script` or
//!   `</style`, in any case, and is never text.

use crate::entity::decode_entities;
use std::borrow::Cow;

/// What the `<` at an offset opens.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Markup<'a> {
    /// A comment, doctype or processing instruction.
    Skipped,
    /// A `<` that opens no tag: the one-character text run `<`.
    Stray,
    /// `</name …>`: the name as written.
    EndTag(&'a [u8]),
    /// `<name …>`.
    StartTag {
        /// The name as written.
        name: &'a [u8],
        /// Everything between the name and the `>`, or the end of a
        /// truncated input.
        attrs: &'a str,
    },
}

/// Reads the markup opened by the `<` at `html[at]`; returns it and the
/// offset just past it.
#[inline]
pub(crate) fn markup(html: &str, at: usize) -> (Markup<'_>, usize) {
    let bytes = html.as_bytes();
    let second = bytes.get(at + 1).copied();
    if matches!(second, Some(b'!' | b'?')) {
        let next = if second == Some(b'!') && bytes.get(at + 2..at + 4) == Some(b"--") {
            comment_end(bytes, at)
        } else {
            find_byte(bytes, at + 2, b'>').map_or(bytes.len(), |i| i + 1)
        };
        return (Markup::Skipped, next);
    }
    let closing = second == Some(b'/');
    let name_start = at + 1 + usize::from(closing);
    if !bytes.get(name_start).is_some_and(u8::is_ascii_alphabetic) {
        return (Markup::Stray, at + 1);
    }
    let (tag_end, next) = match find_byte(bytes, name_start, b'>') {
        Some(i) => (i, i + 1),
        None => (bytes.len(), bytes.len()),
    };
    let tag = bytes.get(name_start..tag_end).unwrap_or_default();
    let name_len = tag
        .iter()
        .position(|b| !b.is_ascii_alphanumeric())
        .unwrap_or(tag.len());
    let name = tag.get(..name_len).unwrap_or_default();
    if closing {
        return (Markup::EndTag(name), next);
    }
    // The name is ASCII and the tag ends at a `>` or the end, so both
    // are char boundaries.
    let attrs = html.get(name_start + name_len..tag_end).unwrap_or_default();
    (Markup::StartTag { name, attrs }, next)
}

/// The offset just past the `-->` closing the comment whose `<!--` is at
/// `at`, or the end of the input. The `-->` may share the opening's
/// dashes (`<!-->`).
fn comment_end(bytes: &[u8], at: usize) -> usize {
    let mut from = at + 4;
    while let Some(gt) = find_byte(bytes, from, b'>') {
        // `gt >= at + 4`, so the two bytes before it follow the `<!`.
        if bytes.get(gt - 2..gt) == Some(b"--") {
            return gt + 1;
        }
        from = gt + 1;
    }
    bytes.len()
}

/// Whether a start tag with attribute text `attrs` closes itself
/// (`<script/>`, `<style />`): a `/` before the `>`, past any trailing
/// whitespace, Unicode whitespace included.
pub(crate) fn is_self_closing(attrs: &str) -> bool {
    attrs.trim_end().ends_with('/')
}

/// The entity-decoded value of the first attribute in `attrs` named
/// `want` (lowercase ASCII), compared without regard to ASCII case.
///
/// Attributes are separated by ASCII whitespace. A name runs to `=`,
/// whitespace or the end, and a name without `=` has the empty value. A
/// value is quoted (to its closing quote, or the end of a cut-off tag)
/// or unquoted (to whitespace). Slashes ending the tag belong to no
/// value. Only the wanted value is decoded; it borrows the input when it
/// holds no `&`.
pub(crate) fn attr<'a>(attrs: &'a str, want: &[u8]) -> Option<Cow<'a, str>> {
    let b = attrs.as_bytes();
    let unslashed = b.iter().rposition(|&c| c != b'/').map_or(0, |i| i + 1);
    let b = b.get(..unslashed).unwrap_or_default();
    let mut i = 0;
    loop {
        i = skip_ascii_whitespace(b, i);
        if i >= b.len() {
            return None;
        }
        let name_start = i;
        while b
            .get(i)
            .is_some_and(|&c| c != b'=' && !c.is_ascii_whitespace())
        {
            i += 1;
        }
        let wanted = b
            .get(name_start..i)
            .is_some_and(|name| name.eq_ignore_ascii_case(want));
        let eq = skip_ascii_whitespace(b, i);
        if b.get(eq) != Some(&b'=') {
            if wanted {
                return Some(Cow::Borrowed(""));
            }
            continue;
        }
        let j = skip_ascii_whitespace(b, eq + 1);
        let (value_start, value_end, after, entity) =
            if let Some(&quote @ (b'"' | b'\'')) = b.get(j) {
                let (end, entity) = run_end(b, j + 1, quote);
                (j + 1, end, (end + 1).min(b.len()), entity)
            } else {
                let end = b
                    .get(j..)
                    .and_then(|rest| rest.iter().position(u8::is_ascii_whitespace))
                    .map_or(b.len(), |k| j + k);
                (j, end, end, true)
            };
        if wanted {
            // Quotes and whitespace are ASCII, so both ends are char
            // boundaries.
            let value = attrs.get(value_start..value_end).unwrap_or_default();
            return Some(if entity {
                decode_entities(value)
            } else {
                Cow::Borrowed(value)
            });
        }
        i = after;
    }
}

/// Where the content of a raw-text element that opened just before
/// `from` ends: at the first ASCII-case-insensitive `close` (`</script`
/// or `</style`), or at the end of the input.
pub(crate) fn raw_text_end(html: &str, from: usize, close: &[u8]) -> usize {
    html.as_bytes()
        .get(from..)
        .and_then(|rest| find_ascii_ci(rest, close))
        .map_or(html.len(), |i| from + i)
}

/// The first offset at or after `from` whose byte is not ASCII
/// whitespace, or the end of `bytes`.
pub(crate) fn skip_ascii_whitespace(bytes: &[u8], from: usize) -> usize {
    bytes
        .get(from..)
        .and_then(|rest| rest.iter().position(|b| !b.is_ascii_whitespace()))
        .map_or(bytes.len().max(from), |i| from + i)
}

/// Byte offset of the first ASCII-case-insensitive occurrence of `pat` in
/// `haystack`, without allocating a lowercased copy of either. Only the
/// positions holding `pat`'s first byte, in either case, are compared in
/// full.
fn find_ascii_ci(haystack: &[u8], pat: &[u8]) -> Option<usize> {
    let first = *pat.first()?;
    let mut from = 0;
    while let Some(offset) = haystack
        .get(from..)?
        .iter()
        .position(|b| b.eq_ignore_ascii_case(&first))
    {
        let at = from + offset;
        if haystack.get(at..at + pat.len())?.eq_ignore_ascii_case(pat) {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// Where a run from `from` to the first `stop` (or the end of `bytes`)
/// ends, and whether it holds an `&`, an entity to decode: one scan for
/// the two bytes, and a second only past an `&`.
pub(crate) fn run_end(bytes: &[u8], from: usize, stop: u8) -> (usize, bool) {
    match find_flagged(
        bytes,
        from,
        |w| byte_mask(w, stop) | byte_mask(w, b'&'),
        |b| b == stop || b == b'&',
    ) {
        Some(amp) if bytes.get(amp) == Some(&b'&') => {
            (find_byte(bytes, amp, stop).unwrap_or(bytes.len()), true)
        }
        found => (found.unwrap_or(bytes.len()), false),
    }
}

/// Offset of the first `needle` in `bytes` at or after `from`.
pub(crate) fn find_byte(bytes: &[u8], from: usize, needle: u8) -> Option<usize> {
    find_flagged(bytes, from, |w| byte_mask(w, needle), |b| b == needle)
}

/// Offset of the first byte at or after `from` that `flags` marks in its
/// word and `is` accepts, eight bytes a step: the runs between tags and
/// the tags themselves are mostly longer than a word. `flags` may mark
/// bytes above its first true mark, but never misses one; `is` decides
/// the bytes of the tail shorter than a word.
pub(crate) fn find_flagged(
    bytes: &[u8],
    from: usize,
    flags: impl Fn(u64) -> u64,
    is: impl Fn(u8) -> bool,
) -> Option<usize> {
    let rest = bytes.get(from..)?;
    let mut words = rest.chunks_exact(8);
    let mut base = from;
    for word in &mut words {
        let hits = flags(word_at(word));
        if hits != 0 {
            return Some(base + first_byte(hits));
        }
        base += 8;
    }
    words
        .remainder()
        .iter()
        .position(|&b| is(b))
        .map(|i| base + i)
}

/// Eight bytes as one little-endian word (zero when fewer are given).
pub(crate) fn word_at(bytes: &[u8]) -> u64 {
    bytes.try_into().map_or(0, u64::from_le_bytes)
}

/// The high bit of each byte of `word` that equals `byte`, and possibly
/// of a byte just above one that does; the lowest set bit is always
/// exact, and no equal byte goes unflagged.
pub(crate) fn byte_mask(word: u64, byte: u8) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let x = word ^ (ONES * u64::from(byte));
    x.wrapping_sub(ONES) & !x & (ONES << 7)
}

/// The byte index, in its word, of the lowest flag of a [`byte_mask`].
pub(crate) fn first_byte(hits: u64) -> usize {
    (hits.trailing_zeros() / 8) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Document;

    fn start_tag(html: &str) -> (&[u8], &str) {
        match markup(html, 0) {
            (Markup::StartTag { name, attrs }, _) => (name, attrs),
            other => panic!("{html:?} is not a start tag: {other:?}"),
        }
    }

    #[test]
    fn simple_element() {
        assert_eq!(
            markup("<p>hello</p>", 0),
            (
                Markup::StartTag {
                    name: b"p",
                    attrs: ""
                },
                3
            )
        );
        assert_eq!(markup("<p>hello</p>", 8), (Markup::EndTag(b"p"), 12));
        // A name is the leading letters and digits.
        assert_eq!(markup("</h1>", 0), (Markup::EndTag(b"h1"), 5));
        assert!(Document::parse("<a1 href=/x>").href_links.is_empty());
        assert_eq!(Document::parse("<p>hello</p>").text, "hello");
    }

    #[test]
    fn attributes_quoted_and_unquoted() {
        let (name, attrs) = start_tag(r#"<a href="https://x.com/a" class=link id='z'>go</a>"#);
        assert_eq!(name, b"a");
        assert_eq!(attr(attrs, b"href").as_deref(), Some("https://x.com/a"));
        assert_eq!(attr(attrs, b"class").as_deref(), Some("link"));
        assert_eq!(attr(attrs, b"id").as_deref(), Some("z"));
        assert_eq!(attr(attrs, b"title"), None);
        // The first of a repeated attribute wins; a name without `=` has
        // the empty value.
        assert_eq!(attr(" href=/a HREF=/b", b"href").as_deref(), Some("/a"));
        assert_eq!(attr(" x='href=/a' href", b"href").as_deref(), Some(""));
    }

    #[test]
    fn lowercase_input_tokenizes_borrowed() {
        // The hot path: an entity-free value borrows the page; only a
        // value with an entity is decoded into an owned string.
        let (_, attrs) = start_tag(r#"<a href="/x" title="go &amp; stop">"#);
        assert!(matches!(attr(attrs, b"href"), Some(Cow::Borrowed("/x"))));
        assert!(matches!(attr(attrs, b"title"), Some(Cow::Owned(t)) if t == "go & stop"));
    }

    #[test]
    fn self_closing_and_void() {
        let (name, attrs) = start_tag(r#"<img src="/x.png"/>"#);
        assert_eq!(name, b"img");
        assert!(is_self_closing(attrs));
        // Slashes ending the tag belong to no value.
        assert_eq!(attr(attrs, b"src").as_deref(), Some("/x.png"));
        assert_eq!(attr(" src=/x.png//", b"src").as_deref(), Some("/x.png"));
        assert!(!is_self_closing(start_tag("<br>").1));
        assert!(is_self_closing(" /\u{a0}\u{3000}"));
        // A self-closing script opens no raw text.
        assert_eq!(Document::parse("<script/>after").text, "after");
        assert_eq!(Document::parse("<script src=x />after").text, "after");
    }

    #[test]
    fn comments_and_doctype_skipped() {
        let html = "<!DOCTYPE html><!-- hidden <b>bold</b> -->text";
        assert_eq!(markup(html, 0), (Markup::Skipped, 15));
        assert_eq!(markup(html, 15), (Markup::Skipped, 42));
        assert_eq!(Document::parse(html).text, "text");
        // A comment's `-->` may share its opening dashes.
        assert_eq!(markup("<!-->x", 0), (Markup::Skipped, 5));
        assert_eq!(markup("<!--->x", 0), (Markup::Skipped, 6));
        assert_eq!(markup("<?xml?>x", 0), (Markup::Skipped, 7));
        assert_eq!(markup("<!-- open", 0), (Markup::Skipped, 9));
    }

    #[test]
    fn script_content_is_raw() {
        let html = "<script>var a = '<p>not html</p>';</script>after";
        let (_, next) = markup(html, 0);
        assert_eq!(raw_text_end(html, next, b"</script"), 34);
        assert_eq!(Document::parse(html).text, "after");
    }

    #[test]
    fn style_content_is_raw() {
        let doc = Document::parse("<style>p { color: red }</style>shown");
        assert_eq!(doc.text, "shown");
    }

    #[test]
    fn raw_text_close_tag_is_case_insensitive() {
        let doc = Document::parse("<script>x = 1;</SCRIPT>after<style>y</StYlE>end");
        assert_eq!(doc.text, "after end");
    }

    #[test]
    fn entities_decoded_in_text() {
        assert_eq!(Document::parse("<p>a &amp; b</p>").text, "a & b");
        assert_eq!(
            attr(" href='/q?a=1&amp;b=2'", b"href").as_deref(),
            Some("/q?a=1&b=2")
        );
    }

    #[test]
    fn stray_lt_is_text() {
        assert_eq!(markup("1 < 2", 2), (Markup::Stray, 3));
        assert_eq!(markup("</ x", 0), (Markup::Stray, 1));
        // A stray `<` is a text run of its own.
        assert_eq!(Document::parse("1 < 2").text, "1 < 2");
        assert_eq!(Document::parse("a<1").text, "a < 1");
    }

    #[test]
    fn unterminated_tag_is_salvaged() {
        let html = "before <a href=";
        assert_eq!(
            markup(html, 7),
            (
                Markup::StartTag {
                    name: b"a",
                    attrs: " href="
                },
                html.len()
            )
        );
        let doc = Document::parse(html);
        assert_eq!(doc.text, "before");
        assert!(doc.href_links.is_empty());
    }

    #[test]
    fn truncated_tag_keeps_complete_attributes() {
        // Cut off mid-attribute-list: the completed href survives.
        let doc = Document::parse(r#"<a href="https://x.com/a" cla"#);
        assert_eq!(doc.href_links, ["https://x.com/a"]);
    }

    #[test]
    fn truncated_attribute_value_is_salvaged() {
        // Cut off inside a quoted value: what arrived is kept.
        let doc = Document::parse(r#"<img src="https://cdn.example.net/lo"#);
        assert_eq!(doc.resource_links, ["https://cdn.example.net/lo"]);
        assert_eq!(doc.image_count, 1);
    }

    #[test]
    fn every_truncation_point_tokenizes_without_panic() {
        let html = r#"<!DOCTYPE html><title>T</title><body><p>a &amp; b</p>
            <a href="https://x.com/a?q=1">link</a><script>var x = '<q>';</script>
            <img src="/i.png"><!-- note --><iframe src="//f.net/x"></iframe>日本語</body>"#;
        for cut in (0..=html.len()).filter(|&c| html.is_char_boundary(c)) {
            let doc = Document::parse(&html[..cut]);
            // No panic, and no raw markup leaks into the text.
            assert!(
                !doc.text.contains("<a ") && !doc.text.contains("<img"),
                "markup leaked into text at cut {cut}: {:?}",
                doc.text
            );
        }
    }

    #[test]
    fn unterminated_script() {
        let doc = Document::parse("shown<script>never closed");
        assert_eq!(doc.text, "shown");
        assert_eq!(raw_text_end("<script>never", 8, b"</script"), 13);
    }

    #[test]
    fn case_insensitive_tags() {
        assert_eq!(
            markup("<DIV CLASS=\"x\">", 0).0,
            Markup::StartTag {
                name: b"DIV",
                attrs: " CLASS=\"x\""
            }
        );
        assert_eq!(attr(" CLASS=\"x\"", b"class").as_deref(), Some("x"));
        let doc = Document::parse("<TITLE>T</TiTlE><A HREF=/x>x</A><IMG SRC=/i>");
        assert_eq!(doc.title, "T");
        assert_eq!(doc.text, "x");
        assert_eq!(doc.href_links, ["/x"]);
        assert_eq!(doc.resource_links, ["/i"]);
    }

    #[test]
    fn find_ascii_ci_offsets() {
        assert_eq!(find_ascii_ci(b"abcDEF", b"def"), Some(3));
        assert_eq!(find_ascii_ci(b"abc", b"z"), None);
        assert_eq!(find_ascii_ci(b"abc", b""), None);
        assert_eq!(find_ascii_ci(b"ab", b"abc"), None);
        assert_eq!(find_ascii_ci(b"</SCRIPT>", b"</script"), Some(0));
    }

    #[test]
    fn find_byte_at_every_offset() {
        // Every needle position and start, across word boundaries and in
        // the tail shorter than a word.
        let bytes = b"abcdefghijklmnopqrstuvwxyz0123456789";
        for from in 0..=bytes.len() + 1 {
            for (i, &b) in bytes.iter().enumerate() {
                let want = (i >= from).then_some(i);
                assert_eq!(find_byte(bytes, from, b), want, "{from} {i}");
            }
            assert_eq!(find_byte(bytes, from, b'!'), None);
        }
        // Bytes one above a match (`-` is `,` + 1) are not matches.
        assert_eq!(find_byte(b",-,-,-,-,-,-x-", 0, b'-'), Some(1));
        assert_eq!(find_byte(b"\0\x01\0\x01\0\x01\0\x01y", 0, b'y'), Some(8));
    }

    #[test]
    fn empty_input() {
        assert_eq!(Document::parse(""), Document::default());
        assert_eq!(markup("<", 0), (Markup::Stray, 1));
    }
}
