use crate::tokenizer::{Token, Tokenizer};
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
    /// markup degrades to text.
    pub fn parse(html: &str) -> Self {
        let mut doc = Document::default();
        let mut in_title = false;
        let mut in_head = false;

        for token in Tokenizer::new(html) {
            match token {
                // The tokenizer lowercases tag names, so one static match
                // dispatches every tag.
                Token::StartTag { name, attrs, .. } => match &*name {
                    "head" => in_head = true,
                    "title" => in_title = true,
                    "a" | "area" => {
                        if let Some(href) = attr(&attrs, "href") {
                            if !href.is_empty() && !href.starts_with('#') {
                                doc.href_links.push(href.to_owned());
                            }
                        }
                    }
                    "img" => {
                        doc.image_count += 1;
                        push_resource(&mut doc.resource_links, &attrs, "src");
                    }
                    "script" | "embed" | "source" | "audio" | "video" => {
                        push_resource(&mut doc.resource_links, &attrs, "src");
                    }
                    "link" => push_resource(&mut doc.resource_links, &attrs, "href"),
                    "iframe" | "frame" => {
                        doc.iframe_count += 1;
                        push_resource(&mut doc.resource_links, &attrs, "src");
                    }
                    "input" | "textarea" | "select" => {
                        // Only fields that collect user data count
                        // (phishing pages exist to harvest input).
                        let non_data = attr(&attrs, "type").is_some_and(|t| {
                            matches!(t, "hidden" | "submit" | "button" | "reset" | "image")
                        });
                        if !non_data {
                            doc.input_count += 1;
                        }
                    }
                    _ => {}
                },
                Token::EndTag { name } => match &*name {
                    "head" => in_head = false,
                    "title" => in_title = false,
                    _ => {}
                },
                Token::Text(t) => {
                    if in_title {
                        doc.title.push_str(&t);
                    } else if !in_head {
                        let trimmed = t.trim();
                        if !trimmed.is_empty() {
                            if !doc.text.is_empty() {
                                doc.text.push(' ');
                            }
                            doc.text.push_str(trimmed);
                        }
                    }
                }
                Token::RawText(_) => {}
            }
        }

        let kept = doc.title.trim_end().len();
        doc.title.truncate(kept);
        let lead = doc.title.len() - doc.title.trim_start().len();
        doc.title.drain(..lead);
        doc.copyright = find_copyright(&doc.text);
        doc
    }
}

fn attr<'t>(attrs: &'t [(Cow<'_, str>, Cow<'_, str>)], name: &str) -> Option<&'t str> {
    attrs
        .iter()
        .find(|(n, _)| n.as_ref() == name)
        .map(|(_, v)| v.as_ref())
}

/// Records the `name` attribute of a resource tag, unless it is missing
/// or empty.
fn push_resource(links: &mut Vec<String>, attrs: &[(Cow<'_, str>, Cow<'_, str>)], name: &str) {
    if let Some(url) = attr(attrs, name) {
        if !url.is_empty() {
            links.push(url.to_owned());
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
    let idx = text
        .find('©')
        .or_else(|| find_ignore_ascii_case(text.as_bytes(), b"copyright"))
        .or_else(|| find_ignore_ascii_case(text.as_bytes(), b"(c)"))?;
    // Expand to segment boundaries (periods or end of string), capped to a
    // reasonable notice length.
    // kyp-lint: allow(P02) — idx/start/end come from find/rfind of `©` and ASCII patterns, so they are char boundaries with start <= idx <= end
    let start = text[..idx].rfind('.').map_or(0, |i| i + 1);
    // kyp-lint: allow(P02) — same boundary argument as above
    let end = text[idx..].find('.').map_or(text.len(), |i| idx + i);
    // kyp-lint: allow(P02) — same boundary argument as above
    let notice = text[start..end].trim();
    let notice: String = notice.chars().take(200).collect();
    (!notice.is_empty()).then_some(notice)
}

/// Byte offset of the first ASCII-case-insensitive occurrence of the
/// ASCII pattern `pat` in `text`. Only the positions holding `pat`'s
/// first byte, in either case, are compared in full.
fn find_ignore_ascii_case(text: &[u8], pat: &[u8]) -> Option<usize> {
    let first = *pat.first()?;
    let mut from = 0;
    while let Some(offset) = text
        .get(from..)?
        .iter()
        .position(|b| b.eq_ignore_ascii_case(&first))
    {
        let at = from + offset;
        let window = text.get(at..at + pat.len())?;
        if window.eq_ignore_ascii_case(pat) {
            return Some(at);
        }
        from = at + 1;
    }
    None
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

    #[test]
    fn entities_in_text_and_title() {
        let doc = Document::parse("<title>A &amp; B</title><body>caf&eacute;</body>");
        assert_eq!(doc.title, "A & B");
        assert_eq!(doc.text, "café");
    }
}
