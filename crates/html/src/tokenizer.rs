//! A forgiving, single-pass HTML tokenizer.
//!
//! Produces a flat stream of start tags (with attributes), end tags and
//! text runs. Comments and doctypes are skipped; the contents of `script`
//! and `style` elements are consumed as raw text and emitted as
//! [`Token::RawText`] so they never pollute the rendered-text extraction.
//!
//! Tokens *borrow* from the input wherever the source bytes can be used
//! verbatim — already-lowercase tag names, entity-free text runs, raw
//! script/style content — and only fall back to owned strings when
//! normalisation (lowercasing, entity decoding) actually changes bytes.
//! On realistic pages that makes tokenization allocation-free outside
//! the attribute vector itself.

use std::borrow::Cow;

/// One token of the HTML input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// `<name attr="value" ...>`; `self_closing` is true for `<br/>`.
    StartTag {
        /// Lowercased tag name (borrowed when already lowercase).
        name: Cow<'a, str>,
        /// Attribute name/value pairs, names lowercased, values
        /// entity-decoded; both borrow the input when unchanged by
        /// normalisation.
        attrs: Vec<(Cow<'a, str>, Cow<'a, str>)>,
        /// Whether the tag ended with `/>`.
        self_closing: bool,
    },
    /// `</name>` with the name lowercased.
    EndTag {
        /// Lowercased tag name (borrowed when already lowercase).
        name: Cow<'a, str>,
    },
    /// A run of document text, entity-decoded (borrowed when entity-free).
    Text(Cow<'a, str>),
    /// The raw contents of a `<script>` or `<style>` element, always a
    /// direct slice of the input.
    RawText(&'a str),
}

/// Streaming tokenizer over an HTML string.
///
/// # Examples
///
/// ```
/// use kyp_html::{Token, Tokenizer};
/// let tokens: Vec<Token> = Tokenizer::new("<p>hi</p>").collect();
/// assert_eq!(tokens.len(), 3);
/// assert_eq!(tokens[1], Token::Text("hi".into()));
/// ```
#[derive(Debug)]
pub struct Tokenizer<'a> {
    input: &'a str,
    pos: usize,
    /// Set when the previous start tag opened a raw-text element
    /// (`script`/`style`); holds the closing tag to look for.
    pending_raw: Option<&'static str>,
}

/// Lowercases `s`, borrowing it unchanged when it already is lowercase —
/// the common case for real markup, where tag and attribute names arrive
/// lowercase and need no allocation.
fn lower(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// Byte offset of the first ASCII-case-insensitive occurrence of `pat` in
/// `haystack`, without allocating a lowercased copy of either.
pub(crate) fn find_ascii_ci(haystack: &str, pat: &str) -> Option<usize> {
    let h = haystack.as_bytes();
    let p = pat.as_bytes();
    if p.is_empty() || p.len() > h.len() {
        return None;
    }
    (0..=h.len() - p.len()).find(|&i| h[i..i + p.len()].eq_ignore_ascii_case(p))
}

impl<'a> Tokenizer<'a> {
    /// Creates a tokenizer over `input`.
    pub fn new(input: &'a str) -> Self {
        Tokenizer {
            input,
            pos: 0,
            pending_raw: None,
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn take_raw_text(&mut self, close: &str) -> Token<'a> {
        let rest = self.rest();
        if let Some(idx) = find_ascii_ci(rest, close) {
            let content = &rest[..idx];
            self.pos += idx;
            Token::RawText(content)
        } else {
            self.pos = self.input.len();
            Token::RawText(rest)
        }
    }

    fn take_tag(&mut self) -> Option<Token<'a>> {
        // self.rest() starts with '<'.
        let rest = self.rest();
        let bytes = rest.as_bytes();
        if rest.starts_with("<!--") {
            // Comment: skip to -->.
            match rest.find("-->") {
                Some(idx) => self.pos += idx + 3,
                None => self.pos = self.input.len(),
            }
            return self.next();
        }
        if rest.starts_with("<!") || rest.starts_with("<?") {
            // Doctype / processing instruction: skip to '>'.
            match rest.find('>') {
                Some(idx) => self.pos += idx + 1,
                None => self.pos = self.input.len(),
            }
            return self.next();
        }
        let closing = bytes.get(1) == Some(&b'/');
        let name_start = if closing { 2 } else { 1 };
        // A '<' not followed by a letter is literal text.
        match bytes.get(name_start) {
            Some(c) if c.is_ascii_alphabetic() => {}
            _ => {
                self.pos += 1;
                return Some(Token::Text(Cow::Borrowed(&rest[..1])));
            }
        }
        // An unterminated tag at end of input is the signature of a
        // truncated fetch: salvage the partial tag (name plus any complete
        // attributes) instead of leaking raw markup into the text stream.
        let (tag_end, terminated) = match rest.find('>') {
            Some(idx) => (idx, true),
            None => (rest.len(), false),
        };
        let inner = &rest[name_start..tag_end];
        self.pos += tag_end + usize::from(terminated);

        let mut chars = inner.char_indices();
        let name_end = chars
            .find(|(_, c)| !c.is_ascii_alphanumeric())
            .map_or(inner.len(), |(i, _)| i);
        let name = lower(&inner[..name_end]);
        if closing {
            return Some(Token::EndTag { name });
        }
        let attr_str = &inner[name_end..];
        let self_closing = attr_str.trim_end().ends_with('/');
        let attrs = parse_attrs(attr_str.trim_end_matches('/'));
        if name == "script" && !self_closing {
            self.pending_raw = Some("</script");
        } else if name == "style" && !self_closing {
            self.pending_raw = Some("</style");
        }
        Some(Token::StartTag {
            name,
            attrs,
            self_closing,
        })
    }
}

impl<'a> Iterator for Tokenizer<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        if let Some(close) = self.pending_raw.take() {
            let tok = self.take_raw_text(close);
            if let Token::RawText(t) = tok {
                if t.is_empty() {
                    return self.next();
                }
            }
            return Some(tok);
        }
        if self.pos >= self.input.len() {
            return None;
        }
        if self.rest().starts_with('<') {
            return self.take_tag();
        }
        let rest = self.rest();
        let end = rest.find('<').unwrap_or(rest.len());
        let text = &rest[..end];
        self.pos += end;
        Some(Token::Text(crate::entity::decode_entities(text)))
    }
}

fn parse_attrs(input: &str) -> Vec<(Cow<'_, str>, Cow<'_, str>)> {
    let b = input.as_bytes();
    let mut attrs = Vec::new();
    let mut i = 0;
    let n = b.len();
    while i < n {
        // Skip whitespace between attributes.
        while i < n && b[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= n {
            break;
        }
        // Attribute name: up to '=', whitespace or end.
        let name_start = i;
        while i < n && b[i] != b'=' && !b[i].is_ascii_whitespace() {
            i += 1;
        }
        let name = lower(&input[name_start..i]);
        // Skip whitespace before a possible '='.
        let mut j = i;
        while j < n && b[j].is_ascii_whitespace() {
            j += 1;
        }
        let mut value = Cow::Borrowed("");
        if j < n && b[j] == b'=' {
            j += 1;
            while j < n && b[j].is_ascii_whitespace() {
                j += 1;
            }
            if j < n && (b[j] == b'"' || b[j] == b'\'') {
                let quote = b[j];
                j += 1;
                let v_start = j;
                while j < n && b[j] != quote {
                    j += 1;
                }
                value = crate::entity::decode_entities(&input[v_start..j]);
                if j < n {
                    j += 1; // closing quote
                }
            } else {
                let v_start = j;
                while j < n && !b[j].is_ascii_whitespace() {
                    j += 1;
                }
                value = crate::entity::decode_entities(&input[v_start..j]);
            }
            i = j;
        }
        if !name.is_empty() {
            attrs.push((name, value));
        }
    }
    attrs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(html: &str) -> Vec<Token<'_>> {
        Tokenizer::new(html).collect()
    }

    fn owned(attrs: &[(Cow<'_, str>, Cow<'_, str>)]) -> Vec<(String, String)> {
        attrs
            .iter()
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn simple_element() {
        let toks = tokens("<p>hello</p>");
        assert_eq!(
            toks,
            vec![
                Token::StartTag {
                    name: "p".into(),
                    attrs: vec![],
                    self_closing: false
                },
                Token::Text("hello".into()),
                Token::EndTag { name: "p".into() },
            ]
        );
    }

    #[test]
    fn attributes_quoted_and_unquoted() {
        let toks = tokens(r#"<a href="https://x.com/a" class=link id='z'>go</a>"#);
        match &toks[0] {
            Token::StartTag { name, attrs, .. } => {
                assert_eq!(name, "a");
                assert_eq!(
                    owned(attrs),
                    vec![
                        ("href".to_string(), "https://x.com/a".to_string()),
                        ("class".to_string(), "link".to_string()),
                        ("id".to_string(), "z".to_string()),
                    ]
                );
            }
            t => panic!("unexpected token {t:?}"),
        }
    }

    #[test]
    fn lowercase_input_tokenizes_borrowed() {
        // The hot path: already-normalised markup borrows everything.
        let toks = tokens(r#"<a href="/x">go &amp; stop</a><script>raw</script>"#);
        match &toks[0] {
            Token::StartTag { name, attrs, .. } => {
                assert!(matches!(name, Cow::Borrowed(_)));
                assert!(matches!(attrs[0].0, Cow::Borrowed(_)));
                assert!(matches!(attrs[0].1, Cow::Borrowed(_)));
            }
            t => panic!("unexpected token {t:?}"),
        }
        // Entity-bearing text is owned; entity-free text is borrowed.
        assert!(matches!(&toks[1], Token::Text(Cow::Owned(_))));
        match &toks[2] {
            Token::EndTag { name } => assert!(matches!(name, Cow::Borrowed(_))),
            t => panic!("unexpected token {t:?}"),
        }
        let plain = tokens("<p>plain</p>");
        assert!(matches!(&plain[1], Token::Text(Cow::Borrowed(_))));
    }

    #[test]
    fn self_closing_and_void() {
        let toks = tokens(r#"<img src="/x.png"/><br>"#);
        assert!(matches!(
            &toks[0],
            Token::StartTag { name, self_closing: true, .. } if name == "img"
        ));
        assert!(matches!(
            &toks[1],
            Token::StartTag { name, self_closing: false, .. } if name == "br"
        ));
    }

    #[test]
    fn comments_and_doctype_skipped() {
        let toks = tokens("<!DOCTYPE html><!-- hidden <b>bold</b> -->text");
        assert_eq!(toks, vec![Token::Text("text".into())]);
    }

    #[test]
    fn script_content_is_raw() {
        let toks = tokens("<script>var a = '<p>not html</p>';</script>after");
        assert_eq!(toks.len(), 4);
        assert!(matches!(&toks[1], Token::RawText(t) if t.contains("not html")));
        assert_eq!(toks[3], Token::Text("after".into()));
    }

    #[test]
    fn style_content_is_raw() {
        let toks = tokens("<style>p { color: red }</style>");
        assert!(matches!(&toks[1], Token::RawText(t) if t.contains("color")));
    }

    #[test]
    fn raw_text_close_tag_is_case_insensitive() {
        let toks = tokens("<script>x = 1;</SCRIPT>after");
        assert!(matches!(&toks[1], Token::RawText(t) if t.contains("x = 1")));
        assert_eq!(*toks.last().unwrap(), Token::Text("after".into()));
    }

    #[test]
    fn entities_decoded_in_text() {
        let toks = tokens("<p>a &amp; b</p>");
        assert_eq!(toks[1], Token::Text("a & b".into()));
    }

    #[test]
    fn stray_lt_is_text() {
        let toks = tokens("1 < 2");
        let text: String = toks
            .iter()
            .filter_map(|t| match t {
                Token::Text(s) => Some(s.as_ref()),
                _ => None,
            })
            .collect();
        assert_eq!(text, "1 < 2");
    }

    #[test]
    fn unterminated_tag_is_salvaged() {
        let toks = tokens("before <a href=");
        assert_eq!(toks[0], Token::Text("before ".into()));
        assert!(
            matches!(&toks[1], Token::StartTag { name, .. } if name == "a"),
            "partial tag should become a start tag, got {:?}",
            toks[1]
        );
    }

    #[test]
    fn truncated_tag_keeps_complete_attributes() {
        // Cut off mid-attribute-list: the completed href survives.
        let toks = tokens(r#"<a href="https://x.com/a" cla"#);
        match &toks[0] {
            Token::StartTag { name, attrs, .. } => {
                assert_eq!(name, "a");
                assert_eq!(
                    owned(attrs)[0],
                    ("href".to_string(), "https://x.com/a".to_string())
                );
            }
            t => panic!("unexpected token {t:?}"),
        }
    }

    #[test]
    fn truncated_attribute_value_is_salvaged() {
        // Cut off inside a quoted value: what arrived is kept.
        let toks = tokens(r#"<img src="https://cdn.example.net/lo"#);
        match &toks[0] {
            Token::StartTag { name, attrs, .. } => {
                assert_eq!(name, "img");
                assert_eq!(attrs[0].1, "https://cdn.example.net/lo");
            }
            t => panic!("unexpected token {t:?}"),
        }
    }

    #[test]
    fn every_truncation_point_tokenizes_without_panic() {
        let html = r#"<!DOCTYPE html><title>T</title><body><p>a &amp; b</p>
            <a href="https://x.com/a?q=1">link</a><script>var x = '<q>';</script>
            <img src="/i.png"><!-- note --><iframe src="//f.net/x"></iframe>日本語</body>"#;
        for cut in 0..=html.len() {
            if !html.is_char_boundary(cut) {
                continue;
            }
            let toks: Vec<Token> = Tokenizer::new(&html[..cut]).collect();
            // No panic, and no token leaks raw '<tag' markup as text.
            for t in &toks {
                if let Token::Text(s) = t {
                    assert!(
                        !s.trim_start().starts_with("<a ") && !s.contains("<img"),
                        "markup leaked into text at cut {cut}: {s:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn unterminated_script() {
        let toks = tokens("<script>never closed");
        assert!(matches!(&toks[1], Token::RawText(t) if t.contains("never")));
    }

    #[test]
    fn case_insensitive_tags() {
        let toks = tokens("<DIV CLASS=\"x\"></DIV>");
        assert!(matches!(&toks[0], Token::StartTag { name, .. } if name == "div"));
        assert!(matches!(&toks[1], Token::EndTag { name } if name == "div"));
    }

    #[test]
    fn find_ascii_ci_offsets() {
        assert_eq!(find_ascii_ci("abcDEF", "def"), Some(3));
        assert_eq!(find_ascii_ci("abc", "z"), None);
        assert_eq!(find_ascii_ci("abc", ""), None);
        assert_eq!(find_ascii_ci("ab", "abc"), None);
        assert_eq!(find_ascii_ci("</SCRIPT>", "</script"), Some(0));
    }

    #[test]
    fn empty_input() {
        assert!(tokens("").is_empty());
    }
}
