//! The forgiving, single-pass HTML tokenizer `kyp_html` shipped until
//! `Document::parse` became one loop over the page's bytes: a flat
//! stream of start tags (with attributes), end tags and text runs, moved
//! here unchanged as the scanner of the reference parser. Comments and
//! doctypes are skipped (each skip recursing once into `next`), and the
//! contents of `script` and `style` elements are emitted as
//! [`Token::RawText`].
//!
//! Tokens *borrow* from the input wherever the source bytes can be used
//! verbatim and only fall back to owned strings when normalisation
//! (lowercasing, entity decoding) changes bytes.

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
        Some(Token::Text(super::entity::decode_entities(text)))
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
                value = super::entity::decode_entities(&input[v_start..j]);
                if j < n {
                    j += 1; // closing quote
                }
            } else {
                let v_start = j;
                while j < n && !b[j].is_ascii_whitespace() {
                    j += 1;
                }
                value = super::entity::decode_entities(&input[v_start..j]);
            }
            i = j;
        }
        if !name.is_empty() {
            attrs.push((name, value));
        }
    }
    attrs
}
