//! The page parser `kyp_html` shipped before its static tag dispatch:
//! each parse builds a sorted-probe tag interner and dispatches on the
//! interned symbols, accumulates title and text in separate buffers and
//! copies them out, and finds the copyright anchor by comparing a window
//! at every byte offset. It runs on the [`Tokenizer`] and entity decoder
//! that shipped with it, kept here unchanged, and the equivalence
//! properties compare every [`Document`] field against it.

pub mod builder;
pub mod entity;
pub mod tokenizer;
pub mod visit;

use kyp_html::Document;
use std::borrow::Cow;
use tokenizer::{Token, Tokenizer};

/// An interned tag name: an index into [`Interner::strings`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sym(u32);

const HEAD: Sym = Sym(0);
const TITLE: Sym = Sym(1);
const A: Sym = Sym(2);
const AREA: Sym = Sym(3);
const IMG: Sym = Sym(4);
const SCRIPT: Sym = Sym(5);
const EMBED: Sym = Sym(6);
const SOURCE: Sym = Sym(7);
const AUDIO: Sym = Sym(8);
const VIDEO: Sym = Sym(9);
const LINK: Sym = Sym(10);
const IFRAME: Sym = Sym(11);
const FRAME: Sym = Sym(12);
const INPUT: Sym = Sym(13);
const TEXTAREA: Sym = Sym(14);
const SELECT: Sym = Sym(15);

/// Seeding order; index == symbol value.
const SEED: &[&str] = &[
    "head", "title", "a", "area", "img", "script", "embed", "source", "audio", "video", "link",
    "iframe", "frame", "input", "textarea", "select",
];

/// A string interner over a sorted probe table.
struct Interner {
    strings: Vec<String>,
    /// Indices into `strings`, sorted by the string they point at.
    index: Vec<u32>,
}

impl Interner {
    fn new() -> Self {
        let mut interner = Interner {
            strings: Vec::new(),
            index: Vec::new(),
        };
        for name in SEED {
            interner.intern(name);
        }
        interner
    }

    fn intern(&mut self, s: &str) -> Sym {
        match self
            .index
            .binary_search_by(|&i| self.strings[i as usize].as_str().cmp(s))
        {
            Ok(pos) => Sym(self.index[pos]),
            Err(pos) => {
                let id = u32::try_from(self.strings.len()).unwrap();
                self.strings.push(s.to_owned());
                self.index.insert(pos, id);
                Sym(id)
            }
        }
    }
}

/// Parses `html` as the interner-dispatch parser did.
pub fn parse(html: &str) -> Document {
    let mut interner = Interner::new();
    let mut title = String::new();
    let mut text = String::new();
    let mut doc = Document::default();
    let mut in_title = false;
    let mut in_head = false;

    for token in Tokenizer::new(html) {
        match token {
            Token::StartTag { name, attrs, .. } => match interner.intern(&name) {
                HEAD => in_head = true,
                TITLE => in_title = true,
                A | AREA => {
                    if let Some(href) = attr(&attrs, "href") {
                        if !href.is_empty() && !href.starts_with('#') {
                            doc.href_links.push(href.to_owned());
                        }
                    }
                }
                IMG => {
                    doc.image_count += 1;
                    if let Some(src) = attr(&attrs, "src") {
                        if !src.is_empty() {
                            doc.resource_links.push(src.to_owned());
                        }
                    }
                }
                SCRIPT | EMBED | SOURCE | AUDIO | VIDEO => {
                    if let Some(src) = attr(&attrs, "src") {
                        if !src.is_empty() {
                            doc.resource_links.push(src.to_owned());
                        }
                    }
                }
                LINK => {
                    if let Some(href) = attr(&attrs, "href") {
                        if !href.is_empty() {
                            doc.resource_links.push(href.to_owned());
                        }
                    }
                }
                IFRAME | FRAME => {
                    doc.iframe_count += 1;
                    if let Some(src) = attr(&attrs, "src") {
                        if !src.is_empty() {
                            doc.resource_links.push(src.to_owned());
                        }
                    }
                }
                INPUT | TEXTAREA | SELECT => {
                    let non_data = attr(&attrs, "type").is_some_and(|t| {
                        matches!(t, "hidden" | "submit" | "button" | "reset" | "image")
                    });
                    if !non_data {
                        doc.input_count += 1;
                    }
                }
                _ => {}
            },
            Token::EndTag { name } => match interner.intern(&name) {
                HEAD => in_head = false,
                TITLE => in_title = false,
                _ => {}
            },
            Token::Text(t) => {
                if in_title {
                    title.push_str(&t);
                } else if !in_head {
                    let trimmed = t.trim();
                    if !trimmed.is_empty() {
                        if !text.is_empty() {
                            text.push(' ');
                        }
                        text.push_str(trimmed);
                    }
                }
            }
            Token::RawText(_) => {}
        }
    }

    doc.text.clone_from(&text);
    doc.title = String::from(title.trim());
    doc.copyright = find_copyright(&doc.text);
    doc
}

fn attr<'t>(attrs: &'t [(Cow<'_, str>, Cow<'_, str>)], name: &str) -> Option<&'t str> {
    attrs
        .iter()
        .find(|(n, _)| n.as_ref() == name)
        .map(|(_, v)| v.as_ref())
}

fn find_copyright(text: &str) -> Option<String> {
    let idx = text
        .find('©')
        .or_else(|| find_ascii_ci(text, "copyright"))
        .or_else(|| find_ascii_ci(text, "(c)"))?;
    let start = text[..idx].rfind('.').map_or(0, |i| i + 1);
    let end = text[idx..].find('.').map_or(text.len(), |i| idx + i);
    let notice = text[start..end].trim();
    let notice: String = notice.chars().take(200).collect();
    (!notice.is_empty()).then_some(notice)
}

/// Compares `pat` against the window at every byte offset of `haystack`.
fn find_ascii_ci(haystack: &str, pat: &str) -> Option<usize> {
    let h = haystack.as_bytes();
    let p = pat.as_bytes();
    if p.is_empty() || p.len() > h.len() {
        return None;
    }
    (0..=h.len() - p.len()).find(|&i| h[i..i + p.len()].eq_ignore_ascii_case(p))
}
