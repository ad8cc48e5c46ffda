//! Minimal HTML entity decoding — the named entities our generators emit
//! plus numeric character references.

use crate::tokenizer::find_byte;
use std::borrow::Cow;

/// Decodes HTML entities in `input`.
///
/// Handles the common named entities (`&amp;`, `&lt;`, `&gt;`, `&quot;`,
/// `&apos;`, `&nbsp;`, `&copy;`, `&reg;`, accented-letter entities like
/// `&eacute;`) and numeric references (`&#233;`, `&#x00E9;`). Unknown
/// entities are passed through verbatim.
///
/// Returns [`Cow::Borrowed`] when nothing decodes — the overwhelmingly
/// common case for real page text — so the page parser allocates
/// only on inputs that actually contain entities.
///
/// # Examples
///
/// ```
/// assert_eq!(kyp_html::decode_entities("caf&eacute; &copy; 2015"), "café © 2015");
/// assert_eq!(kyp_html::decode_entities("1 &lt; 2 &amp;&amp; 3 &gt; 2"), "1 < 2 && 3 > 2");
/// // Entity-free text is passed through without allocating.
/// assert!(matches!(
///     kyp_html::decode_entities("plain text"),
///     std::borrow::Cow::Borrowed(_)
/// ));
/// ```
pub fn decode_entities(input: &str) -> Cow<'_, str> {
    // Everything before the first entity that actually decodes is
    // borrowed untouched: inputs with no decodable entity never allocate.
    let mut out: Option<String> = None;
    // `input[..copied]` is already in `out`.
    let mut copied = 0;
    let mut search = 0;
    while let Some(at) = find_byte(input.as_bytes(), search, b'&') {
        match input.get(at..).and_then(decode_one) {
            Some((c, consumed)) => {
                let out = out.get_or_insert_with(|| String::with_capacity(input.len()));
                out.push_str(input.get(copied..at).unwrap_or_default());
                out.push(c);
                copied = at + consumed;
                search = copied;
            }
            None => search = at + 1,
        }
    }
    match out {
        None => Cow::Borrowed(input),
        Some(mut out) => {
            out.push_str(input.get(copied..).unwrap_or_default());
            Cow::Owned(out)
        }
    }
}

/// The longest entity [`decode_one`] accepts, `&` and `;` included:
/// entities are short, and the `;` is looked for only this far.
const MAX_ENTITY: usize = 13;

/// Tries to decode a single entity at the start of `s` (which begins with
/// `&`). Returns the character and the number of bytes consumed.
///
/// The `;` is looked for only within [`MAX_ENTITY`] bytes, so a run of
/// `&`s with no `;` behind them decodes in linear time.
fn decode_one(s: &str) -> Option<(char, usize)> {
    let window = s.as_bytes().get(1..MAX_ENTITY.min(s.len()))?;
    let end = window.iter().position(|&b| b == b';')? + 1;
    // `end` is at an ASCII `;`, so both ends of the name are char
    // boundaries.
    let name = s.get(1..end)?;
    let c = if let Some(num) = name.strip_prefix('#') {
        let code = if let Some(hex) = num.strip_prefix(['x', 'X']) {
            u32::from_str_radix(hex, 16).ok()?
        } else {
            num.parse::<u32>().ok()?
        };
        char::from_u32(code)?
    } else {
        match name {
            "amp" => '&',
            "lt" => '<',
            "gt" => '>',
            "quot" => '"',
            "apos" => '\'',
            "nbsp" => ' ',
            "copy" => '©',
            "reg" => '®',
            "trade" => '™',
            "eacute" => 'é',
            "egrave" => 'è',
            "agrave" => 'à',
            "ccedil" => 'ç',
            "uuml" => 'ü',
            "ouml" => 'ö',
            "auml" => 'ä',
            "szlig" => 'ß',
            "ntilde" => 'ñ',
            "atilde" => 'ã',
            "otilde" => 'õ',
            "iacute" => 'í',
            "oacute" => 'ó',
            "uacute" => 'ú',
            "aacute" => 'á',
            _ => return None,
        }
    };
    Some((c, end + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_entities() {
        assert_eq!(decode_entities("&lt;b&gt;"), "<b>");
        assert_eq!(decode_entities("a &amp; b"), "a & b");
        assert_eq!(decode_entities("&quot;x&quot;"), "\"x\"");
    }

    #[test]
    fn numeric_references() {
        assert_eq!(decode_entities("&#65;"), "A");
        assert_eq!(decode_entities("&#x41;"), "A");
        assert_eq!(decode_entities("&#233;"), "é");
    }

    #[test]
    fn unknown_entity_passes_through() {
        assert_eq!(decode_entities("&bogus; &"), "&bogus; &");
        assert_eq!(decode_entities("fish & chips"), "fish & chips");
    }

    #[test]
    fn accented_entities() {
        assert_eq!(decode_entities("&eacute;&uuml;&ntilde;"), "éüñ");
    }

    #[test]
    fn no_entities_is_identity() {
        assert_eq!(decode_entities("plain text"), "plain text");
        assert_eq!(decode_entities(""), "");
    }

    #[test]
    fn entity_free_input_is_borrowed() {
        // Zero-allocation pass-through, even with undecodable ampersands.
        for s in ["plain", "", "fish & chips", "&bogus;", "a & b & c"] {
            assert!(matches!(decode_entities(s), Cow::Borrowed(_)), "{s:?}");
        }
        // A decodable entity forces an owned copy.
        assert!(matches!(decode_entities("a &amp; b"), Cow::Owned(_)));
        assert!(matches!(decode_entities("&#65;"), Cow::Owned(_)));
    }

    #[test]
    fn invalid_numeric_reference() {
        assert_eq!(decode_entities("&#xZZ;"), "&#xZZ;");
        assert_eq!(decode_entities("&#1114112;"), "&#1114112;"); // out of range
    }
}
