//! The entity decoder `kyp_html` shipped before its `;` search was
//! capped: `decode_one` looks for the `;` over the whole rest of the
//! input and only then applies its 12-byte limit. Kept unchanged as the
//! decoder of the reference tokenizer and the reference of the linear
//! decoder.

use std::borrow::Cow;

/// Decodes HTML entities in `input`.
///
/// Handles the common named entities (`&amp;`, `&lt;`, `&gt;`, `&quot;`,
/// `&apos;`, `&nbsp;`, `&copy;`, `&reg;`, accented-letter entities like
/// `&eacute;`) and numeric references (`&#233;`, `&#x00E9;`). Unknown
/// entities are passed through verbatim.
///
/// Returns [`Cow::Borrowed`] when nothing decodes — the overwhelmingly
/// common case for real page text — so the hot tokenizer path allocates
/// only on inputs that actually contain entities.
pub fn decode_entities(input: &str) -> Cow<'_, str> {
    // Find the first entity that actually decodes; everything up to it is
    // borrowed untouched. Inputs with no decodable entity never allocate.
    let mut search = 0;
    let (first_char, first_pos, first_len) = loop {
        let Some(rel) = input[search..].find('&') else {
            return Cow::Borrowed(input);
        };
        let pos = search + rel;
        if let Some((c, consumed)) = decode_one(&input[pos..]) {
            break (c, pos, consumed);
        }
        search = pos + 1;
    };

    let mut out = String::with_capacity(input.len());
    out.push_str(&input[..first_pos]);
    out.push(first_char);
    let mut rest = &input[first_pos + first_len..];
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        if let Some((c, consumed)) = decode_one(rest) {
            out.push(c);
            rest = &rest[consumed..];
        } else {
            out.push('&');
            rest = &rest[1..];
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

/// Tries to decode a single entity at the start of `s` (which begins with
/// `&`). Returns the character and the number of bytes consumed.
fn decode_one(s: &str) -> Option<(char, usize)> {
    let end = s[1..].find(';')? + 1;
    if end > 12 {
        return None; // entities are short; avoid scanning far ahead
    }
    let name = &s[1..end];
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
