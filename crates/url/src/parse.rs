use crate::fqdn::DomainSplit;
use crate::{HostAt, ParseUrlError, SchemeAt, Span, Url};

/// What the checks of [`scan`] learn about an input: its parts as spans
/// of the input, the IPv4 octets or the label count of its host.
struct Scanned {
    scheme: SchemeAt,
    host: Span,
    port: Option<u16>,
    path: Option<Span>,
    query: Option<Span>,
    fragment: Option<Span>,
    ipv4: Option<[u8; 4]>,
    labels: usize,
}

/// Runs every check [`parse`] runs, allocating nothing.
pub(crate) fn check(input: &str) -> Result<(), ParseUrlError> {
    scan(input).map(|_| ())
}

/// Splits `input` by the paper's Fig. 1 into spans of `input` and checks
/// every part: the checking end of the parser, which allocates nothing.
///
/// One forward pass: the trim, the scheme, then one walk over the
/// authority to the first `/`, `?` or `#` that keeps the last `@` and
/// `:` it passes. The path, query and fragment are cut only after the
/// host, and the label and IPv4 checks read the host bytes alone.
fn scan(input: &str) -> Result<Scanned, ParseUrlError> {
    let bytes = input.as_bytes();
    let (start, end) = trim(input);
    if start >= end {
        return Err(ParseUrlError::MissingHost);
    }
    let text = &bytes[..end];

    let (scheme, authority) = match scheme_len(&text[start..]) {
        Some(len) => {
            let span = Span {
                start,
                end: start + len,
            };
            let s = span.of(input);
            let scheme = if s.eq_ignore_ascii_case("http") {
                SchemeAt::Http
            } else if s.eq_ignore_ascii_case("https") {
                SchemeAt::Https
            } else {
                SchemeAt::Other(span)
            };
            (scheme, span.end + 3)
        }
        None => (SchemeAt::Http, start),
    };

    // The authority runs to the first `/`, `?` or `#`. Userinfo ends at
    // its last `@` (the part before it is a decoy, a URL-obfuscation
    // trick), and a port starts after its last `:` past that `@`.
    let mut at = None;
    let mut colon = None;
    let mut host_end = end;
    for (i, &b) in text.iter().enumerate().skip(authority) {
        match AUTHORITY[usize::from(b)] {
            PLAIN => {}
            STOP => {
                host_end = i;
                break;
            }
            AT => at = Some(i),
            _ => colon = Some(i),
        }
    }
    if host_end == authority {
        return Err(ParseUrlError::MissingHost);
    }
    let (path, query, fragment) = rest_spans(text, host_end);

    let host_start = at.map_or(authority, |i| i + 1);
    let mut host = Span {
        start: host_start,
        end: host_end,
    };
    let mut port = None;
    if let Some(colon) = colon.filter(|&i| i >= host_start) {
        let digits = &input[colon + 1..host_end];
        if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
            port = Some(digits.parse().map_err(|_| ParseUrlError::InvalidPort)?);
            host.end = colon;
        } else if digits.bytes().any(|b| b.is_ascii_digit()) {
            return Err(ParseUrlError::InvalidPort);
        }
    }
    if host.is_empty() {
        return Err(ParseUrlError::MissingHost);
    }

    let host_text = host.of(input);
    let ipv4 = parse_ipv4(host_text);
    let labels = match ipv4 {
        Some(_) => 0,
        None => DomainSplit::validate(host_text)?,
    };
    Ok(Scanned {
        scheme,
        host,
        port,
        path,
        query,
        fragment,
        ipv4,
        labels,
    })
}

const PLAIN: u8 = 0;
const STOP: u8 = 1;
const AT: u8 = 2;
const COLON: u8 = 3;

/// The class of each byte in the authority walk: `/`, `?` and `#` stop
/// it, `@` and `:` are kept, and every other byte is plain. A table
/// lookup is one predictable branch per plain byte.
const AUTHORITY: [u8; 256] = {
    let mut classes = [PLAIN; 256];
    classes[b'/' as usize] = STOP;
    classes[b'?' as usize] = STOP;
    classes[b'#' as usize] = STOP;
    classes[b'@' as usize] = AT;
    classes[b':' as usize] = COLON;
    classes
};

/// Where `input.trim()` starts and ends. An input that starts and ends
/// with an ASCII character that is not whitespace, as every stored URL
/// does, is its own trim; only other inputs take the Unicode trims.
fn trim(input: &str) -> (usize, usize) {
    let kept = |b: &u8| b.is_ascii() && !char::from(*b).is_whitespace();
    let bytes = input.as_bytes();
    let start = if bytes.first().is_some_and(kept) {
        0
    } else {
        input.len() - input.trim_start().len()
    };
    let end = if bytes.last().is_some_and(kept) {
        input.len()
    } else {
        input.trim_end().len()
    };
    (start, end)
}

/// The path, query and fragment after a host that ends at `host_end`:
/// a path runs from a `/` to the first `?` or `#`, a query from the first
/// `?` before any `#` to that `#`, and a fragment from the first `#` on.
fn rest_spans(text: &[u8], host_end: usize) -> (Option<Span>, Option<Span>, Option<Span>) {
    let path = cut(text, host_end, b'/', |b| b == b'?' || b == b'#');
    let at = path.map_or(host_end, |p| p.end);
    let query = cut(text, at, b'?', |b| b == b'#');
    let at = query.map_or(at, |q| q.end);
    let fragment = cut(text, at, b'#', |_| false);
    (path, query, fragment)
}

/// The span after the `delim` at `at`, up to the first byte `stop`
/// takes; `None` when `text` has no `delim` at `at`.
fn cut(text: &[u8], at: usize, delim: u8, stop: impl Fn(u8) -> bool) -> Option<Span> {
    (text.get(at) == Some(&delim)).then(|| {
        let start = at + 1;
        let end = text
            .get(start..)
            .and_then(|rest| rest.iter().position(|&b| stop(b)))
            .map_or(text.len(), |i| start + i);
        Span { start, end }
    })
}

/// Builds the URL's one buffer from what [`scan`] found: the input, plus
/// the canonical key and the lowercased scheme only when the input does
/// not already hold them.
///
/// Every check runs in [`scan`], before the buffer is allocated, so a
/// string that does not parse costs no allocation.
pub(crate) fn parse(input: &str) -> Result<Url, ParseUrlError> {
    let Scanned {
        scheme,
        host,
        port,
        path,
        query,
        fragment,
        ipv4,
        labels,
    } = scan(input)?;
    let host_text = host.of(input);

    // The input already holds the key `host/path` when the path's `/`
    // directly follows a host written in canonical form.
    let inline_key = match path {
        Some(path) if port.is_none() => {
            let canonical = match ipv4 {
                Some(_) => host_text
                    .split('.')
                    .all(|o| o.len() == 1 || !o.starts_with('0')),
                None => !host_text.bytes().any(|b| b.is_ascii_uppercase()),
            };
            canonical.then_some(Span {
                start: host.start,
                end: path.end,
            })
        }
        _ => None,
    };
    let path_text = path.map_or("", |p| p.of(input));
    let lower_scheme = match scheme {
        SchemeAt::Other(text) if text.of(input).bytes().any(|b| b.is_ascii_uppercase()) => {
            Some(text.of(input))
        }
        _ => None,
    };

    // A canonical host is never longer than the host text: lowercasing
    // keeps the length and dotted decimal only drops leading zeros.
    let key_bytes = match inline_key {
        Some(_) => 0,
        None => host_text.len() + 1 + path_text.len(),
    };
    let mut buf = String::with_capacity(input.len() + key_bytes + lower_scheme.map_or(0, str::len));
    buf.push_str(input);

    let (key, host_len) = if let Some(key) = inline_key {
        (key, host.end - host.start)
    } else {
        let start = buf.len();
        if let Some(octets) = ipv4 {
            push_dotted_decimal(&mut buf, octets);
        } else {
            buf.push_str(host_text);
            buf[start..].make_ascii_lowercase();
        }
        let host_len = buf.len() - start;
        buf.push('/');
        buf.push_str(path_text);
        let end = buf.len();
        (Span { start, end }, host_len)
    };
    let scheme = match lower_scheme {
        Some(text) => {
            let start = buf.len();
            buf.push_str(text);
            buf[start..].make_ascii_lowercase();
            let end = buf.len();
            SchemeAt::Other(Span { start, end })
        }
        None => scheme,
    };
    let name = &buf[key.start..key.start + host_len];
    let host = ipv4.map_or_else(
        || HostAt::Domain(DomainSplit::resolve(name, labels)),
        HostAt::Ipv4,
    );

    Ok(Url {
        buf,
        input_len: input.len(),
        scheme,
        key,
        host_len,
        host,
        port,
        query,
        fragment,
    })
}

/// The length of the scheme `bytes` starts with: an RFC 3986 scheme,
/// `ALPHA *( ALPHA / DIGIT / "+" / "-" / "." )`, directly followed by
/// `://`. A `://` later in the string, such as one in a query parameter,
/// never makes the text before it a scheme.
pub(crate) fn scheme_len(bytes: &[u8]) -> Option<usize> {
    if !bytes.first()?.is_ascii_alphabetic() {
        return None;
    }
    let end = bytes
        .iter()
        .position(|&b| !(b.is_ascii_alphanumeric() || matches!(b, b'+' | b'-' | b'.')))?;
    (bytes.get(end..end + 3) == Some(b"://")).then_some(end)
}

/// The octets of a dotted-decimal IPv4 literal: four parts of one to
/// three digits, each at most 255. Anything else, such as a domain name
/// (refused at its first letter), is `None`.
fn parse_ipv4(s: &str) -> Option<[u8; 4]> {
    let mut octets = [0u8; 4];
    let mut count = 0;
    let mut value: u16 = 0;
    let mut digits = 0;
    for &b in s.as_bytes() {
        if b.is_ascii_digit() {
            digits += 1;
            value = value * 10 + u16::from(b - b'0');
            if digits > 3 {
                return None;
            }
        } else if b == b'.' && digits > 0 && count < 3 {
            octets[count] = u8::try_from(value).ok()?;
            count += 1;
            value = 0;
            digits = 0;
        } else {
            return None;
        }
    }
    if digits == 0 || count != 3 {
        return None;
    }
    octets[3] = u8::try_from(value).ok()?;
    Some(octets)
}

/// Appends `octets` in dotted decimal, without leading zeros.
fn push_dotted_decimal(buf: &mut String, octets: [u8; 4]) {
    for (i, octet) in octets.into_iter().enumerate() {
        if i > 0 {
            buf.push('.');
        }
        if octet >= 100 {
            buf.push(char::from(b'0' + octet / 100));
        }
        if octet >= 10 {
            buf.push(char::from(b'0' + octet / 10 % 10));
        }
        buf.push(char::from(b'0' + octet % 10));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipv4_recognised() {
        assert_eq!(parse_ipv4("192.168.0.1"), Some([192, 168, 0, 1]));
        assert_eq!(parse_ipv4("0.0.0.0"), Some([0, 0, 0, 0]));
        assert_eq!(parse_ipv4("255.255.255.255"), Some([255, 255, 255, 255]));
    }

    #[test]
    fn ipv4_rejected() {
        assert_eq!(parse_ipv4("256.1.1.1"), None);
        assert_eq!(parse_ipv4("1.2.3"), None);
        assert_eq!(parse_ipv4("1.2.3.4.5"), None);
        assert_eq!(parse_ipv4("a.b.c.d"), None);
        assert_eq!(parse_ipv4("1..2.3"), None);
        assert_eq!(parse_ipv4("1234.1.1.1"), None);
    }

    #[test]
    fn dotted_decimal_has_no_leading_zeros() {
        for octets in [[0, 0, 0, 0], [10, 0, 99, 100], [255, 1, 20, 7]] {
            let mut buf = String::new();
            push_dotted_decimal(&mut buf, octets);
            let [a, b, c, d] = octets;
            assert_eq!(buf, format!("{a}.{b}.{c}.{d}"));
        }
    }

    #[test]
    fn userinfo_obfuscation_stripped() {
        // Classic obfuscation: http://www.bank.com@evil.example/ -> host is
        // evil.example, the "bank.com" prefix is a decoy.
        let url = parse("http://www.bank.com@evil.example.net/login").unwrap();
        assert_eq!(url.rdn(), Some("example.net"));
    }

    #[test]
    fn port_without_digits_is_error() {
        assert_eq!(
            parse("http://example.com:80a/").unwrap_err(),
            ParseUrlError::InvalidPort
        );
        // Port overflow is an error.
        assert_eq!(
            parse("http://example.com:99999/").unwrap_err(),
            ParseUrlError::InvalidPort
        );
    }

    #[test]
    fn empty_path_after_host() {
        let url = parse("http://example.com/").unwrap();
        assert_eq!(url.path(), "");
    }

    #[test]
    fn scheme_must_start_the_url() {
        assert_eq!(scheme_len(b"https://x.com/"), Some(5));
        assert_eq!(scheme_len(b"svn+ssh://x.com/"), Some(7));
        assert_eq!(scheme_len(b"a-b.c9://x.com/"), Some(6));
        for s in [
            "x.com/login?r=https://y.com/",
            "/out?to=https://y.com/",
            "9http://x.com/",
            "-x://x.com/",
            "://x.com/",
            "http:/x.com/",
            "http:",
            "",
        ] {
            assert_eq!(scheme_len(s.as_bytes()), None, "{s:?}");
        }
    }

    #[test]
    fn query_and_fragment_order() {
        let url = parse("http://e.com/p?q=1#f?notquery").unwrap();
        assert_eq!(url.query(), Some("q=1"));
        assert_eq!(url.fragment(), Some("f?notquery"));
    }
}
