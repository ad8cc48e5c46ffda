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
fn scan(input: &str) -> Result<Scanned, ParseUrlError> {
    let trimmed = input.trim();
    if trimmed.is_empty() {
        return Err(ParseUrlError::MissingHost);
    }
    let lead = input.len() - input.trim_start().len();
    let mut rest = Span {
        start: lead,
        end: lead + trimmed.len(),
    };

    // Scheme.
    let scheme = match find_scheme_end(trimmed) {
        Some(i) => {
            let text = Span {
                start: lead,
                end: lead + i,
            };
            rest.start = text.end + 3;
            let s = text.of(input);
            if s.eq_ignore_ascii_case("http") {
                SchemeAt::Http
            } else if s.eq_ignore_ascii_case("https") {
                SchemeAt::Https
            } else {
                SchemeAt::Other(text)
            }
        }
        None => SchemeAt::Http,
    };

    let fragment = rest.split_off(input, '#');
    let query = rest.split_off(input, '?');
    // Host[:port] / path.
    let path = rest.split_off(input, '/');
    let mut host = rest;
    if host.is_empty() {
        return Err(ParseUrlError::MissingHost);
    }

    // Strip userinfo if present (rare, used in URL obfuscation: the part
    // before '@' is a decoy, the real host follows).
    if let Some(i) = host.of(input).rfind('@') {
        host.start += i + 1;
    }

    let mut port = None;
    if let Some(i) = host.of(input).rfind(':') {
        let digits = &input[host.start + i + 1..host.end];
        if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
            port = Some(digits.parse().map_err(|_| ParseUrlError::InvalidPort)?);
            host.end = host.start + i;
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

impl Span {
    /// Cuts `self` at the first `delim` in `text`: keeps the part before
    /// it and returns the part after it, if `delim` occurs.
    fn split_off(&mut self, text: &str, delim: char) -> Option<Span> {
        let i = self.of(text).find(delim)?;
        let after = Span {
            start: self.start + i + delim.len_utf8(),
            end: self.end,
        };
        self.end = self.start + i;
        Some(after)
    }
}

/// The length of the scheme `s` starts with: an RFC 3986 scheme,
/// `ALPHA *( ALPHA / DIGIT / "+" / "-" / "." )`, directly followed by
/// `://`. A `://` later in the string, such as one in a query parameter,
/// never makes the text before it a scheme.
pub(crate) fn find_scheme_end(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    if !bytes.first()?.is_ascii_alphabetic() {
        return None;
    }
    let end = bytes
        .iter()
        .position(|&b| !(b.is_ascii_alphanumeric() || matches!(b, b'+' | b'-' | b'.')))?;
    (bytes.get(end..end + 3) == Some(b"://")).then_some(end)
}

fn parse_ipv4(s: &str) -> Option<[u8; 4]> {
    let mut octets = [0u8; 4];
    let mut count = 0;
    for part in s.split('.') {
        if count == 4 || part.is_empty() || part.len() > 3 {
            return None;
        }
        if !part.chars().all(|c| c.is_ascii_digit()) {
            return None;
        }
        octets[count] = part.parse().ok()?;
        count += 1;
    }
    (count == 4).then_some(octets)
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
        assert_eq!(find_scheme_end("https://x.com/"), Some(5));
        assert_eq!(find_scheme_end("svn+ssh://x.com/"), Some(7));
        assert_eq!(find_scheme_end("a-b.c9://x.com/"), Some(6));
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
            assert_eq!(find_scheme_end(s), None, "{s:?}");
        }
    }

    #[test]
    fn query_and_fragment_order() {
        let url = parse("http://e.com/p?q=1#f?notquery").unwrap();
        assert_eq!(url.query(), Some("q=1"));
        assert_eq!(url.fragment(), Some("f?notquery"));
    }
}
