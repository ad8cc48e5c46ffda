use crate::psl;
use crate::ParseUrlError;
use std::fmt;

/// A fully qualified domain name: a borrowed view of a parsed
/// [`Url`](crate::Url)'s lowercased host, with the public suffix
/// boundary resolved against the embedded suffix rules.
///
/// Every accessor borrows from the URL; an `Fqdn` owns no memory.
///
/// # Examples
///
/// ```
/// use kyp_url::Url;
/// let url = Url::parse("http://www.amazon.co.uk/")?;
/// let fqdn = url.fqdn().unwrap();
/// assert_eq!(fqdn.mld(), Some("amazon"));
/// assert_eq!(fqdn.rdn(), "amazon.co.uk");
/// assert_eq!(fqdn.subdomains(), "www");
/// # Ok::<(), kyp_url::ParseUrlError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fqdn<'a> {
    name: &'a str,
    split: DomainSplit,
}

/// Where the RDN and the public suffix start in a lowercased host, as
/// byte offsets into it, plus its label count. A parsed `Url` stores this
/// and lends out an [`Fqdn`] over its buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct DomainSplit {
    labels: usize,
    /// Start of the RDN; 0 when there are no subdomains.
    rdn_start: usize,
    /// Start of the public suffix; 0 when the whole name is the suffix.
    suffix_start: usize,
}

impl DomainSplit {
    /// Checks a host name as it appears in the input (any case) and
    /// returns its label count.
    ///
    /// Errors come in label order; within a label, an empty label beats
    /// an over-long one, which beats an invalid character (anything
    /// outside `[a-z0-9_-]` after ASCII lowercasing).
    pub(crate) fn validate(host: &str) -> Result<usize, ParseUrlError> {
        if host.is_empty() {
            return Err(ParseUrlError::MissingHost);
        }
        if host.len() > 253 {
            return Err(ParseUrlError::LabelTooLong);
        }
        let mut labels = 0;
        for label in host.split('.') {
            if label.is_empty() {
                return Err(ParseUrlError::EmptyLabel);
            }
            if label.len() > 63 {
                return Err(ParseUrlError::LabelTooLong);
            }
            // A non-ASCII character's first byte is not a host byte, so
            // the first bad byte starts the offending character.
            if let Some(i) = label.bytes().position(|b| !is_host_byte(b)) {
                let c = label[i..].chars().next().unwrap_or_default();
                return Err(ParseUrlError::InvalidHostChar(c));
            }
            labels += 1;
        }
        Ok(labels)
    }

    /// Resolves the public suffix of a lowercased, validated host of
    /// `labels` labels.
    pub(crate) fn resolve(name: &str, labels: usize) -> Self {
        let suffix_labels = psl::suffix_label_count(name);
        // Label starts, last label first: the byte after each dot.
        let mut starts = name.rmatch_indices('.').map(|(i, _)| i + 1);
        let suffix_start = starts
            .nth(suffix_labels.saturating_sub(1))
            .unwrap_or_default();
        let rdn_start = if suffix_start == 0 {
            0
        } else {
            starts.next().unwrap_or_default()
        };
        DomainSplit {
            labels,
            rdn_start,
            suffix_start,
        }
    }
}

/// `[a-z0-9_-]` after ASCII lowercasing.
fn is_host_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'-' || b == b'_'
}

impl<'a> Fqdn<'a> {
    pub(crate) fn new(name: &'a str, split: DomainSplit) -> Self {
        Fqdn { name, split }
    }

    /// The dotted name, e.g. `www.amazon.co.uk`.
    pub fn as_str(&self) -> &'a str {
        self.name
    }

    /// All labels in natural order, e.g. `www`, `amazon`, `co`, `uk`.
    pub fn labels(&self) -> std::str::Split<'a, char> {
        self.name.split('.')
    }

    /// Number of labels ("count of level domains", paper URL feature #3).
    pub fn label_count(&self) -> usize {
        self.split.labels
    }

    /// Length of the dotted FQDN string.
    pub fn len(&self) -> usize {
        self.name.len()
    }

    /// Returns `true` when the name is empty (never for a parsed URL).
    pub fn is_empty(&self) -> bool {
        self.name.is_empty()
    }

    /// The public suffix, e.g. `co.uk`.
    pub fn public_suffix(&self) -> &'a str {
        &self.name[self.split.suffix_start..]
    }

    /// The main level domain: the label right before the public suffix.
    ///
    /// `None` when the whole FQDN is itself a public suffix.
    pub fn mld(&self) -> Option<&'a str> {
        let DomainSplit {
            rdn_start,
            suffix_start,
            ..
        } = self.split;
        (suffix_start > 0).then(|| &self.name[rdn_start..suffix_start - 1])
    }

    /// The registered domain name: `mld.ps`, or the suffix itself when no
    /// mld exists.
    pub fn rdn(&self) -> &'a str {
        &self.name[self.split.rdn_start..]
    }

    /// The subdomain labels joined by `.` — everything the owner controls
    /// freely, i.e. all labels before the RDN. Empty when there are none.
    pub fn subdomains(&self) -> &'a str {
        self.name[..self.split.rdn_start]
            .strip_suffix('.')
            .unwrap_or_default()
    }
}

impl fmt::Display for Fqdn<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fqdn(name: &str) -> Fqdn<'_> {
        let labels = DomainSplit::validate(name).unwrap();
        Fqdn::new(name, DomainSplit::resolve(name, labels))
    }

    #[test]
    fn basic_decomposition() {
        let f = fqdn("www.amazon.co.uk");
        assert_eq!(f.label_count(), 4);
        assert_eq!(f.public_suffix(), "co.uk");
        assert_eq!(f.mld(), Some("amazon"));
        assert_eq!(f.rdn(), "amazon.co.uk");
        assert_eq!(f.subdomains(), "www");
        assert_eq!(f.len(), "www.amazon.co.uk".len());
        assert!(f.labels().eq(["www", "amazon", "co", "uk"]));
    }

    #[test]
    fn no_subdomains() {
        let f = fqdn("example.com");
        assert!(f.subdomains().is_empty());
        assert_eq!(f.rdn(), "example.com");
        assert_eq!(f.mld(), Some("example"));
    }

    #[test]
    fn deep_subdomains() {
        let f = fqdn("a.b.c.example.com");
        assert_eq!(f.subdomains(), "a.b.c");
        assert_eq!(f.rdn(), "example.com");
    }

    #[test]
    fn bare_suffix_has_no_mld() {
        for name in ["com", "co.uk"] {
            let f = fqdn(name);
            assert_eq!(f.mld(), None);
            assert_eq!(f.rdn(), name);
            assert_eq!(f.public_suffix(), name);
            assert!(f.subdomains().is_empty());
        }
    }

    #[test]
    fn rejects_bad_labels() {
        let validate = DomainSplit::validate;
        assert_eq!(validate(""), Err(ParseUrlError::MissingHost));
        assert_eq!(validate("a..b"), Err(ParseUrlError::EmptyLabel));
        assert_eq!(validate(".com"), Err(ParseUrlError::EmptyLabel));
        assert_eq!(validate("com."), Err(ParseUrlError::EmptyLabel));
        assert_eq!(
            validate("exa mple.com"),
            Err(ParseUrlError::InvalidHostChar(' '))
        );
        let long = "a".repeat(64);
        assert_eq!(
            validate(&format!("{long}.com")),
            Err(ParseUrlError::LabelTooLong)
        );
        // Label order decides which error wins.
        assert_eq!(
            validate(&format!("b!.{long}")),
            Err(ParseUrlError::InvalidHostChar('!'))
        );
        assert_eq!(validate("WWW.Example.COM"), Ok(3));
    }

    #[test]
    fn hyphenated_and_digit_labels() {
        let f = fqdn("secure-login2.pay-pal.com");
        assert_eq!(f.mld(), Some("pay-pal"));
        assert_eq!(f.subdomains(), "secure-login2");
    }

    #[test]
    fn display_is_the_name() {
        assert_eq!(fqdn("www.example.co.uk").to_string(), "www.example.co.uk");
    }
}
