//! The URL parser `kyp_url` shipped before its one-buffer layout: one
//! `String` per part and per label. The equivalence properties compare
//! every accessor of [`kyp_url::Url`] against it. Public-suffix matching
//! is the PSL algorithm as written down: every rule checked in turn.

use kyp_url::{psl, ParseUrlError};

/// A parsed URL, every part owned.
#[derive(Debug, Clone, PartialEq)]
pub struct RefUrl {
    pub raw: String,
    /// Lowercased; `http` unless the input starts with an RFC 3986
    /// scheme and `://`.
    pub scheme: String,
    pub host: RefHost,
    pub port: Option<u16>,
    pub path: String,
    pub query: Option<String>,
    pub fragment: Option<String>,
}

/// A domain name or an IPv4 literal.
#[derive(Debug, Clone, PartialEq)]
pub enum RefHost {
    Domain(RefFqdn),
    Ipv4([u8; 4]),
}

/// Lowercased labels plus the number of them that form the public
/// suffix.
#[derive(Debug, Clone, PartialEq)]
pub struct RefFqdn {
    pub labels: Vec<String>,
    pub suffix_labels: usize,
}

impl RefFqdn {
    fn parse(host: &str) -> Result<Self, ParseUrlError> {
        if host.is_empty() {
            return Err(ParseUrlError::MissingHost);
        }
        if host.len() > 253 {
            return Err(ParseUrlError::LabelTooLong);
        }
        let mut labels = Vec::new();
        for raw in host.split('.') {
            if raw.is_empty() {
                return Err(ParseUrlError::EmptyLabel);
            }
            if raw.len() > 63 {
                return Err(ParseUrlError::LabelTooLong);
            }
            let label = raw.to_ascii_lowercase();
            if let Some(c) = label
                .chars()
                .find(|c| !(c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '-' || *c == '_'))
            {
                return Err(ParseUrlError::InvalidHostChar(c));
            }
            labels.push(label);
        }
        let suffix_labels = suffix_label_count_by_scan(&labels);
        Ok(RefFqdn {
            labels,
            suffix_labels,
        })
    }

    pub fn name(&self) -> String {
        self.labels.join(".")
    }

    pub fn public_suffix(&self) -> String {
        self.labels[self.labels.len() - self.suffix_labels..].join(".")
    }

    pub fn mld(&self) -> Option<&str> {
        let n = self.labels.len();
        (self.suffix_labels < n).then(|| self.labels[n - self.suffix_labels - 1].as_str())
    }

    pub fn rdn(&self) -> String {
        let n = self.labels.len();
        self.labels[n.saturating_sub(self.suffix_labels + 1)..].join(".")
    }

    pub fn subdomains(&self) -> &[String] {
        let n = self.labels.len();
        &self.labels[..n - (self.suffix_labels + 1).min(n)]
    }
}

impl RefUrl {
    pub fn fqdn(&self) -> Option<&RefFqdn> {
        match &self.host {
            RefHost::Domain(f) => Some(f),
            RefHost::Ipv4(_) => None,
        }
    }

    /// The FQDN, or the IPv4 literal in dotted decimal.
    pub fn host_string(&self) -> String {
        match &self.host {
            RefHost::Domain(f) => f.name(),
            RefHost::Ipv4([a, b, c, d]) => format!("{a}.{b}.{c}.{d}"),
        }
    }

    pub fn canonical_key(&self) -> String {
        format!("{}/{}", self.host_string(), self.path)
    }

    /// (subdomains, path, query) as `FreeUrl` holds them.
    pub fn free_url(&self) -> (String, String, String) {
        let subdomains = self
            .fqdn()
            .map(|f| f.subdomains().join("."))
            .unwrap_or_default();
        (
            subdomains,
            self.path.clone(),
            self.query.clone().unwrap_or_default(),
        )
    }

    pub fn free_dot_count(&self) -> usize {
        let subdomain_labels = self.fqdn().map_or(0, |f| f.subdomains().len());
        subdomain_labels.saturating_sub(1)
            + self.path.matches('.').count()
            + self.query.as_deref().map_or(0, |q| q.matches('.').count())
    }

    pub fn same_rdn(&self, other: &RefUrl) -> bool {
        match (&self.host, &other.host) {
            (RefHost::Domain(a), RefHost::Domain(b)) => a.rdn() == b.rdn(),
            (RefHost::Ipv4(a), RefHost::Ipv4(b)) => a == b,
            _ => false,
        }
    }
}

pub fn parse(input: &str) -> Result<RefUrl, ParseUrlError> {
    let raw = input.to_owned();
    let trimmed = input.trim();
    if trimmed.is_empty() {
        return Err(ParseUrlError::MissingHost);
    }

    let (scheme, rest) = match trimmed.split_once("://") {
        Some((s, rest)) if is_scheme(s) => (s.to_ascii_lowercase(), rest),
        _ => ("http".to_owned(), trimmed),
    };

    let (rest, fragment) = match rest.split_once('#') {
        Some((r, f)) => (r, Some(f.to_owned())),
        None => (rest, None),
    };

    let (rest, query) = match rest.split_once('?') {
        Some((r, q)) => (r, Some(q.to_owned())),
        None => (rest, None),
    };

    let (authority, path) = match rest.split_once('/') {
        Some((a, p)) => (a, p.to_owned()),
        None => (rest, String::new()),
    };
    if authority.is_empty() {
        return Err(ParseUrlError::MissingHost);
    }

    let authority = match authority.rsplit_once('@') {
        Some((_, host)) => host,
        None => authority,
    };

    let (host_str, port) = match authority.rsplit_once(':') {
        Some((h, p)) if p.chars().all(|c| c.is_ascii_digit()) && !p.is_empty() => {
            let port: u16 = p.parse().map_err(|_| ParseUrlError::InvalidPort)?;
            (h, Some(port))
        }
        Some((_, p)) if p.chars().any(|c| c.is_ascii_digit()) => {
            return Err(ParseUrlError::InvalidPort)
        }
        _ => (authority, None),
    };
    if host_str.is_empty() {
        return Err(ParseUrlError::MissingHost);
    }

    let host = match parse_ipv4(host_str) {
        Some(octets) => RefHost::Ipv4(octets),
        None => RefHost::Domain(RefFqdn::parse(host_str)?),
    };

    Ok(RefUrl {
        raw,
        scheme,
        host,
        port,
        path,
        query,
        fragment,
    })
}

/// RFC 3986: `scheme = ALPHA *( ALPHA / DIGIT / "+" / "-" / "." )`.
fn is_scheme(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphabetic())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '+' | '-' | '.'))
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

/// How many trailing labels form the public suffix, by checking every
/// exception, exact and wildcard rule in turn.
pub fn suffix_label_count_by_scan(labels: &[String]) -> usize {
    if labels.is_empty() {
        return 0;
    }
    let matches = |rule: &[&str]| {
        rule.len() <= labels.len()
            && labels[labels.len() - rule.len()..]
                .iter()
                .zip(rule)
                .all(|(a, b)| a == b)
    };
    for rule in psl::EXCEPTIONS {
        let rule: Vec<&str> = rule.split('.').collect();
        if matches(&rule) {
            return rule.len() - 1;
        }
    }
    let mut best = 1;
    for rule in psl::EXACT {
        let rule: Vec<&str> = rule.split('.').collect();
        if matches(&rule) {
            best = best.max(rule.len());
        }
    }
    for rule in psl::WILDCARD {
        let rule: Vec<&str> = rule.split('.').collect();
        if labels.len() > rule.len() && matches(&rule) {
            best = best.max(rule.len() + 1);
        }
    }
    best.min(labels.len())
}
