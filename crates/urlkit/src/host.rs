//! Host validation: DNS names and IPv4 literals.

use std::fmt;

/// A validated URL host.
///
/// The crawler only ever sees ASCII hostnames (the synthetic web generator
/// produces them, and the 2017 study's datasets were ASCII-normalized), so
/// no IDNA machinery is needed; non-ASCII input is rejected.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Host {
    /// A DNS domain name, lower-cased, e.g. `x.doubleclick.net`.
    Domain(String),
    /// An IPv4 literal, e.g. `93.184.216.34`.
    Ipv4(Ipv4Text),
}

/// An IPv4 address carrying its canonical dotted-quad rendering inline,
/// so [`Host::as_text`] (and [`crate::Url::host_str`]) can hand out a
/// `&str` without allocating. The text is a pure function of the octets,
/// which keeps the derived equality and ordering on [`Host`] coherent.
#[derive(Clone, Copy)]
pub struct Ipv4Text {
    octets: [u8; 4],
    text: [u8; 15],
    len: u8,
}

impl Ipv4Text {
    /// Renders `octets` as `a.b.c.d`.
    pub fn new(octets: [u8; 4]) -> Ipv4Text {
        let mut text = [0u8; 15];
        let mut len = 0usize;
        for (i, &o) in octets.iter().enumerate() {
            if i > 0 {
                text[len] = b'.';
                len += 1;
            }
            if o >= 100 {
                text[len] = b'0' + o / 100;
                len += 1;
            }
            if o >= 10 {
                text[len] = b'0' + (o / 10) % 10;
                len += 1;
            }
            text[len] = b'0' + o % 10;
            len += 1;
        }
        Ipv4Text {
            octets,
            text,
            len: len as u8,
        }
    }

    /// The four address octets.
    pub fn octets(&self) -> [u8; 4] {
        self.octets
    }

    /// The dotted-quad rendering.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.text[..self.len as usize]).expect("dotted quad is ascii")
    }
}

impl From<[u8; 4]> for Ipv4Text {
    fn from(octets: [u8; 4]) -> Ipv4Text {
        Ipv4Text::new(octets)
    }
}

impl fmt::Debug for Ipv4Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq for Ipv4Text {
    fn eq(&self, other: &Ipv4Text) -> bool {
        self.octets == other.octets
    }
}

impl Eq for Ipv4Text {}

impl std::hash::Hash for Ipv4Text {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.octets.hash(state);
    }
}

impl PartialOrd for Ipv4Text {
    fn partial_cmp(&self, other: &Ipv4Text) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ipv4Text {
    fn cmp(&self, other: &Ipv4Text) -> std::cmp::Ordering {
        self.octets.cmp(&other.octets)
    }
}

/// Errors produced by [`Host::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostError {
    /// The host string was empty.
    Empty,
    /// A label was empty (leading/trailing/double dot).
    EmptyLabel,
    /// A label exceeded 63 octets or the name exceeded 253 octets.
    TooLong,
    /// A character outside `[A-Za-z0-9._-]` appeared.
    BadChar(char),
    /// A label started or ended with `-`.
    BadHyphen,
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::Empty => write!(f, "empty host"),
            HostError::EmptyLabel => write!(f, "empty label in host"),
            HostError::TooLong => write!(f, "host or label too long"),
            HostError::BadChar(c) => write!(f, "invalid character {c:?} in host"),
            HostError::BadHyphen => write!(f, "label starts or ends with '-'"),
        }
    }
}

impl std::error::Error for HostError {}

impl Host {
    /// Parses and validates a host, lower-casing domain names.
    ///
    /// Accepts IPv4 dotted-quad literals and RFC 1035-ish domain names
    /// (letters, digits, hyphens; hyphens not at label edges; underscores
    /// tolerated because real tracker hostnames use them).
    pub fn parse(input: &str) -> Result<Host, HostError> {
        Ok(match validate(input)? {
            HostKind::Ipv4(octets) => Host::Ipv4(Ipv4Text::new(octets)),
            HostKind::Domain => Host::Domain(input.to_ascii_lowercase()),
        })
    }

    /// The host rendered as it appears in a URL.
    pub fn as_str(&self) -> HostStr<'_> {
        HostStr(self)
    }

    /// The host's text, borrowed: the domain name itself, or the
    /// pre-rendered dotted quad for IPv4 literals. Never allocates.
    pub fn as_text(&self) -> &str {
        match self {
            Host::Domain(d) => d,
            Host::Ipv4(ip) => ip.as_str(),
        }
    }

    /// Returns the domain name if this host is a DNS name.
    pub fn domain(&self) -> Option<&str> {
        match self {
            Host::Domain(d) => Some(d),
            Host::Ipv4(_) => None,
        }
    }

    /// Registrable (second-level) domain per the embedded public-suffix
    /// list; IPv4 hosts have none.
    pub fn second_level_domain(&self) -> Option<&str> {
        self.domain().map(crate::psl::second_level_domain)
    }
}

/// Display adapter returned by [`Host::as_str`].
pub struct HostStr<'a>(&'a Host);

impl fmt::Display for HostStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Host::Domain(d) => f.write_str(d),
            Host::Ipv4(ip) => f.write_str(ip.as_str()),
        }
    }
}

/// What a valid host text is: [`validate`]'s answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HostKind {
    /// A dotted-quad IPv4 literal (always in canonical form).
    Ipv4([u8; 4]),
    /// A DNS name.
    Domain,
}

/// Byte classes for the host fast path.
const LABEL: u8 = 1;
const DOT: u8 = 2;

/// `[A-Za-z0-9_-]` → `LABEL`, `.` → `DOT`, else 0.
static HOST_CLASS: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        table[b] = match c {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' => LABEL,
            b'.' => DOT,
            _ => 0,
        };
        b += 1;
    }
    table
};

/// Validates a host, with exactly [`Host::parse`]'s answers.
///
/// A fast path accepts a valid host in one table-driven scan that checks
/// every rule at once, and tries it as an IPv4 literal only when it ends
/// in a digit, as every dotted quad does. Only a host it refuses runs the
/// precise checks, whose order fixes which [`HostError`] a bad host gets.
pub(crate) fn validate(input: &str) -> Result<HostKind, HostError> {
    if !is_valid_fast(input.as_bytes()) {
        return validate_precisely(input);
    }
    Ok(match input.as_bytes().last() {
        Some(b) if b.is_ascii_digit() => parse_ipv4(input).map_or(HostKind::Domain, HostKind::Ipv4),
        _ => HostKind::Domain,
    })
}

/// One scan: `true` when `host` has 1 to 253 bytes of letters, digits,
/// `-`, `_` and dots, in labels of 1 to 63 bytes that neither start nor
/// end with `-`.
fn is_valid_fast(host: &[u8]) -> bool {
    if host.is_empty() || host.len() > 253 {
        return false;
    }
    let label_ok = |label: &[u8]| match (label.first(), label.last()) {
        (Some(&first), Some(&last)) => label.len() <= 63 && first != b'-' && last != b'-',
        _ => false,
    };
    let mut start = 0;
    for (i, &b) in host.iter().enumerate() {
        match HOST_CLASS[usize::from(b)] {
            LABEL => {}
            DOT if label_ok(&host[start..i]) => start = i + 1,
            _ => return false,
        }
    }
    label_ok(&host[start..])
}

/// The label-by-label checks, in the order that picks a bad host's
/// error: IPv4, name length, then each label's emptiness, length,
/// hyphens and characters.
fn validate_precisely(input: &str) -> Result<HostKind, HostError> {
    if input.is_empty() {
        return Err(HostError::Empty);
    }
    // A dotted quad is at most 15 bytes of digits and dots; any other
    // input skips straight to the name checks.
    if input.len() <= 15 && input.bytes().all(|b| b.is_ascii_digit() || b == b'.') {
        if let Some(ip) = parse_ipv4(input) {
            return Ok(HostKind::Ipv4(ip));
        }
    }
    if input.len() > 253 {
        return Err(HostError::TooLong);
    }
    // One pass over the bytes. Each label's length and hyphen checks
    // come before its first bad character, as in a label-by-label scan.
    let bytes = input.as_bytes();
    let mut start = 0;
    let mut bad: Option<usize> = None;
    for i in 0..=bytes.len() {
        let b = bytes.get(i).copied().unwrap_or(b'.');
        if b != b'.' {
            if bad.is_none() && !(b.is_ascii_alphanumeric() || b == b'-' || b == b'_') {
                bad = Some(i);
            }
            continue;
        }
        let label = &bytes[start..i];
        if label.is_empty() {
            return Err(HostError::EmptyLabel);
        }
        if label.len() > 63 {
            return Err(HostError::TooLong);
        }
        if label[0] == b'-' || label[label.len() - 1] == b'-' {
            return Err(HostError::BadHyphen);
        }
        if let Some(at) = bad {
            // Every byte before `at` is ASCII, so `at` starts a char.
            let c = input[at..].chars().next().expect("char boundary");
            return Err(HostError::BadChar(c));
        }
        start = i + 1;
    }
    Ok(HostKind::Domain)
}

fn parse_ipv4(s: &str) -> Option<[u8; 4]> {
    let mut parts = s.split('.');
    let mut out = [0u8; 4];
    for slot in &mut out {
        let p = parts.next()?;
        if p.is_empty() || p.len() > 3 || !p.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        // Reject leading zeros ("01") which some parsers treat as octal.
        if p.len() > 1 && p.starts_with('0') {
            return None;
        }
        *slot = p.parse().ok()?;
    }
    if parts.next().is_some() {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_domain() {
        assert_eq!(
            Host::parse("Example.COM").unwrap(),
            Host::Domain("example.com".into())
        );
    }

    #[test]
    fn parses_tracker_style_subdomains() {
        let h = Host::parse("d10lpsik1i8c69.cloudfront.net").unwrap();
        assert_eq!(h.domain(), Some("d10lpsik1i8c69.cloudfront.net"));
    }

    #[test]
    fn parses_ipv4() {
        assert_eq!(
            Host::parse("93.184.216.34").unwrap(),
            Host::Ipv4(Ipv4Text::new([93, 184, 216, 34]))
        );
    }

    #[test]
    fn ipv4_with_leading_zero_is_domain_error() {
        // "01.2.3.4" is not valid IPv4 here, and also not a valid domain
        // (labels of digits are fine actually) — it parses as a domain.
        assert!(matches!(Host::parse("01.2.3.4"), Ok(Host::Domain(_))));
    }

    #[test]
    fn rejects_bad_chars() {
        assert_eq!(Host::parse("exa mple.com"), Err(HostError::BadChar(' ')));
        assert_eq!(Host::parse(""), Err(HostError::Empty));
        assert_eq!(Host::parse("a..b"), Err(HostError::EmptyLabel));
        assert_eq!(Host::parse("-a.com"), Err(HostError::BadHyphen));
    }

    #[test]
    fn rejects_overlong() {
        let long_label = "a".repeat(64);
        assert_eq!(Host::parse(&long_label), Err(HostError::TooLong));
        let long_name = format!("{}.com", "a.".repeat(130));
        assert_eq!(Host::parse(&long_name), Err(HostError::TooLong));
    }

    #[test]
    fn display_roundtrips() {
        for s in ["example.com", "1.2.3.4", "x.doubleclick.net"] {
            assert_eq!(Host::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn sld_of_ip_is_none() {
        assert_eq!(Host::parse("8.8.8.8").unwrap().second_level_domain(), None);
    }
}
