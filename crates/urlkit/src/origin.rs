//! Origins and the cross-origin / third-party predicates.

use crate::{Host, Scheme, Url};
use std::fmt;

/// A web origin: `(scheme, host, port)`.
///
/// §4.1 of the paper reports that >90% of observed WebSockets were
/// *cross-origin* (the socket contacted a third-party domain). We follow the
/// paper in using two notions:
///
/// * [`Origin::same_origin`] — the strict RFC 6454 triple comparison;
/// * [`Origin::same_site`] — second-level-domain equality, which is what
///   the "third-party" language in measurement studies actually means
///   (`www.example.com` and `cdn.example.com` are same-site).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Origin {
    scheme: Scheme,
    host: Host,
    port: u16,
}

impl Origin {
    /// Builds an origin from parts.
    pub fn new(scheme: Scheme, host: Host, port: u16) -> Origin {
        Origin { scheme, host, port }
    }

    /// Origin of a URL.
    pub fn of(url: &Url) -> Origin {
        url.origin()
    }

    /// The origin's scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The origin's host.
    pub fn host(&self) -> &Host {
        &self.host
    }

    /// The origin's port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Strict same-origin comparison (scheme, host, port all equal), except
    /// that a WS scheme is considered same-origin with its HTTP sibling
    /// (`ws`≡`http`, `wss`≡`https`) — this is how browsers treat WebSocket
    /// endpoints for the purpose of "did this page talk to itself".
    pub fn same_origin(&self, other: &Origin) -> bool {
        normalize(self.scheme) == normalize(other.scheme)
            && self.host == other.host
            && self.port == other.port
    }

    /// Same-site comparison at the second-level-domain granularity.
    ///
    /// IPv4 hosts are same-site only when identical.
    pub fn same_site(&self, other: &Origin) -> bool {
        match (
            self.host.second_level_domain(),
            other.host.second_level_domain(),
        ) {
            (Some(a), Some(b)) => a == b,
            _ => self.host == other.host,
        }
    }
}

fn normalize(s: Scheme) -> Scheme {
    match s {
        Scheme::Ws => Scheme::Http,
        Scheme::Wss => Scheme::Https,
        other => other,
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}", self.scheme, self.host)?;
        if self.port != self.scheme.default_port() {
            write!(f, ":{}", self.port)?;
        }
        Ok(())
    }
}

/// `true` when `resource` is third-party relative to the page at
/// `first_party` — i.e. their second-level domains differ.
///
/// Same semantics as [`Origin::same_site`], compared on the URLs directly
/// so no host is cloned: this runs on every filter-list decision that
/// consults `$third-party`.
///
/// ```
/// use sockscope_urlkit::{Url, origin::is_third_party};
/// let page = Url::parse("http://news.example.com/story").unwrap();
/// let same = Url::parse("http://cdn.example.com/app.js").unwrap();
/// let cross = Url::parse("wss://ws.33across.example/fp").unwrap();
/// assert!(!is_third_party(&page, &same));
/// assert!(is_third_party(&page, &cross));
/// ```
pub fn is_third_party(first_party: &Url, resource: &Url) -> bool {
    match (
        first_party.second_level_domain(),
        resource.second_level_domain(),
    ) {
        (Some(a), Some(b)) => a != b,
        _ => first_party.host_str() != resource.host_str(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(s: &str) -> Origin {
        Url::parse(s).unwrap().origin()
    }

    #[test]
    fn same_origin_strict() {
        assert!(o("http://a.example.com/x").same_origin(&o("http://a.example.com/y")));
        assert!(!o("http://a.example.com/").same_origin(&o("https://a.example.com/")));
        assert!(!o("http://a.example.com/").same_origin(&o("http://b.example.com/")));
        assert!(!o("http://a.example.com/").same_origin(&o("http://a.example.com:8080/")));
    }

    #[test]
    fn ws_schemes_fold_into_http() {
        assert!(o("ws://a.example.com/s").same_origin(&o("http://a.example.com/")));
        assert!(o("wss://a.example.com/s").same_origin(&o("https://a.example.com/")));
        assert!(!o("ws://a.example.com/s").same_origin(&o("https://a.example.com/")));
    }

    #[test]
    fn same_site_folds_subdomains() {
        assert!(o("http://www.pub.example/").same_site(&o("https://static.pub.example/")));
        assert!(!o("http://pub.example/").same_site(&o("http://adnet.example/")));
    }

    #[test]
    fn ip_hosts_compare_exactly() {
        assert!(o("http://10.0.0.1/").same_site(&o("http://10.0.0.1/")));
        assert!(!o("http://10.0.0.1/").same_site(&o("http://10.0.0.2/")));
    }

    #[test]
    fn third_party_predicate() {
        let page = Url::parse("http://site.example.com/").unwrap();
        let ws = Url::parse("ws://tracker.example.net/collect").unwrap();
        assert!(is_third_party(&page, &ws));
    }

    #[test]
    fn display_omits_default_port() {
        assert_eq!(o("https://a.example/x").to_string(), "https://a.example");
        assert_eq!(
            o("https://a.example:444/x").to_string(),
            "https://a.example:444"
        );
    }
}
