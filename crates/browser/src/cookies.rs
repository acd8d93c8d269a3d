//! A minimal cookie jar.
//!
//! Cookies matter to the study twice: they ride `ws(s)://` handshakes like
//! any other request (stateful tracking that the WRB hid from blockers), and
//! "Cookie" is the second-most-common item exfiltrated over A&A sockets
//! (Table 5: 69.9% of sockets vs 22.8% of HTTP/S requests).

use sockscope_urlkit::second_level_domain;
use std::borrow::Cow;
use std::collections::HashMap;

/// A cookie jar keyed by second-level domain (the granularity the study's
/// analysis works at; host-only cookies are irrelevant to its questions).
#[derive(Debug, Clone, Default)]
pub struct CookieJar {
    by_domain: HashMap<String, Vec<(String, String)>>,
}

impl CookieJar {
    /// An empty jar.
    pub fn new() -> CookieJar {
        CookieJar::default()
    }

    /// Sets a cookie for the given host's second-level domain. Setting a
    /// cookie the jar already holds, with the same value, allocates
    /// nothing.
    pub fn set(&mut self, host: &str, name: &str, value: &str) {
        let host = lowercase(host);
        let domain = second_level_domain(&host);
        let list = match self.by_domain.get_mut(domain) {
            Some(list) => list,
            None => self.by_domain.entry(domain.to_string()).or_default(),
        };
        match list.iter_mut().find(|(n, _)| n == name) {
            Some((_, old)) if old != value => {
                old.clear();
                old.push_str(value);
            }
            Some(_) => {}
            None => list.push((name.to_string(), value.to_string())),
        }
    }

    /// Renders the `Cookie:` header value for a request to `host`, or `None`
    /// if no cookies match.
    pub fn header_for(&self, host: &str) -> Option<String> {
        let host = lowercase(host);
        let domain = second_level_domain(&host);
        let list = self.by_domain.get(domain)?;
        if list.is_empty() {
            return None;
        }
        Some(
            list.iter()
                .map(|(n, v)| format!("{n}={v}"))
                .collect::<Vec<_>>()
                .join("; "),
        )
    }

    /// Number of domains with cookies.
    pub fn domain_count(&self) -> usize {
        self.by_domain.len()
    }
}

/// `host` in lower case; hosts parsed by `Url` already are, and are
/// borrowed as they are.
fn lowercase(host: &str) -> Cow<'_, str> {
    if host.bytes().any(|b| b.is_ascii_uppercase()) {
        host.to_ascii_lowercase().into()
    } else {
        host.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get() {
        let mut jar = CookieJar::new();
        jar.set("x.tracker.example", "uid", "42");
        jar.set("y.tracker.example", "sid", "abc");
        assert_eq!(
            jar.header_for("z.tracker.example").unwrap(),
            "uid=42; sid=abc"
        );
        assert!(jar.header_for("other.example").is_none());
    }

    #[test]
    fn overwrite_same_name() {
        let mut jar = CookieJar::new();
        jar.set("a.example", "uid", "1");
        jar.set("a.example", "uid", "2");
        assert_eq!(jar.header_for("a.example").unwrap(), "uid=2");
        assert_eq!(jar.domain_count(), 1);
    }

    #[test]
    fn host_case_is_folded() {
        let mut jar = CookieJar::new();
        jar.set("X.Tracker.Example", "uid", "1");
        jar.set("y.tracker.example", "uid", "1");
        assert_eq!(jar.header_for("Z.TRACKER.example").unwrap(), "uid=1");
        assert_eq!(jar.domain_count(), 1);
    }
}
