//! A minimal cookie jar.
//!
//! Cookies matter to the study twice: they ride `ws(s)://` handshakes like
//! any other request (stateful tracking that the WRB hid from blockers), and
//! "Cookie" is the second-most-common item exfiltrated over A&A sockets
//! (Table 5: 69.9% of sockets vs 22.8% of HTTP/S requests).

use sockscope_urlkit::second_level_domain;
use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt::Write as _;

/// A cookie jar keyed by second-level domain (the granularity the study's
/// analysis works at; host-only cookies are irrelevant to its questions).
///
/// The browser keeps one jar and [`CookieJar::clear`]s it per visit, so the
/// entries are a flat list whose strings outlive a clear: a visit sets a
/// handful of cookies, and overwriting a spare entry in place allocates
/// nothing once the jar has seen a visit as large.
#[derive(Debug, Clone, Default)]
pub struct CookieJar {
    /// `(domain, name, value)` in first-set order; only the first `live`
    /// are in the jar, the rest are spare buffers.
    entries: Vec<(String, String, String)>,
    live: usize,
}

impl CookieJar {
    /// An empty jar.
    pub fn new() -> CookieJar {
        CookieJar::default()
    }

    /// Empties the jar, keeping its buffers for the next visit's cookies.
    pub fn clear(&mut self) {
        self.live = 0;
    }

    /// Sets a cookie for the given host's second-level domain. Setting a
    /// cookie the jar already holds, with the same value, allocates
    /// nothing.
    pub fn set(&mut self, host: &str, name: &str, value: &str) {
        let host = lowercase(host);
        let domain = second_level_domain(&host);
        let live = &mut self.entries[..self.live];
        if let Some((_, _, old)) = live.iter_mut().find(|(d, n, _)| d == domain && n == name) {
            if old != value {
                replace(old, value);
            }
            return;
        }
        match self.entries.get_mut(self.live) {
            Some((d, n, v)) => {
                replace(d, domain);
                replace(n, name);
                replace(v, value);
            }
            None => self
                .entries
                .push((domain.to_string(), name.to_string(), value.to_string())),
        }
        self.live += 1;
    }

    /// Renders the `Cookie:` header value for a request to `host`, or `None`
    /// if no cookies match.
    pub fn header_for(&self, host: &str) -> Option<String> {
        let host = lowercase(host);
        let domain = second_level_domain(&host);
        let mut cookies = self.entries[..self.live]
            .iter()
            .filter(|(d, _, _)| d == domain);
        let (_, name, value) = cookies.next()?;
        let mut header = format!("{name}={value}");
        for (_, name, value) in cookies {
            let _ = write!(header, "; {name}={value}");
        }
        Some(header)
    }

    /// Number of domains with cookies.
    pub fn domain_count(&self) -> usize {
        let domains: HashSet<&str> = self.entries[..self.live]
            .iter()
            .map(|(d, _, _)| d.as_str())
            .collect();
        domains.len()
    }
}

/// Overwrites `buf` with `text`, reusing its buffer.
fn replace(buf: &mut String, text: &str) {
    buf.clear();
    buf.push_str(text);
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

    /// Fills `jar` with the same cookies in the same order, covering an
    /// overwrite, two cookies on one domain and an upper-case host.
    fn fill(jar: &mut CookieJar) {
        jar.set("a.example", "uid", "1");
        jar.set("X.Tracker.Example", "uid", "42");
        jar.set("a.example", "uid", "2");
        jar.set("y.tracker.example", "sid", "abc");
        jar.set("b.example", "uid", "7");
    }

    #[test]
    fn a_cleared_jar_renders_like_a_fresh_one() {
        let mut fresh = CookieJar::new();
        fill(&mut fresh);

        let mut reused = CookieJar::new();
        // A previous visit with more, longer and different cookies.
        for i in 0..8 {
            reused.set(&format!("h{i}.tracker.example"), "uid", &"9".repeat(64));
            reused.set(&format!("site{i}.example"), &format!("n{i}"), "stale");
        }
        reused.clear();
        assert_eq!(reused.domain_count(), 0);
        for host in ["a.example", "tracker.example", "site0.example"] {
            assert_eq!(reused.header_for(host), None, "{host}");
        }
        fill(&mut reused);

        for host in [
            "a.example",
            "WWW.A.EXAMPLE",
            "z.tracker.example",
            "b.example",
            "site0.example",
            "h0.tracker.example",
        ] {
            assert_eq!(reused.header_for(host), fresh.header_for(host), "{host}");
        }
        assert_eq!(fresh.header_for("a.example").unwrap(), "uid=2");
        assert_eq!(
            fresh.header_for("Z.TRACKER.example").unwrap(),
            "uid=42; sid=abc"
        );
        assert_eq!(reused.domain_count(), fresh.domain_count());
        assert_eq!(fresh.domain_count(), 3);
    }
}
