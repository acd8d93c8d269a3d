//! Embedded public-suffix list and second-level-domain extraction.
//!
//! §3.2 of the paper aggregates every fully-qualified hostname to its
//! *2nd-level domain* before A&A labeling: `x.doubleclick.net` and
//! `y.doubleclick.net` both count toward `doubleclick.net`. Getting this
//! right requires knowing that e.g. `co.uk` is a *public suffix*, so the
//! second-level domain of `ads.example.co.uk` is `example.co.uk`, not
//! `co.uk`.
//!
//! We embed the slice of the public-suffix list that covers the synthetic
//! web universe plus the common real-world suffixes exercised by tests. The
//! list is tiny by design; [`second_level_domain`] falls back to "last two
//! labels" for unknown suffixes, which matches how the paper's dataset was
//! built (Alexa domains are overwhelmingly under well-known suffixes).
//!
//! The lookup is suffix-first. A one-label suffix, listed or not, yields
//! the last two labels, which is also the fallback, so only the host's
//! last-three-label and last-two-label suffixes are looked up, longest
//! first, in one FNV-1a-hashed set of the multi-label entries. A call
//! costs one backward byte scan that stops at the host's fourth-last dot
//! and at most two set probes, whatever the host's depth; it runs for
//! every request the pipeline labels.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// Public suffixes with exactly one label.
const SINGLE_LABEL_SUFFIXES: &[&str] = &[
    "com", "net", "org", "io", "co", "biz", "info", "tv", "me", "us", "uk", "de", "fr", "jp", "ru",
    "cn", "br", "in", "au", "ca", "it", "es", "nl", "pl", "se", "ch", "edu", "gov", "mil", "xyz",
    "site", "online", "club", "app", "dev", "ws", "cc", "eu", "kr", "mx", "ar", "tr", "ir", "gr",
    "cz", "ro", "hu", "pt", "dk", "no", "fi", "be", "at", "sk", "ua", "il", "za", "nz", "id", "th",
    "vn", "my", "sg", "hk", "tw", "cl", "pe", "ve",
];

/// Public suffixes with two labels (country-code second-level registries and
/// "private" suffixes like shared hosting platforms, which the real PSL also
/// carries).
const DOUBLE_LABEL_SUFFIXES: &[&str] = &[
    "co.uk",
    "org.uk",
    "ac.uk",
    "gov.uk",
    "me.uk",
    "net.uk",
    "com.au",
    "net.au",
    "org.au",
    "edu.au",
    "gov.au",
    "co.jp",
    "ne.jp",
    "or.jp",
    "ac.jp",
    "go.jp",
    "com.br",
    "net.br",
    "org.br",
    "gov.br",
    "co.in",
    "net.in",
    "org.in",
    "gen.in",
    "firm.in",
    "com.cn",
    "net.cn",
    "org.cn",
    "gov.cn",
    "co.kr",
    "or.kr",
    "ne.kr",
    "com.mx",
    "org.mx",
    "net.mx",
    "com.ar",
    "com.tr",
    "com.sg",
    "com.hk",
    "com.tw",
    "com.my",
    "com.vn",
    "co.za",
    "org.za",
    "co.nz",
    "net.nz",
    "org.nz",
    "co.il",
    "org.il",
    "com.pl",
    "net.pl",
    "org.pl",
    "com.ru",
    "net.ru",
    "org.ru",
    // Private-section suffixes: every direct child is a separate "site".
    "github.io",
    "gitlab.io",
    "herokuapp.com",
    "appspot.com",
    "blogspot.com",
    "s3.amazonaws.com",
    "azurewebsites.net",
    "netlify.app",
];

/// FNV-1a: the probes hash a few bytes of host text, where SipHash's
/// set-up costs more than the hashing. The set's keys are the fixed list,
/// so no input can crowd a bucket; a probe key only picks one.
#[derive(Clone, Copy)]
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

type SuffixSet = HashSet<&'static str, BuildHasherDefault<Fnv1a>>;

/// The multi-label entries of [`DOUBLE_LABEL_SUFFIXES`], hashed once.
fn multi_label_suffixes() -> &'static SuffixSet {
    static SET: OnceLock<SuffixSet> = OnceLock::new();
    SET.get_or_init(|| DOUBLE_LABEL_SUFFIXES.iter().copied().collect())
}

/// Every entry of the embedded public-suffix list, one-label entries first.
///
/// ```
/// use sockscope_urlkit::psl::public_suffixes;
/// assert!(public_suffixes().any(|s| s == "co.uk"));
/// ```
pub fn public_suffixes() -> impl Iterator<Item = &'static str> {
    SINGLE_LABEL_SUFFIXES
        .iter()
        .chain(DOUBLE_LABEL_SUFFIXES)
        .copied()
}

/// Returns `true` if `domain` (already lower-case, no trailing dot) is
/// itself a public suffix.
///
/// ```
/// use sockscope_urlkit::is_public_suffix;
/// assert!(is_public_suffix("com"));
/// assert!(is_public_suffix("co.uk"));
/// assert!(!is_public_suffix("doubleclick.net"));
/// ```
pub fn is_public_suffix(domain: &str) -> bool {
    if domain.contains('.') {
        multi_label_suffixes().contains(domain)
    } else {
        SINGLE_LABEL_SUFFIXES.contains(&domain)
    }
}

/// Extracts the second-level (registrable) domain of a hostname.
///
/// This is the `d ∈ D` aggregation key of §3.2: the public suffix plus one
/// label. Hostnames that *are* a public suffix, or unknown single-label
/// hosts, are returned unchanged.
///
/// ```
/// use sockscope_urlkit::second_level_domain;
/// assert_eq!(second_level_domain("x.doubleclick.net"), "doubleclick.net");
/// assert_eq!(second_level_domain("y.doubleclick.net"), "doubleclick.net");
/// assert_eq!(second_level_domain("ads.example.co.uk"), "example.co.uk");
/// assert_eq!(second_level_domain("d10lpsik1i8c69.cloudfront.net"), "cloudfront.net");
/// ```
pub fn second_level_domain(host: &str) -> &str {
    let host = host.strip_suffix('.').unwrap_or(host);
    // `from[k]` starts the host's last `k + 1` labels (the whole host when
    // it has fewer). The registrable domain is one label above the longest
    // listed suffix; the list has no entry longer than three labels, and
    // a one-label suffix gives the same last two labels as no match.
    let mut from = [0usize; 4];
    let mut found = 0;
    for (at, &b) in host.as_bytes().iter().enumerate().rev() {
        if b == b'.' {
            from[found] = at + 1;
            found += 1;
            if found == from.len() {
                break;
            }
        }
    }
    let suffixes = multi_label_suffixes();
    let start = if suffixes.contains(&host[from[2]..]) {
        from[3]
    } else if suffixes.contains(&host[from[1]..]) {
        from[2]
    } else {
        from[1]
    };
    &host[start..]
}

/// The registrable domain shared by *every* host that ends in `suffix` at
/// a label boundary (the host `suffix` itself, or `….suffix`), if there is
/// one.
///
/// This is what a `||suffix^` filter rule may be indexed under. It is
/// `None` when hosts below `suffix` register at different domains: a
/// public suffix (`co.uk`), a single label, a suffix that a longer public
/// suffix extends (`amazonaws.com` under `s3.amazonaws.com`), or a
/// numeric last label, which IPv4 literals (no registrable domain) share.
///
/// ```
/// use sockscope_urlkit::psl::shared_registrable_domain;
/// assert_eq!(shared_registrable_domain("ads.example.co.uk"), Some("example.co.uk"));
/// assert_eq!(shared_registrable_domain("co.uk"), None);
/// assert_eq!(shared_registrable_domain("10.0.0.1"), None);
/// ```
pub fn shared_registrable_domain(suffix: &str) -> Option<&str> {
    let last = suffix.rsplit('.').next().unwrap_or(suffix);
    let numeric = last.bytes().all(|b| b.is_ascii_digit());
    let extended = public_suffixes().any(|ps| {
        ps.strip_suffix(suffix)
            .is_some_and(|head| head.ends_with('.'))
    });
    if numeric || !suffix.contains('.') || is_public_suffix(suffix) || extended {
        None
    } else {
        Some(second_level_domain(suffix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_entries_fit_the_suffix_first_lookup() {
        // `second_level_domain` looks up at most three labels, and
        // `is_public_suffix` picks the table by the presence of a dot.
        assert!(SINGLE_LABEL_SUFFIXES.iter().all(|s| !s.contains('.')));
        assert!(DOUBLE_LABEL_SUFFIXES
            .iter()
            .all(|s| (1..=2).contains(&s.matches('.').count())));
    }

    #[test]
    fn basic_com() {
        assert_eq!(second_level_domain("www.example.com"), "example.com");
        assert_eq!(second_level_domain("example.com"), "example.com");
        assert_eq!(second_level_domain("a.b.c.example.com"), "example.com");
    }

    #[test]
    fn cc_sld() {
        assert_eq!(second_level_domain("shop.example.co.uk"), "example.co.uk");
        assert_eq!(second_level_domain("example.co.uk"), "example.co.uk");
        for (host, sld) in [("co.uk", "co.uk"), ("a.b.c.example.co.uk", "example.co.uk")] {
            assert_eq!(second_level_domain(host), sld, "{host}");
            assert_eq!(second_level_domain(&format!("{host}.")), sld, "{host}.");
        }
    }

    #[test]
    fn bare_suffix_is_identity() {
        assert_eq!(second_level_domain("com"), "com");
        assert_eq!(second_level_domain("co.uk"), "co.uk");
    }

    #[test]
    fn unknown_tld_falls_back_to_two_labels() {
        assert_eq!(
            second_level_domain("a.b.example.unknowntld"),
            "example.unknowntld"
        );
    }

    #[test]
    fn single_unknown_label() {
        assert_eq!(second_level_domain("localhost"), "localhost");
    }

    #[test]
    fn trailing_dot_stripped() {
        assert_eq!(second_level_domain("www.example.com."), "example.com");
    }

    #[test]
    fn private_suffixes() {
        assert_eq!(second_level_domain("user.github.io"), "user.github.io");
        assert_eq!(second_level_domain("deep.user.github.io"), "user.github.io");
        // A three-label suffix, and the two-label name it extends, which
        // is not itself a suffix.
        for (host, sld) in [
            ("s3.amazonaws.com", "s3.amazonaws.com"),
            ("x.s3.amazonaws.com", "x.s3.amazonaws.com"),
            ("a.b.s3.amazonaws.com", "b.s3.amazonaws.com"),
            ("amazonaws.com", "amazonaws.com"),
            ("x.amazonaws.com", "amazonaws.com"),
        ] {
            assert_eq!(second_level_domain(host), sld, "{host}");
            assert_eq!(second_level_domain(&format!("{host}.")), sld, "{host}.");
        }
    }

    #[test]
    fn paper_examples() {
        // The exact example from §3.2 of the paper.
        assert_eq!(second_level_domain("x.doubleclick.net"), "doubleclick.net");
        assert_eq!(second_level_domain("y.doubleclick.net"), "doubleclick.net");
        // Cloudfront hostnames aggregate to cloudfront.net — which is why
        // the paper needed the manual per-subdomain mapping (handled in
        // sockscope-filterlist).
        assert_eq!(
            second_level_domain("dkpklk99llpj0.cloudfront.net"),
            "cloudfront.net"
        );
    }
}
