//! Seeded fuzz harness for `sockscope-urlkit`'s [`Url::parse`].
//!
//! Every request the browser emits, every inclusion-tree node and every
//! crawler link goes through this parser, and a hostile page controls the
//! text. Four targets:
//!
//! * arbitrary text — byte soup drawn from URL syntax, digits, non-ASCII
//!   letters, Unicode whitespace and control characters — never panics,
//!   through the parse or any accessor, `join` included;
//! * a parsed URL renders to text that parses back to the same URL:
//!   `Url::parse(&u.to_string()) == Ok(u)`, checked on structured URLs
//!   (userinfo, ports, paths, queries, fragments, surrounding
//!   whitespace) and on every soup input that parses;
//! * scheme and host case is invisible: a URL with a mixed-case scheme and
//!   host parses equal to its lower-case form, and when one fails both
//!   fail with the same [`ParseError`];
//! * the one-pass `Url::parse` and `Host::parse` and the suffix-first
//!   `second_level_domain` give exactly the answers, errors included, of
//!   the label-by-label forms they replaced, kept below in [`oracle`],
//!   and a parsed URL's text is exactly the oracle's rendering of its
//!   parts: on every public-suffix entry with zero to five labels
//!   prepended, on hosts at the edges of the one-scan host check
//!   (digit-final last labels, 63- and 64-byte labels, 253- and 254-byte
//!   names, hyphens and dots at label edges, `_` inside labels), and on
//!   URLs built from the shapes where the two could part (userinfo, odd
//!   ports, near-IPv4 hosts, Unicode whitespace, non-ASCII and
//!   upper-case hosts, empty labels, hosts of one to six labels, label
//!   and name length limits, leading and trailing dots).
//!
//! Mirrors `tests/fuzz_wsproto.rs`: every case derives from the vendored
//! proptest [`TestRng`] so a failing case number reproduces exactly, and
//! the per-target case count honors `FUZZ_CASES` (default 2500; CI's
//! chaos job raises it).

use proptest::test_runner::TestRng;
use sockscope_urlkit::psl::public_suffixes;
use sockscope_urlkit::{second_level_domain, Host, ParseError, Url};

/// Per-target case count: `FUZZ_CASES` env or 2500.
fn fuzz_cases() -> u64 {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2500)
}

fn pick<'a>(rng: &mut TestRng, pool: &[&'a str]) -> &'a str {
    pool[rng.usize_in(0, pool.len())]
}

/// Fragments of URL syntax, valid and not, for the byte soup.
const SOUP: &[&str] = &[
    "http",
    "HTTPS",
    "ws",
    "wSs",
    "ftp",
    "data",
    ":",
    "//",
    "/",
    "://",
    "@",
    "?",
    "#",
    "=",
    "&",
    ".",
    "..",
    "-",
    "_",
    "%",
    "%2F",
    "[",
    "]",
    ":80",
    ":443",
    ":0",
    ":65536",
    ":99999",
    "a",
    "Z",
    "x.example",
    "ADS.Example",
    "co.uk",
    "127.0.0.1",
    "01.2.3.4",
    "1.2.3",
    "256.1.1.1",
    "é",
    "ß",
    "日本",
    "\u{2003}",
    "\u{a0}",
    "\u{85}",
    "\u{3000}",
    " ",
    "\t",
    "\n",
    "\0",
    "\u{7f}",
    "😀",
];

/// Characters for path and query text: ASCII, URL punctuation, non-ASCII
/// letters and Unicode whitespace (ASCII whitespace and controls are
/// always rejected, so they belong to the soup, not here).
const PATH_CHARS: &[&str] = &[
    "a", "B", "0", "9", "-", ".", "_", "~", "%", "/", ":", "@", "=", "&", ";", ",", "+", "é", "日",
    "\u{2003}", "\u{a0}", "\u{3000}",
];

fn soup(rng: &mut TestRng) -> String {
    let n = rng.usize_in(0, 16);
    (0..n).map(|_| pick(rng, SOUP)).collect()
}

/// Random text of `0..max` pieces from [`PATH_CHARS`].
fn path_text(rng: &mut TestRng, max: usize) -> String {
    let n = rng.usize_in(0, max);
    (0..n).map(|_| pick(rng, PATH_CHARS)).collect()
}

/// Upper-cases each ASCII letter with probability one half.
fn mixed_case(rng: &mut TestRng, s: &str) -> String {
    s.chars()
        .map(|c| {
            if rng.below(2) == 0 {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

/// A lower-case scheme, mostly supported ones.
fn scheme(rng: &mut TestRng) -> &'static str {
    pick(
        rng,
        &["http", "https", "ws", "wss", "http", "wss", "ftp", ""],
    )
}

/// A lower-case host: DNS names (some invalid), IPv4 literals, or junk.
fn host(rng: &mut TestRng) -> String {
    match rng.below(4) {
        0 => pick(
            rng,
            &[
                "x.example",
                "cdn.ads.example",
                "d10lpsik1i8c69.cloudfront.net",
                "a_b.co.uk",
                "localhost",
                "-bad.example",
                "a..b",
                "",
            ],
        )
        .to_string(),
        1 => (0..4)
            .map(|_| rng.below(300).to_string())
            .collect::<Vec<_>>()
            .join("."),
        2 => {
            let labels = rng.usize_in(1, 4);
            (0..labels)
                .map(|_| {
                    let len = rng.usize_in(1, 70);
                    (0..len)
                        .map(|_| pick(rng, &["a", "z", "0", "-", "_", "q"]))
                        .collect::<String>()
                })
                .collect::<Vec<_>>()
                .join(".")
        }
        _ => pick(rng, &["é.example", "x y.example", "x.example.", "[::1]"]).to_string(),
    }
}

/// Everything after the host: optional port, path, query and fragment.
fn rest(rng: &mut TestRng) -> String {
    let mut s = String::new();
    match rng.below(5) {
        0 => s.push_str(pick(
            rng,
            &[":80", ":443", ":8443", ":0", ":", ":x", ":70000"],
        )),
        1 => s.push_str(&format!(":{}", rng.below(65536))),
        _ => {}
    }
    if rng.below(4) != 0 {
        s.push('/');
        s.push_str(&path_text(rng, 12));
    }
    if rng.below(2) == 0 {
        s.push('?');
        s.push_str(&path_text(rng, 12));
    }
    if rng.below(3) == 0 {
        s.push('#');
        s.push_str(&path_text(rng, 6));
    }
    s
}

/// Userinfo before the host, if any (the parser discards it).
fn userinfo(rng: &mut TestRng) -> &'static str {
    pick(rng, &["", "", "", "user@", "u:p@", "a@b@"])
}

/// A structured URL: mostly valid, with every optional part exercised.
fn structured(rng: &mut TestRng) -> String {
    let pad = pick(rng, &["", "", "", " ", "\u{2003}"]);
    let scheme = scheme(rng);
    let scheme = mixed_case(rng, scheme);
    let user = userinfo(rng);
    let host = host(rng);
    let host = mixed_case(rng, &host);
    let rest = rest(rng);
    format!("{pad}{scheme}://{user}{host}{rest}{pad}")
}

/// Drives every accessor of a parsed URL; none may panic.
fn exercise(u: &Url, rng: &mut TestRng) {
    let _ = (u.scheme(), u.port(), u.path(), u.query(), u.is_websocket());
    let _ = (u.host_str(), u.second_level_domain(), u.origin());
    let _ = u.join(&soup(rng));
}

/// Asserts the render → parse roundtrip for one parsed URL.
fn assert_roundtrip(u: &Url, input: &str, case: u64) {
    let text = u.to_string();
    assert_eq!(
        Url::parse(&text).as_ref(),
        Ok(u),
        "case {case}: {input:?} rendered as {text:?} does not parse back"
    );
}

#[test]
fn fuzz_arbitrary_text_never_panics() {
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::for_case("url_soup", case);
        let input = if rng.below(2) == 0 {
            soup(&mut rng)
        } else {
            // A well-formed prefix with soup spliced in somewhere.
            let mut s = structured(&mut rng);
            let at = s
                .char_indices()
                .map(|(i, _)| i)
                .nth(rng.usize_in(0, s.chars().count() + 1))
                .unwrap_or(s.len());
            s.insert_str(at, &soup(&mut rng));
            s
        };
        if let Ok(u) = Url::parse(&input) {
            exercise(&u, &mut rng);
            assert_roundtrip(&u, &input, case);
        }
    }
}

#[test]
fn fuzz_parsed_urls_roundtrip_through_display() {
    let mut parsed = 0u64;
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::for_case("url_roundtrip", case);
        let input = structured(&mut rng);
        if let Ok(u) = Url::parse(&input) {
            parsed += 1;
            exercise(&u, &mut rng);
            assert_roundtrip(&u, &input, case);
        }
    }
    // The generator must mostly produce URLs that parse, or the property
    // checks nothing.
    assert!(parsed * 4 >= fuzz_cases(), "only {parsed} inputs parsed");
}

#[test]
fn fuzz_scheme_and_host_case_is_invisible() {
    let mut failed = 0u64;
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::for_case("url_case", case);
        let (scheme, user, host, rest) = (
            scheme(&mut rng),
            userinfo(&mut rng),
            host(&mut rng),
            rest(&mut rng),
        );
        let lower = format!("{scheme}://{user}{host}{rest}");
        let mixed = format!(
            "{}://{user}{}{rest}",
            mixed_case(&mut rng, scheme),
            mixed_case(&mut rng, &host)
        );
        let (want, got): (Result<Url, ParseError>, _) = (Url::parse(&lower), Url::parse(&mixed));
        failed += u64::from(want.is_err());
        assert_eq!(got, want, "case {case}: {mixed:?} vs {lower:?}");
    }
    // Both outcomes must be exercised: errors must match too.
    assert!(failed > 0 && failed < fuzz_cases(), "{failed} failures");
}

/// Labels for the differential target: ordinary, upper-case, non-ASCII,
/// empty, hyphen-edged, underscored, numeric, and one byte either side of
/// the 63-byte label limit.
const LABELS: &[&str] = &[
    "a",
    "www",
    "Ads",
    "EXAMPLE",
    "co",
    "uk",
    "s3",
    "amazonaws",
    "é",
    "xn--bcher-kva",
    "日本",
    "",
    "-a",
    "a-",
    "a-b",
    "a_b",
    "0",
    "01",
    "256",
    "a b",
    "a%2e",
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
];

/// `labels` random [`LABELS`] joined with dots, each `.` before `tail`.
fn labels_before(rng: &mut TestRng, labels: usize, tail: &str) -> String {
    let mut host = String::new();
    for _ in 0..labels {
        host.push_str(pick(rng, LABELS));
        host.push('.');
    }
    host.push_str(tail);
    host
}

/// A name of exactly `len` bytes: 63-byte labels, then a shorter last one.
fn name_of_len(len: usize) -> String {
    let mut name = String::new();
    while len - name.len() > 64 {
        name.push_str(&"b".repeat(63));
        name.push('.');
    }
    name.push_str(&"c".repeat(len - name.len()));
    name
}

/// A host for the differential target.
fn diff_host(rng: &mut TestRng) -> String {
    let host = match rng.below(6) {
        // Near-IPv4: leading zeros, 3 or 5 parts, out-of-range octets.
        0 => {
            let parts = rng.usize_in(3, 6);
            (0..parts)
                .map(|_| {
                    pick(
                        rng,
                        &["0", "1", "01", "00", "9", "255", "256", "999", "1234", ""],
                    )
                })
                .collect::<Vec<_>>()
                .join(".")
        }
        1 => {
            let labels = rng.usize_in(0, 6);
            let last = pick(rng, LABELS);
            labels_before(rng, labels, last)
        }
        // Around the 253-byte name limit, and one 64-byte label.
        2 => match rng.below(5) {
            4 => "d".repeat(64),
            k => name_of_len(252 + k as usize),
        },
        3 => {
            let suffixes: Vec<&str> = public_suffixes().collect();
            let labels = rng.usize_in(0, 6);
            let suffix = pick(rng, &suffixes);
            labels_before(rng, labels, suffix)
        }
        4 => host(rng),
        _ => soup(rng),
    };
    let host = if rng.below(3) == 0 {
        mixed_case(rng, &host)
    } else {
        host
    };
    match rng.below(7) {
        0 => host + ".",
        1 => host + "..",
        2 => format!(".{host}"),
        _ => host,
    }
}

/// A URL for the differential target, from the shapes listed in the
/// module docs.
fn diff_url(rng: &mut TestRng) -> String {
    let pad = |rng: &mut TestRng| {
        pick(
            rng,
            &[
                "", "", "", " ", "\u{2003}", "\u{a0}", "\u{85}", "\u{3000}", "\t",
            ],
        )
    };
    let (front, back) = (pad(rng), pad(rng));
    let scheme = scheme(rng);
    let scheme = mixed_case(rng, scheme);
    let user = pick(
        rng,
        &[
            "", "", "", "u@", "u:p@", "a@b@", "@", ":@", "u:1@", "h:80@", "é@",
        ],
    );
    let host = diff_host(rng);
    let port = pick(
        rng,
        &[
            "",
            "",
            "",
            ":",
            ":80",
            ":0080",
            ":000000000080",
            ":65535",
            ":65536",
            ":99999",
            ":x",
            ":8a",
            ":-1",
            ":+1",
            ":\u{661}",
            "::80",
            ":80:",
        ],
    );
    let tail = if rng.below(2) == 0 {
        rest(rng)
    } else {
        pick(
            rng,
            &[
                "",
                "/",
                "?",
                "#",
                "/a\u{2003}?",
                "?q#f",
                "/p\u{3000}#x",
                "@x/",
            ],
        )
        .to_string()
    };
    format!("{front}{scheme}://{user}{host}{port}{tail}{back}")
}

/// The parts of a parsed URL, in the oracle's terms.
fn parts(u: &Url) -> oracle::Parts {
    (
        u.scheme(),
        Host::parse(u.host_str()).expect("a parsed URL's host parses"),
        u.port(),
        u.path().to_string(),
        u.query().map(str::to_string),
    )
}

/// Asserts the URL, host and registrable-domain answers for `input`
/// equal the oracles', and the URL's text the oracle's rendering.
fn assert_matches_oracles(input: &str, host: &str, case: u64) {
    let (got, want) = (Url::parse(input), oracle::url_parse(input));
    assert_eq!(
        got.as_ref().map(parts).map_err(Clone::clone),
        want,
        "case {case}: Url::parse({input:?})"
    );
    if let (Ok(u), Ok(want)) = (&got, &want) {
        assert_eq!(
            u.as_str(),
            oracle::render(want),
            "case {case}: Url::parse({input:?}).as_str()"
        );
    }
    assert_eq!(
        Host::parse(host),
        oracle::host_parse(host),
        "case {case}: Host::parse({host:?})"
    );
    assert_eq!(
        second_level_domain(host),
        oracle::second_level_domain(host),
        "case {case}: second_level_domain({host:?})"
    );
}

#[test]
fn fuzz_parsers_match_the_replaced_forms() {
    // Every suffix-list entry with zero to five labels prepended, bare,
    // with a leading dot and with a trailing dot.
    let mut rng = TestRng::for_case("url_oracle_suffixes", 0);
    for suffix in public_suffixes() {
        for labels in 0..6 {
            let host = labels_before(&mut rng, labels, suffix);
            for host in [
                host.clone(),
                host.to_ascii_lowercase(),
                format!(".{host}"),
                format!("{host}."),
            ] {
                assert_matches_oracles(&format!("http://{host}/"), &host, 0);
            }
        }
    }
    // Hosts at the edges of the one-scan host check: digit-final last
    // labels (IPv4 or not), 63- and 64-byte labels, 253- and 254-byte
    // names, hyphens and dots at label edges, and `_` inside labels; each
    // bare and inside URLs, in lower and mixed case.
    let (l63, l64) = ("e".repeat(63), "f".repeat(64));
    let mut edges = vec![
        "a.b1".to_string(),
        "x.example9".into(),
        "example.123".into(),
        "a.0".into(),
        "9".into(),
        "1.2.3".into(),
        "1.2.3.4".into(),
        "1.2.3.4.5".into(),
        "1.2.3.04".into(),
        "0.0.0.0".into(),
        "255.255.255.255".into(),
        "256.255.255.255".into(),
        "1.2.3.4a".into(),
        "-a.example".into(),
        "a-.example".into(),
        "a.-b".into(),
        "a.b-".into(),
        "a--b.example".into(),
        "-".into(),
        ".".into(),
        ".a".into(),
        "a.".into(),
        "a..b".into(),
        "_".into(),
        "_a._b".into(),
        "a_.b_".into(),
        "a_b.example".into(),
        "_dmarc.x-y.example".into(),
        "a-_-b.c_d".into(),
        l63.clone(),
        l64.clone(),
        format!("{l63}.example"),
        format!("{l64}.example"),
        format!("x.{l63}"),
        format!("x.{l64}"),
        format!("x.{l63}.y"),
        format!("x.{l64}.y"),
        format!("-{}.example", &l63[1..]),
        format!("{}-.example", &l63[1..]),
    ];
    for len in [252, 253, 254] {
        let name = name_of_len(len);
        edges.push(format!("{}1", &name[..len - 1]));
        edges.push(format!("{}-", &name[..len - 1]));
        edges.push(format!("{}_", &name[..len - 1]));
        edges.push(format!("{}.", &name[..len - 1]));
        edges.push(name);
    }
    let mut rng = TestRng::for_case("url_oracle_edges", 0);
    for host in &edges {
        for host in [host.clone(), mixed_case(&mut rng, host)] {
            for url in [
                format!("http://{host}/"),
                format!("wss://u@{host}:443/p?q#f"),
                format!("HTTPS://{host}:8443"),
            ] {
                assert_matches_oracles(&url, &host, 0);
            }
        }
    }
    let mut parsed = 0u64;
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::for_case("url_oracle", case);
        let host = diff_host(&mut rng);
        let input = if rng.below(4) == 0 {
            let mut s = diff_url(&mut rng);
            let at = s
                .char_indices()
                .map(|(i, _)| i)
                .nth(rng.usize_in(0, s.chars().count() + 1))
                .unwrap_or(s.len());
            s.insert_str(at, &soup(&mut rng));
            s
        } else {
            diff_url(&mut rng)
        };
        parsed += u64::from(Url::parse(&input).is_ok());
        assert_matches_oracles(&input, &host, case);
    }
    // Both outcomes must be exercised.
    assert!(parsed > 0 && parsed < fuzz_cases(), "{parsed} parsed");
}

/// The parsers and the registrable-domain walk as they were before the
/// one-pass scans and the suffix-first lookup replaced them.
mod oracle {
    use sockscope_urlkit::host::{HostError, Ipv4Text};
    use sockscope_urlkit::psl::public_suffixes;
    use sockscope_urlkit::{Host, ParseError, Scheme};

    /// Scheme, host, port, path and query of a parsed URL.
    pub type Parts = (Scheme, Host, u16, String, Option<String>);

    /// The text a URL of these parts renders to:
    /// `scheme://host[:port]path[?query]`, the port only when it is not
    /// the scheme's default.
    pub fn render((scheme, host, port, path, query): &Parts) -> String {
        let mut text = format!("{scheme}://{host}");
        if *port != scheme.default_port() {
            text.push_str(&format!(":{port}"));
        }
        text.push_str(path);
        if let Some(query) = query {
            text.push('?');
            text.push_str(query);
        }
        text
    }

    pub fn url_parse(input: &str) -> Result<Parts, ParseError> {
        let input = input.trim();
        if input.bytes().any(|b| b.is_ascii_control() || b == b' ') {
            return Err(ParseError::BadChar);
        }
        let (scheme_str, rest) = input.split_once(':').ok_or(ParseError::BadScheme)?;
        let scheme = [Scheme::Http, Scheme::Https, Scheme::Ws, Scheme::Wss]
            .into_iter()
            .find(|s| scheme_str.eq_ignore_ascii_case(s.as_str()))
            .ok_or(ParseError::BadScheme)?;
        let rest = rest
            .strip_prefix("//")
            .ok_or(ParseError::MissingSeparator)?;
        let authority_end = rest.find(['/', '?', '#']).unwrap_or(rest.len());
        let authority = &rest[..authority_end];
        let tail = &rest[authority_end..];
        let hostport = authority
            .rsplit_once('@')
            .map(|(_, hp)| hp)
            .unwrap_or(authority);
        let (host_str, port) = match hostport.rsplit_once(':') {
            Some((h, p)) if p.bytes().all(|b| b.is_ascii_digit()) && !p.is_empty() => {
                (h, p.parse::<u16>().map_err(|_| ParseError::BadPort)?)
            }
            Some((_, p)) if !p.is_empty() => return Err(ParseError::BadPort),
            _ => (hostport, scheme.default_port()),
        };
        let host = host_parse(host_str).map_err(ParseError::BadHost)?;
        let tail = tail.split('#').next().unwrap_or("");
        let (path, query) = match tail.split_once('?') {
            Some((p, q)) => (p, q.trim_end()),
            None => (tail, ""),
        };
        let path = if query.is_empty() {
            path.trim_end()
        } else {
            path
        };
        let path = if path.is_empty() { "/" } else { path };
        let query = (!query.is_empty()).then(|| query.to_string());
        Ok((scheme, host, port, path.to_string(), query))
    }

    pub fn host_parse(input: &str) -> Result<Host, HostError> {
        if input.is_empty() {
            return Err(HostError::Empty);
        }
        if let Some(ip) = parse_ipv4(input) {
            return Ok(Host::Ipv4(Ipv4Text::new(ip)));
        }
        if input.len() > 253 {
            return Err(HostError::TooLong);
        }
        for label in input.split('.') {
            if label.is_empty() {
                return Err(HostError::EmptyLabel);
            }
            if label.len() > 63 {
                return Err(HostError::TooLong);
            }
            if label.starts_with('-') || label.ends_with('-') {
                return Err(HostError::BadHyphen);
            }
            for c in label.chars() {
                if !(c.is_ascii_alphanumeric() || c == '-' || c == '_') {
                    return Err(HostError::BadChar(c));
                }
            }
        }
        Ok(Host::Domain(input.to_ascii_lowercase()))
    }

    fn parse_ipv4(s: &str) -> Option<[u8; 4]> {
        let mut parts = s.split('.');
        let mut out = [0u8; 4];
        for slot in &mut out {
            let p = parts.next()?;
            if p.is_empty() || p.len() > 3 || !p.bytes().all(|b| b.is_ascii_digit()) {
                return None;
            }
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

    /// One-label candidates match one-label entries, two- and
    /// three-label candidates the multi-label ones, longer ones nothing.
    fn is_public_suffix(domain: &str) -> bool {
        domain.matches('.').count() < 3 && public_suffixes().any(|s| s == domain)
    }

    pub fn second_level_domain(host: &str) -> &str {
        let host = host.strip_suffix('.').unwrap_or(host);
        let mut above: Option<usize> = None;
        let mut start = 0;
        loop {
            if is_public_suffix(&host[start..]) {
                return above.map_or(host, |a| &host[a..]);
            }
            match host[start..].find('.') {
                Some(dot) => {
                    above = Some(start);
                    start += dot + 1;
                }
                None => break,
            }
        }
        match host.rfind('.') {
            Some(last) => host[..last].rfind('.').map_or(host, |d| &host[d + 1..]),
            None => host,
        }
    }
}
