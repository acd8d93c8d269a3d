//! Seeded fuzz harness for `sockscope-urlkit`'s [`Url::parse`].
//!
//! Every request the browser emits, every inclusion-tree node and every
//! crawler link goes through this parser, and a hostile page controls the
//! text. Three targets:
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
//!   fail with the same [`ParseError`].
//!
//! Mirrors `tests/fuzz_wsproto.rs`: every case derives from the vendored
//! proptest [`TestRng`] so a failing case number reproduces exactly, and
//! the per-target case count honors `FUZZ_CASES` (default 2500; CI's
//! chaos job raises it).

use proptest::test_runner::TestRng;
use sockscope_urlkit::{ParseError, Url};

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
