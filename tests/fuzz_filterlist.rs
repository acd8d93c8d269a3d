//! Seeded differential fuzz harness for the `sockscope-filterlist`
//! decision path.
//!
//! `Engine::evaluate` narrows candidates through the domain and token
//! indexes and finds literal rule parts by substring search; both must be
//! *decision-invisible*. Four targets:
//!
//! * random rule lists (`||`, `|`, `*`, `^`, trailing `|`, `$third-party`,
//!   `$domain=a|~b`, type options, `@@`, non-ASCII text, IPv4 and
//!   public-suffix hosts) against random request and page URLs:
//!   `evaluate` must equal the linear `evaluate_reference`, winning rule
//!   index included;
//! * the same race on lists rich in rules with no usable token (leading
//!   `*`, runs next to `*`, parts that are only `^`), which the engine
//!   gates by their longest `^`-free literal;
//! * one page's `PageFacts` shared across many requests must decide each
//!   request as `evaluate` does, on IPv4, same-site and other pages;
//! * random parts and texts: the production `engine::find_part` must equal
//!   the character-by-character walk it replaced, kept below as the oracle.
//!
//! Mirrors `tests/fuzz_redlite.rs`: every case derives from the vendored
//! proptest [`TestRng`] so a failing case number reproduces exactly, and
//! the per-target case count honors `FUZZ_CASES` (default 2500; CI's
//! matcher job raises it).

use proptest::test_runner::TestRng;
use sockscope_filterlist::engine::find_part;
use sockscope_filterlist::{Decision, Engine, PageFacts, RequestContext, ResourceType};
use sockscope_urlkit::Url;

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

/// Hosts shared by rules and URLs so rules hit often: registrable
/// domains and their subdomains, bare and extended public suffixes,
/// single labels, IPv4 literals and their numeric tails.
const HOSTS: &[&str] = &[
    "ads.example",
    "cdn.ads.example",
    "example",
    "pub.example",
    "co.uk",
    "ads.co.uk",
    "shop.ads.co.uk",
    "amazonaws.com",
    "s3.amazonaws.com",
    "bucket.s3.amazonaws.com",
    "tracker.io",
    "x.tracker.io",
    "localhost",
    "10.0.0.1",
    "10.0.0.11",
    "0.1",
];

/// Pattern text between anchors: path pieces, separators, wildcards and
/// non-ASCII characters.
const RULE_FRAGMENTS: &[&str] = &[
    "/", "ads", "banner", "^", "*", "track", "=", "?", "é", "ü/", "_", "-", ".gif", "pixel", "x",
    "Ad", ":", "%",
];

const OPTIONS: &[&str] = &[
    "third-party",
    "~third-party",
    "script",
    "image",
    "~image",
    "xmlhttprequest",
    "websocket",
    "domain=pub.example|~ads.example",
    "domain=example|co.uk",
    "domain=~pub.example",
    "domain=10.0.0.1",
];

fn arbitrary_rule(rng: &mut TestRng) -> String {
    let mut rule = String::new();
    if rng.below(4) == 0 {
        rule.push_str("@@");
    }
    match rng.below(10) {
        0..=3 => {
            rule.push_str("||");
            let host = pick(rng, HOSTS);
            // Sometimes stop mid-label, so the host text is only a head.
            let cut = if rng.below(5) == 0 {
                rng.usize_in(1, host.len() + 1)
            } else {
                host.len()
            };
            rule.push_str(&host[..cut]);
        }
        4 => {
            rule.push('|');
            rule.push_str(pick(rng, &["http://", "ws://", "https://"]));
            rule.push_str(pick(rng, HOSTS));
        }
        _ => {}
    }
    for _ in 0..rng.usize_in(0, 4) {
        rule.push_str(pick(rng, RULE_FRAGMENTS));
    }
    if rng.below(6) == 0 {
        rule.push('|');
    }
    if rng.below(2) == 0 {
        let options: Vec<&str> = (0..rng.usize_in(1, 3))
            .map(|_| pick(rng, OPTIONS))
            .collect();
        rule.push('$');
        rule.push_str(&options.join(","));
    }
    rule
}

const URL_FRAGMENTS: &[&str] = &[
    "ads", "banner", "track", "pixel", "/", "x", ".gif", "é", "ü", "_", "-", "Banner", "%", "0",
    "AD", ":", "=",
];

fn arbitrary_url(rng: &mut TestRng) -> Option<Url> {
    let mut u = String::from(pick(rng, &["http", "https", "ws", "wss"]));
    u.push_str("://");
    u.push_str(pick(rng, HOSTS));
    if rng.below(6) == 0 {
        u.push_str(":8080");
    }
    u.push('/');
    for _ in 0..rng.usize_in(0, 6) {
        u.push_str(pick(rng, URL_FRAGMENTS));
    }
    if rng.below(3) == 0 {
        u.push('?');
        u.push_str(pick(rng, &["a=1", "uid=é", "x", "ads=banner^"]));
    }
    Url::parse(&u).ok()
}

const TYPES: &[ResourceType] = &[
    ResourceType::Script,
    ResourceType::Image,
    ResourceType::Stylesheet,
    ResourceType::Xhr,
    ResourceType::Subdocument,
    ResourceType::WebSocket,
    ResourceType::Document,
    ResourceType::Other,
];

#[test]
fn fuzz_evaluate_agrees_with_reference() {
    let mut decided = 0u64;
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::for_case("filterlist_evaluate", case);
        let list: Vec<String> = (0..rng.usize_in(1, 12))
            .map(|_| arbitrary_rule(&mut rng))
            .collect();
        let (engine, _unparsed) = Engine::parse(&list.join("\n"));
        for _ in 0..8 {
            let (Some(url), Some(page)) = (arbitrary_url(&mut rng), arbitrary_url(&mut rng)) else {
                continue;
            };
            let ctx = RequestContext {
                url: &url,
                page: &page,
                resource_type: TYPES[rng.usize_in(0, TYPES.len())],
            };
            let fast = engine.evaluate(&ctx);
            assert_eq!(
                fast,
                engine.evaluate_reference(&ctx),
                "case {case}: list {list:?} url {url} page {page} type {:?}",
                ctx.resource_type
            );
            decided += u64::from(fast != sockscope_filterlist::Decision::None);
        }
    }
    // The generators must keep producing hits, or agreement means little.
    assert!(
        decided * 20 > fuzz_cases(),
        "only {decided} decisions matched a rule"
    );
}

/// Pieces of rules the token index cannot take: runs that touch a `*`,
/// parts that are only `^`, and literals with no separator around them.
const UNTOKENIZABLE: &[&str] = &[
    "*ads", "ads*", "*banner_", "*track", "pixel*", "*^", "^*", "*^^", "*é", "*x_tail", "*ads^",
    "*ad_tail", "*%",
];

/// A rule built mostly of [`UNTOKENIZABLE`] pieces, with the anchors and
/// options of [`arbitrary_rule`].
fn untokenizable_rule(rng: &mut TestRng) -> String {
    let mut rule = String::new();
    if rng.below(4) == 0 {
        rule.push_str("@@");
    }
    if rng.below(5) == 0 {
        rule.push('|');
        rule.push_str(pick(rng, &["http://", "ws://"]));
    }
    for _ in 0..rng.usize_in(1, 4) {
        rule.push_str(pick(rng, UNTOKENIZABLE));
        if rng.below(3) == 0 {
            rule.push_str(pick(rng, RULE_FRAGMENTS));
        }
    }
    if rng.below(6) == 0 {
        rule.push('|');
    }
    if rng.below(3) == 0 {
        rule.push('$');
        rule.push_str(pick(rng, OPTIONS));
    }
    rule
}

#[test]
fn fuzz_untokenized_rules_agree_with_reference() {
    let (mut decided, mut untokenized) = (0u64, 0u64);
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::for_case("filterlist_untokenized", case);
        let list: Vec<String> = (0..rng.usize_in(1, 12))
            .map(|_| {
                if rng.below(4) == 0 {
                    arbitrary_rule(&mut rng)
                } else {
                    untokenizable_rule(&mut rng)
                }
            })
            .collect();
        let (engine, _unparsed) = Engine::parse(&list.join("\n"));
        untokenized += engine.index_stats().untokenized as u64;
        for _ in 0..8 {
            let (Some(url), Some(page)) = (arbitrary_url(&mut rng), arbitrary_url(&mut rng)) else {
                continue;
            };
            let ctx = RequestContext {
                url: &url,
                page: &page,
                resource_type: TYPES[rng.usize_in(0, TYPES.len())],
            };
            let fast = engine.evaluate(&ctx);
            assert_eq!(
                fast,
                engine.evaluate_reference(&ctx),
                "case {case}: list {list:?} url {url} page {page} type {:?}",
                ctx.resource_type
            );
            decided += u64::from(fast != Decision::None);
        }
    }
    assert!(
        decided * 10 > fuzz_cases(),
        "only {decided} decisions matched a rule"
    );
    assert!(
        untokenized > 2 * fuzz_cases(),
        "only {untokenized} untokenized rules generated"
    );
}

#[test]
fn fuzz_page_facts_agree_with_evaluate() {
    // Facts derived once and reused across a page's requests must never
    // leak one request's answers into the next; IPv4 pages have no
    // registrable domain, and same-site requests turn `$third-party` off.
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::for_case("filterlist_page_facts", case);
        let list: Vec<String> = (0..rng.usize_in(1, 12))
            .map(|_| arbitrary_rule(&mut rng))
            .collect();
        let (engine, _unparsed) = Engine::parse(&list.join("\n"));
        let page_host = pick(
            &mut rng,
            &["10.0.0.1", "pub.example", "cdn.ads.example", "co.uk"],
        );
        let Ok(page) = Url::parse(&format!("http://{page_host}/index.html")) else {
            continue;
        };
        let facts = PageFacts::new(&page);
        for _ in 0..8 {
            // Half the requests stay on the page's host.
            let url = if rng.below(2) == 0 {
                Url::parse(&format!("https://{page_host}/ads/pixel.gif?x")).ok()
            } else {
                arbitrary_url(&mut rng)
            };
            let Some(url) = url else { continue };
            let resource_type = TYPES[rng.usize_in(0, TYPES.len())];
            let ctx = RequestContext {
                url: &url,
                page: &page,
                resource_type,
            };
            assert_eq!(
                engine.evaluate_on(&facts, &url, url.second_level_domain(), resource_type),
                engine.evaluate(&ctx),
                "case {case}: list {list:?} url {url} page {page} type {resource_type:?}"
            );
        }
    }
}

/// Part alphabet: literals, separators and a non-ASCII character.
const PART_CHARS: &[char] = &['a', 'b', '^', 'é', '/', '.'];

/// Text alphabet: the literals, ASCII and non-ASCII separators, and
/// characters that are not separators (`.`, `-`, `%`).
const TEXT_CHARS: &[char] = &['a', 'b', '/', 'é', '.', '-', '%', 'ü', '^'];

/// A text of runs (`aaab//é`), so parts like `aa^` overlap themselves in
/// it and the search must retry inside a failed hit.
fn arbitrary_text(rng: &mut TestRng) -> String {
    let mut text = String::new();
    for _ in 0..rng.usize_in(0, 10) {
        let c = TEXT_CHARS[rng.usize_in(0, TEXT_CHARS.len())];
        for _ in 0..rng.usize_in(1, 4) {
            text.push(c);
        }
    }
    text
}

/// A part: either random, or a slice of `text` with one character
/// sometimes turned into `^`, so near-misses are common.
fn arbitrary_part(rng: &mut TestRng, text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    if chars.is_empty() || rng.below(3) == 0 {
        return (0..rng.usize_in(0, 5))
            .map(|_| PART_CHARS[rng.usize_in(0, PART_CHARS.len())])
            .collect();
    }
    let start = rng.usize_in(0, chars.len());
    let len = rng.usize_in(1, 5).min(chars.len() - start);
    let mut part = chars[start..start + len].to_vec();
    if rng.below(2) == 0 {
        part[rng.usize_in(0, len)] = '^';
    }
    part.into_iter().collect()
}

#[test]
fn fuzz_find_part_agrees_with_char_walk() {
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::for_case("filterlist_find_part", case);
        let text = arbitrary_text(&mut rng);
        for _ in 0..4 {
            let part = arbitrary_part(&mut rng, &text);
            for from in (0..=text.len()).filter(|&f| text.is_char_boundary(f)) {
                assert_eq!(
                    find_part(&part, &text, from),
                    oracle::find_part(&part, &text, from),
                    "case {case}: part {part:?} text {text:?} from {from}"
                );
            }
        }
    }
}

/// The character-walk part matcher `find_part` replaced: tries the part
/// at every character position, decoding one char per step.
mod oracle {
    /// ABP separator: anything that is not alphanumeric, `_`, `-`, `.`,
    /// `%`; also matches the end of the URL.
    fn is_separator(c: char) -> bool {
        !(c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.' || c == '%')
    }

    /// Matches one literal part (which may contain `^` separators) against
    /// `text` starting exactly at `pos`. Returns the end position.
    fn match_part_at(part: &str, text: &str, pos: usize) -> Option<usize> {
        let mut t = pos;
        let bytes = text.as_bytes();
        let mut chars = part.chars().peekable();
        while let Some(pc) = chars.next() {
            if pc == '^' {
                if t == text.len() {
                    return if chars.peek().is_none() {
                        Some(t)
                    } else {
                        None
                    };
                }
                let c = text[t..].chars().next()?;
                if !is_separator(c) {
                    return None;
                }
                t += c.len_utf8();
            } else {
                if t >= bytes.len() {
                    return None;
                }
                let c = text[t..].chars().next()?;
                if c != pc {
                    return None;
                }
                t += c.len_utf8();
            }
        }
        Some(t)
    }

    /// Finds the first position ≥ `from` where `part` matches.
    pub fn find_part(part: &str, text: &str, from: usize) -> Option<(usize, usize)> {
        if part.is_empty() {
            return Some((from, from));
        }
        let mut start = from;
        while start <= text.len() {
            if let Some(end) = match_part_at(part, text, start) {
                return Some((start, end));
            }
            match text[start..].chars().next() {
                Some(c) => start += c.len_utf8(),
                None => break,
            }
        }
        None
    }
}
