//! Seeded differential fuzz harness for the `sockscope-redlite` fast paths.
//!
//! The matcher overhaul added three accelerated paths on top of the Pike
//! VM — literal prefilters, the lazy DFA, and the multi-pattern
//! `RegexSet` — all of which must be *decision-invisible*: every haystack
//! classifies identically whichever engine answers. These targets generate
//! random patterns from the supported grammar plus adversarial haystacks
//! and assert exact agreement on `is_match`, `find` spans, and set masks.
//!
//! A fifth target races the SWAR case-insensitive literal skip loop
//! against its byte-at-a-time scalar reference on random
//! haystacks/needles/offsets. A sixth races the one-scan `LiteralSet`
//! against that reference asked once per literal, and a seventh holds the
//! PII library's `RegexSet` to its per-pattern Pike-VM reference on
//! URL-shaped haystacks built from the library's own keys in mixed case.
//!
//! Mirrors `tests/fuzz_journal.rs`: every case derives from the vendored
//! proptest [`TestRng`] so a failing case number reproduces exactly, and
//! the per-target case count honors `FUZZ_CASES` (default 2500; CI's
//! matcher job raises it).

use proptest::test_runner::TestRng;
use sockscope_analysis::pii::PiiLibrary;
use sockscope_redlite::{find_lit, find_lit_scalar, LiteralSet, Regex, RegexSet};

/// Per-target case count: `FUZZ_CASES` env or 2500.
fn fuzz_cases() -> u64 {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2500)
}

/// Atom pool: literal runs (so prefilters kick in), classes, escapes,
/// wildcards. Kept inside the parser's supported grammar.
const ATOMS: &[&str] = &[
    "a", "b", "c", "x", "=", "&", "_", "0", "1", "cookie", "uid", "ab", "xyz", ".", "\\d", "\\w",
    "\\s", "[a-c]", "[^ab]", "[0-9a-f]", "Moz",
];

/// Postfix operators, weighted toward "none".
const POSTFIX: &[&str] = &["", "", "", "?", "*", "+", "{2}", "{1,3}", "{2,}"];

/// Builds one random pattern. Depth-bounded: alternations and groups only
/// at the top two levels, so every pattern stays parseable and small.
fn arbitrary_pattern(rng: &mut TestRng, depth: usize) -> String {
    let mut out = String::new();
    if depth == 0 && rng.below(4) == 0 {
        out.push('^');
    }
    let items = rng.usize_in(1, 5);
    for _ in 0..items {
        let atom = if depth < 2 && rng.below(6) == 0 {
            format!("({})", arbitrary_pattern(rng, depth + 1))
        } else if depth < 2 && rng.below(8) == 0 {
            format!(
                "({}|{})",
                arbitrary_pattern(rng, depth + 1),
                arbitrary_pattern(rng, depth + 1)
            )
        } else {
            ATOMS[rng.usize_in(0, ATOMS.len())].to_string()
        };
        out.push_str(&atom);
        let post = POSTFIX[rng.usize_in(0, POSTFIX.len())];
        // `{n,m}`-style repeats on a bare `^` would be rejected; operators
        // always follow an atom here, so any postfix is grammatical.
        out.push_str(post);
    }
    if depth == 0 && rng.below(6) == 0 {
        out.push('$');
    }
    out
}

/// Haystack alphabet: the pattern alphabet plus case-flipped letters,
/// whitespace, and a non-ASCII char (exercises the DFA's unicode slow
/// path and the prefilters' case folding).
const HAY_CHARS: &[char] = &[
    'a', 'b', 'c', 'x', 'y', 'z', 'A', 'B', 'C', 'X', '0', '1', '9', 'f', '=', '&', '_', ' ', '\n',
    '.', 'M', 'o', 'z', 'é', 'u', 'i', 'd', 'k', 'e',
];

fn arbitrary_haystack(rng: &mut TestRng) -> String {
    let len = rng.usize_in(0, 48);
    let mut out = String::new();
    for _ in 0..len {
        if rng.below(10) == 0 {
            // Seed likely-match material so hits are common, not
            // vanishing: fragments of the literal atoms.
            out.push_str(["cookie", "uid", "ab", "Moz", "xyz"][rng.usize_in(0, 5)]);
        } else {
            out.push(HAY_CHARS[rng.usize_in(0, HAY_CHARS.len())]);
        }
    }
    out
}

fn compile(rng: &mut TestRng, pattern: &str) -> Regex {
    let ci = rng.below(3) == 0;
    let built = if ci {
        Regex::new_ci(pattern)
    } else {
        Regex::new(pattern)
    };
    built.unwrap_or_else(|e| panic!("generated pattern {pattern:?} failed to parse: {e}"))
}

#[test]
fn fuzz_is_match_fast_path_agrees_with_pikevm() {
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::for_case("redlite_is_match", case);
        let pattern = arbitrary_pattern(&mut rng, 0);
        let re = compile(&mut rng, &pattern);
        for _ in 0..8 {
            let hay = arbitrary_haystack(&mut rng);
            assert_eq!(
                re.is_match(&hay),
                re.pikevm_is_match(&hay),
                "case {case}: pattern {pattern:?} haystack {hay:?}"
            );
        }
    }
}

#[test]
fn fuzz_find_spans_agree_with_pikevm() {
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::for_case("redlite_find", case);
        let pattern = arbitrary_pattern(&mut rng, 0);
        let re = compile(&mut rng, &pattern);
        for _ in 0..8 {
            let hay = arbitrary_haystack(&mut rng);
            let fast = re.find(&hay).map(|m| (m.start, m.end));
            let reference = re.pikevm_find(&hay).map(|m| (m.start, m.end));
            assert_eq!(
                fast, reference,
                "case {case}: pattern {pattern:?} haystack {hay:?}"
            );
        }
    }
}

#[test]
fn fuzz_regex_set_agrees_with_per_pattern_scan() {
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::for_case("redlite_set", case);
        let n = rng.usize_in(2, 9);
        let specs: Vec<(String, bool)> = (0..n)
            .map(|_| (arbitrary_pattern(&mut rng, 0), rng.below(3) == 0))
            .collect();
        let set = RegexSet::with_specs(specs.iter().cloned())
            .unwrap_or_else(|e| panic!("case {case}: set failed to build: {e}"));
        for _ in 0..6 {
            let hay = arbitrary_haystack(&mut rng);
            let fast: Vec<usize> = set.matches(&hay).iter().collect();
            let reference: Vec<usize> = set.matches_reference(&hay).iter().collect();
            assert_eq!(
                fast, reference,
                "case {case}: specs {specs:?} haystack {hay:?}"
            );
        }
    }
}

#[test]
fn fuzz_swar_literal_scan_agrees_with_scalar_reference() {
    // The literal prefilter, in both case modes, rides a SWAR skip loop
    // (`find_byte2`) that scans eight haystack bytes per iteration; a
    // phase, borrow-propagation, or remainder-handling bug would misplace
    // or skip candidate offsets. Race `find_lit` against the
    // byte-at-a-time reference on random haystacks (including bytes that
    // alias the key under the 0x20 case-fold trick, like `@` vs `` ` ``
    // and 0x7f/0x80), random needles, every starting offset, both case
    // modes.
    const NEEDLE_POOL: &[&str] = &[
        "uid", "UID", "a", "@", "`", "Moz", "cookie", "=", "uId=", "",
    ];
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::for_case("redlite_swar_scan", case);
        let hay = arbitrary_haystack(&mut rng);
        for _ in 0..4 {
            let needle = if rng.below(3) == 0 {
                NEEDLE_POOL[rng.usize_in(0, NEEDLE_POOL.len())].to_string()
            } else {
                let len = rng.usize_in(1, 5);
                (0..len)
                    .map(|_| HAY_CHARS[rng.usize_in(0, HAY_CHARS.len())])
                    .collect()
            };
            let ci = rng.below(2) == 0;
            // Every char-boundary `from` (the engine never passes a
            // mid-char offset), plus one past the end (must be None per
            // the documented edge contract, not a panic).
            for from in (0..=hay.len() + 1).filter(|&f| f > hay.len() || hay.is_char_boundary(f)) {
                assert_eq!(
                    find_lit(&hay, &needle, ci, from),
                    find_lit_scalar(&hay, &needle, ci, from),
                    "case {case}: hay {hay:?} needle {needle:?} ci {ci} from {from}"
                );
            }
        }
    }
}

#[test]
fn fuzz_cached_rescans_stay_consistent() {
    // The lazy DFA memoizes states and transitions across scans; a stale
    // or corrupted cache would only surface on *later* haystacks. Scan
    // many haystacks through one compiled regex and verify every answer
    // against a fresh Pike-VM run.
    //
    // Prefilter rejects are not scans, so a regex that matched some
    // haystack must show a DFA scan (or a fallback from one): a match is
    // never decided by the prefilter alone. A check counts at most once,
    // except the one scan that overflows the state cache: it counts as a
    // scan and as a fallback, and poisons the cache for every later check.
    let mut matched_cases = 0u64;
    for case in 0..fuzz_cases().min(800) {
        let mut rng = TestRng::for_case("redlite_rescans", case);
        let pattern = arbitrary_pattern(&mut rng, 0);
        let re = compile(&mut rng, &pattern);
        let mut matched = false;
        for _ in 0..32 {
            let hay = arbitrary_haystack(&mut rng);
            let hit = re.pikevm_is_match(&hay);
            assert_eq!(
                re.is_match(&hay),
                hit,
                "case {case}: pattern {pattern:?} haystack {hay:?}"
            );
            matched |= hit;
        }
        let stats = re.cache_stats();
        assert!(
            stats.scans + stats.fallbacks <= 32 + u64::from(stats.fallbacks > 0),
            "case {case}: more counted than asked: {stats:?}"
        );
        if matched {
            matched_cases += 1;
            assert!(
                stats.scans + stats.fallbacks > 0,
                "case {case}: matched without a DFA scan: {stats:?}"
            );
        }
    }
    assert!(
        matched_cases * 4 > fuzz_cases().min(800),
        "only {matched_cases} cases matched"
    );
}

/// Literals for the set target: pairs sharing an anchor byte (`uid=` /
/// `id=` / `=`), overlapping ones (`aa`, `aaa`), case variants,
/// non-ASCII ones and single bytes that alias letters under case folding.
const SET_LITERALS: &[&str] = &[
    "uid=", "UID", "id=", "=", "aa", "aaa", "a", "cookie", "Cookie=", "é", "aé", "éa", "@", "`",
    "x", "zz", "moz", "ua=", "_id=", "&", "?",
];

/// The keys the PII library looks for, as its required literals spell
/// them: query keys, header prefixes and the user-agent product.
const PII_KEYS: &[&str] = &[
    "ua=",
    "cookie=",
    "client_ip=",
    "user_id=",
    "client_id=",
    "account_id=",
    "device=",
    "screen=",
    "browser=",
    "viewport=",
    "scroll_y=",
    "orientation=",
    "first_seen=",
    "resolution=",
    "lang=",
    "dom=",
];

/// Values that complete a PII key into a match, or nearly do.
const PII_VALUES: &[&str] = &[
    "Mozilla/5.0",
    "mozilla/",
    "a=b",
    "10.0.0.1",
    "10.0.0",
    "abc-123",
    "desktop",
    "tablet",
    "1920x1080",
    "19x10",
    "Chrome",
    "landscape",
    "2017-03-01",
    "en-US",
    "<html",
    "<!doctype ",
    "",
    "é",
];

/// A URL-shaped haystack: scheme, host, path, then a query of PII keys
/// and values in mixed case, with stray separators and non-ASCII text.
fn url_haystack(rng: &mut TestRng) -> String {
    let mut url = String::from(["http://", "wss://", "", "user-agent: "][rng.usize_in(0, 4)]);
    url.push_str(["t.example", "cdn.ads.example", "10.0.0.1", "é.example"][rng.usize_in(0, 4)]);
    url.push_str(["/", "/collect", "/a_b/", "/é/"][rng.usize_in(0, 4)]);
    for k in 0..rng.usize_in(0, 6) {
        url.push_str(["?", "&", "", "&&"][if k == 0 { 0 } else { rng.usize_in(1, 4) }]);
        let key = PII_KEYS[rng.usize_in(0, PII_KEYS.len())];
        let value = PII_VALUES[rng.usize_in(0, PII_VALUES.len())];
        for c in key.chars().chain(value.chars()) {
            match rng.below(4) {
                0 => url.extend(c.to_uppercase()),
                _ => url.push(c),
            }
        }
    }
    url
}

#[test]
fn fuzz_literal_set_agrees_with_per_literal_scan() {
    // One scan must report exactly the literals a per-literal search
    // finds: both case modes, literals that share an anchor byte or
    // overlap, hits at the first and last byte, non-ASCII neighbours, and
    // sets filled past their 64-literal capacity.
    let mut hits = 0u64;
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::for_case("redlite_literal_set", case);
        let mut set = LiteralSet::new();
        let mut held: Vec<(String, bool)> = Vec::new();
        let wanted = if rng.below(8) == 0 {
            rng.usize_in(60, 72)
        } else {
            rng.usize_in(1, 12)
        };
        for n in 0..wanted {
            let lit = match rng.below(4) {
                0 => format!("k{n}="),
                1 => PII_KEYS[rng.usize_in(0, PII_KEYS.len())].to_string(),
                _ => SET_LITERALS[rng.usize_in(0, SET_LITERALS.len())].to_string(),
            };
            let ci = rng.below(2) == 0;
            let known = held.iter().position(|(l, c)| *l == lit && *c == ci);
            let bit = set.insert(&lit, ci);
            match known {
                Some(i) => assert_eq!(bit, Some(i as u32), "case {case}: re-insert {lit:?}"),
                None if held.len() == LiteralSet::CAPACITY => {
                    assert_eq!(bit, None, "case {case}: insert past capacity")
                }
                None => {
                    assert_eq!(bit, Some(held.len() as u32), "case {case}: insert {lit:?}");
                    held.push((lit, ci));
                }
            }
        }
        assert_eq!(set.len(), held.len());
        for _ in 0..6 {
            let mut hay = if rng.below(2) == 0 {
                url_haystack(&mut rng)
            } else {
                arbitrary_haystack(&mut rng)
            };
            // Put a held literal flush against the first or last byte.
            if rng.below(3) == 0 {
                let (lit, _) = &held[rng.usize_in(0, held.len())];
                hay = if rng.below(2) == 0 {
                    format!("{lit}{hay}")
                } else {
                    format!("{hay}{lit}")
                };
            }
            let found = set.matches(&hay);
            for (i, (lit, ci)) in held.iter().enumerate() {
                let want = find_lit_scalar(&hay, lit, *ci, 0).is_some();
                assert_eq!(
                    found & (1 << i) != 0,
                    want,
                    "case {case}: literal {i} {lit:?} ci {ci} in {hay:?}"
                );
            }
            assert!(
                held.len() == 64 || found >> held.len() == 0,
                "case {case}: bits past the held literals: {found:#x}"
            );
            hits += u64::from(found != 0);
        }
    }
    assert!(hits * 2 > fuzz_cases(), "only {hits} haystacks hit");
}

#[test]
fn fuzz_pii_set_agrees_with_reference_on_urls() {
    // The production set (one literal scan gating per-pattern DFAs)
    // against one Pike-VM scan per pattern, on the URL shapes the
    // reducer feeds it.
    let lib = PiiLibrary::new();
    let mut classified = 0u64;
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::for_case("redlite_pii_urls", case);
        for _ in 0..4 {
            let url = url_haystack(&mut rng);
            let fast = lib.classify_sent_text(&url);
            assert_eq!(
                fast,
                lib.classify_sent_text_reference(&url),
                "case {case}: url {url:?}"
            );
            classified += u64::from(!fast.is_empty());
        }
    }
    assert!(
        classified > fuzz_cases(),
        "only {classified} URLs classified"
    );
}
