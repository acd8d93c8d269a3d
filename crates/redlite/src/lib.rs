//! # sockscope-redlite
//!
//! A small regular-expression engine for the content-analysis stage of the
//! study. §4.3 of the paper: *"We extracted all of these variables from raw
//! network traffic by manually building up a large library of regular
//! expressions."* `sockscope-analysis` carries that pattern library; this
//! crate provides the engine it runs on.
//!
//! ## Engine
//!
//! Patterns compile to a Thompson NFA; the Pike VM remains the semantic
//! reference (linear in the input, no backtracking blow-ups). On top of it
//! sit three fast paths, none of which may ever change a decision:
//!
//! * **Literal prefilters** ([`literal`](crate)) — required/prefix
//!   literals extracted from the AST reject most haystacks with plain
//!   substring scans before any engine runs.
//! * **A lazy DFA** — existence checks run on cached byte-class
//!   transitions; the bounded state cache falls back to the Pike VM when
//!   it overflows (see [`DfaStats`]).
//! * **[`RegexSet`]** — reports the full set of matching patterns: one
//!   [`LiteralSet`] scan over the haystack gates every pattern on its
//!   required literals, and each pattern left in play runs on its own
//!   lazy DFA; this is how the PII library classifies each message.
//!
//! The reference engine stays reachable via [`Regex::pikevm_is_match`] /
//! [`Regex::pikevm_find`]; the differential fuzz target in the workspace
//! root asserts the paths never disagree.
//!
//! ## Supported syntax
//!
//! * literals, `.` (any char except `\n`)
//! * classes `[a-z0-9_]`, negated `[^…]`, escapes `\d \D \w \W \s \S`
//! * escaped metacharacters (`\.`, `\[`, …), `\t \n \r`
//! * alternation `a|b`, grouping `(…)` (non-capturing semantics)
//! * quantifiers `* + ?` and bounded `{n} {n,} {n,m}` (greedy; the VM
//!   reports leftmost match start and the longest-of-leftmost end)
//! * anchors `^` and `$` (whole-input, not multi-line)
//! * case-insensitive compilation via [`Regex::new_ci`]
//!
//! This is the subset the PII library needs; anything outside it is a
//! compile-time [`Error`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod dfa;
mod literal;
mod nfa;
mod set;
mod vm;

pub use ast::Error;
pub use dfa::DfaStats;
pub use literal::{find_lit, find_lit_scalar, LiteralSet};
pub use set::{RegexSet, SetMatches};

use std::sync::Mutex;

/// A compiled regular expression.
pub struct Regex {
    program: nfa::Program,
    pattern: String,
    ci: bool,
    prefilter: literal::Prefilter,
    /// Lazy-DFA cache. `try_lock` on the hot path: under contention the
    /// caller simply runs the Pike VM, so the lock never blocks matching.
    dfa: Mutex<dfa::LazyDfa>,
}

impl std::fmt::Debug for Regex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Regex")
            .field("pattern", &self.pattern)
            .field("ci", &self.ci)
            .finish_non_exhaustive()
    }
}

impl Clone for Regex {
    fn clone(&self) -> Regex {
        Regex {
            program: self.program.clone(),
            pattern: self.pattern.clone(),
            ci: self.ci,
            prefilter: self.prefilter.clone(),
            // A fresh, empty DFA cache: states re-fill lazily.
            dfa: Mutex::new(dfa::LazyDfa::new(&self.program)),
        }
    }
}

/// A successful match: byte offsets into the haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Byte offset of the match start.
    pub start: usize,
    /// Byte offset one past the match end.
    pub end: usize,
}

impl Regex {
    /// Compiles a case-sensitive pattern.
    pub fn new(pattern: &str) -> Result<Regex, Error> {
        Self::compile(pattern, false)
    }

    /// Compiles a case-insensitive pattern.
    pub fn new_ci(pattern: &str) -> Result<Regex, Error> {
        Self::compile(pattern, true)
    }

    fn compile(pattern: &str, ci: bool) -> Result<Regex, Error> {
        let ast = ast::parse(pattern, ci)?;
        let program = nfa::compile(&ast);
        let prefilter = literal::Prefilter::from_ast(&ast, ci);
        let dfa = Mutex::new(dfa::LazyDfa::new(&program));
        Ok(Regex {
            program,
            pattern: pattern.to_string(),
            ci,
            prefilter,
            dfa,
        })
    }

    /// The source pattern.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// `true` if the pattern matches anywhere in `haystack`. Faster than
    /// [`Regex::find`]: required-literal prefilter, then the lazy DFA,
    /// with the Pike VM as fallback. Decisions are identical to
    /// [`Regex::pikevm_is_match`] on every input.
    pub fn is_match(&self, haystack: &str) -> bool {
        if !self.prefilter.admits(haystack, 0) {
            return false;
        }
        self.is_match_admitted(haystack)
    }

    /// [`Regex::is_match`] once the required-literal prefilter has
    /// admitted `haystack` (a [`RegexSet`] asks its [`LiteralSet`]
    /// instead). Also correct on a haystack it would have rejected.
    fn is_match_admitted(&self, haystack: &str) -> bool {
        let start = match self.prefilter.earliest_start(haystack, 0) {
            Some(s) => s,
            None => return false,
        };
        if self.program.anchored_start && start > 0 {
            // Anchored pattern whose guaranteed prefix is absent at 0.
            return false;
        }
        if let Ok(mut d) = self.dfa.try_lock() {
            let prefix = dfa::prefix_of(&self.prefilter);
            if let Some(hit) = d.is_match(&self.program, haystack, start, prefix) {
                return hit;
            }
        }
        vm::is_match(&self.program, haystack)
    }

    /// Leftmost match in `haystack`.
    ///
    /// Span resolution always runs on the Pike VM; the prefilter only
    /// advances the scan to the first viable start position, which cannot
    /// change the leftmost match.
    pub fn find(&self, haystack: &str) -> Option<Match> {
        self.find_at(haystack, 0)
    }

    fn find_at(&self, haystack: &str, from: usize) -> Option<Match> {
        if !self.prefilter.admits(haystack, from) {
            return None;
        }
        let start = self.prefilter.earliest_start(haystack, from)?;
        if self.program.anchored_start {
            // The prefix-occurrence shortcut does not apply to anchored
            // patterns (their only viable start is position 0).
            return vm::find(&self.program, haystack, from);
        }
        vm::find(&self.program, haystack, start)
    }

    /// Reference existence check on the bare Pike VM — the engine the
    /// fast paths are differentially tested against.
    pub fn pikevm_is_match(&self, haystack: &str) -> bool {
        vm::is_match(&self.program, haystack)
    }

    /// Reference leftmost match on the bare Pike VM (no prefilter).
    pub fn pikevm_find(&self, haystack: &str) -> Option<Match> {
        vm::find(&self.program, haystack, 0)
    }

    /// Snapshot of this regex's lazy-DFA cache counters.
    pub fn cache_stats(&self) -> DfaStats {
        self.dfa.lock().map(|d| d.stats()).unwrap_or_default()
    }

    /// Iterates non-overlapping matches left to right.
    pub fn find_iter<'r, 'h>(&'r self, haystack: &'h str) -> Matches<'r, 'h> {
        Matches {
            re: self,
            haystack,
            pos: 0,
        }
    }

    /// Extracts the matched text of the leftmost match.
    pub fn find_str<'h>(&self, haystack: &'h str) -> Option<&'h str> {
        self.find(haystack).map(|m| &haystack[m.start..m.end])
    }
}

/// Iterator over non-overlapping matches.
pub struct Matches<'r, 'h> {
    re: &'r Regex,
    haystack: &'h str,
    pos: usize,
}

impl Iterator for Matches<'_, '_> {
    type Item = Match;

    fn next(&mut self) -> Option<Match> {
        if self.pos > self.haystack.len() {
            return None;
        }
        let m = self.re.find_at(self.haystack, self.pos)?;
        // Advance past the match; for empty matches advance one char to
        // guarantee progress.
        self.pos = if m.end == m.start {
            next_char_boundary(self.haystack, m.end)
        } else {
            m.end
        };
        Some(m)
    }
}

fn next_char_boundary(s: &str, mut i: usize) -> usize {
    i += 1;
    while i < s.len() && !s.is_char_boundary(i) {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, hay: &str) -> Option<(usize, usize)> {
        Regex::new(pat).unwrap().find(hay).map(|m| (m.start, m.end))
    }

    #[test]
    fn literal_match() {
        assert_eq!(m("cookie", "the cookie jar"), Some((4, 10)));
        assert_eq!(m("cookie", "no biscuits"), None);
    }

    #[test]
    fn dot_and_classes() {
        assert_eq!(m("c.t", "a cat sat"), Some((2, 5)));
        assert_eq!(m("[0-9]+", "uid=4281;"), Some((4, 8)));
        assert_eq!(m("[^ ]+", "  word  "), Some((2, 6)));
        assert!(Regex::new("\\d{4}").unwrap().is_match("year 2017"));
    }

    #[test]
    fn escapes() {
        assert_eq!(
            m("\\d+\\.\\d+\\.\\d+\\.\\d+", "ip=93.184.216.34;"),
            Some((3, 16))
        );
        assert!(Regex::new("\\w+").unwrap().is_match("snake_case"));
        assert!(Regex::new("\\s").unwrap().is_match("a b"));
        assert!(!Regex::new("\\S").unwrap().is_match("  \t "));
    }

    #[test]
    fn alternation_and_groups() {
        let re = Regex::new("(screen|viewport)=\\d+x\\d+").unwrap();
        assert!(re.is_match("screen=1920x1080"));
        assert!(re.is_match("viewport=1366x768"));
        assert!(!re.is_match("window=1x1"));
    }

    #[test]
    fn quantifiers() {
        assert_eq!(m("ab*c", "ac"), Some((0, 2)));
        assert_eq!(m("ab*c", "abbbc"), Some((0, 5)));
        assert_eq!(m("ab+c", "ac"), None);
        assert_eq!(m("ab?c", "abc"), Some((0, 3)));
        assert_eq!(m("a{3}", "aaaa"), Some((0, 3)));
        assert_eq!(m("a{2,}", "aaaa"), Some((0, 4)));
        assert_eq!(m("a{2,3}", "aaaa"), Some((0, 3)));
        assert_eq!(m("a{2,3}", "a"), None);
    }

    #[test]
    fn anchors() {
        assert_eq!(m("^uid", "uid=1"), Some((0, 3)));
        assert_eq!(m("^uid", "xuid=1"), None);
        assert_eq!(m("\\d+$", "build 42"), Some((6, 8)));
        assert_eq!(m("\\d+$", "42 builds"), None);
        assert_eq!(m("^$", ""), Some((0, 0)));
    }

    #[test]
    fn leftmost_longest_of_leftmost() {
        // Leftmost match wins even if a later match is longer.
        assert_eq!(m("a+", "baaa aaaa"), Some((1, 4)));
        // Greedy: at the leftmost start, the longest end is reported.
        assert_eq!(m("a|aa|aaa", "aaa"), Some((0, 3)));
    }

    #[test]
    fn case_insensitive() {
        let re = Regex::new_ci("user-agent").unwrap();
        assert!(re.is_match("User-Agent: Mozilla"));
        assert!(re.is_match("USER-AGENT: x"));
        let ci_class = Regex::new_ci("[a-z]+").unwrap();
        assert_eq!(ci_class.find_str("ABC"), Some("ABC"));
    }

    #[test]
    fn find_iter_non_overlapping() {
        let re = Regex::new("\\d+").unwrap();
        let hits: Vec<_> = re
            .find_iter("a1b22c333")
            .map(|m| (m.start, m.end))
            .collect();
        assert_eq!(hits, vec![(1, 2), (3, 5), (6, 9)]);
    }

    #[test]
    fn empty_match_progress() {
        let re = Regex::new("x*").unwrap();
        // Must terminate despite matching the empty string everywhere.
        let n = re.find_iter("abc").count();
        assert_eq!(n, 4); // before a, b, c, and at end
    }

    #[test]
    fn unicode_haystack() {
        let re = Regex::new("naïve").unwrap();
        assert!(re.is_match("a naïve plan"));
        let any = Regex::new("n.ïve").unwrap();
        assert!(any.is_match("naïve"));
    }

    #[test]
    fn linear_time_on_pathological_pattern() {
        // (a*)*b-style patterns kill backtrackers; the Pike VM shrugs.
        let re = Regex::new("(a*)*b").unwrap();
        let hay = "a".repeat(2000);
        assert!(!re.is_match(&hay));
    }

    #[test]
    fn compile_errors() {
        assert!(Regex::new("(").is_err());
        assert!(Regex::new(")").is_err());
        assert!(Regex::new("[a-").is_err());
        assert!(Regex::new("a{2,1}").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new("a{999999999999}").is_err());
    }

    #[test]
    fn regex_types_stay_send_and_sync() {
        // The analysis stage shares one PiiLibrary across scoped threads.
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<Regex>();
        assert_sync::<RegexSet>();
    }

    #[test]
    fn fast_paths_agree_with_the_pike_vm() {
        let specs = [
            ("cookie", false),
            ("(^|[&?])ua=Mozilla/\\d", false),
            ("user-agent", true),
            ("^uid=", false),
            ("\\d+$", false),
            ("(a|b)*c", false),
            ("[^x]y", false),
        ];
        let hays = [
            "",
            "cookie=1",
            "the cookie jar",
            "?ua=Mozilla/5",
            "ua=Chrome",
            "User-AGENT: x",
            "uid=42",
            "xuid=42",
            "build 42",
            "42 builds",
            "abababc",
            "zy xy",
            "naïve café",
        ];
        for (pat, ci) in specs {
            let re = Regex::compile(pat, ci).unwrap();
            for hay in hays {
                assert_eq!(
                    re.is_match(hay),
                    re.pikevm_is_match(hay),
                    "is_match disagrees: {pat:?} on {hay:?}"
                );
                assert_eq!(
                    re.find(hay),
                    re.pikevm_find(hay),
                    "find disagrees: {pat:?} on {hay:?}"
                );
            }
        }
    }

    #[test]
    fn cache_stats_record_scans_and_cached_transitions() {
        let re = Regex::new("ab+c").unwrap();
        assert!(re.is_match("xxabbbc"));
        assert!(re.is_match("xxabbbc"));
        let stats = re.cache_stats();
        assert!(stats.scans >= 2, "{stats:?}");
        assert!(stats.states >= 2, "{stats:?}");
        assert!(stats.trans_cached > 0, "{stats:?}");
    }

    #[test]
    fn prefilter_rejects_are_not_dfa_scans() {
        let re = Regex::new("needle[0-9]+").unwrap();
        assert!(!re.is_match("haystack"));
        assert!(!re.is_match("more hay"));
        assert_eq!(re.cache_stats().scans, 0);
        assert!(re.is_match("a needle7"));
        assert_eq!(re.cache_stats().scans, 1);
    }

    #[test]
    fn the_overflowing_scan_counts_as_scan_and_fallback() {
        // `[ab]*a[ab]{10}c` needs 2^11 DFA states on `a`/`b` text, past
        // the cache's cap, and the text never lets it stop early.
        let re = Regex::new("[ab]*a[ab]{10}c").unwrap();
        let mut x = 0x9e37_79b9_u32;
        let hay: String = (0..3000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                if x & 1 == 0 {
                    'a'
                } else {
                    'b'
                }
            })
            .collect();
        for (checks, want) in [(1, (1, 1)), (2, (1, 2))] {
            assert_eq!(re.is_match(&hay), re.pikevm_is_match(&hay));
            let stats = re.cache_stats();
            assert_eq!((stats.scans, stats.fallbacks), want, "after {checks}");
        }
    }

    #[test]
    fn clone_resets_the_dfa_cache_but_not_decisions() {
        let re = Regex::new("needle[0-9]+").unwrap();
        assert!(re.is_match("xx needle7"));
        let clone = re.clone();
        assert_eq!(clone.cache_stats().scans, 0);
        assert!(clone.is_match("xx needle7"));
        assert!(!clone.is_match("xx needle"));
    }

    #[test]
    fn realistic_pii_patterns() {
        // The kinds of patterns the analysis crate actually uses.
        let ipv4 = Regex::new("(\\d{1,3}\\.){3}\\d{1,3}").unwrap();
        assert!(ipv4.is_match("client=10.0.0.1"));
        let cookie = Regex::new_ci("(^|[;&? ])(uid|userid|client_id|cid)=[A-Za-z0-9-]+").unwrap();
        assert!(cookie.is_match("sid=1; uid=abc-123"));
        let dom = Regex::new_ci("<(html|body|div|head)[ >]").unwrap();
        assert!(dom.is_match("<HTML ><body >"));
    }
}
