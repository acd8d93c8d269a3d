//! `RegexSet`-style multi-pattern matching.
//!
//! The PII classifier asks the same question of every message: *which* of
//! N patterns match? Each pattern is a full [`Regex`], so a set query is
//! N existence checks, each on that pattern's own fast path:
//!
//! * **Prefilter gating** — a pattern whose required literals are absent
//!   from the haystack is rejected by substring scans alone. On typical
//!   telemetry messages and URLs this leaves zero to two live patterns
//!   per query.
//! * **Per-pattern lazy DFA** — a gated-in pattern runs on its own cached
//!   DFA, whose transitions are warm after the first few messages, and
//!   which skips ahead to the pattern's prefix literal whenever no thread
//!   is in flight. Small per-pattern DFAs stay far below the state cap
//!   that a combined automaton over all patterns would strain.
//!
//! The set answers existence per pattern (no spans) as one `u64` bitmask.

use crate::{DfaStats, Error, Regex};

/// Hard cap so membership fits in a single `u64` bitmask.
const MAX_PATTERNS: usize = 64;

/// A compiled multi-pattern matcher.
#[derive(Debug, Clone)]
pub struct RegexSet {
    regexes: Vec<Regex>,
}

/// Which patterns of a [`RegexSet`] matched one haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetMatches {
    mask: u64,
    len: usize,
}

impl SetMatches {
    /// `true` if pattern `i` matched.
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.mask & (1u64 << i) != 0
    }

    /// `true` if any pattern matched.
    pub fn any(&self) -> bool {
        self.mask != 0
    }

    /// Iterates the indices of matching patterns in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        let mask = self.mask;
        (0..self.len).filter(move |i| mask & (1u64 << i) != 0)
    }
}

impl RegexSet {
    /// Compiles a set of case-sensitive patterns.
    pub fn new<I, S>(patterns: I) -> Result<RegexSet, Error>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        Self::with_specs(
            patterns
                .into_iter()
                .map(|p| (p.as_ref().to_string(), false)),
        )
    }

    /// Compiles a set where each pattern carries its own
    /// case-insensitivity flag — the PII library mixes both.
    pub fn with_specs<I>(specs: I) -> Result<RegexSet, Error>
    where
        I: IntoIterator<Item = (String, bool)>,
    {
        let mut regexes = Vec::new();
        for (pattern, ci) in specs {
            if regexes.len() >= MAX_PATTERNS {
                return Err(Error::SetTooLarge);
            }
            regexes.push(Regex::compile(&pattern, ci)?);
        }
        Ok(RegexSet { regexes })
    }

    /// Number of patterns in the set.
    pub fn len(&self) -> usize {
        self.regexes.len()
    }

    /// `true` if the set holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.regexes.is_empty()
    }

    /// Membership test: which patterns match `haystack`. Each pattern runs
    /// [`Regex::is_match`] (prefilter, then its lazy DFA).
    pub fn matches(&self, haystack: &str) -> SetMatches {
        self.mask_by(|re| re.is_match(haystack))
    }

    /// Reference path: N independent Pike-VM scans, no prefilter or DFA.
    /// Exists so tests and benches can compare the fast path against the
    /// naive shape.
    pub fn matches_reference(&self, haystack: &str) -> SetMatches {
        self.mask_by(|re| re.pikevm_is_match(haystack))
    }

    /// Lazy-DFA cache counters summed over every pattern.
    pub fn cache_stats(&self) -> DfaStats {
        let mut stats = DfaStats::default();
        for re in &self.regexes {
            stats.merge(&re.cache_stats());
        }
        stats
    }

    fn mask_by(&self, mut hit: impl FnMut(&Regex) -> bool) -> SetMatches {
        let mut mask = 0u64;
        for (i, re) in self.regexes.iter().enumerate() {
            if hit(re) {
                mask |= 1u64 << i;
            }
        }
        SetMatches {
            mask,
            len: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(pats: &[&str]) -> RegexSet {
        RegexSet::new(pats).unwrap()
    }

    #[test]
    fn reports_the_full_membership_set() {
        let s = set(&["cookie", "uid=\\d+", "screen"]);
        let m = s.matches("page?cookie=1&uid=42");
        assert!(m.contains(0));
        assert!(m.contains(1));
        assert!(!m.contains(2));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn fast_path_agrees_with_reference() {
        let s = RegexSet::with_specs(vec![
            ("mozilla/\\d".to_string(), true),
            ("(^|[&?])ip=(\\d{1,3}\\.){3}\\d{1,3}".to_string(), false),
            ("^anchored".to_string(), false),
            ("end$".to_string(), false),
            ("(a|b)+c".to_string(), false),
        ])
        .unwrap();
        for hay in [
            "",
            "User-Agent: MOZILLA/5.0",
            "x?ip=10.0.0.1&y",
            "anchored text end",
            "not at start anchored",
            "ababac",
            "the end",
            "end",
        ] {
            assert_eq!(s.matches(hay), s.matches_reference(hay), "hay = {hay:?}");
        }
    }

    #[test]
    fn prefilter_gating_never_drops_matches() {
        // Patterns with no extractable literal are always seeded.
        let s = set(&["[0-9]+", "literal"]);
        let m = s.matches("42");
        assert!(m.contains(0));
        assert!(!m.contains(1));
    }

    #[test]
    fn empty_set_matches_nothing() {
        let s = RegexSet::new(Vec::<String>::new()).unwrap();
        assert!(!s.matches("anything").any());
    }

    #[test]
    fn rejects_more_than_sixty_four_patterns() {
        let pats: Vec<String> = (0..65).map(|i| format!("p{i}")).collect();
        assert!(RegexSet::new(pats).is_err());
    }
}
