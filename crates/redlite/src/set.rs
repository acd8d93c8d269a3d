//! `RegexSet`-style multi-pattern matching.
//!
//! The PII classifier asks the same question of every message: *which* of
//! N patterns match? A set query is one literal scan, then an existence
//! check for each pattern that scan leaves in play:
//!
//! * **One shared prefilter** — every pattern's required literals go
//!   into one [`LiteralSet`], which reports in a single pass over the
//!   haystack which of them occur. A pattern none of whose required
//!   literals occurs cannot match and is rejected without touching its
//!   DFA (or its lock). A pattern with no required literal, or with one
//!   that did not fit in the set's 64 bits, is always left in play and
//!   checks its own prefilter. On typical telemetry messages and URLs
//!   this leaves zero to two live patterns per query.
//! * **Per-pattern lazy DFA** — a pattern left in play runs on its own
//!   cached DFA, whose transitions are warm after the first few messages,
//!   and which skips ahead to the pattern's prefix literal whenever no
//!   thread is in flight. Small per-pattern DFAs stay far below the state
//!   cap that a combined automaton over all patterns would strain.
//!
//! The set answers existence per pattern (no spans) as one `u64` bitmask.

use crate::{DfaStats, Error, LiteralSet, Regex};

/// Hard cap so membership fits in a single `u64` bitmask.
const MAX_PATTERNS: usize = 64;

/// A compiled multi-pattern matcher.
#[derive(Debug, Clone)]
pub struct RegexSet {
    regexes: Vec<Regex>,
    /// The required literals of every gated pattern.
    literals: LiteralSet,
    /// Per pattern, the bits of its required literals in `literals`; 0
    /// for a pattern the literal scan does not gate (no required literal,
    /// or one past the set's capacity), which runs [`Regex::is_match`]
    /// whole.
    gates: Vec<u64>,
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
        let mut set = RegexSet {
            regexes: Vec::new(),
            literals: LiteralSet::new(),
            gates: Vec::new(),
        };
        for (pattern, ci) in specs {
            if set.regexes.len() >= MAX_PATTERNS {
                return Err(Error::SetTooLarge);
            }
            let re = Regex::compile(&pattern, ci)?;
            let mut gate = 0u64;
            for lit in re.prefilter.required.iter().flatten() {
                match set.literals.insert(lit, re.prefilter.ci) {
                    Some(bit) => gate |= 1 << bit,
                    None => {
                        gate = 0;
                        break;
                    }
                }
            }
            set.gates.push(gate);
            set.regexes.push(re);
        }
        Ok(set)
    }

    /// Number of patterns in the set.
    pub fn len(&self) -> usize {
        self.regexes.len()
    }

    /// `true` if the set holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.regexes.is_empty()
    }

    /// Membership test: which patterns match `haystack`. One scan of the
    /// shared [`LiteralSet`] decides which gated patterns stay in play;
    /// those run their lazy DFA directly, the ungated ones
    /// [`Regex::is_match`] whole.
    pub fn matches(&self, haystack: &str) -> SetMatches {
        let present = self.literals.matches(haystack);
        self.mask_by(|i, re| match self.gates[i] {
            0 => re.is_match(haystack),
            gate => gate & present != 0 && re.is_match_admitted(haystack),
        })
    }

    /// Reference path: N independent Pike-VM scans, no prefilter or DFA.
    ///
    /// A test oracle: raced by `fast_path_agrees_with_reference`,
    /// `literals_past_the_sixty_fourth_admit_their_pattern` and
    /// `tests/fuzz_redlite.rs`.
    #[doc(hidden)]
    pub fn matches_reference(&self, haystack: &str) -> SetMatches {
        self.mask_by(|_, re| re.pikevm_is_match(haystack))
    }

    /// Lazy-DFA cache counters summed over every pattern.
    pub fn cache_stats(&self) -> DfaStats {
        let mut stats = DfaStats::default();
        for re in &self.regexes {
            stats.merge(&re.cache_stats());
        }
        stats
    }

    fn mask_by(&self, mut hit: impl FnMut(usize, &Regex) -> bool) -> SetMatches {
        let mut mask = 0u64;
        for (i, re) in self.regexes.iter().enumerate() {
            if hit(i, re) {
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
    fn literals_past_the_sixty_fourth_admit_their_pattern() {
        // Five 16-branch alternations need 80 literals; the last patterns
        // are left ungated and still answer through their own prefilter.
        let pats: Vec<String> = (0..5)
            .map(|p| {
                let branches: Vec<String> = (0..16).map(|b| format!("p{p}b{b}x")).collect();
                format!("({})=", branches.join("|"))
            })
            .collect();
        let s = set(&pats.iter().map(String::as_str).collect::<Vec<_>>());
        assert!(s.gates.contains(&0));
        for hay in ["", "p0b0x=", "p4b15x=", "p4b15x", "p3b9x=&p1b2x="] {
            assert_eq!(s.matches(hay), s.matches_reference(hay), "hay = {hay:?}");
        }
        assert!(s.matches("p4b15x=").contains(4));
    }

    #[test]
    fn literal_rejects_take_no_dfa_scan() {
        let s = set(&["cookie=", "uid=\\d+"]);
        assert!(!s.matches("nothing here").any());
        assert_eq!(s.cache_stats().scans, 0);
        assert!(s.matches("uid=7").contains(1));
        assert_eq!(s.cache_stats().scans, 1);
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
