//! Lazy DFA over the Thompson NFA.
//!
//! The Pike VM pays the full epsilon-closure cost at every input position.
//! This module trades that for a classic lazy-determinization scheme, the
//! same shape production regex engines use for their fast path:
//!
//! * The input alphabet is compressed into **equivalence classes** derived
//!   from every character-class boundary in the program (plus `\n` for
//!   `.`). Two characters in the same class are indistinguishable to every
//!   instruction, so transitions are computed per class, not per char.
//! * A DFA state is the epsilon-closed set of *consuming* NFA
//!   instructions, plus two acceptance flags (match reached now / match
//!   reached if the current position were end-of-input). States are
//!   interned; transitions are filled into a dense `state × class` table
//!   **on first use** and cached for every later scan.
//! * The cache is **bounded**: once [`MAX_STATES`] distinct states exist
//!   the DFA poisons itself and every subsequent call reports a fallback,
//!   letting the caller run the Pike VM instead. Decisions never change —
//!   only which engine computes them.
//!
//! The DFA answers existence only (`is_match`). Span resolution stays on
//! the Pike VM, which keeps leftmost-longest semantics in exactly one
//! place.

use crate::literal::{find_lit, Prefilter};
use crate::nfa::{Inst, Program};

/// State-cache bound; beyond this the DFA falls back to the Pike VM.
const MAX_STATES: usize = 512;

/// Sentinel for a transition not yet computed.
const UNSET: u32 = u32::MAX;

/// Counters describing one regex's lazy-DFA cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DfaStats {
    /// Interned DFA states (including the two seed states).
    pub states: u64,
    /// Input equivalence classes for this pattern.
    pub classes: u64,
    /// Transitions computed lazily (cache misses).
    pub trans_computed: u64,
    /// Transitions served from the dense cache.
    pub trans_cached: u64,
    /// DFA scans started (a prefilter reject starts none).
    pub scans: u64,
    /// Checks answered by the Pike VM instead: the scan that overflowed
    /// the state cache (counted in `scans` too), then every later check,
    /// which the poisoned cache refuses.
    pub fallbacks: u64,
}

impl DfaStats {
    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &DfaStats) {
        self.states += other.states;
        self.classes += other.classes;
        self.trans_computed += other.trans_computed;
        self.trans_cached += other.trans_cached;
        self.scans += other.scans;
        self.fallbacks += other.fallbacks;
    }
}

/// Character equivalence classes for one program.
#[derive(Debug)]
struct CharClasses {
    /// Sorted interval starts; class `i` covers `[starts[i], starts[i+1])`.
    starts: Vec<u32>,
    /// A representative character per class (`None` when the interval
    /// contains no valid scalar value — then no input maps to it either).
    reps: Vec<Option<char>>,
    /// Precomputed classes for ASCII inputs.
    ascii: [u16; 128],
}

impl CharClasses {
    fn build(prog: &Program) -> CharClasses {
        let mut starts: Vec<u32> = vec![0, '\n' as u32, '\n' as u32 + 1];
        for inst in &prog.insts {
            if let Inst::Class(class, _) = inst {
                for &(lo, hi) in &class.ranges {
                    starts.push(lo as u32);
                    starts.push(hi as u32 + 1);
                }
            }
        }
        starts.retain(|&s| s <= char::MAX as u32);
        starts.sort_unstable();
        starts.dedup();
        let mut reps = Vec::with_capacity(starts.len());
        for (i, &s) in starts.iter().enumerate() {
            let end = starts.get(i + 1).copied().unwrap_or(char::MAX as u32 + 1);
            // The first valid scalar in [s, end); skip the surrogate gap.
            let candidate = if (0xD800..0xE000).contains(&s) {
                0xE000
            } else {
                s
            };
            reps.push(if candidate < end {
                char::from_u32(candidate)
            } else {
                None
            });
        }
        let mut ascii = [0u16; 128];
        let classes = CharClasses {
            starts,
            reps,
            ascii,
        };
        for (b, slot) in ascii.iter_mut().enumerate() {
            *slot = classes.lookup_slow(b as u32);
        }
        CharClasses { ascii, ..classes }
    }

    fn lookup_slow(&self, cp: u32) -> u16 {
        (self.starts.partition_point(|&s| s <= cp) - 1) as u16
    }

    #[inline]
    fn lookup(&self, ch: char) -> u16 {
        let cp = ch as u32;
        if cp < 128 {
            self.ascii[cp as usize]
        } else {
            self.lookup_slow(cp)
        }
    }

    fn len(&self) -> usize {
        self.starts.len()
    }
}

/// One interned DFA state.
#[derive(Debug)]
struct State {
    /// Epsilon-closed consuming instructions, sorted.
    ips: Vec<u32>,
    /// A match ends exactly where this state was entered.
    accepting: bool,
    /// A match would end here if this position were end-of-input.
    accepting_at_end: bool,
}

/// The lazy DFA for one compiled program.
#[derive(Debug)]
pub(crate) struct LazyDfa {
    classes: CharClasses,
    states: Vec<State>,
    /// Intern map: (ips, flags) → state id.
    map: std::collections::HashMap<(Vec<u32>, bool, bool), u32>,
    /// Dense `state × class` table, lazily filled.
    trans: Vec<u32>,
    seed0: u32,
    seed_mid: u32,
    anchored: bool,
    poisoned: bool,
    stats: DfaStats,
}

impl LazyDfa {
    pub fn new(prog: &Program) -> LazyDfa {
        let classes = CharClasses::build(prog);
        let mut dfa = LazyDfa {
            classes,
            states: Vec::new(),
            map: std::collections::HashMap::new(),
            trans: Vec::new(),
            seed0: 0,
            seed_mid: 0,
            anchored: prog.anchored_start,
            poisoned: false,
            stats: DfaStats::default(),
        };
        dfa.stats.classes = dfa.classes.len() as u64;
        // Both seeds fit well under MAX_STATES; interning cannot fail here.
        dfa.seed0 = dfa
            .intern(prog, &[prog.start], true)
            .expect("seed state under cap");
        dfa.seed_mid = dfa
            .intern(prog, &[prog.start], false)
            .expect("seed state under cap");
        dfa
    }

    /// Epsilon closure of `gen`: the consuming instructions reachable
    /// without input, and whether `Match` was reached on the way.
    fn closure(prog: &Program, gen: &[usize], at_start: bool, at_end: bool) -> (Vec<u32>, bool) {
        let mut marks = vec![false; prog.insts.len()];
        let mut stack: Vec<usize> = gen.to_vec();
        let mut consuming: Vec<u32> = Vec::new();
        let mut matched = false;
        while let Some(ip) = stack.pop() {
            if std::mem::replace(&mut marks[ip], true) {
                continue;
            }
            match &prog.insts[ip] {
                Inst::Jmp(nx) => stack.push(*nx),
                Inst::Split(a, b) => {
                    stack.push(*a);
                    stack.push(*b);
                }
                Inst::StartAnchor(nx) => {
                    if at_start {
                        stack.push(*nx);
                    }
                }
                Inst::EndAnchor(nx) => {
                    if at_end {
                        stack.push(*nx);
                    }
                }
                Inst::Match => matched = true,
                Inst::Class(..) | Inst::AnyChar(..) => consuming.push(ip as u32),
            }
        }
        consuming.sort_unstable();
        consuming.dedup();
        (consuming, matched)
    }

    /// Interns the state generated by `gen`; `None` once the cap is hit.
    fn intern(&mut self, prog: &Program, gen: &[usize], at_start: bool) -> Option<u32> {
        let (ips, accepting) = Self::closure(prog, gen, at_start, false);
        let (_, accepting_at_end) = Self::closure(prog, gen, at_start, true);
        let key = (ips, accepting, accepting_at_end);
        if let Some(&sid) = self.map.get(&key) {
            return Some(sid);
        }
        if self.states.len() >= MAX_STATES {
            self.poisoned = true;
            return None;
        }
        let sid = self.states.len() as u32;
        self.states.push(State {
            ips: key.0.clone(),
            accepting,
            accepting_at_end,
        });
        self.trans
            .extend(std::iter::repeat_n(UNSET, self.classes.len()));
        self.map.insert(key, sid);
        self.stats.states = self.states.len() as u64;
        Some(sid)
    }

    /// Cached transition from `sid` over input class `cls`.
    fn transition(&mut self, prog: &Program, sid: u32, cls: u16) -> Option<u32> {
        let idx = sid as usize * self.classes.len() + cls as usize;
        let cached = self.trans[idx];
        if cached != UNSET {
            self.stats.trans_cached += 1;
            return Some(cached);
        }
        self.stats.trans_computed += 1;
        let rep = self.classes.reps[cls as usize];
        let mut gen: Vec<usize> = Vec::new();
        if let Some(rep) = rep {
            for &ip in &self.states[sid as usize].ips {
                match &prog.insts[ip as usize] {
                    Inst::Class(class, nx) if class.matches(rep) => gen.push(*nx),
                    Inst::AnyChar(nx) if rep != '\n' => gen.push(*nx),
                    _ => {}
                }
            }
        }
        // Unanchored search: every position is also a fresh start.
        if !self.anchored {
            gen.push(prog.start);
        }
        let next = self.intern(prog, &gen, false)?;
        self.trans[idx] = next;
        Some(next)
    }

    /// Existence check from byte offset `from` (absolute anchors).
    ///
    /// `Some(bool)` is the definitive answer; `None` means the state cache
    /// overflowed and the caller must rerun on the Pike VM. The optional
    /// `prefix` literal re-synchronizes the scan whenever it falls back to
    /// the bare unanchored seed state (no thread in flight ⇒ the next
    /// match can only start at the next prefix occurrence).
    pub fn is_match(
        &mut self,
        prog: &Program,
        haystack: &str,
        from: usize,
        prefix: Option<(&str, bool)>,
    ) -> Option<bool> {
        if self.poisoned {
            self.stats.fallbacks += 1;
            return None;
        }
        self.stats.scans += 1;
        let bytes = haystack.as_bytes();
        let mut sid = if from == 0 { self.seed0 } else { self.seed_mid };
        let mut pos = from;
        loop {
            let st = &self.states[sid as usize];
            if st.accepting {
                return Some(true);
            }
            if st.ips.is_empty() && !st.accepting_at_end {
                return Some(false);
            }
            if sid == self.seed_mid && !self.anchored {
                if let Some((lit, ci)) = prefix {
                    match find_lit(haystack, lit, ci, pos) {
                        Some(o) => pos = o,
                        // A prefixed pattern cannot match empty, and no
                        // candidate start remains.
                        None => return Some(false),
                    }
                }
            }
            if pos >= bytes.len() {
                break;
            }
            let b = bytes[pos];
            let (cls, adv) = if b < 0x80 {
                (self.classes.ascii[b as usize], 1)
            } else {
                let ch = haystack[pos..].chars().next().expect("char boundary");
                (self.classes.lookup(ch), ch.len_utf8())
            };
            pos += adv;
            sid = match self.transition(prog, sid, cls) {
                Some(s) => s,
                None => {
                    self.stats.fallbacks += 1;
                    return None;
                }
            };
        }
        let st = &self.states[sid as usize];
        Some(st.accepting || st.accepting_at_end)
    }

    pub fn stats(&self) -> DfaStats {
        self.stats
    }
}

/// Convenience wrapper used by tests: builds a fresh DFA and matches once.
#[cfg(test)]
fn dfa_match(pat: &str, ci: bool, hay: &str) -> bool {
    let ast = crate::ast::parse(pat, ci).unwrap();
    let prog = crate::nfa::compile(&ast);
    let mut dfa = LazyDfa::new(&prog);
    dfa.is_match(&prog, hay, 0, None)
        .unwrap_or_else(|| crate::vm::is_match(&prog, hay))
}

/// Re-exported so `lib.rs` can thread a prefilter through without leaking
/// `Prefilter` internals here.
pub(crate) fn prefix_of(p: &Prefilter) -> Option<(&str, bool)> {
    p.prefix.as_deref().map(|lit| (lit, p.ci))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::nfa::compile;

    fn agree(pat: &str, ci: bool, hay: &str) {
        let prog = compile(&parse(pat, ci).unwrap());
        let expected = crate::vm::is_match(&prog, hay);
        assert_eq!(
            dfa_match(pat, ci, hay),
            expected,
            "pattern {pat:?} ci={ci} hay={hay:?}"
        );
    }

    #[test]
    fn agrees_with_pike_vm_on_basics() {
        for (pat, hay) in [
            ("abc", "xxabcxx"),
            ("abc", "xxabx"),
            ("a|b", "ccc"),
            ("a|b", "cbc"),
            ("^ab", "abx"),
            ("^ab", "xab"),
            ("ab$", "xab"),
            ("ab$", "abx"),
            ("^$", ""),
            ("^$", "a"),
            ("", "anything"),
            ("a*", ""),
            ("a+", ""),
            ("(ab|cd)+x", "zzcdabx"),
            ("[a-c]{2,3}", "xbcax"),
            ("[^a]b", "ab"),
            ("[^a]b", "cb"),
            (".", "\n"),
            (".", "x"),
            ("a.c", "a\nc"),
        ] {
            agree(pat, false, hay);
        }
    }

    #[test]
    fn agrees_case_insensitively() {
        agree("mozilla/\\d", true, "User-Agent: MOZILLA/5.0");
        agree("mozilla/\\d", true, "User-Agent: Chrome/5.0");
    }

    #[test]
    fn prefix_skip_matches_plain_scan() {
        let prog = compile(&parse("needle[0-9]+", false).unwrap());
        let hay = format!("{}needle42", "hay ".repeat(200));
        let mut dfa = LazyDfa::new(&prog);
        assert_eq!(
            dfa.is_match(&prog, &hay, 0, Some(("needle", false))),
            Some(true)
        );
        let miss = "hay ".repeat(200);
        assert_eq!(
            dfa.is_match(&prog, &miss, 0, Some(("needle", false))),
            Some(false)
        );
        // The skip loop must never touch transitions for skipped bytes.
        assert!(dfa.stats().trans_computed < 40, "{:?}", dfa.stats());
    }

    #[test]
    fn transitions_are_cached_across_scans() {
        let prog = compile(&parse("ab+c", false).unwrap());
        let mut dfa = LazyDfa::new(&prog);
        dfa.is_match(&prog, "xxabbbcxx", 0, None);
        let computed_once = dfa.stats().trans_computed;
        dfa.is_match(&prog, "xxabbbcxx", 0, None);
        assert_eq!(dfa.stats().trans_computed, computed_once);
        assert!(dfa.stats().trans_cached > 0);
    }

    #[test]
    fn unicode_inputs_hit_the_slow_class_path() {
        agree("é+", false, "caféé");
        agree("é+", false, "cafe");
        agree(".", false, "é");
    }
}
