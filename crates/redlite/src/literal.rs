//! Literal prefilters extracted from the pattern AST.
//!
//! Before the NFA machinery runs at all, two cheap facts about a pattern
//! let most haystacks be rejected (or most of a haystack be skipped) with
//! nothing but substring scans:
//!
//! * **Required literals** — a set `S` of strings such that *every* match
//!   must contain at least one element of `S` inside its span. If no
//!   element of `S` occurs in the haystack, the pattern cannot match and
//!   neither the DFA nor the Pike VM needs to start.
//! * **Prefix literal** — a string every match must *start* with. The
//!   leftmost possible match start is therefore the leftmost occurrence of
//!   the prefix, so the scan can jump straight there (and the lazy DFA can
//!   re-synchronize to the next occurrence whenever it falls back to its
//!   bare start state).
//!
//! Extraction is conservative: whenever a node's contribution cannot be
//! proven (alternations without common structure, `{0,…}` repeats, negated
//! or multi-char classes), the corresponding filter is simply absent and
//! matching falls through to the engines. Case-insensitive patterns store
//! lowercased literals and search with an ASCII-case-folding scan.
//!
//! [`LiteralSet`] answers the required-literal question for many patterns
//! at once: one pass over the haystack reports which of up to 64
//! literals occur. The `RegexSet` and the filter engine's untokenized
//! rules both gate on it.

use crate::ast::{Ast, CharClass};

/// Longest literal kept; longer runs are truncated (a substring of a
/// required literal is itself required, so truncation stays sound).
const MAX_LIT_LEN: usize = 24;
/// Largest required-literal set; beyond this the filter is dropped.
const MAX_REQUIRED: usize = 16;

/// The compiled prefilter for one pattern.
#[derive(Debug, Clone, Default)]
pub(crate) struct Prefilter {
    /// Every match contains at least one of these literals (when `Some`).
    pub required: Option<Vec<String>>,
    /// Every match starts with this literal (when `Some`).
    pub prefix: Option<String>,
    /// Literals are lowercased; search must fold ASCII case.
    pub ci: bool,
}

impl Prefilter {
    /// Extracts both filters from a parsed pattern.
    pub fn from_ast(ast: &Ast, ci: bool) -> Prefilter {
        let required = required_literals(ast).filter(|s| !s.is_empty());
        let mut prefix = String::new();
        collect_prefix(ast, &mut prefix);
        truncate_on_char_boundary(&mut prefix, MAX_LIT_LEN);
        Prefilter {
            required,
            prefix: if prefix.is_empty() {
                None
            } else {
                Some(prefix)
            },
            ci,
        }
    }

    /// `true` if the haystack (from `from`) can possibly contain a match.
    pub fn admits(&self, haystack: &str, from: usize) -> bool {
        match &self.required {
            None => true,
            Some(lits) => lits
                .iter()
                .any(|lit| find_lit(haystack, lit, self.ci, from).is_some()),
        }
    }

    /// Leftmost possible match start at or after `from`: the next prefix
    /// occurrence when a prefix literal exists, `from` otherwise. `None`
    /// means a prefix exists but never occurs again — no match is possible.
    pub fn earliest_start(&self, haystack: &str, from: usize) -> Option<usize> {
        match &self.prefix {
            None => Some(from),
            Some(p) => find_lit(haystack, p, self.ci, from),
        }
    }
}

/// If the class matches exactly one character (or exactly one ASCII letter
/// in both cases, as the case-insensitive compiler emits), returns that
/// character lowercased.
fn single_char(class: &CharClass) -> Option<char> {
    if class.negated {
        return None;
    }
    let mut ranges = class.ranges.clone();
    ranges.sort_unstable();
    ranges.dedup();
    match ranges.as_slice() {
        [(lo, hi)] if lo == hi => Some(*lo),
        // The case-insensitive widening turns `a` into {A, a}.
        [(a, b), (c, d)]
            if a == b && c == d && a.is_ascii_uppercase() && *c == a.to_ascii_lowercase() =>
        {
            Some(*c)
        }
        _ => None,
    }
}

fn truncate_on_char_boundary(s: &mut String, max: usize) {
    if s.len() > max {
        let mut cut = max;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        s.truncate(cut);
    }
}

/// Computes the required-literal set: `Some(S)` means every match contains
/// at least one element of `S`; `None` means no such guarantee was found.
fn required_literals(ast: &Ast) -> Option<Vec<String>> {
    match ast {
        Ast::Class(c) => single_char(c).map(|ch| vec![ch.to_string()]),
        Ast::Empty | Ast::AnyChar | Ast::StartAnchor | Ast::EndAnchor => None,
        Ast::Concat(items) => {
            // Any one item's requirement suffices; prefer the candidate
            // whose weakest literal is longest. Maximal runs of single
            // chars across adjacent items form longer literals.
            let mut best: Option<Vec<String>> = None;
            let mut run = String::new();
            let consider = |cand: Option<Vec<String>>, best: &mut Option<Vec<String>>| {
                if let Some(cand) = cand {
                    if score(&cand) > best.as_deref().map(score).unwrap_or(0) {
                        *best = Some(cand);
                    }
                }
            };
            for item in items {
                if let Ast::Class(c) = item {
                    if let Some(ch) = single_char(c) {
                        if run.len() < MAX_LIT_LEN {
                            run.push(ch);
                        }
                        continue;
                    }
                }
                if !run.is_empty() {
                    consider(Some(vec![std::mem::take(&mut run)]), &mut best);
                }
                consider(required_literals(item), &mut best);
            }
            if !run.is_empty() {
                consider(Some(vec![run]), &mut best);
            }
            best
        }
        Ast::Alt(branches) => {
            // Every branch must guarantee a literal; the union is required.
            let mut union: Vec<String> = Vec::new();
            for branch in branches {
                let lits = required_literals(branch)?;
                for lit in lits {
                    if !union.contains(&lit) {
                        union.push(lit);
                    }
                }
                if union.len() > MAX_REQUIRED {
                    return None;
                }
            }
            Some(union)
        }
        Ast::Repeat { node, min, .. } => {
            if *min >= 1 {
                required_literals(node)
            } else {
                None
            }
        }
    }
}

/// Score of a candidate set: the length of its weakest literal (a set is
/// only as selective as its shortest member).
fn score(lits: &[String]) -> usize {
    lits.iter().map(String::len).min().unwrap_or(0)
}

/// Appends the literal every match must start with; stops at the first
/// node whose leading text is not an exact single character.
fn collect_prefix(ast: &Ast, out: &mut String) {
    match ast {
        Ast::Class(c) => {
            if let Some(ch) = single_char(c) {
                out.push(ch);
            }
        }
        Ast::Concat(items) => {
            for (i, item) in items.iter().enumerate() {
                // A leading `^` does not consume text; skip it.
                if i == 0 && matches!(item, Ast::StartAnchor) {
                    continue;
                }
                let before = out.len();
                let exact = exact_prefix_item(item, out);
                if !exact || out.len() == before || out.len() >= MAX_LIT_LEN {
                    return;
                }
            }
        }
        // Only the first mandatory copy is a guaranteed prefix unless the
        // repeat is exact, and one copy is plenty for a prefilter.
        Ast::Repeat { node, min, .. } if *min >= 1 => collect_prefix(node, out),
        _ => {}
    }
}

/// Appends `item`'s text to `out` if the item matches exactly one fixed
/// string (so the prefix may continue past it). Returns `false` when the
/// prefix must stop after whatever was appended.
fn exact_prefix_item(item: &Ast, out: &mut String) -> bool {
    match item {
        Ast::Class(c) => match single_char(c) {
            Some(ch) => {
                out.push(ch);
                true
            }
            None => false,
        },
        Ast::Repeat { node, min, max } => {
            if *min == 0 {
                return false;
            }
            let before = out.len();
            if let Ast::Class(c) = node.as_ref() {
                if let Some(ch) = single_char(c) {
                    for _ in 0..(*min).min(MAX_LIT_LEN as u32) {
                        out.push(ch);
                    }
                    return *max == Some(*min) && out.len() > before;
                }
            }
            false
        }
        _ => false,
    }
}

/// Finds the leftmost occurrence of `lit` in `haystack[from..]`, returned
/// as an absolute byte offset. `ci` folds ASCII case byte-wise (literals
/// are stored lowercased). Occurrences of a valid-UTF-8 needle in valid
/// UTF-8 text always fall on char boundaries.
///
/// Public (with [`find_lit_scalar`]) so the differential fuzz suite can
/// race the SWAR skip loop against the byte-at-a-time reference.
pub fn find_lit(haystack: &str, lit: &str, ci: bool, from: usize) -> Option<usize> {
    let hay = haystack.as_bytes();
    let needle = lit.as_bytes();
    if from > hay.len() {
        return None;
    }
    if needle.is_empty() {
        return Some(from);
    }
    if hay.len() < needle.len() {
        return None;
    }
    // Both branches skip to the next candidate first byte, then compare
    // the rest in place: no substring-searcher set-up per call.
    let first = needle[0];
    let (lo, hi) = if ci {
        (first.to_ascii_lowercase(), first.to_ascii_uppercase())
    } else {
        (first, first)
    };
    let last = hay.len() - needle.len();
    let mut i = from;
    while i <= last {
        let pos = i + find_byte2(&hay[i..], lo, hi)?;
        if pos > last {
            return None;
        }
        let cand = &hay[pos..pos + needle.len()];
        let hit = if ci {
            cand.eq_ignore_ascii_case(needle)
        } else {
            cand == needle
        };
        if hit {
            return Some(pos);
        }
        i = pos + 1;
    }
    None
}

/// The obviously-correct byte-at-a-time reference form of [`find_lit`]:
/// candidate-compare at every offset, no prefilter, no SWAR. The
/// differential fuzz target races the two on random haystacks/needles.
pub fn find_lit_scalar(haystack: &str, lit: &str, ci: bool, from: usize) -> Option<usize> {
    let hay = haystack.as_bytes();
    let needle = lit.as_bytes();
    if from > hay.len() {
        return None;
    }
    if needle.is_empty() {
        return Some(from);
    }
    if hay.len() < needle.len() {
        return None;
    }
    for i in from..=hay.len() - needle.len() {
        let cand = &hay[i..i + needle.len()];
        let hit = if ci {
            cand.eq_ignore_ascii_case(needle)
        } else {
            cand == needle
        };
        if hit {
            return Some(i);
        }
    }
    None
}

/// Which of up to [`LiteralSet::CAPACITY`] literals occur in a haystack,
/// answered by one left-to-right scan rather than one search per literal.
///
/// Each literal is anchored on its least common byte, by a byte order
/// measured on crawled URL text, and a 256-entry table maps every byte
/// to the literals anchored on it. The scan does one table lookup per
/// haystack byte; only a byte that anchors some literal not yet found
/// leads to a compare of that literal in place. A case-insensitive
/// literal folds ASCII case, like [`find_lit`] with `ci`, and is anchored
/// under both cases of its anchor byte.
///
/// The answer is a `u64` with bit `i` set when the `i`-th inserted
/// literal occurs; it equals asking [`find_lit_scalar`] once per literal.
///
/// ```
/// use sockscope_redlite::LiteralSet;
/// let mut set = LiteralSet::new();
/// let ua = set.insert("mozilla/", true).unwrap();
/// let uid = set.insert("uid=", false).unwrap();
/// let hits = set.matches("ua=MOZILLA/5.0&x=1");
/// assert!(hits & (1 << ua) != 0);
/// assert!(hits & (1 << uid) == 0);
/// ```
#[derive(Debug, Clone)]
pub struct LiteralSet {
    lits: Vec<SetLiteral>,
    /// `bucket_of[b]` is 0 when no literal is anchored on byte `b`, else
    /// one past the index of `b`'s bucket in `buckets`.
    bucket_of: Box<[u8; 256]>,
    buckets: Vec<Vec<AnchoredAt>>,
    /// Bits of the empty literals, which occur in every haystack.
    empty: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct SetLiteral {
    bytes: Box<[u8]>,
    ci: bool,
}

/// One literal's entry in its anchor byte's bucket.
#[derive(Debug, Clone, Copy)]
struct AnchoredAt {
    /// Bit index of the literal.
    lit: u8,
    /// Offset of the anchor byte within the literal.
    offset: usize,
}

impl Default for LiteralSet {
    fn default() -> LiteralSet {
        LiteralSet {
            lits: Vec::new(),
            bucket_of: Box::new([0; 256]),
            buckets: Vec::new(),
            empty: 0,
        }
    }
}

impl LiteralSet {
    /// Most literals a set holds: one bit each in a `u64`.
    pub const CAPACITY: usize = 64;

    /// An empty set.
    pub fn new() -> LiteralSet {
        LiteralSet::default()
    }

    /// Number of distinct literals held.
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// `true` if the set holds no literal.
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// Adds `lit` (folding ASCII case when `ci`) and returns its bit index.
    /// A literal already held with the same case mode keeps its index.
    /// `None` when the set is full: the caller must then treat the
    /// literal as present in every haystack.
    pub fn insert(&mut self, lit: &str, ci: bool) -> Option<u32> {
        let entry = SetLiteral {
            bytes: lit.as_bytes().into(),
            ci,
        };
        if let Some(i) = self.lits.iter().position(|l| *l == entry) {
            return Some(i as u32);
        }
        if self.lits.len() >= Self::CAPACITY {
            return None;
        }
        let id = self.lits.len() as u8;
        self.lits.push(entry);
        let Some((offset, anchor)) = lit.bytes().enumerate().min_by_key(|&(_, b)| commonness(b))
        else {
            self.empty |= 1 << id;
            return Some(u32::from(id));
        };
        let at = AnchoredAt { lit: id, offset };
        if ci && anchor.is_ascii_alphabetic() {
            self.anchor(anchor.to_ascii_lowercase(), at);
            self.anchor(anchor.to_ascii_uppercase(), at);
        } else {
            self.anchor(anchor, at);
        }
        Some(u32::from(id))
    }

    fn anchor(&mut self, byte: u8, at: AnchoredAt) {
        let slot = &mut self.bucket_of[byte as usize];
        if *slot == 0 {
            self.buckets.push(Vec::new());
            // At most 128 buckets (64 literals, two cases each): fits a u8.
            *slot = self.buckets.len() as u8;
        }
        self.buckets[*slot as usize - 1].push(at);
    }

    /// Bit `i` is set when literal `i` occurs in `haystack`.
    pub fn matches(&self, haystack: &str) -> u64 {
        let all = match self.lits.len() {
            0 => return 0,
            Self::CAPACITY => u64::MAX,
            n => (1u64 << n) - 1,
        };
        let hay = haystack.as_bytes();
        let mut found = self.empty;
        for (i, &b) in hay.iter().enumerate() {
            let slot = self.bucket_of[b as usize];
            if slot == 0 {
                continue;
            }
            for at in &self.buckets[slot as usize - 1] {
                let bit = 1u64 << at.lit;
                if found & bit != 0 {
                    continue;
                }
                let lit = &self.lits[at.lit as usize];
                let Some(cand) = i
                    .checked_sub(at.offset)
                    .and_then(|start| hay.get(start..start + lit.bytes.len()))
                else {
                    continue;
                };
                let hit = if lit.ci {
                    cand.eq_ignore_ascii_case(&lit.bytes)
                } else {
                    *cand == *lit.bytes
                };
                if hit {
                    found |= bit;
                    if found == all {
                        return found;
                    }
                }
            }
        }
        found
    }
}

/// Bytes of URL text, most common first, as counted over the 3.76 MB of
/// the 54,579 `=`-bearing request URLs of a 300-site `paper` crawl: from
/// `.` (4.2 per URL) and `o` (4.1) through `=` (2.35), `_` (0.39) and
/// `-` (0.16) to `w` (0.08). Every byte left out is rarer than `w`.
/// On that corpus, anchoring on this order took ~32% less time per
/// classified URL than anchoring on the literal's last byte (`=` for most
/// PII keys) and ~18% less than a guessed frequency table. Only speed
/// depends on it, never an answer.
const COMMON_FIRST: &[u8] = b".ostec/igap=21d0ln7345869h:?fbkmu&jx_G%A;y-rw";

/// How common `b` is in URL text; 0 for a byte [`COMMON_FIRST`] leaves
/// out. A literal is anchored on its lowest-scoring byte.
fn commonness(b: u8) -> usize {
    COMMON_FIRST
        .iter()
        .position(|&c| c == b)
        .map_or(0, |i| COMMON_FIRST.len() - i)
}

/// Leftmost byte equal to `a` or `b` (the two case variants of a byte, or
/// the byte twice): the memchr-style skip loop [`find_lit`] rides. Eight
/// haystack bytes per iteration via SWAR zero-byte detection against both
/// bytes; the first flagged byte is always a true hit (borrow propagation
/// in the zero test only produces false positives *above* a true zero
/// byte), so `trailing_zeros` on the little-endian load is exact.
fn find_byte2(hay: &[u8], a: u8, b: u8) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let lower = u64::from(a).wrapping_mul(LO);
    let upper = u64::from(b).wrapping_mul(LO);
    let mut chunks = hay.chunks_exact(8);
    let mut base = 0usize;
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().expect("exact chunk"));
        let xl = w ^ lower;
        let xu = w ^ upper;
        let hit = (xl.wrapping_sub(LO) & !xl & HI) | (xu.wrapping_sub(LO) & !xu & HI);
        if hit != 0 {
            return Some(base + (hit.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&c| c == a || c == b)
        .map(|p| base + p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;

    fn filter(pat: &str, ci: bool) -> Prefilter {
        Prefilter::from_ast(&parse(pat, ci).unwrap(), ci)
    }

    #[test]
    fn literal_pattern_yields_prefix_and_required() {
        let f = filter("cookie", false);
        assert_eq!(f.prefix.as_deref(), Some("cookie"));
        assert_eq!(f.required.as_deref(), Some(&["cookie".to_string()][..]));
    }

    #[test]
    fn alternation_unions_required() {
        let f = filter("(landscape|portrait)", false);
        let req = f.required.unwrap();
        assert!(req.contains(&"landscape".to_string()));
        assert!(req.contains(&"portrait".to_string()));
        assert!(f.prefix.is_none());
    }

    #[test]
    fn concat_picks_longest_run() {
        let f = filter("user_id=[A-Za-z0-9_-]+", false);
        assert_eq!(f.prefix.as_deref(), Some("user_id="));
        assert_eq!(f.required.as_deref(), Some(&["user_id=".to_string()][..]));
    }

    #[test]
    fn optional_head_blocks_prefix_but_not_required() {
        let f = filter("x?screen=", false);
        assert!(f.prefix.is_none());
        assert_eq!(f.required.as_deref(), Some(&["screen=".to_string()][..]));
    }

    #[test]
    fn star_branch_defeats_required() {
        assert!(filter("a|b*", false).required.is_none());
        assert!(filter("[0-9]+", false).required.is_none());
    }

    #[test]
    fn anchored_pattern_still_has_prefix() {
        let f = filter("^uid=", false);
        assert_eq!(f.prefix.as_deref(), Some("uid="));
    }

    #[test]
    fn ci_literals_lowercase_and_fold() {
        let f = filter("Mozilla/", true);
        assert_eq!(f.prefix.as_deref(), Some("mozilla/"));
        assert!(f.admits("UA: MOZILLA/5.0", 0));
        assert!(!f.admits("UA: chrome", 0));
        assert_eq!(f.earliest_start("xx MoZiLLa/", 0), Some(3));
    }

    #[test]
    fn exact_repeat_extends_prefix() {
        let f = filter("a{3}b", false);
        assert_eq!(f.prefix.as_deref(), Some("aaab"));
        // Inexact repeat stops the prefix after the mandatory copies.
        let g = filter("a{2,5}b", false);
        assert_eq!(g.prefix.as_deref(), Some("aa"));
    }

    #[test]
    fn find_lit_is_absolute_and_resumable() {
        assert_eq!(find_lit("abcabc", "abc", false, 1), Some(3));
        assert_eq!(find_lit("abcabc", "abc", false, 4), None);
        assert_eq!(find_lit("ABCabc", "abc", true, 1), Some(3));
    }

    /// Byte-at-a-time reference for the SWAR skip loop.
    fn find_lit_ci_scalar(haystack: &str, lit: &str, from: usize) -> Option<usize> {
        let hay = haystack.as_bytes();
        let needle = lit.as_bytes();
        if from > hay.len() || hay.len() < needle.len() {
            return None;
        }
        (from..=hay.len() - needle.len())
            .find(|&i| hay[i..i + needle.len()].eq_ignore_ascii_case(needle))
    }

    #[test]
    fn literal_set_reports_each_literal_like_find_lit() {
        let lits = [
            ("uid=", false),
            ("UID", true),
            ("id=", false),
            ("é", false),
            ("=", false),
            ("", false),
            ("zz", true),
        ];
        let mut set = LiteralSet::new();
        for (i, (lit, ci)) in lits.iter().enumerate() {
            assert_eq!(set.insert(lit, *ci), Some(i as u32));
        }
        // Re-inserting keeps the index; the other case mode is new.
        assert_eq!(set.insert("uid=", false), Some(0));
        assert_eq!(set.insert("uid=", true), Some(7));
        for hay in ["", "uid=1", "xUiD", "aé", "ZZ", "id", "x=uid=", "é"] {
            let want = lits
                .iter()
                .chain([("uid=", true)].iter())
                .enumerate()
                .filter(|(_, (lit, ci))| find_lit_scalar(hay, lit, *ci, 0).is_some())
                .fold(0u64, |m, (i, _)| m | 1 << i);
            assert_eq!(set.matches(hay), want, "hay={hay:?}");
        }
    }

    #[test]
    fn literal_set_holds_sixty_four() {
        let mut set = LiteralSet::new();
        for i in 0..LiteralSet::CAPACITY {
            assert_eq!(set.insert(&format!("k{i}="), false), Some(i as u32));
        }
        assert_eq!(set.insert("k64=", false), None);
        assert_eq!(set.insert("k63=", false), Some(63));
        assert_eq!(set.matches("a=1&k0=2&k63=3"), 1 | 1 << 63);
    }

    #[test]
    fn swar_ci_scan_matches_scalar_reference() {
        // Haystack mixing case flips, near-miss bytes (`@`/`` ` `` differ
        // from letters only in bit 5), DEL/0x80 boundaries, and repeats.
        let hay = "uId=@UID uid`UID=\u{7f}\u{80}xxUiD=veryLongTailuid=";
        for lit in ["uid=", "uid", "u", "x", "@", "`", "veryl", "zzz"] {
            for from in 0..=hay.len() {
                assert_eq!(
                    find_lit(hay, lit, true, from),
                    find_lit_ci_scalar(hay, lit, from),
                    "lit={lit:?} from={from}"
                );
            }
        }
    }
}
