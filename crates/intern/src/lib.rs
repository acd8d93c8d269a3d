//! Deterministic symbol interning for the stream-fused visit pipeline.
//!
//! Crawls observe the same few strings — hostnames, URLs, eTLD+1 keys,
//! script ids — millions of times. [`Interner`] maps each distinct string
//! to a dense [`Sym`] handle backed by a single append-only arena, so the
//! hot paths compare and hash `u32`s instead of re-hashing heap strings.
//!
//! Determinism contract: symbol ids are assigned in **first-intern order**.
//! Two interners fed the same string sequence produce identical `Sym`
//! values, which is what lets interned state live inside per-shard
//! accumulators without perturbing the crawl's pinned byte-identity —
//! symbols never leak across shard boundaries; only resolved strings do.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

/// A handle to an interned string: a dense index into one [`Interner`].
///
/// `Sym`s from different interners are not comparable; the type is a plain
/// index, kept `u32` so side tables stay half the size of pointer-width
/// keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

impl Sym {
    /// The symbol's dense index, for direct side-table addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// FNV-1a, the same hash the rest of the workspace uses for deterministic
/// seeding — stable across platforms and runs, unlike `RandomState`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An arena-backed deterministic string interner.
///
/// All interned bytes live in one `String` arena; each [`Sym`] is a span
/// into it. Lookup is a pre-hashed bucket map with string-compare collision
/// handling, so pathological hash collisions degrade to a short linear
/// probe rather than a wrong answer.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    storage: String,
    spans: Vec<(u32, u32)>,
    buckets: HashMap<u64, Vec<Sym>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Creates an interner with arena capacity for roughly `bytes` of
    /// string data and `strings` distinct symbols.
    pub fn with_capacity(strings: usize, bytes: usize) -> Interner {
        Interner {
            storage: String::with_capacity(bytes),
            spans: Vec::with_capacity(strings),
            buckets: HashMap::with_capacity(strings),
        }
    }

    /// Interns `s`, returning its symbol. The first intern of each distinct
    /// string allocates arena space and assigns the next dense id; repeat
    /// interns are a hash lookup with no allocation.
    pub fn intern(&mut self, s: &str) -> Sym {
        let h = fnv1a(s.as_bytes());
        if let Some(bucket) = self.buckets.get(&h) {
            for &sym in bucket {
                if self.span_str(sym) == s {
                    return sym;
                }
            }
        }
        let start = self.storage.len() as u32;
        self.storage.push_str(s);
        let sym = Sym(self.spans.len() as u32);
        self.spans.push((start, self.storage.len() as u32));
        self.buckets.entry(h).or_default().push(sym);
        sym
    }

    /// Looks up `s` without interning it.
    pub fn get(&self, s: &str) -> Option<Sym> {
        let bucket = self.buckets.get(&fnv1a(s.as_bytes()))?;
        bucket.iter().copied().find(|&sym| self.span_str(sym) == s)
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this interner.
    pub fn resolve(&self, sym: Sym) -> &str {
        self.span_str(sym)
    }

    fn span_str(&self, sym: Sym) -> &str {
        let (start, end) = self.spans[sym.index()];
        &self.storage[start as usize..end as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total arena bytes held (distinct string data, not counting repeats).
    pub fn arena_bytes(&self) -> usize {
        self.storage.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_first_intern_ordered() {
        let mut i = Interner::new();
        assert_eq!(i.intern("a"), Sym(0));
        assert_eq!(i.intern("b"), Sym(1));
        assert_eq!(i.intern("a"), Sym(0));
        assert_eq!(i.intern("c"), Sym(2));
        assert_eq!(i.len(), 3);
        assert_eq!(i.resolve(Sym(1)), "b");
    }

    #[test]
    fn same_sequence_same_symbols() {
        let words = ["x.example", "y.example", "x.example", "", "z.example"];
        let mut a = Interner::new();
        let mut b = Interner::with_capacity(8, 64);
        let syms_a: Vec<Sym> = words.iter().map(|w| a.intern(w)).collect();
        let syms_b: Vec<Sym> = words.iter().map(|w| b.intern(w)).collect();
        assert_eq!(syms_a, syms_b);
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        i.intern("present");
        assert_eq!(i.get("present"), Some(Sym(0)));
        assert_eq!(i.get("absent"), None);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn empty_string_is_a_valid_symbol() {
        let mut i = Interner::new();
        let e = i.intern("");
        assert_eq!(i.resolve(e), "");
        assert_eq!(i.intern(""), e);
    }

    #[test]
    fn arena_holds_each_string_once() {
        let mut i = Interner::new();
        for _ in 0..100 {
            i.intern("tracker.example");
        }
        assert_eq!(i.arena_bytes(), "tracker.example".len());
    }
}
