//! The filter-matching engine.

use crate::rule::{Anchor, ParsedLine, ResourceType, Rule, RuleError};
use sockscope_redlite::LiteralSet;
use sockscope_urlkit::psl::shared_registrable_domain;
use sockscope_urlkit::Url;
use std::cell::{Cell, OnceCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A request being evaluated against the lists.
#[derive(Debug, Clone)]
pub struct RequestContext<'a> {
    /// The resource URL.
    pub url: &'a Url,
    /// The page (first party) the request happens on.
    pub page: &'a Url,
    /// The resource type.
    pub resource_type: ResourceType,
}

impl RequestContext<'_> {
    /// Third-party = the resource and page second-level domains differ.
    pub fn is_third_party(&self) -> bool {
        sockscope_urlkit::origin::is_third_party(self.page, self.url)
    }
}

/// The page (first party) a page's requests are evaluated on, with what
/// rule options ask of it derived at most once for all of them: its
/// registrable domain is computed on first use and then shared by every
/// request [`Engine::evaluate_on`] decides with these facts.
#[derive(Debug, Clone)]
pub struct PageFacts<'a> {
    page: &'a Url,
    sld: OnceCell<Option<&'a str>>,
}

impl<'a> PageFacts<'a> {
    /// Facts about `page`; nothing is derived until a rule asks.
    pub fn new(page: &'a Url) -> PageFacts<'a> {
        PageFacts {
            page,
            sld: OnceCell::new(),
        }
    }

    /// The page's registrable domain; `None` for an IPv4 page.
    fn sld(&self) -> Option<&'a str> {
        *self.sld.get_or_init(|| self.page.second_level_domain())
    }
}

/// The engine's verdict for a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// A block rule matched (index into [`Engine::rules`]).
    Block(usize),
    /// An exception rule matched (overrides any block).
    Allow(usize),
    /// No rule matched.
    None,
}

impl Decision {
    /// `true` if the request would be blocked.
    pub fn is_blocked(&self) -> bool {
        matches!(self, Decision::Block(_))
    }
}

/// A compiled filter list.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    rules: Vec<Rule>,
    /// Domain-anchored rules indexed by the first hostname label sequence of
    /// their pattern, for cheap candidate lookup.
    domain_index: HashMap<String, Vec<usize>>,
    /// Rules that must be scanned for every request (pre-token-index
    /// shape; kept as the reference path for differential tests).
    generic: Vec<usize>,
    /// Generic rules keyed by one *complete* token of their pattern
    /// (adblock-style): a rule is only a candidate for URLs that contain
    /// that token as a maximal `[a-z0-9]` run. See [`choose_token`]. The
    /// keys already are FNV-1a hashes, so the map does not hash them again.
    token_index: HashMap<u64, Vec<usize>, BuildHasherDefault<IdentityHasher>>,
    /// Generic rules with no usable token but with a literal (their
    /// longest `^`-free run): `(bit in untokenized_literals, rule)`. Such a
    /// rule is a candidate only for URLs whose text contains its literal.
    untokenized_gated: Vec<(u32, usize)>,
    /// The literals of `untokenized_gated`, found in one scan per request.
    untokenized_literals: LiteralSet,
    /// Generic rules with neither a token nor a literal that fit the
    /// literal set; scanned for every request.
    untokenized: Vec<usize>,
}

/// Candidate-narrowing statistics: how many rules each index reaches.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexStats {
    /// Total compiled rules.
    pub rules: usize,
    /// Rules reachable through the domain index.
    pub domain_indexed: usize,
    /// Generic rules reachable through the token index.
    pub tokenized: usize,
    /// Generic rules with no usable token (literal-gated, or scanned every
    /// request).
    pub untokenized: usize,
}

impl Engine {
    /// Compiles a list from its text. Lines that fail to parse are returned
    /// alongside the engine (EasyList in the wild always contains a few
    /// rules outside any parser's subset; the paper's pipeline skips them).
    pub fn parse(list_text: &str) -> (Engine, Vec<(usize, RuleError)>) {
        let mut engine = Engine::default();
        let mut errors = Vec::new();
        for (lineno, line) in list_text.lines().enumerate() {
            match crate::rule::parse_line(line) {
                Ok(ParsedLine::Rule(rule)) => engine.push_rule(rule),
                Ok(ParsedLine::Ignored) => {}
                Err(e) => errors.push((lineno + 1, e)),
            }
        }
        (engine, errors)
    }

    /// Compiles multiple lists into one engine (the paper combines EasyList
    /// and EasyPrivacy).
    pub fn parse_many(lists: &[&str]) -> (Engine, Vec<(usize, RuleError)>) {
        let mut engine = Engine::default();
        let mut errors = Vec::new();
        for text in lists {
            for (lineno, line) in text.lines().enumerate() {
                match crate::rule::parse_line(line) {
                    Ok(ParsedLine::Rule(rule)) => engine.push_rule(rule),
                    Ok(ParsedLine::Ignored) => {}
                    Err(e) => errors.push((lineno + 1, e)),
                }
            }
        }
        (engine, errors)
    }

    /// Adds one rule.
    pub fn push_rule(&mut self, rule: Rule) {
        let idx = self.rules.len();
        if rule.anchor == Anchor::Domain {
            if let Some(key) = rule.parts.first().and_then(|first| domain_key(first)) {
                let key = key.to_string();
                self.rules.push(rule);
                self.domain_index.entry(key).or_default().push(idx);
                return;
            }
        }
        match choose_token(&rule) {
            Some(token) => self
                .token_index
                .entry(fnv1a(token.as_bytes()))
                .or_default()
                .push(idx),
            None => match longest_literal(&rule)
                .and_then(|lit| self.untokenized_literals.insert(lit, false))
            {
                Some(bit) => self.untokenized_gated.push((bit, idx)),
                None => self.untokenized.push(idx),
            },
        }
        self.rules.push(rule);
        self.generic.push(idx);
    }

    /// Candidate-narrowing statistics (domain/token index coverage).
    pub fn index_stats(&self) -> IndexStats {
        IndexStats {
            rules: self.rules.len(),
            domain_indexed: self.domain_index.values().map(Vec::len).sum(),
            tokenized: self.token_index.values().map(Vec::len).sum(),
            untokenized: self.untokenized_gated.len() + self.untokenized.len(),
        }
    }

    /// All compiled rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of network rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` if no rules are loaded.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Evaluates a request: exceptions beat blocks (ABP semantics).
    /// [`Engine::evaluate_on`] with facts about this one request's page
    /// and its own registrable domain.
    pub fn evaluate(&self, ctx: &RequestContext<'_>) -> Decision {
        self.evaluate_on(
            &PageFacts::new(ctx.page),
            ctx.url,
            ctx.url.second_level_domain(),
            ctx.resource_type,
        )
    }

    /// Evaluates a request for `url` on the page `page` describes; a
    /// caller deciding many requests of one page builds its
    /// [`PageFacts`] once. `url_sld` must be `url.second_level_domain()`,
    /// which such a caller can derive once per host instead of once per
    /// request.
    ///
    /// Hot path: generic rules are narrowed through the token index — only
    /// rules whose indexed token occurs in the URL are tried, plus the
    /// untokenizable remainder whose literal occurs in it (one
    /// [`LiteralSet`] scan), plus the few with no literal at all.
    /// Candidate order reproduces the reference scan (domain hits, then
    /// generic in rule order), and both narrowings are sound (a matching
    /// rule's token, and every `^`-free run of its pattern, occur in the
    /// URL text), so the decision — including the winning rule index — is
    /// identical to [`Engine::evaluate_reference`] on every request. The
    /// matcher reads the URL's own text unless it has an upper-case byte;
    /// then, and for candidates, it uses per-thread buffers that are
    /// reused, so a decision allocates nothing once they have grown.
    pub fn evaluate_on(
        &self,
        page: &PageFacts<'_>,
        url: &Url,
        url_sld: Option<&str>,
        resource_type: ResourceType,
    ) -> Decision {
        debug_assert_eq!(url_sld, url.second_level_domain(), "{url}");
        let mut scratch = SCRATCH.with(Cell::take).unwrap_or_default();
        let Scratch {
            lowered,
            candidates,
        } = &mut scratch;
        let url_text = if url.has_uppercase() {
            lowercase_text(url, lowered);
            lowered.as_str()
        } else {
            url.as_str()
        };
        let mut facts = Facts::new(page, url, url_sld, resource_type);
        candidates.clear();
        candidates.extend_from_slice(self.domain_candidates(facts.url_sld));
        let domain_hits = candidates.len();
        for_each_url_token(url_text, |hash| {
            if let Some(v) = self.token_index.get(&hash) {
                candidates.extend_from_slice(v);
            }
        });
        let present = self.untokenized_literals.matches(url_text);
        candidates.extend(
            self.untokenized_gated
                .iter()
                .filter(|&&(bit, _)| present & (1 << bit) != 0)
                .map(|&(_, rule)| rule),
        );
        candidates.extend_from_slice(&self.untokenized);
        // Restore rule order among the generic candidates so "first match
        // wins" picks the same rule the linear scan would; a token that
        // repeats in the URL adds its bucket twice.
        candidates[domain_hits..].sort_unstable();
        candidates.dedup();
        let decision = self.decide(&mut facts, url_text, candidates);
        SCRATCH.with(|s| s.set(Some(scratch)));
        decision
    }

    /// Reference evaluation: the pre-token-index shape, scanning every
    /// generic rule per request. Must agree with [`Engine::evaluate`] on
    /// every request (including the winning rule index).
    ///
    /// A test oracle: raced by `tests/fuzz_filterlist.rs`,
    /// `optimized_matchers_agree_with_their_references_on_crawl_traffic`
    /// in `tests/snapshot_regression.rs` and this module's unit tests.
    #[doc(hidden)]
    pub fn evaluate_reference(&self, ctx: &RequestContext<'_>) -> Decision {
        let mut url_text = String::new();
        lowercase_text(ctx.url, &mut url_text);
        let page = PageFacts::new(ctx.page);
        let url_sld = ctx.url.second_level_domain();
        let mut facts = Facts::new(&page, ctx.url, url_sld, ctx.resource_type);
        let mut candidates = self.domain_candidates(facts.url_sld).to_vec();
        candidates.extend_from_slice(&self.generic);
        self.decide(&mut facts, &url_text, &candidates)
    }

    /// Domain-anchored rules indexed under the request's registrable
    /// domain.
    fn domain_candidates(&self, url_sld: Option<&str>) -> &[usize] {
        url_sld
            .and_then(|sld| self.domain_index.get(sld))
            .map_or(&[], Vec::as_slice)
    }

    /// Runs the full matcher over `candidates` in order: the first
    /// matching exception wins outright, else the first matching block.
    fn decide(&self, facts: &mut Facts<'_, '_>, url_text: &str, candidates: &[usize]) -> Decision {
        let mut block: Option<usize> = None;
        for &i in candidates {
            let rule = &self.rules[i];
            if !rule_applies(rule, facts) {
                continue;
            }
            if pattern_matches(rule, url_text, facts.url) {
                if rule.exception {
                    return Decision::Allow(i);
                }
                block.get_or_insert(i);
            }
        }
        match block {
            Some(i) => Decision::Block(i),
            None => Decision::None,
        }
    }

    /// Convenience: would this request be blocked?
    pub fn blocks(&self, ctx: &RequestContext<'_>) -> bool {
        self.evaluate(ctx).is_blocked()
    }
}

/// Per-thread buffers [`Engine::evaluate`] reuses across requests.
#[derive(Default)]
struct Scratch {
    lowered: String,
    candidates: Vec<usize>,
}

thread_local! {
    /// `Cell<Option<..>>` (take/put back) rather than `RefCell`: a panic
    /// mid-decision just drops the buffers instead of poisoning the slot.
    static SCRATCH: Cell<Option<Scratch>> = const { Cell::new(None) };
}

/// The facts about one request that rule options ask for, each derived
/// at most once per decision: the request's registrable domain comes
/// from the caller (the domain index needs it), the third-party status is
/// derived on first use, and the page's facts come from the
/// [`PageFacts`] shared by the page's requests.
struct Facts<'f, 'p> {
    page: &'f PageFacts<'p>,
    url: &'f Url,
    resource_type: ResourceType,
    url_sld: Option<&'f str>,
    third_party: Option<bool>,
}

impl<'f, 'p> Facts<'f, 'p> {
    fn new(
        page: &'f PageFacts<'p>,
        url: &'f Url,
        url_sld: Option<&'f str>,
        resource_type: ResourceType,
    ) -> Facts<'f, 'p> {
        Facts {
            page,
            url,
            resource_type,
            url_sld,
            third_party: None,
        }
    }

    /// [`RequestContext::is_third_party`] from the derived domains.
    fn third_party(&mut self) -> bool {
        if let Some(known) = self.third_party {
            return known;
        }
        let third_party = match (self.page.sld(), self.url_sld) {
            (Some(page), Some(url)) => page != url,
            _ => self.page.page.host_str() != self.url.host_str(),
        };
        *self.third_party.insert(third_party)
    }
}

/// Writes the matcher's view of `url` into `out`: its text,
/// ASCII-lowercased.
fn lowercase_text(url: &Url, out: &mut String) {
    out.clear();
    out.push_str(url.as_str());
    out.make_ascii_lowercase();
}

/// Hasher for keys that already are well-mixed `u64` hashes: passes the
/// key through.
#[derive(Debug, Clone, Copy, Default)]
struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys are stored; fold anything else in FNV-1a style.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// The domain-index key of a `||` rule, from its first part: the
/// registrable domain shared by every host the rule can match. The
/// part's leading host text must stop before the part does (else it may
/// be the head of a longer label) and must name one registrable domain
/// for all hosts below it (not an IPv4 tail, not a public suffix). Rules
/// without such a key go through the generic path, which is always
/// sound.
fn domain_key(first: &str) -> Option<&str> {
    let host_len = first
        .bytes()
        .position(|b| !(b.is_ascii_alphanumeric() || matches!(b, b'.' | b'-' | b'_')))?;
    shared_registrable_domain(&first[..host_len])
}

/// `true` for characters that make up an indexable token. The URL text is
/// lowercased before tokenization, so `[a-z0-9]` covers every token char.
fn is_token_char(c: u8) -> bool {
    c.is_ascii_lowercase() || c.is_ascii_digit()
}

/// FNV-1a over the token bytes. Collisions only add false candidates —
/// every candidate is still verified by the full matcher.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Calls `f` with the hash of every maximal token run in the (lowercased)
/// URL text.
fn for_each_url_token(url_text: &str, mut f: impl FnMut(u64)) {
    let bytes = url_text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if is_token_char(bytes[i]) {
            let start = i;
            while i < bytes.len() && is_token_char(bytes[i]) {
                i += 1;
            }
            f(fnv1a(&bytes[start..i]));
        } else {
            i += 1;
        }
    }
}

/// Tokens so common in URLs that indexing on them narrows nothing.
const STOP_TOKENS: &[&str] = &["http", "https", "www", "com", "net", "org"];

/// Picks the token a generic rule is indexed under, or `None` when the
/// pattern has no usable token.
///
/// A run of token chars inside a rule part is *usable* only when the rule
/// guarantees the matched URL contains it as a **maximal** run:
///
/// * left boundary — a non-token char precedes it in the part (`^`, `.`,
///   `-`, `_`, `%`, `/`, …), or it starts the first part of a
///   start-/domain-anchored rule (the match begins at the URL start, the
///   host boundary, or right after `://` — all non-token contexts);
/// * right boundary — a non-token char follows it in the part, or it ends
///   the last part of an end-anchored rule.
///
/// Runs adjacent to a `*` wildcard are never usable (the wildcard can
/// continue the run in the URL). The longest usable run wins, preferring
/// anything over [`STOP_TOKENS`].
fn choose_token(rule: &Rule) -> Option<&str> {
    let last_part = rule.parts.len().saturating_sub(1);
    let mut best: Option<&str> = None;
    let mut best_stop: Option<&str> = None;
    for (pi, part) in rule.parts.iter().enumerate() {
        let bytes = part.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if !is_token_char(bytes[i]) {
                i += 1;
                continue;
            }
            let start = i;
            while i < bytes.len() && is_token_char(bytes[i]) {
                i += 1;
            }
            let left_ok = start > 0 || (pi == 0 && rule.anchor != Anchor::None);
            let right_ok = i < bytes.len() || (pi == last_part && rule.end_anchor);
            if !(left_ok && right_ok) {
                continue;
            }
            let run = &part[start..i];
            let slot = if STOP_TOKENS.contains(&run) {
                &mut best_stop
            } else {
                &mut best
            };
            if slot.map(str::len).unwrap_or(0) < run.len() {
                *slot = Some(run);
            }
        }
    }
    best.or(best_stop)
}

/// The longest `^`-free run of the rule's parts, if it has one. A URL
/// text the rule matches contains every such run verbatim: a part's
/// non-`^` characters match byte for byte.
fn longest_literal(rule: &Rule) -> Option<&str> {
    rule.parts
        .iter()
        .flat_map(|part| part.split('^'))
        .filter(|lit| !lit.is_empty())
        .max_by_key(|lit| lit.len())
}

/// Checks the rule's option constraints against the request.
fn rule_applies(rule: &Rule, facts: &mut Facts<'_, '_>) -> bool {
    if let Some(types) = &rule.types {
        if !types.contains(&facts.resource_type) {
            return false;
        }
    }
    if let Some(want) = rule.third_party {
        if facts.third_party() != want {
            return false;
        }
    }
    if !rule.include_domains.is_empty() || !rule.exclude_domains.is_empty() {
        let page_sld = facts.page.sld().unwrap_or_default();
        let page_host = facts.page.page.host_str();
        let hits = |d: &String| {
            *d == page_sld
                || *d == page_host
                || page_host
                    .strip_suffix(d.as_str())
                    .is_some_and(|head| head.ends_with('.'))
        };
        if !rule.include_domains.is_empty() && !rule.include_domains.iter().any(hits) {
            return false;
        }
        if rule.exclude_domains.iter().any(hits) {
            return false;
        }
    }
    true
}

/// ABP separator: anything that is not alphanumeric, `_`, `-`, `.`, `%`
/// (every non-ASCII character is one); also matches the end of the URL.
fn is_separator(c: u8) -> bool {
    !(c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b'%'))
}

/// Matches one literal part (which may contain `^` separators) against
/// `text` starting exactly at `pos`. Returns the end position.
///
/// Byte-wise: a part and a text are both UTF-8, so comparing a literal
/// character's bytes compares the character, and a `^` consumes one whole
/// text character.
fn match_part_at(part: &str, text: &str, pos: usize) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut t = pos;
    for (k, &pc) in part.as_bytes().iter().enumerate() {
        let c = match bytes.get(t) {
            Some(&c) => c,
            // '^' may match the end of the URL, but only as the final
            // pattern character.
            None => return (pc == b'^' && k + 1 == part.len()).then_some(t),
        };
        if pc == b'^' {
            if c.is_ascii() {
                if !is_separator(c) {
                    return None;
                }
                t += 1;
            } else {
                t += text[t..].chars().next()?.len_utf8();
            }
        } else if c == pc {
            t += 1;
        } else {
            return None;
        }
    }
    Some(t)
}

/// Finds the leftmost position ≥ `from` where `part` matches `text`;
/// returns its `(start, end)`. `from` must be a char boundary.
///
/// Cost follows the part, not the text: a part without `^` is one
/// literal search; a part with a literal head before its first `^` is
/// a search for that head, verified at each hit. Only a part that begins
/// with `^` is tried at every character position.
pub fn find_part(part: &str, text: &str, from: usize) -> Option<(usize, usize)> {
    if part.is_empty() {
        return Some((from, from));
    }
    // `from` past the end, or inside a character, finds nothing.
    text.get(from..)?;
    let Some(sep) = part.find('^') else {
        return find_literal(text, part, from).map(|at| (at, at + part.len()));
    };
    if sep == 0 {
        let mut start = from;
        loop {
            if let Some(end) = match_part_at(part, text, start) {
                return Some((start, end));
            }
            start += text[start..].chars().next()?.len_utf8();
        }
    }
    let head = &part[..sep];
    let step = head.chars().next().map_or(1, char::len_utf8);
    let mut start = from;
    while let Some(at) = find_literal(text, head, start) {
        if let Some(end) = match_part_at(part, text, at) {
            return Some((at, end));
        }
        start = at + step;
    }
    None
}

/// Leftmost occurrence of the non-empty `lit` in `text` at or after
/// `from`: a scan for its first byte, then a compare of the rest. Rule
/// literals are short, so this beats a substring searcher, whose set-up
/// alone costs more than most scans. A hit of a UTF-8 literal in UTF-8
/// text always starts a character.
fn find_literal(text: &str, lit: &str, from: usize) -> Option<usize> {
    let (hay, needle) = (text.as_bytes(), lit.as_bytes());
    let (&first, tail) = needle.split_first()?;
    let last = hay.len().checked_sub(needle.len())?;
    let mut at = from;
    while at <= last {
        at += hay[at..=last].iter().position(|&b| b == first)?;
        if hay[at + 1..at + needle.len()] == *tail {
            return Some(at);
        }
        at += 1;
    }
    None
}

/// Full pattern match of `rule` against the lower-cased URL text.
fn pattern_matches(rule: &Rule, url_text: &str, url: &Url) -> bool {
    match rule.anchor {
        Anchor::Domain => {
            // `||pattern` matches starting at the host or any subdomain
            // boundary within the host. Hosts are lower-case once parsed.
            let host_at = url.scheme().as_str().len() + "://".len();
            let labels = url.host_str().match_indices('.').map(|(dot, _)| dot + 1);
            std::iter::once(0)
                .chain(labels)
                .any(|off| match_parts_from(rule, url_text, host_at + off, true))
        }
        Anchor::Start => match_parts_from(rule, url_text, 0, true),
        Anchor::None => {
            // Try every position for the first part.
            match_parts_from(rule, url_text, 0, false)
        }
    }
}

/// Matches the rule's wildcard-separated parts starting at `from`; if
/// `anchored`, the first part must match exactly at `from`.
fn match_parts_from(rule: &Rule, text: &str, from: usize, anchored: bool) -> bool {
    let mut pos = from;
    for (i, part) in rule.parts.iter().enumerate() {
        let first = i == 0;
        let result = if first && anchored {
            match_part_at(part, text, pos).map(|end| (pos, end))
        } else {
            find_part(part, text, pos)
        };
        match result {
            Some((_start, end)) => pos = end,
            None => return false,
        }
    }
    if rule.end_anchor {
        // Last part must reach the end of the text (a trailing '^' that
        // consumed the virtual end also qualifies).
        pos == text.len()
    } else {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn ctx<'a>(u: &'a Url, p: &'a Url, t: ResourceType) -> RequestContext<'a> {
        RequestContext {
            url: u,
            page: p,
            resource_type: t,
        }
    }

    fn engine(rules: &str) -> Engine {
        let (e, errs) = Engine::parse(rules);
        assert!(errs.is_empty(), "parse errors: {errs:?}");
        e
    }

    #[test]
    fn domain_anchor_matches_subdomains() {
        let e = engine("||doubleclick.net^");
        let page = url("http://news.example/");
        for u in [
            "http://doubleclick.net/ads",
            "https://x.doubleclick.net/pixel?id=1",
            "wss://ws.doubleclick.net/stream",
        ] {
            let u = url(u);
            assert!(e.blocks(&ctx(&u, &page, ResourceType::Script)), "{u}");
        }
        // Similar but different domain must NOT match.
        let u = url("http://notdoubleclick.net/ads");
        assert!(!e.blocks(&ctx(&u, &page, ResourceType::Script)));
        let u = url("http://doubleclick.net.evil.example/");
        assert!(!e.blocks(&ctx(&u, &page, ResourceType::Script)));
    }

    #[test]
    fn separator_semantics() {
        let e = engine("||ads.example^");
        let page = url("http://pub.example/");
        let hit = url("http://ads.example/x");
        assert!(e.blocks(&ctx(&hit, &page, ResourceType::Image)));
        let fq = url("http://ads.example:8080/x");
        assert!(e.blocks(&ctx(&fq, &page, ResourceType::Image)));
        // '^' must not match an alphanumeric continuation.
        let miss = url("http://ads.examples/x");
        assert!(!e.blocks(&ctx(&miss, &page, ResourceType::Image)));
    }

    #[test]
    fn plain_substring_and_wildcards() {
        let e = engine("/banner/*/ad_");
        let page = url("http://pub.example/");
        let hit = url("http://cdn.example/banner/728x90/ad_top.png");
        assert!(e.blocks(&ctx(&hit, &page, ResourceType::Image)));
        let miss = url("http://cdn.example/banner/728x90/spot.png");
        assert!(!e.blocks(&ctx(&miss, &page, ResourceType::Image)));
    }

    #[test]
    fn start_and_end_anchors() {
        let e = engine("|http://ads.example/track|");
        let page = url("http://pub.example/");
        assert!(e.blocks(&ctx(
            &url("http://ads.example/track"),
            &page,
            ResourceType::Xhr
        )));
        assert!(!e.blocks(&ctx(
            &url("http://ads.example/track2"),
            &page,
            ResourceType::Xhr
        )));
        assert!(!e.blocks(&ctx(
            &url("https://ads.example/track"),
            &page,
            ResourceType::Xhr
        )));
    }

    #[test]
    fn type_options() {
        let e = engine("||tracker.example^$script");
        let page = url("http://pub.example/");
        let u = url("http://tracker.example/t.js");
        assert!(e.blocks(&ctx(&u, &page, ResourceType::Script)));
        assert!(!e.blocks(&ctx(&u, &page, ResourceType::Image)));
        // The WRB in list form: an http/https-minded rule never written for
        // websockets will still match here because ABP patterns are
        // scheme-agnostic — the bug was in the extension API, not the lists.
        let ws = url("ws://tracker.example/t");
        assert!(!e.blocks(&ctx(&ws, &page, ResourceType::WebSocket)));
        let e2 = engine("||tracker.example^$websocket");
        assert!(e2.blocks(&ctx(&ws, &page, ResourceType::WebSocket)));
    }

    #[test]
    fn third_party_option() {
        let e = engine("||widget.example^$third-party");
        let third_page = url("http://pub.example/");
        let own_page = url("http://widget.example/home");
        let u = url("http://cdn.widget.example/w.js");
        assert!(e.blocks(&ctx(&u, &third_page, ResourceType::Script)));
        assert!(!e.blocks(&ctx(&u, &own_page, ResourceType::Script)));
    }

    #[test]
    fn url_text_is_the_lowercased_rendering() {
        let mut text = String::new();
        for u in [
            "http://ads.example/",
            "https://X.example:8443/A/b.JS?Q=1",
            "wss://10.0.0.1:443/s",
            "ws://10.0.0.1:0/",
            "http://x.example/é?É",
        ] {
            let u = url(u);
            lowercase_text(&u, &mut text);
            assert_eq!(text, u.to_string().to_ascii_lowercase());
            // Only a text with an upper-case byte needs the lowered copy.
            assert_eq!(u.has_uppercase(), text != u.as_str(), "{u}");
        }
        let e = engine("/ads/a.js?q=");
        let page = url("http://pub.example/");
        let upper = url("http://X.example/ADS/A.js?Q=1");
        assert!(upper.has_uppercase());
        assert!(e.blocks(&ctx(&upper, &page, ResourceType::Script)));
    }

    #[test]
    fn derived_third_party_matches_the_context_predicate() {
        let urls = [
            "http://www.pub.example/",
            "http://cdn.pub.example/a.js",
            "http://ads.example.co.uk/",
            "http://x.example.co.uk/",
            "http://a.s3.amazonaws.com/",
            "http://b.s3.amazonaws.com/",
            "http://10.0.0.1/",
            "http://10.0.0.2/",
        ]
        .map(url);
        for page in &urls {
            for u in &urls {
                let c = ctx(u, page, ResourceType::Script);
                let facts = PageFacts::new(page);
                assert_eq!(
                    Facts::new(&facts, u, u.second_level_domain(), c.resource_type).third_party(),
                    c.is_third_party(),
                    "{u} on {page}"
                );
            }
        }
    }

    #[test]
    fn domain_option() {
        let e = engine("||cdn.example/ads/$domain=news.example|sports.example");
        let u = url("http://cdn.example/ads/a.js");
        let news = url("http://www.news.example/story");
        let blog = url("http://blog.example/");
        assert!(e.blocks(&ctx(&u, &news, ResourceType::Script)));
        assert!(!e.blocks(&ctx(&u, &blog, ResourceType::Script)));
        // Below the registrable domain, a listed host matches itself and
        // its subdomains, never a longer label that merely ends in it.
        let e = engine("||cdn.example/ads/$domain=blog.pub.example");
        let sub = url("http://www.blog.pub.example/");
        let lookalike = url("http://myblog.pub.example/");
        assert!(e.blocks(&ctx(&u, &sub, ResourceType::Script)));
        assert!(!e.blocks(&ctx(&u, &lookalike, ResourceType::Script)));
    }

    #[test]
    fn exception_overrides_block() {
        let e = engine("||adnet.example^\n@@||adnet.example/allowed/$script");
        let page = url("http://pub.example/");
        let blocked = url("http://adnet.example/banner.js");
        let allowed = url("http://adnet.example/allowed/lib.js");
        assert_eq!(
            e.evaluate(&ctx(&blocked, &page, ResourceType::Script)),
            Decision::Block(0)
        );
        assert_eq!(
            e.evaluate(&ctx(&allowed, &page, ResourceType::Script)),
            Decision::Allow(1)
        );
    }

    #[test]
    fn whitelisting_mirrors_paper_footnote() {
        // Footnote 2: "these rule lists whitelist some URL patterns to avoid
        // site breakage" — exceptions must beat blocks even across lists.
        let (e, _) = Engine::parse_many(&[
            "||tracker.example^$script",
            "@@||tracker.example/jquery.js$script",
        ]);
        let page = url("http://pub.example/");
        let u = url("http://tracker.example/jquery.js");
        assert!(!e.blocks(&ctx(&u, &page, ResourceType::Script)));
    }

    #[test]
    fn case_insensitive_urls() {
        let e = engine("/AdServer/");
        let page = url("http://pub.example/");
        let u = url("http://cdn.example/adserver/x.gif");
        assert!(e.blocks(&ctx(&u, &page, ResourceType::Image)));
    }

    #[test]
    fn empty_engine_blocks_nothing() {
        let e = Engine::default();
        let page = url("http://pub.example/");
        let u = url("http://anything.example/x");
        assert_eq!(
            e.evaluate(&ctx(&u, &page, ResourceType::Script)),
            Decision::None
        );
    }

    /// The token index must never change a decision — not even the
    /// winning rule index — relative to the linear reference scan.
    #[test]
    fn token_index_is_a_pure_accelerator() {
        let list = "\
||doubleclick.net^
/banner/*/ad_
@@||adnet.example/allowed/$script
||adnet.example^
/AdServer/
-advert-
track.gif?
_300x250.
$websocket,domain=pub.example
|http://ads.example/track|
||cdn.example/ads/$domain=news.example|sports.example
@@/banner/*/ad_allowed
^pixel^
*tail_anchor|
";
        let e = engine(list);
        let pages = [
            url("http://pub.example/"),
            url("http://news.example/story"),
            url("http://adnet.example/home"),
        ];
        let urls = [
            "http://doubleclick.net/ads",
            "https://x.doubleclick.net/pixel?id=1",
            "http://cdn.example/banner/728x90/ad_top.png",
            "http://cdn.example/banner/728x90/ad_allowed",
            "http://adnet.example/allowed/lib.js",
            "http://adnet.example/banner.js",
            "http://cdn.example/adserver/x.gif",
            "http://x.example/-advert-/a",
            "http://x.example/track.gif?uid=1",
            "http://x.example/img_300x250.png",
            "ws://collector.example/s",
            "http://ads.example/track",
            "http://cdn.example/ads/a.js",
            "http://x.example/a/pixel/b",
            "http://x.example/some/tail_anchor",
            "http://clean.example/index.html",
        ];
        let types = [
            ResourceType::Script,
            ResourceType::Image,
            ResourceType::WebSocket,
        ];
        for page in &pages {
            for u in urls {
                let u = url(u);
                for t in types {
                    let c = ctx(&u, page, t);
                    assert_eq!(
                        e.evaluate(&c),
                        e.evaluate_reference(&c),
                        "diverged on {u} ({t:?}) from {page}"
                    );
                }
            }
        }
        let stats = e.index_stats();
        assert!(stats.tokenized > 0, "{stats:?}");
        assert_eq!(
            stats.rules,
            stats.domain_indexed + stats.tokenized + stats.untokenized,
            "{stats:?}"
        );
    }

    #[test]
    fn wildcard_adjacent_runs_are_not_tokens() {
        // "/banner/*/ad_": "banner" is bounded by slashes (usable), but
        // "ad_"'s run "ad" is left-bounded by '/' and right-bounded by
        // '_' — while "*tail" style runs must stay out of the index.
        let e = engine("*banner_tail");
        let stats = e.index_stats();
        assert_eq!(stats.tokenized, 0, "{stats:?}");
        assert_eq!(stats.untokenized, 1, "{stats:?}");
    }

    #[test]
    fn untokenized_rules_are_gated_by_their_literal() {
        let e = engine("*adximg_tail\n*pop^feed\n$websocket,domain=pub.example\n*^");
        assert_eq!(e.untokenized_gated.len(), 2);
        assert_eq!(e.untokenized.len(), 2);
        let page = url("http://pub.example/");
        for (u, want) in [
            ("http://x.example/a/adximg_tail", Decision::Block(0)),
            ("http://x.example/a/adximg_tai", Decision::Block(3)),
            ("http://x.example/pop/feed", Decision::Block(1)),
            ("http://x.example/popfeed", Decision::Block(3)),
        ] {
            let u = url(u);
            let c = ctx(&u, &page, ResourceType::Image);
            assert_eq!(e.evaluate(&c), want, "{u}");
            assert_eq!(e.evaluate_reference(&c), want, "{u}");
        }
    }

    #[test]
    fn page_facts_are_shared_across_requests() {
        let e = engine("||cdn.example^$third-party\n/ads/$domain=pub.example");
        for page in [
            "http://www.pub.example/",
            "http://cdn.example/",
            "http://10.0.0.1/",
        ] {
            let page = url(page);
            let facts = PageFacts::new(&page);
            for u in [
                "http://cdn.example/x.js",
                "http://pub.example/ads/a.js",
                "http://10.0.0.1/ads/",
            ] {
                let u = url(u);
                let c = ctx(&u, &page, ResourceType::Script);
                assert_eq!(
                    e.evaluate_on(&facts, &u, u.second_level_domain(), c.resource_type),
                    e.evaluate(&c),
                    "{u} on {page}"
                );
            }
        }
    }

    /// Asserts the rule blocks `u` through both evaluators.
    fn assert_blocked_both_ways(e: &Engine, u: &str) {
        let page = url("http://pub.example/");
        let u = url(u);
        let c = ctx(&u, &page, ResourceType::Script);
        assert_eq!(e.evaluate(&c), Decision::Block(0), "{u}");
        assert_eq!(e.evaluate_reference(&c), Decision::Block(0), "{u}");
    }

    #[test]
    fn ipv4_domain_rule_matches_ipv4_hosts() {
        // An IPv4 host has no registrable domain, so the rule cannot be
        // found through the domain index.
        let e = engine("||10.0.0.1^");
        assert_blocked_both_ways(&e, "http://10.0.0.1/x.js");
        assert_eq!(e.index_stats().domain_indexed, 0);
        let page = url("http://pub.example/");
        let other = url("http://10.0.0.11/x.js");
        assert!(!e.blocks(&ctx(&other, &page, ResourceType::Script)));
    }

    #[test]
    fn public_suffix_domain_rule_matches_every_registrable_domain_below() {
        // `ads.co.uk` registers at itself, not at the rule's `co.uk`.
        let e = engine("||co.uk^");
        assert_blocked_both_ways(&e, "http://ads.co.uk/x.js");
        assert_blocked_both_ways(&e, "http://www.shop.co.uk/x.js");
        // Likewise a suffix that a longer public suffix extends.
        let e = engine("||amazonaws.com^");
        assert_blocked_both_ways(&e, "http://bucket.s3.amazonaws.com/x.js");
        // A rule whose host text may stop mid-label.
        let e = engine("||ads.exam*/x.js");
        assert_blocked_both_ways(&e, "http://ads.example.com/x.js");
        // Registrable-domain rules still go through the domain index.
        let e = engine("||ads.example.co.uk^");
        assert_eq!(e.index_stats().domain_indexed, 1);
        assert_blocked_both_ways(&e, "http://x.ads.example.co.uk/x.js");
    }

    #[test]
    fn websocket_only_rule_via_bare_options() {
        // uBlock-era mitigation rules looked like `*$websocket,domain=…`.
        let e = engine("$websocket,domain=pub.example");
        let page = url("http://pub.example/");
        let ws = url("ws://collector.example/s");
        assert!(e.blocks(&ctx(&ws, &page, ResourceType::WebSocket)));
        let other_page = url("http://other.example/");
        assert!(!e.blocks(&ctx(&ws, &other_page, ResourceType::WebSocket)));
    }
}
