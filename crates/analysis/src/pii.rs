//! The PII / content regex library (§4.3).
//!
//! The authors "extracted all of these variables from raw network traffic
//! by manually building up a large library of regular expressions". This is
//! that library for the sockscope wire formats, running on the
//! `sockscope-redlite` engine. Classification input is raw bytes recovered
//! from real RFC 6455 frames or HTTP bodies/URLs — the ground-truth item
//! lists never reach this code path (they exist only so tests can verify
//! the classifier).

use crate::json;
use serde::{Deserialize, Serialize};
use sockscope_redlite::{Regex, RegexSet};
use sockscope_webmodel::SentItem;
use std::collections::BTreeSet;

/// Received-content classes of Table 5's bottom half.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ReceivedClass {
    /// HTML markup.
    Html,
    /// JSON document.
    Json,
    /// JavaScript code.
    JavaScript,
    /// Image bytes.
    Image,
    /// Opaque binary.
    Binary,
}

impl ReceivedClass {
    /// All classes in table order.
    pub const ALL: [ReceivedClass; 5] = [
        ReceivedClass::Html,
        ReceivedClass::Json,
        ReceivedClass::JavaScript,
        ReceivedClass::Image,
        ReceivedClass::Binary,
    ];

    /// Dense index of this class: its position in [`ReceivedClass::ALL`],
    /// without the linear scan (direct side-table subscript on aggregation
    /// hot paths).
    pub fn index(self) -> usize {
        match self {
            ReceivedClass::Html => 0,
            ReceivedClass::Json => 1,
            ReceivedClass::JavaScript => 2,
            ReceivedClass::Image => 3,
            ReceivedClass::Binary => 4,
        }
    }

    /// Table row label.
    pub fn label(self) -> &'static str {
        match self {
            ReceivedClass::Html => "HTML",
            ReceivedClass::Json => "JSON",
            ReceivedClass::JavaScript => "JavaScript",
            ReceivedClass::Image => "Image",
            ReceivedClass::Binary => "Binary",
        }
    }
}

/// Every sent-item pattern: `(item, pattern, case_insensitive)`, in the
/// order the pre-overhaul classifier checked them. Both the
/// [`RegexSet`] and the per-regex reference path compile from this table,
/// so they cannot drift apart.
const SENT_SPECS: &[(SentItem, &str, bool)] = &[
    (
        SentItem::UserAgent,
        "(user-agent: |(^|[&?])ua=)Mozilla/\\d",
        true,
    ),
    (
        SentItem::Cookie,
        "(cookie: |(^|[&?])cookie=)[^&\\n]*[A-Za-z0-9_]+=",
        true,
    ),
    (
        SentItem::Ip,
        "(^|[&?])client_ip=(\\d{1,3}\\.){3}\\d{1,3}",
        false,
    ),
    (
        SentItem::UserId,
        "(^|[&?])(user_id|client_id|account_id)=[A-Za-z0-9_-]+",
        true,
    ),
    (
        SentItem::Device,
        "(^|[&?])device=(desktop|mobile|tablet)",
        true,
    ),
    (SentItem::Screen, "(^|[&?])screen=\\d{3,4}x\\d{3,4}", false),
    (SentItem::Browser, "(^|[&?])browser=[A-Za-z]+", true),
    (
        SentItem::Viewport,
        "(^|[&?])viewport=\\d{3,4}x\\d{3,4}",
        false,
    ),
    (SentItem::ScrollPosition, "(^|[&?])scroll_y=\\d+", false),
    (
        SentItem::Orientation,
        "(^|[&?])orientation=(landscape|portrait)",
        true,
    ),
    (
        SentItem::FirstSeen,
        "(^|[&?])first_seen=\\d{4}-\\d{2}-\\d{2}",
        false,
    ),
    (
        SentItem::Resolution,
        "(^|[&?])resolution=\\d{3,4}x\\d{3,4}",
        false,
    ),
    (
        SentItem::Language,
        "(^|[&?])lang=[a-z]{2}(-[A-Z]{2})?",
        false,
    ),
    (SentItem::Dom, "(^|[&?])dom=<(!doctype |html)", true),
];

/// The compiled pattern library.
pub struct PiiLibrary {
    /// Every sent-item pattern (in [`SENT_SPECS`] order): one scan for
    /// all their required literals gates them, and each pattern left in
    /// play runs on its own lazy DFA, so a message costs one literal scan
    /// plus the few patterns that survive it.
    sent_set: RegexSet,
    /// The same patterns compiled individually — the pre-overhaul shape,
    /// kept as the reference path for differential tests.
    sent_ref: Vec<(SentItem, Regex)>,
    html: Regex,
    javascript: Regex,
    ad_image_url: Regex,
}

impl Default for PiiLibrary {
    fn default() -> Self {
        Self::new()
    }
}

impl PiiLibrary {
    /// Compiles the library. Patterns are written against the wire formats
    /// the synthetic trackers actually emit, the way the authors wrote
    /// theirs against 2017 tracker traffic.
    pub fn new() -> PiiLibrary {
        let ci = |p: &str| Regex::new_ci(p).expect("library pattern compiles");
        let sent_set = RegexSet::with_specs(
            SENT_SPECS
                .iter()
                .map(|&(_, pattern, ci)| (pattern.to_string(), ci)),
        )
        .expect("sent-item pattern set compiles");
        let sent_ref = SENT_SPECS
            .iter()
            .map(|&(item, pattern, ci)| {
                let re = if ci {
                    Regex::new_ci(pattern)
                } else {
                    Regex::new(pattern)
                };
                (item, re.expect("library pattern compiles"))
            })
            .collect();
        PiiLibrary {
            sent_set,
            sent_ref,
            html: ci("^[ \\t]*<(!doctype |html|body|div)"),
            javascript: ci("(\\(function\\(|document\\.createElement|appendChild\\()"),
            ad_image_url: ci("\"img\":\"https?://[^\"]+\\.(jpg|jpeg|png|gif)\""),
        }
    }

    /// Classifies one *sent* payload (text form). Returns every item whose
    /// pattern matches. Newlines separate handshake headers, so patterns
    /// stay line-local where it matters.
    ///
    /// Runs on the [`RegexSet`]; agrees with
    /// [`PiiLibrary::classify_sent_text_reference`] on every input.
    pub fn classify_sent_text(&self, text: &str) -> BTreeSet<SentItem> {
        self.sent_items_in(text).collect()
    }

    /// The items [`PiiLibrary::classify_sent_text`] returns, each once and
    /// without collecting them: the allocation-free form for callers that
    /// only count.
    pub fn sent_items_in(&self, text: &str) -> impl Iterator<Item = SentItem> {
        self.sent_set.matches(text).iter().map(|i| SENT_SPECS[i].0)
    }

    /// Reference classification: one independent Pike-VM scan per pattern,
    /// exactly the pre-overhaul hot path.
    ///
    /// A test oracle: raced by `set_classification_equals_reference`,
    /// `tests/fuzz_redlite.rs` and
    /// `optimized_matchers_agree_with_their_references_on_crawl_traffic`
    /// in `tests/snapshot_regression.rs`.
    #[doc(hidden)]
    pub fn classify_sent_text_reference(&self, text: &str) -> BTreeSet<SentItem> {
        self.sent_ref
            .iter()
            .filter(|(_, re)| re.pikevm_is_match(text))
            .map(|&(item, _)| item)
            .collect()
    }

    /// Classifies sent bytes: undecodable payloads are
    /// [`SentItem::Binary`]; text goes through the pattern set. The paper
    /// could not decode ~1% of WebSocket payloads — this is that bucket.
    pub fn classify_sent(&self, payload: &[u8]) -> BTreeSet<SentItem> {
        match std::str::from_utf8(payload) {
            Ok(text) => self.classify_sent_text(text),
            Err(_) => {
                let mut out = BTreeSet::new();
                out.insert(SentItem::Binary);
                out
            }
        }
    }

    /// Classifies one *received* payload.
    pub fn classify_received(&self, payload: &[u8]) -> Option<ReceivedClass> {
        if payload.is_empty() {
            return None;
        }
        match std::str::from_utf8(payload) {
            Ok(text) => {
                let trimmed = text.trim_start();
                if self.html.is_match(text) {
                    Some(ReceivedClass::Html)
                } else if trimmed.starts_with('{') || trimmed.starts_with('[') {
                    // Must actually validate — "{oops" is not JSON. The
                    // zero-alloc scanner replaces a full
                    // `serde_json::Value` parse here; a unit differential
                    // pins the two to the same accept set.
                    if json::is_valid(trimmed) {
                        Some(ReceivedClass::Json)
                    } else if self.javascript.is_match(text) {
                        Some(ReceivedClass::JavaScript)
                    } else {
                        None
                    }
                } else if self.javascript.is_match(text) {
                    Some(ReceivedClass::JavaScript)
                } else {
                    None
                }
            }
            Err(_) => {
                let png = payload.len() >= 8 && &payload[1..4] == b"PNG";
                let jpeg = payload.starts_with(&[0xFF, 0xD8, 0xFF]);
                if png || jpeg {
                    Some(ReceivedClass::Image)
                } else {
                    Some(ReceivedClass::Binary)
                }
            }
        }
    }

    /// Extracts Lockerdome-style ad-image URLs and captions from a payload
    /// (§4.3 / Figure 4): returns `(img_url, caption)` pairs.
    pub fn extract_ad_urls(&self, text: &str) -> Vec<(String, String)> {
        let Ok(value) = serde_json::from_str::<serde_json::Value>(text) else {
            // Fall back to the regex for non-JSON carriers.
            return self
                .ad_image_url
                .find_iter(text)
                .map(|m| (text[m.start..m.end].to_string(), String::new()))
                .collect();
        };
        let mut out = Vec::new();
        if let Some(ads) = value.get("ads").and_then(|a| a.as_array()) {
            for ad in ads {
                let img = ad.get("img").and_then(|v| v.as_str()).unwrap_or("");
                let caption = ad.get("caption").and_then(|v| v.as_str()).unwrap_or("");
                if !img.is_empty() {
                    out.push((img.to_string(), caption.to_string()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sockscope_webmodel::{payload::Payload, ReceivedItem, ValueContext};

    fn lib() -> PiiLibrary {
        PiiLibrary::new()
    }

    #[test]
    fn received_class_index_matches_position_in_all() {
        for (i, class) in ReceivedClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i, "{class:?}");
        }
    }

    /// The crucial roundtrip: items → rendered wire text → classified items.
    #[test]
    fn classifier_recovers_rendered_items() {
        let lib = lib();
        let ctx = ValueContext::deterministic(2024);
        let items = [
            SentItem::UserAgent,
            SentItem::Cookie,
            SentItem::Ip,
            SentItem::UserId,
            SentItem::Device,
            SentItem::Screen,
            SentItem::Browser,
            SentItem::Viewport,
            SentItem::ScrollPosition,
            SentItem::Orientation,
            SentItem::FirstSeen,
            SentItem::Resolution,
            SentItem::Language,
        ];
        let payload = ctx.render_sent(&items);
        let got = lib.classify_sent(payload.as_bytes());
        for item in items {
            assert!(got.contains(&item), "{item:?} not recovered");
        }
        assert!(!got.contains(&SentItem::Dom));
        assert!(!got.contains(&SentItem::Binary));
    }

    #[test]
    fn dom_payload_detected() {
        let lib = lib();
        let mut ctx = ValueContext::deterministic(1);
        ctx.dom_html = "<html><body><input value=\"secret\"></body></html>".into();
        let payload = ctx.render_sent(&[SentItem::Dom]);
        let got = lib.classify_sent(payload.as_bytes());
        assert!(got.contains(&SentItem::Dom));
    }

    #[test]
    fn binary_payload_detected() {
        let lib = lib();
        let ctx = ValueContext::deterministic(1);
        let payload = ctx.render_sent(&[SentItem::Binary, SentItem::Cookie]);
        let got = lib.classify_sent(payload.as_bytes());
        assert_eq!(got.into_iter().collect::<Vec<_>>(), vec![SentItem::Binary]);
    }

    #[test]
    fn handshake_headers_classified() {
        let lib = lib();
        let handshake = "GET /socket HTTP/1.1\r\nHost: ws.zopim.com\r\nUser-Agent: Mozilla/5.0 (X11) Chrome/57.0\r\nCookie: uid=42; _ga=GA1.2.3.4\r\n\r\n";
        let got = lib.classify_sent_text(handshake);
        assert!(got.contains(&SentItem::UserAgent));
        assert!(got.contains(&SentItem::Cookie));
        assert!(!got.contains(&SentItem::UserId));
    }

    #[test]
    fn cookie_value_does_not_fake_user_id() {
        let lib = lib();
        // "uid=" inside a cookie is a cookie, not a "User ID" field.
        let got = lib.classify_sent_text("cookie=uid=deadbeef; _ga=GA1.2.3");
        assert!(got.contains(&SentItem::Cookie));
        assert!(!got.contains(&SentItem::UserId));
        // A real user-id field, conversely:
        let got2 = lib.classify_sent_text("user_id=client_0000ab12");
        assert!(got2.contains(&SentItem::UserId));
    }

    #[test]
    fn received_classes_roundtrip() {
        let lib = lib();
        let ctx = ValueContext::deterministic(5);
        let cases = [
            (vec![ReceivedItem::Html], Some(ReceivedClass::Html)),
            (vec![ReceivedItem::Json], Some(ReceivedClass::Json)),
            (
                vec![ReceivedItem::JavaScript],
                Some(ReceivedClass::JavaScript),
            ),
            (vec![ReceivedItem::ImageData], Some(ReceivedClass::Image)),
            (vec![ReceivedItem::Binary], Some(ReceivedClass::Binary)),
            (vec![ReceivedItem::AdUrls], Some(ReceivedClass::Json)),
        ];
        for (items, expect) in cases {
            let payload = ctx.render_received(&items, "x.example");
            let got = lib.classify_received(payload.as_bytes());
            assert_eq!(got, expect, "{items:?}");
        }
        assert_eq!(lib.classify_received(b""), None);
    }

    #[test]
    fn json_must_parse() {
        let lib = lib();
        assert_eq!(lib.classify_received(b"{broken json"), None);
        assert_eq!(
            lib.classify_received(b"{\"ok\": true}"),
            Some(ReceivedClass::Json)
        );
    }

    #[test]
    fn ad_url_extraction_matches_figure4() {
        let lib = lib();
        let ctx = ValueContext::deterministic(5);
        let payload = ctx.render_received(&[ReceivedItem::AdUrls], "lockerdome.com");
        let Payload::Text(text) = payload else {
            panic!("ad payload is text")
        };
        let ads = lib.extract_ad_urls(&text);
        assert_eq!(ads.len(), 3);
        assert!(ads[0].0.contains("cdn1.lockerdome.com"));
        assert!(ads.iter().any(|(_, c)| c.contains("Diet Soda")));
    }

    #[test]
    fn plain_text_is_unclassified() {
        let lib = lib();
        assert_eq!(lib.classify_received(b"pong"), None);
        assert!(lib.classify_sent(b"heartbeat 1234").is_empty());
    }

    /// The `RegexSet` path and the per-regex reference must agree on every
    /// payload shape the synthetic trackers can emit.
    #[test]
    fn set_classification_equals_reference() {
        let lib = lib();
        let ctx = ValueContext::deterministic(77);
        let mut corpus: Vec<String> = vec![
            String::new(),
            "heartbeat 1234".into(),
            "GET /socket HTTP/1.1\r\nHost: ws.zopim.com\r\nUser-Agent: Mozilla/5.0 (X11) Chrome/57.0\r\nCookie: uid=42; _ga=GA1.2.3.4\r\n\r\n".into(),
            "cookie=uid=deadbeef; _ga=GA1.2.3".into(),
            "user_id=client_0000ab12&screen=1920x1080&lang=en-US".into(),
            "?ua=Mozilla/5&device=tablet&orientation=portrait".into(),
            "client_ip=10.0.0.1&scroll_y=44&first_seen=2017-11-02".into(),
            "SCREEN=1920x1080".into(), // ci vs cs must stay distinguishable
            "naïve café ☃".into(),
        ];
        for item in SentItem::ALL {
            corpus.push(match ctx.render_sent(&[item]) {
                Payload::Text(t) => t,
                Payload::Binary(_) => continue,
            });
        }
        for text in &corpus {
            assert_eq!(
                lib.classify_sent_text(text),
                lib.classify_sent_text_reference(text),
                "set vs reference diverged on {text:?}"
            );
        }
    }

    /// The zero-alloc validator must accept exactly the documents the
    /// vendored `serde_json` parser accepts — including its quirks
    /// (permissive number scan judged by `str::parse`, integer overflow as
    /// an error, signed `\u` hex via `from_str_radix`).
    #[test]
    fn json_validator_agrees_with_serde_json_parse() {
        let edge_cases: &[&str] = &[
            "{}",
            "[]",
            "null",
            " {\"a\": [1, 2.5, -3, true, null]} ",
            "{\"nested\": {\"deep\": [{}, [\"s\"]]}}",
            "{oops",
            "{x: 1}",
            "[1, 2,]",
            "{} trailing",
            "{\"a\":}",
            "[,]",
            "00",
            "-00",
            "01.5",
            "1.2.3",
            "1e5",
            "1e",
            "1-2",
            "18446744073709551615",
            "18446744073709551616",
            "-9223372036854775808",
            "-9223372036854775809",
            "\"\\u0041\"",
            "\"\\u+041\"",
            "\"\\ud83d\\ude00\"",
            "\"\\ud83d\"",
            "\"\\udc00\"",
            "\"\\q\"",
            "\"unterminated",
            "\"ctrl\u{1}char\"",
            "\"naïve ☃\"",
            "[\"k\\\"ey\\\\\"]",
            "tru",
            "truex",
            "[nullx]",
            "",
            "   ",
            "{\"a\" : 1 , \"b\" : 2}",
        ];
        for text in edge_cases {
            assert_eq!(
                json::is_valid(text),
                serde_json::from_str::<serde_json::Value>(text).is_ok(),
                "validator vs parser diverged on {text:?}"
            );
        }
        // Seeded random JSON-ish soup: mutate valid documents and splice
        // fragments so both accept and reject paths are exercised.
        let mut seed = 0x5EED_1E57_u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        const FRAGMENTS: &[&str] = &[
            "{",
            "}",
            "[",
            "]",
            ",",
            ":",
            "\"a\"",
            "1",
            "-",
            "2.5",
            "null",
            "true",
            "false",
            " ",
            "\\u0041",
            "\"",
            "\\",
            "e5",
            "{\"k\":1}",
            "[0]",
        ];
        for _ in 0..4000 {
            let n = 1 + (next() as usize % 8);
            let mut text = String::new();
            for _ in 0..n {
                text.push_str(FRAGMENTS[next() as usize % FRAGMENTS.len()]);
            }
            assert_eq!(
                json::is_valid(&text),
                serde_json::from_str::<serde_json::Value>(&text).is_ok(),
                "validator vs parser diverged on {text:?}"
            );
        }
    }
}
