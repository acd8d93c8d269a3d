//! Rendering typed payload items to concrete wire text/bytes.
//!
//! The generator decides *what* a tracker sends ([`SentItem`]s); this module
//! decides *how it looks on the wire*. The shapes mimic what the paper's
//! regex library had to cope with: query-string pairs, JSON-ish blobs,
//! headers, serialized DOMs, and opaque binary.

use crate::items::{ReceivedItem, SentItem};
use std::fmt::Write as _;

/// A rendered payload: text or binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// UTF-8 text (sent as a WS text frame / HTTP body).
    Text(String),
    /// Binary (sent as a WS binary frame).
    Binary(Vec<u8>),
}

impl Payload {
    /// Byte view of the payload.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            Payload::Text(s) => s.as_bytes(),
            Payload::Binary(b) => b,
        }
    }

    /// Text view, if this is a text payload.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Payload::Text(s) => Some(s),
            Payload::Binary(_) => None,
        }
    }
}

/// Per-visit concrete values used when rendering payload items.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValueContext {
    /// Browser User-Agent string.
    pub user_agent: String,
    /// Cookie header value.
    pub cookie: String,
    /// Client IPv4 address.
    pub ip: String,
    /// Site-assigned user identifier.
    pub user_id: String,
    /// Device type/family.
    pub device: String,
    /// Physical screen `WxH`.
    pub screen: (u32, u32),
    /// Browser type/family.
    pub browser: String,
    /// Viewport `WxH`.
    pub viewport: (u32, u32),
    /// Current scroll offset in px.
    pub scroll: u32,
    /// `landscape` / `portrait`.
    pub orientation: String,
    /// Cookie-creation date (ISO), the paper's "First Seen" field.
    pub first_seen: String,
    /// Display resolution `WxH`.
    pub resolution: (u32, u32),
    /// `navigator.language`.
    pub language: String,
    /// Serialized page DOM (session-replay exfiltration payloads).
    pub dom_html: String,
}

impl ValueContext {
    /// Builds a fully deterministic context from a seed. Two equal seeds
    /// yield identical wire bytes, which the reproducibility tests rely on.
    pub fn deterministic(seed: u64) -> ValueContext {
        let mut ctx = ValueContext::default();
        ctx.reseed(seed);
        ctx
    }

    /// Rewrites every field in place to exactly what
    /// [`ValueContext::deterministic`]`(seed)` holds, `dom_html` emptied,
    /// keeping the strings' buffers: the browser reseeds one context per
    /// visit instead of building a new one.
    pub fn reseed(&mut self, seed: u64) {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        };
        fn set(field: &mut String, args: std::fmt::Arguments<'_>) {
            field.clear();
            let _ = field.write_fmt(args);
        }
        // The draws below run in a fixed order; every value depends on it.
        let chrome_major = 50 + (next() % 10);
        let screens = [
            (1920u32, 1080u32),
            (1366, 768),
            (1440, 900),
            (2560, 1440),
            (1280, 800),
        ];
        let screen = screens[(next() % screens.len() as u64) as usize];
        let langs = ["en-US", "en-GB", "de-DE", "fr-FR", "pt-BR", "ja-JP"];
        let language = langs[(next() % langs.len() as u64) as usize];
        let devices = [
            "Desktop/Mac",
            "Desktop/Windows",
            "Desktop/Linux",
            "Mobile/Android",
            "Mobile/iOS",
        ];
        let device = devices[(next() % devices.len() as u64) as usize];
        let uid = next();
        let (a, b, c, d) = (
            10 + next() % 200,
            next() % 256,
            next() % 256,
            1 + next() % 254,
        );
        let day = 1 + next() % 28;
        let month = 1 + next() % 12;
        let (ga_client, ga_time) = (next() % 1_000_000_000, next() % 2_000_000_000);
        let user_id = next() & 0xFFFF_FFFF_FFFF;
        let scroll = (next() % 4000) as u32;

        set(
            &mut self.user_agent,
            format_args!(
                "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/{chrome_major}.0.3029.110 Safari/537.36"
            ),
        );
        set(
            &mut self.cookie,
            format_args!("uid={uid:016x}; _ga=GA1.2.{ga_client}.{ga_time}"),
        );
        set(&mut self.ip, format_args!("{a}.{b}.{c}.{d}"));
        set(&mut self.user_id, format_args!("client_{user_id:012x}"));
        set(&mut self.device, format_args!("{device}"));
        self.screen = screen;
        set(
            &mut self.browser,
            format_args!("Chrome/Blink {chrome_major}"),
        );
        self.viewport = (screen.0 - 40, screen.1.saturating_sub(120));
        self.scroll = scroll;
        let orientation = if screen.0 >= screen.1 {
            "landscape"
        } else {
            "portrait"
        };
        set(&mut self.orientation, format_args!("{orientation}"));
        set(
            &mut self.first_seen,
            format_args!("2016-{month:02}-{day:02}T12:00:00Z"),
        );
        self.resolution = screen;
        set(&mut self.language, format_args!("{language}"));
        self.dom_html.clear();
    }

    /// Renders the given sent-items as one message payload.
    ///
    /// If `items` contains [`SentItem::Binary`], the payload is an opaque
    /// binary blob (the ~1% of sockets the authors could not decode);
    /// otherwise it is a query-string-style text payload whose keys the
    /// analyzer's regex library recognizes.
    pub fn render_sent(&self, items: &[SentItem]) -> Payload {
        if items.contains(&SentItem::Binary) {
            // Opaque, deliberately not valid UTF-8 and not base64.
            let mut blob = vec![0x00, 0xFF, 0xFE, 0x01];
            blob.extend(self.user_id.bytes().map(|b| b ^ 0xA5));
            return Payload::Binary(blob);
        }
        let mut out = String::new();
        self.write_sent_query(items, &mut out);
        Payload::Text(out)
    }

    /// Writes the query-string form of [`ValueContext::render_sent`] into
    /// `out` without per-item allocation. Returns `false` (writing nothing)
    /// when `items` renders as a binary payload and has no text form.
    ///
    /// The bytes appended are exactly the `Payload::Text` contents
    /// `render_sent` would return — the hot path depends on that identity.
    pub fn write_sent_query(&self, items: &[SentItem], out: &mut String) -> bool {
        if items.contains(&SentItem::Binary) {
            return false;
        }
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push('&');
            }
            first = false;
        };
        for item in items {
            match item {
                SentItem::UserAgent => {
                    sep(out);
                    let _ = write!(out, "ua={}", self.user_agent);
                }
                SentItem::Cookie => {
                    sep(out);
                    let _ = write!(out, "cookie={}", self.cookie);
                }
                SentItem::Ip => {
                    sep(out);
                    let _ = write!(out, "client_ip={}", self.ip);
                }
                SentItem::UserId => {
                    sep(out);
                    let _ = write!(out, "user_id={}", self.user_id);
                }
                SentItem::Device => {
                    sep(out);
                    let _ = write!(out, "device={}", self.device);
                }
                SentItem::Screen => {
                    sep(out);
                    let _ = write!(out, "screen={}x{}", self.screen.0, self.screen.1);
                }
                SentItem::Browser => {
                    sep(out);
                    let _ = write!(out, "browser={}", self.browser);
                }
                SentItem::Viewport => {
                    sep(out);
                    let _ = write!(out, "viewport={}x{}", self.viewport.0, self.viewport.1);
                }
                SentItem::ScrollPosition => {
                    sep(out);
                    let _ = write!(out, "scroll_y={}", self.scroll);
                }
                SentItem::Orientation => {
                    sep(out);
                    let _ = write!(out, "orientation={}", self.orientation);
                }
                SentItem::FirstSeen => {
                    sep(out);
                    let _ = write!(out, "first_seen={}", self.first_seen);
                }
                SentItem::Resolution => {
                    sep(out);
                    let _ = write!(
                        out,
                        "resolution={}x{}",
                        self.resolution.0, self.resolution.1
                    );
                }
                SentItem::Language => {
                    sep(out);
                    let _ = write!(out, "lang={}", self.language);
                }
                SentItem::Dom => {
                    sep(out);
                    let _ = write!(out, "dom={}", self.dom_html);
                }
                SentItem::Binary => unreachable!("handled above"),
            }
        }
        true
    }

    /// Writes the wire bytes of [`ValueContext::render_received`] into
    /// `out` — the allocation-free form the HTTP fetch hot path uses, where
    /// the text/binary distinction doesn't matter (HTTP bodies are bytes).
    pub fn render_received_into(&self, items: &[ReceivedItem], host: &str, out: &mut Vec<u8>) {
        use std::io::Write as _;
        if items.contains(&ReceivedItem::ImageData) {
            out.extend_from_slice(&[0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A]);
            out.extend_from_slice(&[0u8; 64]);
            return;
        }
        if items.contains(&ReceivedItem::Binary) {
            out.extend_from_slice(&[0x7F, 0x00, 0xC3, 0x28, 0xA0, 0xA1]);
            return;
        }
        for item in items {
            match item {
                ReceivedItem::Html => {
                    let _ = write!(
                        out,
                        "<html><body><div class=\"widget\" data-host=\"{host}\">content</div></body></html>"
                    );
                }
                ReceivedItem::Json => {
                    let _ = write!(
                        out,
                        "{{\"status\":\"ok\",\"host\":\"{host}\",\"ts\":1492041600}}"
                    );
                }
                ReceivedItem::JavaScript => {
                    let _ = write!(
                        out,
                        "(function(){{var t=document.createElement('script');t.src='//{host}/next.js';document.head.appendChild(t);}})();"
                    );
                }
                ReceivedItem::AdUrls => {
                    let host = sockscope_urlkit::second_level_domain(host);
                    let _ = write!(
                        out,
                        "{{\"ads\":[\
{{\"img\":\"http://cdn1.{host}/creative/101.jpg\",\"caption\":\"Odd Trick To Fix Sagging Skin\",\"width\":300,\"height\":250}},\
{{\"img\":\"http://cdn1.{host}/creative/102.jpg\",\"caption\":\"Study Reveals What Just A Single Diet Soda Does To You\",\"width\":300,\"height\":250}},\
{{\"img\":\"http://cdn1.{host}/creative/103.jpg\",\"caption\":\"Win an iPad Air 2 from Addicting Games!\",\"width\":300,\"height\":250}}]}}"
                    );
                }
                ReceivedItem::ImageData | ReceivedItem::Binary => unreachable!("handled above"),
            }
        }
    }

    /// Renders a server response for the given received-items.
    pub fn render_received(&self, items: &[ReceivedItem], host: &str) -> Payload {
        // Binary classes win: image bytes / opaque binary.
        if items.contains(&ReceivedItem::ImageData) {
            // PNG magic + filler.
            let mut png = vec![0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A];
            png.extend_from_slice(&[0u8; 64]);
            return Payload::Binary(png);
        }
        if items.contains(&ReceivedItem::Binary) {
            return Payload::Binary(vec![0x7F, 0x00, 0xC3, 0x28, 0xA0, 0xA1]);
        }
        let mut out = String::new();
        for item in items {
            match item {
                ReceivedItem::Html => {
                    let _ = write!(
                        out,
                        "<html><body><div class=\"widget\" data-host=\"{host}\">content</div></body></html>"
                    );
                }
                ReceivedItem::Json => {
                    let _ = write!(
                        out,
                        "{{\"status\":\"ok\",\"host\":\"{host}\",\"ts\":1492041600}}"
                    );
                }
                ReceivedItem::JavaScript => {
                    let _ = write!(
                        out,
                        "(function(){{var t=document.createElement('script');t.src='//{host}/next.js';document.head.appendChild(t);}})();"
                    );
                }
                ReceivedItem::AdUrls => {
                    // Lockerdome-style ad metadata (Figure 4 / §4.3): URLs to
                    // creatives on an unlisted CDN host directly under the
                    // company's registrable domain (cdn1.lockerdome.com).
                    let host = sockscope_urlkit::second_level_domain(host);
                    let _ = write!(
                        out,
                        "{{\"ads\":[\
{{\"img\":\"http://cdn1.{host}/creative/101.jpg\",\"caption\":\"Odd Trick To Fix Sagging Skin\",\"width\":300,\"height\":250}},\
{{\"img\":\"http://cdn1.{host}/creative/102.jpg\",\"caption\":\"Study Reveals What Just A Single Diet Soda Does To You\",\"width\":300,\"height\":250}},\
{{\"img\":\"http://cdn1.{host}/creative/103.jpg\",\"caption\":\"Win an iPad Air 2 from Addicting Games!\",\"width\":300,\"height\":250}}]}}"
                    );
                }
                ReceivedItem::ImageData | ReceivedItem::Binary => unreachable!("handled above"),
            }
        }
        Payload::Text(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_contexts_are_reproducible() {
        let a = ValueContext::deterministic(99);
        let b = ValueContext::deterministic(99);
        let c = ValueContext::deterministic(100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn reseeding_a_dirty_context_equals_a_fresh_one() {
        let mut ctx = ValueContext::deterministic(u64::MAX);
        for seed in 0..10_000u64 {
            // Leave every string longer than any derivation writes, and a
            // page DOM from the previous visit.
            for field in [
                &mut ctx.user_agent,
                &mut ctx.cookie,
                &mut ctx.ip,
                &mut ctx.user_id,
                &mut ctx.device,
                &mut ctx.browser,
                &mut ctx.orientation,
                &mut ctx.first_seen,
                &mut ctx.language,
                &mut ctx.dom_html,
            ] {
                field.push_str(&"stale".repeat(40));
            }
            ctx.screen = (1, 2);
            ctx.viewport = (3, 4);
            ctx.scroll = 5;
            ctx.resolution = (6, 7);
            ctx.reseed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let fresh = ValueContext::deterministic(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            assert_eq!(ctx.user_agent, fresh.user_agent, "seed {seed}");
            assert_eq!(ctx.cookie, fresh.cookie, "seed {seed}");
            assert_eq!(ctx.ip, fresh.ip, "seed {seed}");
            assert_eq!(ctx.user_id, fresh.user_id, "seed {seed}");
            assert_eq!(ctx.device, fresh.device, "seed {seed}");
            assert_eq!(ctx.screen, fresh.screen, "seed {seed}");
            assert_eq!(ctx.browser, fresh.browser, "seed {seed}");
            assert_eq!(ctx.viewport, fresh.viewport, "seed {seed}");
            assert_eq!(ctx.scroll, fresh.scroll, "seed {seed}");
            assert_eq!(ctx.orientation, fresh.orientation, "seed {seed}");
            assert_eq!(ctx.first_seen, fresh.first_seen, "seed {seed}");
            assert_eq!(ctx.resolution, fresh.resolution, "seed {seed}");
            assert_eq!(ctx.language, fresh.language, "seed {seed}");
            assert_eq!(ctx.dom_html, "", "seed {seed}");
            assert_eq!(ctx, fresh, "seed {seed}");
        }
    }

    #[test]
    fn sent_rendering_contains_recognizable_keys() {
        let ctx = ValueContext::deterministic(7);
        let p = ctx.render_sent(&[
            SentItem::UserAgent,
            SentItem::Cookie,
            SentItem::Screen,
            SentItem::Language,
        ]);
        let text = p.as_text().unwrap();
        assert!(text.contains("ua=Mozilla/5.0"));
        assert!(text.contains("cookie=uid="));
        assert!(text.contains(&format!("screen={}x{}", ctx.screen.0, ctx.screen.1)));
        assert!(text.contains(&format!("lang={}", ctx.language)));
    }

    #[test]
    fn dom_payload_embeds_html() {
        let mut ctx = ValueContext::deterministic(7);
        ctx.dom_html = "<html><body><input value=\"unsent message\"></body></html>".into();
        let p = ctx.render_sent(&[SentItem::Dom]);
        assert!(p.as_text().unwrap().contains("unsent message"));
    }

    #[test]
    fn binary_item_forces_binary_payload() {
        let ctx = ValueContext::deterministic(7);
        let p = ctx.render_sent(&[SentItem::UserId, SentItem::Binary]);
        assert!(p.as_text().is_none());
        assert!(std::str::from_utf8(p.as_bytes()).is_err());
    }

    #[test]
    fn received_rendering_by_class() {
        let ctx = ValueContext::deterministic(7);
        let html = ctx.render_received(&[ReceivedItem::Html], "intercom.example");
        assert!(html.as_text().unwrap().starts_with("<html>"));
        let json = ctx.render_received(&[ReceivedItem::Json], "x.example");
        assert!(json.as_text().unwrap().starts_with('{'));
        let js = ctx.render_received(&[ReceivedItem::JavaScript], "x.example");
        assert!(js.as_text().unwrap().contains("createElement"));
        let img = ctx.render_received(&[ReceivedItem::ImageData], "x.example");
        assert_eq!(&img.as_bytes()[1..4], b"PNG");
        let bin = ctx.render_received(&[ReceivedItem::Binary], "x.example");
        assert!(std::str::from_utf8(bin.as_bytes()).is_err());
    }

    #[test]
    fn ad_urls_render_figure4_captions() {
        let ctx = ValueContext::deterministic(7);
        let p = ctx.render_received(&[ReceivedItem::AdUrls], "lockerdome.example");
        let text = p.as_text().unwrap();
        assert!(text.contains("cdn1.lockerdome.example"));
        assert!(text.contains("Odd Trick To Fix Sagging Skin"));
        assert!(text.contains("Win an iPad Air 2"));
        assert!(text.contains("\"width\":300"));
    }

    #[test]
    fn no_items_render_empty_text() {
        let ctx = ValueContext::deterministic(7);
        assert_eq!(ctx.render_sent(&[]), Payload::Text(String::new()));
    }

    #[test]
    fn streaming_renderers_match_allocating_forms() {
        let mut ctx = ValueContext::deterministic(41);
        ctx.dom_html = "<html><body>page</body></html>".into();
        // Every sent-item combination of interest, incl. the full Table 5 set.
        for items in [
            &SentItem::ALL[..],
            &[SentItem::Cookie, SentItem::UserId][..],
            &[SentItem::Dom][..],
            &[][..],
            &[SentItem::Binary][..],
        ] {
            let mut out = String::new();
            let is_text = ctx.write_sent_query(items, &mut out);
            match ctx.render_sent(items) {
                Payload::Text(t) => {
                    assert!(is_text);
                    assert_eq!(out, t);
                }
                Payload::Binary(_) => {
                    assert!(!is_text);
                    assert!(out.is_empty());
                }
            }
        }
        for items in [
            &ReceivedItem::ALL[..],
            &[ReceivedItem::Html][..],
            &[ReceivedItem::Json, ReceivedItem::JavaScript][..],
            &[ReceivedItem::AdUrls][..],
            &[ReceivedItem::ImageData][..],
            &[ReceivedItem::Binary][..],
            &[][..],
        ] {
            let mut out = Vec::new();
            ctx.render_received_into(items, "cdn.lockerdome.example", &mut out);
            assert_eq!(
                out,
                ctx.render_received(items, "cdn.lockerdome.example")
                    .as_bytes()
            );
        }
    }
}
