//! The headless-browser simulator: page loading, script execution, CDP
//! event emission.
//!
//! The visit hot path is arena-backed: every transient buffer a visit
//! produces — document HTML, rendered XHR bodies, query-string URLs,
//! ground-truth slices — is bump-allocated from a per-browser
//! [`Arena`] that is reset at the start of each visit, and events borrow
//! from it ([`CdpEvent`]'s `Cow` fields). Sinks that outlive the call copy
//! out via [`CdpEvent::into_owned`]; the streaming pipeline never does.
//!
//! The rest of a visit's state follows the same discipline: the browser
//! keeps one [`ValueContext`], reseeded per visit, and one [`CookieJar`],
//! cleared per visit, instead of building new ones. Each request URL is
//! parsed once: the parse answers the extension host, then moves into the
//! event that creates the request's inclusion-tree node (`parsed_url`).

use crate::cookies::CookieJar;
use crate::events::{
    CdpEvent, CdpEventOwned, FrameId, FramePayload, Initiator, RequestId, ResourceKind, ScriptId,
    VisitSink,
};
use crate::network::{self, Direction};
use crate::webrequest::{ExtensionHost, RequestDetails};
use sockscope_arena::Arena;
use sockscope_faults::{FaultContext, FaultDecision};
use sockscope_urlkit::Url;
use sockscope_webmodel::{Action, Page, ScriptRef, SentItem, ValueContext, WebHost};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};

/// Ground truth for requests that only leak the User-Agent header.
const GROUND_UA: &[SentItem] = &[SentItem::UserAgent];

/// The 12-byte PNG stub every simulated image response carries.
const PNG_STUB: &[u8] = &[0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A, 0, 0, 0, 0];

/// Browser configuration.
#[derive(Debug, Clone)]
pub struct BrowserConfig {
    /// Master seed; all per-visit randomness (payload values, WS nonces,
    /// mask keys) derives from it.
    pub seed: u64,
    /// User-Agent string sent on every request and WS handshake. The
    /// crawler sets a valid Chrome UA "to make our crawlers look realistic"
    /// (§3.3).
    pub user_agent: String,
    /// Maximum dynamic script-include depth.
    pub max_include_depth: usize,
    /// Maximum iframe nesting depth.
    pub max_frame_depth: usize,
}

impl Default for BrowserConfig {
    fn default() -> BrowserConfig {
        BrowserConfig {
            seed: 0x5eed,
            user_agent: "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 \
                         (KHTML, like Gecko) Chrome/57.0.2987.133 Safari/537.36"
                .to_string(),
            max_include_depth: 8,
            max_frame_depth: 3,
        }
    }
}

/// Errors that abort a visit entirely (individual resource failures are
/// recorded in the event stream instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VisitError {
    /// The top-level URL did not parse.
    BadUrl(String),
    /// The top-level page does not exist.
    NotFound(String),
    /// The fault injector made the site unreachable for this attempt —
    /// the crawler's retry/backoff loop keys off this variant.
    Unreachable(String),
}

impl std::fmt::Display for VisitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VisitError::BadUrl(u) => write!(f, "unparseable URL: {u}"),
            VisitError::NotFound(u) => write!(f, "no such page: {u}"),
            VisitError::Unreachable(u) => write!(f, "site unreachable: {u}"),
        }
    }
}

impl std::error::Error for VisitError {}

/// What the fault injector did to one visit (empty on fault-free visits).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Virtual-clock ticks consumed by injected stalls during the visit.
    pub ticks: u64,
    /// Injected faults as `(url, taxonomy kind)` pairs, in event order.
    pub faults: Vec<(String, &'static str)>,
}

/// The result of one page visit: the CDP event stream plus bookkeeping.
#[derive(Debug, Clone)]
pub struct Visit {
    /// The visited page.
    pub page_url: Url,
    /// Instrumentation events in emission order, detached from the arena.
    pub events: Vec<CdpEventOwned>,
    /// Requests cancelled by extensions (URL, kind).
    pub blocked: Vec<(String, ResourceKind)>,
    /// Same-site links found on the page (crawl frontier input, §3.3).
    pub links: Vec<String>,
    /// Injected-fault bookkeeping for the failure-accounting table.
    pub faults: FaultLog,
}

impl Visit {
    /// Count of WebSocket connections successfully opened during the visit.
    pub fn websocket_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, CdpEvent::WebSocketCreated { .. }))
            .count()
    }
}

/// The non-event result of a streamed visit: everything
/// [`Browser::visit_streamed`] produces besides the events themselves,
/// which went to the sink. A [`Visit`] is exactly a `VisitSummary` plus the
/// materialized event buffer.
#[derive(Debug, Clone)]
pub struct VisitSummary {
    /// The visited page.
    pub page_url: Url,
    /// Same-site links found on the page (crawl frontier input, §3.3).
    pub links: Vec<String>,
    /// Requests cancelled by extensions (URL, kind).
    pub blocked: Vec<(String, ResourceKind)>,
    /// Injected-fault bookkeeping for the failure-accounting table.
    pub faults: FaultLog,
}

/// The simulated browser.
pub struct Browser<'h> {
    host: &'h dyn WebHost,
    extensions: ExtensionHost,
    config: BrowserConfig,
    /// Per-visit bump arena. Reset at the *start* of every visit, so an
    /// unwinding sink (supervision guard breach) leaves only garbage that
    /// the next visit clears before emitting anything; the `RefCell` guard
    /// drops during unwind and is never poisoned.
    arena: RefCell<Arena>,
    /// The per-visit state kept between visits: taken at the start of each
    /// visit and handed back at its end, so a visit torn by an unwinding
    /// sink simply loses it and the next visit starts from empty buffers.
    spare: Cell<VisitBuffers>,
}

/// Per-visit state a visit resets instead of rebuilding: the payload
/// values (reseeded per visit), the cookie jar (cleared per visit) and the
/// query-string scratch buffer.
#[derive(Default)]
struct VisitBuffers {
    ctx: ValueContext,
    jar: CookieJar,
    scratch_query: String,
}

impl<'h> Browser<'h> {
    /// Creates a browser over a web, with an extension host (use
    /// [`ExtensionHost::stock`] for the paper's measurement configuration).
    pub fn new(host: &'h dyn WebHost, extensions: ExtensionHost, config: BrowserConfig) -> Self {
        Browser {
            host,
            extensions,
            config,
            arena: RefCell::new(Arena::new()),
            spare: Cell::default(),
        }
    }

    /// The extension host in use.
    pub fn extensions(&self) -> &ExtensionHost {
        &self.extensions
    }

    /// Current visit-arena capacity in bytes — the browser's visit-to-visit
    /// high-water mark. Exposed so tests outside this crate can assert that
    /// reset-and-reuse stabilizes instead of growing without bound.
    pub fn arena_capacity(&self) -> usize {
        self.arena.borrow().capacity()
    }

    /// Visits a page: loads it, executes every script behaviour, and
    /// returns the full CDP event stream.
    pub fn visit(&self, url: &str) -> Result<Visit, VisitError> {
        self.visit_with_faults(url, None)
    }

    /// [`Browser::visit`], consulting a fault oracle when one is supplied.
    ///
    /// With `faults: None` this is byte-for-byte the fault-free visit. With
    /// an active [`FaultContext`], the page itself may be unreachable
    /// ([`VisitError::Unreachable`]), subresource fetches may die with
    /// `Network.loadingFailed`, and WebSocket sessions may fail in any of
    /// the [`FaultDecision`] ways — recorded as CDP-style error events and
    /// tallied in the returned [`Visit::faults`] log.
    pub fn visit_with_faults(
        &self,
        url: &str,
        faults: Option<&FaultContext>,
    ) -> Result<Visit, VisitError> {
        let mut events: Vec<CdpEventOwned> = Vec::new();
        let summary = self.visit_streamed(url, faults, &mut events)?;
        Ok(Visit {
            page_url: summary.page_url,
            events,
            blocked: summary.blocked,
            links: summary.links,
            faults: summary.faults,
        })
    }

    /// The streaming form of [`Browser::visit_with_faults`]: every CDP
    /// event is pushed into `sink` the moment it is emitted instead of
    /// being buffered, and only the [`VisitSummary`] is returned.
    ///
    /// Event identity: collecting into a `Vec<CdpEventOwned>` sink
    /// reproduces `Visit::events` exactly — `visit_with_faults` is
    /// implemented that way. Error contract: every [`VisitError`] is
    /// decided *before* the first event is emitted, so a sink receives no
    /// events at all for a visit that returns `Err`.
    ///
    /// Events borrow from the visit arena and are valid only for the
    /// duration of each `on_event` call (see [`VisitSink`]).
    pub fn visit_streamed(
        &self,
        url: &str,
        faults: Option<&FaultContext>,
        sink: &mut dyn VisitSink,
    ) -> Result<VisitSummary, VisitError> {
        let page_url = Url::parse(url).map_err(|_| VisitError::BadUrl(url.to_string()))?;
        let page = self
            .host
            .get_page(url)
            .ok_or_else(|| VisitError::NotFound(url.to_string()))?;
        if let Some(fc) = faults {
            if fc
                .plan_for(fnv1a(url))
                .page_unreachable(&fc.profile, fc.attempt)
            {
                return Err(VisitError::Unreachable(url.to_string()));
            }
        }

        // Reset-then-borrow: all per-visit chunks are recycled here, before
        // any allocation, so every `&'ar` handed out below is fresh.
        self.arena.borrow_mut().reset();
        let arena = self.arena.borrow();
        let VisitBuffers {
            mut ctx,
            mut jar,
            scratch_query,
        } = self.spare.take();
        ctx.reseed(self.config.seed ^ fnv1a(url));
        jar.clear();

        let mut state = VisitState {
            browser: self,
            page_url,
            sink,
            arena: &arena,
            blocked: Vec::new(),
            jar,
            ctx,
            scratch_query,
            next_request: 0,
            next_script: 0,
            next_frame: 1,
            ws_seed: self.config.seed ^ fnv1a(url).rotate_left(32),
            fault_ctx: faults.cloned(),
            fault_log: FaultLog::default(),
            ws_ordinal: 0,
            fetch_ordinal: 0,
        };
        // Session-replay payloads upload the page DOM; the document response
        // body below borrows the same serialization.
        page.write_html(&mut state.ctx.dom_html);

        let main_frame = FrameId(0);
        state.sink.on_event(CdpEvent::FrameNavigated {
            frame_id: main_frame,
            parent_frame_id: None,
            url: Cow::Borrowed(url),
        });
        // The document request itself.
        let rid = state.next_request_id();
        state.sink.on_event(CdpEvent::RequestWillBeSent {
            request_id: rid,
            url: Cow::Borrowed(url),
            parsed_url: Some(Cow::Borrowed(&state.page_url)),
            resource_type: ResourceKind::Document,
            initiator: Initiator::Parser(main_frame),
            frame_id: main_frame,
        });
        state.sink.on_event(CdpEvent::ResponseReceived {
            request_id: rid,
            url: Cow::Borrowed(url),
            status: 200,
            mime_type: Cow::Borrowed("text/html"),
            body: Cow::Borrowed(state.ctx.dom_html.as_bytes()),
            sent_ground_truth: Cow::Borrowed(GROUND_UA),
        });

        state.load_frame(&page, main_frame, 0);

        self.spare.set(VisitBuffers {
            ctx: state.ctx,
            jar: state.jar,
            scratch_query: state.scratch_query,
        });
        Ok(VisitSummary {
            page_url: state.page_url,
            links: page.links,
            blocked: state.blocked,
            faults: state.fault_log,
        })
    }
}

/// FNV-1a for deterministic per-URL seeding.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// `v` as sixteen lower-case hex digits (`{:016x}`), written into `buf`.
fn hex16(v: u64, buf: &mut [u8; 16]) -> &str {
    for (i, digit) in buf.iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[(v >> (60 - 4 * i)) as usize & 0xf];
    }
    std::str::from_utf8(buf).expect("hex digits are ASCII")
}

struct VisitState<'b, 'h, 's, 'ar> {
    browser: &'b Browser<'h>,
    page_url: Url,
    sink: &'s mut dyn VisitSink,
    arena: &'ar Arena,
    blocked: Vec<(String, ResourceKind)>,
    jar: CookieJar,
    ctx: ValueContext,
    /// Reused buffer for query-string rendering (url_with_items).
    scratch_query: String,
    next_request: u64,
    next_script: u64,
    next_frame: u64,
    ws_seed: u64,
    fault_ctx: Option<FaultContext>,
    fault_log: FaultLog,
    ws_ordinal: u64,
    fetch_ordinal: u64,
}

impl<'ar> VisitState<'_, '_, '_, 'ar> {
    fn next_request_id(&mut self) -> RequestId {
        self.next_request += 1;
        RequestId(self.next_request)
    }

    fn next_script_id(&mut self) -> ScriptId {
        self.next_script += 1;
        ScriptId(self.next_script)
    }

    fn next_frame_id(&mut self) -> FrameId {
        let id = FrameId(self.next_frame);
        self.next_frame += 1;
        id
    }

    /// Materializes an HTTP response body, as CDP would report it. Advances
    /// the seed that later WebSocket nonces and mask keys derive from, so
    /// those bytes match their pin, then copies the body into the visit
    /// arena.
    fn http_exchange(&mut self, body: &[u8]) -> &'ar [u8] {
        self.ws_seed = self
            .ws_seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1);
        self.arena.alloc_bytes(body)
    }

    /// Consults the fault oracle for an HTTP subresource fetch. Returns the
    /// Chrome-style error text when the fetch dies on the wire.
    fn fetch_fault(&mut self, url: &str) -> Option<&'static str> {
        let fc = self.fault_ctx.as_ref()?;
        self.fetch_ordinal += 1;
        let conn_id = fnv1a(url) ^ self.fetch_ordinal.wrapping_mul(0x9E3779B97F4A7C15);
        if fc
            .plan_for(conn_id)
            .page_unreachable(&fc.profile, fc.attempt)
        {
            self.fault_log
                .faults
                .push((url.to_string(), "fetch_failed"));
            Some("net::ERR_CONNECTION_REFUSED")
        } else {
            None
        }
    }

    /// `onBeforeRequest` dispatch; records cancellations.
    fn allowed(&mut self, url: &Url, kind: ResourceKind, initiator: Initiator) -> bool {
        self.allowed_in_frame(url, kind, initiator, FrameId(0))
    }

    fn allowed_in_frame(
        &mut self,
        url: &Url,
        kind: ResourceKind,
        initiator: Initiator,
        frame: FrameId,
    ) -> bool {
        let details = RequestDetails {
            url,
            page: &self.page_url,
            resource_type: kind,
            in_subframe: frame != FrameId(0),
        };
        if self.browser.extensions.allow_request(&details) {
            true
        } else {
            let text = url.to_string();
            self.sink.on_event(CdpEvent::RequestBlockedByExtension {
                url: Cow::Borrowed(&text),
                resource_type: kind,
                initiator,
            });
            self.blocked.push((text, kind));
            false
        }
    }

    fn load_frame(&mut self, page: &Page, frame: FrameId, frame_depth: usize) {
        // Scripts in document order.
        for (i, script) in page.scripts.iter().enumerate() {
            let initiator = Initiator::Parser(frame);
            match script {
                ScriptRef::Remote(url) => self.load_script(url, frame, initiator, 0),
                ScriptRef::Inline(behaviour) => {
                    let sid = self.next_script_id();
                    let url = self
                        .arena
                        .alloc_fmt(format_args!("{}#inline-{}", page.url, i));
                    self.sink.on_event(CdpEvent::ScriptParsed {
                        script_id: sid,
                        url: Cow::Borrowed(url),
                        parsed_url: None,
                        frame_id: frame,
                        initiator,
                    });
                    self.execute(behaviour, sid, frame, 0);
                }
            }
        }
        // Static images.
        for img in &page.images {
            self.fetch_image(img, frame, Initiator::Parser(frame), &[]);
        }
        // iframes.
        for sub in &page.iframes {
            self.open_frame(sub, frame, frame_depth, Initiator::Parser(frame));
        }
    }

    /// Fetches and runs a remote script: a `<script src>` of the page or a
    /// script's dynamic include.
    fn load_script(
        &mut self,
        url_text: &str,
        frame: FrameId,
        initiator: Initiator,
        include_depth: usize,
    ) {
        let Ok(url) = Url::parse(url_text) else {
            return;
        };
        if !self.allowed(&url, ResourceKind::Script, initiator) {
            return;
        }
        let rid = self.next_request_id();
        self.sink.on_event(CdpEvent::RequestWillBeSent {
            request_id: rid,
            url: Cow::Borrowed(url_text),
            parsed_url: Some(Cow::Borrowed(&url)),
            resource_type: ResourceKind::Script,
            initiator,
            frame_id: frame,
        });
        let behaviour = self.browser.host.get_script(url_text);
        let status = if behaviour.is_some() { 200 } else { 404 };
        self.sink.on_event(CdpEvent::ResponseReceived {
            request_id: rid,
            url: Cow::Borrowed(url_text),
            status,
            mime_type: Cow::Borrowed("application/javascript"),
            body: Cow::Borrowed(&[]),
            sent_ground_truth: Cow::Borrowed(GROUND_UA),
        });
        let Some(behaviour) = behaviour else { return };
        // Third parties set cookies when their script is fetched — this is
        // what later makes WS handshakes to them stateful.
        let host = url.host_str();
        let mut uid = [0u8; 16];
        self.jar.set(
            host,
            "uid",
            hex16(fnv1a(host) ^ self.browser.config.seed, &mut uid),
        );
        let sid = self.next_script_id();
        self.sink.on_event(CdpEvent::ScriptParsed {
            script_id: sid,
            url: Cow::Borrowed(url_text),
            parsed_url: Some(Cow::Owned(url)),
            frame_id: frame,
            initiator,
        });
        self.execute(&behaviour, sid, frame, include_depth);
    }

    fn execute(
        &mut self,
        behaviour: &sockscope_webmodel::ScriptBehavior,
        sid: ScriptId,
        frame: FrameId,
        include_depth: usize,
    ) {
        for action in &behaviour.actions {
            match action {
                Action::IncludeScript { url } => {
                    if include_depth < self.browser.config.max_include_depth {
                        self.load_script(url, frame, Initiator::Script(sid), include_depth + 1);
                    }
                }
                Action::FetchImage { url, sent } => {
                    self.fetch_image(url, frame, Initiator::Script(sid), sent);
                }
                Action::FetchXhr { url, sent, receive } => {
                    let full = self.url_with_items(url, sent);
                    let Ok(parsed) = Url::parse(full) else {
                        continue;
                    };
                    if !self.allowed(&parsed, ResourceKind::Xhr, Initiator::Script(sid)) {
                        continue;
                    }
                    let arena = self.arena;
                    // The response renders for the request's host; copy it
                    // so the parse can move into the event.
                    let host = arena.alloc_str(parsed.host_str());
                    let rid = self.next_request_id();
                    self.sink.on_event(CdpEvent::RequestWillBeSent {
                        request_id: rid,
                        url: Cow::Borrowed(full),
                        parsed_url: Some(Cow::Owned(parsed)),
                        resource_type: ResourceKind::Xhr,
                        initiator: Initiator::Script(sid),
                        frame_id: frame,
                    });
                    if let Some(error_text) = self.fetch_fault(full) {
                        self.sink.on_event(CdpEvent::LoadingFailed {
                            request_id: rid,
                            url: Cow::Borrowed(full),
                            resource_type: ResourceKind::Xhr,
                            error_text: Cow::Borrowed(error_text),
                        });
                        continue;
                    }
                    let ctx = &self.ctx;
                    let rendered =
                        arena.build_bytes(|b| ctx.render_received_into(receive, host, b));
                    let mime = guess_mime(receive);
                    let body = self.http_exchange(rendered);
                    let ground = arena.alloc_concat(sent, GROUND_UA);
                    self.sink.on_event(CdpEvent::ResponseReceived {
                        request_id: rid,
                        url: Cow::Borrowed(full),
                        status: 200,
                        mime_type: Cow::Borrowed(mime),
                        body: Cow::Borrowed(body),
                        sent_ground_truth: Cow::Borrowed(ground),
                    });
                }
                Action::OpenFrame { url } => {
                    // Script-injected iframe: the document request carries
                    // the script as initiator, like real CDP.
                    self.open_frame(url, frame, 0, Initiator::Script(sid));
                }
                Action::OpenWebSocket { url, exchanges } => {
                    self.open_websocket(url, exchanges, sid, frame);
                }
            }
        }
    }

    fn fetch_image(&mut self, url: &str, frame: FrameId, initiator: Initiator, sent: &[SentItem]) {
        let full = self.url_with_items(url, sent);
        let Ok(parsed) = Url::parse(full) else {
            return;
        };
        if !self.allowed(&parsed, ResourceKind::Image, initiator) {
            return;
        }
        let rid = self.next_request_id();
        self.sink.on_event(CdpEvent::RequestWillBeSent {
            request_id: rid,
            url: Cow::Borrowed(full),
            parsed_url: Some(Cow::Owned(parsed)),
            resource_type: ResourceKind::Image,
            initiator,
            frame_id: frame,
        });
        if let Some(error_text) = self.fetch_fault(full) {
            self.sink.on_event(CdpEvent::LoadingFailed {
                request_id: rid,
                url: Cow::Borrowed(full),
                resource_type: ResourceKind::Image,
                error_text: Cow::Borrowed(error_text),
            });
            return;
        }
        let ground = self.arena.alloc_concat(sent, GROUND_UA);
        let body = self.http_exchange(PNG_STUB);
        self.sink.on_event(CdpEvent::ResponseReceived {
            request_id: rid,
            url: Cow::Borrowed(full),
            status: 200,
            mime_type: Cow::Borrowed("image/png"),
            body: Cow::Borrowed(body),
            sent_ground_truth: Cow::Borrowed(ground),
        });
    }

    fn open_frame(&mut self, url: &str, parent: FrameId, frame_depth: usize, initiator: Initiator) {
        if frame_depth >= self.browser.config.max_frame_depth {
            return;
        }
        let Some(page) = self.browser.host.get_page(url) else {
            return;
        };
        let Ok(parsed) = Url::parse(url) else { return };
        if !self.allowed(&parsed, ResourceKind::Document, initiator) {
            return;
        }
        let frame = self.next_frame_id();
        // CDP ordering: the iframe's document request (carrying the real
        // initiator — possibly a script) precedes the frame navigation.
        let rid = self.next_request_id();
        self.sink.on_event(CdpEvent::RequestWillBeSent {
            request_id: rid,
            url: Cow::Borrowed(url),
            parsed_url: Some(Cow::Owned(parsed)),
            resource_type: ResourceKind::Document,
            initiator,
            frame_id: frame,
        });
        let html = self.arena.build_str(|s| page.write_html(s));
        self.sink.on_event(CdpEvent::ResponseReceived {
            request_id: rid,
            url: Cow::Borrowed(url),
            status: 200,
            mime_type: Cow::Borrowed("text/html"),
            body: Cow::Borrowed(html.as_bytes()),
            sent_ground_truth: Cow::Borrowed(GROUND_UA),
        });
        self.sink.on_event(CdpEvent::FrameNavigated {
            frame_id: frame,
            parent_frame_id: Some(parent),
            url: Cow::Borrowed(url),
        });
        self.load_frame(&page, frame, frame_depth + 1);
    }

    fn open_websocket(
        &mut self,
        url: &str,
        exchanges: &[sockscope_webmodel::WsExchange],
        sid: ScriptId,
        frame: FrameId,
    ) {
        let Ok(parsed) = Url::parse(url) else { return };
        let initiator = Initiator::Script(sid);
        // The WRB decision point: pre-Chrome-58 this check short-circuits to
        // "allowed" inside the extension host (unless a constructor shim is
        // installed and this is the main frame).
        if !self.allowed_in_frame(&parsed, ResourceKind::WebSocket, initiator, frame) {
            return;
        }
        let Some(profile) = self.browser.host.get_ws_server(url) else {
            return; // connection refused — no CDP events, like a failed TCP connect
        };
        if !profile.accepts {
            return;
        }
        self.ws_seed = self.ws_seed.wrapping_add(0x9E3779B97F4A7C15);
        let cookie = self.jar.header_for(parsed.host_str());
        let decision = match &self.fault_ctx {
            Some(fc) => {
                self.ws_ordinal += 1;
                let conn_id = fnv1a(url) ^ self.ws_ordinal.wrapping_mul(0x9E3779B97F4A7C15);
                fc.plan_for(conn_id).decide(&fc.profile, fc.attempt)
            }
            None => FaultDecision::None,
        };
        if decision.is_fault() {
            self.open_websocket_faulted(url, parsed, exchanges, initiator, frame, decision);
            return;
        }
        let session = match network::run_session(
            &parsed,
            self.page_url.origin_str(),
            &self.browser.config.user_agent,
            cookie.as_deref(),
            exchanges,
            &self.ctx,
            self.ws_seed,
        ) {
            Ok(s) => s,
            Err(_) => return,
        };

        let rid = self.next_request_id();
        self.sink.on_event(CdpEvent::WebSocketCreated {
            request_id: rid,
            url: Cow::Borrowed(url),
            parsed_url: Some(Cow::Owned(parsed)),
            initiator,
            frame_id: frame,
        });
        self.sink
            .on_event(CdpEvent::WebSocketWillSendHandshakeRequest {
                request_id: rid,
                request: Cow::Borrowed(&session.handshake_request),
            });
        self.sink
            .on_event(CdpEvent::WebSocketHandshakeResponseReceived {
                request_id: rid,
                status: session.status,
                response: Cow::Borrowed(&session.handshake_response),
            });
        for frame_rec in &session.frames {
            let payload = FramePayload::from_bytes(frame_rec.text, &frame_rec.payload);
            let ev = match frame_rec.direction {
                Direction::Sent => CdpEvent::WebSocketFrameSent {
                    request_id: rid,
                    payload,
                },
                Direction::Received => CdpEvent::WebSocketFrameReceived {
                    request_id: rid,
                    payload,
                },
            };
            self.sink.on_event(ev);
        }
        self.sink
            .on_event(CdpEvent::WebSocketClosed { request_id: rid });
    }

    /// Runs a WebSocket session under an injected fault and records however
    /// far it got as CDP events, ending with `webSocketFrameError`.
    fn open_websocket_faulted(
        &mut self,
        url: &str,
        parsed: Url,
        exchanges: &[sockscope_webmodel::WsExchange],
        initiator: Initiator,
        frame: FrameId,
        decision: FaultDecision,
    ) {
        let fc = self
            .fault_ctx
            .clone()
            .expect("faulted path requires a fault context");
        let cookie = self.jar.header_for(parsed.host_str());
        let outcome = network::run_session_with_faults(
            &parsed,
            self.page_url.origin_str(),
            &self.browser.config.user_agent,
            cookie.as_deref(),
            exchanges,
            &self.ctx,
            self.ws_seed,
            decision,
            fc.profile.stall_ticks,
            fc.profile.stall_timeout,
        );
        self.fault_log.ticks += outcome.ticks;
        if let Some(kind) = decision.kind() {
            self.fault_log.faults.push((url.to_string(), kind));
        }

        let rid = self.next_request_id();
        self.sink.on_event(CdpEvent::WebSocketCreated {
            request_id: rid,
            url: Cow::Borrowed(url),
            parsed_url: Some(Cow::Owned(parsed)),
            initiator,
            frame_id: frame,
        });
        if !outcome.handshake_request.is_empty() {
            self.sink
                .on_event(CdpEvent::WebSocketWillSendHandshakeRequest {
                    request_id: rid,
                    request: Cow::Borrowed(&outcome.handshake_request),
                });
        }
        if outcome.status != 0 {
            self.sink
                .on_event(CdpEvent::WebSocketHandshakeResponseReceived {
                    request_id: rid,
                    status: outcome.status,
                    response: Cow::Borrowed(&outcome.handshake_response),
                });
        }
        for frame_rec in &outcome.frames {
            let payload = FramePayload::from_bytes(frame_rec.text, &frame_rec.payload);
            let ev = match frame_rec.direction {
                Direction::Sent => CdpEvent::WebSocketFrameSent {
                    request_id: rid,
                    payload,
                },
                Direction::Received => CdpEvent::WebSocketFrameReceived {
                    request_id: rid,
                    payload,
                },
            };
            self.sink.on_event(ev);
        }
        if outcome.error.is_some() {
            let error_text = decision.error_text().unwrap_or("net::ERR_FAILED");
            self.sink.on_event(CdpEvent::WebSocketFrameError {
                request_id: rid,
                error_text: Cow::Borrowed(error_text),
            });
        }
        self.sink
            .on_event(CdpEvent::WebSocketClosed { request_id: rid });
    }

    /// Appends rendered sent-items to a URL as its query string (how HTTP
    /// tracking requests leak data in this model). The result lives in the
    /// visit arena; plain URLs are interned there too so every caller gets
    /// one uniform `&'ar str`.
    fn url_with_items(&mut self, url: &str, items: &[SentItem]) -> &'ar str {
        if items.is_empty() {
            return self.arena.alloc_str(url);
        }
        let mut q = std::mem::take(&mut self.scratch_query);
        q.clear();
        let is_text = self.ctx.write_sent_query(items, &mut q);
        let out = if is_text && !q.is_empty() {
            let sep = if url.contains('?') { '&' } else { '?' };
            self.arena.build_str(|s| {
                s.push_str(url);
                s.push(sep);
                // Minimal form-encoding: cookie values contain "; " which
                // is not valid raw in a URL.
                for ch in q.chars() {
                    if ch == ' ' {
                        s.push_str("%20");
                    } else {
                        s.push(ch);
                    }
                }
            })
        } else {
            self.arena.alloc_str(url)
        };
        self.scratch_query = q;
        out
    }
}

fn guess_mime(items: &[sockscope_webmodel::ReceivedItem]) -> &'static str {
    use sockscope_webmodel::ReceivedItem as R;
    match items.first() {
        Some(R::Html) => "text/html",
        Some(R::Json) | Some(R::AdUrls) => "application/json",
        Some(R::JavaScript) => "application/javascript",
        Some(R::ImageData) => "image/png",
        Some(R::Binary) => "application/octet-stream",
        None => "text/plain",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::webrequest::{AdBlockerExtension, BrowserEra};
    use sockscope_filterlist::Engine;
    use sockscope_webmodel::{
        host::StaticHost, ReceivedItem, ScriptBehavior, WsExchange, WsServerProfile,
    };

    #[test]
    fn hex16_is_the_padded_lower_hex_rendering() {
        let mut buf = [0u8; 16];
        for v in [
            0,
            1,
            0xabc,
            0x0123_4567_89ab_cdef,
            u64::MAX,
            fnv1a("x.example"),
        ] {
            assert_eq!(hex16(v, &mut buf), format!("{v:016x}"));
        }
    }

    /// Builds the Figure 2 web: pub page includes pub/ads/tracker scripts;
    /// the ads script includes a second ads script and an image; the second
    /// ads script opens ws://adnet/data.ws.
    fn figure2_host() -> StaticHost {
        let mut h = StaticHost::new();
        let mut page = Page::new("http://pub.example/index.html", "Pub");
        page.scripts = vec![
            ScriptRef::Remote("http://pub.example/script.js".into()),
            ScriptRef::Remote("http://ads.example/script.js".into()),
            ScriptRef::Remote("http://tracker.example/script.js".into()),
        ];
        page.links = vec!["http://pub.example/p2.html".into()];
        h.add_page(page);
        h.add_script("http://pub.example/script.js", ScriptBehavior::inert());
        h.add_script(
            "http://ads.example/script.js",
            ScriptBehavior::inert()
                .then(Action::IncludeScript {
                    url: "http://ads.example/script2.js".into(),
                })
                .then(Action::FetchImage {
                    url: "http://ads.example/image.img".into(),
                    sent: vec![],
                }),
        );
        h.add_script(
            "http://ads.example/script2.js",
            ScriptBehavior::inert().then(Action::OpenWebSocket {
                url: "ws://adnet.example/data.ws".into(),
                exchanges: vec![WsExchange {
                    send: vec![SentItem::Cookie],
                    receive: vec![ReceivedItem::Json],
                }],
            }),
        );
        h.add_script("http://tracker.example/script.js", ScriptBehavior::inert());
        h.add_ws_server("ws://adnet.example/data.ws", WsServerProfile::accepting());
        h
    }

    fn stock_browser(host: &StaticHost, era: BrowserEra) -> Browser<'_> {
        Browser::new(host, ExtensionHost::stock(era), BrowserConfig::default())
    }

    #[test]
    fn figure2_event_stream_shape() {
        let host = figure2_host();
        let b = stock_browser(&host, BrowserEra::PreChrome58);
        let v = b.visit("http://pub.example/index.html").unwrap();
        // Scripts parsed: pub, ads, ads2 (dynamic), tracker.
        let parsed: Vec<&str> = v
            .events
            .iter()
            .filter_map(|e| match e {
                CdpEvent::ScriptParsed { url, .. } => Some(url.as_ref()),
                _ => None,
            })
            .collect();
        assert_eq!(
            parsed,
            vec![
                "http://pub.example/script.js",
                "http://ads.example/script.js",
                "http://ads.example/script2.js", // dynamic include runs before tracker
                "http://tracker.example/script.js",
            ]
        );
        assert_eq!(v.websocket_count(), 1);
        // The dynamic include carries a Script initiator.
        let dyn_script = v.events.iter().find_map(|e| match e {
            CdpEvent::ScriptParsed { url, initiator, .. }
                if url.as_ref() == "http://ads.example/script2.js" =>
            {
                Some(*initiator)
            }
            _ => None,
        });
        assert!(matches!(dyn_script, Some(Initiator::Script(_))));
        // The socket's initiator is the dynamically included script.
        let ws_init = v.events.iter().find_map(|e| match e {
            CdpEvent::WebSocketCreated { initiator, .. } => Some(*initiator),
            _ => None,
        });
        assert!(matches!(ws_init, Some(Initiator::Script(_))));
        // Frame events bracket the socket.
        let kinds: Vec<bool> = v
            .events
            .iter()
            .filter_map(|e| match e {
                CdpEvent::WebSocketFrameSent { .. } => Some(true),
                CdpEvent::WebSocketFrameReceived { .. } => Some(false),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![true, false]);
    }

    #[test]
    fn tracker_parsed_even_when_inert() {
        let host = figure2_host();
        let b = stock_browser(&host, BrowserEra::PreChrome58);
        let v = b.visit("http://pub.example/index.html").unwrap();
        let n_parsed = v
            .events
            .iter()
            .filter(|e| matches!(e, CdpEvent::ScriptParsed { .. }))
            .count();
        assert_eq!(n_parsed, 4); // pub, ads, ads2, tracker
    }

    #[test]
    fn ws_handshake_carries_cookie_set_by_script_fetch() {
        // ads.example's script fetch set a cookie for ads.example; the
        // socket goes to adnet.example (different SLD) so NO cookie rides.
        let host = figure2_host();
        let b = stock_browser(&host, BrowserEra::PreChrome58);
        let v = b.visit("http://pub.example/index.html").unwrap();
        let hs = v.events.iter().find_map(|e| match e {
            CdpEvent::WebSocketWillSendHandshakeRequest { request, .. } => {
                Some(String::from_utf8_lossy(request).to_string())
            }
            _ => None,
        });
        let hs = hs.unwrap();
        assert!(!hs.contains("Cookie:"));
        assert!(hs.contains("User-Agent: Mozilla/5.0"));
        assert!(hs.contains("Origin: http://pub.example"));
    }

    #[test]
    fn blocker_pre58_misses_socket_but_blocks_script() {
        let host = figure2_host();
        let (engine, _) = Engine::parse("||adnet.example^\n||tracker.example^");
        let ext = ExtensionHost::stock(BrowserEra::PreChrome58)
            .install(AdBlockerExtension::new("abp", engine));
        let b = Browser::new(&host, ext, BrowserConfig::default());
        let v = b.visit("http://pub.example/index.html").unwrap();
        // tracker script blocked…
        assert!(v
            .blocked
            .iter()
            .any(|(u, k)| u.contains("tracker.example") && *k == ResourceKind::Script));
        // …but the adnet socket still opened: the WRB at work.
        assert_eq!(v.websocket_count(), 1);
    }

    #[test]
    fn blocker_post58_kills_the_socket() {
        let host = figure2_host();
        let (engine, _) = Engine::parse("||adnet.example^\n||tracker.example^");
        let ext = ExtensionHost::stock(BrowserEra::PostChrome58)
            .install(AdBlockerExtension::new("abp", engine));
        let b = Browser::new(&host, ext, BrowserConfig::default());
        let v = b.visit("http://pub.example/index.html").unwrap();
        assert_eq!(v.websocket_count(), 0);
        assert!(v
            .blocked
            .iter()
            .any(|(u, k)| u.starts_with("ws://adnet.example") && *k == ResourceKind::WebSocket));
    }

    #[test]
    fn visits_are_deterministic() {
        let host = figure2_host();
        let b = stock_browser(&host, BrowserEra::PreChrome58);
        let v1 = b.visit("http://pub.example/index.html").unwrap();
        let v2 = b.visit("http://pub.example/index.html").unwrap();
        assert_eq!(v1.events, v2.events);
    }

    #[test]
    fn repeated_visits_recycle_the_arena() {
        // The whole point of reset-and-reuse: after the first couple of
        // visits warm the chunk list, further identical visits must not
        // grow arena capacity.
        let host = figure2_host();
        let b = stock_browser(&host, BrowserEra::PreChrome58);
        for _ in 0..3 {
            b.visit("http://pub.example/index.html").unwrap();
        }
        let warm = b.arena.borrow().capacity();
        for _ in 0..16 {
            b.visit("http://pub.example/index.html").unwrap();
        }
        assert_eq!(b.arena.borrow().capacity(), warm);
    }

    #[test]
    fn missing_page_is_an_error() {
        let host = figure2_host();
        let b = stock_browser(&host, BrowserEra::PreChrome58);
        assert!(matches!(
            b.visit("http://nope.example/"),
            Err(VisitError::NotFound(_))
        ));
        assert!(matches!(b.visit("not a url"), Err(VisitError::BadUrl(_))));
    }

    #[test]
    fn include_depth_is_bounded() {
        // a.js includes itself forever; the browser must terminate.
        let mut h = StaticHost::new();
        let mut page = Page::new("http://p.example/", "P");
        page.scripts = vec![ScriptRef::Remote("http://p.example/a.js".into())];
        h.add_page(page);
        h.add_script(
            "http://p.example/a.js",
            ScriptBehavior::inert().then(Action::IncludeScript {
                url: "http://p.example/a.js".into(),
            }),
        );
        let b = stock_browser(&h, BrowserEra::PreChrome58);
        let v = b.visit("http://p.example/").unwrap();
        let n = v
            .events
            .iter()
            .filter(|e| matches!(e, CdpEvent::ScriptParsed { .. }))
            .count();
        assert!(n <= BrowserConfig::default().max_include_depth + 1);
    }

    #[test]
    fn iframe_nesting_is_bounded_and_emits_frame_events() {
        let mut h = StaticHost::new();
        // page0 frames page1 frames page0 … (cycle)
        let mut p0 = Page::new("http://a.example/", "A");
        p0.iframes = vec!["http://b.example/".into()];
        let mut p1 = Page::new("http://b.example/", "B");
        p1.iframes = vec!["http://a.example/".into()];
        h.add_page(p0);
        h.add_page(p1);
        let b = stock_browser(&h, BrowserEra::PreChrome58);
        let v = b.visit("http://a.example/").unwrap();
        let navs = v
            .events
            .iter()
            .filter(|e| matches!(e, CdpEvent::FrameNavigated { .. }))
            .count();
        assert!(navs >= 2);
        assert!(navs <= BrowserConfig::default().max_frame_depth + 1);
        // Child frames carry their parent pointer.
        let has_parent = v.events.iter().any(|e| {
            matches!(
                e,
                CdpEvent::FrameNavigated {
                    parent_frame_id: Some(_),
                    ..
                }
            )
        });
        assert!(has_parent);
    }

    #[test]
    fn xhr_url_carries_rendered_items() {
        let mut h = StaticHost::new();
        let mut page = Page::new("http://p.example/", "P");
        page.scripts = vec![ScriptRef::Inline(ScriptBehavior::inert().then(
            Action::FetchXhr {
                url: "https://collect.example/beacon".into(),
                sent: vec![SentItem::UserId, SentItem::Screen],
                receive: vec![ReceivedItem::Json],
            },
        ))];
        h.add_page(page);
        let b = stock_browser(&h, BrowserEra::PreChrome58);
        let v = b.visit("http://p.example/").unwrap();
        let xhr_url = v.events.iter().find_map(|e| match e {
            CdpEvent::RequestWillBeSent {
                url,
                resource_type: ResourceKind::Xhr,
                ..
            } => Some(url.clone()),
            _ => None,
        });
        let xhr_url = xhr_url.unwrap();
        assert!(xhr_url.contains("user_id=client_"));
        assert!(xhr_url.contains("screen="));
    }

    /// The `Sec-WebSocket-Key` of the one socket a visit to a page whose
    /// inline script runs `actions` opens.
    fn ws_key_after(actions: Vec<Action>) -> String {
        let mut h = StaticHost::new();
        let mut page = Page::new("http://p.example/", "P");
        let script = actions
            .into_iter()
            .fold(ScriptBehavior::inert(), ScriptBehavior::then)
            .then(Action::OpenWebSocket {
                url: "ws://rt.example/s".into(),
                exchanges: vec![],
            });
        page.scripts = vec![ScriptRef::Inline(script)];
        h.add_page(page);
        h.add_ws_server("ws://rt.example/s", WsServerProfile::accepting());
        let b = stock_browser(&h, BrowserEra::PreChrome58);
        let v = b.visit("http://p.example/").unwrap();
        let hs = v.events.iter().find_map(|e| match e {
            CdpEvent::WebSocketWillSendHandshakeRequest { request, .. } => {
                Some(String::from_utf8_lossy(request).to_string())
            }
            _ => None,
        });
        let hs = hs.unwrap();
        let key = hs
            .lines()
            .find_map(|l| l.strip_prefix("Sec-WebSocket-Key: "));
        key.unwrap().to_string()
    }

    #[test]
    fn http_exchanges_advance_the_socket_nonce_seed() {
        // Every HTTP exchange advances the seed that WebSocket nonces and
        // mask keys derive from, so a socket opened after an image fetch
        // carries a different key. The pinned key keeps those bytes
        // identical across refactors of the HTTP path.
        let image = Action::FetchImage {
            url: "http://img.example/a.png".into(),
            sent: vec![],
        };
        let after_image = ws_key_after(vec![image]);
        assert_ne!(after_image, ws_key_after(vec![]));
        assert_eq!(after_image, "zNFt/BETviGSodqPvGKmaw==");
    }

    fn fault_ctx(profile: sockscope_faults::FaultProfile) -> FaultContext {
        FaultContext {
            profile,
            seed: 0xFA17,
            site_rank: 3,
            attempt: 0,
        }
    }

    #[test]
    fn fault_free_context_matches_plain_visit() {
        let host = figure2_host();
        let b = stock_browser(&host, BrowserEra::PreChrome58);
        let plain = b.visit("http://pub.example/index.html").unwrap();
        let via = b
            .visit_with_faults("http://pub.example/index.html", None)
            .unwrap();
        assert_eq!(plain.events, via.events);
        assert_eq!(via.faults, FaultLog::default());
    }

    #[test]
    fn certain_page_failure_is_unreachable() {
        let host = figure2_host();
        let b = stock_browser(&host, BrowserEra::PreChrome58);
        let fc = fault_ctx(sockscope_faults::FaultProfile {
            page_fail_pm: 1000,
            ..sockscope_faults::FaultProfile::none()
        });
        assert!(matches!(
            b.visit_with_faults("http://pub.example/index.html", Some(&fc)),
            Err(VisitError::Unreachable(_))
        ));
    }

    #[test]
    fn refused_socket_emits_error_event_and_no_handshake() {
        let host = figure2_host();
        let b = stock_browser(&host, BrowserEra::PreChrome58);
        let fc = fault_ctx(sockscope_faults::FaultProfile {
            connect_refused_pm: 1000,
            ..sockscope_faults::FaultProfile::none()
        });
        let v = b
            .visit_with_faults("http://pub.example/index.html", Some(&fc))
            .unwrap();
        assert!(v.events.iter().any(|e| matches!(
            e,
            CdpEvent::WebSocketFrameError { error_text, .. }
                if error_text.as_ref() == "net::ERR_CONNECTION_REFUSED"
        )));
        assert!(!v
            .events
            .iter()
            .any(|e| matches!(e, CdpEvent::WebSocketWillSendHandshakeRequest { .. })));
        assert_eq!(v.faults.faults.len(), 1);
        assert_eq!(v.faults.faults[0].1, "connect_refused");
    }

    #[test]
    fn rejected_handshake_records_non_101_status() {
        let host = figure2_host();
        let b = stock_browser(&host, BrowserEra::PreChrome58);
        let fc = fault_ctx(sockscope_faults::FaultProfile {
            handshake_reject_pm: 1000,
            ..sockscope_faults::FaultProfile::none()
        });
        let v = b
            .visit_with_faults("http://pub.example/index.html", Some(&fc))
            .unwrap();
        let status = v.events.iter().find_map(|e| match e {
            CdpEvent::WebSocketHandshakeResponseReceived { status, .. } => Some(*status),
            _ => None,
        });
        assert!(matches!(status, Some(403 | 404 | 500 | 503)));
        assert!(v
            .events
            .iter()
            .any(|e| matches!(e, CdpEvent::WebSocketFrameError { .. })));
    }

    #[test]
    fn faulted_visits_are_deterministic() {
        let host = figure2_host();
        let b = stock_browser(&host, BrowserEra::PreChrome58);
        let fc = fault_ctx(sockscope_faults::FaultProfile::heavy());
        let v1 = b.visit_with_faults("http://pub.example/index.html", Some(&fc));
        let v2 = b.visit_with_faults("http://pub.example/index.html", Some(&fc));
        match (v1, v2) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.events, b.events);
                assert_eq!(a.faults, b.faults);
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            _ => panic!("visit determinism broken"),
        }
    }

    #[test]
    fn failed_fetch_emits_loading_failed() {
        let host = figure2_host();
        let b = stock_browser(&host, BrowserEra::PreChrome58);
        // page_fail_pm drives subresource fetch failures too; the homepage
        // plan may or may not be reachable, so find a working seed.
        for seed in 0..64 {
            let fc = FaultContext {
                profile: sockscope_faults::FaultProfile {
                    page_fail_pm: 900,
                    ..sockscope_faults::FaultProfile::none()
                },
                seed,
                site_rank: 3,
                attempt: 0,
            };
            if let Ok(v) = b.visit_with_faults("http://pub.example/index.html", Some(&fc)) {
                if v.events
                    .iter()
                    .any(|e| matches!(e, CdpEvent::LoadingFailed { .. }))
                {
                    return; // found the expected error event
                }
            }
        }
        panic!("no LoadingFailed event across 64 seeds at 90% fetch-failure rate");
    }

    /// Checks that every event creating a tree node carries the browser's
    /// parse of its URL, equal to a fresh parse; only `#inline-N` script
    /// URLs carry none. Returns how many events carried one.
    fn assert_parses_carried(events: &[CdpEventOwned]) -> usize {
        let mut carried = 0;
        for ev in events {
            let (url, parsed_url) = match ev {
                CdpEvent::ScriptParsed {
                    url, parsed_url, ..
                }
                | CdpEvent::RequestWillBeSent {
                    url, parsed_url, ..
                }
                | CdpEvent::WebSocketCreated {
                    url, parsed_url, ..
                } => (url, parsed_url),
                _ => continue,
            };
            if url.contains("#inline-") {
                assert_eq!(parsed_url, &None, "{url}");
                continue;
            }
            let fresh = Url::parse(url).unwrap_or_else(|e| panic!("{url}: {e:?}"));
            assert_eq!(parsed_url.as_deref(), Some(&fresh), "{url}");
            carried += 1;
        }
        carried
    }

    #[test]
    fn node_creating_events_carry_the_browsers_parse() {
        let host = figure2_host();
        let b = stock_browser(&host, BrowserEra::PreChrome58);
        let v = b.visit("http://pub.example/index.html").unwrap();
        // Document, 4 × (script request + scriptParsed), image, socket.
        assert_eq!(assert_parses_carried(&v.events), 11);

        // Every node kind the browser emits, under heavy faults: XHRs
        // with query strings, frames (static and script-injected),
        // inline scripts, and sockets that fail part-way.
        let mut h = figure2_host();
        let mut page = Page::new("http://mixed.example/", "Mixed");
        page.scripts = vec![
            ScriptRef::Remote("http://ads.example/script.js".into()),
            ScriptRef::Inline(
                ScriptBehavior::inert()
                    .then(Action::FetchXhr {
                        url: "https://Collect.Example/beacon?v=1".into(),
                        sent: vec![SentItem::UserId, SentItem::Cookie],
                        receive: vec![ReceivedItem::Json],
                    })
                    .then(Action::OpenFrame {
                        url: "http://pub.example/index.html".into(),
                    })
                    .then(Action::OpenWebSocket {
                        url: "wss://adnet.example/data.ws".into(),
                        exchanges: vec![],
                    }),
            ),
        ];
        page.iframes = vec!["http://pub.example/index.html".into()];
        h.add_page(page);
        h.accept_all_ws = true;
        let b = stock_browser(&h, BrowserEra::PreChrome58);
        let (mut visits, mut sockets) = (0, 0);
        for seed in 0..32 {
            let fc = FaultContext {
                seed,
                ..fault_ctx(sockscope_faults::FaultProfile::heavy())
            };
            for url in ["http://mixed.example/", "http://pub.example/index.html"] {
                if let Ok(v) = b.visit_with_faults(url, Some(&fc)) {
                    assert!(assert_parses_carried(&v.events) > 0);
                    visits += 1;
                    sockets += v.websocket_count();
                }
            }
        }
        assert!(
            visits > 32 && sockets > 32,
            "{visits} visits, {sockets} sockets"
        );
    }

    #[test]
    fn refused_ws_endpoint_produces_no_socket_events() {
        let mut h = StaticHost::new();
        let mut page = Page::new("http://p.example/", "P");
        page.scripts = vec![ScriptRef::Inline(ScriptBehavior::inert().then(
            Action::OpenWebSocket {
                url: "ws://absent.example/s".into(),
                exchanges: vec![],
            },
        ))];
        h.add_page(page);
        let b = stock_browser(&h, BrowserEra::PreChrome58);
        let v = b.visit("http://p.example/").unwrap();
        assert_eq!(v.websocket_count(), 0);
    }
}
