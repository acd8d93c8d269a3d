//! The Chrome-Debugging-Protocol event vocabulary the study instruments.
//!
//! Events are borrow-first: every string/byte field is a [`Cow`] so the
//! streaming hot path (`Browser::visit_streamed`) can emit events whose
//! payloads borrow from the per-visit bump arena and page data, while the
//! materializing reference path converts to the `'static` alias
//! [`CdpEventOwned`] via [`CdpEvent::into_owned`]. Sinks observe events for
//! the duration of one `on_event` call only — the PR 5 streaming contract —
//! which is exactly the lifetime discipline the borrow encodes.
//!
//! The events that create inclusion-tree nodes (`ScriptParsed`, the
//! `RequestWillBeSent` of a fetched resource, `WebSocketCreated`) also
//! carry the browser's parse of their URL in `parsed_url`, moved into the
//! event once the browser is done with it, so each request URL is parsed
//! once per visit.

use sockscope_urlkit::Url;
use sockscope_wsproto::base64;
use std::borrow::Cow;

/// Network request identifier (unique per visit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// Script identifier assigned at parse time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScriptId(pub u64);

/// Frame identifier; the main frame of a visit is id 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub u64);

/// Resource kinds as CDP reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Top-level or iframe document.
    Document,
    /// JavaScript.
    Script,
    /// Image.
    Image,
    /// XHR/fetch.
    Xhr,
    /// WebSocket handshake.
    WebSocket,
}

/// Who caused a resource load — CDP's `initiator` field, the key input to
/// inclusion-tree construction (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Initiator {
    /// The HTML parser of a frame (static markup).
    Parser(FrameId),
    /// A running script.
    Script(ScriptId),
}

/// WebSocket frame payload as CDP reports it: text frames carry the text,
/// binary frames carry base64 (`payloadData` with `opcode == 2`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FramePayload<'a> {
    /// UTF-8 text payload.
    Text(Cow<'a, str>),
    /// Base64-encoded binary payload.
    Base64(Cow<'a, str>),
}

/// An owned frame payload (the materializing reference path).
pub type FramePayloadOwned = FramePayload<'static>;

impl<'a> FramePayload<'a> {
    /// Builds a payload record from raw frame bytes. Text payloads borrow
    /// straight from `bytes` — the fused pipeline never copies them.
    pub fn from_bytes(opcode_text: bool, bytes: &'a [u8]) -> FramePayload<'a> {
        if opcode_text {
            match std::str::from_utf8(bytes) {
                Ok(s) => FramePayload::Text(Cow::Borrowed(s)),
                Err(_) => FramePayload::Base64(Cow::Owned(base64::encode(bytes))),
            }
        } else {
            FramePayload::Base64(Cow::Owned(base64::encode(bytes)))
        }
    }

    /// Detaches the payload from whatever it borrows.
    pub fn into_owned(self) -> FramePayloadOwned {
        match self {
            FramePayload::Text(s) => FramePayload::Text(Cow::Owned(s.into_owned())),
            FramePayload::Base64(s) => FramePayload::Base64(Cow::Owned(s.into_owned())),
        }
    }

    /// Recovers the raw bytes. Text payloads borrow straight from the
    /// payload (the classification hot path calls this per frame — no
    /// allocation there); only binary payloads decode into an owned buffer.
    pub fn to_bytes(&self) -> Cow<'_, [u8]> {
        match self {
            FramePayload::Text(s) => Cow::Borrowed(s.as_bytes()),
            FramePayload::Base64(b) => Cow::Owned(base64::decode(b).unwrap_or_default()),
        }
    }

    /// Text view if this is a text payload.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            FramePayload::Text(s) => Some(s),
            FramePayload::Base64(_) => None,
        }
    }

    /// Payload size in (decoded) bytes.
    pub fn len(&self) -> usize {
        match self {
            FramePayload::Text(s) => s.len(),
            FramePayload::Base64(b) => b.len() / 4 * 3, // close enough for stats
        }
    }

    /// `true` if the payload is empty.
    pub fn is_empty(&self) -> bool {
        match self {
            FramePayload::Text(s) => s.is_empty(),
            FramePayload::Base64(b) => b.is_empty(),
        }
    }
}

/// One instrumentation event. Field names follow the CDP originals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdpEvent<'a> {
    /// `Page.frameNavigated`.
    FrameNavigated {
        /// The navigated frame.
        frame_id: FrameId,
        /// Parent frame, `None` for the main frame.
        parent_frame_id: Option<FrameId>,
        /// Document URL.
        url: Cow<'a, str>,
    },
    /// `Debugger.scriptParsed`.
    ScriptParsed {
        /// Assigned script id.
        script_id: ScriptId,
        /// Script URL; inline scripts get the page URL with a `#inline-N`
        /// suffix, as the paper's tooling did for attribution.
        url: Cow<'a, str>,
        /// The browser's parse of `url`, handed on so the inclusion tree
        /// does not parse it again; `None` when the emitter made none
        /// (inline scripts, hand-built streams), and the consumer parses.
        /// When present it equals `Url::parse(url)`.
        parsed_url: Option<Cow<'a, Url>>,
        /// Frame executing the script.
        frame_id: FrameId,
        /// What caused the script to load.
        initiator: Initiator,
    },
    /// `Network.requestWillBeSent`.
    RequestWillBeSent {
        /// Request id.
        request_id: RequestId,
        /// Request URL.
        url: Cow<'a, str>,
        /// The browser's parse of `url`, handed on so the inclusion tree
        /// does not parse it again; `None` when the emitter made none
        /// (inline scripts, hand-built streams), and the consumer parses.
        /// When present it equals `Url::parse(url)`.
        parsed_url: Option<Cow<'a, Url>>,
        /// Resource type.
        resource_type: ResourceKind,
        /// What caused the request.
        initiator: Initiator,
        /// Frame issuing the request.
        frame_id: FrameId,
    },
    /// `Network.responseReceived`.
    ResponseReceived {
        /// Request id.
        request_id: RequestId,
        /// Response URL.
        url: Cow<'a, str>,
        /// HTTP status.
        status: u16,
        /// MIME type.
        mime_type: Cow<'a, str>,
        /// Response body (the study captured bodies for content analysis).
        body: Cow<'a, [u8]>,
        /// Request items serialized into the URL/body by the sender —
        /// recovered by the analyzer from `body`/URL text, not from here;
        /// carried for ground-truth tests only.
        sent_ground_truth: Cow<'a, [sockscope_webmodel::SentItem]>,
    },
    /// `Network.webSocketCreated`.
    WebSocketCreated {
        /// Request id of the socket.
        request_id: RequestId,
        /// `ws://`/`wss://` URL.
        url: Cow<'a, str>,
        /// The browser's parse of `url`, handed on so the inclusion tree
        /// does not parse it again; `None` when the emitter made none
        /// (inline scripts, hand-built streams), and the consumer parses.
        /// When present it equals `Url::parse(url)`.
        parsed_url: Option<Cow<'a, Url>>,
        /// The script that called `new WebSocket(...)`.
        initiator: Initiator,
        /// Frame owning the socket.
        frame_id: FrameId,
    },
    /// `Network.webSocketWillSendHandshakeRequest`.
    WebSocketWillSendHandshakeRequest {
        /// Request id.
        request_id: RequestId,
        /// Raw handshake request bytes (really produced by
        /// `sockscope-wsproto`).
        request: Cow<'a, [u8]>,
    },
    /// `Network.webSocketHandshakeResponseReceived`.
    WebSocketHandshakeResponseReceived {
        /// Request id.
        request_id: RequestId,
        /// HTTP status of the upgrade response (101 on success).
        status: u16,
        /// Raw handshake response bytes.
        response: Cow<'a, [u8]>,
    },
    /// `Network.webSocketFrameSent`.
    WebSocketFrameSent {
        /// Request id.
        request_id: RequestId,
        /// Payload.
        payload: FramePayload<'a>,
    },
    /// `Network.webSocketFrameReceived`.
    WebSocketFrameReceived {
        /// Request id.
        request_id: RequestId,
        /// Payload.
        payload: FramePayload<'a>,
    },
    /// `Network.webSocketFrameError`: the socket failed — connect refused,
    /// handshake rejected, or a frame-level error tore the session down.
    WebSocketFrameError {
        /// Request id.
        request_id: RequestId,
        /// Chrome-style error text (`net::ERR_CONNECTION_REFUSED`, …).
        error_text: Cow<'a, str>,
    },
    /// `Network.webSocketClosed`.
    WebSocketClosed {
        /// Request id.
        request_id: RequestId,
    },
    /// `Network.loadingFailed`: an HTTP fetch died on the wire (the fault
    /// injector's analogue of an unreachable tracker endpoint).
    LoadingFailed {
        /// Request id of the failed fetch.
        request_id: RequestId,
        /// URL of the failed fetch.
        url: Cow<'a, str>,
        /// Resource type.
        resource_type: ResourceKind,
        /// Chrome-style error text.
        error_text: Cow<'a, str>,
    },
    /// Not a CDP event: emitted when the extension host cancels a request,
    /// so experiments can observe what blocking *did* (the real study infers
    /// this post-hoc; the ablation harness uses it directly).
    RequestBlockedByExtension {
        /// URL of the cancelled request.
        url: Cow<'a, str>,
        /// Resource type.
        resource_type: ResourceKind,
        /// Initiator of the cancelled request.
        initiator: Initiator,
    },
}

/// An owned event with no outstanding borrows — what the materializing
/// reference path (`Visit::events`) stores.
pub type CdpEventOwned = CdpEvent<'static>;

impl<'a> CdpEvent<'a> {
    /// The request id this event concerns, if any.
    pub fn request_id(&self) -> Option<RequestId> {
        match self {
            CdpEvent::RequestWillBeSent { request_id, .. }
            | CdpEvent::ResponseReceived { request_id, .. }
            | CdpEvent::WebSocketCreated { request_id, .. }
            | CdpEvent::WebSocketWillSendHandshakeRequest { request_id, .. }
            | CdpEvent::WebSocketHandshakeResponseReceived { request_id, .. }
            | CdpEvent::WebSocketFrameSent { request_id, .. }
            | CdpEvent::WebSocketFrameReceived { request_id, .. }
            | CdpEvent::WebSocketFrameError { request_id, .. }
            | CdpEvent::WebSocketClosed { request_id }
            | CdpEvent::LoadingFailed { request_id, .. } => Some(*request_id),
            _ => None,
        }
    }

    /// Detaches the event from whatever it borrows (arena, page data),
    /// producing the `'static` form the materializing path buffers.
    pub fn into_owned(self) -> CdpEventOwned {
        fn own_str(c: Cow<'_, str>) -> Cow<'static, str> {
            Cow::Owned(c.into_owned())
        }
        fn own_bytes(c: Cow<'_, [u8]>) -> Cow<'static, [u8]> {
            Cow::Owned(c.into_owned())
        }
        fn own_url(c: Option<Cow<'_, Url>>) -> Option<Cow<'static, Url>> {
            c.map(|u| Cow::Owned(u.into_owned()))
        }
        match self {
            CdpEvent::FrameNavigated {
                frame_id,
                parent_frame_id,
                url,
            } => CdpEvent::FrameNavigated {
                frame_id,
                parent_frame_id,
                url: own_str(url),
            },
            CdpEvent::ScriptParsed {
                script_id,
                url,
                parsed_url,
                frame_id,
                initiator,
            } => CdpEvent::ScriptParsed {
                script_id,
                url: own_str(url),
                parsed_url: own_url(parsed_url),
                frame_id,
                initiator,
            },
            CdpEvent::RequestWillBeSent {
                request_id,
                url,
                parsed_url,
                resource_type,
                initiator,
                frame_id,
            } => CdpEvent::RequestWillBeSent {
                request_id,
                url: own_str(url),
                parsed_url: own_url(parsed_url),
                resource_type,
                initiator,
                frame_id,
            },
            CdpEvent::ResponseReceived {
                request_id,
                url,
                status,
                mime_type,
                body,
                sent_ground_truth,
            } => CdpEvent::ResponseReceived {
                request_id,
                url: own_str(url),
                status,
                mime_type: own_str(mime_type),
                body: own_bytes(body),
                sent_ground_truth: Cow::Owned(sent_ground_truth.into_owned()),
            },
            CdpEvent::WebSocketCreated {
                request_id,
                url,
                parsed_url,
                initiator,
                frame_id,
            } => CdpEvent::WebSocketCreated {
                request_id,
                url: own_str(url),
                parsed_url: own_url(parsed_url),
                initiator,
                frame_id,
            },
            CdpEvent::WebSocketWillSendHandshakeRequest {
                request_id,
                request,
            } => CdpEvent::WebSocketWillSendHandshakeRequest {
                request_id,
                request: own_bytes(request),
            },
            CdpEvent::WebSocketHandshakeResponseReceived {
                request_id,
                status,
                response,
            } => CdpEvent::WebSocketHandshakeResponseReceived {
                request_id,
                status,
                response: own_bytes(response),
            },
            CdpEvent::WebSocketFrameSent {
                request_id,
                payload,
            } => CdpEvent::WebSocketFrameSent {
                request_id,
                payload: payload.into_owned(),
            },
            CdpEvent::WebSocketFrameReceived {
                request_id,
                payload,
            } => CdpEvent::WebSocketFrameReceived {
                request_id,
                payload: payload.into_owned(),
            },
            CdpEvent::WebSocketFrameError {
                request_id,
                error_text,
            } => CdpEvent::WebSocketFrameError {
                request_id,
                error_text: own_str(error_text),
            },
            CdpEvent::WebSocketClosed { request_id } => CdpEvent::WebSocketClosed { request_id },
            CdpEvent::LoadingFailed {
                request_id,
                url,
                resource_type,
                error_text,
            } => CdpEvent::LoadingFailed {
                request_id,
                url: own_str(url),
                resource_type,
                error_text: own_str(error_text),
            },
            CdpEvent::RequestBlockedByExtension {
                url,
                resource_type,
                initiator,
            } => CdpEvent::RequestBlockedByExtension {
                url: own_str(url),
                resource_type,
                initiator,
            },
        }
    }
}

/// A consumer of CDP events, fed one event at a time as the browser emits
/// them.
///
/// This is the seam the stream-fused pipeline hangs off: instead of the
/// loader buffering a whole visit into a `Vec<CdpEvent>` and handing it
/// downstream, `Browser::visit_streamed` pushes each event into a sink the
/// moment it is emitted. A sink can build an inclusion tree incrementally,
/// classify payload bytes and drop them, or simply collect (the `Vec`
/// impl below reproduces the materializing behaviour exactly).
///
/// The event's borrows are valid only for the duration of the call; a sink
/// that retains data must copy it out (`CdpEvent::into_owned`).
///
/// Events arrive in emission order — the same order a materialized
/// `Visit::events` would hold them — so any sink that buffers is
/// byte-identical to the batch path by construction.
pub trait VisitSink {
    /// Receives the next event of the visit.
    fn on_event(&mut self, event: CdpEvent<'_>);
}

/// The trivial materializing sink: collects every event, reproducing the
/// pre-fusion `Visit::events` buffer.
impl VisitSink for Vec<CdpEventOwned> {
    fn on_event(&mut self, event: CdpEvent<'_>) {
        self.push(event.into_owned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_payload_text_roundtrip() {
        let p = FramePayload::from_bytes(true, b"uid=42");
        assert_eq!(p.as_text(), Some("uid=42"));
        assert_eq!(&p.to_bytes()[..], b"uid=42");
        // Text payloads must not copy: the classifier calls this per frame.
        assert!(matches!(p.to_bytes(), Cow::Borrowed(_)));
        // Nor must decode itself copy: the payload borrows the frame bytes.
        assert!(matches!(p, FramePayload::Text(Cow::Borrowed(_))));
    }

    #[test]
    fn frame_payload_binary_is_base64() {
        let raw = [0u8, 255, 128, 7];
        let p = FramePayload::from_bytes(false, &raw);
        assert!(p.as_text().is_none());
        assert_eq!(&p.to_bytes()[..], &raw[..]);
    }

    #[test]
    fn invalid_utf8_text_frame_degrades_to_base64() {
        // Defensive path: wsproto polices UTF-8, but the event layer must
        // not panic if handed garbage.
        let p = FramePayload::from_bytes(true, &[0xFF, 0xFE]);
        assert!(matches!(p, FramePayload::Base64(_)));
    }

    #[test]
    fn invalid_utf8_text_frame_roundtrips_through_base64() {
        // Pin the fallback end to end: a "text" frame carrying invalid
        // UTF-8 is stored base64-encoded and decodes back to the original
        // bytes, identically to an explicit binary frame.
        let garbage = [0xFFu8, 0xFE, 0x61, 0x80, 0x00];
        let as_text = FramePayload::from_bytes(true, &garbage);
        let as_binary = FramePayload::from_bytes(false, &garbage);
        assert_eq!(as_text, as_binary);
        assert_eq!(&as_text.to_bytes()[..], &garbage[..]);
        assert!(as_text.as_text().is_none());
        assert!(!as_text.is_empty());
    }

    #[test]
    fn vec_sink_collects_events_in_order() {
        let mut sink: Vec<CdpEventOwned> = Vec::new();
        sink.on_event(CdpEvent::WebSocketClosed {
            request_id: RequestId(1),
        });
        sink.on_event(CdpEvent::WebSocketClosed {
            request_id: RequestId(2),
        });
        assert_eq!(
            sink.iter().map(|e| e.request_id()).collect::<Vec<_>>(),
            vec![Some(RequestId(1)), Some(RequestId(2))]
        );
    }

    #[test]
    fn request_id_extraction() {
        let ev = CdpEvent::WebSocketClosed {
            request_id: RequestId(9),
        };
        assert_eq!(ev.request_id(), Some(RequestId(9)));
        let nav = CdpEvent::FrameNavigated {
            frame_id: FrameId(0),
            parent_frame_id: None,
            url: "http://a.example/".into(),
        };
        assert_eq!(nav.request_id(), None);
    }

    #[test]
    fn into_owned_detaches_borrows() {
        let body = vec![1u8, 2, 3];
        let ev = CdpEvent::ResponseReceived {
            request_id: RequestId(1),
            url: Cow::Borrowed("http://a.example/x"),
            status: 200,
            mime_type: Cow::Borrowed("text/html"),
            body: Cow::Borrowed(&body),
            sent_ground_truth: Cow::Borrowed(&[]),
        };
        let owned: CdpEventOwned = ev.clone().into_owned();
        assert_eq!(owned, ev.into_owned());
        match owned {
            CdpEvent::ResponseReceived { body, url, .. } => {
                assert!(matches!(body, Cow::Owned(_)));
                assert!(matches!(url, Cow::Owned(_)));
            }
            _ => unreachable!(),
        }
    }
}
