//! The inclusion-tree data structure and its builder.
//!
//! Trees can be built two ways with identical results: batch
//! ([`InclusionTree::build`] over a materialized event slice) or streaming
//! ([`TreeBuilder`] fed one event at a time as the browser emits them).
//! The batch entry point is itself implemented as a streaming build, so
//! the two can never diverge.

use serde::{de, Deserialize, Serialize, Value};
use sockscope_browser::{
    CdpEvent, FrameId, FramePayload, Initiator, RequestId, ResourceKind, ScriptId, VisitSink,
};
use sockscope_urlkit::Url;
use std::borrow::Cow;
use std::collections::HashMap;

/// Index of a node within its tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// What a node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// The top-level page document.
    Page,
    /// An iframe document.
    Frame,
    /// A script (inline or remote).
    Script,
    /// An image resource.
    Image,
    /// An XHR.
    Xhr,
    /// A WebSocket connection — always a child of the script that opened it
    /// (Figure 2's `adnet/data.ws` under `ads/script.js`).
    WebSocket,
    /// A request cancelled by a blocking extension (only present in
    /// blocker-enabled crawls; the ablation harness uses these).
    Blocked,
}

/// A recorded WebSocket payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PayloadRecord {
    /// Text frame contents.
    Text(String),
    /// Binary frame contents.
    Binary(Vec<u8>),
}

impl PayloadRecord {
    /// Text view.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            PayloadRecord::Text(s) => Some(s),
            PayloadRecord::Binary(_) => None,
        }
    }

    /// Byte length.
    pub fn len(&self) -> usize {
        match self {
            PayloadRecord::Text(s) => s.len(),
            PayloadRecord::Binary(b) => b.len(),
        }
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payload bytes, borrowed (text frames as their UTF-8).
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            PayloadRecord::Text(s) => s.as_bytes(),
            PayloadRecord::Binary(b) => b,
        }
    }
}

fn record(p: FramePayload) -> PayloadRecord {
    match p {
        FramePayload::Text(s) => PayloadRecord::Text(s.into_owned()),
        FramePayload::Base64(_) => PayloadRecord::Binary(p.to_bytes().into_owned()),
    }
}

/// Everything observed on one WebSocket.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WsTranscript {
    /// Raw handshake request (headers carry UA/Cookie/Origin).
    pub handshake_request: String,
    /// Upgrade status.
    pub status: u16,
    /// Client→server payloads in order.
    pub sent: Vec<PayloadRecord>,
    /// Server→client payloads in order.
    pub received: Vec<PayloadRecord>,
    /// Whether the close event was observed.
    pub closed: bool,
    /// Chrome-style error text when the socket failed (fault injection or
    /// a real protocol violation); `None` for clean sessions.
    pub error: Option<String>,
}

/// One node of an inclusion tree. Its URL and host are the tree's:
/// [`InclusionTree::url_text`] and [`InclusionTree::host`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// Node kind.
    pub kind: NodeKind,
    /// Parent node; `None` only for the root.
    pub parent: Option<NodeId>,
    /// Children in creation order.
    pub children: Vec<NodeId>,
    /// WebSocket transcript, for [`NodeKind::WebSocket`] nodes.
    pub ws: Option<WsTranscript>,
    /// HTTP response body, for HTTP-fetched nodes (used by content analysis
    /// of HTTP/S, Table 5's comparison columns).
    pub http_body: Option<Vec<u8>>,
    /// Ground-truth sent items for HTTP nodes. Filled only on the
    /// reference path (batch builds over a buffered stream); the fused
    /// pipeline forwards responses with this stripped, and nothing in the
    /// analyzer reads it — classification works from the URL/body text.
    pub http_sent_ground_truth: Vec<sockscope_webmodel::SentItem>,
}

/// A node's URL: its parse, and its event text where that is not the
/// parse's canonical text.
#[derive(Debug, Clone, PartialEq, Eq)]
struct NodeUrl {
    parsed: Option<Url>,
    /// The event's URL text, kept only when it differs from
    /// `parsed.as_str()`: an `#inline-N` script, an unparseable URL, or
    /// upper-case or explicit-default-port input.
    text: Option<String>,
    /// Where the registrable domain starts in the host; `None` without a
    /// parse or for an IPv4 host.
    domain_at: Option<u32>,
}

impl NodeUrl {
    fn new(text: Cow<'_, str>, parsed: Option<Url>) -> NodeUrl {
        let text = match &parsed {
            Some(url) if url.as_str() == text => None,
            _ => Some(text.into_owned()),
        };
        NodeUrl {
            parsed,
            text,
            domain_at: None,
        }
    }

    /// The event's text: kept, or else the parse's (a node without a
    /// parse always keeps its text).
    fn text(&self) -> &str {
        match (&self.text, &self.parsed) {
            (Some(text), _) => text,
            (None, parsed) => parsed.as_ref().map_or("", Url::as_str),
        }
    }

    fn host(&self) -> &str {
        self.parsed.as_ref().map_or("", Url::host_str)
    }
}

/// An inclusion tree for one page visit.
///
/// Alongside its nodes the tree carries each node's parsed URL, so every
/// consumer (the reducer, attribution) reads one parse instead of
/// re-parsing the URL text. That parse is the browser's, moved in with
/// the event that created the node (`parsed_url`); the builder parses only
/// what arrives without one: the page root, inline-script URLs,
/// extension-blocked requests and hand-built streams. A node's URL text
/// is the parse's canonical text unless the event's text differed, which
/// the tree then keeps. Invariant: `url(i) == Url::parse(url_text(i)).ok()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InclusionTree {
    /// The visited page URL.
    pub page_url: String,
    nodes: Vec<Node>,
    urls: Vec<NodeUrl>,
}

// Hand-written serde: the JSON carries `page_url` and `nodes`, each node
// with its `url` text and `host` after its `id`, and loading rebuilds the
// parses from the node URLs.
impl Serialize for InclusionTree {
    fn to_value(&self) -> Value {
        let nodes = self
            .nodes
            .iter()
            .zip(&self.urls)
            .map(|(node, url)| {
                let mut value = node.to_value();
                if let Value::Obj(fields) = &mut value {
                    fields.insert(1, ("url".to_string(), url.text().to_value()));
                    fields.insert(2, ("host".to_string(), url.host().to_value()));
                }
                value
            })
            .collect();
        Value::Obj(vec![
            ("page_url".to_string(), self.page_url.to_value()),
            ("nodes".to_string(), Value::Arr(nodes)),
        ])
    }
}

/// A node as the JSON stores it: its fields and its URL text (its
/// `host` is read from the parse instead).
struct StoredNode {
    node: Node,
    url: String,
}

impl Deserialize for StoredNode {
    fn from_value(v: &Value) -> Result<StoredNode, de::Error> {
        Ok(StoredNode {
            node: Node::from_value(v)?,
            url: de::field(de::expect_obj(v, "Node")?, "url", "Node")?,
        })
    }
}

impl Deserialize for InclusionTree {
    fn from_value(v: &Value) -> Result<InclusionTree, de::Error> {
        const CTX: &str = "InclusionTree";
        let obj = de::expect_obj(v, CTX)?;
        let stored: Vec<StoredNode> = de::field(obj, "nodes", CTX)?;
        let mut tree = InclusionTree {
            page_url: de::field(obj, "page_url", CTX)?,
            nodes: Vec::with_capacity(stored.len()),
            urls: Vec::with_capacity(stored.len()),
        };
        let mut domains = DomainMemo::default();
        for StoredNode { node, url } in stored {
            let parsed = Url::parse(&url).ok();
            tree.nodes.push(node);
            tree.urls.push(NodeUrl::new(Cow::Owned(url), parsed));
            domains.record(&mut tree.urls);
        }
        Ok(tree)
    }
}

/// A page's registrable domains, derived once per distinct host: host
/// hash → the first node with that host. A page's requests share a
/// handful of hosts, so most nodes copy an earlier node's answer. Hosts
/// come from crawled pages, so the map keeps its default, keyed hasher.
#[derive(Default)]
struct DomainMemo(HashMap<u64, usize>);

impl DomainMemo {
    /// Sets the last node's registrable domain: an earlier node's with the
    /// same host, or derived from its host and remembered.
    fn record(&mut self, urls: &mut [NodeUrl]) {
        let Some((last, earlier)) = urls.split_last_mut() else {
            return;
        };
        let Some(url) = &last.parsed else {
            return;
        };
        let host = url.host_str();
        let hash = host_hash(host);
        let first = self.0.get(&hash).and_then(|&i| earlier.get(i));
        last.domain_at = match first {
            Some(first) if first.host() == host => first.domain_at,
            _ => {
                // A hash collision keeps the first host's entry.
                self.0.entry(hash).or_insert(earlier.len());
                url.second_level_domain()
                    .map(|domain| (host.len() - domain.len()) as u32)
            }
        };
    }
}

/// A cheap hash of the host, a word at a time. A collision only costs a
/// derivation, never a wrong answer: the memo compares the hosts.
fn host_hash(host: &str) -> u64 {
    let mut hash = host.len() as u64;
    for chunk in host.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        hash = (hash.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    hash
}

impl InclusionTree {
    /// Builds the tree from a visit's CDP event stream.
    ///
    /// The builder mirrors the paper's recipe: `scriptParsed` events hang
    /// scripts under their initiator, `requestWillBeSent` hangs resources
    /// under theirs, `frameNavigated` tracks iframes, and the WebSocket
    /// events make each socket "a child node of the JavaScript node
    /// responsible for initiating" it (§3.2).
    pub fn build(page_url: &str, events: &[CdpEvent]) -> InclusionTree {
        let mut b = TreeBuilder::new(page_url);
        for ev in events {
            b.push(ev.clone());
        }
        b.finish()
    }

    /// The root (page) node.
    pub fn root(&self) -> &Node {
        &self.nodes[0]
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// A node's parsed URL, or `None` when its URL text does not parse.
    /// The root's is the page's.
    pub fn url(&self, id: NodeId) -> Option<&Url> {
        self.urls[id.0].parsed.as_ref()
    }

    /// A node's URL text, exactly as its event carried it.
    pub fn url_text(&self, id: NodeId) -> &str {
        self.urls[id.0].text()
    }

    /// A node's host, lower-case, from its parse; `""` when its URL does
    /// not parse.
    pub fn host(&self, id: NodeId) -> &str {
        self.urls[id.0].host()
    }

    /// The registrable domain of a node's host; `None` when its URL does
    /// not parse or its host is an IPv4 literal. Equal to
    /// `url(id)?.second_level_domain()`, derived once per distinct host of
    /// the page.
    pub fn registrable_domain(&self, id: NodeId) -> Option<&str> {
        let url = &self.urls[id.0];
        Some(&url.host()[url.domain_at? as usize..])
    }

    /// All nodes in creation order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the tree has only the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// All WebSocket nodes.
    pub fn websockets(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| n.kind == NodeKind::WebSocket)
    }

    /// Path from the root to `id`, inclusive.
    pub fn chain(&self, id: NodeId) -> Vec<&Node> {
        let mut rev = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            let n = &self.nodes[c.0];
            rev.push(n);
            cur = n.parent;
        }
        rev.reverse();
        rev
    }

    /// Depth of a node (root = 0).
    pub fn depth(&self, id: NodeId) -> usize {
        self.chain(id).len() - 1
    }

    /// Renders an ASCII sketch of the tree (the Figure 2 example binary
    /// prints this).
    pub fn ascii(&self) -> String {
        let mut out = String::new();
        self.ascii_node(NodeId(0), 0, &mut out);
        out
    }

    fn ascii_node(&self, id: NodeId, depth: usize, out: &mut String) {
        let n = &self.nodes[id.0];
        for _ in 0..depth {
            out.push_str("  ");
        }
        let kind = match n.kind {
            NodeKind::Page => "page",
            NodeKind::Frame => "frame",
            NodeKind::Script => "script",
            NodeKind::Image => "image",
            NodeKind::Xhr => "xhr",
            NodeKind::WebSocket => "websocket",
            NodeKind::Blocked => "BLOCKED",
        };
        out.push_str(&format!("[{kind}] {}\n", self.url_text(id)));
        for &c in &n.children {
            self.ascii_node(c, depth + 1, out);
        }
    }

    /// Tree invariants, checked by tests and property tests: exactly one
    /// root, parent/child pointers consistent, acyclic by construction,
    /// each carried URL parse equal to a fresh parse of the node's URL
    /// text, that text kept only where it differs from the parse's, and
    /// each registrable domain the parse's.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("empty tree".into());
        }
        if self.urls.len() != self.nodes.len() {
            return Err("parsed URLs not parallel to nodes".into());
        }
        for (i, n) in self.nodes.iter().enumerate() {
            let url = &self.urls[i];
            if url.parsed != Url::parse(url.text()).ok() {
                return Err(format!("node {i}: carried URL parse differs from its text"));
            }
            if url.parsed.as_ref().map(Url::as_str) == url.text.as_deref() {
                return Err(format!("node {i}: keeps a copy of its canonical text"));
            }
            if self.registrable_domain(n.id)
                != url.parsed.as_ref().and_then(Url::second_level_domain)
            {
                return Err(format!(
                    "node {i}: registrable domain differs from its host's"
                ));
            }
            if n.id.0 != i {
                return Err(format!("node {i} has mismatched id {:?}", n.id));
            }
            match n.parent {
                None if i != 0 => return Err(format!("non-root node {i} has no parent")),
                Some(p) => {
                    if p.0 >= i {
                        return Err(format!("node {i} has forward parent {}", p.0));
                    }
                    if !self.nodes[p.0].children.contains(&n.id) {
                        return Err(format!("parent {} does not list child {i}", p.0));
                    }
                }
                None => {}
            }
            for &c in &n.children {
                if self.nodes[c.0].parent != Some(n.id) {
                    return Err(format!("child {} does not point back to {i}", c.0));
                }
            }
            if (n.kind == NodeKind::WebSocket) != n.ws.is_some() {
                return Err(format!("node {i}: ws transcript/kind mismatch"));
            }
        }
        Ok(())
    }
}

/// Incremental inclusion-tree builder: the streaming counterpart of
/// [`InclusionTree::build`].
///
/// Feed it CDP events one at a time with [`TreeBuilder::push`] (or through
/// its [`VisitSink`] impl, straight off the browser's event loop), then
/// [`TreeBuilder::finish`] the tree. Node ids, ordering, and contents are
/// identical to a batch build over the same events — the batch entry point
/// is implemented on top of this type.
///
/// Each node's URL is parsed once per visit: a node-creating event hands
/// over the browser's parse in its `parsed_url`, and the builder parses
/// only a URL that arrives without one. The parse supplies the node's
/// text, host and registrable domain (the last derived once per distinct
/// host of the page) and travels with the finished tree (see
/// [`InclusionTree::url`]), so no consumer parses a node URL again.
///
/// A builder serves any number of pages: [`TreeBuilder::reset`] starts the
/// next page and [`TreeBuilder::recycle`] takes back a spent tree's node
/// vectors, so a long crawl reuses one set of buffers.
pub struct TreeBuilder {
    page_url: String,
    nodes: Vec<Node>,
    by_script: HashMap<ScriptId, NodeId>,
    by_frame: HashMap<FrameId, NodeId>,
    by_request: HashMap<RequestId, NodeId>,
    /// Frame nodes created from subframe Document requests, waiting for
    /// their `frameNavigated` to bind the frame id (keyed by URL).
    pending_docs: HashMap<String, NodeId>,
    /// Node URLs, parallel to `nodes`.
    urls: Vec<NodeUrl>,
    /// The page's registrable domains by host.
    domains: DomainMemo,
}

impl TreeBuilder {
    /// Starts a tree for one page visit. The root node (the page itself,
    /// frame 0) is created eagerly so degenerate streams still work.
    pub fn new(page_url: &str) -> TreeBuilder {
        let mut b = TreeBuilder {
            page_url: String::new(),
            nodes: Vec::new(),
            by_script: HashMap::new(),
            by_frame: HashMap::new(),
            by_request: HashMap::new(),
            pending_docs: HashMap::new(),
            urls: Vec::new(),
            domains: DomainMemo::default(),
        };
        b.reset(page_url);
        b
    }

    /// Starts the tree of the next page visit, exactly as
    /// [`TreeBuilder::new`] would, but keeping every buffer. Whatever the
    /// builder held — a finished page, or one torn mid-stream — is
    /// discarded.
    pub fn reset(&mut self, page_url: &str) {
        self.page_url.clear();
        self.page_url.push_str(page_url);
        self.nodes.clear();
        self.urls.clear();
        self.by_script.clear();
        self.by_frame.clear();
        self.by_request.clear();
        self.pending_docs.clear();
        self.domains.0.clear();
        let root = self.push_node(Cow::Borrowed(page_url), None, NodeKind::Page, None);
        self.by_frame.insert(FrameId(0), root);
    }

    /// Takes the finished tree out of the builder, which is left empty:
    /// [`TreeBuilder::reset`] it before the next page.
    pub fn finish(&mut self) -> InclusionTree {
        InclusionTree {
            page_url: std::mem::take(&mut self.page_url),
            nodes: std::mem::take(&mut self.nodes),
            urls: std::mem::take(&mut self.urls),
        }
    }

    /// Takes back the buffers of a tree this builder finished and its
    /// consumer is done with, for the next [`TreeBuilder::reset`] to fill.
    /// Call it between `finish` and `reset`.
    pub fn recycle(&mut self, spent: InclusionTree) {
        let InclusionTree {
            page_url,
            mut nodes,
            mut urls,
        } = spent;
        nodes.clear();
        urls.clear();
        self.page_url = page_url;
        self.nodes = nodes;
        self.urls = urls;
    }

    /// Number of nodes built so far (≥ 1 until `finish`: the root always
    /// exists).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when only the root exists. Named for clippy symmetry with
    /// [`TreeBuilder::len`]; a page's builder is never zero-node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// The node a network request id resolved to, if any. Fused consumers
    /// use this to attach side-channel state (eager classifications) to the
    /// node a payload event will land on.
    pub fn node_for_request(&self, request_id: RequestId) -> Option<NodeId> {
        self.by_request.get(&request_id).copied()
    }

    /// Borrows a node built so far.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Appends a node with its URL's parse: `carried` when the event
    /// brought one, else the builder's own.
    fn push_node(
        &mut self,
        url: Cow<'_, str>,
        carried: Option<Cow<'_, Url>>,
        kind: NodeKind,
        parent: Option<NodeId>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        let parsed = match carried {
            Some(parsed) => {
                debug_assert_eq!(
                    Url::parse(&url).ok().as_ref(),
                    Some(parsed.as_ref()),
                    "carried parse differs from a fresh parse of {url:?}"
                );
                Some(parsed.into_owned())
            }
            None => Url::parse(&url).ok(),
        };
        if let Some(p) = parent {
            self.nodes[p.0].children.push(id);
        }
        self.nodes.push(Node {
            id,
            kind,
            parent,
            children: Vec::new(),
            ws: None,
            http_body: None,
            http_sent_ground_truth: Vec::new(),
        });
        self.urls.push(NodeUrl::new(url, parsed));
        self.domains.record(&mut self.urls);
        id
    }

    fn parent_of(&self, initiator: Initiator, root: NodeId) -> NodeId {
        match initiator {
            Initiator::Parser(frame) => self.by_frame.get(&frame).copied().unwrap_or(root),
            Initiator::Script(sid) => self.by_script.get(&sid).copied().unwrap_or(root),
        }
    }

    /// Applies one CDP event to the tree under construction, taking its
    /// URL text and parse into the node it creates.
    pub fn push(&mut self, ev: CdpEvent<'_>) {
        let root = NodeId(0);
        match ev {
            CdpEvent::FrameNavigated {
                frame_id,
                parent_frame_id,
                url,
            } => {
                if frame_id == FrameId(0) {
                    return; // root created eagerly
                }
                // Prefer the Frame node created from the document request
                // (it carries the true initiator — a script for dynamically
                // injected iframes); fall back to frame-parent provenance
                // for streams without document requests.
                if let Some(id) = self.pending_docs.remove(url.as_ref()) {
                    self.by_frame.insert(frame_id, id);
                    return;
                }
                let parent = parent_frame_id
                    .and_then(|p| self.by_frame.get(&p).copied())
                    .unwrap_or(root);
                let id = self.push_node(url, None, NodeKind::Frame, Some(parent));
                self.by_frame.insert(frame_id, id);
            }
            CdpEvent::ScriptParsed {
                script_id,
                url,
                parsed_url,
                initiator,
                ..
            } => {
                let parent = self.parent_of(initiator, root);
                let id = self.push_node(url, parsed_url, NodeKind::Script, Some(parent));
                self.by_script.insert(script_id, id);
            }
            CdpEvent::RequestWillBeSent {
                request_id,
                url,
                parsed_url,
                resource_type,
                initiator,
                frame_id,
            } => {
                let kind = match resource_type {
                    ResourceKind::Image => NodeKind::Image,
                    ResourceKind::Xhr => NodeKind::Xhr,
                    ResourceKind::Document => {
                        // Subframe documents become Frame nodes hung under
                        // their true initiator; the main document (frame 0)
                        // is the root itself.
                        if frame_id == FrameId(0) {
                            return;
                        }
                        let parent = self.parent_of(initiator, root);
                        let key = url.as_ref().to_owned();
                        let id = self.push_node(url, parsed_url, NodeKind::Frame, Some(parent));
                        self.pending_docs.insert(key, id);
                        self.by_request.insert(request_id, id);
                        return;
                    }
                    // Script requests become Script nodes via scriptParsed;
                    // WebSocket handshakes via webSocketCreated.
                    ResourceKind::Script | ResourceKind::WebSocket => return,
                };
                let parent = self.parent_of(initiator, root);
                let id = self.push_node(url, parsed_url, kind, Some(parent));
                self.by_request.insert(request_id, id);
            }
            CdpEvent::ResponseReceived {
                request_id,
                body,
                sent_ground_truth,
                ..
            } => {
                if let Some(&id) = self.by_request.get(&request_id) {
                    self.nodes[id.0].http_body = Some(body.into_owned());
                    self.nodes[id.0].http_sent_ground_truth = sent_ground_truth.into_owned();
                }
            }
            CdpEvent::WebSocketCreated {
                request_id,
                url,
                parsed_url,
                initiator,
                ..
            } => {
                let parent = self.parent_of(initiator, root);
                let id = self.push_node(url, parsed_url, NodeKind::WebSocket, Some(parent));
                self.nodes[id.0].ws = Some(WsTranscript::default());
                self.by_request.insert(request_id, id);
            }
            CdpEvent::WebSocketWillSendHandshakeRequest {
                request_id,
                request,
            } => {
                if let Some(ws) = self.ws_mut(&request_id) {
                    ws.handshake_request = String::from_utf8_lossy(&request).into_owned();
                }
            }
            CdpEvent::WebSocketHandshakeResponseReceived {
                request_id, status, ..
            } => {
                if let Some(ws) = self.ws_mut(&request_id) {
                    ws.status = status;
                }
            }
            CdpEvent::WebSocketFrameSent {
                request_id,
                payload,
            } => {
                if let Some(ws) = self.ws_mut(&request_id) {
                    ws.sent.push(record(payload));
                }
            }
            CdpEvent::WebSocketFrameReceived {
                request_id,
                payload,
            } => {
                if let Some(ws) = self.ws_mut(&request_id) {
                    ws.received.push(record(payload));
                }
            }
            CdpEvent::WebSocketFrameError {
                request_id,
                error_text,
            } => {
                if let Some(ws) = self.ws_mut(&request_id) {
                    ws.error = Some(error_text.into_owned());
                }
            }
            CdpEvent::WebSocketClosed { request_id } => {
                if let Some(ws) = self.ws_mut(&request_id) {
                    ws.closed = true;
                }
            }
            CdpEvent::LoadingFailed { .. } => {
                // The failed fetch's node already exists (from its
                // requestWillBeSent) with `http_body: None` — which is the
                // "no response observed" state content analysis expects.
            }
            CdpEvent::RequestBlockedByExtension { url, initiator, .. } => {
                let parent = self.parent_of(initiator, root);
                self.push_node(url, None, NodeKind::Blocked, Some(parent));
            }
        }
    }

    fn ws_mut(&mut self, request_id: &RequestId) -> Option<&mut WsTranscript> {
        let id = self.by_request.get(request_id)?;
        self.nodes[id.0].ws.as_mut()
    }
}

impl VisitSink for TreeBuilder {
    fn on_event(&mut self, event: CdpEvent) {
        self.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built event stream reproducing Figure 2 of the paper.
    fn figure2_events() -> Vec<CdpEvent<'static>> {
        use CdpEvent::*;
        vec![
            FrameNavigated {
                frame_id: FrameId(0),
                parent_frame_id: None,
                url: "http://pub.example/index.html".into(),
            },
            ScriptParsed {
                script_id: ScriptId(1),
                url: "http://pub.example/script.js".into(),
                parsed_url: None,
                frame_id: FrameId(0),
                initiator: Initiator::Parser(FrameId(0)),
            },
            ScriptParsed {
                script_id: ScriptId(2),
                url: "http://ads.example/script.js".into(),
                parsed_url: None,
                frame_id: FrameId(0),
                initiator: Initiator::Parser(FrameId(0)),
            },
            // ads/script.js dynamically includes ads/script2.js and an image
            ScriptParsed {
                script_id: ScriptId(3),
                url: "http://ads.example/script2.js".into(),
                parsed_url: None,
                frame_id: FrameId(0),
                initiator: Initiator::Script(ScriptId(2)),
            },
            RequestWillBeSent {
                request_id: RequestId(1),
                url: "http://ads.example/image.img".into(),
                parsed_url: None,
                resource_type: ResourceKind::Image,
                initiator: Initiator::Script(ScriptId(2)),
                frame_id: FrameId(0),
            },
            // script2 opens the socket
            WebSocketCreated {
                request_id: RequestId(2),
                url: "ws://adnet.example/data.ws".into(),
                parsed_url: None,
                initiator: Initiator::Script(ScriptId(3)),
                frame_id: FrameId(0),
            },
            WebSocketFrameSent {
                request_id: RequestId(2),
                payload: FramePayload::Text("cookie=uid42".into()),
            },
            WebSocketFrameReceived {
                request_id: RequestId(2),
                payload: FramePayload::Text("{\"ok\":true}".into()),
            },
            WebSocketClosed {
                request_id: RequestId(2),
            },
            ScriptParsed {
                script_id: ScriptId(4),
                url: "http://tracker.example/script.js".into(),
                parsed_url: None,
                frame_id: FrameId(0),
                initiator: Initiator::Parser(FrameId(0)),
            },
        ]
    }

    #[test]
    fn figure2_tree_shape() {
        let tree = InclusionTree::build("http://pub.example/index.html", &figure2_events());
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), 7); // page + 4 scripts + image + socket
                                   // The socket hangs under ads/script2.js, which hangs under
                                   // ads/script.js, which hangs under the page — Figure 2 exactly.
        let socket = tree.websockets().next().unwrap();
        let chain: Vec<&str> = tree
            .chain(socket.id)
            .iter()
            .map(|n| tree.url_text(n.id))
            .collect();
        assert_eq!(
            chain,
            vec![
                "http://pub.example/index.html",
                "http://ads.example/script.js",
                "http://ads.example/script2.js",
                "ws://adnet.example/data.ws",
            ]
        );
        assert_eq!(tree.depth(socket.id), 3);
    }

    #[test]
    fn socket_transcript_recorded() {
        let tree = InclusionTree::build("http://pub.example/index.html", &figure2_events());
        let socket = tree.websockets().next().unwrap();
        let ws = socket.ws.as_ref().unwrap();
        assert_eq!(ws.sent.len(), 1);
        assert_eq!(ws.sent[0].as_text(), Some("cookie=uid42"));
        assert_eq!(ws.received.len(), 1);
        assert!(ws.closed);
    }

    #[test]
    fn dom_vs_inclusion_contrast() {
        // The DOM (Figure 2 left) shows 3 sibling scripts; the inclusion
        // tree (right) shows the nested reality.
        let tree = InclusionTree::build("http://pub.example/index.html", &figure2_events());
        let root_children = &tree.root().children;
        assert_eq!(root_children.len(), 3); // pub, ads, tracker scripts
        let dom = sockscope_webmodel::dom::figure2_dom();
        assert_eq!(dom.resource_attributes().len(), 3);
        // But the ads script has two children in the inclusion tree.
        let ads = tree
            .nodes()
            .iter()
            .find(|n| tree.url_text(n.id) == "http://ads.example/script.js")
            .unwrap();
        assert_eq!(ads.children.len(), 2);
    }

    #[test]
    fn unknown_initiators_attach_to_root() {
        let events = vec![CdpEvent::WebSocketCreated {
            request_id: RequestId(9),
            url: "ws://x.example/s".into(),
            parsed_url: None,
            initiator: Initiator::Script(ScriptId(999)),
            frame_id: FrameId(0),
        }];
        let tree = InclusionTree::build("http://p.example/", &events);
        tree.check_invariants().unwrap();
        let socket = tree.websockets().next().unwrap();
        assert_eq!(socket.parent, Some(NodeId(0)));
    }

    #[test]
    fn frames_nest() {
        use CdpEvent::*;
        let events = vec![
            FrameNavigated {
                frame_id: FrameId(1),
                parent_frame_id: Some(FrameId(0)),
                url: "http://embed.example/widget".into(),
            },
            ScriptParsed {
                script_id: ScriptId(1),
                url: "http://embed.example/w.js".into(),
                parsed_url: None,
                frame_id: FrameId(1),
                initiator: Initiator::Parser(FrameId(1)),
            },
        ];
        let tree = InclusionTree::build("http://p.example/", &events);
        tree.check_invariants().unwrap();
        let script = tree
            .nodes()
            .iter()
            .find(|n| n.kind == NodeKind::Script)
            .unwrap();
        let chain: Vec<NodeKind> = tree.chain(script.id).iter().map(|n| n.kind).collect();
        assert_eq!(
            chain,
            vec![NodeKind::Page, NodeKind::Frame, NodeKind::Script]
        );
    }

    #[test]
    fn blocked_nodes_recorded() {
        let events = vec![CdpEvent::RequestBlockedByExtension {
            url: "ws://adnet.example/s".into(),
            resource_type: ResourceKind::WebSocket,
            initiator: Initiator::Parser(FrameId(0)),
        }];
        let tree = InclusionTree::build("http://p.example/", &events);
        assert_eq!(
            tree.nodes()
                .iter()
                .filter(|n| n.kind == NodeKind::Blocked)
                .count(),
            1
        );
    }

    #[test]
    fn faulted_socket_transcript_carries_error() {
        use CdpEvent::*;
        let events = vec![
            WebSocketCreated {
                request_id: RequestId(4),
                url: "ws://adnet.example/s".into(),
                parsed_url: None,
                initiator: Initiator::Parser(FrameId(0)),
                frame_id: FrameId(0),
            },
            WebSocketFrameError {
                request_id: RequestId(4),
                error_text: "net::ERR_CONNECTION_REFUSED".into(),
            },
            WebSocketClosed {
                request_id: RequestId(4),
            },
        ];
        let tree = InclusionTree::build("http://p.example/", &events);
        tree.check_invariants().unwrap();
        let socket = tree.websockets().next().unwrap();
        let ws = socket.ws.as_ref().unwrap();
        assert_eq!(ws.error.as_deref(), Some("net::ERR_CONNECTION_REFUSED"));
        assert_eq!(ws.status, 0); // no handshake response arrived
        assert!(ws.closed);
    }

    #[test]
    fn loading_failed_leaves_node_bodyless() {
        use CdpEvent::*;
        let events = vec![
            RequestWillBeSent {
                request_id: RequestId(1),
                url: "http://cdn.example/pixel.img".into(),
                parsed_url: None,
                resource_type: ResourceKind::Image,
                initiator: Initiator::Parser(FrameId(0)),
                frame_id: FrameId(0),
            },
            LoadingFailed {
                request_id: RequestId(1),
                url: "http://cdn.example/pixel.img".into(),
                resource_type: ResourceKind::Image,
                error_text: "net::ERR_CONNECTION_REFUSED".into(),
            },
        ];
        let tree = InclusionTree::build("http://p.example/", &events);
        tree.check_invariants().unwrap();
        let img = tree
            .nodes()
            .iter()
            .find(|n| n.kind == NodeKind::Image)
            .unwrap();
        assert!(img.http_body.is_none());
    }

    #[test]
    fn ascii_rendering_mentions_all_nodes() {
        let tree = InclusionTree::build("http://pub.example/index.html", &figure2_events());
        let art = tree.ascii();
        assert!(art.contains("[page] http://pub.example/index.html"));
        assert!(art.contains("[websocket] ws://adnet.example/data.ws"));
        assert_eq!(art.lines().count(), tree.len());
    }

    #[test]
    fn serde_roundtrip() {
        let tree = InclusionTree::build("http://pub.example/index.html", &figure2_events());
        let json = serde_json::to_string(&tree).unwrap();
        let back: InclusionTree = serde_json::from_str(&json).unwrap();
        assert_eq!(tree, back);
    }

    fn odd_url_tree() -> InclusionTree {
        let events = vec![
            CdpEvent::RequestWillBeSent {
                request_id: RequestId(1),
                url: "data:image/gif;base64,R0lG".into(),
                parsed_url: None,
                resource_type: ResourceKind::Image,
                initiator: Initiator::Parser(FrameId(0)),
                frame_id: FrameId(0),
            },
            CdpEvent::WebSocketCreated {
                request_id: RequestId(2),
                url: "WSS://Chat.Example/live".into(),
                parsed_url: None,
                initiator: Initiator::Parser(FrameId(0)),
                frame_id: FrameId(0),
            },
        ];
        InclusionTree::build("http://p.example/", &events)
    }

    #[test]
    fn nodes_carry_their_one_url_parse() {
        let tree = odd_url_tree();
        tree.check_invariants().unwrap();
        assert_eq!(tree.url(NodeId(0)).unwrap().host_str(), "p.example");
        // Unparseable URL: no parse, empty host, no registrable domain.
        assert_eq!(tree.url(NodeId(1)), None);
        assert_eq!(tree.host(NodeId(1)), "");
        assert_eq!(tree.registrable_domain(NodeId(1)), None);
        // The host is the parse's (lower-cased) host.
        let socket = tree.url(NodeId(2)).unwrap();
        assert_eq!(socket.host_str(), "chat.example");
        assert_eq!(tree.host(NodeId(2)), "chat.example");
        assert_eq!(tree.registrable_domain(NodeId(2)), Some("chat.example"));
    }

    /// A node keeps its event's exact text wherever that is not the
    /// parse's canonical text; its host still comes from the parse.
    #[test]
    fn nodes_keep_event_text_that_is_not_canonical() {
        use CdpEvent::*;
        let events = vec![
            ScriptParsed {
                script_id: ScriptId(1),
                url: "http://p.example/#inline-0".into(),
                parsed_url: None,
                frame_id: FrameId(0),
                initiator: Initiator::Parser(FrameId(0)),
            },
            RequestWillBeSent {
                request_id: RequestId(1),
                url: "http://cdn.p.example:80/a.js?x=1".into(),
                parsed_url: None,
                resource_type: ResourceKind::Xhr,
                initiator: Initiator::Script(ScriptId(1)),
                frame_id: FrameId(0),
            },
            RequestWillBeSent {
                request_id: RequestId(2),
                url: "http://Ads.Example.co.uk/Pixel.gif".into(),
                parsed_url: None,
                resource_type: ResourceKind::Image,
                initiator: Initiator::Script(ScriptId(1)),
                frame_id: FrameId(0),
            },
            RequestWillBeSent {
                request_id: RequestId(3),
                url: "http://x.ads.example.co.uk/p.gif".into(),
                parsed_url: None,
                resource_type: ResourceKind::Image,
                initiator: Initiator::Script(ScriptId(1)),
                frame_id: FrameId(0),
            },
        ];
        let tree = InclusionTree::build("http://p.example/", &events);
        tree.check_invariants().unwrap();
        let want = [
            ("http://p.example/", "p.example", Some("p.example")),
            ("http://p.example/#inline-0", "p.example", Some("p.example")),
            (
                "http://cdn.p.example:80/a.js?x=1",
                "cdn.p.example",
                Some("p.example"),
            ),
            (
                "http://Ads.Example.co.uk/Pixel.gif",
                "ads.example.co.uk",
                Some("example.co.uk"),
            ),
            (
                "http://x.ads.example.co.uk/p.gif",
                "x.ads.example.co.uk",
                Some("example.co.uk"),
            ),
        ];
        for (i, (text, host, domain)) in want.into_iter().enumerate() {
            let id = NodeId(i);
            assert_eq!(tree.url_text(id), text);
            assert_eq!(tree.host(id), host);
            assert_eq!(tree.registrable_domain(id), domain);
        }
        // The canonical texts differ from the kept ones.
        assert_eq!(tree.url(NodeId(1)).unwrap().as_str(), "http://p.example/");
        assert_eq!(
            tree.url(NodeId(2)).unwrap().as_str(),
            "http://cdn.p.example/a.js?x=1"
        );
        let json = serde_json::to_string(&tree).unwrap();
        for (text, host, _) in want {
            assert!(
                json.contains(&format!(r#""url":"{text}","host":"{host}""#)),
                "{json}"
            );
        }
        let back: InclusionTree = serde_json::from_str(&json).unwrap();
        back.check_invariants().unwrap();
        assert_eq!(back, tree);
    }

    /// The URL of the node an event creates, if it creates one.
    fn created_url<'e>(event: &'e CdpEvent<'_>) -> Option<&'e str> {
        match event {
            CdpEvent::FrameNavigated { url, .. }
            | CdpEvent::ScriptParsed { url, .. }
            | CdpEvent::RequestWillBeSent { url, .. }
            | CdpEvent::WebSocketCreated { url, .. }
            | CdpEvent::RequestBlockedByExtension { url, .. } => Some(url),
            _ => None,
        }
    }

    /// Builds the tree of `events` with their carried parses, asserting
    /// that each node's text is the URL of the event that created it.
    /// Returns how many nodes keep their own text.
    fn assert_node_texts_are_event_urls(page: &str, events: &[CdpEvent<'_>]) -> usize {
        let mut b = TreeBuilder::new(page);
        assert_eq!(b.urls[0].text(), page);
        for event in events {
            let before = b.len();
            b.push(event.clone());
            if b.len() > before {
                assert_eq!(Some(b.urls[before].text()), created_url(event));
            }
        }
        let tree = b.finish();
        tree.check_invariants().unwrap();
        tree.urls.iter().filter(|u| u.text.is_some()).count()
    }

    /// The browser's streams: the Figure 2 visit, and visits under heavy
    /// faults with every node kind (XHRs with an upper-case host and a
    /// query, static and script-injected frames, inline scripts, sockets
    /// that fail part-way).
    #[test]
    fn node_texts_are_their_events_urls() {
        use sockscope_browser::{Browser, BrowserConfig, BrowserEra, ExtensionHost};
        use sockscope_faults::{FaultContext, FaultProfile};
        use sockscope_webmodel::host::StaticHost;
        use sockscope_webmodel::{
            Action, Page, ReceivedItem, ScriptBehavior, ScriptRef, SentItem, WsServerProfile,
        };
        let mut host = StaticHost::new();
        let mut page = Page::new("http://pub.example/index.html", "Pub");
        page.scripts = vec![
            ScriptRef::Remote("http://pub.example/script.js".into()),
            ScriptRef::Remote("http://ads.example/script.js".into()),
        ];
        host.add_page(page);
        host.add_script("http://pub.example/script.js", ScriptBehavior::inert());
        host.add_script(
            "http://ads.example/script.js",
            ScriptBehavior::inert()
                .then(Action::FetchImage {
                    url: "http://ads.example/image.img".into(),
                    sent: vec![],
                })
                .then(Action::OpenWebSocket {
                    url: "ws://adnet.example/data.ws".into(),
                    exchanges: vec![],
                }),
        );
        host.add_ws_server("ws://adnet.example/data.ws", WsServerProfile::accepting());
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
        host.add_page(page);
        host.accept_all_ws = true;
        let browser = Browser::new(
            &host,
            ExtensionHost::stock(BrowserEra::PreChrome58),
            BrowserConfig::default(),
        );
        let page = "http://pub.example/index.html";
        let visit = browser.visit(page).unwrap();
        assert_eq!(assert_node_texts_are_event_urls(page, &visit.events), 0);
        let (mut visits, mut kept) = (0, 0);
        for seed in 0..32 {
            let faults = FaultContext {
                profile: FaultProfile::heavy(),
                seed,
                site_rank: 3,
                attempt: 0,
            };
            for page in ["http://mixed.example/", "http://pub.example/index.html"] {
                if let Ok(visit) = browser.visit_with_faults(page, Some(&faults)) {
                    kept += assert_node_texts_are_event_urls(page, &visit.events);
                    visits += 1;
                }
            }
        }
        // The inline script and the upper-case XHR keep their text.
        assert!(
            visits > 32 && kept > 32,
            "{visits} visits, {kept} kept texts"
        );
    }

    /// The JSON is `page_url` + `nodes` only, byte for byte the derived
    /// serialization of those two fields; loading rebuilds the parses.
    #[test]
    fn json_format_is_unchanged_and_reload_rebuilds_parses() {
        const GOLDEN: &str = concat!(
            r#"{"page_url":"http://p.example/","nodes":["#,
            r#"{"id":0,"url":"http://p.example/","host":"p.example","kind":"Page","parent":null,"children":[1,2],"ws":null,"http_body":null,"http_sent_ground_truth":[]},"#,
            r#"{"id":1,"url":"data:image/gif;base64,R0lG","host":"","kind":"Image","parent":0,"children":[],"ws":null,"http_body":null,"http_sent_ground_truth":[]},"#,
            r#"{"id":2,"url":"WSS://Chat.Example/live","host":"chat.example","kind":"WebSocket","parent":0,"children":[],"ws":{"handshake_request":"","status":0,"sent":[],"received":[],"closed":false,"error":null},"http_body":null,"http_sent_ground_truth":[]}]}"#,
        );
        let tree = odd_url_tree();
        assert_eq!(serde_json::to_string(&tree).unwrap(), GOLDEN);
        let back: InclusionTree = serde_json::from_str(GOLDEN).unwrap();
        back.check_invariants().unwrap();
        assert_eq!(back, tree);
    }
}
