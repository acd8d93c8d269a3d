//! WebSocket attribution: who initiated a socket, who receives it, and is
//! either party A&A (§3.2, §4.2).

use crate::tree::{InclusionTree, Node, NodeKind};
use sockscope_filterlist::AaDomainSet;
use sockscope_urlkit::second_level_domain;

/// Attribution facts for one WebSocket node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocketAttribution {
    /// URL of the socket endpoint.
    pub socket_url: String,
    /// Second-level domain of the endpoint (the *receiver* in the paper's
    /// tables).
    pub receiver: String,
    /// Second-level domain of the nearest ancestor script — the *initiator*
    /// in Tables 2 and 4. Falls back to the page domain for sockets opened
    /// by inline/first-party code.
    pub initiator: String,
    /// Second-level domains of every ancestor resource, root → socket.
    pub chain_domains: Vec<String>,
    /// Socket contacted a third-party domain (cross-origin, §4.1's >90%).
    pub cross_origin: bool,
    /// Some ancestor resource's domain is in `D'` — "A&A-initiated".
    pub aa_initiated: bool,
    /// The receiver's domain is in `D'` — "A&A-received".
    pub aa_received: bool,
}

impl SocketAttribution {
    /// "A&A socket" as in Table 4: at least one endpoint party is A&A.
    pub fn is_aa_socket(&self) -> bool {
        self.aa_initiated || self.aa_received
    }
}

/// Computes attribution for every socket in a tree.
///
/// `aa` is the labeled A&A domain set `D'` (with CDN overrides). The
/// initiator is the nearest ancestor **script** node; `aa_initiated`
/// descends the whole branch, exactly as §3.2 specifies: *"If the domains
/// of any of the parent resources are present in D′, we consider the socket
/// to be included by an A&A resource."*
pub fn attribute_sockets(tree: &InclusionTree, aa: &AaDomainSet) -> Vec<SocketAttribution> {
    tree.websockets()
        .map(|socket| attribute_one(tree, socket, aa))
        .collect()
}

fn attribute_one(tree: &InclusionTree, socket: &Node, aa: &AaDomainSet) -> SocketAttribution {
    let chain = tree.chain(socket.id);
    let socket_host = tree.host(socket.id);
    let receiver = aa.aggregation_key(socket_host);
    // Nearest ancestor script; else the page.
    let initiator = chain
        .iter()
        .rev()
        .skip(1) // the socket itself
        .find(|n| n.kind == NodeKind::Script)
        .map_or(tree.root().id, |n| n.id);
    let initiator = aa.aggregation_key(tree.host(initiator));
    let chain_domains: Vec<String> = chain
        .iter()
        .map(|n| aa.aggregation_key(tree.host(n.id)))
        .collect();
    let root_host = tree.host(tree.root().id);
    let cross_origin = match (tree.url(tree.root().id), tree.url(socket.id)) {
        (Some(p), Some(s)) => sockscope_urlkit::origin::is_third_party(p, s),
        _ => second_level_domain(root_host) != second_level_domain(socket_host),
    };
    // Ancestors only (exclude the socket's own endpoint domain).
    let aa_initiated = chain
        .iter()
        .take(chain.len().saturating_sub(1))
        .any(|n| aa.is_aa_host(tree.host(n.id)));
    let aa_received = aa.is_aa_host(socket_host);
    SocketAttribution {
        socket_url: tree.url_text(socket.id).to_string(),
        receiver,
        initiator,
        chain_domains,
        cross_origin,
        aa_initiated,
        aa_received,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sockscope_browser::{CdpEvent, FrameId, Initiator, RequestId, ScriptId};

    fn tree_with_chain() -> InclusionTree {
        use CdpEvent::*;
        let events = vec![
            ScriptParsed {
                script_id: ScriptId(1),
                url: "http://cdn.pub.example/app.js".into(),
                parsed_url: None,
                frame_id: FrameId(0),
                initiator: Initiator::Parser(FrameId(0)),
            },
            ScriptParsed {
                script_id: ScriptId(2),
                url: "http://static.webspectator.example/ws.js".into(),
                parsed_url: None,
                frame_id: FrameId(0),
                initiator: Initiator::Script(ScriptId(1)),
            },
            WebSocketCreated {
                request_id: RequestId(1),
                url: "wss://rt.realtime.example/stream".into(),
                parsed_url: None,
                initiator: Initiator::Script(ScriptId(2)),
                frame_id: FrameId(0),
            },
        ];
        InclusionTree::build("http://pub.example/", &events)
    }

    #[test]
    fn initiator_is_nearest_script_sld() {
        let aa = AaDomainSet::from_domains(["webspectator.example", "realtime.example"]);
        let atts = attribute_sockets(&tree_with_chain(), &aa);
        assert_eq!(atts.len(), 1);
        let a = &atts[0];
        assert_eq!(a.initiator, "webspectator.example");
        assert_eq!(a.receiver, "realtime.example");
        assert!(a.aa_initiated);
        assert!(a.aa_received);
        assert!(a.cross_origin);
        assert!(a.is_aa_socket());
    }

    #[test]
    fn aa_detection_descends_whole_branch() {
        // Only the MIDDLE of the chain is A&A; the socket must still count
        // as A&A-initiated.
        let aa = AaDomainSet::from_domains(["webspectator.example"]);
        let atts = attribute_sockets(&tree_with_chain(), &aa);
        assert!(atts[0].aa_initiated);
        assert!(!atts[0].aa_received);
        assert!(atts[0].is_aa_socket());
    }

    #[test]
    fn non_aa_socket() {
        let aa = AaDomainSet::from_domains(["unrelated.example"]);
        let atts = attribute_sockets(&tree_with_chain(), &aa);
        assert!(!atts[0].aa_initiated);
        assert!(!atts[0].aa_received);
        assert!(!atts[0].is_aa_socket());
    }

    #[test]
    fn inline_script_socket_attributes_to_page() {
        use CdpEvent::*;
        let events = vec![
            ScriptParsed {
                script_id: ScriptId(1),
                url: "http://pub.example/#inline-0".into(),
                parsed_url: None,
                frame_id: FrameId(0),
                initiator: Initiator::Parser(FrameId(0)),
            },
            WebSocketCreated {
                request_id: RequestId(1),
                url: "wss://chat.intercom.example/ws".into(),
                parsed_url: None,
                initiator: Initiator::Script(ScriptId(1)),
                frame_id: FrameId(0),
            },
        ];
        let tree = InclusionTree::build("http://pub.example/", &events);
        let aa = AaDomainSet::from_domains(["intercom.example"]);
        let atts = attribute_sockets(&tree, &aa);
        // First-party page initiates, A&A receiver — the "benign initiator,
        // A&A receiver" pattern that dominates Table 3.
        assert_eq!(atts[0].initiator, "pub.example");
        assert!(!atts[0].aa_initiated);
        assert!(atts[0].aa_received);
    }

    #[test]
    fn same_site_socket_not_cross_origin() {
        use CdpEvent::*;
        let events = vec![
            ScriptParsed {
                script_id: ScriptId(1),
                url: "http://pub.example/a.js".into(),
                parsed_url: None,
                frame_id: FrameId(0),
                initiator: Initiator::Parser(FrameId(0)),
            },
            WebSocketCreated {
                request_id: RequestId(1),
                url: "ws://ws.pub.example/live".into(),
                parsed_url: None,
                initiator: Initiator::Script(ScriptId(1)),
                frame_id: FrameId(0),
            },
        ];
        let tree = InclusionTree::build("http://pub.example/", &events);
        let aa = AaDomainSet::from_domains::<[&str; 0], &str>([]);
        let atts = attribute_sockets(&tree, &aa);
        assert!(!atts[0].cross_origin);
    }

    #[test]
    fn cdn_override_reattributes_receiver() {
        use CdpEvent::*;
        let events = vec![WebSocketCreated {
            request_id: RequestId(1),
            url: "wss://d10lpsik1i8c69.cloudfront.net/collect".into(),
            parsed_url: None,
            initiator: Initiator::Parser(FrameId(0)),
            frame_id: FrameId(0),
        }];
        let tree = InclusionTree::build("http://pub.example/", &events);
        let mut aa = AaDomainSet::from_domains(["luckyorange.example"]);
        aa.add_cdn_override("d10lpsik1i8c69.cloudfront.net", "luckyorange.example");
        let atts = attribute_sockets(&tree, &aa);
        assert_eq!(atts[0].receiver, "luckyorange.example");
        assert!(atts[0].aa_received);
    }
}
