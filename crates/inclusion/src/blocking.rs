//! Post-hoc blocking analysis (§4.2).
//!
//! The paper asks: for the inclusion chains that lead to A&A sockets, would
//! EasyList+EasyPrivacy have blocked *any script along the chain*? If not,
//! the only way to stop the flow is to block the WebSocket itself — which
//! the WRB made impossible. They find only ~5% of socket chains would be
//! cut, versus ~27% of A&A chains overall (the paper's footnote notes this
//! post-hoc comparison can miss some load-time blocking).

use crate::tree::{InclusionTree, Node, NodeId, NodeKind};
use sockscope_filterlist::{Engine, RequestContext, ResourceType};
use sockscope_urlkit::Url;

/// Would any *script* ancestor of `node` (excluding the page itself) have
/// been blocked by `engine`? This mirrors the paper's "compare the rule
/// lists to our chains post-hoc" procedure.
pub fn chain_blocked(tree: &InclusionTree, node: NodeId, engine: &Engine) -> bool {
    let Some(page) = tree.url(tree.root().id) else {
        return false;
    };
    tree.chain(node)
        .iter()
        .any(|n| node_blocked(tree, n, page, engine))
}

fn node_blocked(tree: &InclusionTree, node: &Node, page: &Url, engine: &Engine) -> bool {
    let rtype = match node.kind {
        NodeKind::Script => ResourceType::Script,
        NodeKind::Image => ResourceType::Image,
        NodeKind::Xhr => ResourceType::Xhr,
        NodeKind::WebSocket => return false, // sockets themselves are the WRB question
        _ => return false,
    };
    let Some(url) = tree.url(node.id) else {
        return false;
    };
    engine.blocks(&RequestContext {
        url,
        page,
        resource_type: rtype,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sockscope_browser::{CdpEvent, FrameId, Initiator, RequestId, ScriptId};

    fn tree() -> InclusionTree {
        use CdpEvent::*;
        let events = vec![
            // chain 1: blocked-listable script → socket
            ScriptParsed {
                script_id: ScriptId(1),
                url: "http://listed-tracker.example/t.js".into(),
                parsed_url: None,
                frame_id: FrameId(0),
                initiator: Initiator::Parser(FrameId(0)),
            },
            WebSocketCreated {
                request_id: RequestId(1),
                url: "wss://listed-tracker.example/ws".into(),
                parsed_url: None,
                initiator: Initiator::Script(ScriptId(1)),
                frame_id: FrameId(0),
            },
            // chain 2: unlisted script → A&A socket (the WRB-problem case)
            ScriptParsed {
                script_id: ScriptId(2),
                url: "http://innocuous.example/w.js".into(),
                parsed_url: None,
                frame_id: FrameId(0),
                initiator: Initiator::Parser(FrameId(0)),
            },
            WebSocketCreated {
                request_id: RequestId(2),
                url: "wss://sneaky-ads.example/ws".into(),
                parsed_url: None,
                initiator: Initiator::Script(ScriptId(2)),
                frame_id: FrameId(0),
            },
        ];
        InclusionTree::build("http://pub.example/", &events)
    }

    #[test]
    fn chain_blocking_detects_listed_scripts() {
        let (engine, _) = Engine::parse("||listed-tracker.example^");
        let tree = tree();
        let sockets: Vec<_> = tree.websockets().collect();
        assert!(chain_blocked(&tree, sockets[0].id, &engine));
        assert!(!chain_blocked(&tree, sockets[1].id, &engine));
    }
}
