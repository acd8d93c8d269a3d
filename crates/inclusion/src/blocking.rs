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

/// Chain-level blocking statistics over a set of trees.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockingStats {
    /// Chains leading to A&A sockets that the lists would cut.
    pub socket_chains_blocked: usize,
    /// Total chains leading to A&A sockets.
    pub socket_chains_total: usize,
    /// All chains ending at an A&A-domain resource that would be cut.
    pub aa_chains_blocked: usize,
    /// Total chains ending at an A&A-domain resource.
    pub aa_chains_total: usize,
}

impl BlockingStats {
    /// Fraction of A&A-socket chains blocked (the paper's ~5%).
    pub fn socket_fraction(&self) -> f64 {
        if self.socket_chains_total == 0 {
            0.0
        } else {
            self.socket_chains_blocked as f64 / self.socket_chains_total as f64
        }
    }

    /// Fraction of all A&A chains blocked (the paper's ~27%).
    pub fn aa_fraction(&self) -> f64 {
        if self.aa_chains_total == 0 {
            0.0
        } else {
            self.aa_chains_blocked as f64 / self.aa_chains_total as f64
        }
    }
}

/// Accumulates [`BlockingStats`] across trees, given the A&A set.
pub fn analyze_blocking(
    trees: &[InclusionTree],
    aa: &sockscope_filterlist::AaDomainSet,
    engine: &Engine,
) -> BlockingStats {
    let mut stats = BlockingStats::default();
    for tree in trees {
        for node in tree.nodes() {
            let is_aa_endpoint = aa.is_aa_host(&node.host);
            match node.kind {
                NodeKind::WebSocket => {
                    // Chains leading to sockets where either party is A&A.
                    let atts = crate::attribution::attribute_sockets(tree, aa);
                    let att = atts
                        .iter()
                        .find(|a| a.socket_url == node.url)
                        .expect("socket attributed");
                    if att.is_aa_socket() {
                        stats.socket_chains_total += 1;
                        if chain_blocked(tree, node.id, engine) {
                            stats.socket_chains_blocked += 1;
                        }
                    }
                }
                NodeKind::Script | NodeKind::Image | NodeKind::Xhr if is_aa_endpoint => {
                    stats.aa_chains_total += 1;
                    if chain_blocked(tree, node.id, engine) {
                        stats.aa_chains_blocked += 1;
                    }
                }
                _ => {}
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use sockscope_browser::{CdpEvent, FrameId, Initiator, RequestId, ScriptId};
    use sockscope_filterlist::AaDomainSet;

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
            // an ordinary A&A image chain
            RequestWillBeSent {
                request_id: RequestId(3),
                url: "http://listed-tracker.example/pixel.gif".into(),
                parsed_url: None,
                resource_type: sockscope_browser::ResourceKind::Image,
                initiator: Initiator::Script(ScriptId(1)),
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

    #[test]
    fn stats_separate_socket_and_general_chains() {
        let (engine, _) = Engine::parse("||listed-tracker.example^");
        let aa = AaDomainSet::from_domains(["listed-tracker.example", "sneaky-ads.example"]);
        let stats = analyze_blocking(&[tree()], &aa, &engine);
        assert_eq!(stats.socket_chains_total, 2);
        assert_eq!(stats.socket_chains_blocked, 1);
        assert_eq!(stats.aa_chains_total, 2); // t.js + pixel.gif
        assert_eq!(stats.aa_chains_blocked, 2);
        assert!((stats.socket_fraction() - 0.5).abs() < 1e-9);
        assert!((stats.aa_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input_yields_zero_fractions() {
        let stats = BlockingStats::default();
        assert_eq!(stats.socket_fraction(), 0.0);
        assert_eq!(stats.aa_fraction(), 0.0);
    }
}
