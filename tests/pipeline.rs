//! End-to-end integration tests across the whole workspace: synthetic page
//! → browser → CDP events → inclusion tree → attribution → content
//! analysis, with and without the webRequest Bug.

use sockscope::analysis::PiiLibrary;
use sockscope::browser::{AdBlockerExtension, Browser, BrowserConfig, BrowserEra, ExtensionHost};
use sockscope::filterlist::{AaDomainSet, Engine};
use sockscope::inclusion::{attribution, InclusionTree, NodeKind};
use sockscope::webmodel::{
    host::StaticHost, Action, Page, ReceivedItem, ScriptBehavior, ScriptRef, SentItem, WsExchange,
    WsServerProfile,
};

/// A publisher page with a three-hop inclusion chain ending in a tracker
/// socket, plus an unrelated first-party chat socket.
fn fixture() -> StaticHost {
    let mut host = StaticHost::new();
    let mut page = Page::new("http://pub.example/", "Pub");
    page.scripts = vec![
        ScriptRef::Remote("http://cdn.pub.example/app.js".into()),
        ScriptRef::Inline(ScriptBehavior::inert().then(Action::OpenWebSocket {
            url: "wss://chat.example/support".into(),
            exchanges: vec![WsExchange {
                send: vec![SentItem::Cookie],
                receive: vec![ReceivedItem::Html],
            }],
        })),
    ];
    host.add_page(page);
    host.add_script(
        "http://cdn.pub.example/app.js",
        ScriptBehavior::inert().then(Action::IncludeScript {
            url: "https://tag.sneaky-ads.example/loader.js".into(),
        }),
    );
    host.add_script(
        "https://tag.sneaky-ads.example/loader.js",
        ScriptBehavior::inert()
            .then(Action::FetchImage {
                url: "https://tag.sneaky-ads.example/pixel.gif".into(),
                sent: vec![SentItem::Cookie],
            })
            .then(Action::OpenWebSocket {
                url: "wss://collect.sneaky-ads.example/fp".into(),
                exchanges: vec![WsExchange {
                    send: vec![
                        SentItem::Cookie,
                        SentItem::Screen,
                        SentItem::Browser,
                        SentItem::Viewport,
                        SentItem::Orientation,
                    ],
                    receive: vec![ReceivedItem::Json],
                }],
            }),
    );
    host.add_ws_server("wss://chat.example/support", WsServerProfile::accepting());
    host.add_ws_server(
        "wss://collect.sneaky-ads.example/fp",
        WsServerProfile::accepting(),
    );
    host
}

fn visit_tree(
    host: &StaticHost,
    era: BrowserEra,
    ext: Option<AdBlockerExtension>,
) -> InclusionTree {
    let mut extensions = ExtensionHost::stock(era);
    if let Some(e) = ext {
        extensions = extensions.install(e);
    }
    let browser = Browser::new(host, extensions, BrowserConfig::default());
    let visit = browser.visit("http://pub.example/").expect("visit works");
    InclusionTree::build("http://pub.example/", &visit.events)
}

#[test]
fn full_pipeline_attributes_and_classifies() {
    let host = fixture();
    let tree = visit_tree(&host, BrowserEra::PreChrome58, None);
    tree.check_invariants().unwrap();

    // Two sockets: first-party chat + the tracker.
    assert_eq!(tree.websockets().count(), 2);

    let aa = AaDomainSet::from_domains(["sneaky-ads.example"]);
    let atts = attribution::attribute_sockets(&tree, &aa);
    let tracker = atts
        .iter()
        .find(|a| a.receiver == "sneaky-ads.example")
        .expect("tracker socket attributed");
    assert_eq!(tracker.initiator, "sneaky-ads.example");
    assert!(tracker.aa_initiated, "chain descends through the A&A tag");
    assert!(tracker.aa_received);
    assert!(tracker.cross_origin);

    let chat = atts.iter().find(|a| a.receiver == "chat.example").unwrap();
    assert!(!chat.aa_initiated);
    assert_eq!(chat.initiator, "pub.example"); // inline first-party code

    // Content analysis recovers the fingerprint bundle from the raw frames.
    let lib = PiiLibrary::new();
    let socket_node = tree
        .websockets()
        .find(|n| tree.host(n.id).contains("sneaky-ads"))
        .unwrap();
    let ws = socket_node.ws.as_ref().unwrap();
    let payload = ws.sent[0].as_text().unwrap();
    let items = lib.classify_sent(payload.as_bytes());
    for item in [
        SentItem::Cookie,
        SentItem::Screen,
        SentItem::Browser,
        SentItem::Viewport,
        SentItem::Orientation,
    ] {
        assert!(items.contains(&item), "{item:?}");
    }
    // UA always rides the handshake.
    let hs_items = lib.classify_sent_text(&ws.handshake_request);
    assert!(hs_items.contains(&SentItem::UserAgent));
}

#[test]
fn wrb_blocks_http_but_not_sockets_pre_58() {
    let host = fixture();
    let (engine, errs) = Engine::parse("||sneaky-ads.example^");
    assert!(errs.is_empty());
    let tree = visit_tree(
        &host,
        BrowserEra::PreChrome58,
        Some(AdBlockerExtension::new("abp", engine)),
    );
    // The loader script itself was blocked (HTTP), so no tracker socket —
    // blocking the chain upstream works even with the WRB…
    assert!(tree
        .nodes()
        .iter()
        .any(|n| n.kind == NodeKind::Blocked && tree.url_text(n.id).contains("loader.js")));
    // …and the unlisted first-party chat socket is untouched.
    assert_eq!(tree.websockets().count(), 1);
}

#[test]
fn wrb_is_the_only_gap_for_unlisted_script_chains() {
    // Rules cover only the socket endpoint, not the scripts: exactly the
    // §4.2 scenario — pre-58 nothing can stop the flow, post-58 the socket
    // rule finally bites.
    let host = fixture();
    let rules = "||collect.sneaky-ads.example^$websocket";
    for (era, expected_sockets) in [
        (BrowserEra::PreChrome58, 2usize),
        (BrowserEra::PostChrome58, 1usize),
    ] {
        let (engine, errs) = Engine::parse(rules);
        assert!(errs.is_empty());
        let tree = visit_tree(&host, era, Some(AdBlockerExtension::new("abp", engine)));
        assert_eq!(tree.websockets().count(), expected_sockets, "era {era:?}");
    }
}

#[test]
fn iframe_sockets_escape_the_constructor_shim_but_not_the_patch() {
    // page → tag script → ad iframe → inline script → socket: the chain the
    // uBO-Extra-style page-world wrapper cannot reach.
    let mut host = StaticHost::new();
    let mut page = Page::new("http://pub.example/", "Pub");
    page.scripts = vec![ScriptRef::Remote("http://tag.adnet.example/tag.js".into())];
    host.add_page(page);
    host.add_script(
        "http://tag.adnet.example/tag.js",
        ScriptBehavior::inert().then(Action::OpenFrame {
            url: "https://adframe.adnet.example/frame.html".into(),
        }),
    );
    let mut frame_page = Page::new("https://adframe.adnet.example/frame.html", "ad");
    frame_page.scripts = vec![ScriptRef::Inline(ScriptBehavior::inert().then(
        Action::OpenWebSocket {
            url: "wss://rt.adnet.example/serve".into(),
            exchanges: vec![WsExchange::send_only(vec![SentItem::Cookie])],
        },
    ))];
    host.add_page(frame_page);
    host.add_ws_server("wss://rt.adnet.example/serve", WsServerProfile::accepting());

    let (engine, _) = Engine::parse("||rt.adnet.example^$websocket");
    // Pre-58 + shim: the iframe socket leaks.
    let shim_browser = Browser::new(
        &host,
        ExtensionHost::stock(BrowserEra::PreChrome58)
            .install(AdBlockerExtension::new("abp", {
                let (e, _) = Engine::parse("||rt.adnet.example^$websocket");
                e
            }))
            .with_ws_shim(),
        BrowserConfig::default(),
    );
    let visit = shim_browser.visit("http://pub.example/").unwrap();
    assert_eq!(visit.websocket_count(), 1, "iframe socket escapes the shim");
    // The chain passes through the frame node.
    let tree = InclusionTree::build("http://pub.example/", &visit.events);
    let socket = tree.websockets().next().unwrap();
    let kinds: Vec<NodeKind> = tree.chain(socket.id).iter().map(|n| n.kind).collect();
    assert_eq!(
        kinds,
        vec![
            NodeKind::Page,
            NodeKind::Script,
            NodeKind::Frame,
            NodeKind::Script,
            NodeKind::WebSocket
        ]
    );
    // Post-58: the real patch sees it regardless of frames.
    let patched = Browser::new(
        &host,
        ExtensionHost::stock(BrowserEra::PostChrome58)
            .install(AdBlockerExtension::new("abp", engine)),
        BrowserConfig::default(),
    );
    let visit = patched.visit("http://pub.example/").unwrap();
    assert_eq!(visit.websocket_count(), 0);
}

#[test]
fn handshake_bytes_validate_under_wsproto() {
    // The handshake recorded in CDP events must be a *valid* RFC 6455
    // upgrade — parse it back through the server-side state machine.
    let host = fixture();
    let tree = visit_tree(&host, BrowserEra::PreChrome58, None);
    for socket in tree.websockets() {
        let ws = socket.ws.as_ref().unwrap();
        let req = ws.handshake_request.as_bytes();
        let parsed = sockscope::wsproto::ServerHandshake::accept_request(req)
            .expect("handshake in CDP events is RFC 6455 valid");
        assert!(parsed.request.get("user-agent").is_some());
        assert_eq!(ws.status, 101);
        assert!(ws.closed, "close handshake completed");
    }
}
