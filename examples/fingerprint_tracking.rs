//! The DoubleClick → 33across fingerprinting pipeline (§4.3).
//!
//! Before the patch, DoubleClick's tag opened WebSockets to 33across and
//! shipped a browser-fingerprint bundle — the seven variables of Table 5
//! that always move together (device, screen, browser, viewport, scroll,
//! orientation, resolution) plus cookie-creation date. This example wires
//! the same page twice (Chrome <58, Chrome 58+ with a blocker that lists
//! both companies), captures the real frames, and shows (a) the bundle in
//! the bytes, (b) that the blocker is irrelevant while the WRB is live.
//!
//! ```sh
//! cargo run --release --example fingerprint_tracking
//! ```

use sockscope::analysis::PiiLibrary;
use sockscope::browser::{AdBlockerExtension, Browser, BrowserConfig, BrowserEra, ExtensionHost};
use sockscope::filterlist::Engine;
use sockscope::inclusion::InclusionTree;
use sockscope::webmodel::{
    host::StaticHost, Action, Page, ReceivedItem, ScriptBehavior, ScriptRef, SentItem, WsExchange,
    WsServerProfile,
};

fn build_web() -> StaticHost {
    let mut host = StaticHost::new();
    let mut page = Page::new("http://news.example/story", "News");
    // The publisher serves the loader first-party (unlisted), which pulls
    // the platform tag, which opens the fingerprint socket.
    page.scripts = vec![ScriptRef::Remote(
        "http://news.example/assets/ads-loader.js".into(),
    )];
    host.add_page(page);
    host.add_script(
        "http://news.example/assets/ads-loader.js",
        ScriptBehavior::inert().then(Action::IncludeScript {
            url: "https://stats.g.doubleclick.net/tag.js".into(),
        }),
    );
    host.add_script(
        "https://stats.g.doubleclick.net/tag.js",
        ScriptBehavior::inert().then(Action::OpenWebSocket {
            url: "wss://apx.33across.com/fingerprint".into(),
            exchanges: vec![WsExchange {
                send: vec![
                    SentItem::Cookie,
                    SentItem::Device,
                    SentItem::Screen,
                    SentItem::Browser,
                    SentItem::Viewport,
                    SentItem::ScrollPosition,
                    SentItem::Orientation,
                    SentItem::FirstSeen,
                    SentItem::Resolution,
                    SentItem::Language,
                ],
                receive: vec![ReceivedItem::Json],
            }],
        }),
    );
    host.add_ws_server(
        "wss://apx.33across.com/fingerprint",
        WsServerProfile::accepting(),
    );
    host
}

fn main() {
    let web = build_web();
    let lib = PiiLibrary::new();

    // --- Chrome <58 with a fully-armed blocker: the WRB wins. ---
    let (engine, errs) =
        Engine::parse("||33across.com^$websocket\n||33across.com^\n||doubleclick.net/pixel");
    assert!(errs.is_empty());
    let browser = Browser::new(
        &web,
        ExtensionHost::stock(BrowserEra::PreChrome58)
            .install(AdBlockerExtension::new("abp", engine)),
        BrowserConfig::default(),
    );
    let visit = browser.visit("http://news.example/story").expect("visit");
    let tree = InclusionTree::build("http://news.example/story", &visit.events);
    let socket = tree
        .websockets()
        .next()
        .expect("fingerprint socket opened despite blocker");

    let chain: Vec<&str> = tree
        .chain(socket.id)
        .iter()
        .map(|n| tree.host(n.id))
        .collect();
    println!("inclusion chain: {}", chain.join(" -> "));
    let ws = socket.ws.as_ref().unwrap();
    let payload = ws.sent[0].as_text().unwrap();
    println!("\nraw frame ({} bytes):\n{payload}\n", payload.len());

    let items = lib.classify_sent(payload.as_bytes());
    let fp: Vec<_> = items.iter().filter(|i| i.is_fingerprinting()).collect();
    println!("fingerprinting variables recovered by the analyzer: {fp:?}");
    assert_eq!(fp.len(), 7, "the full Table 5 bundle");

    // --- Chrome 58+: the same blocker now kills it. ---
    let (engine, _) = Engine::parse("||33across.com^$websocket");
    let patched = Browser::new(
        &web,
        ExtensionHost::stock(BrowserEra::PostChrome58)
            .install(AdBlockerExtension::new("abp", engine)),
        BrowserConfig::default(),
    );
    let visit = patched.visit("http://news.example/story").expect("visit");
    assert_eq!(visit.websocket_count(), 0);
    println!("\nChrome 58+ with the same rules: socket blocked. The pipeline");
    println!("only worked while the WRB was live — and §4.1 finds DoubleClick");
    println!("stopped initiating WebSockets right after the patch shipped.");
}
