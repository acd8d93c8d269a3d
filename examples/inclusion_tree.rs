//! Figure 2, live: DOM tree vs inclusion tree.
//!
//! Builds the paper's example page — a publisher including its own script,
//! an ads script, and a tracker script, where the ads script dynamically
//! includes a second script that opens `ws://adnet/data.ws` — then prints
//! the *syntactic* DOM view next to the *semantic* inclusion tree the
//! methodology reconstructs from CDP events.
//!
//! ```sh
//! cargo run --example inclusion_tree
//! ```

use sockscope::browser::{Browser, BrowserConfig, BrowserEra, ExtensionHost};
use sockscope::inclusion::InclusionTree;
use sockscope::webmodel::{
    dom::figure2_dom, host::StaticHost, Action, Page, ReceivedItem, ScriptBehavior, ScriptRef,
    SentItem, WsExchange, WsServerProfile,
};

fn build_web() -> StaticHost {
    let mut host = StaticHost::new();
    let mut page = Page::new("http://pub.example/index.html", "Publisher");
    page.scripts = vec![
        ScriptRef::Remote("http://pub.example/script.js".into()),
        ScriptRef::Remote("http://ads.example/script.js".into()),
        ScriptRef::Remote("http://tracker.example/script.js".into()),
    ];
    page.dom = Some(figure2_dom());
    host.add_page(page);
    host.add_script("http://pub.example/script.js", ScriptBehavior::inert());
    host.add_script(
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
    // Source code for ads/script.js (per the figure):
    //   let ws = new WebSocket("ws://adnet/data.ws", ...);
    //   ws.onopen = function(e) { ws.send("..."); }
    host.add_script(
        "http://ads.example/script2.js",
        ScriptBehavior::inert().then(Action::OpenWebSocket {
            url: "ws://adnet.example/data.ws".into(),
            exchanges: vec![WsExchange {
                send: vec![SentItem::Cookie, SentItem::UserId],
                receive: vec![ReceivedItem::Json],
            }],
        }),
    );
    host.add_script("http://tracker.example/script.js", ScriptBehavior::inert());
    host.add_ws_server("ws://adnet.example/data.ws", WsServerProfile::accepting());
    host
}

fn main() {
    let web = build_web();
    let browser = Browser::new(
        &web,
        ExtensionHost::stock(BrowserEra::PreChrome58),
        BrowserConfig::default(),
    );
    let visit = browser
        .visit("http://pub.example/index.html")
        .expect("visit");
    let tree = InclusionTree::build("http://pub.example/index.html", &visit.events);

    println!("=== DOM tree (syntactic view) ===");
    println!("{}", figure2_dom().to_html());
    println!();
    println!("The DOM shows three *sibling* <script> tags. It cannot tell you");
    println!("which script opened the WebSocket — §3.1's point exactly.");
    println!();
    println!("=== Inclusion tree (semantic view, from CDP events) ===");
    print!("{}", tree.ascii());
    println!();

    let socket = tree.websockets().next().expect("one socket");
    let chain: Vec<&str> = tree
        .chain(socket.id)
        .iter()
        .map(|n| tree.url_text(n.id))
        .collect();
    println!("WebSocket attribution chain: {}", chain.join("  ->  "));
    println!();
    println!("=== The socket's transcript (real RFC 6455 frames) ===");
    let ws = socket.ws.as_ref().expect("transcript");
    println!(
        "handshake request begins: {:?}",
        ws.handshake_request.lines().next().unwrap_or_default()
    );
    for payload in &ws.sent {
        println!("sent:     {:?}", payload.as_text().unwrap_or("<binary>"));
    }
    for payload in &ws.received {
        println!("received: {:?}", payload.as_text().unwrap_or("<binary>"));
    }
}
