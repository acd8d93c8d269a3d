//! DOM exfiltration by session-replay services (§4.3).
//!
//! A checkout page contains sensitive state — a search query and an unsent
//! support message. A Hotjar-style session-replay script serializes the
//! entire DOM and uploads it over a WebSocket. We run the page, capture the
//! real frames, and show that the analyzer's regex library flags the DOM
//! upload and that the sensitive strings are sitting in the payload.
//!
//! ```sh
//! cargo run --example session_replay_exfiltration
//! ```

use sockscope::analysis::PiiLibrary;
use sockscope::browser::{Browser, BrowserConfig, BrowserEra, ExtensionHost};
use sockscope::inclusion::InclusionTree;
use sockscope::webmodel::SentItem as Item;
use sockscope::webmodel::{
    host::StaticHost, Action, DomNode, Page, ScriptBehavior, ScriptRef, SentItem, WsExchange,
    WsServerProfile,
};

fn checkout_page() -> Page {
    let mut page = Page::new("http://shop.example/checkout", "Checkout");
    page.dom = Some(DomNode::el(
        "html",
        &[],
        vec![
            DomNode::el("head", &[], vec![]),
            DomNode::el(
                "body",
                &[],
                vec![
                    DomNode::el(
                        "input",
                        &[
                            ("name", "search"),
                            ("value", "prescription sleep medication"),
                        ],
                        vec![],
                    ),
                    DomNode::el(
                        "textarea",
                        &[("id", "support-draft")],
                        vec![DomNode::text("my card was charged twice, account 4421-99")],
                    ),
                    DomNode::el(
                        "script",
                        &[("src", "https://static.replayco.example/replay.js")],
                        vec![],
                    ),
                ],
            ),
        ],
    ));
    page.scripts = vec![ScriptRef::Remote(
        "https://static.replayco.example/replay.js".into(),
    )];
    page
}

fn main() {
    let mut web = StaticHost::new();
    web.add_page(checkout_page());
    web.add_script(
        "https://static.replayco.example/replay.js",
        ScriptBehavior::inert().then(Action::OpenWebSocket {
            url: "wss://ingest.replayco.example/session".into(),
            exchanges: vec![WsExchange::send_only(vec![
                Item::Cookie,
                Item::UserId,
                Item::Dom,
            ])],
        }),
    );
    web.add_ws_server(
        "wss://ingest.replayco.example/session",
        WsServerProfile::accepting(),
    );

    let browser = Browser::new(
        &web,
        ExtensionHost::stock(BrowserEra::PreChrome58),
        BrowserConfig::default(),
    );
    let visit = browser
        .visit("http://shop.example/checkout")
        .expect("visit");
    let tree = InclusionTree::build("http://shop.example/checkout", &visit.events);
    let socket = tree.websockets().next().expect("replay socket");
    let transcript = socket.ws.as_ref().expect("transcript");

    println!("session-replay socket: {}", tree.url_text(socket.id));
    let payload = transcript.sent[0].as_text().expect("text frame");
    println!("uploaded payload size: {} bytes\n", payload.len());

    // The analyzer flags it…
    let lib = PiiLibrary::new();
    let items = lib.classify_sent(payload.as_bytes());
    println!("regex library classification: {items:?}");
    assert!(items.contains(&SentItem::Dom));
    assert!(items.contains(&SentItem::Cookie));

    // …and the sensitive content is literally in the frame.
    for secret in ["prescription sleep medication", "charged twice"] {
        assert!(
            payload.contains(secret),
            "payload should contain {secret:?}"
        );
        println!("payload contains the user's {secret:?}");
    }
    println!();
    println!("§4.3: \"the entire DOM was serialized and uploaded to Hotjar,");
    println!("LuckyOrange, or TruConversion … it may reveal search queries,");
    println!("unsent messages, etc.\" — and while the WRB was live, no blocker");
    println!("could interpose on this upload.");
}
