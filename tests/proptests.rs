//! Property-based tests over the substrate crates: protocol roundtrips
//! under arbitrary payloads and packetization, parser totality, labeling
//! monotonicity, and inclusion-tree invariants under random event streams.

use proptest::prelude::*;
use sockscope::browser::{
    CdpEvent, FrameId, FramePayload, Initiator, RequestId, ResourceKind, ScriptId,
};
use sockscope::inclusion::InclusionTree;
use sockscope::wsproto::codec::{FrameDecoder, FrameEncoder, MaskingRole};
use sockscope::wsproto::{base64, sha1, Frame};

// ---------------------------------------------------------------------------
// wsproto
// ---------------------------------------------------------------------------

proptest! {
    /// Any payload, encoded by either role, decodes identically no matter
    /// how the byte stream is chopped up.
    #[test]
    fn frame_roundtrip_survives_any_packetization(
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
        client_side in any::<bool>(),
        cut in any::<prop::sample::Index>(),
    ) {
        let (enc_role, dec_role) = if client_side {
            (MaskingRole::Client, MaskingRole::Server)
        } else {
            (MaskingRole::Server, MaskingRole::Client)
        };
        let mut enc = FrameEncoder::new(enc_role, 99);
        let bytes = enc.encode(&Frame::binary(payload.clone()));
        let mut dec = FrameDecoder::new(dec_role);
        let split = cut.index(bytes.len() + 1);
        dec.feed(&bytes[..split]);
        let early = dec.next_frame().unwrap();
        if split < bytes.len() {
            prop_assert!(early.is_none() || early.as_ref().unwrap().payload == payload);
        }
        dec.feed(&bytes[split..]);
        if early.is_none() {
            let frame = dec.next_frame().unwrap().expect("complete frame");
            prop_assert_eq!(frame.payload, payload);
        }
    }

    /// Multiple frames coalesced into one buffer come out in order.
    #[test]
    fn coalesced_frames_decode_in_order(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 1..8),
    ) {
        let mut enc = FrameEncoder::new(MaskingRole::Client, 3);
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend(enc.encode(&Frame::binary(p.clone())));
        }
        let mut dec = FrameDecoder::new(MaskingRole::Server);
        dec.feed(&stream);
        for p in &payloads {
            let f = dec.next_frame().unwrap().expect("frame available");
            prop_assert_eq!(&f.payload, p);
        }
        prop_assert!(dec.next_frame().unwrap().is_none());
    }

    /// Fragmented text messages reassemble to the original string for any
    /// fragment size.
    #[test]
    fn fragmentation_reassembles(text in ".{0,500}", frag in 1usize..64) {
        use sockscope::wsproto::{connection::pump, Connection, Event, Message, Role};
        let mut c = Connection::new(Role::Client, 1);
        let mut s = Connection::new(Role::Server, 2);
        c.send_text_fragmented(&text, frag).unwrap();
        let (_, events) = pump(&mut c, &mut s).unwrap();
        if text.is_empty() {
            // Empty text may arrive as one empty message.
            prop_assert!(events.len() <= 1);
        } else {
            prop_assert_eq!(events.len(), 1);
            match &events[0] {
                Event::Message(Message::Text(t)) => prop_assert_eq!(t, &text),
                other => prop_assert!(false, "unexpected event {:?}", other),
            }
        }
    }

    /// Base64 roundtrips arbitrary bytes.
    #[test]
    fn base64_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let encoded = base64::encode(&data);
        prop_assert_eq!(base64::decode(&encoded).unwrap(), data);
    }

    /// The decoder never panics on garbage input.
    #[test]
    fn decoder_is_total(garbage in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut dec = FrameDecoder::new(MaskingRole::Server);
        dec.feed(&garbage);
        // Drain until error or exhaustion — must not panic or loop.
        for _ in 0..600 {
            match dec.next_frame() {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// SHA-1 streaming equals one-shot for any split.
    #[test]
    fn sha1_incremental(data in proptest::collection::vec(any::<u8>(), 0..300),
                        cut in any::<prop::sample::Index>()) {
        let split = cut.index(data.len() + 1);
        let mut h = sha1::Sha1::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha1::sha1(&data));
    }
}

// ---------------------------------------------------------------------------
// urlkit
// ---------------------------------------------------------------------------

fn url_strategy() -> impl Strategy<Value = String> {
    (
        prop::sample::select(vec!["http", "https", "ws", "wss"]),
        "[a-z]{1,8}",
        prop::sample::select(vec!["com", "net", "io", "co.uk", "example"]),
        prop::option::of(1024u16..60000),
        "[a-z0-9/_.-]{0,20}",
        prop::option::of("[a-z0-9=&]{1,20}"),
    )
        .prop_map(|(scheme, host, tld, port, path, query)| {
            let mut u = format!("{scheme}://{host}.{tld}");
            if let Some(p) = port {
                u.push_str(&format!(":{p}"));
            }
            u.push('/');
            u.push_str(path.trim_start_matches('/'));
            if let Some(q) = query {
                u.push('?');
                u.push_str(&q);
            }
            u
        })
}

proptest! {
    /// Display → parse is a fixed point.
    #[test]
    fn url_display_roundtrip(u in url_strategy()) {
        if let Ok(parsed) = sockscope::urlkit::Url::parse(&u) {
            let text = parsed.to_string();
            let reparsed = sockscope::urlkit::Url::parse(&text).unwrap();
            prop_assert_eq!(parsed, reparsed);
        }
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn url_parser_is_total(s in ".{0,80}") {
        let _ = sockscope::urlkit::Url::parse(&s);
    }

    /// second_level_domain is idempotent and a suffix of its input.
    #[test]
    fn sld_idempotent(host in "[a-z]{1,6}(\\.[a-z]{1,6}){0,4}") {
        let sld = sockscope::urlkit::second_level_domain(&host);
        prop_assert!(host.ends_with(sld));
        prop_assert_eq!(sockscope::urlkit::second_level_domain(sld), sld);
    }
}

/// Labels that form public suffixes at every depth (`uk`, `co.uk`,
/// `s3.amazonaws.com`), ordinary and unknown labels, and numeric labels
/// (four of them make an IPv4 literal).
const HOST_LABELS: &[&str] = &[
    "a",
    "www",
    "example",
    "co",
    "uk",
    "com",
    "s3",
    "amazonaws",
    "github",
    "io",
    "zz",
    "1",
    "10",
    "255",
];

/// Hosts of one to five [`HOST_LABELS`], or an IPv4 literal from a small
/// pool (so equal and unequal pairs both occur), optionally with a
/// trailing dot.
fn host_strategy() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(prop::sample::select(HOST_LABELS.to_vec()), 1..6),
        prop::option::of(0u8..3),
        any::<bool>(),
    )
        .prop_map(|(labels, ipv4, trailing_dot)| {
            let mut host = match ipv4 {
                Some(last) => format!("10.0.0.{last}"),
                None => labels.join("."),
            };
            if trailing_dot {
                host.push('.');
            }
            host
        })
}

/// The `Vec`-of-label-starts form of `second_level_domain`, walking every
/// suffix of the host: the oracle for the property below.
fn second_level_domain_oracle(host: &str) -> &str {
    let host = host.strip_suffix('.').unwrap_or(host);
    let mut starts: Vec<usize> = vec![0];
    for (i, b) in host.bytes().enumerate() {
        if b == b'.' {
            starts.push(i + 1);
        }
    }
    for (pos, &start) in starts.iter().enumerate() {
        if sockscope::urlkit::is_public_suffix(&host[start..]) {
            return if pos == 0 {
                host
            } else {
                &host[starts[pos - 1]..]
            };
        }
    }
    if starts.len() >= 2 {
        &host[starts[starts.len() - 2]..]
    } else {
        host
    }
}

proptest! {
    /// The suffix-first lookup agrees with the `Vec`-based walk.
    #[test]
    fn sld_label_walk_matches_the_vec_oracle(host in host_strategy()) {
        prop_assert_eq!(
            sockscope::urlkit::second_level_domain(&host),
            second_level_domain_oracle(&host)
        );
    }

    /// `is_third_party` compares the URLs in place with exactly the
    /// semantics of `Origin::same_site`.
    #[test]
    fn third_party_is_not_same_site(a in host_strategy(), b in host_strategy()) {
        let parse = |h: &str| sockscope::urlkit::Url::parse(&format!("http://{h}/x"));
        if let (Ok(a), Ok(b)) = (parse(&a), parse(&b)) {
            prop_assert_eq!(
                sockscope::urlkit::origin::is_third_party(&a, &b),
                !a.origin().same_site(&b.origin())
            );
        }
    }

    /// A shared registrable domain really is shared: every host at or
    /// below the suffix registers there.
    #[test]
    fn shared_registrable_domain_holds_below_the_suffix(
        suffix in host_strategy(),
        head in host_strategy(),
    ) {
        if let Some(shared) = sockscope::urlkit::psl::shared_registrable_domain(&suffix) {
            for host in [suffix.clone(), format!("{head}.{suffix}")] {
                if let Ok(url) = sockscope::urlkit::Url::parse(&format!("http://{host}/")) {
                    prop_assert_eq!(url.second_level_domain(), Some(shared));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// filterlist
// ---------------------------------------------------------------------------

proptest! {
    /// The rule parser never panics, whatever the line.
    #[test]
    fn rule_parser_is_total(line in ".{0,100}") {
        let _ = sockscope::filterlist::rule::parse_line(&line);
    }

    /// A domain-anchored rule blocks every subdomain and never blocks
    /// unrelated registrable domains.
    #[test]
    fn domain_anchor_semantics(sub in "[a-z]{1,8}", other in "[a-z]{1,8}") {
        use sockscope::filterlist::{Engine, RequestContext, ResourceType};
        let (engine, errs) = Engine::parse("||blocked.example^");
        prop_assert!(errs.is_empty());
        let page = sockscope::urlkit::Url::parse("http://pub.example/").unwrap();
        let hit = sockscope::urlkit::Url::parse(
            &format!("http://{sub}.blocked.example/x")).unwrap();
        let hit_blocked = engine.blocks(&RequestContext {
            url: &hit,
            page: &page,
            resource_type: ResourceType::Script,
        });
        prop_assert!(hit_blocked);
        prop_assume!(other != "blocked");
        let miss = sockscope::urlkit::Url::parse(
            &format!("http://{other}.example/x")).unwrap();
        let miss_blocked = engine.blocks(&RequestContext {
            url: &miss,
            page: &page,
            resource_type: ResourceType::Script,
        });
        prop_assert!(!miss_blocked);
    }

    /// Labeling threshold is monotone: adding A&A observations never
    /// removes a domain from D'.
    #[test]
    fn labeler_monotone(aa in 0u32..50, non_aa in 0u32..50, extra in 1u32..20) {
        use sockscope::filterlist::Labeler;
        let mut small = Labeler::new();
        let mut big = Labeler::new();
        for _ in 0..aa {
            small.observe("d.example", true);
            big.observe("d.example", true);
        }
        for _ in 0..non_aa {
            small.observe("d.example", false);
            big.observe("d.example", false);
        }
        for _ in 0..extra {
            big.observe("d.example", true);
        }
        let in_small = small.finalize_paper().contains("d.example");
        let in_big = big.finalize_paper().contains("d.example");
        prop_assert!(!in_small || in_big);
    }
}

// ---------------------------------------------------------------------------
// redlite
// ---------------------------------------------------------------------------

proptest! {
    /// Literal patterns agree with `str::contains`.
    #[test]
    fn regex_literal_matches_contains(needle in "[a-z]{1,6}", hay in "[a-z ]{0,40}") {
        let re = sockscope::redlite::Regex::new(&needle).unwrap();
        prop_assert_eq!(re.is_match(&hay), hay.contains(&needle));
    }

    /// find() returns offsets of an actual occurrence.
    #[test]
    fn regex_find_offsets_are_real(needle in "[a-z]{1,4}", hay in "[a-z]{0,40}") {
        let re = sockscope::redlite::Regex::new(&needle).unwrap();
        if let Some(m) = re.find(&hay) {
            prop_assert_eq!(&hay[m.start..m.end], needle.as_str());
        }
    }

    /// The compiler rejects or accepts but never panics.
    #[test]
    fn regex_compiler_is_total(pattern in ".{0,30}") {
        let _ = sockscope::redlite::Regex::new(&pattern);
    }
}

// ---------------------------------------------------------------------------
// inclusion trees from random event streams
// ---------------------------------------------------------------------------

fn random_events() -> impl Strategy<Value = Vec<CdpEvent<'static>>> {
    let event = (0u8..6, 0u64..12, 0u64..12).prop_map(|(kind, a, b)| match kind {
        0 => CdpEvent::ScriptParsed {
            script_id: ScriptId(a),
            url: format!("http://s{a}.example/x.js").into(),
            parsed_url: None,
            frame_id: FrameId(0),
            initiator: if b % 2 == 0 {
                Initiator::Parser(FrameId(b % 3))
            } else {
                Initiator::Script(ScriptId(b))
            },
        },
        1 => CdpEvent::RequestWillBeSent {
            request_id: RequestId(a),
            url: format!("http://r{a}.example/p.gif").into(),
            parsed_url: None,
            resource_type: ResourceKind::Image,
            initiator: Initiator::Script(ScriptId(b)),
            frame_id: FrameId(0),
        },
        2 => CdpEvent::WebSocketCreated {
            request_id: RequestId(100 + a),
            url: format!("wss://w{a}.example/ws").into(),
            parsed_url: None,
            initiator: Initiator::Script(ScriptId(b)),
            frame_id: FrameId(0),
        },
        3 => CdpEvent::WebSocketFrameSent {
            request_id: RequestId(100 + a),
            payload: FramePayload::Text(format!("m{b}").into()),
        },
        4 => CdpEvent::FrameNavigated {
            frame_id: FrameId(1 + a % 3),
            parent_frame_id: Some(FrameId(b % 2)),
            url: format!("http://f{a}.example/").into(),
        },
        _ => CdpEvent::WebSocketClosed {
            request_id: RequestId(100 + a),
        },
    });
    proptest::collection::vec(event, 0..60)
}

proptest! {
    /// Whatever the event stream — including dangling references and
    /// orphaned frames — the tree builder upholds its invariants.
    #[test]
    fn tree_invariants_hold_for_any_stream(events in random_events()) {
        let tree = InclusionTree::build("http://page.example/", &events);
        prop_assert!(tree.check_invariants().is_ok());
        // Chains terminate at the root.
        for node in tree.nodes() {
            let chain = tree.chain(node.id);
            prop_assert_eq!(chain[0].id, tree.root().id);
            prop_assert_eq!(chain[chain.len() - 1].id, node.id);
        }
    }

    /// The fused pipeline's incremental builder — fed one event at a time,
    /// as a [`VisitSink`] — produces exactly the tree the batch constructor
    /// builds from the buffered stream, for any event ordering (including
    /// dangling references and orphaned frames).
    #[test]
    fn incremental_tree_equals_batch_tree(events in random_events()) {
        use sockscope::browser::VisitSink;
        use sockscope::inclusion::TreeBuilder;

        let batch = InclusionTree::build("http://page.example/", &events);
        let mut builder = TreeBuilder::new("http://page.example/");
        for event in &events {
            builder.on_event(event.clone());
        }
        prop_assert_eq!(builder.finish(), batch);
    }
}

/// The derived serialization of a tree's two JSON fields, `page_url` then
/// `nodes`: the format trees are saved in.
#[derive(serde::Serialize)]
struct DerivedTreeJson {
    page_url: String,
    nodes: Vec<DerivedNodeJson>,
}

/// A node's saved fields in their saved order: its own fields, with its
/// URL text and host after its id.
#[derive(serde::Serialize)]
struct DerivedNodeJson {
    id: sockscope::inclusion::NodeId,
    url: String,
    host: String,
    kind: sockscope::inclusion::NodeKind,
    parent: Option<sockscope::inclusion::NodeId>,
    children: Vec<sockscope::inclusion::NodeId>,
    ws: Option<sockscope::inclusion::WsTranscript>,
    http_body: Option<Vec<u8>>,
    http_sent_ground_truth: Vec<sockscope::webmodel::SentItem>,
}

impl DerivedTreeJson {
    fn of(tree: &InclusionTree) -> DerivedTreeJson {
        let nodes = tree
            .nodes()
            .iter()
            .map(|n| DerivedNodeJson {
                id: n.id,
                url: tree.url_text(n.id).to_string(),
                host: tree.host(n.id).to_string(),
                kind: n.kind,
                parent: n.parent,
                children: n.children.clone(),
                ws: n.ws.clone(),
                http_body: n.http_body.clone(),
                http_sent_ground_truth: n.http_sent_ground_truth.clone(),
            })
            .collect();
        DerivedTreeJson {
            page_url: tree.page_url.clone(),
            nodes,
        }
    }
}

/// [`random_events`] with some URLs made mixed-case or unparseable, and a
/// page URL that may be either: `(page_url, events)`.
fn random_events_with_odd_urls() -> impl Strategy<Value = (String, Vec<CdpEvent<'static>>)> {
    const PAGES: [&str; 4] = [
        "http://page.example/",
        "HTTP://Page.Example/Index",
        "data:text/html,hi",
        "http://bad host/",
    ];
    (
        random_events(),
        proptest::collection::vec(0u8..4, 60..61),
        0usize..PAGES.len(),
    )
        .prop_map(|(mut events, odd, page)| {
            for (event, odd) in events.iter_mut().zip(odd) {
                let url = match event {
                    CdpEvent::ScriptParsed { url, .. }
                    | CdpEvent::RequestWillBeSent { url, .. }
                    | CdpEvent::WebSocketCreated { url, .. }
                    | CdpEvent::FrameNavigated { url, .. } => url,
                    _ => continue,
                };
                *url = match odd {
                    1 => url.to_ascii_uppercase().into(),
                    2 => "javascript:void(0)".into(),
                    3 => format!("{url}\u{2003}#frag").into(),
                    _ => continue,
                };
            }
            (PAGES[page].to_string(), events)
        })
}

/// `event` with the parse of its URL attached, if it is a node-creating
/// event whose URL parses: what the browser hands the tree builder.
fn carry_parse(mut event: CdpEvent<'static>) -> CdpEvent<'static> {
    if let CdpEvent::ScriptParsed {
        url, parsed_url, ..
    }
    | CdpEvent::RequestWillBeSent {
        url, parsed_url, ..
    }
    | CdpEvent::WebSocketCreated {
        url, parsed_url, ..
    } = &mut event
    {
        *parsed_url = sockscope::urlkit::Url::parse(url)
            .ok()
            .map(std::borrow::Cow::Owned);
    }
    event
}

proptest! {
    /// Every tree — built in batch, built incrementally with or without
    /// the browser's parses, by a recycled builder, or reloaded from its
    /// JSON — carries exactly a fresh parse of each node's URL, and its
    /// JSON is byte for byte the derived serialization of its fields.
    #[test]
    fn trees_carry_the_parse_of_each_node_url(stream in random_events_with_odd_urls()) {
        use sockscope::browser::VisitSink;
        use sockscope::inclusion::TreeBuilder;
        use sockscope::urlkit::Url;

        let (page, events) = stream;
        let batch = InclusionTree::build(&page, &events);
        let mut builder = TreeBuilder::new(&page);
        for event in &events {
            builder.on_event(event.clone());
        }
        let incremental = builder.finish();
        // The same stream carrying each URL's parse, as the browser's
        // events do, into a builder recycled from another page.
        let mut reused = TreeBuilder::new("http://other.example/");
        for event in &events {
            reused.push(event.clone());
        }
        let spent = reused.finish();
        reused.recycle(spent);
        reused.reset(&page);
        for event in &events {
            reused.push(carry_parse(event.clone()));
        }
        let carried = reused.finish();
        let json = serde_json::to_string(&batch).unwrap();
        let reloaded: InclusionTree = serde_json::from_str(&json).unwrap();
        for tree in [&batch, &incremental, &carried, &reloaded] {
            for node in tree.nodes() {
                prop_assert_eq!(tree.url(node.id), Url::parse(tree.url_text(node.id)).ok().as_ref());
            }
            prop_assert!(tree.check_invariants().is_ok());
        }
        prop_assert_eq!(&carried, &batch);
        prop_assert_eq!(&reloaded, &batch);
        prop_assert_eq!(json, serde_json::to_string(&DerivedTreeJson::of(&batch)).unwrap());
    }
}

// ---------------------------------------------------------------------------
// payload classification: rendered items are always recovered
// ---------------------------------------------------------------------------

proptest! {
    /// Whatever subset of (non-DOM, non-binary) items a tracker sends, the
    /// regex library recovers exactly a superset containing them.
    #[test]
    fn classifier_recovers_any_item_subset(mask in 0u16..(1 << 13), seed in any::<u64>()) {
        use sockscope::webmodel::{SentItem, ValueContext};
        let all = [
            SentItem::UserAgent, SentItem::Cookie, SentItem::Ip, SentItem::UserId,
            SentItem::Device, SentItem::Screen, SentItem::Browser, SentItem::Viewport,
            SentItem::ScrollPosition, SentItem::Orientation, SentItem::FirstSeen,
            SentItem::Resolution, SentItem::Language,
        ];
        let items: Vec<SentItem> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &item)| item)
            .collect();
        let ctx = ValueContext::deterministic(seed);
        let payload = ctx.render_sent(&items);
        let lib = sockscope::analysis::PiiLibrary::new();
        let got = lib.classify_sent(payload.as_bytes());
        for item in &items {
            prop_assert!(got.contains(item), "{:?} lost in roundtrip", item);
        }
    }
}

// ---------------------------------------------------------------------------
// sharded reduction: merge is a faithful monoid over site partitions
// ---------------------------------------------------------------------------

/// Shared crawl fixture for the merge properties: records are expensive to
/// produce and the properties only ever *reduce* them.
mod shard_fixture {
    use sockscope::crawler::{crawl_reference, CrawlConfig, SiteRecord};
    use sockscope::filterlist::Engine;
    use sockscope::webgen::{SyntheticWeb, WebGenConfig};
    use std::sync::OnceLock;

    pub const N_SITES: usize = 40;

    pub struct Fixture {
        pub records: Vec<SiteRecord>,
        pub engine: Engine,
        pub label: String,
        pub pre_patch: bool,
    }

    pub fn get() -> &'static Fixture {
        static FIX: OnceLock<Fixture> = OnceLock::new();
        FIX.get_or_init(|| {
            let web = SyntheticWeb::new(WebGenConfig {
                n_sites: N_SITES,
                ..WebGenConfig::default()
            });
            let (engine, errs) = Engine::parse_many(&[&web.easylist(), &web.easyprivacy()]);
            assert!(errs.is_empty(), "generated lists must parse");
            let era = &web.config().era;
            Fixture {
                label: era.label().to_string(),
                pre_patch: era.pre_patch(),
                records: crawl_reference(&web, &CrawlConfig::default()),
                engine,
            }
        })
    }
}

proptest! {
    /// ANY assignment of sites to shards, reduced shard-locally and folded
    /// with `merge`, equals the sequential single-reduction baseline on
    /// every table-feeding field.
    #[test]
    fn any_shard_partition_merges_to_the_sequential_reduction(
        assignment in proptest::collection::vec(0usize..5, shard_fixture::N_SITES..shard_fixture::N_SITES + 1),
    ) {
        use sockscope::analysis::reduce::CrawlReduction;
        use sockscope::analysis::PiiLibrary;
        let fix = shard_fixture::get();
        let lib = PiiLibrary::new();

        let mut sequential = CrawlReduction::new(fix.label.as_str(), fix.pre_patch);
        for record in &fix.records {
            sequential.observe_site(record, &fix.engine, &lib);
        }
        sequential.normalize();

        let mut shards: Vec<CrawlReduction> = (0..5)
            .map(|_| CrawlReduction::new(fix.label.as_str(), fix.pre_patch))
            .collect();
        for (record, &shard) in fix.records.iter().zip(&assignment) {
            shards[shard].observe_site(record, &fix.engine, &lib);
        }
        let mut merged = shards.into_iter().fold(
            CrawlReduction::new(fix.label.as_str(), fix.pre_patch),
            CrawlReduction::merge,
        );
        merged.normalize();

        // Field by field first, so a regression names the table it breaks.
        prop_assert_eq!(&merged.label_counts, &sequential.label_counts); // D' labeling
        prop_assert_eq!(&merged.http, &sequential.http);                 // Table 5 HTTP/S
        prop_assert_eq!(&merged.sockets, &sequential.sockets);           // Tables 2-5
        prop_assert_eq!(&merged.sites, &sequential.sites);               // Table 1 / Figure 3
        prop_assert_eq!(merged, sequential);
    }

    /// merge is associative: (a ⋅ b) ⋅ c == a ⋅ (b ⋅ c) for any 3-way split.
    #[test]
    fn merge_is_associative(
        assignment in proptest::collection::vec(0usize..3, shard_fixture::N_SITES..shard_fixture::N_SITES + 1),
    ) {
        use sockscope::analysis::reduce::CrawlReduction;
        use sockscope::analysis::PiiLibrary;
        let fix = shard_fixture::get();
        let lib = PiiLibrary::new();

        let mut parts: Vec<CrawlReduction> = (0..3)
            .map(|_| CrawlReduction::new(fix.label.as_str(), fix.pre_patch))
            .collect();
        for (record, &shard) in fix.records.iter().zip(&assignment) {
            parts[shard].observe_site(record, &fix.engine, &lib);
        }
        let [a, b, c]: [CrawlReduction; 3] = parts.try_into().expect("three parts");

        let left = a.clone().merge(b.clone()).merge(c.clone());
        let right = a.merge(b.merge(c));
        prop_assert_eq!(left, right);
    }

    /// merge is commutative up to normalize (shard order must not matter
    /// beyond the canonical sort).
    #[test]
    fn merge_is_commutative_after_normalize(
        assignment in proptest::collection::vec(0usize..2, shard_fixture::N_SITES..shard_fixture::N_SITES + 1),
    ) {
        use sockscope::analysis::reduce::CrawlReduction;
        use sockscope::analysis::PiiLibrary;
        let fix = shard_fixture::get();
        let lib = PiiLibrary::new();

        let mut a = CrawlReduction::new(fix.label.as_str(), fix.pre_patch);
        let mut b = CrawlReduction::new(fix.label.as_str(), fix.pre_patch);
        for (record, &shard) in fix.records.iter().zip(&assignment) {
            let target = if shard == 0 { &mut a } else { &mut b };
            target.observe_site(record, &fix.engine, &lib);
        }
        let mut ab = a.clone().merge(b.clone());
        let mut ba = b.merge(a);
        ab.normalize();
        ba.normalize();
        prop_assert_eq!(ab, ba);
    }
}

// ---------------------------------------------------------------------------
// browser visit arena: reset-and-reuse
// ---------------------------------------------------------------------------

use sockscope::browser::{Browser, BrowserConfig, BrowserEra, ExtensionHost, VisitSink};
use sockscope::webmodel::host::StaticHost;
use sockscope::webmodel::{
    Action, Page, ReceivedItem, ScriptBehavior, ScriptRef, SentItem, WsExchange, WsServerProfile,
};

/// A small fixed web with enough variety (scripts, an image fetch, a
/// WebSocket with traffic) to exercise every arena-backed buffer a visit
/// allocates, and every piece of per-visit state the browser recycles.
fn arena_web() -> StaticHost {
    let mut h = StaticHost::new();
    let mut home = Page::new("http://site.example/index.html", "Site");
    home.scripts = vec![
        ScriptRef::Remote("http://site.example/app.js".into()),
        ScriptRef::Remote("http://beacon.example/tag.js".into()),
    ];
    h.add_page(home);
    let mut small = Page::new("http://site.example/about.html", "About");
    small.scripts = vec![ScriptRef::Remote("http://site.example/app.js".into())];
    h.add_page(small);
    h.add_script("http://site.example/app.js", ScriptBehavior::inert());
    h.add_script(
        "http://beacon.example/tag.js",
        ScriptBehavior::inert()
            .then(Action::FetchImage {
                url: "http://beacon.example/px.gif".into(),
                sent: vec![SentItem::Cookie, SentItem::Screen],
            })
            .then(Action::OpenWebSocket {
                url: "ws://beacon.example/feed.ws".into(),
                exchanges: vec![WsExchange {
                    send: vec![SentItem::Cookie, SentItem::UserAgent],
                    receive: vec![ReceivedItem::Json],
                }],
            }),
    );
    // Opens the beacon's socket without fetching the beacon's script, so
    // its handshake carries a `Cookie:` header only if the cookie jar
    // kept what an earlier visit to the home page set.
    let mut live = Page::new("http://site.example/live.html", "Live");
    live.scripts = vec![ScriptRef::Inline(ScriptBehavior::inert().then(
        Action::OpenWebSocket {
            url: "ws://beacon.example/feed.ws".into(),
            exchanges: vec![WsExchange {
                send: vec![SentItem::Cookie],
                receive: vec![],
            }],
        },
    ))];
    h.add_page(live);
    h.add_ws_server("ws://beacon.example/feed.ws", WsServerProfile::accepting());
    h
}

const ARENA_PAGES: [&str; 3] = [
    "http://site.example/index.html",
    "http://site.example/about.html",
    "http://site.example/live.html",
];

/// A sink that unwinds partway through a visit, the way a supervision
/// guard breach does: the visit's arena borrow must drop cleanly and the
/// browser must remain fully usable afterwards.
struct BreachingSink {
    remaining: usize,
}

impl VisitSink for BreachingSink {
    fn on_event(&mut self, _event: sockscope::browser::CdpEvent<'_>) {
        if self.remaining == 0 {
            panic!("injected guard breach");
        }
        self.remaining -= 1;
    }
}

proptest! {
    /// Interleaving successful visits, missing-page errors, and
    /// mid-visit unwinds in any order (a) leaves the visit arena at a
    /// stable high-water capacity — replaying the same interleaving
    /// allocates no new chunks — and (b) never perturbs visit output:
    /// after any history, a visit produces events byte-identical to a
    /// fresh browser's, because the reset arena, reseeded value context
    /// and cleared cookie jar are indistinguishable from new ones. The
    /// unwinds land anywhere up to the end of a visit, before or after
    /// its cookie is set and its socket's handshake is sent.
    #[test]
    fn visit_arena_reset_and_reuse_is_invisible(
        ops in proptest::collection::vec((0u8..3, 0usize..24), 1..16),
        seed in any::<u64>(),
    ) {
        let web = arena_web();
        let config = BrowserConfig {
            seed,
            ..BrowserConfig::default()
        };
        let make = || {
            Browser::new(
                &web,
                ExtensionHost::stock(BrowserEra::PreChrome58),
                config.clone(),
            )
        };

        // Reference streams, one fresh browser per page.
        let expected: Vec<String> = ARENA_PAGES
            .iter()
            .map(|url| format!("{:?}", make().visit(url).unwrap().events))
            .collect();

        let browser = make();
        // Returns each completed visit's page index and event stream.
        let replay = |browser: &Browser<'_>| {
            let mut visits = Vec::new();
            for &(kind, arg) in &ops {
                match kind {
                    0 => {
                        let page = arg % ARENA_PAGES.len();
                        let events = browser.visit(ARENA_PAGES[page]).unwrap().events;
                        visits.push((page, format!("{events:?}")));
                    }
                    1 => {
                        assert!(browser.visit("http://missing.example/x").is_err());
                    }
                    _ => {
                        let url = ARENA_PAGES[arg % ARENA_PAGES.len()];
                        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            let mut sink = BreachingSink { remaining: arg };
                            let _ = browser.visit_streamed(url, None, &mut sink);
                        }));
                        // Short budgets unwind mid-visit; long ones let the
                        // visit finish. Both must leave the browser usable.
                        let _ = outcome;
                    }
                }
            }
            visits
        };

        let first = replay(&browser);
        let warm = browser.arena_capacity();
        let second = replay(&browser);
        prop_assert_eq!(
            browser.arena_capacity(),
            warm,
            "arena grew on a replayed interleaving"
        );
        for (page, got) in first.iter().chain(&second) {
            prop_assert_eq!(got, &expected[*page], "history leaked into a replayed visit");
        }

        for (url, want) in ARENA_PAGES.iter().zip(&expected) {
            let got = format!("{:?}", browser.visit(url).unwrap().events);
            prop_assert_eq!(&got, want, "history leaked into visit events");
        }
    }
}
