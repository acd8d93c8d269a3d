//! Snapshot round-trip regression: a fixed-seed mini-study serialized to
//! JSON and reloaded must re-derive every paper artifact identically.
//!
//! This is the contract the CLI's `run --save` / `--from` workflow depends
//! on: anything a table or figure reads must survive
//! capture → JSON → parse → restore bit-for-bit.
//!
//! The second half of the file covers the *failure* surface of the same
//! workflow: every way a snapshot or journal segment can be damaged on
//! disk must map to a typed error ([`SnapshotError`] / [`SegmentError`]),
//! and the durable save path must stage-then-rename rather than write in
//! place.

use sockscope::analysis::snapshot::{SnapshotError, StudySnapshot, SNAPSHOT_VERSION};
use sockscope::analysis::PiiLibrary;
use sockscope::crawler::crawl_reference;
use sockscope::filterlist::{Decision, PageFacts, RequestContext, ResourceType};
use sockscope::inclusion::NodeKind;
use sockscope::{Study, StudyConfig, StudyReport};
use sockscope_journal::{
    decode_segment, encode_segment, temp_path, SegmentError, SegmentMeta, HEADER_LEN,
};
use std::sync::OnceLock;

fn reports() -> &'static (StudyReport, StudyReport) {
    static PAIR: OnceLock<(StudyReport, StudyReport)> = OnceLock::new();
    PAIR.get_or_init(|| {
        let study = Study::run(&StudyConfig {
            seed: 0xD15C,
            n_sites: 150,
            threads: 4,
            ..StudyConfig::default()
        });
        let json = StudySnapshot::capture(&study).to_json();
        let restored = StudySnapshot::from_json(&json)
            .expect("snapshot parses")
            .restore()
            .expect("snapshot restores");
        (
            StudyReport::from_study(study),
            StudyReport::from_study(restored),
        )
    })
}

#[test]
fn tables_survive_the_json_roundtrip() {
    let (original, restored) = reports();
    assert_eq!(original.table1.render(), restored.table1.render());
    assert_eq!(original.table2.render(), restored.table2.render());
    assert_eq!(original.table3.render(), restored.table3.render());
    assert_eq!(original.table4.render(), restored.table4.render());
    assert_eq!(original.table5.render(), restored.table5.render());
}

#[test]
fn figures_and_prose_survive_the_json_roundtrip() {
    let (original, restored) = reports();
    assert_eq!(original.figure3.render(), restored.figure3.render());
    assert_eq!(original.textstats.render(), restored.textstats.render());
    assert_eq!(original.categories.render(), restored.categories.render());
    assert_eq!(original.churn.render(40), restored.churn.render(40));
}

#[test]
fn full_report_survives_the_json_roundtrip() {
    let (original, restored) = reports();
    assert_eq!(original.render(), restored.render());
}

/// Pinned capture of the seeded mini-study, taken on the engine *before*
/// the matcher overhaul (lazy DFA / prefilters / RegexSet / token index).
/// The optimized matchers must reproduce that snapshot byte-for-byte at
/// every thread count: any drift means an accelerated path changed a
/// classification or blocking decision, not just its speed.
#[test]
fn optimized_matchers_reproduce_the_pinned_snapshot() {
    const PINNED_CRC32: u32 = 0x57EC_C8D3;
    const PINNED_LEN: usize = 254_074;
    for threads in [1, 4, 8] {
        let study = Study::run(&StudyConfig {
            seed: 0xD15C,
            n_sites: 150,
            threads,
            ..StudyConfig::default()
        });
        let json = StudySnapshot::capture(&study).to_json();
        assert_eq!(
            json.len(),
            PINNED_LEN,
            "snapshot length drifted at {threads} threads"
        );
        assert_eq!(
            sockscope_journal::crc32(json.as_bytes()),
            PINNED_CRC32,
            "snapshot bytes drifted at {threads} threads"
        );
    }
}

/// The pin above compares whole snapshots; this compares the decisions
/// behind them. The pin's universe is crawled era by era with the
/// reference crawler, and the crawl's own traffic is raced through each
/// optimised matcher and its linear reference: Script/Image/Xhr requests
/// through `Engine::evaluate`, through `evaluate_on` with the registrable
/// domain the inclusion tree memoised per host, and through
/// `evaluate_reference` (the winning rule index included), and
/// `=`-bearing URLs, WebSocket handshakes and sent
/// text frames through `classify_sent_text` and
/// `classify_sent_text_reference`, message by message.
#[test]
fn optimized_matchers_agree_with_their_references_on_crawl_traffic() {
    // Unoptimised, the references cost ~1 ms a request and ~0.35 ms a
    // message, so a debug build races a fixed stride of the traffic
    // (920 of 58,864 requests, 3,327 of 26,611 messages) and a release
    // build all of it.
    let (request_stride, message_stride) = if cfg!(debug_assertions) {
        (64, 8)
    } else {
        (1, 1)
    };
    let config = StudyConfig {
        seed: 0xD15C,
        n_sites: 150,
        ..StudyConfig::default()
    };
    let web = Study::universe(&config);
    let engine = Study::engine_for(&web);
    let crawl_config = Study::crawl_config(&config);
    let records: Vec<_> = config
        .timeline
        .eras()
        .iter()
        .flat_map(|era| crawl_reference(&web.for_era(era.clone()), &crawl_config))
        .collect();

    let mut requests = Vec::new();
    let mut messages = Vec::new();
    for tree in records.iter().flat_map(|record| &record.trees) {
        let page = tree.url(tree.root().id);
        for node in tree.nodes() {
            let resource_type = match node.kind {
                NodeKind::Script => ResourceType::Script,
                NodeKind::Image => ResourceType::Image,
                NodeKind::Xhr => ResourceType::Xhr,
                NodeKind::WebSocket => {
                    let Some(ws) = &node.ws else { continue };
                    messages.push(ws.handshake_request.as_str());
                    messages.extend(ws.sent.iter().filter_map(|frame| frame.as_text()));
                    continue;
                }
                _ => continue,
            };
            let text = tree.url_text(node.id);
            if text.contains('=') {
                messages.push(text);
            }
            if let (Some(page), Some(url)) = (page, tree.url(node.id)) {
                let ctx = RequestContext {
                    url,
                    page,
                    resource_type,
                };
                requests.push((ctx, tree.registrable_domain(node.id)));
            }
        }
    }

    let mut blocked = 0;
    for (ctx, url_sld) in requests.iter().step_by(request_stride) {
        let decision = engine.evaluate(ctx);
        let reference = engine.evaluate_reference(ctx);
        assert_eq!(
            decision, reference,
            "decision on {} from {}",
            ctx.url, ctx.page
        );
        let page = PageFacts::new(ctx.page);
        assert_eq!(
            engine.evaluate_on(&page, ctx.url, *url_sld, ctx.resource_type),
            reference,
            "memoised-domain decision on {} from {}",
            ctx.url,
            ctx.page
        );
        blocked += matches!(decision, Decision::Block(_)) as usize;
    }
    let lib = PiiLibrary::new();
    let mut classified = 0;
    for text in messages.iter().step_by(message_stride) {
        let items = lib.classify_sent_text(text);
        assert_eq!(
            items,
            lib.classify_sent_text_reference(text),
            "classification of {text:?}"
        );
        classified += !items.is_empty() as usize;
    }
    // Each race must have seen both outcomes, or it proved nothing.
    let raced = requests.len().div_ceil(request_stride);
    assert!(
        0 < blocked && blocked < raced,
        "{blocked} of {raced} requests blocked"
    );
    let raced = messages.len().div_ceil(message_stride);
    assert!(
        0 < classified && classified < raced,
        "{classified} of {raced} messages classified"
    );
}

#[test]
fn recapturing_a_restored_study_is_a_fixed_point() {
    let study = Study::run(&StudyConfig {
        seed: 0xD15C,
        n_sites: 80,
        threads: 2,
        ..StudyConfig::default()
    });
    let json = StudySnapshot::capture(&study).to_json();
    let restored = StudySnapshot::from_json(&json)
        .expect("snapshot parses")
        .restore()
        .expect("snapshot restores");
    assert_eq!(json, StudySnapshot::capture(&restored).to_json());
}

// ---- failure surface: snapshot loading ---------------------------------

#[test]
fn malformed_json_is_a_typed_format_error() {
    for text in ["", "{", "[1,2", "{\"version\": \"not a number\"}", "nil"] {
        match StudySnapshot::from_json(text) {
            Err(SnapshotError::Format(_)) => {}
            other => panic!("{text:?}: expected Format error, got {other:?}"),
        }
    }
}

#[test]
fn unknown_snapshot_version_is_a_typed_version_error() {
    let snap = StudySnapshot {
        version: SNAPSHOT_VERSION + 7,
        reductions: Vec::new(),
        aa_domains: Vec::new(),
        cdn_overrides: Vec::new(),
    };
    // The version gate fires on restore, after a clean parse.
    let reparsed = StudySnapshot::from_json(&snap.to_json()).expect("parses");
    match reparsed.restore() {
        Err(SnapshotError::Version(v)) => assert_eq!(v, SNAPSHOT_VERSION + 7),
        other => panic!("expected Version error, got {:?}", other.err()),
    }
}

#[test]
fn missing_snapshot_file_is_a_typed_io_error() {
    match StudySnapshot::load(std::path::Path::new("/nonexistent/sockscope.json")) {
        Err(SnapshotError::Io(_)) => {}
        other => panic!("expected Io error, got {:?}", other.err()),
    }
}

#[test]
fn atomic_save_leaves_no_temp_file_behind() {
    let dir = std::env::temp_dir().join(format!("sockscope-atomic-save-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snap.json");
    let snap = StudySnapshot {
        version: SNAPSHOT_VERSION,
        reductions: Vec::new(),
        aa_domains: vec!["a.example".into()],
        cdn_overrides: Vec::new(),
    };
    snap.save(&path).unwrap();
    assert!(path.exists());
    assert!(
        !temp_path(&path).exists(),
        "save must rename its staging file into place"
    );
    // Overwriting an existing snapshot goes through the same staged path.
    snap.save(&path).unwrap();
    assert!(!temp_path(&path).exists());
    std::fs::remove_dir_all(&dir).ok();
}

// ---- failure surface: journal segment decoding -------------------------

fn sample_segment() -> Vec<u8> {
    encode_segment(
        &SegmentMeta {
            fingerprint: 0xFEED_F00D,
            era: 2,
            shard_index: 5,
            shard_count: 12,
        },
        b"{\"label\":\"x\"}",
    )
}

#[test]
fn truncated_segment_is_a_typed_error_at_every_cut() {
    let wire = sample_segment();
    for cut in 0..wire.len() {
        match decode_segment(&wire[..cut]) {
            Err(SegmentError::TooShort { .. }) | Err(SegmentError::Truncated { .. }) => {}
            other => panic!("cut at {cut}: expected a truncation error, got {other:?}"),
        }
    }
}

#[test]
fn flipped_bit_in_a_segment_is_a_typed_error() {
    let wire = sample_segment();
    // Flip one bit in the payload region: only the CRC can catch it.
    let mut corrupt = wire.clone();
    corrupt[HEADER_LEN + 3] ^= 0x01;
    match decode_segment(&corrupt) {
        Err(SegmentError::BadCrc { stored, computed }) => assert_ne!(stored, computed),
        other => panic!("expected BadCrc, got {other:?}"),
    }
}

#[test]
fn wrong_magic_and_version_are_typed_errors() {
    let wire = sample_segment();
    let mut bad_magic = wire.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        decode_segment(&bad_magic),
        Err(SegmentError::BadMagic)
    ));
    // The version field sits right after the 8-byte magic; a bumped
    // version must be rejected *before* the CRC is even consulted, so
    // re-CRC the mutated header to prove the gate is the version check.
    let mut bad_version = wire.clone();
    bad_version[8] = 0xEE;
    let body_len = bad_version.len() - sockscope_journal::TRAILER_LEN;
    let crc = sockscope_journal::crc32(&bad_version[..body_len]).to_le_bytes();
    bad_version[body_len..].copy_from_slice(&crc);
    assert!(matches!(
        decode_segment(&bad_version),
        Err(SegmentError::BadVersion(v)) if v != sockscope_journal::FORMAT_VERSION
    ));
}

#[test]
fn fingerprint_mismatch_is_quarantined_on_scan() {
    let dir =
        std::env::temp_dir().join(format!("sockscope-scan-fingerprint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = sockscope_journal::Journal::open(&dir).unwrap();
    let meta = SegmentMeta {
        fingerprint: 0xAAAA,
        era: 0,
        shard_index: 0,
        shard_count: 4,
    };
    journal.write_segment(&meta, b"payload").unwrap();
    let scan = journal.scan(0xBBBB).unwrap();
    assert!(scan.segments.is_empty());
    assert_eq!(scan.quarantined.len(), 1);
    assert!(
        scan.quarantined[0].reason.contains("fingerprint"),
        "{:?}",
        scan.quarantined
    );
    std::fs::remove_dir_all(&dir).ok();
}
