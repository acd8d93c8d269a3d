//! Reproducibility guarantees: identical seeds produce identical studies,
//! regardless of thread count; different seeds differ. The orchestrator's
//! wider scheduling matrix and its diff against the reference oracle live
//! in `orchestrator_identity.rs`; shard-partition invariance of the
//! reduction lives in `proptests.rs` and `crash_recovery.rs`.

use sockscope::analysis::snapshot::StudySnapshot;
use sockscope::{Study, StudyConfig};

fn run(seed: u64, threads: usize) -> Study {
    Study::run(&StudyConfig {
        seed,
        n_sites: 120,
        threads,
        ..StudyConfig::default()
    })
}

fn fingerprint(study: &Study) -> Vec<(String, String, usize)> {
    (0..study.crawl_count())
        .flat_map(|idx| {
            study
                .classified(idx)
                .into_iter()
                .map(|c| (c.initiator, c.receiver, c.obs.sent_items.len()))
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn same_seed_same_study_across_thread_counts() {
    let a = run(42, 1);
    let b = run(42, 4);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    // D' identical too.
    let mut da: Vec<&str> = a.aa.iter().collect();
    let mut db: Vec<&str> = b.aa.iter().collect();
    da.sort_unstable();
    db.sort_unstable();
    assert_eq!(da, db);
}

#[test]
fn different_seeds_differ() {
    let a = run(42, 2);
    let b = run(43, 2);
    assert_ne!(
        fingerprint(&a),
        fingerprint(&b),
        "different seeds should produce different webs"
    );
}

/// Full-study byte-level fingerprint: the snapshot JSON captures every
/// reduction field plus `D'`, and the vendored serializer emits maps in
/// sorted order, so equal strings mean equal studies, bit for bit.
fn snapshot_json(study: &Study) -> String {
    StudySnapshot::capture(study).to_json()
}

#[test]
fn sharded_study_is_byte_identical_across_thread_counts() {
    // threads sets the orchestrator's worker count, so this exercises 1,
    // 4, and 8 workers claiming sites from one shared counter.
    let baseline = snapshot_json(&run(42, 1));
    for threads in [4, 8] {
        assert_eq!(
            baseline,
            snapshot_json(&run(42, threads)),
            "sharded study drifted at {threads} threads"
        );
    }
}

#[test]
fn socket_transcripts_byte_identical() {
    let a = run(7, 1);
    let b = run(7, 3);
    for (ra, rb) in a.reductions.iter().zip(&b.reductions) {
        assert_eq!(ra.sockets.len(), rb.sockets.len());
        for (sa, sb) in ra.sockets.iter().zip(&rb.sockets) {
            assert_eq!(sa.url, sb.url);
            assert_eq!(sa.sent_items, sb.sent_items);
            assert_eq!(sa.received_classes, sb.received_classes);
            assert_eq!(sa.chain_hosts, sb.chain_hosts);
        }
    }
}
