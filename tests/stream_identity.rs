//! Stream-fusion identity: the fused pipeline (classify-and-drop off the
//! live event stream, no materialized site records) must be **decision
//! invisible** — byte-identical study snapshots to the record-buffering
//! reference path, at every thread count, with and without fault
//! injection.
//!
//! [`Study::run`] drives the fused sink pipeline; `support::run_reference`
//! crawls the same universe serially with the browser's buffering visit
//! path and reduces full `SiteRecord`s in batch. Any divergence means
//! stream fusion changed a classification, attribution, or accounting
//! decision — not just where its bytes lived.

mod support;

use sockscope::analysis::snapshot::StudySnapshot;
use sockscope::{Study, StudyConfig};

/// The pinned bytes of the seeded mini-study (same capture
/// `snapshot_regression.rs` pins): both pipelines must land exactly here.
const PINNED_CRC32: u32 = 0x57EC_C8D3;
const PINNED_LEN: usize = 254_074;

fn pinned_config(threads: usize) -> StudyConfig {
    StudyConfig {
        seed: 0xD15C,
        n_sites: 150,
        threads,
        ..StudyConfig::default()
    }
}

#[test]
fn fused_and_reference_snapshots_are_byte_identical_across_thread_counts() {
    // The reference crawl is serial, so one run serves every thread count.
    let reference = StudySnapshot::capture(&support::run_reference(&pinned_config(1))).to_json();
    for threads in [1, 4, 8] {
        let fused = StudySnapshot::capture(&Study::run(&pinned_config(threads))).to_json();
        assert_eq!(
            fused, reference,
            "fused and reference snapshots diverged at {threads} threads"
        );
        // Both paths must also still be the *pinned* study, so this test
        // can never "pass" by both pipelines drifting together.
        assert_eq!(
            fused.len(),
            PINNED_LEN,
            "snapshot length drifted at {threads} threads"
        );
        assert_eq!(
            sockscope_journal::crc32(fused.as_bytes()),
            PINNED_CRC32,
            "snapshot bytes drifted at {threads} threads"
        );
    }
}

#[test]
fn fused_and_reference_agree_under_fault_injection() {
    // Faults exercise the retry/budget/abort surfaces of the sink
    // protocol: aborted pages must contribute nothing, and the failure
    // accounting must match the record path exactly.
    let config = StudyConfig {
        seed: 0xD15C,
        n_sites: 60,
        threads: 4,
        faults: Some(sockscope::faults::FaultProfile::heavy()),
        ..StudyConfig::default()
    };
    let fused = StudySnapshot::capture(&Study::run(&config)).to_json();
    let reference = StudySnapshot::capture(&support::run_reference(&config)).to_json();
    assert_eq!(fused, reference);
}
