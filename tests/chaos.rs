//! Chaos determinism suite: fault-injected crawls are exactly as
//! reproducible as clean ones.
//!
//! The fault subsystem draws every decision from pure hashes of
//! `(seed, site_rank, connection_id, attempt)` against a virtual clock, so
//! an identical fault seed must yield a byte-identical snapshot across
//! thread counts and shard partitions — and a zero-rate profile must be
//! byte-identical to not injecting at all. A fixed-profile
//! regression pins the exact failure counts on a small calibration web so
//! any drift in the fault streams is caught, not just nondeterminism.

use sockscope::analysis::snapshot::StudySnapshot;
use sockscope::faults::FaultProfile;
use sockscope::{Study, StudyConfig};

fn config(faults: Option<FaultProfile>, threads: usize) -> StudyConfig {
    StudyConfig {
        seed: 42,
        n_sites: 100,
        threads,
        faults,
        ..StudyConfig::default()
    }
}

fn snapshot_json(study: &Study) -> String {
    StudySnapshot::capture(study).to_json()
}

#[test]
fn faulted_study_is_byte_identical_across_thread_counts() {
    let baseline = snapshot_json(&Study::run(&config(Some(FaultProfile::heavy()), 1)));
    for threads in [4, 8] {
        assert_eq!(
            baseline,
            snapshot_json(&Study::run(&config(Some(FaultProfile::heavy()), threads))),
            "faulted study drifted at {threads} threads"
        );
    }
}

#[test]
fn zero_rate_profile_is_byte_identical_to_no_faults() {
    let clean = snapshot_json(&Study::run(&config(None, 4)));
    let zeroed = snapshot_json(&Study::run(&config(Some(FaultProfile::none()), 4)));
    assert_eq!(
        clean, zeroed,
        "a zero-rate profile must not perturb the snapshot in any byte"
    );
    assert!(
        !clean.contains("\"failures\""),
        "fault-free snapshots must not carry a failures field"
    );
}

#[test]
fn faulted_snapshot_round_trips_with_failure_tables() {
    let study = Study::run(&config(Some(FaultProfile::heavy()), 4));
    let json = snapshot_json(&study);
    assert!(json.contains("\"failures\""));
    let restored = StudySnapshot::from_json(&json).unwrap().restore().unwrap();
    for (a, b) in study.reductions.iter().zip(&restored.reductions) {
        assert_eq!(a.failures, b.failures);
        assert_eq!(a, b);
    }
}

#[test]
fn failure_counts_are_exactly_reproducible() {
    // A heavy profile on the calibration web: the absolute counts are pinned
    // by the fault streams, so any change to the hash derivations, retry
    // loop, or accounting shows up here as a concrete diff — while the run
    // itself must complete without a panic.
    let study = Study::run(&config(Some(FaultProfile::heavy()), 4));
    let again = Study::run(&config(Some(FaultProfile::heavy()), 2));
    let mut total_errors = 0u64;
    let mut degraded = 0u64;
    for (red, red2) in study.reductions.iter().zip(&again.reductions) {
        let f = red.failures.as_ref().expect("heavy profile must account");
        assert_eq!(
            Some(f),
            red2.failures.as_ref(),
            "counts drifted across runs"
        );
        assert_eq!(f.sites_attempted, 100, "every site is attempted");
        assert!(
            f.pages_attempted >= f.retries,
            "attempts include every retry"
        );
        total_errors += f.total_errors();
        degraded += f.sites_degraded + f.sites_abandoned;
    }
    assert!(total_errors > 0, "heavy profile must inject something");
    assert!(degraded > 0, "heavy profile must degrade some site");
}

#[test]
fn failure_tables_merge_associatively_under_crawl_reduction() {
    use sockscope::analysis::reduce::CrawlReduction;
    use sockscope::analysis::PiiLibrary;
    use sockscope::crawler::{crawl_reference, CrawlConfig};
    use sockscope::filterlist::Engine;
    use sockscope::webgen::{SyntheticWeb, WebGenConfig};

    let web = SyntheticWeb::new(WebGenConfig {
        n_sites: 45,
        ..WebGenConfig::default()
    });
    let (engine, errs) = Engine::parse_many(&[&web.easylist(), &web.easyprivacy()]);
    assert!(errs.is_empty());
    let era = web.config().era.clone();
    let config = CrawlConfig {
        faults: Some(FaultProfile::heavy()),
        ..CrawlConfig::default()
    };

    // Interleaved three-way partition (site i to shard i % 3), each shard
    // reduced with its own classification context.
    let mut shards: Vec<(CrawlReduction, PiiLibrary)> = (0..3)
        .map(|_| {
            (
                CrawlReduction::new(era.label(), era.pre_patch()),
                PiiLibrary::new(),
            )
        })
        .collect();
    for (i, record) in crawl_reference(&web, &config).into_iter().enumerate() {
        let (reduction, lib) = &mut shards[i % 3];
        reduction.observe_site(&record, &engine, lib);
    }
    let [a, b, c]: [CrawlReduction; 3] = shards
        .into_iter()
        .map(|(reduction, _lib)| reduction)
        .collect::<Vec<_>>()
        .try_into()
        .expect("three shards");
    assert!(a.failures.is_some() || b.failures.is_some() || c.failures.is_some());

    let mut left = a.clone().merge(b.clone()).merge(c.clone());
    let mut right = a.merge(b.merge(c));
    left.normalize();
    right.normalize();
    assert_eq!(left.failures, right.failures);
    assert_eq!(left, right);

    // The identity element preserves failure tables exactly.
    let id = CrawlReduction::new(era.label(), era.pre_patch());
    let mut via_identity = id.merge(left.clone());
    via_identity.normalize();
    assert_eq!(via_identity, left);
}
