//! Supervised-execution chaos matrix.
//!
//! The tentpole invariant: a seeded run where ~20% of sites are poisoned
//! with mixed `PanicAt`/`HangAt`/`AllocBomb` hazards **completes** on
//! every worker count × queue depth × chaos schedule of the identity
//! matrix, produces the *identical* quarantine set on every cell, and
//! leaves the non-quarantined remainder byte-for-byte what those sites
//! contribute to the fault-free run — the run `orchestrator_identity.rs`
//! pins to crc `0x57EC_C8D3`. Hazard profiles carry no transport faults,
//! so a surviving site has no fault accounting to differ by: any byte of
//! drift in the remainder is a supervision bug, not fault noise.
//!
//! (The fault-free half of the acceptance — a supervised clean run stays
//! on the pinned crc with the supervisor enabled by default — is covered
//! by `orchestrator_identity.rs`, which now runs entirely supervised.)

use std::collections::BTreeSet;

use sockscope::analysis::snapshot::StudySnapshot;
use sockscope::{Study, StudyConfig};
use sockscope_analysis::{CrawlReduction, FusedShard};
use sockscope_browser::{Browser, BrowserConfig, ExtensionHost};
use sockscope_crawler::{browser_era, crawl_one_site_sink, CrawlConfig, OrchestratorConfig};
use sockscope_faults::FaultProfile;
use sockscope_webgen::CrawlEra;

/// Seed and scale shared with the pinned identity matrix
/// (`orchestrator_identity.rs`), so the poisoned matrix runs over the
/// exact universe whose fault-free snapshot is crc `0x57EC_C8D3`.
fn poisoned_config() -> StudyConfig {
    StudyConfig {
        seed: 0xD15C,
        n_sites: 150,
        faults: Some(FaultProfile::poison()),
        ..StudyConfig::default()
    }
}

fn quarantined_ids(study: &Study) -> Vec<BTreeSet<usize>> {
    study
        .reductions
        .iter()
        .map(|r| {
            r.quarantine
                .as_ref()
                .map(|q| q.sites.iter().map(|s| s.site_id).collect())
                .unwrap_or_default()
        })
        .collect()
}

#[test]
fn poisoned_matrix_yields_one_quarantine_set_and_one_snapshot() {
    let baseline_study = Study::run(&StudyConfig {
        workers: Some(1),
        queue_depth: 1,
        ..poisoned_config()
    });
    let baseline = StudySnapshot::capture(&baseline_study).to_json();
    let baseline_quarantine = quarantined_ids(&baseline_study);

    // The poison profile's hazard rates sum to 200‰, so each 150-site
    // era quarantines ~30 sites; the study-wide total must sit in the
    // neighborhood of 20% of 600 era-sites.
    let total: usize = baseline_quarantine.iter().map(BTreeSet::len).sum();
    assert!(
        (60..=180).contains(&total),
        "expected ~20% of 600 era-sites quarantined, got {total}"
    );
    for (era, ids) in baseline_quarantine.iter().enumerate() {
        assert!(!ids.is_empty(), "era {era} drew no poisoned site");
    }

    for workers in [1usize, 4, 8] {
        for queue_depth in [1usize, 16, 256] {
            if (workers, queue_depth) == (1, 1) {
                continue;
            }
            let study = Study::run(&StudyConfig {
                workers: Some(workers),
                queue_depth,
                ..poisoned_config()
            });
            assert_eq!(
                quarantined_ids(&study),
                baseline_quarantine,
                "quarantine set moved at {workers} workers, queue {queue_depth}"
            );
            assert_eq!(
                StudySnapshot::capture(&study).to_json(),
                baseline,
                "poisoned snapshot drifted at {workers} workers, queue {queue_depth}"
            );
        }
    }
}

#[test]
fn adversarial_steal_schedules_cannot_move_a_quarantine_entry() {
    // Era-level: a depth-1 queue, the tightest window, and seeded chaos
    // schedules maximize out-of-order completions and window-full stalls
    // *while* one site in five is dying under the supervisor. Quarantine decisions are per-site pure draws, so no
    // schedule may move one.
    let config = poisoned_config();
    let web = Study::universe(&config);
    let engine = Study::engine_for(&web);
    let crawl_config = Study::crawl_config(&config);
    let era = CrawlEra::ALL[1];
    let era_web = web.for_era(era);
    let make_extensions = || ExtensionHost::stock(browser_era(&era.into()));

    let run = |orch: &OrchestratorConfig| {
        let mut reduction = sockscope_crawler::crawl_orchestrated(
            &era_web,
            &crawl_config,
            orch,
            &make_extensions,
            &|| FusedShard::new(era.label(), era.pre_patch(), &engine),
            &|worker: &mut FusedShard<'_>| worker.take_site_reduction(),
            &|| CrawlReduction::new(era.label(), era.pre_patch()),
            &|acc: &mut CrawlReduction, site| acc.absorb(site),
        );
        reduction.normalize();
        reduction
    };

    let reference = run(&OrchestratorConfig {
        workers: 1,
        queue_depth: 1,
        in_flight: 1,
        chaos_seed: None,
        supervised: true,
    });
    assert!(
        reference.quarantine.as_ref().is_some_and(|q| !q.is_empty()),
        "the poisoned era must quarantine at least one site"
    );

    for chaos_seed in [1u64, 0xBAD_5EED, u64::MAX] {
        let reduction = run(&OrchestratorConfig {
            workers: 4,
            queue_depth: 1,
            in_flight: 2,
            chaos_seed: Some(chaos_seed),
            supervised: true,
        });
        assert_eq!(
            reduction, reference,
            "chaos seed {chaos_seed:#x} changed the supervised reduction"
        );
    }
}

#[test]
fn non_quarantined_remainder_matches_the_fault_free_bytes() {
    // Reference construction: crawl exactly the surviving sites with the
    // fault-free config — the same per-site bytes that compose the
    // crc-pinned clean snapshot — and absorb them in ascending order,
    // exactly as the orchestrator's reduce stage does. The poisoned
    // reduction with its quarantine table detached must equal it.
    let config = poisoned_config();
    let web = Study::universe(&config);
    let engine = Study::engine_for(&web);
    let crawl_config = Study::crawl_config(&config);
    let era = CrawlEra::ALL[2];
    let era_web = web.for_era(era);

    let orch = OrchestratorConfig {
        workers: 4,
        queue_depth: 4,
        in_flight: 0,
        chaos_seed: None,
        supervised: true,
    };
    let mut poisoned = sockscope_crawler::crawl_orchestrated(
        &era_web,
        &crawl_config,
        &orch,
        &|| ExtensionHost::stock(browser_era(&era.into())),
        &|| FusedShard::new(era.label(), era.pre_patch(), &engine),
        &|worker: &mut FusedShard<'_>| worker.take_site_reduction(),
        &|| CrawlReduction::new(era.label(), era.pre_patch()),
        &|acc: &mut CrawlReduction, site| acc.absorb(site),
    );
    poisoned.normalize();
    let quarantined: BTreeSet<usize> = poisoned
        .quarantine
        .as_ref()
        .expect("poisoned era carries a quarantine table")
        .sites
        .iter()
        .map(|s| s.site_id)
        .collect();
    assert!(!quarantined.is_empty());

    let clean_config = CrawlConfig {
        faults: None,
        ..crawl_config.clone()
    };
    let browser = Browser::new(
        &era_web,
        ExtensionHost::stock(browser_era(&era.into())),
        BrowserConfig {
            seed: clean_config.seed ^ era_web.config().seed,
            ..BrowserConfig::default()
        },
    );
    let mut shard = FusedShard::new(era.label(), era.pre_patch(), &engine);
    let mut reference = CrawlReduction::new(era.label(), era.pre_patch());
    for i in 0..era_web.sites().len() {
        if quarantined.contains(&era_web.sites()[i].id) {
            continue;
        }
        crawl_one_site_sink(&era_web, &clean_config, &browser, i, &mut shard);
        reference.absorb(shard.take_site_reduction());
    }
    reference.normalize();

    poisoned.quarantine = None;
    assert_eq!(
        poisoned, reference,
        "a surviving site's bytes drifted from its fault-free contribution"
    );
}

#[test]
fn quarantine_survives_a_snapshot_roundtrip() {
    let study = Study::run(&StudyConfig {
        seed: 0xD15C,
        n_sites: 60,
        threads: 2,
        faults: Some(FaultProfile::poison()),
        ..StudyConfig::default()
    });
    let before = quarantined_ids(&study);
    assert!(before.iter().any(|ids| !ids.is_empty()));
    let json = StudySnapshot::capture(&study).to_json();
    let restored = StudySnapshot::from_json(&json)
        .and_then(StudySnapshot::restore)
        .expect("snapshot roundtrip");
    assert_eq!(quarantined_ids(&restored), before);
    assert_eq!(
        StudySnapshot::capture(&restored).to_json(),
        json,
        "re-capturing the restored study must reproduce the bytes"
    );
}
