//! Bounded-memory regression for the orchestrated pipeline.
//!
//! Installs the counting global allocator from `sockscope-exec` and meters
//! a single-era orchestrated crawl at two universe scales. What is
//! *retained* (the accumulated [`CrawlReduction`]) necessarily grows with
//! the site count, but the orchestrator's *transient* headroom — peak live
//! bytes beyond what the stage retains — is bounded by the scheduling
//! state (workers × browser + the in-flight cap × one site reduction in
//! the ticket ring), none of which scales with the universe. A leak of
//! per-site state into the ring or the worker sinks shows up here as
//! headroom growing with the site count.
//!
//! Scales stay small so the tier-1 debug run remains fast; set
//! `SOCKSCOPE_MEM_SCALE=8` (or higher) to stress paper-flavored sizes.

use sockscope::{Study, StudyConfig};
use sockscope_analysis::{CrawlReduction, FusedShard};
use sockscope_crawler::OrchestratorConfig;
use sockscope_exec::memmeter::{live_bytes, CountingAlloc, Meter};
use sockscope_webgen::CrawlEra;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// One metered single-era orchestrated crawl; returns
/// `(net_peak_bytes, retained_bytes)` for the crawl stage alone.
fn metered_crawl(n_sites: usize) -> (u64, u64) {
    let config = StudyConfig {
        seed: 0xD15C,
        n_sites,
        ..StudyConfig::default()
    };
    let web = Study::universe(&config);
    let engine = Study::engine_for(&web);
    let crawl_config = Study::crawl_config(&config);
    let era = CrawlEra::ALL[0];
    let era_web = web.for_era(era);
    let orch = OrchestratorConfig {
        workers: 4,
        queue_depth: 8,
        ..OrchestratorConfig::default()
    };

    let live0 = live_bytes();
    let m = Meter::start();
    let reduction = sockscope_crawler::crawl_orchestrated(
        &era_web,
        &crawl_config,
        &orch,
        &|| sockscope_browser::ExtensionHost::stock(sockscope_crawler::browser_era(&era.into())),
        &|| FusedShard::new(era.label(), era.pre_patch(), &engine),
        &|worker: &mut FusedShard<'_>| worker.take_site_reduction(),
        &|| CrawlReduction::new(era.label(), era.pre_patch()),
        &|acc: &mut CrawlReduction, site| acc.absorb(site),
    );
    let stats = m.finish();
    let retained = live_bytes().saturating_sub(live0);
    assert_eq!(reduction.sites.len(), n_sites, "crawl lost sites");
    drop(reduction);
    (stats.peak_bytes, retained)
}

#[test]
fn transient_headroom_stays_bounded_as_sites_scale() {
    let scale: usize = std::env::var("SOCKSCOPE_MEM_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1);
    let (small_sites, large_sites) = (300 * scale, 1_200 * scale);

    let (small_peak, small_retained) = metered_crawl(small_sites);
    let (large_peak, large_retained) = metered_crawl(large_sites);
    let small_headroom = small_peak.saturating_sub(small_retained);
    let large_headroom = large_peak.saturating_sub(large_retained);
    eprintln!(
        "[orchestrator-memory] {small_sites} sites: peak {small_peak} (headroom {small_headroom}); \
         {large_sites} sites: peak {large_peak} (headroom {large_headroom})"
    );

    // Sanity: the allocator is actually installed and metering.
    assert!(small_peak > 0, "counting allocator is not metering");
    assert!(
        large_retained > small_retained,
        "retained reduction should grow with the universe"
    );

    // The bounded-memory claim. A 4x universe is allowed modest headroom
    // growth (allocator rounding, hash-map resizing, larger per-site
    // payloads at the tail), but nothing near the 4x a per-site leak
    // into queue/window/sink state would produce.
    assert!(
        large_headroom <= small_headroom.saturating_mul(2).max(8 << 20),
        "transient headroom scaled with the site count: \
         {small_headroom} bytes @ {small_sites} sites -> {large_headroom} bytes @ {large_sites} sites"
    );
}
