//! The study-level reference oracle the identity suites diff
//! [`Study::run`] against.
//!
//! It shares the universe, the filter engine, the per-site seeds and the
//! §3.3 frontier loop with production, and nothing else: every era is
//! crawled serially by [`crawl_reference`] (buffered browser visits,
//! batch-built inclusion trees, materialized site records), then reduced
//! in batch with [`CrawlReduction::observe_site`] — no orchestrator, no
//! stream fusion, no sink protocol.

use sockscope::analysis::reduce::CrawlReduction;
use sockscope::analysis::PiiLibrary;
use sockscope::crawler::{crawl_reference, CrawlConfig};
use sockscope::filterlist::Engine;
use sockscope::webgen::SyntheticWeb;
use sockscope::{Study, StudyConfig};

/// One era's reference reduction: `era_web` crawled by [`crawl_reference`]
/// and every record reduced in site order, then normalized.
pub fn reference_reduction(
    era_web: &SyntheticWeb,
    engine: &Engine,
    crawl_config: &CrawlConfig,
) -> CrawlReduction {
    let era = &era_web.config().era;
    let lib = PiiLibrary::new();
    let mut reduction = CrawlReduction::new(era.label(), era.pre_patch());
    for record in crawl_reference(era_web, crawl_config) {
        reduction.observe_site(&record, engine, &lib);
    }
    reduction.normalize();
    reduction
}

/// The whole study on the reference path: every era of the timeline
/// reduced by [`reference_reduction`], against the era's own filter lists
/// on evolving timelines, then assembled exactly as [`Study::run`] does.
pub fn run_reference(config: &StudyConfig) -> Study {
    let web = Study::universe(config);
    let base_engine = Study::engine_for(&web);
    let crawl_config = Study::crawl_config(config);
    let reductions = config
        .timeline
        .eras()
        .iter()
        .map(|era| {
            let era_web = web.for_era(era.clone());
            let era_engine = config
                .timeline
                .evolves()
                .then(|| Study::engine_for(&era_web));
            let engine = era_engine.as_ref().unwrap_or(&base_engine);
            reference_reduction(&era_web, engine, &crawl_config)
        })
        .collect();
    Study::assemble(&web, base_engine, reductions)
}
