//! The four-crawl study driver.
//!
//! [`Study::run`] reproduces the paper's end-to-end pipeline:
//!
//! 1. generate the synthetic web (one universe, four crawl eras);
//! 2. crawl each era with the instrumented browser, driven by the
//!    **work-stealing pipelined orchestrator**
//!    ([`sockscope_crawler::crawl_orchestrated`]): each worker owns a
//!    private stream-fused [`FusedShard`](crate::fused::FusedShard) that
//!    the browser pushes CDP events into as it emits them — payload bytes
//!    are classified and dropped on the spot, no
//!    [`SiteRecord`](sockscope_crawler::SiteRecord) is ever materialized,
//!    and the per-site hot path takes no lock. Finished per-site
//!    reductions flow through a bounded queue to a reduce stage that
//!    folds them in ascending site order and normalizes, which makes the
//!    result independent of worker count, steal order, and queue sizes;
//! 3. pool the labeling observations and build the A&A domain set `D'`
//!    (10% threshold + Cloudfront overrides, §3.2);
//! 4. expose classified sockets and aggregates to the table/figure
//!    generators.
//!
//! The identity suites diff [`Study::run`] against a serial,
//! record-materializing reference built from
//! [`sockscope_crawler::crawl_reference`] and batch reduction; that
//! oracle lives with the tests, not here.

use crate::fused::FusedShard;
use crate::reduce::{CrawlReduction, SocketObservation};
use sockscope_crawler::CrawlConfig;
use sockscope_faults::FaultProfile;
use sockscope_filterlist::{AaDomainSet, Engine, Labeler};
use sockscope_webgen::{EraTimeline, SyntheticWeb, WebGenConfig};

/// Study configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyConfig {
    /// Universe seed.
    pub seed: u64,
    /// Number of publisher sites (the paper used ~100K; shapes are
    /// scale-free down to a few thousand).
    pub n_sites: usize,
    /// Crawl worker threads.
    pub threads: usize,
    /// Links per site beyond the homepage.
    pub max_links: usize,
    /// Fault profile for the crawl; `None` (or an all-zero profile) runs
    /// the perfectly reliable network and produces snapshots byte-identical
    /// to the pre-fault-injection pipeline.
    pub faults: Option<FaultProfile>,
    /// Orchestrator worker-thread override; `None` follows `threads`. Like
    /// `queue_depth`, scheduling-only and excluded from checkpoint
    /// fingerprints.
    pub workers: Option<usize>,
    /// Orchestrator result-queue capacity (backpressure depth).
    pub queue_depth: usize,
    /// The crawl schedule. Defaults to the pinned four-crawl paper preset
    /// ([`EraTimeline::paper`]); longitudinal runs swap in
    /// [`EraTimeline::synthetic`] (e.g. via the CLI's `--eras N`).
    pub timeline: EraTimeline,
}

impl Default for StudyConfig {
    fn default() -> StudyConfig {
        StudyConfig {
            seed: 0x50C2_5C0F,
            n_sites: 5_000,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            max_links: 15,
            faults: None,
            workers: None,
            queue_depth: 64,
            timeline: EraTimeline::paper(),
        }
    }
}

/// A socket joined with its A&A attribution under `D'`.
#[derive(Debug, Clone)]
pub struct ClassifiedSocket<'a> {
    /// The underlying observation.
    pub obs: &'a SocketObservation,
    /// Initiator aggregation key (2nd-level domain / CDN-mapped company).
    pub initiator: String,
    /// Receiver aggregation key.
    pub receiver: String,
    /// Some ancestor resource is A&A (§3.2's branch descent).
    pub aa_initiated: bool,
    /// The receiver is A&A.
    pub aa_received: bool,
}

impl ClassifiedSocket<'_> {
    /// At least one endpoint party is A&A.
    pub fn is_aa_socket(&self) -> bool {
        self.aa_initiated || self.aa_received
    }
}

/// The completed study.
pub struct Study {
    /// One reduction per crawl, in Table 1 order.
    pub reductions: Vec<CrawlReduction>,
    /// The labeled A&A domain set `D'`.
    pub aa: AaDomainSet,
    /// The combined filter engine used for labeling and blocking analysis
    /// (empty on studies restored from snapshots — every engine-derived
    /// quantity is baked into the reductions).
    pub engine: Engine,
    /// The manual host → company override table (§3.2), kept for snapshot
    /// capture.
    pub cdn_overrides: Vec<(String, String)>,
}

impl Study {
    /// Runs the full study: every era of the timeline crawled by the
    /// work-stealing pipelined orchestrator over stream-fused per-worker
    /// shards, folded in ascending site order and normalized.
    pub fn run(config: &StudyConfig) -> Study {
        let web = Study::universe(config);
        let base_engine = Study::engine_for(&web);
        // On evolving timelines the lists differ per era, so each crawl
        // labels and blocks against the lists as published at that era;
        // frozen timelines (the paper preset) share one engine, which
        // keeps that path byte-identical to the pre-timeline pipeline.
        let evolving = config.timeline.evolves();
        let crawl_config = Study::crawl_config(config);
        let orch = Study::orchestrator_config(config);

        let mut reductions = Vec::new();
        for era in config.timeline.eras() {
            let era_web = web.for_era(era.clone());
            let era_engine = evolving.then(|| Study::engine_for(&era_web));
            let engine = era_engine.as_ref().unwrap_or(&base_engine);
            reductions.push(Study::crawl_era(&era_web, engine, &crawl_config, &orch));
        }

        Study::assemble(&web, base_engine, reductions)
    }

    /// Crawls the era `era_web` was built for with the work-stealing
    /// orchestrator: each worker owns a stream-fused shard that classifies
    /// against `engine`, and the reduce stage folds the per-site
    /// reductions in ascending site order, then normalizes.
    pub fn crawl_era(
        era_web: &SyntheticWeb,
        engine: &Engine,
        crawl_config: &CrawlConfig,
        orch: &sockscope_crawler::OrchestratorConfig,
    ) -> CrawlReduction {
        let era = &era_web.config().era;
        let mut reduction = sockscope_crawler::crawl_orchestrated(
            era_web,
            crawl_config,
            orch,
            &|| sockscope_browser::ExtensionHost::stock(sockscope_crawler::browser_era(era)),
            &|| FusedShard::new(era.label(), era.pre_patch(), engine),
            &|worker: &mut FusedShard<'_>| worker.take_site_reduction(),
            &|| CrawlReduction::new(era.label(), era.pre_patch()),
            &|acc: &mut CrawlReduction, site| acc.absorb(site),
        );
        reduction.normalize();
        reduction
    }

    /// Derives the orchestrator's concurrency config from a study config:
    /// `workers` follows `threads` unless overridden, and the in-flight
    /// cap stays on auto (`workers + queue_depth`).
    pub fn orchestrator_config(config: &StudyConfig) -> sockscope_crawler::OrchestratorConfig {
        sockscope_crawler::OrchestratorConfig {
            workers: config.workers.unwrap_or_else(|| config.threads.max(1)),
            queue_depth: config.queue_depth,
            ..sockscope_crawler::OrchestratorConfig::default()
        }
    }

    /// Builds the synthetic universe a config describes (shared by the
    /// in-memory and checkpointed runs — and the perf harness — so all of
    /// them crawl the same web).
    pub fn universe(config: &StudyConfig) -> SyntheticWeb {
        SyntheticWeb::new(WebGenConfig {
            seed: config.seed,
            n_sites: config.n_sites,
            ..WebGenConfig::default()
        })
    }

    /// Parses the universe's generated filter lists into the combined
    /// labeling/blocking engine.
    pub fn engine_for(web: &SyntheticWeb) -> Engine {
        let (engine, errs) = Engine::parse_many(&[&web.easylist(), &web.easyprivacy()]);
        debug_assert!(errs.is_empty(), "generated lists must parse: {errs:?}");
        engine
    }

    /// Derives the crawl config a study config implies.
    pub fn crawl_config(config: &StudyConfig) -> CrawlConfig {
        CrawlConfig {
            seed: config.seed ^ 0xC4A31,
            max_links: config.max_links,
            faults: config.faults.clone(),
        }
    }

    /// Finishes a study from its four normalized reductions: pools the
    /// labeling observations, thresholds `D'` (§3.2), and packages the
    /// result. Shared by the in-memory and checkpointed runs and by the
    /// test oracle — identical reductions always yield an identical study.
    pub fn assemble(web: &SyntheticWeb, engine: Engine, reductions: Vec<CrawlReduction>) -> Study {
        let cdn_overrides = web.catalog().manual_overrides();
        let mut labeler = Labeler::new();
        for (host, company) in &cdn_overrides {
            labeler = labeler.with_cdn_override(host.clone(), company.clone());
        }
        for red in &reductions {
            for (host, (a, n)) in &red.label_counts {
                labeler.observe_counts(host, *a, *n);
            }
        }
        let aa = labeler.finalize_paper();

        Study {
            reductions,
            aa,
            engine,
            cdn_overrides,
        }
    }

    /// Classifies every socket of crawl `idx` under `D'`.
    pub fn classified(&self, idx: usize) -> Vec<ClassifiedSocket<'_>> {
        self.reductions[idx]
            .sockets
            .iter()
            .map(|obs| self.classify(obs))
            .collect()
    }

    /// Classifies a single observation.
    pub fn classify<'a>(&'a self, obs: &'a SocketObservation) -> ClassifiedSocket<'a> {
        let receiver = self.aa.aggregation_key(&obs.host);
        let initiator = self.aa.aggregation_key(&obs.initiator_host);
        let aa_initiated = obs.chain_hosts.iter().any(|h| self.aa.is_aa_host(h));
        let aa_received = self.aa.is_aa_host(&obs.host);
        ClassifiedSocket {
            obs,
            initiator,
            receiver,
            aa_initiated,
            aa_received,
        }
    }

    /// Number of crawls (one per timeline era; 4 for the paper preset).
    pub fn crawl_count(&self) -> usize {
        self.reductions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One shared study for the whole test module — Study::run is the
    /// expensive part, the assertions are cheap.
    fn small_study() -> &'static Study {
        static STUDY: OnceLock<Study> = OnceLock::new();
        STUDY.get_or_init(|| {
            Study::run(&StudyConfig {
                n_sites: 900,
                threads: 8,
                ..StudyConfig::default()
            })
        })
    }

    #[test]
    fn study_runs_end_to_end() {
        let study = small_study();
        assert_eq!(study.crawl_count(), 4);
        // Every crawl saw every site.
        for red in &study.reductions {
            assert_eq!(red.site_count(), 900);
        }
        // Sockets exist in every era (chat survives the patch).
        for idx in 0..4 {
            assert!(
                !study.reductions[idx].sockets.is_empty(),
                "crawl {idx} saw no sockets"
            );
        }
    }

    #[test]
    fn labeling_finds_the_ecosystem() {
        let study = small_study();
        // The ubiquitous HTTP ad stack must be in D' …
        for d in [
            "doubleclick.net",
            "google.com",
            "googlesyndication.com",
            "facebook.com",
        ] {
            assert!(study.aa.contains(d), "{d} missing from D'");
        }
        // … and several of the WebSocket-native vendors (at 900 sites not
        // every named vendor is sampled, but most are).
        let vendors = [
            "zopim.com",
            "intercom.io",
            "hotjar.com",
            "33across.com",
            "smartsupp.com",
            "disqus.com",
            "feedjit.com",
            "webspectator.com",
        ];
        let present = vendors.iter().filter(|d| study.aa.contains(d)).count();
        assert!(
            present >= 4,
            "only {present} of {} vendors labeled",
            vendors.len()
        );
        // … and publishers must not be.
        assert!(!study.aa.iter().any(|d| d.ends_with("-site-000001.example")));
        // Non-A&A realtime stays out.
        assert!(!study.aa.contains("espncdn.com"));
        assert!(!study.aa.contains("slither.io"));
    }

    #[test]
    fn cloudfront_reattribution_applies() {
        let study = small_study();
        assert_eq!(
            study.aa.aggregation_key("d10lpsik1i8c69.cloudfront.net"),
            "luckyorange.com"
        );
        // Raw cloudfront must not blanket-qualify.
        assert!(!study.aa.contains("cloudfront.net"));
    }

    #[test]
    fn majors_initiate_only_pre_patch() {
        let study = small_study();
        let initiators = |idx: usize| -> std::collections::BTreeSet<String> {
            study
                .classified(idx)
                .iter()
                .filter(|c| c.aa_initiated)
                .map(|c| c.initiator.clone())
                .collect()
        };
        let pre: std::collections::BTreeSet<_> =
            initiators(0).union(&initiators(1)).cloned().collect();
        let post: std::collections::BTreeSet<_> =
            initiators(2).union(&initiators(3)).cloned().collect();
        assert!(
            pre.len() > post.len(),
            "pre {} should exceed post {}",
            pre.len(),
            post.len()
        );
        assert!(!post.contains("doubleclick.net"));
        assert!(!post.contains("facebook.com"));
    }

    #[test]
    fn study_is_deterministic() {
        let a = Study::run(&StudyConfig {
            n_sites: 120,
            threads: 1,
            ..StudyConfig::default()
        });
        let b = Study::run(&StudyConfig {
            n_sites: 120,
            threads: 4,
            ..StudyConfig::default()
        });
        for (ra, rb) in a.reductions.iter().zip(&b.reductions) {
            assert_eq!(ra.sockets.len(), rb.sockets.len());
            for (sa, sb) in ra.sockets.iter().zip(&rb.sockets) {
                assert_eq!(sa.url, sb.url);
                assert_eq!(sa.sent_items, sb.sent_items);
            }
        }
    }
}
