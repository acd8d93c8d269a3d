//! # sockscope-crawler
//!
//! Crawl orchestration, mirroring §3.3 of the paper:
//!
//! * for every site, visit the homepage;
//! * extract the links that point back to the same site;
//! * visit up to 15 of them, chosen at random; if the homepage has fewer,
//!   keep harvesting links from visited pages until 15 pages are seen or
//!   the frontier empties;
//! * drive an instrumented browser and keep the per-page CDP event stream,
//!   reduced to an inclusion tree.
//!
//! The real study waited ~60s between pages and randomized link choice; we
//! keep the random choice (seeded) and drop the wall-clock politeness —
//! the synthetic web has no rate limits, and determinism is a feature.
//!
//! There is one crawl driver: [`crawl_orchestrated`] /
//! [`crawl_orchestrated_resumable`] ([`orchestrator`]). Workers claim
//! sites in ascending order from one shared counter, stream each site's
//! CDP events into a private [`SiteSink`] the moment the browser emits
//! them, and hand finished per-site results into a ring of slots that a
//! reducer folds in ascending site order, so the output never depends on
//! scheduling.
//!
//! Every site — orchestrated or not — runs through one frontier/fault
//! loop (`drive_site`). [`crawl_reference`] is the serial,
//! record-materializing oracle over that same loop: it buffers each
//! page's events and batch-builds its tree. Tests race it against the
//! orchestrator; no production path calls it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod orchestrator;
pub mod supervisor;

pub use orchestrator::{crawl_orchestrated, crawl_orchestrated_resumable, OrchestratorConfig};
pub use supervisor::{supervise_site, QuarantineReason, QuarantineRecord};

use std::collections::BTreeMap;

use sockscope_browser::{
    Browser, BrowserConfig, BrowserEra, CdpEvent, ExtensionHost, VisitError, VisitSink,
    VisitSummary,
};
use sockscope_faults::{FaultContext, FaultProfile, VirtualClock};
use sockscope_inclusion::{InclusionTree, TreeBuilder};
use sockscope_webgen::{Era, SyntheticWeb};

/// Crawler configuration.
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Seed for link sampling and per-visit browser seeds.
    pub seed: u64,
    /// Maximum links to visit beyond the homepage (the paper's 15).
    pub max_links: usize,
    /// Fault profile override. `None` defers to the universe's
    /// [`WebGenConfig::faults`](sockscope_webgen::WebGenConfig); a profile
    /// whose rates are all zero is treated as no injection at all, so the
    /// crawl output is byte-identical to the fault-free pipeline.
    pub faults: Option<FaultProfile>,
}

impl Default for CrawlConfig {
    fn default() -> CrawlConfig {
        CrawlConfig {
            seed: 0xC4A31,
            max_links: 15,
            faults: None,
        }
    }
}

/// Resolves the fault profile a crawl actually runs under: the crawler's
/// override wins, then the universe's advertised profile; all-zero
/// profiles collapse to `None` so they cannot perturb accounting.
pub fn effective_faults(web: &SyntheticWeb, config: &CrawlConfig) -> Option<FaultProfile> {
    config
        .faults
        .clone()
        .or_else(|| web.config().faults.clone())
        .filter(|p| !p.is_zero())
}

/// Resolves the *site-hazard* side of the active profile, with the same
/// override order as [`effective_faults`] but filtered on
/// [`FaultProfile::has_hazards`]. The two resolutions are deliberately
/// independent: a hazard-only profile (e.g. `poison`) activates the
/// supervisor without touching the transport pipeline, so every site the
/// supervisor does *not* quarantine crawls byte-identically to a
/// fault-free run.
pub fn effective_hazards(web: &SyntheticWeb, config: &CrawlConfig) -> Option<FaultProfile> {
    config
        .faults
        .clone()
        .or_else(|| web.config().faults.clone())
        .filter(|p| p.has_hazards())
}

/// Everything observed while crawling one site.
#[derive(Debug, Clone)]
pub struct SiteRecord {
    /// Site index in the universe.
    pub site_id: usize,
    /// Site second-level domain.
    pub domain: String,
    /// Alexa-like rank.
    pub rank: u32,
    /// One inclusion tree per visited page.
    pub trees: Vec<InclusionTree>,
    /// Failure accounting when the crawl ran under fault injection;
    /// `None` on the fault-free path.
    pub faults: Option<SiteFaults>,
}

/// Failure accounting for one site crawled under fault injection. All
/// counters are exact and deterministic for a given fault seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteFaults {
    /// Page visits attempted, counting every retry separately.
    pub pages_attempted: u64,
    /// Pages given up on after exhausting the retry budget.
    pub pages_failed: u64,
    /// Pages skipped because the site's virtual-clock budget ran out.
    pub pages_timed_out: u64,
    /// Re-visits performed after an unreachable page.
    pub retries: u64,
    /// The homepage never loaded — the record carries no trees.
    pub abandoned: bool,
    /// The site completed, but with failed or timed-out pages.
    pub degraded: bool,
    /// Histogram of injected error kinds observed across the site's
    /// visits (connection, handshake, frame, fetch, and page failures).
    pub errors: BTreeMap<String, u64>,
    /// Virtual ticks consumed crawling the site (stalls plus backoff).
    pub ticks: u64,
}

impl SiteRecord {
    /// Total WebSockets observed on the site.
    pub fn websocket_count(&self) -> usize {
        self.trees.iter().map(|t| t.websockets().count()).sum()
    }

    /// Number of pages visited.
    pub fn pages_visited(&self) -> usize {
        self.trees.len()
    }
}

/// Deterministic xorshift for link sampling.
struct LinkRng(u64);

impl LinkRng {
    fn new(seed: u64) -> LinkRng {
        LinkRng(seed | 1)
    }

    fn below(&mut self, n: usize) -> usize {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        (x.wrapping_mul(0x2545F4914F6CDD1D) % n.max(1) as u64) as usize
    }
}

fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The per-site frontier driver every site crawl runs through, streamed
/// ([`drive_site_sink`]) or buffered ([`crawl_reference`]).
///
/// One loop implements §3.3's frontier policy *and* the fault machinery:
/// the fault-free crawl is the fault crawl with an empty plan
/// (`faults: None` ⇒ a single attempt per page, no `FaultContext`, no
/// budget check, and the returned [`SiteFaults`] is discarded by the
/// caller). This is what keeps the two paths decision-identical by
/// construction — there is exactly one copy of the link-sampling,
/// retry/backoff, and budget logic.
///
/// `visit_page` performs the actual page load (streamed or materializing —
/// the driver does not care) and reports the page's summary; the driver
/// owns link filtering, dedup, the seeded frontier pick, and all fault
/// accounting.
type VisitPage<'a> =
    dyn FnMut(&str, Option<&FaultContext>) -> Result<VisitSummary, VisitError> + 'a;

fn drive_site(
    homepage: &str,
    site_domain: &str,
    max_links: usize,
    seed: u64,
    faults: Option<(&FaultProfile, u64, u64)>,
    visit_page: &mut VisitPage<'_>,
) -> SiteFaults {
    let mut pages = 0usize;
    let mut visited: Vec<String> = Vec::new();
    let mut frontier: Vec<String> = Vec::new();
    let mut rng = LinkRng::new(seed);
    let mut clock = VirtualClock::new();
    let mut site_faults = SiteFaults::default();
    let max_retries = faults.map(|(p, _, _)| p.max_retries).unwrap_or(0);

    // Returns true when the page loaded (possibly after retries).
    let mut visit = |url: &str,
                     pages: &mut usize,
                     frontier: &mut Vec<String>,
                     visited: &mut Vec<String>,
                     clock: &mut VirtualClock,
                     site_faults: &mut SiteFaults| {
        for attempt in 0..=max_retries {
            site_faults.pages_attempted += 1;
            let ctx = faults.map(|(profile, fault_seed, site_rank)| FaultContext {
                profile: profile.clone(),
                seed: fault_seed,
                site_rank,
                attempt,
            });
            match visit_page(url, ctx.as_ref()) {
                Ok(v) => {
                    clock.advance(v.faults.ticks);
                    for (_, kind) in &v.faults.faults {
                        *site_faults.errors.entry((*kind).to_string()).or_insert(0) += 1;
                    }
                    visited.push(url.to_string());
                    for link in v.links {
                        // Unseen, same-site links only. The membership
                        // checks come first: they are cheaper than a parse
                        // and most links repeat ones already queued.
                        if visited.contains(&link) || frontier.contains(&link) {
                            continue;
                        }
                        let same_site = sockscope_urlkit::Url::parse(&link)
                            .ok()
                            .and_then(|u| u.second_level_domain().map(|d| d == site_domain))
                            .unwrap_or(false);
                        if same_site {
                            frontier.push(link);
                        }
                    }
                    *pages += 1;
                    return true;
                }
                Err(VisitError::Unreachable(_)) => {
                    *site_faults
                        .errors
                        .entry("page_unreachable".to_string())
                        .or_insert(0) += 1;
                    if let Some((profile, _, _)) = faults {
                        if attempt < profile.max_retries {
                            site_faults.retries += 1;
                            clock.advance(profile.backoff_base << attempt.min(16));
                        }
                    }
                }
                // Unknown page: skip it exactly like the fault-free crawl.
                Err(_) => return false,
            }
        }
        site_faults.pages_failed += 1;
        false
    };

    let homepage_ok = visit(
        homepage,
        &mut pages,
        &mut frontier,
        &mut visited,
        &mut clock,
        &mut site_faults,
    );
    if !homepage_ok {
        site_faults.abandoned = true;
    } else {
        while pages < max_links + 1 && !frontier.is_empty() {
            let pick = rng.below(frontier.len());
            let url = frontier.swap_remove(pick);
            if visited.contains(&url) {
                continue;
            }
            if let Some((profile, _, _)) = faults {
                if clock.now() >= profile.page_budget {
                    site_faults.pages_timed_out += 1;
                    break;
                }
            }
            visit(
                &url,
                &mut pages,
                &mut frontier,
                &mut visited,
                &mut clock,
                &mut site_faults,
            );
        }
    }
    site_faults.degraded =
        !site_faults.abandoned && (site_faults.pages_failed > 0 || site_faults.pages_timed_out > 0);
    site_faults.ticks = clock.now();
    site_faults
}

/// **The** streamed per-site driver: [`drive_site`]'s frontier/fault loop
/// wrapped around the sink protocol. The orchestrator and the supervisor
/// reach it through [`crawl_one_site_sink`], so its event-order contract
/// is the contract of the whole crawler, pinned by
/// `sink_event_order_contract` in the tests:
///
/// 1. `page_begin(url)` brackets with exactly one `page_end()` or
///    `page_abort()`; pages never nest and never cross sites.
/// 2. Every [`VisitSink`] event is delivered between a `page_begin` and
///    its closing call; an aborted page delivers **zero** events (the
///    browser decides every [`VisitError`] before emitting).
/// 3. `page_begin` count equals [`SiteFaults::pages_attempted`] (every
///    retry is its own bracket); `page_end` count equals pages kept.
fn drive_site_sink<A: SiteSink>(
    browser: &Browser<'_>,
    homepage: &str,
    site_domain: &str,
    max_links: usize,
    seed: u64,
    faults: Option<(&FaultProfile, u64, u64)>,
    sink: &mut A,
) -> SiteFaults {
    drive_site(
        homepage,
        site_domain,
        max_links,
        seed,
        faults,
        &mut |url, ctx| {
            sink.page_begin(url);
            match browser.visit_streamed(url, ctx, &mut *sink) {
                Ok(summary) => {
                    sink.page_end();
                    Ok(summary)
                }
                Err(e) => {
                    sink.page_abort();
                    Err(e)
                }
            }
        },
    )
}

/// Maps crawl era to browser era.
pub fn browser_era(era: &Era) -> BrowserEra {
    if era.pre_patch() {
        BrowserEra::PreChrome58
    } else {
        BrowserEra::PostChrome58
    }
}

/// The browser a crawl of `web` drives: `extensions` installed, visit seed
/// derived from the crawl and universe seeds.
fn crawl_browser<'w>(
    web: &'w SyntheticWeb,
    config: &CrawlConfig,
    extensions: ExtensionHost,
) -> Browser<'w> {
    let browser_config = BrowserConfig {
        seed: config.seed ^ web.config().seed,
        ..BrowserConfig::default()
    };
    Browser::new(web, extensions, browser_config)
}

/// Site `i`'s link-sampling seed and fault arguments under the effective
/// profile `faults`: depends only on the crawl seed, the site, and the
/// era, so every path that crawls site `i` observes identical behaviour.
fn site_plan<'p>(
    web: &SyntheticWeb,
    config: &CrawlConfig,
    i: usize,
    faults: Option<&'p FaultProfile>,
) -> (u64, Option<(&'p FaultProfile, u64, u64)>) {
    let site = &web.sites()[i];
    let link_seed = mix(config.seed, web.config().era.site_stream(site.id as u64));
    let fault_args = faults.map(|profile| {
        (
            profile,
            // Each era draws its own fault stream over the shared seed.
            mix(config.seed, web.config().era.index()),
            site.rank as u64,
        )
    });
    (link_seed, fault_args)
}

/// The reference crawl: every site of `web`, serially, with a stock
/// browser for the universe's era — the record-materializing oracle the
/// tests race the orchestrator against. No production path calls it.
///
/// Each page's full event stream is buffered by
/// [`Browser::visit_with_faults`] and its inclusion tree batch-built with
/// [`InclusionTree::build`], so it shares nothing with the production
/// path below [`drive_site`]'s frontier/fault loop: not the streamed
/// visit, not the incremental [`TreeBuilder`], not the sink protocol.
/// Records come back in site order.
pub fn crawl_reference(web: &SyntheticWeb, config: &CrawlConfig) -> Vec<SiteRecord> {
    let browser = crawl_browser(
        web,
        config,
        ExtensionHost::stock(browser_era(&web.config().era)),
    );
    let effective = effective_faults(web, config);
    (0..web.sites().len())
        .map(|i| {
            let site = &web.sites()[i];
            let (link_seed, fault_args) = site_plan(web, config, i, effective.as_ref());
            let mut trees = Vec::new();
            let site_faults = drive_site(
                &site.homepage(),
                &site.domain,
                config.max_links,
                link_seed,
                fault_args,
                &mut |url, ctx| {
                    let v = browser.visit_with_faults(url, ctx)?;
                    trees.push(InclusionTree::build(url, &v.events));
                    Ok(VisitSummary {
                        page_url: v.page_url,
                        links: v.links,
                        blocked: v.blocked,
                        faults: v.faults,
                    })
                },
            );
            SiteRecord {
                site_id: site.id,
                domain: site.domain.clone(),
                rank: site.rank,
                trees,
                faults: fault_args.is_some().then_some(site_faults),
            }
        })
        .collect()
}

/// A consumer of a *fused* crawl: per-site and per-page lifecycle
/// callbacks, with every CDP event of the current page delivered through
/// the [`VisitSink`] supertrait between `page_begin` and `page_end`.
///
/// This is the zero-materialization seam: no `Visit`, no `SiteRecord`, no
/// per-page event buffer exists anywhere on the path from the browser to
/// the sink. The contract mirrors [`crawl_reference`]'s records exactly:
///
/// * `page_begin(url)` opens a page; the events that follow belong to it.
///   A page that fails mid-retry produces `page_begin` → (zero events,
///   the browser decides every [`VisitError`] before emitting) →
///   `page_abort`, possibly several times before a final `page_end` or
///   the page is given up on.
/// * `site_end(faults)` closes the site; `faults` is `Some` exactly when
///   the crawl ran under an effective fault profile, matching
///   [`SiteRecord::faults`].
pub trait SiteSink: VisitSink {
    /// A site's crawl is starting.
    fn site_begin(&mut self, site_id: usize, domain: &str, rank: u32);
    /// A page visit is starting; subsequent events belong to this page.
    fn page_begin(&mut self, url: &str);
    /// The current page loaded successfully.
    fn page_end(&mut self);
    /// The current page failed before emitting any event; discard it.
    fn page_abort(&mut self);
    /// The site's crawl is complete.
    fn site_end(&mut self, faults: Option<&SiteFaults>);
    /// The site's crawl was torn down mid-flight by the supervisor
    /// (panic, deadline, or budget breach): discard *all* partial state of
    /// the current site — including any pages already completed — and
    /// return to the pristine between-sites state, ready for either a
    /// byte-identical retry of the same site or the next site. Only the
    /// supervised orchestrator calls this, and it drains completed sites
    /// out of the sink before each new one, so "current site" is
    /// everything the sink holds.
    fn site_abort(&mut self);
    /// The supervisor gave up on a site after exhausting its retries; the
    /// site contributes nothing but this record. Called instead of (not in
    /// addition to) `site_end`, after the final `site_abort`. Sinks that
    /// do not account for quarantine may ignore it.
    fn site_quarantined(&mut self, record: &QuarantineRecord) {
        let _ = record;
    }
}

/// Crawls site `i` straight into a [`SiteSink`]. Seeds, frontier policy,
/// and fault accounting are shared with [`crawl_reference`] (same
/// [`drive_site`]), so a sink that reassembles trees observes
/// byte-identical state to its [`SiteRecord`].
pub fn crawl_one_site_sink<A: SiteSink>(
    web: &SyntheticWeb,
    config: &CrawlConfig,
    browser: &Browser<'_>,
    i: usize,
    sink: &mut A,
) {
    let site = &web.sites()[i];
    let effective = effective_faults(web, config);
    let (link_seed, fault_args) = site_plan(web, config, i, effective.as_ref());
    let accounting = fault_args.is_some();
    sink.site_begin(site.id, &site.domain, site.rank);
    let site_faults = drive_site_sink(
        browser,
        &site.homepage(),
        &site.domain,
        config.max_links,
        link_seed,
        fault_args,
        sink,
    );
    sink.site_end(if accounting { Some(&site_faults) } else { None });
}

/// A [`SiteSink`] that reassembles full [`SiteRecord`]s from the event
/// stream: the proof that the streamed driver delivers exactly the state
/// [`crawl_reference`] records, and the sink a caller hands the
/// orchestrator when it wants records rather than reductions.
#[derive(Default)]
pub struct RecordSink {
    records: Vec<SiteRecord>,
    current: Option<SiteRecord>,
    builder: Option<TreeBuilder>,
}

impl RecordSink {
    /// Removes and returns the oldest completed record. Per-site drivers
    /// drain the sink with this after each `site_end`.
    pub fn take_record(&mut self) -> Option<SiteRecord> {
        if self.records.is_empty() {
            None
        } else {
            Some(self.records.remove(0))
        }
    }
}

impl VisitSink for RecordSink {
    fn on_event(&mut self, event: CdpEvent) {
        self.builder
            .as_mut()
            .expect("events only between page_begin and page_end")
            .push(event);
    }
}

impl SiteSink for RecordSink {
    fn site_begin(&mut self, site_id: usize, domain: &str, rank: u32) {
        self.current = Some(SiteRecord {
            site_id,
            domain: domain.to_string(),
            rank,
            trees: Vec::new(),
            faults: None,
        });
    }

    fn page_begin(&mut self, url: &str) {
        self.builder = Some(TreeBuilder::new(url));
    }

    fn page_end(&mut self) {
        let mut tree = self.builder.take().expect("page_end after page_begin");
        self.current
            .as_mut()
            .expect("page inside site")
            .trees
            .push(tree.finish());
    }

    fn page_abort(&mut self) {
        self.builder = None;
    }

    fn site_end(&mut self, faults: Option<&SiteFaults>) {
        let mut record = self.current.take().expect("site_end after site_begin");
        record.faults = faults.cloned();
        self.records.push(record);
    }

    fn site_abort(&mut self) {
        self.builder = None;
        self.current = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sockscope_webgen::WebGenConfig;

    fn web(n: usize) -> SyntheticWeb {
        SyntheticWeb::new(WebGenConfig {
            n_sites: n,
            ..WebGenConfig::default()
        })
    }

    fn faulted(faults: Option<FaultProfile>) -> CrawlConfig {
        CrawlConfig {
            faults,
            ..CrawlConfig::default()
        }
    }

    #[test]
    fn crawl_visits_up_to_sixteen_pages_per_site() {
        let web = web(30);
        let records = crawl_reference(&web, &CrawlConfig::default());
        assert_eq!(records.len(), 30);
        for r in &records {
            assert!(r.pages_visited() >= 1);
            assert!(r.pages_visited() <= 16, "{}", r.pages_visited());
        }
        // The generator produces 15 pages per site (homepage + 14
        // subpages), so the §3.3 cap of 16 is never binding here; the
        // crawler should exhaust the site instead.
        assert!(records.iter().any(|r| r.pages_visited() == 15));
    }

    #[test]
    fn trees_have_valid_invariants() {
        let web = web(25);
        for r in crawl_reference(&web, &CrawlConfig::default()) {
            for tree in &r.trees {
                tree.check_invariants().unwrap();
            }
        }
    }

    #[test]
    fn zero_rate_profile_is_identical_to_no_profile() {
        let web = web(20);
        let plain = crawl_reference(&web, &CrawlConfig::default());
        let zeroed = crawl_reference(&web, &faulted(Some(FaultProfile::none())));
        assert_eq!(plain.len(), zeroed.len());
        for (a, b) in plain.iter().zip(&zeroed) {
            assert_eq!(a.trees, b.trees);
            assert_eq!(b.faults, None, "zero-rate profile must not account");
        }
    }

    #[test]
    fn heavy_faults_degrade_but_never_panic() {
        let web = web(60);
        let records = crawl_reference(&web, &faulted(Some(FaultProfile::heavy())));
        assert_eq!(records.len(), 60);
        let mut retried = 0u64;
        let mut shortfall = 0usize;
        for r in &records {
            let f = r.faults.as_ref().expect("faulted crawl must account");
            assert!(f.pages_attempted >= r.pages_visited() as u64);
            if f.abandoned {
                assert!(r.trees.is_empty(), "abandoned sites carry no trees");
            }
            retried += f.retries;
            shortfall += usize::from(r.pages_visited() < 15);
            for tree in &r.trees {
                tree.check_invariants().unwrap();
            }
        }
        assert!(retried > 0, "heavy profile should force retries");
        assert!(shortfall > 0, "heavy profile should cut some site short");
    }

    #[test]
    fn universe_profile_applies_when_config_has_none() {
        let web = SyntheticWeb::new(WebGenConfig {
            n_sites: 10,
            faults: Some(FaultProfile::heavy()),
            ..WebGenConfig::default()
        });
        let records = crawl_reference(&web, &CrawlConfig::default());
        assert!(records.iter().all(|r| r.faults.is_some()));
        // An explicit zero-rate override silences the universe profile.
        let quiet = crawl_reference(&web, &faulted(Some(FaultProfile::none())));
        assert!(quiet.iter().all(|r| r.faults.is_none()));
    }

    #[test]
    fn reference_path_is_decision_identical_to_fused_path() {
        let web = web(25);
        for faults in [None, Some(FaultProfile::heavy())] {
            let config = faulted(faults);
            let reference = crawl_reference(&web, &config);
            let browser = crawl_browser(
                &web,
                &config,
                ExtensionHost::stock(browser_era(&web.config().era)),
            );
            let mut sink = RecordSink::default();
            for i in 0..web.sites().len() {
                crawl_one_site_sink(&web, &config, &browser, i, &mut sink);
            }
            assert_eq!(sink.records.len(), reference.len());
            for (a, b) in sink.records.iter().zip(&reference) {
                assert_eq!(a.site_id, b.site_id);
                assert_eq!(a.domain, b.domain);
                assert_eq!(a.trees, b.trees);
                assert_eq!(a.faults, b.faults);
            }
        }
    }

    /// A [`SiteSink`] that verifies the event-order contract documented on
    /// `drive_site_sink` as it is driven, and counts the brackets.
    #[derive(Default)]
    struct ContractSink {
        sites_begun: u64,
        sites_ended: u64,
        page_begins: u64,
        page_ends: u64,
        page_aborts: u64,
        /// `Some(n)` while inside a page that has delivered `n` events.
        events_in_page: Option<u64>,
    }

    impl VisitSink for ContractSink {
        fn on_event(&mut self, _event: CdpEvent) {
            let n = self
                .events_in_page
                .as_mut()
                .expect("contract: events only inside an open page");
            *n += 1;
        }
    }

    impl SiteSink for ContractSink {
        fn site_begin(&mut self, _site_id: usize, _domain: &str, _rank: u32) {
            assert_eq!(
                self.sites_begun, self.sites_ended,
                "contract: sites never nest"
            );
            assert!(self.events_in_page.is_none());
            self.sites_begun += 1;
        }

        fn page_begin(&mut self, _url: &str) {
            assert!(
                self.events_in_page.is_none(),
                "contract: pages never nest — page_begin inside an open page"
            );
            assert_eq!(self.sites_begun, self.sites_ended + 1);
            self.events_in_page = Some(0);
            self.page_begins += 1;
        }

        fn page_end(&mut self) {
            self.events_in_page
                .take()
                .expect("contract: page_end only after page_begin");
            self.page_ends += 1;
        }

        fn page_abort(&mut self) {
            let events = self
                .events_in_page
                .take()
                .expect("contract: page_abort only after page_begin");
            assert_eq!(events, 0, "contract: aborted pages deliver zero events");
            self.page_aborts += 1;
        }

        fn site_end(&mut self, _faults: Option<&SiteFaults>) {
            assert!(
                self.events_in_page.is_none(),
                "contract: site_end with a page still open"
            );
            self.sites_ended += 1;
        }

        fn site_abort(&mut self) {
            // A supervised teardown may interrupt an open page; the sink
            // returns to the between-sites state with the bracket counters
            // rebalanced so a retry starts clean.
            if self.events_in_page.take().is_some() {
                self.page_aborts += 1;
            }
            self.sites_ended = self.sites_begun;
            self.page_begins = self.page_ends + self.page_aborts;
        }
    }

    #[test]
    fn sink_event_order_contract() {
        let web = web(25);
        for faults in [None, Some(FaultProfile::heavy())] {
            let heavy = faults.is_some();
            let config = faulted(faults);
            let browser = crawl_browser(
                &web,
                &config,
                ExtensionHost::stock(browser_era(&web.config().era)),
            );
            let mut total_aborts = 0u64;
            for i in 0..web.sites().len() {
                let mut contract = ContractSink::default();
                crawl_one_site_sink(&web, &config, &browser, i, &mut contract);
                let mut recorder = RecordSink::default();
                crawl_one_site_sink(&web, &config, &browser, i, &mut recorder);
                let record = recorder.take_record().expect("one record per site");

                assert_eq!(contract.sites_begun, 1);
                assert_eq!(contract.sites_ended, 1);
                assert_eq!(
                    contract.page_ends as usize,
                    record.trees.len(),
                    "every page_end corresponds to exactly one kept tree"
                );
                assert_eq!(
                    contract.page_begins,
                    contract.page_ends + contract.page_aborts,
                    "every page_begin is closed exactly once"
                );
                match &record.faults {
                    Some(f) => assert_eq!(
                        contract.page_begins, f.pages_attempted,
                        "every attempt (retries included) is its own bracket"
                    ),
                    None => assert_eq!(
                        contract.page_aborts, 0,
                        "fault-free crawls never abort a page"
                    ),
                }
                total_aborts += contract.page_aborts;
            }
            if heavy {
                assert!(
                    total_aborts > 0,
                    "heavy faults must exercise the page_abort path"
                );
            }
        }
    }

    #[test]
    fn some_site_has_sockets_eventually() {
        // With ~2–3% incidence, 400 sites should show a few socket users.
        let web = web(400);
        let records = crawl_reference(&web, &CrawlConfig::default());
        let with = records.iter().filter(|r| r.websocket_count() > 0).count();
        let frac = with as f64 / records.len() as f64;
        assert!(frac > 0.0, "no sockets at all");
        assert!(frac < 0.15, "implausibly many socket sites: {frac}");
    }
}
