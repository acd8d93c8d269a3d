//! Pipelined crawl orchestrator: the crawler's one driver.
//!
//! Binding whole shards to workers would let a worker that draws a slow
//! shard finish long after the others go idle. The orchestrator instead
//! schedules *per site* while keeping the merged output independent of
//! the schedule:
//!
//! * **visit/classify** — each worker takes the next site position from
//!   one shared [`TicketRing`] counter (so positions go out in ascending
//!   order) and runs the one shared per-site driver
//!   ([`crawl_one_site_sink`]) into its private [`SiteSink`] — so
//!   classification happens on the worker, lock-free.
//! * **reduce** — a worker hands its finished per-site result into the
//!   ring's slot for that position; a single reducer takes the slots in
//!   position order and folds them **in ascending site order** into
//!   per-shard accumulators.
//! * **in-flight cap** — a worker may only start position `p` while
//!   `p < base + cap`, where `base` is the next position to fold. That
//!   bounds how far any worker may run ahead of the fold point, which
//!   caps the finished-but-unfolded results and hence peak memory,
//!   independent of worker count.
//!
//! Determinism: per-site output depends only on `(universe, config, site)`
//! — never on which worker crawls it — and the reducer folds sites in
//! ascending order, which the `CrawlReduction` monoid (stable-sort
//! normalized, per-site payloads contiguous) maps to the same bytes as
//! reducing [`crawl_reference`](crate::crawl_reference)'s records in
//! site order. Worker count, the in-flight cap and completion order can
//! only change *timing*, never the fold sequence. The liveness argument
//! lives in `DESIGN.md` §10.

use sockscope_browser::ExtensionHost;
use sockscope_exec::{ChaosSchedule, TicketRing};
use sockscope_webgen::SyntheticWeb;

use crate::{crawl_browser, crawl_one_site_sink, supervise_site, CrawlConfig, SiteSink};

/// Concurrency surface of the orchestrator, separate from [`CrawlConfig`]
/// because none of these knobs may influence crawl *output* — they are
/// scheduling-only, and are deliberately excluded from checkpoint
/// fingerprints.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Crawl worker threads (the visit/classify stage). Clamped to ≥ 1.
    pub workers: usize,
    /// Finished sites that may wait for the reducer beyond one per
    /// worker: the auto in-flight cap is `workers + queue_depth`. Small
    /// values trade throughput for tighter backpressure; clamped to ≥ 1.
    pub queue_depth: usize,
    /// Global cap on sites past admission but not yet folded: the ring's
    /// slot count. `0` means auto: `workers + queue_depth`.
    pub in_flight: usize,
    /// Install the seeded scheduling adversary: inject yields before each
    /// claim and each hand-in, permuting completion order. Test-only;
    /// `None` in production.
    pub chaos_seed: Option<u64>,
    /// Run every site under the supervisor ([`supervise_site`]): panic
    /// isolation, visit-step deadline, allocation budget, deterministic
    /// quarantine. On by default — a fault-free supervised run is
    /// byte-identical to an unsupervised one, so this only costs a
    /// `catch_unwind` frame per site.
    pub supervised: bool,
}

impl Default for OrchestratorConfig {
    fn default() -> OrchestratorConfig {
        OrchestratorConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            queue_depth: 64,
            in_flight: 0,
            chaos_seed: None,
            supervised: true,
        }
    }
}

impl OrchestratorConfig {
    /// The effective in-flight cap: the explicit value, floored at 1, or
    /// `workers + queue_depth` when auto. An explicit cap below the worker
    /// count is allowed; it idles workers, which the chaos tests use to
    /// force window-full stalls.
    pub fn effective_in_flight(&self) -> usize {
        let workers = self.workers.max(1);
        if self.in_flight == 0 {
            workers + self.queue_depth.max(1)
        } else {
            self.in_flight.max(1)
        }
    }
}

/// Orchestrated crawl producing one merged accumulator: the whole universe
/// folds into a single `make_acc()` in ascending site order. This is the
/// single-shard convenience over [`crawl_orchestrated_resumable`]; see it
/// for the stage/hook contract.
#[allow(clippy::too_many_arguments)]
pub fn crawl_orchestrated<C, R, A>(
    web: &SyntheticWeb,
    config: &CrawlConfig,
    orch: &OrchestratorConfig,
    make_extensions: &(dyn Fn() -> ExtensionHost + Sync),
    make_worker: &(dyn Fn() -> C + Sync),
    take_site: &(dyn Fn(&mut C) -> R + Sync),
    make_acc: &(dyn Fn() -> A + Sync),
    fold: &(dyn Fn(&mut A, R) + Sync),
) -> A
where
    C: SiteSink,
    R: Send,
    A: Send,
{
    crawl_orchestrated_resumable(
        web,
        config,
        orch,
        1,
        make_extensions,
        make_worker,
        take_site,
        &|_shard| make_acc(),
        fold,
        &|_shard| false,
        &|_shard, _acc| {},
        &|| false,
    )
    .pop()
    .flatten()
    .expect("single-shard orchestrated crawl always yields its accumulator")
}

/// Checkpoint-aware orchestrated crawl.
///
/// Shard `s` owns sites `i % shard_count == s`; `skip(s)` elides shards
/// recovered from a journal (their slot returns `None`), and
/// `persist(s, &acc)` fires the moment shard `s`'s last site folds. Sites
/// are crawled by whichever worker claims them, and `persist` runs on the
/// reducer thread, off the visit hot path.
///
/// Per worker, `make_worker()` builds the stage-private [`SiteSink`]
/// (classification state); after each site, `take_site` extracts that
/// site's finished result `R`, which is handed into the ring and folded
/// with `fold` in ascending site order.
///
/// `abort()` is polled by workers at each claim and by the reducer after
/// each fold and persist: once it returns true (e.g. a simulated crash
/// marked the run dead), the crawl winds down without crawling further
/// sites and the partially folded accumulators are returned as-is — the
/// checkpoint journal, not the return value, is the source of truth on
/// that path. A panic on any thread closes the ring too, so the others
/// stop and the panic resurfaces from this call.
#[allow(clippy::too_many_arguments)]
pub fn crawl_orchestrated_resumable<C, R, A>(
    web: &SyntheticWeb,
    config: &CrawlConfig,
    orch: &OrchestratorConfig,
    shard_count: usize,
    make_extensions: &(dyn Fn() -> ExtensionHost + Sync),
    make_worker: &(dyn Fn() -> C + Sync),
    take_site: &(dyn Fn(&mut C) -> R + Sync),
    make_shard: &(dyn Fn(usize) -> A + Sync),
    fold: &(dyn Fn(&mut A, R) + Sync),
    skip: &(dyn Fn(usize) -> bool + Sync),
    persist: &(dyn Fn(usize, &A) + Sync),
    abort: &(dyn Fn() -> bool + Sync),
) -> Vec<Option<A>>
where
    C: SiteSink,
    R: Send,
    A: Send,
{
    let n = web.sites().len();
    let shard_count = shard_count.max(1);
    let workers = orch.workers.max(1);

    // The work list: every site of a shard that was not recovered, in
    // ascending order. Position in this list — not raw site id — is the
    // ticket the ring hands out and the reducer folds by.
    let todo: Vec<usize> = (0..n).filter(|i| !skip(i % shard_count)).collect();
    let total = todo.len();

    let ring: TicketRing<R> = TicketRing::new(orch.effective_in_flight());
    let chaos = orch.chaos_seed.map(ChaosSchedule::new);

    std::thread::scope(|scope| {
        for w in 0..workers {
            let (todo, ring) = (&todo, &ring);
            scope.spawn(move || {
                // Armed until the counter runs out: a worker that leaves
                // earlier (abort or panic) closes the ring for everyone.
                let mut early_exit = CloseOnDrop(Some(ring));
                let browser = crawl_browser(web, config, make_extensions());
                let mut sink = make_worker();
                let mut step = 0u64;
                loop {
                    if abort() {
                        return;
                    }
                    let pos = ring.claim();
                    if pos >= total {
                        early_exit.0 = None;
                        return;
                    }
                    shake(chaos.as_ref(), w, &mut step);
                    if !ring.admit(pos) {
                        return;
                    }
                    if orch.supervised {
                        // A quarantined site leaves nothing in the sink;
                        // the sink's own accounting (site_quarantined)
                        // carries the record and `take_site` still yields
                        // exactly one result per position.
                        if let Some(q) = supervise_site(web, config, &browser, todo[pos], &mut sink)
                        {
                            sink.site_quarantined(&q);
                        }
                    } else {
                        crawl_one_site_sink(web, config, &browser, todo[pos], &mut sink);
                    }
                    let site = take_site(&mut sink);
                    shake(chaos.as_ref(), w, &mut step);
                    ring.hand_in(pos, site);
                }
            });
        }

        // Reduce stage, on the calling thread: fold in ascending site
        // order, persist each shard the moment its last site lands. Shard
        // completion order is therefore itself deterministic — a shard
        // finishes when its highest position folds. However it exits, the
        // reducer closes the ring, which releases parked workers.
        let _close = CloseOnDrop(Some(&ring));
        let mut accs: Vec<Option<A>> = (0..shard_count)
            .map(|s| (!skip(s)).then(|| make_shard(s)))
            .collect();
        let mut remaining = vec![0usize; shard_count];
        for &i in &todo {
            remaining[i % shard_count] += 1;
        }
        // Shards that own no sites (shard_count > n) still persist: a
        // journal must cover every live shard or a resume would re-crawl
        // it.
        for (s, left) in remaining.iter().enumerate() {
            if *left == 0 {
                if let Some(acc) = &accs[s] {
                    persist(s, acc);
                }
            }
        }
        for &i in &todo {
            let Some(site) = ring.take() else {
                break; // a worker stopped early and closed the ring
            };
            let shard = i % shard_count;
            let acc = accs[shard].as_mut().expect("unskipped shard has an acc");
            fold(acc, site);
            ring.advance();
            remaining[shard] -= 1;
            if remaining[shard] == 0 {
                persist(shard, accs[shard].as_ref().expect("shard just folded"));
            }
            if abort() {
                break;
            }
        }
        accs
    })
}

/// Closes the ring when dropped while it holds one, so a thread that
/// leaves early — by abort or by unwinding — never strands the others.
struct CloseOnDrop<'a, R>(Option<&'a TicketRing<R>>);

impl<R> Drop for CloseOnDrop<'_, R> {
    fn drop(&mut self) {
        if let Some(ring) = self.0 {
            ring.close();
        }
    }
}

/// Injects the chaos schedule's yields at worker `w`'s next yield point.
fn shake(chaos: Option<&ChaosSchedule>, w: usize, step: &mut u64) {
    if let Some(c) = chaos {
        for _ in 0..c.yields(w, *step) {
            std::thread::yield_now();
        }
        *step += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{browser_era, crawl_reference, RecordSink, SiteRecord};
    use sockscope_faults::FaultProfile;
    use sockscope_webgen::{SyntheticWeb, WebGenConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn web(n: usize) -> SyntheticWeb {
        SyntheticWeb::new(WebGenConfig {
            n_sites: n,
            ..WebGenConfig::default()
        })
    }

    fn orchestrate(
        web: &SyntheticWeb,
        config: &CrawlConfig,
        orch: &OrchestratorConfig,
    ) -> Vec<SiteRecord> {
        crawl_orchestrated(
            web,
            config,
            orch,
            &|| ExtensionHost::stock(browser_era(&web.config().era)),
            &RecordSink::default,
            &|sink: &mut RecordSink| sink.take_record().expect("one record per site"),
            &Vec::new,
            &|acc: &mut Vec<SiteRecord>, record| acc.push(record),
        )
    }

    fn assert_matches_reference(records: &[SiteRecord], web: &SyntheticWeb, config: &CrawlConfig) {
        let reference = crawl_reference(web, config);
        assert_eq!(records.len(), reference.len());
        for (got, want) in records.iter().zip(&reference) {
            assert_eq!(got.site_id, want.site_id, "fold order must be site order");
            assert_eq!(got.domain, want.domain);
            assert_eq!(got.trees, want.trees);
            assert_eq!(got.faults, want.faults);
        }
    }

    #[test]
    fn orchestrated_folds_in_site_order_and_matches_the_reference() {
        let web = web(33);
        for faults in [None, Some(FaultProfile::heavy())] {
            let config = CrawlConfig {
                faults,
                ..CrawlConfig::default()
            };
            for (workers, queue_depth) in [(1, 1), (3, 2), (8, 64)] {
                let orch = OrchestratorConfig {
                    workers,
                    queue_depth,
                    ..OrchestratorConfig::default()
                };
                let records = orchestrate(&web, &config, &orch);
                assert_matches_reference(&records, &web, &config);
            }
        }
    }

    #[test]
    fn chaos_schedules_cannot_change_the_fold_sequence() {
        let web = web(24);
        let config = CrawlConfig {
            faults: Some(FaultProfile::heavy()),
            ..CrawlConfig::default()
        };
        let calm = orchestrate(&web, &config, &OrchestratorConfig::default());
        for chaos_seed in [1u64, 0xBAD_5EED, u64::MAX] {
            let orch = OrchestratorConfig {
                workers: 4,
                queue_depth: 1,
                in_flight: 2,
                chaos_seed: Some(chaos_seed),
                supervised: true,
            };
            let stormy = orchestrate(&web, &config, &orch);
            assert_eq!(calm.len(), stormy.len());
            for (a, b) in calm.iter().zip(&stormy) {
                assert_eq!(a.site_id, b.site_id);
                assert_eq!(a.trees, b.trees);
                assert_eq!(a.faults, b.faults);
            }
        }
    }

    #[test]
    fn supervision_is_identity_on_a_clean_run() {
        let web = web(20);
        let config = CrawlConfig::default();
        let supervised = orchestrate(&web, &config, &OrchestratorConfig::default());
        let bare = orchestrate(
            &web,
            &config,
            &OrchestratorConfig {
                supervised: false,
                ..OrchestratorConfig::default()
            },
        );
        assert_eq!(supervised.len(), bare.len());
        for (a, b) in supervised.iter().zip(&bare) {
            assert_eq!(a.site_id, b.site_id);
            assert_eq!(a.trees, b.trees);
            assert_eq!(a.faults, b.faults);
        }
    }

    #[test]
    fn all_workers_stalling_on_a_tight_window_stays_live() {
        // Liveness at the tightest window: with eight workers, an
        // in-flight cap of 1 and injected yields, at most one worker is
        // ever inside the window and the rest park on it. The holder of
        // the smallest unfolded position must still drain the crawl.
        let web = web(18);
        let config = CrawlConfig::default();
        let orch = OrchestratorConfig {
            workers: 8,
            queue_depth: 1,
            in_flight: 1,
            chaos_seed: Some(0xA11_57A11),
            supervised: true,
        };
        let records = orchestrate(&web, &config, &orch);
        assert_matches_reference(&records, &web, &config);
    }

    #[test]
    fn resumable_skips_recovered_shards_and_persists_complete_ones() {
        let web = web(22);
        let config = CrawlConfig::default();
        let orch = OrchestratorConfig {
            workers: 3,
            queue_depth: 4,
            ..OrchestratorConfig::default()
        };
        let persisted = std::sync::Mutex::new(Vec::new());
        let shard_count = 5usize;
        let out = crawl_orchestrated_resumable(
            &web,
            &config,
            &orch,
            shard_count,
            &|| ExtensionHost::stock(browser_era(&web.config().era)),
            &RecordSink::default,
            &|sink: &mut RecordSink| sink.take_record().expect("one record per site"),
            &|_s| Vec::new(),
            &|acc: &mut Vec<SiteRecord>, record| acc.push(record),
            &|s| s == 2, // pretend shard 2 was recovered from a journal
            &|s, acc: &Vec<SiteRecord>| persisted.lock().unwrap().push((s, acc.len())),
            &|| false,
        );
        assert_eq!(out.len(), shard_count);
        assert!(out[2].is_none(), "skipped shard must come back empty");
        for (s, slot) in out.iter().enumerate() {
            if s == 2 {
                continue;
            }
            let records = slot.as_ref().expect("crawled shard present");
            for record in records {
                assert_eq!(record.site_id % shard_count, s);
            }
            // Within a shard the fold preserved ascending site order.
            assert!(records.windows(2).all(|w| w[0].site_id < w[1].site_id));
        }
        let mut persisted = persisted.into_inner().unwrap();
        persisted.sort_unstable();
        assert_eq!(
            persisted,
            vec![(0, 5), (1, 5), (3, 4), (4, 4)],
            "every unskipped shard persists exactly once, with its full site count"
        );
    }

    #[test]
    fn abort_stops_the_crawl_without_hanging() {
        let web = web(40);
        let config = CrawlConfig::default();
        let orch = OrchestratorConfig {
            workers: 3,
            queue_depth: 1,
            in_flight: 2,
            ..OrchestratorConfig::default()
        };
        let folded = AtomicUsize::new(0);
        let out = crawl_orchestrated_resumable(
            &web,
            &config,
            &orch,
            2,
            &|| ExtensionHost::stock(browser_era(&web.config().era)),
            &RecordSink::default,
            &|sink: &mut RecordSink| sink.take_record().expect("one record per site"),
            &|_s| Vec::new(),
            &|acc: &mut Vec<SiteRecord>, record| {
                folded.fetch_add(1, Ordering::Relaxed);
                acc.push(record)
            },
            &|_s| false,
            &|_s, _acc: &Vec<SiteRecord>| {},
            // Abort once a handful of sites have folded; every worker and
            // the reducer must still wind down cleanly.
            &|| folded.load(Ordering::Relaxed) >= 5,
        );
        let total: usize = out.iter().flatten().map(Vec::len).sum();
        assert!(total >= 5, "some sites folded before the abort: {total}");
        assert!(total < 40, "abort must cut the crawl short: {total}");
    }

    /// Runs a 30-site crawl (2 workers, queue depth 4) whose `take_site`
    /// or `fold` panics part-way, on its own thread so that a hang fails
    /// the test instead of stalling the suite. Returns whether the crawl
    /// panicked, or `None` if it did not return within 30 s.
    fn panicking_crawl(panic_in_fold: bool) -> Option<bool> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let web = web(30);
            let config = CrawlConfig::default();
            let orch = OrchestratorConfig {
                workers: 2,
                queue_depth: 4,
                ..OrchestratorConfig::default()
            };
            let (taken, folded) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                crawl_orchestrated(
                    &web,
                    &config,
                    &orch,
                    &|| ExtensionHost::stock(browser_era(&web.config().era)),
                    &RecordSink::default,
                    &|sink: &mut RecordSink| {
                        let call = taken.fetch_add(1, Ordering::Relaxed) + 1;
                        assert!(panic_in_fold || call < 4, "take_site fails on call 4");
                        sink.take_record().expect("one record per site")
                    },
                    &Vec::new,
                    &|acc: &mut Vec<SiteRecord>, record| {
                        let site = folded.fetch_add(1, Ordering::Relaxed) + 1;
                        assert!(!panic_in_fold || site < 6, "fold fails at site 6");
                        acc.push(record)
                    },
                )
            }));
            let _ = tx.send(outcome.is_err());
        });
        rx.recv_timeout(std::time::Duration::from_secs(30)).ok()
    }

    #[test]
    fn a_panic_outside_supervision_ends_the_crawl_instead_of_hanging_it() {
        assert_eq!(panicking_crawl(false), Some(true), "panic in take_site");
        assert_eq!(panicking_crawl(true), Some(true), "panic in fold");
    }
}
