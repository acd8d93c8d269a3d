//! The stream-fused classification shard.
//!
//! [`FusedShard`] is a [`SiteSink`]: the crawler pushes every CDP event
//! into it the moment the browser emits it. Structural events flow into an
//! incremental [`TreeBuilder`]; payload-carrying events are intercepted,
//! classified on the spot, and **their bytes are dropped immediately** —
//! HTTP response bodies and WebSocket frames never accumulate anywhere.
//! When a page completes, the (payload-stripped) tree is reduced through
//! the same [`CrawlReduction::observe_tree_with`] decision logic as the
//! batch pipeline, reading the eager classifications back through the
//! [`PayloadSource`] oracle. The result is decision-identical to batch
//! reduction of a materialized [`SiteRecord`](sockscope_crawler::SiteRecord)
//! while bounding per-page memory by the tree's *structure* alone.
//!
//! ## Page lifetime rules
//!
//! All per-page state — the tree builder with its parsed node URLs and
//! the eager side tables keyed by [`NodeId`] — is scoped to a single page:
//! `page_begin` resets it and `page_end`/`page_abort`/`site_abort` close
//! it. The shard keeps the buffers (the builder, its maps, the spent
//! tree's node vectors, the side tables) from page to page, the way the
//! browser keeps its visit arena, so a torn page leaves only contents the
//! next `page_begin` clears. Nothing page-scoped survives into the
//! [`CrawlReduction`], which stores only resolved strings; this is what
//! lets shards merge across threads without any shared table.

use crate::pii::{PiiLibrary, ReceivedClass};
use crate::reduce::{CrawlReduction, PayloadSource, WsPayloadSummary};
use sockscope_browser::{CdpEvent, VisitSink};
use sockscope_crawler::{SiteFaults, SiteSink};
use sockscope_filterlist::Engine;
use sockscope_inclusion::{Node, NodeId, NodeKind, TreeBuilder};
use sockscope_webmodel::SentItem;
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};

/// Eagerly classified WebSocket payload state for one socket node: exactly
/// the facts [`WsPayloadSummary`] reports, accumulated frame by frame as
/// the events arrive instead of from a retained transcript.
#[derive(Debug, Clone, Default)]
struct WsEager {
    sent_items: BTreeSet<SentItem>,
    received_classes: BTreeSet<ReceivedClass>,
    payload_frames: usize,
    received_frames: usize,
}

/// Per-page fused state: the incremental tree plus the eager side tables.
/// Reset, not rebuilt, at each `page_begin`.
struct PageState {
    builder: TreeBuilder,
    /// `ResponseReceived` classifications for `Image`/`Xhr` nodes (the only
    /// kinds whose body the reducer reads). Overwritten on re-response,
    /// mirroring the batch path's "last body wins".
    recv_class: HashMap<NodeId, Option<ReceivedClass>>,
    /// Per-socket eager payload classifications.
    ws: HashMap<NodeId, WsEager>,
}

/// The fused [`PayloadSource`]: reads the eager side tables instead of
/// retained payloads.
struct EagerPayloads<'p> {
    recv_class: &'p HashMap<NodeId, Option<ReceivedClass>>,
    ws: &'p HashMap<NodeId, WsEager>,
}

impl PayloadSource for EagerPayloads<'_> {
    fn http_recv_class(&self, node: &Node, _lib: &PiiLibrary) -> Option<ReceivedClass> {
        self.recv_class.get(&node.id).copied().flatten()
    }

    fn ws_summary(&self, node: &Node, _lib: &PiiLibrary) -> WsPayloadSummary {
        let eager = self.ws.get(&node.id).cloned().unwrap_or_default();
        WsPayloadSummary {
            sent_items: eager.sent_items,
            received_classes: eager.received_classes,
            payload_frames: eager.payload_frames,
            received_frames: eager.received_frames,
        }
    }
}

/// A crawl worker's stream-fused sink: a [`CrawlReduction`] fed straight
/// off the browser's event stream, with a private classification context
/// per worker (only the filter engine is shared, read-only).
pub struct FusedShard<'e> {
    engine: &'e Engine,
    lib: PiiLibrary,
    reduction: CrawlReduction,
    site_rank: u32,
    site_domain: String,
    site_pages: usize,
    site_sockets: usize,
    page: PageState,
    /// Whether a page is open (between `page_begin` and its closing call).
    page_open: bool,
}

impl<'e> FusedShard<'e> {
    /// Creates a shard reducing into `CrawlReduction::new(label, pre_patch)`
    /// with its own [`PiiLibrary`].
    pub fn new(label: impl Into<String>, pre_patch: bool, engine: &'e Engine) -> FusedShard<'e> {
        FusedShard {
            engine,
            lib: PiiLibrary::new(),
            reduction: CrawlReduction::new(label, pre_patch),
            site_rank: 0,
            site_domain: String::new(),
            site_pages: 0,
            site_sockets: 0,
            page: PageState {
                builder: TreeBuilder::new(""),
                recv_class: HashMap::new(),
                ws: HashMap::new(),
            },
            page_open: false,
        }
    }

    /// Takes everything reduced since the last take, leaving the shard
    /// empty (same label/era) and ready for the next site. The
    /// orchestrator calls this after each `site_end`, so a worker-private
    /// `FusedShard` doubles as a per-*site* reducer: the classification
    /// context (engine borrow + PII library) stays warm across sites while
    /// each site's reduction travels to the reduce stage on its own.
    pub fn take_site_reduction(&mut self) -> CrawlReduction {
        debug_assert!(!self.page_open, "taken mid-page");
        let fresh = CrawlReduction::new(self.reduction.label.clone(), self.reduction.pre_patch);
        std::mem::replace(&mut self.reduction, fresh)
    }
}

impl VisitSink for FusedShard<'_> {
    fn on_event(&mut self, event: CdpEvent) {
        assert!(
            self.page_open,
            "events arrive only between page_begin and page_end"
        );
        let page = &mut self.page;
        match event {
            CdpEvent::ResponseReceived {
                request_id,
                url,
                status,
                mime_type,
                body,
                ..
            } => {
                // Classify the body now, for the node kinds whose body the
                // reducer will read; forward the event with the body
                // stripped so the node keeps its `Some(..)` presence (the
                // "a response arrived" fact) without the bytes. The ground
                // truth is stripped too: no reducer reads it.
                if let Some(id) = page.builder.node_for_request(request_id) {
                    if matches!(page.builder.node(id).kind, NodeKind::Image | NodeKind::Xhr) {
                        page.recv_class
                            .insert(id, self.lib.classify_received(&body));
                    }
                }
                page.builder.push(CdpEvent::ResponseReceived {
                    request_id,
                    url,
                    status,
                    mime_type,
                    body: Cow::Borrowed(&[]),
                    sent_ground_truth: Cow::Borrowed(&[]),
                });
            }
            CdpEvent::WebSocketWillSendHandshakeRequest {
                request_id,
                request,
            } => {
                // The handshake's only downstream use is sent-item
                // classification; do it now and drop the bytes entirely.
                if let Some(id) = page.builder.node_for_request(request_id) {
                    if page.builder.node(id).ws.is_some() {
                        let text = String::from_utf8_lossy(&request);
                        page.ws
                            .entry(id)
                            .or_default()
                            .sent_items
                            .extend(self.lib.classify_sent_text(&text));
                    }
                }
            }
            CdpEvent::WebSocketHandshakeResponseReceived {
                request_id, status, ..
            } => {
                // Only the status is read downstream; the raw response
                // bytes are dropped here.
                page.builder
                    .push(CdpEvent::WebSocketHandshakeResponseReceived {
                        request_id,
                        status,
                        response: Cow::Borrowed(&[]),
                    });
            }
            CdpEvent::WebSocketFrameSent {
                request_id,
                payload,
            } => {
                if let Some(id) = page.builder.node_for_request(request_id) {
                    if page.builder.node(id).ws.is_some() {
                        let eager = page.ws.entry(id).or_default();
                        if !payload.to_bytes().is_empty() {
                            eager.payload_frames += 1;
                            match payload.as_text() {
                                Some(t) => eager.sent_items.extend(self.lib.classify_sent_text(t)),
                                None => {
                                    eager.sent_items.insert(SentItem::Binary);
                                }
                            }
                        }
                    }
                }
            }
            CdpEvent::WebSocketFrameReceived {
                request_id,
                payload,
            } => {
                if let Some(id) = page.builder.node_for_request(request_id) {
                    if page.builder.node(id).ws.is_some() {
                        let eager = page.ws.entry(id).or_default();
                        let bytes = payload.to_bytes();
                        if !bytes.is_empty() {
                            eager.received_frames += 1;
                            if let Some(class) = self.lib.classify_received(&bytes) {
                                eager.received_classes.insert(class);
                            }
                        }
                    }
                }
            }
            // Structural events (including WebSocket open/error/close)
            // carry no payload worth stripping; feed them through.
            other => page.builder.push(other),
        }
    }
}

impl SiteSink for FusedShard<'_> {
    fn site_begin(&mut self, _site_id: usize, domain: &str, rank: u32) {
        self.site_rank = rank;
        self.site_domain.clear();
        self.site_domain.push_str(domain);
        self.site_pages = 0;
        self.site_sockets = 0;
    }

    fn page_begin(&mut self, url: &str) {
        let page = &mut self.page;
        page.builder.reset(url);
        page.recv_class.clear();
        page.ws.clear();
        self.page_open = true;
    }

    fn page_end(&mut self) {
        assert!(self.page_open, "page_end after page_begin");
        self.page_open = false;
        let page = &mut self.page;
        let tree = page.builder.finish();
        let payloads = EagerPayloads {
            recv_class: &page.recv_class,
            ws: &page.ws,
        };
        self.site_sockets += self.reduction.observe_tree_with(
            &tree,
            self.site_rank,
            &self.site_domain,
            self.engine,
            &self.lib,
            &payloads,
        );
        page.builder.recycle(tree);
        self.site_pages += 1;
    }

    fn page_abort(&mut self) {
        self.page_open = false;
    }

    fn site_end(&mut self, faults: Option<&SiteFaults>) {
        self.reduction
            .observe_site_flags(self.site_rank, self.site_pages, self.site_sockets);
        self.reduction.observe_site_faults(faults);
    }

    fn site_abort(&mut self) {
        // Supervised teardown: drop the open page and everything the
        // current site already reduced. In the orchestrator — the only
        // supervised driver — the shard is drained with
        // `take_site_reduction` after every site, so the accumulated
        // reduction holds exactly the aborted site and nothing else.
        self.page_open = false;
        self.site_pages = 0;
        self.site_sockets = 0;
        let _ = self.take_site_reduction();
    }

    fn site_quarantined(&mut self, record: &sockscope_crawler::QuarantineRecord) {
        self.reduction.observe_quarantine(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sockscope_browser::{Browser, BrowserConfig, ExtensionHost};
    use sockscope_crawler::{
        browser_era, crawl_one_site_sink, crawl_orchestrated, crawl_reference, CrawlConfig,
        OrchestratorConfig,
    };
    use sockscope_faults::FaultProfile;
    use sockscope_webgen::{SyntheticWeb, WebGenConfig};

    /// The load-bearing differential: a fused crawl's reduction is
    /// byte-identical to batch reduction of the reference crawl's
    /// materialized records, with and without fault injection.
    #[test]
    fn fused_reduction_matches_batch_reduction() {
        let web = SyntheticWeb::new(WebGenConfig {
            n_sites: 40,
            ..WebGenConfig::default()
        });
        let engine = crate::study::Study::engine_for(&web);
        for faults in [None, Some(FaultProfile::heavy())] {
            let config = CrawlConfig {
                faults,
                ..CrawlConfig::default()
            };

            let lib = PiiLibrary::new();
            let mut batch = CrawlReduction::new("era", true);
            for record in crawl_reference(&web, &config) {
                batch.observe_site(&record, &engine, &lib);
            }
            batch.normalize();

            let orch = OrchestratorConfig {
                workers: 3,
                ..OrchestratorConfig::default()
            };
            let mut fused = crawl_orchestrated(
                &web,
                &config,
                &orch,
                &|| sockscope_browser::ExtensionHost::stock(browser_era(&web.config().era)),
                &|| FusedShard::new("era", true, &engine),
                &|worker: &mut FusedShard<'_>| worker.take_site_reduction(),
                &|| CrawlReduction::new("era", true),
                &|acc: &mut CrawlReduction, site| acc.absorb(site),
            );
            fused.normalize();

            assert_eq!(fused, batch);
        }
    }

    /// Forwards the first `left` events of a visit and drops the rest: a
    /// page torn mid-stream.
    struct Torn<'s, 'e> {
        shard: &'s mut FusedShard<'e>,
        left: usize,
    }

    impl VisitSink for Torn<'_, '_> {
        fn on_event(&mut self, event: CdpEvent) {
            if self.left > 0 {
                self.left -= 1;
                self.shard.on_event(event);
            }
        }
    }

    /// A shard kept across sites, pages, torn pages and `page_abort`s
    /// reduces every site exactly like a fresh shard: the recycled page
    /// state (builder, maps, node vectors, side tables) carries nothing
    /// from one page to the next.
    #[test]
    fn a_reused_shard_reduces_like_a_fresh_one() {
        let web = SyntheticWeb::new(WebGenConfig {
            n_sites: 24,
            ..WebGenConfig::default()
        });
        let engine = crate::study::Study::engine_for(&web);
        let browser = Browser::new(
            &web,
            ExtensionHost::stock(browser_era(&web.config().era)),
            BrowserConfig::default(),
        );
        // Heavy faults make unreachable pages, which the crawler aborts.
        let config = CrawlConfig {
            faults: Some(FaultProfile::heavy()),
            ..CrawlConfig::default()
        };
        let mut reused = FusedShard::new("era", true, &engine);
        for i in 0..web.sites().len() {
            let home = web.sites()[i].homepage();
            reused.page_begin(&home);
            let mut torn = Torn {
                shard: &mut reused,
                left: 3 + 5 * i,
            };
            browser.visit_streamed(&home, None, &mut torn).unwrap();
            reused.page_abort();
            crawl_one_site_sink(&web, &config, &browser, i, &mut reused);

            let mut fresh = FusedShard::new("era", true, &engine);
            crawl_one_site_sink(&web, &config, &browser, i, &mut fresh);
            assert_eq!(
                reused.take_site_reduction(),
                fresh.take_site_reduction(),
                "site {i}"
            );
        }
    }
}
