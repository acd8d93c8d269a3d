//! Streaming reduction of crawl records into compact observations.
//!
//! A paper-scale crawl (100K sites × ≤16 pages) is far too large to keep as
//! inclusion trees. [`CrawlReduction`] consumes each site's trees as they
//! are produced and keeps only:
//!
//! * labeling counts per second-level domain (`a(d)`, `n(d)` from §3.2),
//! * one [`SocketObservation`] per WebSocket (attribution + classified
//!   payload items + blocking-analysis flags),
//! * aggregate HTTP counters per domain (for Table 5's HTTP/S columns and
//!   the §4.2 chain statistics),
//! * per-site rank/socket flags (for Table 1 and Figure 3).
//!
//! Reductions form a commutative monoid under [`CrawlReduction::merge`]
//! (up to [`CrawlReduction::normalize`], which canonicalizes the order of
//! the two positional vectors): each crawl worker classifies into a
//! private reduction and the reducer folds them together, so no lock is
//! needed while classifying, and a checkpointed run can merge shards
//! recovered from its journal with freshly crawled ones.

use crate::pii::{PiiLibrary, ReceivedClass};
use serde::{de, Deserialize, Serialize, Value};
use sockscope_crawler::{SiteFaults, SiteRecord};
use sockscope_filterlist::{Engine, PageFacts, ResourceType};
use sockscope_inclusion::{InclusionTree, Node, NodeKind};
use sockscope_webmodel::SentItem;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Payload-derived facts about one WebSocket node, as the classification
/// pass consumes them. Produced either from a retained [`WsTranscript`]
/// (batch path) or from eagerly classified frames whose bytes were dropped
/// at emission time (fused path).
///
/// [`WsTranscript`]: sockscope_inclusion::WsTranscript
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WsPayloadSummary {
    /// Items recovered from the handshake + non-empty sent frames.
    pub sent_items: BTreeSet<SentItem>,
    /// Content classes recovered from non-empty received frames.
    pub received_classes: BTreeSet<ReceivedClass>,
    /// Count of non-empty sent payload frames.
    pub payload_frames: usize,
    /// Count of non-empty received payload frames.
    pub received_frames: usize,
}

/// Where a tree's payload-derived classifications come from.
///
/// This is the oracle seam that keeps the batch and stream-fused pipelines
/// decision-identical: [`CrawlReduction::observe_tree_with`] holds the one
/// and only copy of the classification *decisions* (which nodes count,
/// which gates apply, what lands in which table), and delegates every
/// payload *read* to this trait. The batch source reads retained bodies
/// and transcripts off the tree; the fused source reads side tables filled
/// the moment each event was emitted, after which the payload bytes were
/// dropped.
pub trait PayloadSource {
    /// Received-content class of an HTTP-fetched node (`Image`/`Xhr`),
    /// or `None` when no response body was observed or it classified to
    /// nothing.
    fn http_recv_class(&self, node: &Node, lib: &PiiLibrary) -> Option<ReceivedClass>;
    /// Payload-derived facts for a WebSocket node.
    fn ws_summary(&self, node: &Node, lib: &PiiLibrary) -> WsPayloadSummary;
}

/// The batch [`PayloadSource`]: payloads live on the tree itself
/// (`Node::http_body`, `Node::ws`), exactly as the materializing pipeline
/// recorded them.
pub struct TranscriptPayloads;

impl PayloadSource for TranscriptPayloads {
    fn http_recv_class(&self, node: &Node, lib: &PiiLibrary) -> Option<ReceivedClass> {
        node.http_body
            .as_ref()
            .and_then(|body| lib.classify_received(body))
    }

    fn ws_summary(&self, node: &Node, lib: &PiiLibrary) -> WsPayloadSummary {
        let ws = node.ws.as_ref().expect("socket node has transcript");
        // Classify: handshake + every sent frame.
        let mut sent_items = lib.classify_sent_text(&ws.handshake_request);
        let mut payload_frames = 0usize;
        for frame in &ws.sent {
            if frame.is_empty() {
                continue;
            }
            payload_frames += 1;
            match frame.as_text() {
                Some(t) => sent_items.extend(lib.classify_sent_text(t)),
                None => {
                    sent_items.insert(SentItem::Binary);
                }
            }
        }
        let mut received_classes = BTreeSet::new();
        let mut received_frames = 0usize;
        for frame in &ws.received {
            if frame.is_empty() {
                continue;
            }
            received_frames += 1;
            if let Some(class) = lib.classify_received(frame.as_bytes()) {
                received_classes.insert(class);
            }
        }
        WsPayloadSummary {
            sent_items,
            received_classes,
            payload_frames,
            received_frames,
        }
    }
}

/// One classified WebSocket.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SocketObservation {
    /// Endpoint URL.
    pub url: String,
    /// Endpoint hostname.
    pub host: String,
    /// Hostname of the nearest ancestor script (the page host if the
    /// socket was opened by inline first-party code).
    pub initiator_host: String,
    /// Hostnames of every ancestor resource, root → parent.
    pub chain_hosts: Vec<String>,
    /// Socket contacted a third-party SLD.
    pub cross_origin: bool,
    /// Items recovered from the handshake + sent frames by the regex
    /// library.
    pub sent_items: BTreeSet<SentItem>,
    /// Content classes recovered from received frames.
    pub received_classes: BTreeSet<ReceivedClass>,
    /// No payload frames sent (Table 5's "No data" row; the handshake
    /// still carried the UA).
    pub no_data_sent: bool,
    /// No payload frames received.
    pub no_data_received: bool,
    /// Would EasyList+EasyPrivacy have cut this chain post-hoc? (§4.2)
    pub chain_blocked: bool,
    /// Rank of the publisher the socket appeared on.
    pub site_rank: u32,
    /// Publisher domain.
    pub site_domain: String,
}

/// Aggregate HTTP counters for one second-level domain.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HttpAgg {
    /// Total requests.
    pub total: u64,
    /// Sent-item counts (indexed by [`SentItem::ALL`] position).
    pub sent_counts: [u64; 15],
    /// Received-class counts (indexed by [`ReceivedClass::ALL`] position).
    pub recv_counts: [u64; 5],
    /// Requests whose chain a blocker would have cut.
    pub chains_blocked: u64,
}

impl HttpAgg {
    /// Adds another aggregate's counters into this one.
    pub fn absorb(&mut self, other: &HttpAgg) {
        self.total += other.total;
        for (mine, theirs) in self.sent_counts.iter_mut().zip(&other.sent_counts) {
            *mine += theirs;
        }
        for (mine, theirs) in self.recv_counts.iter_mut().zip(&other.recv_counts) {
            *mine += theirs;
        }
        self.chains_blocked += other.chains_blocked;
    }
}

/// Per-site flags for Table 1 / Figure 3.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteFlags {
    /// Alexa-like rank.
    pub rank: u32,
    /// Pages visited.
    pub pages: usize,
    /// Sockets observed on the site.
    pub sockets: usize,
}

/// Crawl-wide failure accounting under fault injection: how many sites
/// were attempted, degraded, or abandoned, how often pages were retried,
/// and the taxonomy of injected errors. Forms a commutative monoid under
/// [`FailureTable::absorb`] (pointwise counter sums), exactly like the
/// rest of [`CrawlReduction`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureTable {
    /// Sites the crawler attempted.
    pub sites_attempted: u64,
    /// Sites that completed with failed or timed-out pages.
    pub sites_degraded: u64,
    /// Sites whose homepage never loaded (no trees at all).
    pub sites_abandoned: u64,
    /// Page visits attempted, counting every retry separately.
    pub pages_attempted: u64,
    /// Pages given up on after exhausting the retry budget.
    pub pages_failed: u64,
    /// Pages skipped because a site's virtual-clock budget ran out.
    pub pages_timed_out: u64,
    /// Re-visits performed after unreachable pages.
    pub retries: u64,
    /// Injected-error-kind histogram across all sites.
    pub errors: BTreeMap<String, u64>,
    /// Virtual ticks consumed (stalls plus backoff) across all sites.
    pub ticks: u64,
}

impl FailureTable {
    /// Folds one site's accounting into the table.
    pub fn observe(&mut self, site: &SiteFaults) {
        self.sites_attempted += 1;
        self.sites_degraded += u64::from(site.degraded);
        self.sites_abandoned += u64::from(site.abandoned);
        self.pages_attempted += site.pages_attempted;
        self.pages_failed += site.pages_failed;
        self.pages_timed_out += site.pages_timed_out;
        self.retries += site.retries;
        for (kind, n) in &site.errors {
            *self.errors.entry(kind.clone()).or_insert(0) += n;
        }
        self.ticks += site.ticks;
    }

    /// Adds another table's counters into this one (the monoid operation;
    /// `FailureTable::default()` is the identity).
    pub fn absorb(&mut self, other: &FailureTable) {
        self.sites_attempted += other.sites_attempted;
        self.sites_degraded += other.sites_degraded;
        self.sites_abandoned += other.sites_abandoned;
        self.pages_attempted += other.pages_attempted;
        self.pages_failed += other.pages_failed;
        self.pages_timed_out += other.pages_timed_out;
        self.retries += other.retries;
        for (kind, n) in &other.errors {
            *self.errors.entry(kind.clone()).or_insert(0) += n;
        }
        self.ticks += other.ticks;
    }

    /// Total injected errors across every kind.
    pub fn total_errors(&self) -> u64 {
        self.errors.values().sum()
    }
}

/// One quarantined site, as the supervisor recorded it: the only trace a
/// hostile site leaves in the crawl result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantinedSite {
    /// Site index in the universe.
    pub site_id: usize,
    /// Site second-level domain.
    pub domain: String,
    /// Alexa-like rank.
    pub rank: u32,
    /// Stable reason key (`panic` / `deadline` / `budget`).
    pub reason: String,
    /// Attempts spent before giving up.
    pub attempts: u32,
}

/// Crawl-wide quarantine accounting: the sites the supervisor gave up on
/// after exhausting retries against a panic, deadline breach, or budget
/// breach. Forms a commutative monoid under [`QuarantineTable::absorb`]
/// (concatenation, canonicalized by sorting on site id), exactly like the
/// rest of [`CrawlReduction`]. Persisted with the shard it was observed
/// in, so a resumed crawl neither loses nor duplicates entries.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineTable {
    /// Every quarantined site, sorted by site id after normalization.
    pub sites: Vec<QuarantinedSite>,
}

impl QuarantineTable {
    /// Adds another table's entries into this one (the monoid operation;
    /// `QuarantineTable::default()` is the identity).
    pub fn absorb(&mut self, other: QuarantineTable) {
        self.sites.extend(other.sites);
    }

    /// Per-reason counts, for the study report and the bench artifact.
    pub fn reason_counts(&self) -> BTreeMap<&str, u64> {
        let mut counts = BTreeMap::new();
        for site in &self.sites {
            *counts.entry(site.reason.as_str()).or_insert(0) += 1;
        }
        counts
    }

    /// Number of quarantined sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// `true` when nothing was quarantined.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }
}

/// The streaming reducer for one crawl.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrawlReduction {
    /// Crawl label (Table 1 row).
    pub label: String,
    /// Was this crawl pre-patch?
    pub pre_patch: bool,
    /// Labeling counts: fully-qualified host → (tagged-A&A, untagged)
    /// observation counts; the labeler aggregates these to 2nd-level
    /// domains (with CDN overrides) when building `D'`.
    pub label_counts: HashMap<String, (u64, u64)>,
    /// All classified sockets.
    pub sockets: Vec<SocketObservation>,
    /// HTTP aggregates per domain.
    pub http: BTreeMap<String, HttpAgg>,
    /// Per-site flags.
    pub sites: Vec<SiteFlags>,
    /// Failure accounting; `None` on fault-free crawls, so their snapshot
    /// JSON is byte-identical to the pre-fault format (and old snapshots
    /// still load).
    pub failures: Option<FailureTable>,
    /// Quarantine accounting; `None` when the supervisor gave up on no
    /// site, so hazard-free snapshots keep the exact pre-supervision
    /// format (and old snapshots still load).
    pub quarantine: Option<QuarantineTable>,
}

// Hand-written serde: the `failures` field is *omitted* when `None`, so
// fault-free reductions serialize to exactly the pre-fault-injection JSON
// (the snapshot-regression fingerprint depends on this), and snapshots
// written before the field existed still deserialize.
impl Serialize for CrawlReduction {
    fn to_value(&self) -> Value {
        let mut obj = vec![
            ("label".to_string(), self.label.to_value()),
            ("pre_patch".to_string(), self.pre_patch.to_value()),
            ("label_counts".to_string(), self.label_counts.to_value()),
            ("sockets".to_string(), self.sockets.to_value()),
            ("http".to_string(), self.http.to_value()),
            ("sites".to_string(), self.sites.to_value()),
        ];
        if let Some(failures) = &self.failures {
            obj.push(("failures".to_string(), failures.to_value()));
        }
        if let Some(quarantine) = &self.quarantine {
            obj.push(("quarantine".to_string(), quarantine.to_value()));
        }
        Value::Obj(obj)
    }
}

impl Deserialize for CrawlReduction {
    fn from_value(v: &Value) -> Result<CrawlReduction, de::Error> {
        const CTX: &str = "CrawlReduction";
        let obj = de::expect_obj(v, CTX)?;
        Ok(CrawlReduction {
            label: de::field(obj, "label", CTX)?,
            pre_patch: de::field(obj, "pre_patch", CTX)?,
            label_counts: de::field(obj, "label_counts", CTX)?,
            sockets: de::field(obj, "sockets", CTX)?,
            http: de::field(obj, "http", CTX)?,
            sites: de::field(obj, "sites", CTX)?,
            failures: match obj.iter().find(|(k, _)| k == "failures") {
                Some((_, v)) => Option::<FailureTable>::from_value(v)?,
                None => None,
            },
            quarantine: match obj.iter().find(|(k, _)| k == "quarantine") {
                Some((_, v)) => Option::<QuarantineTable>::from_value(v)?,
                None => None,
            },
        })
    }
}

impl CrawlReduction {
    /// Creates an empty reduction.
    pub fn new(label: impl Into<String>, pre_patch: bool) -> CrawlReduction {
        CrawlReduction {
            label: label.into(),
            pre_patch,
            label_counts: HashMap::new(),
            sockets: Vec::new(),
            http: BTreeMap::new(),
            sites: Vec::new(),
            failures: None,
            quarantine: None,
        }
    }

    /// Reduces one site record. `engine` is the combined
    /// EasyList+EasyPrivacy engine (used both for labeling tags and for the
    /// post-hoc blocking analysis); `lib` is the PII library.
    pub fn observe_site(&mut self, record: &SiteRecord, engine: &Engine, lib: &PiiLibrary) {
        let mut site_sockets = 0usize;
        for tree in &record.trees {
            site_sockets += self.observe_tree_with(
                tree,
                record.rank,
                &record.domain,
                engine,
                lib,
                &TranscriptPayloads,
            );
        }
        self.observe_site_flags(record.rank, record.trees.len(), site_sockets);
        self.observe_site_faults(record.faults.as_ref());
    }

    /// Records one site's [`SiteFlags`] row. Split out of
    /// [`CrawlReduction::observe_site`] so the fused pipeline — which never
    /// materializes a [`SiteRecord`] — feeds the identical table.
    pub fn observe_site_flags(&mut self, rank: u32, pages: usize, sockets: usize) {
        self.sites.push(SiteFlags {
            rank,
            pages,
            sockets,
        });
    }

    /// Folds one site's fault accounting (if any) into the failure table;
    /// `None` leaves the table untouched, preserving the fault-free
    /// snapshot format exactly.
    pub fn observe_site_faults(&mut self, faults: Option<&SiteFaults>) {
        if let Some(site_faults) = faults {
            self.failures
                .get_or_insert_with(FailureTable::default)
                .observe(site_faults);
        }
    }

    /// Records one quarantined site — the degraded trace the supervisor
    /// leaves when it gives up. The site contributes to no other table.
    pub fn observe_quarantine(&mut self, record: &sockscope_crawler::QuarantineRecord) {
        self.quarantine
            .get_or_insert_with(QuarantineTable::default)
            .sites
            .push(QuarantinedSite {
                site_id: record.site_id,
                domain: record.domain.clone(),
                rank: record.rank,
                reason: record.reason.as_str().to_string(),
                attempts: record.attempts,
            });
    }

    /// Reduces one inclusion tree, reading payload-derived facts through
    /// `payloads` — the single copy of the classification decision logic
    /// shared by the batch and fused pipelines. Returns the number of
    /// clean sockets observed.
    pub fn observe_tree_with(
        &mut self,
        tree: &InclusionTree,
        site_rank: u32,
        site_domain: &str,
        engine: &Engine,
        lib: &PiiLibrary,
        payloads: &dyn PayloadSource,
    ) -> usize {
        // Every URL below is the one parse the tree carries: the browser's,
        // or the builder's own for the root and inline scripts. Hosts,
        // URL texts and registrable domains are read from the tree too;
        // the domains were derived once per distinct host of the page.
        let page = tree.url(tree.root().id);
        // What rule options ask of the page, derived once for its requests.
        let page_facts = page.map(PageFacts::new);
        let mut sockets = 0usize;

        // Precompute per-node "would the lists block this node itself".
        let n = tree.nodes().len();
        let mut node_blocked = vec![false; n];
        for (i, node) in tree.nodes().iter().enumerate() {
            let rtype = match node.kind {
                NodeKind::Script => ResourceType::Script,
                NodeKind::Image => ResourceType::Image,
                NodeKind::Xhr => ResourceType::Xhr,
                _ => continue,
            };
            let (Some(page), Some(url)) = (&page_facts, tree.url(node.id)) else {
                continue;
            };
            let url_sld = tree.registrable_domain(node.id);
            node_blocked[i] = engine.evaluate_on(page, url, url_sld, rtype).is_blocked();
        }
        // Chain blocking: a node's chain is blocked if itself or any
        // ancestor is.
        let mut chain_blocked = vec![false; n];
        for (i, node) in tree.nodes().iter().enumerate() {
            let parent_blocked = node.parent.map(|p| chain_blocked[p.0]).unwrap_or(false);
            chain_blocked[i] = parent_blocked || node_blocked[i];
        }

        for (i, node) in tree.nodes().iter().enumerate() {
            match node.kind {
                NodeKind::Script | NodeKind::Image | NodeKind::Xhr => {
                    // Labeling observation (§3.2): tag by the rule lists.
                    // The host is the parse's, so already lower-case; a
                    // URL that did not parse has none and is not labeled.
                    let host = tree.host(node.id);
                    if host.is_empty() {
                        continue;
                    }
                    // Keyed by FULL hostname: the study's Cloudfront
                    // overrides (§3.2) act on fully-qualified CDN hosts, so
                    // aggregation to 2nd-level domains must happen in the
                    // labeler, where the override table lives.
                    // `get_mut` first so the steady state (host already
                    // seen) touches the map without copying the key.
                    let entry = match self.label_counts.get_mut(host) {
                        Some(e) => e,
                        None => self.label_counts.entry(host.to_string()).or_insert((0, 0)),
                    };
                    if node_blocked[i] {
                        entry.0 += 1;
                    } else {
                        entry.1 += 1;
                    }

                    // HTTP aggregates (keyed by the *full host* via its
                    // SLD; CDN reattribution happens at query time).
                    let agg = match self.http.get_mut(host) {
                        Some(a) => a,
                        None => self.http.entry(host.to_string()).or_default(),
                    };
                    agg.total += 1;
                    // Sent items: recovered from the URL text (query
                    // strings carry the tracking payloads in this model),
                    // plus the UA that rides every request's headers.
                    // Query-less URLs cannot carry key=value items; skip
                    // the 14-pattern scan for them (the common case).
                    let mut user_agent = false;
                    let url = tree.url_text(node.id);
                    if url.contains('=') {
                        for item in lib.sent_items_in(url) {
                            user_agent |= item == SentItem::UserAgent;
                            agg.sent_counts[item.index()] += 1;
                        }
                    }
                    if !user_agent {
                        agg.sent_counts[SentItem::UserAgent.index()] += 1;
                    }
                    // Received class: script fetches return JavaScript by
                    // construction (the paper classifies by body/MIME);
                    // other kinds classify their captured body.
                    if node.kind == NodeKind::Script {
                        agg.recv_counts[ReceivedClass::JavaScript.index()] += 1;
                    } else if let Some(class) = payloads.http_recv_class(node, lib) {
                        agg.recv_counts[class.index()] += 1;
                    }
                    if chain_blocked[i] {
                        agg.chains_blocked += 1;
                    }
                }
                NodeKind::WebSocket => {
                    let ws = node.ws.as_ref().expect("socket node has transcript");
                    // Sockets cut down by injected faults (refused
                    // connections, failed handshakes, dropped or stalled
                    // streams) never yielded a complete recording; they are
                    // accounted in the failure table, not classified. On
                    // fault-free crawls every socket is clean (status 101,
                    // no error), so this gate changes nothing.
                    if ws.status != 101 || ws.error.is_some() {
                        continue;
                    }
                    sockets += 1;
                    let chain = tree.chain(node.id);
                    let chain_hosts: Vec<String> = chain
                        .iter()
                        .take(chain.len() - 1)
                        .map(|c| tree.host(c.id).to_string())
                        .collect();
                    let initiator = chain
                        .iter()
                        .rev()
                        .skip(1)
                        .find(|c| c.kind == NodeKind::Script)
                        .map_or(tree.root().id, |c| c.id);
                    let cross_origin = match (page, tree.url(node.id)) {
                        (Some(p), Some(u)) => sockscope_urlkit::origin::is_third_party(p, u),
                        _ => true,
                    };
                    let WsPayloadSummary {
                        sent_items,
                        received_classes,
                        payload_frames,
                        received_frames,
                    } = payloads.ws_summary(node, lib);
                    self.sockets.push(SocketObservation {
                        url: tree.url_text(node.id).to_string(),
                        host: tree.host(node.id).to_string(),
                        initiator_host: tree.host(initiator).to_string(),
                        chain_hosts,
                        cross_origin,
                        sent_items,
                        received_classes,
                        no_data_sent: payload_frames == 0,
                        no_data_received: received_frames == 0,
                        chain_blocked: chain_blocked[i],
                        site_rank,
                        site_domain: site_domain.to_string(),
                    });
                }
                _ => {}
            }
        }
        sockets
    }

    /// Merges another reduction of the *same crawl* into this one.
    ///
    /// This is the monoid operation behind the sharded crawl driver: each
    /// shard reduces its own sites into a private `CrawlReduction`, and
    /// the shards are folded together with `merge` afterwards. Every
    /// table-feeding field combines:
    ///
    /// * `label_counts` — pointwise sum of the (tagged, untagged) pairs;
    /// * `sockets` — concatenation;
    /// * `http` — per-domain [`HttpAgg::absorb`] (counter sums);
    /// * `sites` — concatenation;
    /// * `failures` — pointwise [`FailureTable::absorb`]; `None` (the
    ///   fault-free case) is the identity, so merging preserves "no
    ///   faults" exactly.
    ///
    /// `CrawlReduction::new(label, pre_patch)` is the identity element.
    /// The operation is associative, and commutative up to the order of
    /// the two positional vectors — call [`CrawlReduction::normalize`]
    /// after the final merge to canonicalize.
    pub fn merge(mut self, other: CrawlReduction) -> CrawlReduction {
        self.absorb(other);
        self
    }

    /// In-place form of [`CrawlReduction::merge`]: folds `other` into
    /// `self` without moving the accumulator. The orchestrator's reducer
    /// stage uses this to fold one finished per-site reduction after
    /// another into a long-lived shard accumulator.
    pub fn absorb(&mut self, other: CrawlReduction) {
        debug_assert_eq!(self.label, other.label, "merging different crawls");
        debug_assert_eq!(self.pre_patch, other.pre_patch, "merging different eras");
        for (host, (tagged, untagged)) in other.label_counts {
            let entry = self.label_counts.entry(host).or_insert((0, 0));
            entry.0 += tagged;
            entry.1 += untagged;
        }
        self.sockets.extend(other.sockets);
        for (host, agg) in other.http {
            match self.http.entry(host) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(agg);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    slot.get_mut().absorb(&agg);
                }
            }
        }
        self.sites.extend(other.sites);
        self.failures = match (self.failures.take(), other.failures) {
            (Some(mut a), Some(b)) => {
                a.absorb(&b);
                Some(a)
            }
            (a, b) => a.or(b),
        };
        self.quarantine = match (self.quarantine.take(), other.quarantine) {
            (Some(mut a), Some(b)) => {
                a.absorb(b);
                Some(a)
            }
            (a, b) => a.or(b),
        };
    }

    /// Sorts the positional vectors into their canonical order: sockets by
    /// (publisher, URL), sites by (rank, pages, sockets). After
    /// normalization, two reductions of the same crawl compare equal
    /// regardless of the thread count, shard count, or arrival order that
    /// produced them — the determinism and snapshot tests rely on this.
    pub fn normalize(&mut self) {
        self.sockets
            .sort_by(|a, b| (&a.site_domain, &a.url).cmp(&(&b.site_domain, &b.url)));
        self.sites.sort_by_key(|s| (s.rank, s.pages, s.sockets));
        if let Some(q) = &mut self.quarantine {
            q.sites.sort_by_key(|s| s.site_id);
        }
    }

    /// Merges another reduction into this one (used to pool the labeling
    /// counts of all four crawls before building `D'`).
    pub fn merge_label_counts_into(&self, global: &mut HashMap<String, (u64, u64)>) {
        for (d, (a, n)) in &self.label_counts {
            let e = global.entry(d.clone()).or_insert((0, 0));
            e.0 += a;
            e.1 += n;
        }
    }

    /// Number of sites observed.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Fraction of sites with ≥1 socket.
    pub fn fraction_sites_with_sockets(&self) -> f64 {
        if self.sites.is_empty() {
            return 0.0;
        }
        self.sites.iter().filter(|s| s.sockets > 0).count() as f64 / self.sites.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sockscope_browser::{CdpEvent, FrameId, FramePayload, Initiator, RequestId, ScriptId};

    fn record_with_socket() -> SiteRecord {
        use CdpEvent::*;
        let events = vec![
            ScriptParsed {
                script_id: ScriptId(1),
                url: "https://v2.zopim.com/zopim.js?s=1&p=0".into(),
                parsed_url: None,
                frame_id: FrameId(0),
                initiator: Initiator::Parser(FrameId(0)),
            },
            RequestWillBeSent {
                request_id: RequestId(1),
                url: "https://v2.zopim.com/collect/beacon.gif?cookie=uid=1".into(),
                parsed_url: None,
                resource_type: sockscope_browser::ResourceKind::Image,
                initiator: Initiator::Script(ScriptId(1)),
                frame_id: FrameId(0),
            },
            WebSocketCreated {
                request_id: RequestId(2),
                url: "wss://ws.zopim.com/socket".into(),
                parsed_url: None,
                initiator: Initiator::Script(ScriptId(1)),
                frame_id: FrameId(0),
            },
            WebSocketWillSendHandshakeRequest {
                request_id: RequestId(2),
                request: b"GET /socket HTTP/1.1\r\nHost: ws.zopim.com\r\nUser-Agent: Mozilla/5.0 Chrome/57\r\n\r\n".to_vec().into(),
            },
            WebSocketHandshakeResponseReceived {
                request_id: RequestId(2),
                status: 101,
                response: b"HTTP/1.1 101 Switching Protocols\r\n\r\n".to_vec().into(),
            },
            WebSocketFrameSent {
                request_id: RequestId(2),
                payload: FramePayload::Text("cookie=uid=77; _ga=GA1.2.3&scroll_y=120".into()),
            },
            WebSocketFrameReceived {
                request_id: RequestId(2),
                payload: FramePayload::Text("<html><body>chat</body></html>".into()),
            },
            WebSocketClosed {
                request_id: RequestId(2),
            },
        ];
        let tree = InclusionTree::build("http://business-site-000001.example/", &events);
        SiteRecord {
            site_id: 1,
            domain: "business-site-000001.example".into(),
            rank: 777,
            trees: vec![tree],
            faults: None,
        }
    }

    fn site_faults(retries: u64, failed: u64) -> SiteFaults {
        SiteFaults {
            pages_attempted: 3 + retries,
            pages_failed: failed,
            pages_timed_out: 0,
            retries,
            abandoned: false,
            degraded: failed > 0,
            errors: [("connect_refused".to_string(), retries + failed)]
                .into_iter()
                .collect(),
            ticks: 8 * retries,
        }
    }

    fn engine() -> Engine {
        let (e, errs) = Engine::parse("||v2.zopim.com/collect/$third-party");
        assert!(errs.is_empty());
        e
    }

    #[test]
    fn socket_classified_and_attributed() {
        let mut red = CrawlReduction::new("test", true);
        red.observe_site(&record_with_socket(), &engine(), &PiiLibrary::new());
        assert_eq!(red.sockets.len(), 1);
        let s = &red.sockets[0];
        assert_eq!(s.host, "ws.zopim.com");
        assert_eq!(s.initiator_host, "v2.zopim.com");
        assert!(s.cross_origin);
        assert!(s.sent_items.contains(&SentItem::UserAgent)); // handshake
        assert!(s.sent_items.contains(&SentItem::Cookie));
        assert!(s.sent_items.contains(&SentItem::ScrollPosition));
        assert!(s.received_classes.contains(&ReceivedClass::Html));
        assert!(!s.no_data_sent);
        assert!(!s.no_data_received);
        // The beacon was tagged, but it is NOT an ancestor of the socket
        // (it's a sibling) — chain not blocked, exactly the §4.2 situation.
        assert!(!s.chain_blocked);
    }

    #[test]
    fn labeling_counts_by_sld() {
        let mut red = CrawlReduction::new("test", true);
        red.observe_site(&record_with_socket(), &engine(), &PiiLibrary::new());
        // v2.zopim.com observed twice over HTTP: tag script (untagged) +
        // beacon (tagged). Counts stay per-host until the labeler
        // aggregates them.
        let (a, n) = red.label_counts.get("v2.zopim.com").copied().unwrap();
        assert_eq!((a, n), (1, 1));
    }

    #[test]
    fn http_aggregates_fill() {
        let mut red = CrawlReduction::new("test", true);
        red.observe_site(&record_with_socket(), &engine(), &PiiLibrary::new());
        let agg = red.http.get("v2.zopim.com").unwrap();
        assert_eq!(agg.total, 2);
        // Beacon URL carried a cookie.
        let cookie_pos = SentItem::ALL
            .iter()
            .position(|&i| i == SentItem::Cookie)
            .unwrap();
        assert_eq!(agg.sent_counts[cookie_pos], 1);
        // Both carried a UA.
        assert_eq!(agg.sent_counts[0], 2);
        // The beacon chain was blocked (the beacon itself matches).
        assert_eq!(agg.chains_blocked, 1);
    }

    #[test]
    fn merge_matches_sequential_observation() {
        let engine = engine();
        let lib = PiiLibrary::new();
        let record = record_with_socket();

        let mut sequential = CrawlReduction::new("test", true);
        sequential.observe_site(&record, &engine, &lib);
        sequential.observe_site(&record, &engine, &lib);
        sequential.normalize();

        let mut left = CrawlReduction::new("test", true);
        left.observe_site(&record, &engine, &lib);
        let mut right = CrawlReduction::new("test", true);
        right.observe_site(&record, &engine, &lib);
        let mut merged = left.merge(right);
        merged.normalize();

        assert_eq!(merged, sequential);
    }

    #[test]
    fn empty_reduction_is_the_merge_identity() {
        let mut observed = CrawlReduction::new("test", true);
        observed.observe_site(&record_with_socket(), &engine(), &PiiLibrary::new());
        let left = CrawlReduction::new("test", true).merge(observed.clone());
        let right = observed.clone().merge(CrawlReduction::new("test", true));
        assert_eq!(left, observed);
        assert_eq!(right, observed);
    }

    #[test]
    fn failure_table_accounts_and_merges() {
        let engine = engine();
        let lib = PiiLibrary::new();
        let faulted = SiteRecord {
            faults: Some(site_faults(2, 1)),
            ..record_with_socket()
        };

        let mut red = CrawlReduction::new("test", true);
        red.observe_site(&faulted, &engine, &lib);
        red.observe_site(&record_with_socket(), &engine, &lib);
        let table = red.failures.as_ref().expect("faults observed");
        // Only the faulted record contributes: the fault-free one carries
        // no accounting at all.
        assert_eq!(table.sites_attempted, 1);
        assert_eq!(table.sites_degraded, 1);
        assert_eq!(table.retries, 2);
        assert_eq!(table.pages_failed, 1);
        assert_eq!(table.errors.get("connect_refused"), Some(&3));

        // Merge: None is the identity, Some+Some sums pointwise.
        let merged = CrawlReduction::new("test", true).merge(red.clone());
        assert_eq!(merged.failures, red.failures);
        let mut other = CrawlReduction::new("test", true);
        other.observe_site(&faulted, &engine, &lib);
        let doubled = red.clone().merge(other);
        let t = doubled.failures.as_ref().unwrap();
        assert_eq!(t.sites_attempted, 2);
        assert_eq!(t.retries, 4);
        assert_eq!(t.errors.get("connect_refused"), Some(&6));
    }

    #[test]
    fn failure_table_merge_is_associative() {
        let engine = engine();
        let lib = PiiLibrary::new();
        let make = |retries: u64, failed: u64| {
            let mut red = CrawlReduction::new("test", true);
            red.observe_site(
                &SiteRecord {
                    faults: Some(site_faults(retries, failed)),
                    ..record_with_socket()
                },
                &engine,
                &lib,
            );
            red
        };
        let (a, b, c) = (make(1, 0), make(2, 1), make(5, 3));
        let mut left = a.clone().merge(b.clone()).merge(c.clone());
        let mut right = a.merge(b.merge(c));
        left.normalize();
        right.normalize();
        assert_eq!(left.failures, right.failures);
        assert_eq!(left, right);
    }

    #[test]
    fn fault_free_reduction_serializes_without_failures_field() {
        let mut red = CrawlReduction::new("test", true);
        red.observe_site(&record_with_socket(), &engine(), &PiiLibrary::new());
        let v = red.to_value();
        assert!(
            v.get("failures").is_none(),
            "fault-free JSON must not grow a failures field"
        );
        // And a pre-fault-format value (no `failures` key) still loads.
        let back = CrawlReduction::from_value(&v).unwrap();
        assert_eq!(back, red);

        let faulted = SiteRecord {
            faults: Some(site_faults(1, 0)),
            ..record_with_socket()
        };
        let mut red = CrawlReduction::new("test", true);
        red.observe_site(&faulted, &engine(), &PiiLibrary::new());
        let v = red.to_value();
        assert!(v.get("failures").is_some());
        assert_eq!(CrawlReduction::from_value(&v).unwrap(), red);
    }

    #[test]
    fn quarantine_table_merges_and_serializes() {
        use sockscope_crawler::{QuarantineReason, QuarantineRecord};
        let record = |site_id: usize, reason: QuarantineReason| QuarantineRecord {
            site_id,
            domain: format!("site-{site_id}.example"),
            rank: site_id as u32 + 1,
            reason,
            attempts: 3,
        };

        // No quarantine observed → no key in the JSON, old format intact.
        let clean = CrawlReduction::new("test", true);
        assert!(clean.to_value().get("quarantine").is_none());

        let mut a = CrawlReduction::new("test", true);
        a.observe_quarantine(&record(7, QuarantineReason::Panic));
        a.observe_quarantine(&record(3, QuarantineReason::Deadline));
        let mut b = CrawlReduction::new("test", true);
        b.observe_quarantine(&record(5, QuarantineReason::Budget));

        // Merge both directions, normalize: same canonical table.
        let mut ab = a.clone().merge(b.clone());
        let mut ba = b.clone().merge(a.clone());
        ab.normalize();
        ba.normalize();
        assert_eq!(ab, ba);
        let table = ab.quarantine.as_ref().unwrap();
        assert_eq!(
            table.sites.iter().map(|s| s.site_id).collect::<Vec<_>>(),
            vec![3, 5, 7]
        );
        assert_eq!(
            table.reason_counts(),
            [("budget", 1), ("deadline", 1), ("panic", 1)]
                .into_iter()
                .collect()
        );
        // None is the identity.
        let merged = CrawlReduction::new("test", true).merge(ab.clone());
        assert_eq!(merged.quarantine, ab.quarantine);

        // Round-trips through the snapshot format.
        let v = ab.to_value();
        assert!(v.get("quarantine").is_some());
        assert_eq!(CrawlReduction::from_value(&v).unwrap(), ab);
    }

    #[test]
    fn site_flags_recorded() {
        let mut red = CrawlReduction::new("test", true);
        red.observe_site(&record_with_socket(), &engine(), &PiiLibrary::new());
        assert_eq!(red.site_count(), 1);
        assert_eq!(red.sites[0].sockets, 1);
        assert!((red.fraction_sites_with_sockets() - 1.0).abs() < 1e-9);
    }
}
