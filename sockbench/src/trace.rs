//! The traced run behind `bench --trace 1`: one workload's job broken down
//! by crate, from the outside, through the library's public seams only.
//!
//! 1. **Phase spans.** The CLI's top-level calls, in the CLI's order:
//!    set-up, crawl (`Study::run` or `Study::run_checkpointed`), report,
//!    the lineage products, snapshot capture + save, render, and the
//!    resume.
//! 2. **Crawl breakdown.** A serial loop over every era and site calls
//!    [`supervise_site`] — the per-site function each orchestrator worker
//!    calls — with the production browser seed and extensions, into a
//!    production [`FusedShard`]. A [`WebHost`] wrapper times every call
//!    into the era's `SyntheticWeb` (webgen); a [`SiteSink`] wrapper
//!    times the shard's callbacks, split by event kind (structural events
//!    are inclusion; bodies, WebSocket handshakes and frames are
//!    classification; `page_end` is page reduction); the loop times
//!    `take_site_reduction` + `absorb` (fold) and `normalize`. Browser
//!    self time is the site span minus all of those.
//! 3. **Shadows.** Extra calls after each site, outside every span and
//!    every sum: `Engine::blocks` on each Script/Image/Xhr request,
//!    `classify_sent_text` on each `=`-bearing request URL, and a replay
//!    of the site's WebSocket payloads through a `wsproto` client/server
//!    pair. They price work the page reducer and browser do internally.
//! 4. **Exec comparison.** Untraced serial studies against untraced
//!    orchestrated ones (`Study::run`), alternated, fastest of three each.
//! 5. **Spans.** Phase, site and page spans, kept in memory and returned
//!    as JSON lines for the caller to write out.
//!
//! Allocation counts come from `sockscope_exec::memmeter`; they read zero
//! unless the binary installs its `CountingAlloc`. `bench_trace` does, and
//! counts only while the traced crawl runs (see [`run`]).

use crate::job::{reset_dir, JobSpec};
use crate::stats;
use serde::Serialize;
use sockscope::analysis::checkpoint::CheckpointOptions;
use sockscope::analysis::longitudinal::{era_deltas, era_snapshots};
use sockscope::analysis::{CrawlReduction, FusedShard, PiiLibrary, SnapshotLineage, StudySnapshot};
use sockscope::browser::VisitSink;
use sockscope::browser::{
    Browser, BrowserConfig, CdpEvent, ExtensionHost, RequestId, ResourceKind,
};
use sockscope::crawler::{
    browser_era, supervise_site, CrawlConfig, QuarantineRecord, SiteFaults, SiteSink,
};
use sockscope::filterlist::{Engine, RequestContext, ResourceType};
use sockscope::urlkit::Url;
use sockscope::webgen::SyntheticWeb;
use sockscope::webmodel::{Page, ScriptBehavior, WebHost, WsServerProfile};
use sockscope::wsproto::{connection::pump, Connection, Event, Role};
use sockscope::{Study, StudyConfig, StudyReport};
use sockscope_exec::memmeter::{Meter, StageStats};
use std::cell::Cell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Repeats of each untraced crawl in the exec comparison. One crawl of a
/// small universe lasts about a second, and the host's slow spells can
/// double it; the fastest of three is steady to a few percent.
const EXEC_REPEATS: usize = 3;

/// The outcome of one traced run.
#[derive(Debug)]
pub struct TraceRun {
    /// `(name, unit, value)` of every per-layer metric, in report order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Failed checks; empty when the run is correct.
    pub problems: Vec<String>,
    /// Phase, site and page spans, one JSON object per line.
    pub spans: Vec<String>,
}

/// Time, allocation calls and call count one layer accumulated.
#[derive(Debug, Default, Clone, Copy)]
struct Layer {
    secs: f64,
    allocs: u64,
    calls: u64,
}

impl Layer {
    fn add(&mut self, s: StageStats) {
        self.secs += s.seconds;
        self.allocs += s.alloc_count;
        self.calls += 1;
    }

    fn absorb(&mut self, other: Layer) {
        self.secs += other.secs;
        self.allocs += other.allocs;
        self.calls += other.calls;
    }
}

/// Runs `f` under a meter, adding its cost to `layer`.
fn metered<T>(layer: &mut Layer, f: impl FnOnce() -> T) -> T {
    let m = Meter::start();
    let out = f();
    layer.add(m.finish());
    out
}

/// The era's synthetic web, with every call timed (the webgen layer).
struct TimedHost<'w> {
    web: &'w SyntheticWeb,
    layer: Cell<Layer>,
}

impl TimedHost<'_> {
    fn timed<T>(&self, f: impl FnOnce(&SyntheticWeb) -> T) -> T {
        let mut layer = self.layer.get();
        let out = metered(&mut layer, || f(self.web));
        self.layer.set(layer);
        out
    }
}

impl WebHost for TimedHost<'_> {
    fn get_page(&self, url: &str) -> Option<Page> {
        self.timed(|web| web.get_page(url))
    }

    fn get_script(&self, url: &str) -> Option<ScriptBehavior> {
        self.timed(|web| web.get_script(url))
    }

    fn get_ws_server(&self, url: &str) -> Option<WsServerProfile> {
        self.timed(|web| web.get_ws_server(url))
    }
}

/// One captured WebSocket data frame.
struct WsFrame {
    sent: bool,
    text: bool,
    bytes: Vec<u8>,
}

/// What one site's pages fed the sink that the shadows replay.
#[derive(Default)]
struct SiteCorpus {
    page_urls: Vec<String>,
    /// `(page index, request URL, resource type)` of every Script, Image
    /// and Xhr request.
    requests: Vec<(usize, String, ResourceType)>,
    sockets: Vec<Vec<WsFrame>>,
    open_sockets: HashMap<RequestId, usize>,
}

impl SiteCorpus {
    fn page_begin(&mut self, url: &str) {
        self.page_urls.push(url.to_string());
        self.open_sockets.clear();
    }

    fn observe(&mut self, event: &CdpEvent<'_>) {
        match event {
            CdpEvent::RequestWillBeSent {
                url, resource_type, ..
            } => {
                let rtype = match resource_type {
                    ResourceKind::Script => ResourceType::Script,
                    ResourceKind::Image => ResourceType::Image,
                    ResourceKind::Xhr => ResourceType::Xhr,
                    _ => return,
                };
                let page = self.page_urls.len().saturating_sub(1);
                self.requests.push((page, url.to_string(), rtype));
            }
            CdpEvent::WebSocketCreated { request_id, .. } => {
                self.open_sockets.insert(*request_id, self.sockets.len());
                self.sockets.push(Vec::new());
            }
            CdpEvent::WebSocketFrameSent {
                request_id,
                payload,
            }
            | CdpEvent::WebSocketFrameReceived {
                request_id,
                payload,
            } => {
                if let Some(&socket) = self.open_sockets.get(request_id) {
                    self.sockets[socket].push(WsFrame {
                        sent: matches!(event, CdpEvent::WebSocketFrameSent { .. }),
                        text: payload.as_text().is_some(),
                        bytes: payload.to_bytes().into_owned(),
                    });
                }
            }
            _ => {}
        }
    }

    fn clear(&mut self) {
        self.page_urls.clear();
        self.requests.clear();
        self.sockets.clear();
        self.open_sockets.clear();
    }
}

/// An open page: when it began and what its events cost so far.
struct OpenPage {
    start: Instant,
    events: u64,
    event_s: f64,
}

/// A finished (kept or aborted) page of the current site.
struct PageSpan {
    start: Instant,
    dur_s: f64,
    events: u64,
    event_s: f64,
    kept: bool,
}

/// The production [`FusedShard`], with every callback timed.
struct TimedSink<'e> {
    inner: FusedShard<'e>,
    inclusion: Layer,
    classify: Layer,
    page_reduce: Layer,
    /// The wrapper's own capture work inside site spans; subtracted from
    /// browser self time.
    capture: Layer,
    structural_events: u64,
    payload_events: u64,
    page_attempts: u64,
    pages_kept: u64,
    corpus: SiteCorpus,
    page: Option<OpenPage>,
    pages: Vec<PageSpan>,
}

impl<'e> TimedSink<'e> {
    fn new(inner: FusedShard<'e>) -> TimedSink<'e> {
        TimedSink {
            inner,
            inclusion: Layer::default(),
            classify: Layer::default(),
            page_reduce: Layer::default(),
            capture: Layer::default(),
            structural_events: 0,
            payload_events: 0,
            page_attempts: 0,
            pages_kept: 0,
            corpus: SiteCorpus::default(),
            page: None,
            pages: Vec::new(),
        }
    }

    fn close_page(&mut self, kept: bool) {
        if let Some(p) = self.page.take() {
            self.pages.push(PageSpan {
                start: p.start,
                dur_s: p.start.elapsed().as_secs_f64(),
                events: p.events,
                event_s: p.event_s,
                kept,
            });
        }
    }

    fn sink_secs(&self) -> f64 {
        self.inclusion.secs + self.classify.secs + self.page_reduce.secs + self.capture.secs
    }
}

/// Events that carry a body, a handshake or a frame payload: the fused
/// shard classifies these on arrival. Everything else only grows the tree.
fn is_payload(event: &CdpEvent<'_>) -> bool {
    matches!(
        event,
        CdpEvent::ResponseReceived { .. }
            | CdpEvent::WebSocketWillSendHandshakeRequest { .. }
            | CdpEvent::WebSocketHandshakeResponseReceived { .. }
            | CdpEvent::WebSocketFrameSent { .. }
            | CdpEvent::WebSocketFrameReceived { .. }
    )
}

impl VisitSink for TimedSink<'_> {
    fn on_event(&mut self, event: CdpEvent<'_>) {
        let corpus = &mut self.corpus;
        metered(&mut self.capture, || corpus.observe(&event));
        let layer = if is_payload(&event) {
            self.payload_events += 1;
            &mut self.classify
        } else {
            self.structural_events += 1;
            &mut self.inclusion
        };
        let m = Meter::start();
        self.inner.on_event(event);
        let cost = m.finish();
        layer.add(cost);
        if let Some(p) = &mut self.page {
            p.events += 1;
            p.event_s += cost.seconds;
        }
    }
}

impl SiteSink for TimedSink<'_> {
    fn site_begin(&mut self, site_id: usize, domain: &str, rank: u32) {
        let inner = &mut self.inner;
        metered(&mut self.page_reduce, || {
            inner.site_begin(site_id, domain, rank)
        });
    }

    fn page_begin(&mut self, url: &str) {
        let corpus = &mut self.corpus;
        metered(&mut self.capture, || corpus.page_begin(url));
        self.page_attempts += 1;
        self.page = Some(OpenPage {
            start: Instant::now(),
            events: 0,
            event_s: 0.0,
        });
        let inner = &mut self.inner;
        metered(&mut self.inclusion, || inner.page_begin(url));
    }

    fn page_end(&mut self) {
        let inner = &mut self.inner;
        metered(&mut self.page_reduce, || inner.page_end());
        self.pages_kept += 1;
        self.close_page(true);
    }

    fn page_abort(&mut self) {
        let inner = &mut self.inner;
        metered(&mut self.inclusion, || inner.page_abort());
        self.close_page(false);
    }

    fn site_end(&mut self, faults: Option<&SiteFaults>) {
        let inner = &mut self.inner;
        metered(&mut self.page_reduce, || inner.site_end(faults));
    }

    fn site_abort(&mut self) {
        let inner = &mut self.inner;
        metered(&mut self.page_reduce, || inner.site_abort());
        self.close_page(false);
    }

    fn site_quarantined(&mut self, record: &QuarantineRecord) {
        self.inner.site_quarantined(record);
    }
}

/// The shadow estimates, accumulated over every site.
#[derive(Default)]
struct Shadows {
    blocks: Layer,
    requests: u64,
    blocked: u64,
    url_pii: Layer,
    url_pii_calls: u64,
    replay: Layer,
    frames: u64,
    payload_bytes: u64,
    replay_mismatches: u64,
}

impl Shadows {
    /// Replays one site's corpus through the shadow calls, then clears it.
    fn run(&mut self, corpus: &mut SiteCorpus, engine: &Engine, lib: &PiiLibrary) {
        let (mut requests, mut blocked) = (0, 0);
        metered(&mut self.blocks, || {
            let pages: Vec<Option<Url>> = corpus
                .page_urls
                .iter()
                .map(|u| Url::parse(u).ok())
                .collect();
            for (page, url, rtype) in &corpus.requests {
                requests += 1;
                if let (Some(Some(page)), Ok(url)) = (pages.get(*page), Url::parse(url)) {
                    let ctx = RequestContext {
                        url: &url,
                        page,
                        resource_type: *rtype,
                    };
                    blocked += u64::from(engine.blocks(&ctx));
                }
            }
        });
        self.requests += requests;
        self.blocked += blocked;

        let mut calls = 0;
        metered(&mut self.url_pii, || {
            for (_, url, _) in corpus.requests.iter().filter(|r| r.1.contains('=')) {
                calls += 1;
                std::hint::black_box(lib.classify_sent_text(url));
            }
        });
        self.url_pii_calls += calls;

        let mut mismatches = 0;
        metered(&mut self.replay, || {
            for socket in &corpus.sockets {
                mismatches += replay(socket);
            }
        });
        self.replay_mismatches += mismatches;
        for frame in corpus.sockets.iter().flatten() {
            self.frames += 1;
            self.payload_bytes += frame.bytes.len() as u64;
        }
        corpus.clear();
    }
}

/// Re-frames one socket's payloads through a client/server `wsproto`
/// pair; returns how many did not arrive byte-identical.
fn replay(frames: &[WsFrame]) -> u64 {
    let mut client = Connection::new(Role::Client, 0x5EED_0001);
    let mut server = Connection::new(Role::Server, 0x5EED_0002);
    let mut mismatches = 0;
    for frame in frames {
        let sender = if frame.sent { &mut client } else { &mut server };
        let queued = match (frame.text, std::str::from_utf8(&frame.bytes)) {
            (true, Ok(text)) => sender.send_text(text),
            _ => sender.send_binary(&frame.bytes),
        };
        let delivered = queued
            .ok()
            .and_then(|()| pump(&mut client, &mut server).ok());
        let ok = delivered.is_some_and(|(to_client, to_server)| {
            let events = if frame.sent { to_server } else { to_client };
            matches!(events.as_slice(), [Event::Message(m)] if m.as_bytes() == frame.bytes)
        });
        mismatches += u64::from(!ok);
    }
    mismatches
}

#[derive(Serialize)]
struct PhaseLine {
    kind: String,
    name: String,
    start_us: u64,
    dur_us: u64,
}

#[derive(Serialize)]
struct SiteLine {
    kind: String,
    era: usize,
    site: usize,
    start_us: u64,
    dur_us: u64,
    webgen_us: u64,
    sink_us: u64,
    quarantined: bool,
}

#[derive(Serialize)]
struct PageLine {
    kind: String,
    era: usize,
    site: usize,
    start_us: u64,
    dur_us: u64,
    events: u64,
    event_us: u64,
    kept: bool,
}

/// Span recorder: every timestamp is relative to the run's start.
struct Spans {
    t0: Instant,
    lines: Vec<String>,
}

fn micros(secs: f64) -> u64 {
    (secs * 1e6).round() as u64
}

impl Spans {
    fn offset(&self, at: Instant) -> u64 {
        micros(at.duration_since(self.t0).as_secs_f64())
    }

    fn push(&mut self, line: &impl Serialize) {
        self.lines
            .push(serde_json::to_string(line).expect("span serializes"));
    }

    /// Times `f` as the phase `name`; returns its result and seconds.
    fn phase<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        let line = PhaseLine {
            kind: "phase".into(),
            name: name.into(),
            start_us: self.offset(start),
            dur_us: micros(secs),
        };
        self.push(&line);
        (out, secs)
    }
}

/// The crawl breakdown of [`crawl_traced`], summed over every era.
#[derive(Default)]
struct Breakdown {
    webgen: Layer,
    inclusion: Layer,
    classify: Layer,
    page_reduce: Layer,
    capture: Layer,
    sites: Layer,
    fold: Layer,
    normalize: Layer,
    engine_build: Layer,
    site_ms: Vec<f64>,
    structural_events: u64,
    payload_events: u64,
    page_attempts: u64,
    pages_kept: u64,
    quarantined: u64,
    /// Seconds of the site spans that ended in quarantine.
    quarantine_s: f64,
    shadows: Shadows,
    /// Wall seconds of the whole traced study, shadows excluded.
    loop_s: f64,
}

/// The production browser of one era, over `host`.
fn era_browser<'h>(
    host: &'h dyn WebHost,
    era_web: &SyntheticWeb,
    crawl: &CrawlConfig,
) -> Browser<'h> {
    let era = &era_web.config().era;
    Browser::new(
        host,
        ExtensionHost::stock(browser_era(era)),
        BrowserConfig {
            seed: crawl.seed ^ era_web.config().seed,
            ..BrowserConfig::default()
        },
    )
}

/// An untraced serial study: what one orchestrator worker does for every
/// site of every era, plus the set-up and assembly `Study::run` does.
fn crawl_serial(config: &StudyConfig) -> Vec<CrawlReduction> {
    let web = Study::universe(config);
    let base = Study::engine_for(&web);
    let crawl = Study::crawl_config(config);
    let mut reductions = Vec::new();
    for era in config.timeline.eras() {
        let era_web = web.for_era(era.clone());
        let era_engine = config
            .timeline
            .evolves()
            .then(|| Study::engine_for(&era_web));
        let engine = era_engine.as_ref().unwrap_or(&base);
        let browser = era_browser(&era_web, &era_web, &crawl);
        let mut sink = FusedShard::new(era.label(), era.pre_patch(), engine);
        let mut acc = CrawlReduction::new(era.label(), era.pre_patch());
        for i in 0..era_web.sites().len() {
            if let Some(q) = supervise_site(&era_web, &crawl, &browser, i, &mut sink) {
                sink.site_quarantined(&q);
            }
            acc.absorb(sink.take_site_reduction());
        }
        acc.normalize();
        reductions.push(acc);
    }
    Study::assemble(&web, base, reductions).reductions
}

/// The same serial crawl with every layer traced.
fn crawl_traced(config: &StudyConfig, spans: &mut Spans) -> (Vec<CrawlReduction>, Breakdown) {
    let mut b = Breakdown::default();
    let t = Instant::now();
    let (web, _) = spans.phase("trace.universe", || Study::universe(config));
    let base = metered(&mut b.engine_build, || Study::engine_for(&web));
    let crawl = Study::crawl_config(config);
    let lib = PiiLibrary::new();
    let mut reductions = Vec::new();
    let mut shadow_s = 0.0;
    for (era_idx, era) in config.timeline.eras().iter().enumerate() {
        let era_web = web.for_era(era.clone());
        let era_engine = config
            .timeline
            .evolves()
            .then(|| metered(&mut b.engine_build, || Study::engine_for(&era_web)));
        let engine = era_engine.as_ref().unwrap_or(&base);
        let host = TimedHost {
            web: &era_web,
            layer: Cell::new(Layer::default()),
        };
        let browser = era_browser(&host, &era_web, &crawl);
        let mut sink = TimedSink::new(FusedShard::new(era.label(), era.pre_patch(), engine));
        let mut acc = CrawlReduction::new(era.label(), era.pre_patch());
        for i in 0..era_web.sites().len() {
            let (webgen0, sink0) = (host.layer.get().secs, sink.sink_secs());
            let start = Instant::now();
            let m = Meter::start();
            let quarantine = supervise_site(&era_web, &crawl, &browser, i, &mut sink);
            let cost = m.finish();
            b.sites.add(cost);
            let site_s = cost.seconds;
            metered(&mut b.fold, || {
                if let Some(q) = &quarantine {
                    sink.inner.site_quarantined(q);
                }
                acc.absorb(sink.inner.take_site_reduction());
            });
            if quarantine.is_some() {
                b.quarantined += 1;
                b.quarantine_s += site_s;
            }
            b.site_ms.push(site_s * 1e3);
            let site_line = SiteLine {
                kind: "site".into(),
                era: era_idx,
                site: i,
                start_us: spans.offset(start),
                dur_us: micros(site_s),
                webgen_us: micros(host.layer.get().secs - webgen0),
                sink_us: micros(sink.sink_secs() - sink0),
                quarantined: quarantine.is_some(),
            };
            spans.push(&site_line);
            for p in sink.pages.drain(..) {
                let page_line = PageLine {
                    kind: "page".into(),
                    era: era_idx,
                    site: i,
                    start_us: spans.offset(p.start),
                    dur_us: micros(p.dur_s),
                    events: p.events,
                    event_us: micros(p.event_s),
                    kept: p.kept,
                };
                spans.push(&page_line);
            }
            let s = Instant::now();
            b.shadows.run(&mut sink.corpus, engine, &lib);
            shadow_s += s.elapsed().as_secs_f64();
        }
        metered(&mut b.normalize, || acc.normalize());
        reductions.push(acc);
        b.webgen.absorb(host.layer.get());
        b.inclusion.absorb(sink.inclusion);
        b.classify.absorb(sink.classify);
        b.page_reduce.absorb(sink.page_reduce);
        b.capture.absorb(sink.capture);
        b.structural_events += sink.structural_events;
        b.payload_events += sink.payload_events;
        b.page_attempts += sink.page_attempts;
        b.pages_kept += sink.pages_kept;
    }
    b.loop_s = t.elapsed().as_secs_f64() - shadow_s;
    (reductions, b)
}

/// Runs the traced breakdown of `spec`'s job, writing its outputs under
/// `spec.dir`. `count_allocs(true)` and `count_allocs(false)` bracket the
/// traced crawl, so a binary can count allocations there alone: counting
/// through shared atomics would slow the untraced phases, above all the
/// two-worker crawl of `scale`.
pub fn run(spec: &JobSpec, count_allocs: &dyn Fn(bool)) -> Result<TraceRun, String> {
    reset_dir(&spec.dir)?;
    let commands = spec.commands();
    let Ok(sockscope_cli::Command::Run {
        config,
        save,
        checkpoint_dir,
        lineage_dir,
        ..
    }) = sockscope_cli::parse(&commands[0])
    else {
        return Err(format!("{:?} is not a run command", commands[0]));
    };
    let mut problems = Vec::new();
    let mut spans = Spans {
        t0: Instant::now(),
        lines: Vec::new(),
    };

    // 1. Phase spans, in the CLI's order.
    spans.phase("setup", || {
        let web = Study::universe(&config);
        std::hint::black_box(Study::engine_for(&web));
    });
    let journal_dir = checkpoint_dir.as_deref().map(Path::new);
    let (crawled, _) = spans.phase("crawl", || match journal_dir {
        Some(dir) => Study::run_checkpointed(&config, &CheckpointOptions::fresh(dir))
            .map(|(study, p)| (study, Some(p)))
            .map_err(|e| e.to_string()),
        None => Ok((Study::run(&config), None)),
    });
    let (study, provenance) = crawled?;
    let reference = study.reductions.clone();
    let segments = journal_dir.map_or(0, |d| std::fs::read_dir(d).map_or(0, |e| e.count()));
    let segment_bytes = journal_dir.map_or(0, crate::host::dir_bytes);

    let (mut report, mut report_s) = spans.phase("report", || match provenance {
        Some(p) => StudyReport::from_checkpointed(study, p),
        None => StudyReport::from_study(study),
    });
    // The CLI derives the lineage products only with --lineage-dir or an
    // evolving timeline; elsewhere the same calls run as shadows, saving
    // the lineage to a scratch directory.
    let lineage_on_path = lineage_dir.is_some() || !config.timeline.is_paper();
    let ((web, deltas), deltas_s) = spans.phase("lineage.deltas", || {
        let web = Study::universe(&config);
        let deltas = era_deltas(&report.study, &web, &config);
        (web, deltas)
    });
    if lineage_on_path {
        report.era_drift = Some(deltas);
    }
    let (snapshots, snapshots_s) = spans.phase("lineage.snapshots", || {
        era_snapshots(&web, &report.study.reductions)
    });
    let (lineage, build_s) = spans.phase("lineage.build", || SnapshotLineage::build(&snapshots));
    drop(snapshots);
    let lineage_path = lineage_dir.map_or_else(|| spec.dir.join("lineage-shadow"), PathBuf::from);
    let (saved, lineage_save_s) = spans.phase("lineage.save", || lineage.save(&lineage_path));
    saved.map_err(|e| format!("saving lineage: {e}"))?;
    let snapshot_path = save.map_or_else(|| spec.dir.join("snapshot.json"), PathBuf::from);
    let (saved, snapshot_save_s) = spans.phase("snapshot", || {
        StudySnapshot::capture(&report.study).save(&snapshot_path)
    });
    saved.map_err(|e| format!("saving snapshot: {e}"))?;
    let (text, render_s) = spans.phase("render", || report.render());
    report_s += render_s;
    drop((text, report));
    let mut recover_s = 0.0;
    if let Some(dir) = journal_dir.filter(|_| commands.len() > 1) {
        let (resumed, secs) = spans.phase("resume", || {
            Study::run_checkpointed(&config, &CheckpointOptions::resume(dir))
        });
        recover_s = secs;
        match resumed {
            Ok((study, _)) if study.reductions == reference => {}
            Ok(_) => problems.push("resumed study differs from the fresh one".to_string()),
            Err(e) => problems.push(format!("resume failed: {e}")),
        }
    }

    // 4. Exec comparison: the untraced orchestrated and serial studies,
    // alternated, each timed by its fastest repeat.
    let (mut crawl_s, mut serial_s) = (f64::INFINITY, f64::INFINITY);
    let mut differs = false;
    for _ in 0..EXEC_REPEATS {
        let (study, secs) = spans.phase("exec.orchestrated", || Study::run(&config));
        crawl_s = crawl_s.min(secs);
        let (serial, secs) = spans.phase("exec.serial", || crawl_serial(&config));
        serial_s = serial_s.min(secs);
        differs |= study.reductions != reference || serial != reference;
    }
    if differs {
        problems.push("untraced repeat crawls differ from the CLI's crawl".into());
    }

    // 2 + 3. The traced serial study, with its shadows.
    count_allocs(true);
    let (traced, b) = crawl_traced(&config, &mut spans);
    count_allocs(false);
    if traced != reference {
        problems.push("traced reductions differ from the untraced crawl".into());
    }
    if b.shadows.replay_mismatches > 0 {
        problems.push(format!(
            "{} WebSocket payloads did not replay byte-identical",
            b.shadows.replay_mismatches
        ));
    }

    let site_crawls = spec.site_crawls().max(1) as f64;
    let per_site = |allocs: u64| allocs as f64 / site_crawls;
    let share = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let sink = b.inclusion.secs + b.classify.secs + b.page_reduce.secs;
    let browser_s = b.sites.secs - b.webgen.secs - sink - b.capture.secs;
    if browser_s < 0.0 {
        problems.push(format!("browser remainder is negative: {browser_s:.6} s"));
    }
    let sink_allocs = b.inclusion.allocs + b.classify.allocs + b.page_reduce.allocs;
    let browser_allocs = b
        .sites
        .allocs
        .saturating_sub(b.webgen.allocs + sink_allocs + b.capture.allocs);
    let tail = stats::tail_percentile(b.site_ms.len()).unwrap_or(50.0);
    let metrics = vec![
        ("webgen.self_s", "s", b.webgen.secs),
        ("webgen.calls", "count", b.webgen.calls as f64),
        (
            "webgen.allocs_per_site_crawl",
            "count",
            per_site(b.webgen.allocs),
        ),
        ("browser.self_s", "s", browser_s),
        ("browser.page_visits", "count", b.page_attempts as f64),
        (
            "browser.events",
            "count",
            (b.structural_events + b.payload_events) as f64,
        ),
        (
            "browser.allocs_per_site_crawl",
            "count",
            per_site(browser_allocs),
        ),
        ("wsproto.frames", "count", b.shadows.frames as f64),
        ("wsproto.payload_bytes", "B", b.shadows.payload_bytes as f64),
        ("wsproto.replay_s", "s", b.shadows.replay.secs),
        ("inclusion.push_s", "s", b.inclusion.secs),
        ("inclusion.events", "count", b.structural_events as f64),
        (
            "inclusion.allocs_per_site_crawl",
            "count",
            per_site(b.inclusion.allocs),
        ),
        ("analysis.classify_s", "s", b.classify.secs),
        ("analysis.classify_events", "count", b.payload_events as f64),
        ("analysis.page_reduce_s", "s", b.page_reduce.secs),
        ("analysis.pages", "count", b.pages_kept as f64),
        (
            "analysis.page_reduce_allocs_per_site_crawl",
            "count",
            per_site(b.page_reduce.allocs),
        ),
        ("analysis.url_pii_shadow_s", "s", b.shadows.url_pii.secs),
        (
            "analysis.url_pii_calls",
            "count",
            b.shadows.url_pii_calls as f64,
        ),
        ("analysis.fold_s", "s", b.fold.secs),
        ("analysis.normalize_s", "s", b.normalize.secs),
        ("analysis.snapshot_save_s", "s", snapshot_save_s),
        (
            "analysis.snapshot_bytes",
            "B",
            std::fs::metadata(&snapshot_path).map_or(0, |md| md.len()) as f64,
        ),
        ("analysis.lineage_deltas_s", "s", deltas_s),
        ("analysis.lineage_snapshots_s", "s", snapshots_s),
        ("filterlist.blocks_shadow_s", "s", b.shadows.blocks.secs),
        ("filterlist.requests", "count", b.shadows.requests as f64),
        (
            "filterlist.blocked_share",
            "fraction",
            share(b.shadows.blocked, b.shadows.requests),
        ),
        (
            "filterlist.engines_built",
            "count",
            b.engine_build.calls as f64,
        ),
        ("filterlist.engine_build_s", "s", b.engine_build.secs),
        (
            "crawler.site_p50_ms",
            "ms",
            stats::percentile(&b.site_ms, 50.0).unwrap_or(0.0),
        ),
        (
            "crawler.site_tail_ms",
            "ms",
            stats::percentile(&b.site_ms, tail).unwrap_or(0.0),
        ),
        ("crawler.site_tail_pct", "%", tail),
        ("crawler.site_samples", "count", b.site_ms.len() as f64),
        ("crawler.page_attempts", "count", b.page_attempts as f64),
        ("crawler.quarantined", "count", b.quarantined as f64),
        ("crawler.quarantine_s", "s", b.quarantine_s),
        (
            "crawler.useful_share",
            "fraction",
            share(b.pages_kept, b.page_attempts),
        ),
        ("exec.crawl_s", "s", crawl_s),
        ("exec.serial_s", "s", serial_s),
        ("exec.speedup", "x", serial_s / crawl_s),
        ("core.report_s", "s", report_s),
        ("journal.delta_build_s", "s", build_s),
        ("journal.lineage_save_s", "s", lineage_save_s),
        (
            "journal.lineage_stored_bytes",
            "B",
            lineage.stored_bytes() as f64,
        ),
        (
            "journal.lineage_full_bytes",
            "B",
            lineage.full_bytes() as f64,
        ),
        ("journal.segments", "count", segments as f64),
        ("journal.segment_bytes", "B", segment_bytes as f64),
        ("journal.recover_s", "s", recover_s),
        (
            "trace.crawl_s",
            "s",
            b.webgen.secs + browser_s + sink + b.fold.secs + b.normalize.secs,
        ),
        ("trace.overhead_ratio", "x", b.loop_s / serial_s),
    ];
    Ok(TraceRun {
        metrics,
        problems,
        spans: spans.lines,
    })
}
