//! Ablation A1: the webRequest Bug with an ad blocker **in the loop**.
//!
//! The paper measures what companies did; this ablation shows what the bug
//! *enabled*, by crawling the identical pre-patch web three ways:
//!
//! 1. pre-Chrome-58 browser + blocker — the WRB is live: WebSocket requests
//!    never reach `onBeforeRequest`;
//! 2. post-Chrome-58 browser + the same blocker — the patch lets the
//!    blocker see (and cancel) sockets;
//! 3. post-Chrome-58 browser + a blocker that kept `http://*`-only URL
//!    filters — Franken et al.'s extension-side mistake: patched browser,
//!    still no socket blocking;
//! 4. pre-Chrome-58 browser + blocker + a uBO-Extra-style `WebSocket`
//!    constructor shim — the mitigation blockers actually shipped during
//!    the WRB years: most sockets become blockable again, but iframe
//!    sockets still escape the page-world wrapper.
//!
//! Company behaviour is held fixed (the pre-patch web), so any difference
//! is the interposition mechanics alone.
//!
//! Takes `sockscope run`'s study flags (default `--sites 3000`) and crawls
//! the universe and crawl config they describe; `--eras` does not apply.

use sockscope::browser::{AdBlockerExtension, BrowserEra, ExtensionHost};
use sockscope::crawler::{
    crawl_orchestrated, CrawlConfig, OrchestratorConfig, RecordSink, SiteRecord,
};
use sockscope::filterlist::Engine;
use sockscope::inclusion::NodeKind;
use sockscope::webgen::SyntheticWeb;
use sockscope::Study;

const USAGE: &str = "ablation_wrb [--sites N] [--seed HEX] [--threads N] [--workers N] \
                     [--queue-depth N] [--faults PROFILE]";

#[derive(Default)]
struct Outcome {
    sockets_opened: usize,
    sockets_blocked: usize,
    http_blocked: usize,
}

impl Outcome {
    fn observe(&mut self, record: SiteRecord) {
        for tree in &record.trees {
            for node in tree.nodes() {
                match node.kind {
                    NodeKind::WebSocket => self.sockets_opened += 1,
                    NodeKind::Blocked => {
                        if node.url.starts_with("ws://") || node.url.starts_with("wss://") {
                            self.sockets_blocked += 1;
                        } else {
                            self.http_blocked += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

fn run(
    web: &SyntheticWeb,
    crawl_config: &CrawlConfig,
    orch: &OrchestratorConfig,
    era: BrowserEra,
    legacy_filters: bool,
    shim: bool,
) -> Outcome {
    // The blocker gets extra socket-aware rules for the A&A endpoints —
    // the uBO-mitigation-era configuration.
    let mut list = web.easylist();
    list.push_str(&web.easyprivacy());
    for company in web.catalog().all().iter().filter(|c| c.aa_listed) {
        list.push_str(&format!("||{}^$websocket\n", company.domain));
        // Cloudfront-hosted endpoints need host rules.
        if company.ws_host.contains("cloudfront") {
            list.push_str(&format!("||{}^$websocket\n", company.ws_host));
        }
    }
    crawl_orchestrated(
        web,
        crawl_config,
        orch,
        &|| {
            let (engine, _) = Engine::parse(&list);
            let mut blocker = AdBlockerExtension::new("abp", engine);
            if legacy_filters {
                blocker = blocker.with_legacy_filters();
            }
            let mut host = ExtensionHost::stock(era).install(blocker);
            if shim {
                host = host.with_ws_shim();
            }
            host
        },
        &RecordSink::default,
        &|sink: &mut RecordSink| sink.take_record().expect("one record per site"),
        &Outcome::default,
        &|outcome: &mut Outcome, record| outcome.observe(record),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = sockscope_bench::study_config_or_exit(&args, 3_000, USAGE);
    if !config.timeline.is_paper() {
        sockscope_bench::usage_error(
            "the WRB ablation crawls one fixed pre-patch era; --eras does not apply",
            USAGE,
        );
    }
    let crawl_config = Study::crawl_config(&config);
    let orch = Study::orchestrator_config(&config);
    eprintln!(
        "[sockscope] WRB ablation: {} sites, {} workers",
        config.n_sites, orch.workers
    );
    // Fixed pre-patch web: DoubleClick & friends are still opening sockets.
    let web = Study::universe(&config);
    let run =
        |era, legacy_filters, shim| run(&web, &crawl_config, &orch, era, legacy_filters, shim);

    let wrb = run(BrowserEra::PreChrome58, false, false);
    let patched = run(BrowserEra::PostChrome58, false, false);
    let legacy = run(BrowserEra::PostChrome58, true, false);
    let shimmed = run(BrowserEra::PreChrome58, false, true);

    println!("WRB ablation (identical pre-patch web, ad blocker installed)\n");
    println!(
        "{:<46} {:>10} {:>12} {:>12}",
        "configuration", "WS opened", "WS blocked", "HTTP blocked"
    );
    println!(
        "{:<46} {:>10} {:>12} {:>12}",
        "Chrome <58 (WRB live)", wrb.sockets_opened, wrb.sockets_blocked, wrb.http_blocked
    );
    println!(
        "{:<46} {:>10} {:>12} {:>12}",
        "Chrome 58+ (patched)",
        patched.sockets_opened,
        patched.sockets_blocked,
        patched.http_blocked
    );
    println!(
        "{:<46} {:>10} {:>12} {:>12}",
        "Chrome 58+ but http://*-only extension filters",
        legacy.sockets_opened,
        legacy.sockets_blocked,
        legacy.http_blocked
    );
    println!(
        "{:<46} {:>10} {:>12} {:>12}",
        "Chrome <58 + uBO-Extra-style constructor shim",
        shimmed.sockets_opened,
        shimmed.sockets_blocked,
        shimmed.http_blocked
    );
    println!();
    println!(
        "WRB effect: {} sockets slipped past the blocker that the patched \
         browser intercepts ({} -> {}).",
        wrb.sockets_opened.saturating_sub(patched.sockets_opened),
        wrb.sockets_opened,
        patched.sockets_opened
    );
    assert!(wrb.sockets_blocked == 0, "pre-58 must never block a socket");
    assert!(
        patched.sockets_blocked > 0,
        "patched browser must block A&A sockets"
    );
    assert!(
        legacy.sockets_blocked == 0,
        "legacy filters must not block sockets even when patched"
    );
    // The shim recovers most — but not all — of the patched behaviour.
    assert!(
        shimmed.sockets_blocked > 0,
        "shim must block main-frame sockets"
    );
    assert!(
        shimmed.sockets_opened >= patched.sockets_opened,
        "shim cannot beat the real patch"
    );
    println!(
        "uBO-Extra-style shim recovers {} of the {} sockets the patch blocks; \
         the remainder open inside ad iframes, beyond the page-world wrapper.",
        shimmed.sockets_blocked, patched.sockets_blocked
    );
    assert!(
        shimmed.sockets_opened > patched.sockets_opened,
        "iframe sockets must escape the shim"
    );
}
