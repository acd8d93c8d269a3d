//! Perf bench P6: the two matcher hot paths against their retained
//! reference engines, on a seeded corpus.
//!
//! * `pii_classify` — `RegexSet` classification (each pattern's prefilter,
//!   then its lazy DFA) vs the per-regex Pike-VM scan over the same
//!   14-pattern library.
//! * `filter_decide` — token-indexed candidate evaluation vs the linear
//!   every-generic-rule scan over the generated EasyList/EasyPrivacy.
//!
//! Both pairs are decision-identical (enforced by differential tests);
//! these benches measure only the speed gap the indexes buy.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use sockscope_analysis::PiiLibrary;
use sockscope_filterlist::{Engine, RequestContext, ResourceType};
use sockscope_urlkit::Url;
use sockscope_webgen::Catalog;
use sockscope_webmodel::{SentItem, ValueContext};

/// Deterministic message corpus: rendered tracking payloads (hits),
/// handshakes, and payload-free chatter (misses — the common case the
/// prefilters are for).
fn message_corpus() -> Vec<String> {
    let mut corpus = Vec::new();
    let subsets: &[&[SentItem]] = &[
        &[SentItem::UserAgent, SentItem::Cookie],
        &[SentItem::Screen, SentItem::Viewport, SentItem::Language],
        &[SentItem::UserId, SentItem::Ip, SentItem::FirstSeen],
        &[SentItem::Device, SentItem::Browser, SentItem::Orientation],
        &[SentItem::Resolution, SentItem::ScrollPosition],
    ];
    for (i, items) in subsets.iter().enumerate() {
        let ctx = ValueContext::deterministic(0xC0FFEE + i as u64);
        let payload = ctx.render_sent(items);
        corpus.push(String::from_utf8_lossy(payload.as_bytes()).into_owned());
    }
    corpus.push(
        "GET /socket HTTP/1.1\r\nHost: ws.zopim.com\r\nUser-Agent: Mozilla/5.0 (X11) \
         Chrome/57.0\r\nCookie: uid=42; _ga=GA1.2.3.4\r\n\r\n"
            .to_string(),
    );
    // Misses: realtime chatter with no tracking payload.
    for i in 0..64u32 {
        corpus.push(format!(
            "{{\"op\":\"tick\",\"seq\":{i},\"score\":[{},{}],\"msg\":\"goal by player {}\"}}",
            i * 7 % 13,
            i * 11 % 17,
            i % 23
        ));
        corpus.push(format!(
            "ping {i} keepalive session={:08x}",
            i * 0x9E3779B9u32
        ));
    }
    corpus
}

/// Deterministic request corpus over the generated lists: a hit-light,
/// miss-heavy mix like a real crawl's.
fn request_corpus() -> Vec<(Url, Url, ResourceType)> {
    let mut corpus = Vec::new();
    for site in 0..16u32 {
        let page = Url::parse(&format!("http://news-site-{site:06}.example/")).unwrap();
        for path in 0..4u32 {
            corpus.push((
                page.clone(),
                Url::parse(&format!(
                    "http://www.news-site-{site:06}.example/assets/app-{path}.js"
                ))
                .unwrap(),
                ResourceType::Script,
            ));
            corpus.push((
                page.clone(),
                Url::parse(&format!(
                    "http://img.news-site-{site:06}.example/photo-{path}.jpg?w=640&c={site}"
                ))
                .unwrap(),
                ResourceType::Image,
            ));
        }
        corpus.push((
            page.clone(),
            Url::parse("https://stats.g.doubleclick.net/pixel0.gif?cookie=uid%3D1").unwrap(),
            ResourceType::Image,
        ));
        corpus.push((
            page.clone(),
            Url::parse("https://v2.zopim.com/collect/beacon.gif").unwrap(),
            ResourceType::Image,
        ));
    }
    corpus
}

fn bench_pii_classify(c: &mut Criterion) {
    let lib = PiiLibrary::new();
    let corpus = message_corpus();
    // Warm the library's caches once so both paths race from steady state.
    for msg in &corpus {
        black_box(lib.classify_sent_text(msg));
        black_box(lib.classify_sent_text_reference(msg));
    }
    let mut group = c.benchmark_group("pii_classify");
    group.throughput(Throughput::Elements(corpus.len() as u64));
    group.bench_function("set", |b| {
        b.iter(|| {
            let mut items = 0usize;
            for msg in &corpus {
                items += lib.classify_sent_text(msg).len();
            }
            items
        })
    });
    group.bench_function("per_regex", |b| {
        b.iter(|| {
            let mut items = 0usize;
            for msg in &corpus {
                items += lib.classify_sent_text_reference(msg).len();
            }
            items
        })
    });
    group.finish();
}

fn bench_filter_decide(c: &mut Criterion) {
    let catalog = Catalog::build();
    let (engine, errs) = Engine::parse_many(&[
        &sockscope_webgen::lists::easylist(&catalog),
        &sockscope_webgen::lists::easyprivacy(&catalog),
    ]);
    assert!(errs.is_empty());
    let corpus = request_corpus();
    let mut group = c.benchmark_group("filter_decide");
    group.throughput(Throughput::Elements(corpus.len() as u64));
    group.bench_function("tokenized", |b| {
        b.iter(|| {
            let mut blocked = 0usize;
            for (page, url, resource_type) in &corpus {
                let ctx = RequestContext {
                    url,
                    page,
                    resource_type: *resource_type,
                };
                blocked += engine.evaluate(&ctx).is_blocked() as usize;
            }
            blocked
        })
    });
    group.bench_function("linear", |b| {
        b.iter(|| {
            let mut blocked = 0usize;
            for (page, url, resource_type) in &corpus {
                let ctx = RequestContext {
                    url,
                    page,
                    resource_type: *resource_type,
                };
                blocked += engine.evaluate_reference(&ctx).is_blocked() as usize;
            }
            blocked
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pii_classify, bench_filter_decide);
criterion_main!(benches);
