//! End-to-end pipeline perf harness → `BENCH_pipeline.json`.
//!
//! Runs the study pipeline stage by stage — universe generation, filter
//! parsing, and the orchestrated **stream-fused** crawl+classify pipeline
//! [`Study::crawl_era`] drives for every era of [`Study::run`] — timing
//! each separately and, via a counting global allocator, recording each
//! stage's **peak live bytes** (net of what was already live when the
//! stage began) and **total allocations**. Whether those reductions are
//! right is the identity suites' question (`orchestrator_identity`,
//! `stream_identity`, the pinned crc); this harness only measures them.
//! It then races the supervised crawl against the unsupervised one on a
//! clean era and counts the quarantines of a poisoned probe era. The
//! optimised matchers are raced against their reference engines by
//! `tests/snapshot_regression.rs`, not here; end-to-end throughput per
//! workload is `sockbench`'s.
//!
//! Two rows too expensive to re-run on every regeneration are written by
//! their own modes and carried forward: `--headline` (one era at the
//! 1M-site scale) and `--longitudinal` (the 50-era snapshot lineage).
//! Scale comes from `sockscope run`'s study flags: `perf --sites 2000`.
//!
//! `perf --check [path]` re-reads a written report and validates the
//! schema: every key present, every timing positive, the memory counters
//! nonzero where the pipeline allocates, the supervision overhead in its
//! sanity band, and the orchestrated allocations per site under a
//! ceiling. CI's perf-smoke job checks the committed report, then runs
//! `perf --sites 2000` and checks the fresh one.

use serde::{Deserialize, Serialize};
use sockscope::webgen::CrawlEra;
use sockscope::{Study, StudyConfig};
use sockscope_exec::memmeter::{CountingAlloc, Meter, StageStats};
use std::time::Instant;

// The counting allocator lives in `sockscope_exec::memmeter` (shared with
// the bounded-memory regression tests); each binary installs its own copy.
#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Serializable mirror of [`StageStats`], accumulated across the four eras
/// of one logical stage.
#[derive(Debug, Default, Serialize, Deserialize)]
struct StageReport {
    seconds: f64,
    /// Net peak live bytes: the stage's own high-water mark.
    peak_bytes: u64,
    alloc_count: u64,
    /// Cumulative bytes allocated during the stage — churn, not the peak.
    total_bytes: u64,
    /// Schema /5 derived column: `alloc_count / sites`. The arena work is
    /// judged on this number, so the report carries it precomputed.
    allocs_per_site: f64,
    /// Schema /5 derived column: `total_bytes / sites`.
    bytes_allocd_per_site: f64,
}

impl StageReport {
    fn absorb(&mut self, other: StageStats) {
        self.seconds += other.seconds;
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
        self.alloc_count += other.alloc_count;
        self.total_bytes += other.total_bytes;
    }

    fn from_stats(stats: StageStats) -> StageReport {
        let mut out = StageReport::default();
        out.absorb(stats);
        out
    }

    /// Fills the per-site derived columns once the universe size is known.
    fn derive(&mut self, sites: usize) {
        let n = (sites as f64).max(1.0);
        self.allocs_per_site = self.alloc_count as f64 / n;
        self.bytes_allocd_per_site = self.total_bytes as f64 / n;
    }
}

// ---------------------------------------------------------------------------
// report schema
// ---------------------------------------------------------------------------

const SCHEMA: &str = "sockscope-bench-pipeline/9";
const DEFAULT_PATH: &str = "BENCH_pipeline.json";

/// Allocation-regression gate (`perf --check`): the orchestrated
/// pipeline must not exceed this many allocations per site across the
/// four eras. Measured at 3,646/site (2,000 sites) and 3,643/site (8,000
/// sites) on two workers, and 3,689/site (2,000 sites) on four; the
/// ceiling sits 15% above the highest reading (the pre-arena baseline
/// was ~49.5k/site).
const ORCHESTRATED_ALLOCS_PER_SITE_CEILING: f64 = 4_250.0;

#[derive(Debug, Serialize, Deserialize)]
struct BenchReport {
    schema: String,
    sites: usize,
    threads: usize,
    seed_hex: String,
    stages: Stages,
    orchestrator: OrchestratorReport,
    supervision: Supervision,
    /// Schema /6: the longitudinal lineage row, filled in by
    /// `perf --longitudinal` (all-zero until that runs; carried forward
    /// across regenerations like the headline row).
    longitudinal: Longitudinal,
}

/// Schema /6: delta-compressed snapshot lineage economics, measured over
/// an N-era synthetic timeline (`--eras`, default 50 for the committed
/// artifact). Era *k*'s cumulative study snapshot is stored as
/// a structural delta against era *k−1*'s; `delta_bytes` is what the
/// lineage stores (full base + every patch), `full_bytes` what full
/// per-era snapshots would cost.
#[derive(Debug, Default, Serialize, Deserialize)]
struct Longitudinal {
    /// Timeline length (0 = the longitudinal run has not happened).
    eras: usize,
    /// Universe size each era crawled.
    sites_per_era: usize,
    /// Bytes stored by the delta lineage (base + patches).
    delta_bytes: u64,
    /// Bytes full per-era snapshots would store.
    full_bytes: u64,
    /// `full_bytes / delta_bytes`.
    compression_ratio: f64,
    /// Seconds spent encoding the delta chain (excludes the crawl and
    /// snapshot serialization).
    diff_seconds: f64,
    /// Every era reconstructed byte-identically from the delta chain
    /// during measurement. `--check` fails the artifact if this is false.
    reconstruction_identical: bool,
}

/// Schema /4: the supervised-execution section. A poisoned probe era
/// measures quarantine accounting; a clean era-0 A/B race measures what
/// the supervisor costs when nothing goes wrong. The acceptance bar for
/// the committed artifact is `overhead_ratio` < 1.20 — re-baselined
/// 2026-08-08 from the original <1.02: the arena hot path's task-scoped
/// allocation metering (the mark/charge pair the budget guard needs) is
/// paid only on the supervised side. The committed artifact measures
/// 1.02x best-of-3; loaded hosts have measured as high as 1.13x.
#[derive(Debug, Serialize, Deserialize)]
struct Supervision {
    /// Sites in the poisoned probe era.
    probe_sites: usize,
    /// Sites the supervisor quarantined in the probe, total and by reason.
    quarantined_total: u64,
    quarantined_panic: u64,
    quarantined_deadline: u64,
    quarantined_budget: u64,
    /// Wall seconds of the clean era-0 crawl with supervision on.
    supervised_seconds: f64,
    /// Wall seconds of the same crawl with supervision off.
    unsupervised_seconds: f64,
    /// `supervised_seconds / unsupervised_seconds`.
    overhead_ratio: f64,
}

/// Wall time + allocator counters of each pipeline stage.
#[derive(Debug, Serialize, Deserialize)]
struct Stages {
    universe: StageReport,
    filters: StageReport,
    /// The crawl driver: the ordered-ticket pipelined orchestrator over
    /// the stream-fused crawl+classify+reduce pipeline.
    orchestrated_pipeline: StageReport,
}

/// The orchestrator's scheduling knobs and the large-scale headline row
/// (filled in by `perf --headline`; all-zero means the headline run has
/// not happened).
#[derive(Debug, Serialize, Deserialize)]
struct OrchestratorReport {
    /// Crawl workers the orchestrated stage ran with.
    workers: usize,
    /// Backpressure depth: in-flight cap = `workers + queue_depth`.
    queue_depth: usize,
    /// Universe size of the headline run (0 = not run).
    headline_sites: usize,
    /// Wall seconds of the headline single-era orchestrated crawl.
    headline_seconds: f64,
    /// Net peak live bytes during the headline crawl — the bounded-memory
    /// claim at scale.
    headline_peak_bytes: u64,
    /// `headline_sites / headline_seconds`.
    headline_sites_per_s: f64,
    /// Crawl workers the headline run itself used (schema /5). The
    /// headline runs under its own flags, so the differential row's
    /// `workers` says nothing about it; 0 means the headline predates
    /// this field and its worker count is unrecorded.
    headline_workers: usize,
}

const USAGE: &str = "perf [study flags] | perf --headline [path] [study flags] | \
                     perf --longitudinal [path] [study flags] | perf --check [path]\n\
                     study flags are `sockscope run`'s: --sites N --seed HEX --threads N \
                     --workers N --queue-depth N --faults PROFILE (--eras N: --longitudinal only)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(mode @ ("--check" | "--headline" | "--longitudinal")) => (Some(mode), &args[1..]),
        _ => (None, &args[..]),
    };
    // The modes that patch or read a report take its path first.
    let (path, flags) = match rest.first() {
        Some(path) if mode.is_some() && !path.starts_with("--") => (path.as_str(), &rest[1..]),
        _ => (DEFAULT_PATH, rest),
    };
    if mode == Some("--check") {
        if let Some(extra) = flags.first() {
            sockscope_bench::usage_error(format!("--check takes no flags, got {extra}"), USAGE);
        }
        check(path);
        return;
    }
    let config = sockscope_bench::study_config_or_exit(flags, 8_000, USAGE);
    if mode != Some("--longitudinal") && !config.timeline.is_paper() {
        sockscope_bench::usage_error(
            "perf measures the paper schedule; --eras applies to --longitudinal only",
            USAGE,
        );
    }
    match mode {
        Some("--headline") => headline(path, &config),
        Some(_) => longitudinal(path, config),
        None => run(&config),
    }
}

fn run(config: &StudyConfig) {
    eprintln!(
        "[sockscope] perf harness: {} sites x 4 crawls, {} threads, seed {:#x}",
        config.n_sites, config.threads, config.seed
    );

    let m = Meter::start();
    let web = Study::universe(config);
    let universe = m.finish();

    let m = Meter::start();
    let engine = Study::engine_for(&web);
    let filters = m.finish();

    let crawl_config = Study::crawl_config(config);
    let orch = Study::orchestrator_config(config);

    // The orchestrated pipeline first, while nothing but the universe and
    // the engine is live: this is what `Study::run` executes per era.
    let mut orchestrated_pipeline = StageReport::default();
    for era in CrawlEra::ALL {
        let era_web = web.for_era(era);
        let m = Meter::start();
        let reduction = Study::crawl_era(&era_web, &engine, &crawl_config, &orch);
        orchestrated_pipeline.absorb(m.finish());
        drop(reduction);
    }
    eprintln!(
        "[sockscope] orchestrated pipeline ({} workers, queue {}): {:.1}s, peak {:.1} MiB",
        orch.workers,
        orch.queue_depth,
        orchestrated_pipeline.seconds,
        orchestrated_pipeline.peak_bytes as f64 / (1024.0 * 1024.0)
    );

    let supervision = measure_supervision(&web, &engine, &crawl_config, &orch);

    let mut stages = Stages {
        universe: StageReport::from_stats(universe),
        filters: StageReport::from_stats(filters),
        orchestrated_pipeline,
    };
    for stage in [
        &mut stages.universe,
        &mut stages.filters,
        &mut stages.orchestrated_pipeline,
    ] {
        stage.derive(config.n_sites);
    }
    eprintln!(
        "[sockscope] orchestrated pipeline allocation pressure: {:.0} allocs/site, {:.0} B/site",
        stages.orchestrated_pipeline.allocs_per_site,
        stages.orchestrated_pipeline.bytes_allocd_per_site
    );
    let mut report = BenchReport {
        schema: SCHEMA.to_string(),
        sites: config.n_sites,
        threads: config.threads,
        seed_hex: format!("{:#x}", config.seed),
        stages,
        orchestrator: OrchestratorReport {
            workers: orch.workers,
            queue_depth: orch.queue_depth,
            headline_sites: 0,
            headline_seconds: 0.0,
            headline_peak_bytes: 0,
            headline_sites_per_s: 0.0,
            headline_workers: 0,
        },
        supervision,
        longitudinal: Longitudinal::default(),
    };
    carry_headline(&mut report);
    carry_longitudinal(&mut report);

    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(DEFAULT_PATH, &json).expect("write BENCH_pipeline.json");
    eprintln!("[sockscope] wrote {DEFAULT_PATH}");
    println!("{json}");
}

/// Measures the supervised-execution section: a clean era-0 A/B race
/// (supervisor on vs off — decision-identical by construction, so the
/// race also re-proves the bytes) and a poisoned probe era whose
/// quarantine table yields the per-reason counts.
fn measure_supervision(
    web: &sockscope::webgen::SyntheticWeb,
    engine: &sockscope::filterlist::Engine,
    crawl_config: &sockscope::crawler::CrawlConfig,
    orch: &sockscope::crawler::OrchestratorConfig,
) -> Supervision {
    let era_web = web.for_era(CrawlEra::ALL[0]);
    let race = |supervised: bool| {
        let orch = sockscope::crawler::OrchestratorConfig {
            supervised,
            ..orch.clone()
        };
        let t = Instant::now();
        let reduction = Study::crawl_era(&era_web, engine, crawl_config, &orch);
        (t.elapsed().as_secs_f64(), reduction)
    };
    // Interleaved best-of-N: a single A/B pair at this duration carries
    // ~10% run-to-run noise, which would swamp the overhead bar. The
    // minimum of interleaved repeats is the standard unbiased estimator
    // for a deterministic workload's true cost.
    let (mut supervised_seconds, supervised_red) = race(true);
    let (mut unsupervised_seconds, unsupervised_red) = race(false);
    assert_eq!(
        supervised_red, unsupervised_red,
        "supervision changed a clean run's bytes"
    );
    for _ in 0..2 {
        supervised_seconds = supervised_seconds.min(race(true).0);
        unsupervised_seconds = unsupervised_seconds.min(race(false).0);
    }
    let overhead_ratio = supervised_seconds / unsupervised_seconds.max(1e-9);
    eprintln!(
        "[sockscope] supervision overhead (clean era 0): {supervised_seconds:.2}s supervised vs \
         {unsupervised_seconds:.2}s unsupervised ({overhead_ratio:.3}x)"
    );

    // Poisoned probe: same universe, era 1, hazard-only profile. The
    // supervisor must complete the era and account every poisoned site.
    let probe_web = web.for_era(CrawlEra::ALL[1]);
    let probe_config = sockscope::crawler::CrawlConfig {
        faults: Some(sockscope::faults::FaultProfile::poison()),
        ..crawl_config.clone()
    };
    let probe = Study::crawl_era(&probe_web, engine, &probe_config, orch);
    let (mut q_panic, mut q_deadline, mut q_budget) = (0u64, 0u64, 0u64);
    if let Some(q) = &probe.quarantine {
        for (reason, n) in q.reason_counts() {
            match reason {
                "panic" => q_panic = n,
                "deadline" => q_deadline = n,
                "budget" => q_budget = n,
                other => panic!("unknown quarantine reason {other:?}"),
            }
        }
    }
    let quarantined_total = q_panic + q_deadline + q_budget;
    eprintln!(
        "[sockscope] supervision probe: {}/{} sites quarantined \
         (panic {q_panic}, deadline {q_deadline}, budget {q_budget})",
        quarantined_total,
        probe_web.sites().len()
    );
    Supervision {
        probe_sites: probe_web.sites().len(),
        quarantined_total,
        quarantined_panic: q_panic,
        quarantined_deadline: q_deadline,
        quarantined_budget: q_budget,
        supervised_seconds,
        unsupervised_seconds,
        overhead_ratio,
    }
}

/// Carries the headline row of an existing `BENCH_pipeline.json` into a
/// freshly measured report: the headline runs at a scale (the README
/// quotes `--sites 1000000`) nobody re-runs for a schema bump.
///
/// Fields are read one by one rather than through
/// `OrchestratorReport::from_value` so the carry survives schema bumps in
/// either direction — an older artifact that predates `headline_workers`
/// (added in /5) still carries, with the unknown worker count recorded
/// honestly as 0 rather than borrowed from the differential row.
fn carry_headline(report: &mut BenchReport) {
    let Ok(old) = std::fs::read_to_string(DEFAULT_PATH) else {
        return;
    };
    let Ok(value) = serde_json::from_str::<serde::Value>(&old) else {
        return;
    };
    let Some(orch) = value.get("orchestrator") else {
        return;
    };
    let get_u64 = |key: &str| orch.get(key).and_then(serde::Value::as_u64);
    let get_f64 = |key: &str| orch.get(key).and_then(serde::Value::as_f64);
    let (Some(sites), Some(seconds), Some(peak), Some(rate)) = (
        get_u64("headline_sites"),
        get_f64("headline_seconds"),
        get_u64("headline_peak_bytes"),
        get_f64("headline_sites_per_s"),
    ) else {
        return;
    };
    if sites > 0 {
        eprintln!("[sockscope] carrying headline row forward: {sites} sites, {seconds:.1}s");
        report.orchestrator.headline_sites = sites as usize;
        report.orchestrator.headline_seconds = seconds;
        report.orchestrator.headline_peak_bytes = peak;
        report.orchestrator.headline_sites_per_s = rate;
        report.orchestrator.headline_workers = get_u64("headline_workers").unwrap_or(0) as usize;
    }
}

/// Carries the longitudinal row forward across regenerations, exactly
/// like the headline row: the committed 50-era × 10K-site measurement is
/// too expensive to re-run for a differential refresh.
fn carry_longitudinal(report: &mut BenchReport) {
    let Ok(old) = std::fs::read_to_string(DEFAULT_PATH) else {
        return;
    };
    let Ok(value) = serde_json::from_str::<serde::Value>(&old) else {
        return;
    };
    let Some(lon) = value.get("longitudinal") else {
        return;
    };
    // Field-by-field (as for the headline row) so the carry survives
    // future schema bumps in either direction.
    let get_u64 = |key: &str| lon.get(key).and_then(serde::Value::as_u64);
    let (Some(eras), Some(sites), Some(delta), Some(full)) = (
        get_u64("eras"),
        get_u64("sites_per_era"),
        get_u64("delta_bytes"),
        get_u64("full_bytes"),
    ) else {
        return;
    };
    if eras > 0 {
        eprintln!("[sockscope] carrying longitudinal row forward: {eras} eras x {sites} sites");
        report.longitudinal = Longitudinal {
            eras: eras as usize,
            sites_per_era: sites as usize,
            delta_bytes: delta,
            full_bytes: full,
            compression_ratio: lon
                .get("compression_ratio")
                .and_then(serde::Value::as_f64)
                .unwrap_or(0.0),
            diff_seconds: lon
                .get("diff_seconds")
                .and_then(serde::Value::as_f64)
                .unwrap_or(0.0),
            reconstruction_identical: lon
                .get("reconstruction_identical")
                .and_then(serde::Value::as_bool)
                .unwrap_or(false),
        };
    }
}

/// Runs the longitudinal lineage row — an N-era synthetic-timeline study
/// (`--eras`, default 50) whose cumulative per-era snapshots are
/// delta-compressed into a lineage — and patches the result into an
/// existing report at `path`. Kept separate from `run()` (like
/// `--headline`) because N crawls dwarf the differential scale.
///
/// Snapshots are produced and diffed one era at a time so peak memory
/// holds two adjacent cumulative snapshots, never the whole lineage
/// uncompressed.
fn longitudinal(path: &str, mut config: StudyConfig) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("perf --longitudinal: cannot read {path} (run `perf` first): {e}")
    });
    let mut report: BenchReport = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("perf --longitudinal: {path} does not match the schema: {e:?}"));

    if config.timeline.is_paper() {
        let n = 50;
        config.timeline =
            sockscope::webgen::EraTimeline::synthetic(n, config.seed ^ 0x0E5A_51DE, n / 2);
    }
    let eras = config.timeline.len();
    eprintln!(
        "[sockscope] longitudinal: {} sites x {} eras, {} threads, seed {:#x}",
        config.n_sites, eras, config.threads, config.seed
    );

    let study = Study::run(&config);
    let web = Study::universe(&config);
    eprintln!("[sockscope] longitudinal crawl done; deriving snapshot lineage");

    let mut delta_bytes = 0u64;
    let mut full_bytes = 0u64;
    let mut diff_seconds = 0.0f64;
    let mut reconstruction_identical = true;
    let mut prev: Option<Vec<u8>> = None;
    for k in 0..study.reductions.len() {
        let snapshot = {
            let prefix = Study::assemble(
                &web,
                sockscope::filterlist::Engine::default(),
                study.reductions[..=k].to_vec(),
            );
            sockscope::analysis::StudySnapshot::capture(&prefix)
                .to_json()
                .into_bytes()
        };
        full_bytes += snapshot.len() as u64;
        match &prev {
            None => delta_bytes += snapshot.len() as u64,
            Some(p) => {
                let t = Instant::now();
                let patch = sockscope_journal::delta::encode(p, &snapshot);
                diff_seconds += t.elapsed().as_secs_f64();
                delta_bytes += patch.len() as u64;
                let rebuilt = sockscope_journal::delta::apply(p, &patch);
                reconstruction_identical &= rebuilt.is_ok_and(|r| r == snapshot);
            }
        }
        prev = Some(snapshot);
    }
    let compression_ratio = full_bytes as f64 / (delta_bytes as f64).max(1.0);
    assert!(
        reconstruction_identical,
        "delta lineage failed byte-identical reconstruction"
    );

    report.longitudinal = Longitudinal {
        eras,
        sites_per_era: config.n_sites,
        delta_bytes,
        full_bytes,
        compression_ratio,
        diff_seconds,
        reconstruction_identical,
    };

    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(path, &json).expect("rewrite report");
    eprintln!(
        "[sockscope] longitudinal: {eras} eras, {delta_bytes} delta bytes vs {full_bytes} full \
         ({compression_ratio:.1}x), diff {diff_seconds:.2}s"
    );
    eprintln!("[sockscope] updated {path}");
}

/// Runs the large-scale headline row — a single-era orchestrated crawl at
/// `--sites` scale (the README quotes `perf --headline --sites 1000000`) —
/// and patches the result into an existing report at `path`. Kept separate
/// from `run()` because the headline scale is orders of magnitude above
/// the differential scale and only exercises the one pipeline
/// whose memory stays bounded at that size.
fn headline(path: &str, config: &StudyConfig) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("perf --headline: cannot read {path} (run `perf` first): {e}"));
    let mut report: BenchReport = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("perf --headline: {path} does not match the schema: {e:?}"));

    let orch = Study::orchestrator_config(config);
    eprintln!(
        "[sockscope] headline: {} sites x 1 era, {} workers, queue {}, seed {:#x}",
        config.n_sites, orch.workers, orch.queue_depth, config.seed
    );

    let web = Study::universe(config);
    let engine = Study::engine_for(&web);
    let crawl_config = Study::crawl_config(config);
    let era_web = web.for_era(CrawlEra::ALL[0]);

    let m = Meter::start();
    let reduction = Study::crawl_era(&era_web, &engine, &crawl_config, &orch);
    let stats = m.finish();
    assert_eq!(
        reduction.sites.len(),
        config.n_sites,
        "headline crawl lost sites"
    );

    report.orchestrator.headline_sites = config.n_sites;
    report.orchestrator.headline_seconds = stats.seconds;
    report.orchestrator.headline_peak_bytes = stats.peak_bytes;
    report.orchestrator.headline_sites_per_s = config.n_sites as f64 / stats.seconds.max(1e-9);
    // Record the workers THIS run used: the headline runs under its own
    // flags, and the differential row's `workers` must not be
    // mistaken for it.
    report.orchestrator.headline_workers = orch.workers;

    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(path, &json).expect("rewrite report");
    eprintln!(
        "[sockscope] headline: {} sites in {:.1}s ({:.0} sites/s), peak {:.1} MiB",
        config.n_sites,
        stats.seconds,
        report.orchestrator.headline_sites_per_s,
        stats.peak_bytes as f64 / (1024.0 * 1024.0)
    );
    eprintln!("[sockscope] updated {path}");
}

/// Validates a previously written report: parse (which checks every key is
/// present with the right type), then sanity-check the numbers.
fn check(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("perf --check: cannot read {path}: {e}"));
    let report: BenchReport = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("perf --check: {path} does not match the schema: {e:?}"));
    validate(&report);
    println!("perf --check: {path} OK");
}

/// The numeric half of `--check`: panics on the first violated bound.
fn validate(report: &BenchReport) {
    assert_eq!(report.schema, SCHEMA, "schema tag mismatch");
    assert!(report.sites > 0, "sites must be positive");
    let stages = [
        ("universe", &report.stages.universe),
        ("filters", &report.stages.filters),
        (
            "orchestrated_pipeline",
            &report.stages.orchestrated_pipeline,
        ),
    ];
    for (name, s) in stages {
        assert!(
            s.seconds.is_finite() && s.seconds > 0.0,
            "{name}.seconds must be positive, got {}",
            s.seconds
        );
        assert!(s.alloc_count > 0, "{name}.alloc_count must be nonzero");
        assert!(s.peak_bytes > 0, "{name}.peak_bytes must be nonzero");
        assert!(s.total_bytes > 0, "{name}.total_bytes must be nonzero");
        // Derived columns must agree with their inputs (schema /5).
        let allocs = s.alloc_count as f64 / report.sites as f64;
        let bytes = s.total_bytes as f64 / report.sites as f64;
        assert!(
            (s.allocs_per_site - allocs).abs() < 1.0,
            "{name}.allocs_per_site inconsistent: {} vs {allocs}",
            s.allocs_per_site
        );
        assert!(
            (s.bytes_allocd_per_site - bytes).abs() < 1.0,
            "{name}.bytes_allocd_per_site inconsistent: {} vs {bytes}",
            s.bytes_allocd_per_site
        );
    }
    // Allocation-regression gate: fail loudly if the crawl pipeline's
    // allocations per site creep back up.
    assert!(
        report.stages.orchestrated_pipeline.allocs_per_site <= ORCHESTRATED_ALLOCS_PER_SITE_CEILING,
        "orchestrated_pipeline allocation regression: {:.0} allocs/site exceeds the {} ceiling",
        report.stages.orchestrated_pipeline.allocs_per_site,
        ORCHESTRATED_ALLOCS_PER_SITE_CEILING
    );
    assert!(
        report.orchestrator.workers >= 1,
        "orchestrator ran with no workers"
    );
    assert!(
        report.orchestrator.queue_depth >= 1,
        "orchestrator queue cannot be unbuffered"
    );
    // Supervision section (schema /4). The overhead bound here is a loose
    // sanity band — CI machines are noisy; the < 1.20 acceptance bar
    // (re-baselined 2026-08-08, see the `Supervision` doc) is judged on
    // the committed artifact, which is measured on quiet iron.
    let sup = &report.supervision;
    assert!(sup.probe_sites > 0, "supervision probe ran over no sites");
    assert_eq!(
        sup.quarantined_total,
        sup.quarantined_panic + sup.quarantined_deadline + sup.quarantined_budget,
        "quarantine reason counts do not sum to the total"
    );
    assert!(
        sup.quarantined_total > 0,
        "the poisoned probe must quarantine at least one site"
    );
    assert!(
        (sup.quarantined_total as usize) < sup.probe_sites,
        "the poisoned probe must not quarantine every site"
    );
    assert!(
        sup.supervised_seconds > 0.0 && sup.unsupervised_seconds > 0.0,
        "supervision race timings must be positive"
    );
    assert!(
        sup.overhead_ratio.is_finite() && sup.overhead_ratio > 0.0 && sup.overhead_ratio < 1.25,
        "supervision overhead_ratio out of the sanity band: {}",
        sup.overhead_ratio
    );

    // Headline fields are all-zero until `perf --headline` runs; once any
    // is set, all must be coherent.
    if report.orchestrator.headline_sites > 0 {
        assert!(
            report.orchestrator.headline_seconds > 0.0
                && report.orchestrator.headline_sites_per_s > 0.0,
            "headline row present but timings are zero"
        );
        assert!(
            report.orchestrator.headline_peak_bytes > 0,
            "headline row present but peak memory is zero"
        );
        // `headline_workers` is 0 only for rows carried from pre-/5
        // artifacts, whose worker count was never recorded; a row written
        // by this binary always knows it.
        assert!(
            report.orchestrator.headline_workers <= 4096,
            "headline_workers implausible: {}",
            report.orchestrator.headline_workers
        );
    }
    // Longitudinal section (schema /6): all-zero until `perf
    // --longitudinal` runs; once present, the lineage must have
    // reconstructed byte-identically and actually compressed. The ratio
    // grows ≈ (N+1)/2 with timeline length, so the ≥ 5x bar only applies
    // at ≥ 20 eras (the committed artifact runs 50).
    let lon = &report.longitudinal;
    if lon.eras > 0 {
        assert!(lon.sites_per_era > 0, "longitudinal row crawled no sites");
        assert!(
            lon.reconstruction_identical,
            "longitudinal lineage did not reconstruct byte-identically"
        );
        assert!(
            lon.delta_bytes > 0 && lon.full_bytes > lon.delta_bytes,
            "longitudinal lineage did not compress: {} delta vs {} full",
            lon.delta_bytes,
            lon.full_bytes
        );
        let ratio = lon.full_bytes as f64 / lon.delta_bytes as f64;
        assert!(
            (lon.compression_ratio - ratio).abs() < 0.01,
            "longitudinal.compression_ratio inconsistent: {} vs {ratio}",
            lon.compression_ratio
        );
        if lon.eras >= 20 {
            assert!(
                lon.compression_ratio >= 5.0,
                "longitudinal compression ratio {:.2} below the 5x bar at {} eras",
                lon.compression_ratio,
                lon.eras
            );
        }
        assert!(
            lon.diff_seconds.is_finite() && lon.diff_seconds >= 0.0,
            "longitudinal.diff_seconds must be nonnegative"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed report, which `--check` must accept as it stands.
    fn committed() -> BenchReport {
        serde_json::from_str(include_str!("../../../../BENCH_pipeline.json"))
            .expect("the committed report matches the schema")
    }

    /// Sets the orchestrated stage's allocation count, keeping its
    /// derived per-site column consistent.
    fn with_orchestrated_allocs(mut report: BenchReport, alloc_count: u64) -> BenchReport {
        let stage = &mut report.stages.orchestrated_pipeline;
        stage.alloc_count = alloc_count;
        stage.derive(report.sites);
        report
    }

    fn ceiling_allocs(report: &BenchReport) -> u64 {
        (ORCHESTRATED_ALLOCS_PER_SITE_CEILING * report.sites as f64) as u64
    }

    #[test]
    fn committed_report_passes_check() {
        validate(&committed());
    }

    /// The ceiling is a ratchet: it sits at most 20% above the committed
    /// measurement, so a change that cuts allocations must lower it.
    #[test]
    fn the_ceiling_tracks_the_committed_measurement() {
        let measured = committed().stages.orchestrated_pipeline.allocs_per_site;
        assert!(
            ORCHESTRATED_ALLOCS_PER_SITE_CEILING <= 1.2 * measured,
            "ceiling {ORCHESTRATED_ALLOCS_PER_SITE_CEILING} is more than 20% above the committed {measured:.0} allocs/site"
        );
    }

    #[test]
    fn allocations_at_the_ceiling_pass_check() {
        let report = committed();
        let at = ceiling_allocs(&report);
        validate(&with_orchestrated_allocs(report, at));
    }

    #[test]
    #[should_panic(expected = "allocation regression")]
    fn one_allocation_above_the_ceiling_fails_check() {
        let report = committed();
        let over = ceiling_allocs(&report) + 1;
        validate(&with_orchestrated_allocs(report, over));
    }
}
