//! The end-to-end run behind `bench --trace 0`: a fixed set of universes
//! derived from the seed, each crawled once per pass, with set-up builds
//! timed before every job; then the output checks.
//!
//! The host this benchmark was built on changes speed by up to 1.5× from
//! one fraction of a second to the next, as other tenants come and go. A
//! job's time mixes fast and slow spells, so each universe is run in
//! several passes and its fastest pass counts. What the universes contain
//! varies too: one universe's footprint differs from the next by 10–20%.
//! So job metrics are totals over the universes, and `setup_s`, whose
//! builds last milliseconds, is the median over universes of each
//! universe's fastest build.

use crate::job::{JobResult, JobSpec};
use crate::stats::{self, Summary};
use crate::workload::Workload;
use crate::MetricRecord;
use serde::{Deserialize, Serialize};
use sockscope::analysis::StudySnapshot;
use sockscope::{Study, StudyConfig};
use std::time::Instant;

/// Every end-to-end metric, with its unit, in report order.
pub const METRICS: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("site_crawls_per_s", "1/s"),
    ("cpu_s_per_ksite", "s/ksite"),
    ("peak_rss_mib", "MiB"),
    ("disk_mib", "MiB"),
];

/// The pinned reproduction checked before every run: a 150-site study at
/// seed `0xD15C` whose snapshot has exactly these bytes.
const PIN_SEED: u64 = 0xD15C;
const PIN_SITES: usize = 150;
const PIN_CRC: u32 = 0x57EC_C8D3;
const PIN_LEN: usize = 254_074;

/// Set-up builds timed before each job, after one untimed build that
/// warms the caches the previous job's process evicted.
const SETUP_REPS: usize = 3;

/// One job of a run, as measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSample {
    /// Index of the job's universe in the run.
    pub universe: usize,
    /// Seconds of each set-up build timed before the job.
    pub setup_s: Vec<f64>,
    /// The job's cost and outputs.
    pub result: JobResult,
}

/// A finished end-to-end run.
#[derive(Debug)]
pub struct Measured {
    /// Jobs started.
    pub attempted: u64,
    /// Jobs that did not finish.
    pub failed: u64,
    /// Failed checks; empty when every output is correct.
    pub problems: Vec<String>,
    /// Every entry of [`METRICS`]; the quartiles and extremes are those of
    /// the per-universe values.
    pub metrics: Vec<MetricRecord>,
    /// Every finished job, in run order.
    pub jobs: Vec<JobSample>,
}

impl Measured {
    /// Every job finished and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// The study configuration the workload's first command parses to.
pub fn study_config(spec: &JobSpec) -> Result<StudyConfig, String> {
    let args = &spec.commands()[0];
    match sockscope_cli::parse(args) {
        Ok(sockscope_cli::Command::Run { config, .. }) => Ok(config),
        other => Err(format!("{args:?} does not parse to a run: {other:?}")),
    }
}

/// Checks the 150-site pinned reproduction.
pub fn check_pin() -> Result<(), String> {
    let study = Study::run(&StudyConfig {
        seed: PIN_SEED,
        n_sites: PIN_SITES,
        threads: 1,
        ..StudyConfig::default()
    });
    let json = StudySnapshot::capture(&study).to_json();
    let crc = sockscope_journal::crc32(json.as_bytes());
    if crc == PIN_CRC && json.len() == PIN_LEN {
        Ok(())
    } else {
        Err(format!(
            "pinned 150-site snapshot drifted: crc {crc:#010X}, {} bytes (want {PIN_CRC:#010X}, {PIN_LEN})",
            json.len()
        ))
    }
}

/// Seconds of [`SETUP_REPS`] set-up builds: the universe and filter
/// engine `Study::run` constructs before its first crawl.
fn setup_times(config: &StudyConfig) -> Vec<f64> {
    let build = || {
        let t = Instant::now();
        let web = Study::universe(config);
        let engine = Study::engine_for(&web);
        let secs = t.elapsed().as_secs_f64();
        std::hint::black_box((web, engine));
        secs
    };
    build();
    (0..SETUP_REPS).map(|_| build()).collect()
}

/// The seed of universe `k` of a run at `seed`; universe 0 is `seed`
/// itself, so the pins and the trace see the seed the run was given.
pub fn universe_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Universes a run of about `seconds` crawls in the workload's passes, and
/// at least two. The count depends only on the arguments, never on how
/// fast the jobs run.
pub fn universes(workload: Workload, seconds: f64) -> usize {
    ((seconds / (workload.passes() as f64 * workload.job_seconds())) as usize).max(2)
}

/// Checks one universe's jobs against each other, the workload's own
/// invariants and, for the default seed and size, its pins.
fn check_outputs(spec: &JobSpec, jobs: &[&JobSample]) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(first) = jobs.first().map(|j| &j.result.outputs) else {
        return problems;
    };
    let w = spec.workload;
    let seed = spec.seed;
    if jobs.iter().any(|j| j.result.outputs != *first) {
        problems.push(format!("seed {seed:#X}: outputs differ between passes"));
    }
    if first.statuses.iter().any(|&s| s != w.expected_status()) {
        problems.push(format!(
            "seed {seed:#X}: exit statuses {:?}, want {}",
            first.statuses,
            w.expected_status()
        ));
    }
    if (w == Workload::Poison) != (first.quarantined > 0) {
        problems.push(format!(
            "seed {seed:#X}: {} site-crawls quarantined",
            first.quarantined
        ));
    }
    if w == Workload::Longitudinal {
        let same = |v: &[u32]| v.len() == 2 && v[0] == v[1];
        if !same(&first.snapshot_crcs) || !same(&first.lineage_crcs) {
            problems.push(format!(
                "seed {seed:#X}: resume did not rebuild the same snapshot and lineage: \
                 snapshots {:08X?}, lineages {:08X?}",
                first.snapshot_crcs, first.lineage_crcs
            ));
        }
    }
    if seed == crate::DEFAULT_SEED && spec.sites == w.sites() {
        let pins = w.pins();
        if first.report_crcs != pins.report_crcs
            || first.snapshot_crcs != pins.snapshot_crcs
            || first.quarantined != pins.quarantined
        {
            problems.push(format!(
                "outputs differ from the pins: reports {:08X?}, snapshots {:08X?}, {} quarantined",
                first.report_crcs, first.snapshot_crcs, first.quarantined
            ));
        }
    }
    problems
}

/// Smallest of `values`.
fn fastest(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

/// Runs `spec`'s workload over [`universes`] universes derived from
/// `spec.seed`, in the workload's passes of one job per universe; times
/// set-up builds before every job, and checks the outputs. Every metric is
/// first reduced to one value per universe (its fastest set-up build, its
/// fastest pass, its footprint) and then combined over the universes.
/// `runner` executes one job; the benchmark runs it in a child process so
/// each job's peak RSS is its own.
pub fn measure(
    spec: &JobSpec,
    seconds: f64,
    runner: &dyn Fn(&JobSpec) -> Result<JobResult, String>,
) -> Measured {
    let mut problems = Vec::new();
    let universes: Vec<JobSpec> = (0..universes(spec.workload, seconds))
        .map(|k| JobSpec {
            seed: universe_seed(spec.seed, k),
            ..spec.clone()
        })
        .collect();
    let mut jobs = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    'passes: for _ in 0..spec.workload.passes() {
        for (k, universe) in universes.iter().enumerate() {
            let setup_s = match study_config(universe) {
                Ok(config) => setup_times(&config),
                Err(e) => {
                    problems.push(e);
                    Vec::new()
                }
            };
            attempted += 1;
            match runner(universe) {
                Ok(result) => jobs.push(JobSample {
                    universe: k,
                    setup_s,
                    result,
                }),
                Err(e) => {
                    failed += 1;
                    problems.push(e);
                    break 'passes;
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&spec.dir);
    let by_universe: Vec<Vec<&JobSample>> = (0..universes.len())
        .map(|k| jobs.iter().filter(|j| j.universe == k).collect())
        .collect();
    for (universe, done) in universes.iter().zip(&by_universe) {
        problems.extend(check_outputs(universe, done));
    }

    // Per universe: [setup_s, wall_s, cpu_s, peak_rss_mib, disk_mib].
    let per_universe: Vec<[f64; 5]> = by_universe
        .iter()
        .filter(|done| !done.is_empty())
        .map(|done| {
            let results = || done.iter().map(|j| &j.result);
            [
                fastest(done.iter().flat_map(|j| j.setup_s.iter().copied())),
                fastest(results().map(|r| r.wall_s)),
                fastest(results().map(|r| r.cpu_s)),
                fastest(results().map(|r| r.peak_rss_mib)),
                done[0].result.outputs.disk_bytes as f64 / (1024.0 * 1024.0),
            ]
        })
        .collect();
    let site_crawls = spec.site_crawls() as f64;
    let column = |i: usize, f: &dyn Fn(f64) -> f64| -> Vec<f64> {
        per_universe.iter().map(|u| f(u[i])).collect()
    };
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let samples = [
        column(0, &|s| s),
        column(1, &|wall| site_crawls / wall),
        column(2, &|cpu| cpu / (site_crawls / 1000.0)),
        column(3, &|rss| rss),
        column(4, &|disk| disk),
    ];
    let values = [
        stats::median(&samples[0]),
        Some(site_crawls / mean(&column(1, &|wall| wall))),
        Some(mean(&samples[2])),
        Some(mean(&samples[3])),
        Some(mean(&samples[4])),
    ];
    let metrics = METRICS
        .iter()
        .zip(values.into_iter().zip(&samples))
        .filter_map(|(&(name, unit), (value, samples))| {
            Some(MetricRecord::new(
                name,
                unit,
                value?,
                &Summary::of(samples)?,
            ))
        })
        .collect();
    Measured {
        attempted,
        failed,
        problems,
        metrics,
        jobs,
    }
}

/// Parses the one-line JSON a job child prints.
pub fn parse_job_line(line: &str) -> Result<JobResult, String> {
    serde_json::from_str(line).map_err(|e| format!("bad job result {line:?}: {e}"))
}
