//! Crash-safe checkpointed crawls: persist each completed shard to a
//! durable journal, resume from whatever survived a kill.
//!
//! [`Study::run_checkpointed`] is the byte-compatible sibling of
//! [`Study::run`]: it crawls the same universe on the same orchestrated,
//! stream-fused pipeline (each worker reduces straight off the browser's
//! event stream via a [`FusedShard`]), but folds sites into a partition of
//! shards, and as soon as a shard's [`CrawlReduction`] is complete it is
//! serialized and written to a [`Journal`] segment
//! (atomic temp + fsync + rename, CRC-framed — see `sockscope-journal`).
//! On resume, the journal is scanned, checksums and the config
//! fingerprint are verified, everything torn/corrupt/mismatched is
//! quarantined into a recovery report, and **only the missing shards are
//! re-crawled**; recovered and fresh shard reductions merge under the
//! same `CrawlReduction` monoid as always.
//!
//! The invariant this module exists to uphold, and which
//! `tests/crash_recovery.rs` proves across a kill-point × shard × thread
//! matrix: **a resumed crawl's study snapshot is byte-identical to an
//! uninterrupted run's.** It holds because
//!
//! * per-site seeds depend only on `(config seed, site id, era)` — never
//!   on which shards were skipped;
//! * `CrawlReduction`'s JSON round-trip is lossless, so a recovered shard
//!   equals the shard a fresh crawl would have produced;
//! * `merge` + `normalize` make the fold independent of which side of the
//!   crash each shard came from.
//!
//! The config fingerprint covers everything that changes crawl *output*
//! (seed, scale, link budget, fault profile, segment format version) and
//! deliberately excludes the thread count, which changes only scheduling:
//! a crawl checkpointed on 8 threads may be resumed on 1.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::fused::FusedShard;
use crate::reduce::CrawlReduction;
use crate::study::{Study, StudyConfig};
use sockscope_faults::mix;
use sockscope_journal::{Journal, JournalScan, KillPoint, Quarantined, SegmentMeta};

/// Shards per worker thread in a fresh run's default partition: enough
/// shards that a crash loses little work, few enough that the journal
/// stays small.
const SHARDS_PER_THREAD: usize = 4;

/// Where and how a checkpointed run journals its shards.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Journal directory (created if absent).
    pub dir: PathBuf,
    /// Resume from whatever the journal holds. When `false`, the journal
    /// must be empty — a fresh run refuses to write into a directory that
    /// already holds another crawl's segments.
    pub resume: bool,
    /// Shard partition override for fresh runs (defaults to
    /// `threads × 4`). On resume the partition recorded in the journal
    /// always wins, so a crawl checkpointed under one partition is
    /// resumed under the same one.
    pub shards: Option<usize>,
    /// Deterministic crash injection for the test harness: die at the
    /// given kill point while persisting one specific shard. `None` in
    /// production.
    pub kill: Option<KillPlan>,
}

impl CheckpointOptions {
    /// Options for a fresh checkpointed run into `dir`.
    pub fn fresh(dir: impl Into<PathBuf>) -> CheckpointOptions {
        CheckpointOptions {
            dir: dir.into(),
            resume: false,
            shards: None,
            kill: None,
        }
    }

    /// Options resuming from the journal at `dir`.
    pub fn resume(dir: impl Into<PathBuf>) -> CheckpointOptions {
        CheckpointOptions {
            resume: true,
            ..CheckpointOptions::fresh(dir)
        }
    }
}

/// A seeded, deterministic process-death: while persisting shard
/// `(era, shard)`, the writer stops at `point` and the run aborts exactly
/// as if the process had been killed there — no later segment is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPlan {
    /// Era index of the doomed persist.
    pub era: u32,
    /// Shard index of the doomed persist.
    pub shard: u32,
    /// Which phase boundary of the segment write the kill lands on.
    pub point: KillPoint,
    /// Seed for the torn-prefix offset (pure hash, PR 2 style).
    pub seed: u64,
}

/// Errors of the checkpointed driver.
#[derive(Debug)]
pub enum CheckpointError {
    /// Journal I/O failed.
    Io(std::io::Error),
    /// A fresh (non-resume) run was pointed at a non-empty journal.
    DirNotEmpty(PathBuf),
    /// The injected [`KillPlan`] fired — the simulated process is dead.
    /// Only the crash-injection harness ever sees this.
    Killed {
        /// Era the kill landed in.
        era: u32,
        /// Shard the kill landed on.
        shard: u32,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "journal io: {e}"),
            CheckpointError::DirNotEmpty(dir) => write!(
                f,
                "checkpoint dir {} already holds a journal; pass --resume to continue it \
                 or point --checkpoint-dir at an empty directory",
                dir.display()
            ),
            CheckpointError::Killed { era, shard } => {
                write!(f, "injected kill fired at era {era}, shard {shard}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a over raw bytes, for folding era labels into the fingerprint.
fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

/// Provenance of a checkpointed run: how much was recovered from the
/// journal, how much was re-crawled, and what was quarantined. Surfaces
/// in the report so a resumed measurement is auditable.
#[derive(Debug, Clone, Default)]
pub struct ResumeReport {
    /// Was this a resume (vs a fresh checkpointed run)?
    pub resumed: bool,
    /// Shards per era in the partition.
    pub shard_count: usize,
    /// Eras in the crawl's timeline.
    pub eras: usize,
    /// Era-shards recovered from durable segments (not re-crawled).
    pub shards_recovered: usize,
    /// Era-shards crawled in this process.
    pub shards_recrawled: usize,
    /// Everything the scan quarantined: torn temps, truncated or
    /// bit-flipped segments, fingerprint mismatches. Never merged.
    pub quarantined: Vec<Quarantined>,
}

impl ResumeReport {
    /// Renders the resume-provenance report section.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("Resume provenance (crash-safe checkpointed crawl)\n");
        let _ = writeln!(
            out,
            "  mode:                 {}",
            if self.resumed { "resumed" } else { "fresh" }
        );
        let _ = writeln!(
            out,
            "  shard partition:      {} shards x {} eras",
            self.shard_count, self.eras
        );
        let _ = writeln!(out, "  shards recovered:     {}", self.shards_recovered);
        let _ = writeln!(out, "  shards re-crawled:    {}", self.shards_recrawled);
        let _ = writeln!(out, "  segments quarantined: {}", self.quarantined.len());
        for q in &self.quarantined {
            let _ = writeln!(out, "    {}: {}", q.file, q.reason);
        }
        out
    }
}

impl StudyConfig {
    /// Fingerprint of everything that shapes crawl *output*: universe
    /// seed, scale, link budget, the effective fault profile, and the
    /// journal segment format version. The thread count is deliberately
    /// excluded — it changes scheduling, never results — so a crawl may
    /// be resumed with a different degree of parallelism.
    pub fn fingerprint(&self) -> u64 {
        let mut h = mix(0x5343_4B50_4A52_4E4C, self.seed); // "SCKPJRNL"
        h = mix(h, self.n_sites as u64);
        h = mix(h, self.max_links as u64);
        h = mix(h, u64::from(sockscope_journal::FORMAT_VERSION));
        // Zero-rate profiles behave exactly like no profile in the crawl,
        // so they must fingerprint identically.
        if let Some(f) = self.faults.as_ref().filter(|f| !f.is_zero()) {
            for v in [
                u64::from(f.connect_refused_pm),
                u64::from(f.handshake_reject_pm),
                u64::from(f.bad_accept_pm),
                u64::from(f.truncated_frame_pm),
                u64::from(f.malformed_frame_pm),
                u64::from(f.drop_pm),
                u64::from(f.stall_pm),
                u64::from(f.page_fail_pm),
                u64::from(f.max_retries),
                f.backoff_base,
                f.page_budget,
                f.stall_ticks,
                f.stall_timeout,
            ] {
                h = mix(h, v.wrapping_add(1));
            }
        }
        // The crawl schedule shapes output: era count, patch boundary,
        // activity jitter, and churn all change what the crawl observes.
        // The pinned paper preset hashes as the absence of a fold so that
        // four-crawl journals written before timelines existed (and any
        // journal of a default config) remain resumable.
        if !self.timeline.is_paper() {
            h = mix(h, 0x0E5A_711E);
            h = mix(h, self.timeline.len() as u64);
            for era in self.timeline.eras() {
                h = mix(h, era.index().wrapping_add(1));
                h = mix(h, if era.pre_patch() { 2 } else { 1 });
                h = mix(h, u64::from(era.activity_pm()));
                h = mix(h, fnv1a_bytes(era.label().as_bytes()));
                if let Some(churn) = era.churn() {
                    h = mix(h, churn.seed.wrapping_add(1));
                    h = mix(h, u64::from(churn.eras).wrapping_add(1));
                }
            }
        }
        // Site hazards shape output independently of the transport rates
        // (they decide the quarantine set), so they hash separately; a
        // hazard-free profile keeps its pre-supervision fingerprint.
        if let Some(f) = self.faults.as_ref().filter(|f| f.has_hazards()) {
            for v in [
                u64::from(f.site_panic_pm),
                u64::from(f.site_hang_pm),
                u64::from(f.site_alloc_pm),
                f.site_deadline,
                f.site_alloc_budget,
                u64::from(f.site_retries),
            ] {
                h = mix(h, v.wrapping_add(1));
            }
        }
        h
    }
}

impl Study {
    /// Runs the study with durable per-shard checkpoints (and, with
    /// [`CheckpointOptions::resume`], from whatever a previous attempt
    /// left in the journal). The resulting study — and its snapshot —
    /// is byte-identical to [`Study::run`] with the same config.
    pub fn run_checkpointed(
        config: &StudyConfig,
        opts: &CheckpointOptions,
    ) -> Result<(Study, ResumeReport), CheckpointError> {
        let journal = Journal::open(&opts.dir)?;
        let fingerprint = config.fingerprint();

        let scan = if opts.resume {
            journal.scan_bounded(fingerprint, Some(config.timeline.len() as u32))?
        } else {
            if !journal.is_empty()? {
                return Err(CheckpointError::DirNotEmpty(opts.dir.clone()));
            }
            JournalScan::default()
        };

        // The journal's recorded partition wins; fresh runs pick one.
        let shard_count = scan
            .shard_count
            .map(|c| c as usize)
            .or(opts.shards)
            .unwrap_or(config.threads.max(1) * SHARDS_PER_THREAD)
            .max(1);

        let eras = config.timeline.len();
        let mut quarantined = scan.quarantined;
        let mut recovered: Vec<Vec<Option<CrawlReduction>>> =
            (0..eras).map(|_| vec![None; shard_count]).collect();
        for seg in scan.segments {
            let era = seg.meta.era as usize;
            let shard = seg.meta.shard_index as usize;
            if era >= eras || shard >= shard_count {
                quarantined.push(journal.quarantine(
                    &seg.file,
                    &format!("shard coordinates out of range (era {era}, shard {shard})"),
                )?);
                continue;
            }
            let text = String::from_utf8_lossy(&seg.payload);
            match serde_json::from_str::<CrawlReduction>(&text) {
                Ok(reduction) => recovered[era][shard] = Some(reduction),
                // A CRC-valid segment whose payload fails to decode means
                // it was written by an incompatible build; quarantine and
                // re-crawl rather than guess.
                Err(e) => {
                    quarantined
                        .push(journal.quarantine(&seg.file, &format!("payload undecodable: {e}"))?);
                }
            }
        }

        let web = Study::universe(config);
        let base_engine = Study::engine_for(&web);
        // Evolving timelines label/block against each era's lists (see
        // `Study::run`); the frozen paper preset shares one engine and
        // stays byte-identical to the pre-timeline driver.
        let evolving = config.timeline.evolves();
        let crawl_config = Study::crawl_config(config);
        let orch = Study::orchestrator_config(config);

        // Simulated process death (test harness): once the kill fires, no
        // further byte reaches the journal and the run aborts.
        let dead = AtomicBool::new(false);
        let persist_error: Mutex<Option<std::io::Error>> = Mutex::new(None);

        let mut reductions = Vec::new();
        let mut shards_recovered = 0usize;
        let mut shards_recrawled = 0usize;

        for era in config.timeline.eras() {
            let era_idx = era.index() as usize;
            let era_web = web.for_era(era.clone());
            let era_engine = evolving.then(|| Study::engine_for(&era_web));
            let engine = era_engine.as_ref().unwrap_or(&base_engine);
            let make_extensions =
                || sockscope_browser::ExtensionHost::stock(sockscope_crawler::browser_era(era));
            let era_recovered = &recovered[era_idx];
            // Writes one shard's finished reduction to the journal — or, on
            // the doomed shard of an injected kill plan, simulates the
            // process dying mid-write. Runs on the orchestrator's reduce
            // stage, off the per-site hot path.
            let persist_reduction = |s: usize, reduction: &CrawlReduction| {
                if dead.load(Ordering::Relaxed) {
                    return;
                }
                let meta = SegmentMeta {
                    fingerprint,
                    era: era_idx as u32,
                    shard_index: s as u32,
                    shard_count: shard_count as u32,
                };
                let payload = serde_json::to_string(reduction).expect("reduction serializes");
                let outcome = match &opts.kill {
                    Some(k) if k.era == era_idx as u32 && k.shard == s as u32 => {
                        dead.store(true, Ordering::Relaxed);
                        journal.write_segment_killed(&meta, payload.as_bytes(), k.point, k.seed)
                    }
                    _ => journal.write_segment(&meta, payload.as_bytes()),
                };
                if let Err(e) = outcome {
                    let mut slot = persist_error.lock().expect("persist error lock");
                    slot.get_or_insert(e);
                }
            };

            let fresh = sockscope_crawler::crawl_orchestrated_resumable(
                &era_web,
                &crawl_config,
                &orch,
                shard_count,
                &make_extensions,
                &|| FusedShard::new(era.label(), era.pre_patch(), engine),
                &|worker: &mut FusedShard<'_>| worker.take_site_reduction(),
                &|_shard| CrawlReduction::new(era.label(), era.pre_patch()),
                &|acc: &mut CrawlReduction, site| acc.absorb(site),
                &|s| era_recovered[s].is_some(),
                &|s, acc: &CrawlReduction| persist_reduction(s, acc),
                &|| dead.load(Ordering::Relaxed),
            );

            if let Some(e) = persist_error.lock().expect("persist error lock").take() {
                return Err(CheckpointError::Io(e));
            }
            if dead.load(Ordering::Relaxed) {
                let k = opts.kill.as_ref().expect("dead implies a kill plan");
                return Err(CheckpointError::Killed {
                    era: k.era,
                    shard: k.shard,
                });
            }

            let mut reduction = CrawlReduction::new(era.label(), era.pre_patch());
            for (s, slot) in fresh.into_iter().enumerate() {
                let shard_reduction = match slot {
                    Some(shard) => {
                        shards_recrawled += 1;
                        shard
                    }
                    None => {
                        shards_recovered += 1;
                        recovered[era_idx][s]
                            .take()
                            .expect("skipped shards were recovered")
                    }
                };
                reduction = reduction.merge(shard_reduction);
            }
            reduction.normalize();
            reductions.push(reduction);
        }

        let study = Study::assemble(&web, base_engine, reductions);
        let report = ResumeReport {
            resumed: opts.resume,
            shard_count,
            eras,
            shards_recovered,
            shards_recrawled,
            quarantined,
        };
        Ok((study, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::StudySnapshot;
    use sockscope_webgen::CrawlEra;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sockscope-checkpoint-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config() -> StudyConfig {
        StudyConfig {
            seed: 0xBEEF,
            n_sites: 40,
            threads: 2,
            ..StudyConfig::default()
        }
    }

    #[test]
    fn fresh_checkpointed_run_matches_the_in_memory_pipeline() {
        let dir = tmpdir("fresh");
        let (study, report) =
            Study::run_checkpointed(&config(), &CheckpointOptions::fresh(&dir)).unwrap();
        let baseline = Study::run(&config());
        assert_eq!(
            StudySnapshot::capture(&study).to_json(),
            StudySnapshot::capture(&baseline).to_json()
        );
        assert!(!report.resumed);
        assert_eq!(report.shards_recovered, 0);
        assert_eq!(
            report.shards_recrawled,
            report.shard_count * CrawlEra::ALL.len()
        );
        assert!(report.quarantined.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_over_a_complete_journal_recovers_every_shard() {
        let dir = tmpdir("complete");
        let cfg = config();
        let (first, _) = Study::run_checkpointed(&cfg, &CheckpointOptions::fresh(&dir)).unwrap();
        let (second, report) =
            Study::run_checkpointed(&cfg, &CheckpointOptions::resume(&dir)).unwrap();
        assert_eq!(
            StudySnapshot::capture(&first).to_json(),
            StudySnapshot::capture(&second).to_json()
        );
        assert_eq!(report.shards_recrawled, 0);
        assert_eq!(
            report.shards_recovered,
            report.shard_count * CrawlEra::ALL.len()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_run_refuses_a_dirty_journal() {
        let dir = tmpdir("dirty");
        let cfg = config();
        Study::run_checkpointed(&cfg, &CheckpointOptions::fresh(&dir)).unwrap();
        match Study::run_checkpointed(&cfg, &CheckpointOptions::fresh(&dir)) {
            Err(CheckpointError::DirNotEmpty(_)) => {}
            Err(other) => panic!("expected DirNotEmpty, got {other:?}"),
            Ok(_) => panic!("expected DirNotEmpty, got a successful run"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_separates_configs_but_not_thread_counts() {
        let base = config();
        assert_eq!(base.fingerprint(), config().fingerprint());
        let more_threads = StudyConfig {
            threads: 16,
            ..config()
        };
        assert_eq!(base.fingerprint(), more_threads.fingerprint());
        // Orchestrator scheduling knobs change execution order, never
        // output, so a journal resumes across knob changes.
        let other_knobs = StudyConfig {
            workers: Some(12),
            queue_depth: 1,
            ..config()
        };
        assert_eq!(base.fingerprint(), other_knobs.fingerprint());
        let other_seed = StudyConfig {
            seed: 0xF00D,
            ..config()
        };
        assert_ne!(base.fingerprint(), other_seed.fingerprint());
        let other_scale = StudyConfig {
            n_sites: 41,
            ..config()
        };
        assert_ne!(base.fingerprint(), other_scale.fingerprint());
        let faulted = StudyConfig {
            faults: Some(sockscope_faults::FaultProfile::mild()),
            ..config()
        };
        assert_ne!(base.fingerprint(), faulted.fingerprint());
        // A zero-rate profile crawls identically to no profile, so it
        // must resume a fault-free journal.
        let zeroed = StudyConfig {
            faults: Some(sockscope_faults::FaultProfile::none()),
            ..config()
        };
        assert_eq!(base.fingerprint(), zeroed.fingerprint());
    }
}
