//! One job: the `sockscope run` commands of a workload, executed through
//! the CLI's own `parse` + `execute_with_status`, timed, and fingerprinted
//! by the bytes they produce.

use crate::host;
use crate::workload::{Workload, LINEAGE_DIR, SNAPSHOT};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What to run and where.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The workload whose commands run.
    pub workload: Workload,
    /// Publisher sites (the workload's own size, or a tiny one in tests).
    pub sites: usize,
    /// Universe seed.
    pub seed: u64,
    /// Directory the job's outputs go to; emptied first.
    pub dir: PathBuf,
}

impl JobSpec {
    /// The workload's commands for this spec.
    pub fn commands(&self) -> Vec<Vec<String>> {
        self.workload.commands(self.sites, self.seed, &self.dir)
    }

    /// Site-crawls one job performs: sites × eras (the `longitudinal`
    /// resume recovers its crawls from the journal and adds none).
    pub fn site_crawls(&self) -> u64 {
        (self.sites * self.workload.eras()) as u64
    }
}

/// The deterministic outputs of a job: for a given spec these must be the
/// same bytes on every run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Outputs {
    /// Exit status of each command.
    pub statuses: Vec<i32>,
    /// CRC-32 of each command's rendered report.
    pub report_crcs: Vec<u32>,
    /// CRC-32 of the snapshot file after each command.
    pub snapshot_crcs: Vec<u32>,
    /// CRC-32 of the lineage directory after each command that writes one.
    pub lineage_crcs: Vec<u32>,
    /// Site-crawls the supervisor quarantined, from the final snapshot.
    pub quarantined: u64,
    /// Bytes the job leaves on disk: snapshot, lineage and journal.
    pub disk_bytes: u64,
}

/// A finished job: its outputs and what it cost.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobResult {
    /// Wall seconds of the commands, excluding the checksumming between
    /// them.
    pub wall_s: f64,
    /// CPU seconds (user + system, all threads) of the commands.
    pub cpu_s: f64,
    /// Peak resident set of the process, in MiB.
    pub peak_rss_mib: f64,
    /// The bytes it produced.
    pub outputs: Outputs,
}

/// Runs `spec` in this process. The peak RSS is the process's, so the
/// benchmark runs each job in a fresh child process.
pub fn run(spec: &JobSpec) -> Result<JobResult, String> {
    reset_dir(&spec.dir)?;
    let mut outputs = Outputs {
        statuses: Vec::new(),
        report_crcs: Vec::new(),
        snapshot_crcs: Vec::new(),
        lineage_crcs: Vec::new(),
        quarantined: 0,
        disk_bytes: 0,
    };
    let (mut wall_s, mut cpu_s) = (0.0, 0.0);
    for args in spec.commands() {
        let command = sockscope_cli::parse(&args).map_err(|e| format!("{args:?}: {e}"))?;
        let cpu0 = host::cpu_seconds();
        let t = Instant::now();
        let (text, status) =
            sockscope_cli::execute_with_status(command).map_err(|e| format!("{args:?}: {e}"))?;
        wall_s += t.elapsed().as_secs_f64();
        cpu_s += host::cpu_seconds() - cpu0;
        outputs.statuses.push(status);
        outputs
            .report_crcs
            .push(sockscope_journal::crc32(text.as_bytes()));
        outputs
            .snapshot_crcs
            .push(file_crc(&spec.dir.join(SNAPSHOT))?);
        let lineage = host::dir_crc(&spec.dir.join(LINEAGE_DIR)).map_err(|e| e.to_string())?;
        outputs.lineage_crcs.extend(lineage);
    }
    outputs.quarantined = quarantined(&spec.dir.join(SNAPSHOT))?;
    outputs.disk_bytes = host::dir_bytes(&spec.dir);
    Ok(JobResult {
        wall_s,
        cpu_s,
        peak_rss_mib: host::peak_rss_mib(),
        outputs,
    })
}

/// Removes and recreates `dir`.
pub fn reset_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("clearing {}: {e}", dir.display())),
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

fn file_crc(path: &Path) -> Result<u32, String> {
    std::fs::read(path)
        .map(|bytes| sockscope_journal::crc32(&bytes))
        .map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Site-crawls quarantined across every crawl of a saved snapshot.
fn quarantined(snapshot: &Path) -> Result<u64, String> {
    let snap = sockscope::analysis::snapshot::StudySnapshot::load(snapshot)
        .map_err(|e| format!("loading {}: {e}", snapshot.display()))?;
    Ok(snap
        .reductions
        .iter()
        .filter_map(|r| r.quarantine.as_ref())
        .map(|q| q.len() as u64)
        .sum())
}
