//! The four benchmark workloads. Each is one `sockscope run …` job (two
//! for `longitudinal`, whose second command resumes the first), spelled as
//! the argument vectors the CLI parses.

use std::path::Path;

/// Snapshot file every job saves (`--save`).
pub const SNAPSHOT: &str = "snapshot.json";
/// Checkpoint journal directory of `longitudinal` (`--checkpoint-dir`).
pub const CHECKPOINT_DIR: &str = "ckpt";
/// Snapshot lineage directory of `longitudinal` (`--lineage-dir`).
pub const LINEAGE_DIR: &str = "lineage";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The pinned four-crawl paper schedule, one worker.
    Paper,
    /// Many small eras, checkpointed, with a saved lineage, then resumed.
    Longitudinal,
    /// One era over a larger universe, two workers.
    Scale,
    /// The paper schedule with seeded poison sites, one worker.
    Poison,
}

/// Outputs pinned at [`crate::DEFAULT_SEED`] and the default sizes: one
/// CRC-32 per command for the rendered report and for the saved snapshot,
/// and the sites quarantined across the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pins {
    /// Report text CRC of each command.
    pub report_crcs: &'static [u32],
    /// Snapshot file CRC after each command.
    pub snapshot_crcs: &'static [u32],
    /// Site-crawls quarantined by the job.
    pub quarantined: u64,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 4] = [
        Workload::Paper,
        Workload::Longitudinal,
        Workload::Scale,
        Workload::Poison,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Longitudinal => "longitudinal",
            Workload::Scale => "scale",
            Workload::Poison => "poison",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Publisher sites in each of the workload's universes.
    pub fn sites(self) -> usize {
        match self {
            Workload::Paper | Workload::Poison => 300,
            Workload::Longitudinal => 250,
            Workload::Scale => 1_500,
        }
    }

    /// Passes over the universe set. Each universe's fastest pass counts,
    /// which screens out the host's slow spells; `longitudinal` takes two
    /// because its spread comes mostly from what its universes contain,
    /// which only more sites per run average out.
    pub fn passes(self) -> usize {
        match self {
            Workload::Longitudinal => 2,
            _ => 4,
        }
    }

    /// Nominal seconds of one job on a 2-core x86-64 host, from which a
    /// run of a given length sizes its set of universes.
    pub fn job_seconds(self) -> f64 {
        match self {
            Workload::Paper => 1.15,
            Workload::Poison => 1.0,
            Workload::Longitudinal => 2.2,
            Workload::Scale => 0.8,
        }
    }

    /// Crawls of every site: the era count of the workload's timeline.
    pub fn eras(self) -> usize {
        match self {
            Workload::Paper | Workload::Poison => 4,
            Workload::Longitudinal => 8,
            Workload::Scale => 1,
        }
    }

    /// Exit status every command of the job must end with: `5` (completed
    /// with quarantined sites) for `poison`, `0` otherwise.
    pub fn expected_status(self) -> i32 {
        match self {
            Workload::Poison => 5,
            _ => 0,
        }
    }

    /// The `sockscope` argument vectors of one job over `sites` publisher
    /// sites, writing its outputs under `dir`. Threads and workers are
    /// always explicit, never the CLI's all-cores default.
    pub fn commands(self, sites: usize, seed: u64, dir: &Path) -> Vec<Vec<String>> {
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let mut args: Vec<String> = vec![
            "run".into(),
            "--sites".into(),
            sites.to_string(),
            "--seed".into(),
            format!("{seed:X}"),
        ];
        let (threads, extra): (&str, Vec<String>) = match self {
            Workload::Paper => ("1", vec![]),
            Workload::Poison => ("1", vec!["--faults".into(), "poison".into()]),
            Workload::Scale => ("2", vec!["--eras".into(), "1".into()]),
            Workload::Longitudinal => (
                "1",
                vec![
                    "--eras".into(),
                    self.eras().to_string(),
                    "--checkpoint-dir".into(),
                    path(CHECKPOINT_DIR),
                    "--lineage-dir".into(),
                    path(LINEAGE_DIR),
                ],
            ),
        };
        args.extend(["--threads", threads, "--workers", threads].map(String::from));
        args.extend(extra);
        args.extend(["--save".to_string(), path(SNAPSHOT)]);
        match self {
            Workload::Longitudinal => {
                let mut resume = args.clone();
                resume.push("--resume".into());
                vec![args, resume]
            }
            _ => vec![args],
        }
    }

    /// Outputs at [`crate::DEFAULT_SEED`] and [`Workload::sites`].
    pub fn pins(self) -> Pins {
        match self {
            Workload::Paper => Pins {
                report_crcs: &[0x344D_797E],
                snapshot_crcs: &[0x6F8A_B518],
                quarantined: 0,
            },
            // The resume reports its provenance, so only its report differs.
            Workload::Longitudinal => Pins {
                report_crcs: &[0x6EC0_7DEF, 0x56DE_EF0A],
                snapshot_crcs: &[0x33B6_B057, 0x33B6_B057],
                quarantined: 0,
            },
            Workload::Scale => Pins {
                report_crcs: &[0xE7A0_4134],
                snapshot_crcs: &[0xC76F_50EA],
                quarantined: 0,
            },
            Workload::Poison => Pins {
                report_crcs: &[0x3567_6F91],
                snapshot_crcs: &[0x2764_A6BB],
                quarantined: 231,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("heavy"), None);
    }

    #[test]
    fn every_command_parses_and_pins_threads_and_workers() {
        let dir = Path::new("out");
        for w in Workload::ALL {
            let commands = w.commands(w.sites(), crate::DEFAULT_SEED, dir);
            assert_eq!(commands.len(), w.pins().report_crcs.len());
            for args in commands {
                match sockscope_cli::parse(&args).expect("workload args parse") {
                    sockscope_cli::Command::Run { config, save, .. } => {
                        assert_eq!(config.n_sites, w.sites());
                        assert_eq!(config.seed, crate::DEFAULT_SEED);
                        assert_eq!(config.timeline.len(), w.eras());
                        let workers = config.workers.expect("workers are explicit");
                        assert_eq!(config.threads, workers);
                        assert!(workers <= 2);
                        assert_eq!(save.as_deref(), Some("out/snapshot.json"));
                    }
                    other => panic!("{}: not a run command: {other:?}", w.name()),
                }
            }
        }
    }
}
