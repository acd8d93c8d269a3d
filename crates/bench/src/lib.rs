//! Shared plumbing for the perf harness and the ablations.
//!
//! The paper's tables and figures come from the `sockscope` CLI; this
//! crate holds only what the CLI does not: `perf` and the two ablations.
//! Its binaries take `sockscope run`'s study flags (`--sites`, `--seed`,
//! `--threads`, `--workers`, `--queue-depth`, `--faults`, `--eras`),
//! parsed by the CLI's own parser, so a bad value is the same typed error
//! it is there.

#![forbid(unsafe_code)]

use sockscope::StudyConfig;
use sockscope_cli::{Command, ParseError};

/// Parses `sockscope run`'s study flags into a study config, with
/// `default_sites` publisher sites unless `--sites` says otherwise. Flags
/// that only steer the CLI's outputs (`--save`, `--checkpoint-dir`,
/// `--resume`, `--max-quarantined`, `--lineage-dir`) are rejected.
pub fn study_config(args: &[String], default_sites: usize) -> Result<StudyConfig, ParseError> {
    // A later `--sites` overrides this one, as it does on the CLI.
    let mut argv = vec![
        "run".to_string(),
        "--sites".to_string(),
        default_sites.to_string(),
    ];
    argv.extend_from_slice(args);
    match sockscope_cli::parse(&argv)? {
        Command::Run {
            config,
            save: None,
            checkpoint_dir: None,
            resume: false,
            max_quarantined: None,
            lineage_dir: None,
        } => Ok(config),
        _ => Err(ParseError(
            "only the study flags of `sockscope run` apply here".into(),
        )),
    }
}

/// Parses the process arguments with [`study_config`], or exits through
/// [`usage_error`].
pub fn study_config_or_exit(args: &[String], default_sites: usize, usage: &str) -> StudyConfig {
    study_config(args, default_sites).unwrap_or_else(|e| usage_error(e, usage))
}

/// Prints `msg` and `usage`, then exits 2, as the CLI does on a bad flag.
pub fn usage_error(msg: impl std::fmt::Display, usage: &str) -> ! {
    eprintln!("error: {msg}\n\nusage: {usage}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn study_flags_parse_like_the_cli() {
        let config = study_config(&[], 3_000).unwrap();
        assert_eq!(config.n_sites, 3_000);
        let config = study_config(&args(&["--sites", "40", "--seed", "BEEF"]), 3_000).unwrap();
        assert_eq!((config.n_sites, config.seed), (40, 0xBEEF));
        assert_eq!(
            study_config(&args(&["--sites", "abc"]), 3_000),
            Err(ParseError("--sites expects an integer".into()))
        );
        for bad in [
            &["--save", "x.json"][..],
            &["--lineage-dir", "d"],
            &["--bogus"],
        ] {
            assert!(study_config(&args(bad), 3_000).is_err(), "{bad:?}");
        }
    }
}
