//! Argument parsing and command dispatch for the `sockscope` binary.
//!
//! Hand-rolled parsing (the offline dependency set carries no argument
//! parser) with the structure a downstream user expects:
//!
//! ```text
//! sockscope run      [--sites N] [--seed HEX] [--threads N] [--save FILE]
//! sockscope report   (--from FILE | [--sites N] ...)
//! sockscope table    <1|2|3|4|5>  (--from FILE | ...)
//! sockscope figure3             (--from FILE | ...)
//! sockscope textstats|churn|categories|blocking (--from FILE | ...)
//! sockscope timeline
//! sockscope inspect  --from FILE --receiver DOMAIN [--limit N]
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sockscope::analysis::checkpoint::{CheckpointError, CheckpointOptions};
use sockscope::analysis::longitudinal::{era_deltas, era_snapshots, SnapshotLineage};
use sockscope::analysis::snapshot::SnapshotError;
use sockscope::faults::FaultProfile;
use sockscope::report::StudyReport;
use sockscope::{EraTimeline, Study, StudyConfig};
use sockscope_analysis::snapshot::StudySnapshot;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run the study; optionally save a snapshot.
    Run {
        /// Study scale/seed knobs.
        config: StudyConfig,
        /// Snapshot destination.
        save: Option<String>,
        /// Durable checkpoint journal directory (crash-safe crawl).
        checkpoint_dir: Option<String>,
        /// Resume from the checkpoint journal instead of starting fresh.
        resume: bool,
        /// Fail the run (exit 3) when the supervised crawl quarantines
        /// more than this many sites. `None` never fails: quarantine is
        /// reported through exit code 5 instead.
        max_quarantined: Option<usize>,
        /// Write the delta-compressed snapshot lineage here (forces the
        /// longitudinal products even on the paper preset).
        lineage_dir: Option<String>,
    },
    /// Print the full report.
    Report(Source),
    /// Print one table (1–5); `csv` switches to plot-ready output
    /// (tables 1 and 5 only).
    Table(u8, Source, bool),
    /// Print Figure 3; `csv` switches to plot-ready output.
    Figure3(Source, bool),
    /// Print the §4.1–4.3 prose statistics.
    TextStats(Source),
    /// Print the churn matrix.
    Churn(Source),
    /// Print the category breakdown.
    Categories(Source),
    /// Print the §4.2 blocking analysis.
    Blocking(Source),
    /// Print the Figure 1 timeline.
    Timeline,
    /// List sockets to one receiver from a snapshot.
    Inspect {
        /// Snapshot path.
        from: String,
        /// Receiver domain to filter on.
        receiver: String,
        /// Maximum sockets to print.
        limit: usize,
    },
    /// Print usage.
    Help,
}

/// Where a command gets its study from.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// Load a saved snapshot.
    Snapshot(String),
    /// Run a fresh study with these knobs.
    Fresh(StudyConfig),
}

/// Usage text.
pub const USAGE: &str = "\
sockscope — reproduction of 'How Tracking Companies Circumvented Ad Blockers Using WebSockets' (IMC'18)

USAGE:
  sockscope run       [--sites N] [--seed HEX] [--threads N] [--save FILE]
                      [--workers N] [--queue-depth N]
                      [--faults PROFILE] [--checkpoint-dir DIR] [--resume]
                      [--max-quarantined N] [--eras N] [--lineage-dir DIR]
  sockscope report    [--from FILE | --sites N ...]
  sockscope table     <1|2|3|4|5> [--csv] [--from FILE | --sites N ...]
  sockscope figure3   [--csv] [--from FILE | --sites N ...]
  sockscope textstats [--from FILE | --sites N ...]
  sockscope churn     [--from FILE | --sites N ...]
  sockscope categories[--from FILE | --sites N ...]
  sockscope blocking  [--from FILE | --sites N ...]
  sockscope timeline
  sockscope inspect   --from FILE --receiver DOMAIN [--limit N]

OPTIONS:
  --sites N       publisher universe size (default 8000; paper used ~100K)
  --seed HEX      universe seed (default 50C25C0F)
  --threads N     crawl worker threads (default: all cores)
  --save FILE     write a reusable JSON snapshot of the crawl
  --from FILE     analyze a saved snapshot instead of re-crawling
  --workers N     orchestrator crawl workers (default: --threads); the
                  output is byte-identical for every worker count
  --queue-depth N bounded hand-off queue capacity between the crawl and
                  reduce stages (default 64); scheduling-only knob
  --faults PROF   inject seeded deterministic faults during the crawl:
                  none | mild | heavy | poison (default none). Transport
                  profiles (mild/heavy) degrade pages; poison injects
                  site-level hazards (panics, hangs, allocation bombs)
                  that the supervisor isolates and quarantines. Failure
                  and quarantine accounting land in the report/snapshot
  --checkpoint-dir DIR
                  journal each completed crawl shard to DIR (atomic,
                  fsynced, CRC-framed) so an interrupted crawl can resume
  --resume        resume the crawl from the journal at --checkpoint-dir:
                  verified shards are recovered, torn or corrupt segments
                  are quarantined (and reported), only missing shards are
                  re-crawled; output is byte-identical to an
                  uninterrupted run
  --max-quarantined N
                  fail the run (exit 3) when supervised execution
                  quarantines more than N sites; without this flag a
                  quarantining run still completes and exits 5
  --eras N        crawl an N-era synthetic timeline instead of the pinned
                  four-crawl paper schedule: tracker domains rotate,
                  filter lists churn (coverage lags rotation by one era),
                  and publishers adopt/drop trackers per era. The report
                  gains an era-drift table
  --lineage-dir DIR
                  write the delta-compressed snapshot lineage to DIR (one
                  full base snapshot + one structural delta per era;
                  every era reconstructs byte-identically). Implies the
                  longitudinal products even on the paper schedule

EXIT CODES:
  0  success                      2  bad flags or configuration
  3  I/O error or quarantine      4  corrupt snapshot or journal
     threshold exceeded           5  completed with quarantined sites
";

/// Argument-parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Execution errors, typed so the process exit code tells scripts *what*
/// went wrong: bad configuration (2), disk trouble (3), or corrupt
/// persisted data (4).
#[derive(Debug)]
pub enum CliError {
    /// Invalid flag combination or run configuration.
    Config(String),
    /// Underlying I/O failure (disk full, permissions, missing file).
    Io(String),
    /// A snapshot or journal exists but cannot be trusted: malformed
    /// JSON, unknown format version, failed checksum.
    Corrupt(String),
    /// Supervised execution quarantined more sites than the
    /// `--max-quarantined` threshold allows. Shares exit code 3 with I/O
    /// errors: both mean "the run did not deliver what was asked".
    QuarantineExceeded {
        /// Sites actually quarantined.
        quarantined: usize,
        /// The `--max-quarantined` ceiling that was breached.
        max: usize,
    },
}

impl CliError {
    /// Process exit code for this error class.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Config(_) => 2,
            CliError::Io(_) | CliError::QuarantineExceeded { .. } => 3,
            CliError::Corrupt(_) => 4,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Config(m) => write!(f, "config: {m}"),
            CliError::Io(m) => write!(f, "io: {m}"),
            CliError::Corrupt(m) => write!(f, "corrupt: {m}"),
            CliError::QuarantineExceeded { quarantined, max } => write!(
                f,
                "quarantine: {quarantined} site(s) quarantined, --max-quarantined allows {max}"
            ),
        }
    }
}

impl std::error::Error for CliError {}

fn snapshot_error(context: &str, e: SnapshotError) -> CliError {
    match e {
        SnapshotError::Io(e) => CliError::Io(format!("{context}: {e}")),
        SnapshotError::Format(e) => CliError::Corrupt(format!("{context}: malformed JSON: {e}")),
        SnapshotError::Version(v) => {
            CliError::Corrupt(format!("{context}: unsupported snapshot version {v}"))
        }
    }
}

fn checkpoint_error(e: CheckpointError) -> CliError {
    match e {
        CheckpointError::Io(e) => CliError::Io(format!("checkpoint journal: {e}")),
        CheckpointError::DirNotEmpty(_) => CliError::Config(e.to_string()),
        // The CLI never installs a kill plan; only the crash-injection
        // harness can see this variant.
        CheckpointError::Killed { .. } => CliError::Io(e.to_string()),
    }
}

/// Every knob shared by the crawling commands.
struct Knobs {
    config: StudyConfig,
    save: Option<String>,
    from: Option<String>,
    checkpoint_dir: Option<String>,
    resume: bool,
    max_quarantined: Option<usize>,
    lineage_dir: Option<String>,
}

fn parse_knobs(args: &[String]) -> Result<Knobs, ParseError> {
    let mut config = StudyConfig {
        n_sites: 8_000,
        ..StudyConfig::default()
    };
    let mut save = None;
    let mut from = None;
    let mut checkpoint_dir = None;
    let mut resume = false;
    let mut max_quarantined = None;
    let mut lineage_dir = None;
    let mut eras: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = || -> Result<&String, ParseError> {
            args.get(i + 1)
                .ok_or_else(|| ParseError(format!("{flag} needs a value")))
        };
        match flag {
            "--resume" => {
                resume = true;
                i += 1;
                continue;
            }
            "--checkpoint-dir" => checkpoint_dir = Some(value()?.clone()),
            "--sites" => {
                config.n_sites = value()?
                    .parse()
                    .map_err(|_| ParseError("--sites expects an integer".into()))?;
            }
            "--seed" => {
                let v = value()?;
                config.seed = u64::from_str_radix(v.trim_start_matches("0x"), 16)
                    .map_err(|_| ParseError("--seed expects hex".into()))?;
            }
            "--threads" => {
                let n: usize = value()?
                    .parse()
                    .map_err(|_| ParseError("--threads expects an integer".into()))?;
                if n == 0 {
                    return Err(ParseError("--threads expects at least 1".into()));
                }
                config.threads = n;
            }
            "--workers" => {
                let n: usize = value()?
                    .parse()
                    .map_err(|_| ParseError("--workers expects an integer".into()))?;
                if n == 0 {
                    return Err(ParseError("--workers expects at least 1".into()));
                }
                config.workers = Some(n);
            }
            "--queue-depth" => {
                let n: usize = value()?
                    .parse()
                    .map_err(|_| ParseError("--queue-depth expects an integer".into()))?;
                if n == 0 {
                    return Err(ParseError("--queue-depth expects at least 1".into()));
                }
                config.queue_depth = n;
            }
            "--faults" => {
                let v = value()?;
                let profile = FaultProfile::named(v).ok_or_else(|| {
                    ParseError(format!("--faults expects none|mild|heavy|poison, got {v}"))
                })?;
                config.faults = Some(profile);
            }
            "--max-quarantined" => {
                let n: usize = value()?
                    .parse()
                    .map_err(|_| ParseError("--max-quarantined expects an integer".into()))?;
                max_quarantined = Some(n);
            }
            "--eras" => {
                let n: usize = value()?
                    .parse()
                    .map_err(|_| ParseError("--eras expects an integer".into()))?;
                if n == 0 {
                    return Err(ParseError("--eras expects at least 1".into()));
                }
                eras = Some(n);
            }
            "--lineage-dir" => lineage_dir = Some(value()?.clone()),
            "--save" => save = Some(value()?.clone()),
            "--from" => from = Some(value()?.clone()),
            other => return Err(ParseError(format!("unknown option {other}"))),
        }
        i += 2;
    }
    // Applied after the loop so the timeline seed follows the final
    // --seed value regardless of flag order.
    if let Some(n) = eras {
        config.timeline = EraTimeline::synthetic(n, config.seed ^ 0x0E5A_51DE, n / 2);
    }
    Ok(Knobs {
        config,
        save,
        from,
        checkpoint_dir,
        resume,
        max_quarantined,
        lineage_dir,
    })
}

/// Removes a `--csv` flag if present.
fn strip_csv(args: &[String]) -> (Vec<String>, bool) {
    let csv = args.iter().any(|a| a == "--csv");
    (
        args.iter().filter(|a| *a != "--csv").cloned().collect(),
        csv,
    )
}

fn parse_source(args: &[String]) -> Result<Source, ParseError> {
    let knobs = parse_knobs(args)?;
    Ok(match knobs.from {
        Some(path) => Source::Snapshot(path),
        None => Source::Fresh(knobs.config),
    })
}

/// Parses a full argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "run" => {
            let knobs = parse_knobs(rest)?;
            if knobs.from.is_some() {
                return Err(ParseError("run always crawls; use report --from".into()));
            }
            if knobs.resume && knobs.checkpoint_dir.is_none() {
                return Err(ParseError("--resume requires --checkpoint-dir".into()));
            }
            Ok(Command::Run {
                config: knobs.config,
                save: knobs.save,
                checkpoint_dir: knobs.checkpoint_dir,
                resume: knobs.resume,
                max_quarantined: knobs.max_quarantined,
                lineage_dir: knobs.lineage_dir,
            })
        }
        "report" => Ok(Command::Report(parse_source(rest)?)),
        "table" => {
            let n: u8 = rest
                .first()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| ParseError("table expects a number 1-5".into()))?;
            if !(1..=5).contains(&n) {
                return Err(ParseError("table expects a number 1-5".into()));
            }
            let (rest, csv) = strip_csv(&rest[1..]);
            Ok(Command::Table(n, parse_source(&rest)?, csv))
        }
        "figure3" => {
            let (rest, csv) = strip_csv(rest);
            Ok(Command::Figure3(parse_source(&rest)?, csv))
        }
        "textstats" => Ok(Command::TextStats(parse_source(rest)?)),
        "churn" => Ok(Command::Churn(parse_source(rest)?)),
        "categories" => Ok(Command::Categories(parse_source(rest)?)),
        "blocking" => Ok(Command::Blocking(parse_source(rest)?)),
        "timeline" => Ok(Command::Timeline),
        "inspect" => {
            let mut from = None;
            let mut receiver = None;
            let mut limit = 10usize;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--from" => from = rest.get(i + 1).cloned(),
                    "--receiver" => receiver = rest.get(i + 1).cloned(),
                    "--limit" => {
                        limit = rest
                            .get(i + 1)
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| ParseError("--limit expects an integer".into()))?;
                    }
                    other => return Err(ParseError(format!("unknown option {other}"))),
                }
                i += 2;
            }
            Ok(Command::Inspect {
                from: from.ok_or_else(|| ParseError("inspect requires --from".into()))?,
                receiver: receiver
                    .ok_or_else(|| ParseError("inspect requires --receiver".into()))?,
                limit,
            })
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(ParseError(format!("unknown command {other}"))),
    }
}

/// The paper's own top rows, printed under `table 2|3|4` for comparison.
/// They stay out of `render()`, whose bytes the `run` report pins.
const PAPER_TABLE2: &str = "(paper's top initiators: facebook 35/11, espncdn 35/0, h-cdn 30/0, doubleclick 29/9, slither 25/0, google 23/11, youtube 18/8, ...)";
const PAPER_TABLE3: &str = "(paper's top receivers: intercom 156/16, 33across 57/19, zopim 44/12, realtime 41/27, smartsupp 26/4, feedjit 25/10, inspectlet 25/6, pusher 22/8, ...)";
const PAPER_TABLE4: &str = "(paper's top pairs: webspectator->realtime 1285, google->zopim 172, blogger->feedjit 158, ...; self-pairs total 36,056)";

fn obtain_study(source: &Source) -> Result<Study, CliError> {
    match source {
        Source::Snapshot(path) => StudySnapshot::load(std::path::Path::new(path))
            .and_then(StudySnapshot::restore)
            .map_err(|e| snapshot_error(&format!("loading snapshot {path}"), e)),
        Source::Fresh(config) => {
            eprintln!(
                "[sockscope] crawling {} sites x {} crawls (threads: {})...",
                config.n_sites,
                config.timeline.len(),
                config.threads
            );
            Ok(Study::run(config))
        }
    }
}

/// Executes a parsed command; returns the text to print. Convenience
/// wrapper over [`execute_with_status`] that discards the exit status —
/// callers that surface the completed-with-quarantine distinction (the
/// binary) should use [`execute_with_status`] directly.
pub fn execute(command: Command) -> Result<String, CliError> {
    execute_with_status(command).map(|(text, _)| text)
}

/// Executes a parsed command; returns the text to print plus the process
/// exit status for a *successful* execution: `0` for a clean run, `5`
/// when a supervised crawl completed but quarantined one or more sites.
/// Exceeding a `--max-quarantined` threshold is an error
/// ([`CliError::QuarantineExceeded`], exit 3), not a status.
pub fn execute_with_status(command: Command) -> Result<(String, i32), CliError> {
    match command {
        Command::Help => Ok((USAGE.to_string(), 0)),
        Command::Timeline => Ok((sockscope::timeline::render_timeline(), 0)),
        Command::Run {
            config,
            save,
            checkpoint_dir,
            resume,
            max_quarantined,
            lineage_dir,
        } => {
            eprintln!(
                "[sockscope] crawling {} sites x {} crawls (threads: {})...",
                config.n_sites,
                config.timeline.len(),
                config.threads
            );
            let mut report = if let Some(dir) = checkpoint_dir {
                let opts = CheckpointOptions {
                    resume,
                    ..CheckpointOptions::fresh(&dir)
                };
                let (study, provenance) =
                    Study::run_checkpointed(&config, &opts).map_err(checkpoint_error)?;
                if !provenance.quarantined.is_empty() {
                    eprintln!(
                        "[sockscope] quarantined {} journal segment(s) during resume:",
                        provenance.quarantined.len()
                    );
                    for q in &provenance.quarantined {
                        eprintln!("[sockscope]   {}: {}", q.file, q.reason);
                    }
                }
                eprintln!(
                    "[sockscope] checkpointed crawl: {} shard(s) recovered, {} re-crawled",
                    provenance.shards_recovered, provenance.shards_recrawled
                );
                StudyReport::from_checkpointed(study, provenance)
            } else {
                StudyReport::run(&config)
            };
            // Longitudinal products: derived from the finished study so
            // they compose with plain and checkpointed (resumed) runs. The
            // lineage costs O(eras²) snapshot bytes, so it is built only
            // when --lineage-dir asks for it.
            if lineage_dir.is_some() || !config.timeline.is_paper() {
                let web = Study::universe(&config);
                report.era_drift = Some(era_deltas(&report.study, &web, &config));
                if let Some(dir) = lineage_dir {
                    let lineage =
                        SnapshotLineage::build(&era_snapshots(&web, &report.study.reductions));
                    eprintln!(
                        "[sockscope] snapshot lineage: {} eras, {} delta bytes vs {} full ({:.1}x)",
                        lineage.era_count(),
                        lineage.stored_bytes(),
                        lineage.full_bytes(),
                        lineage.compression_ratio()
                    );
                    lineage
                        .save(std::path::Path::new(&dir))
                        .map_err(|e| CliError::Io(format!("saving lineage to {dir}: {e}")))?;
                    eprintln!("[sockscope] lineage written to {dir}");
                }
            }
            if let Some(path) = save {
                StudySnapshot::capture(&report.study)
                    .save(std::path::Path::new(&path))
                    .map_err(|e| snapshot_error(&format!("saving snapshot {path}"), e))?;
                eprintln!("[sockscope] snapshot written to {path}");
            }
            let quarantined = report.total_quarantined();
            if let Some(max) = max_quarantined {
                if quarantined > max {
                    return Err(CliError::QuarantineExceeded { quarantined, max });
                }
            }
            if quarantined > 0 {
                eprintln!(
                    "[sockscope] supervised crawl quarantined {quarantined} site(s); exit status 5"
                );
            }
            let status = if quarantined > 0 { 5 } else { 0 };
            Ok((report.render(), status))
        }
        Command::Report(source) => {
            let study = obtain_study(&source)?;
            Ok((StudyReport::from_study(study).render(), 0))
        }
        Command::Table(n, source, csv) => {
            let study = obtain_study(&source)?;
            use sockscope::analysis::tables::*;
            Ok((
                match (n, csv) {
                    (1, true) => Table1::compute(&study).to_csv(),
                    (1, false) => Table1::compute(&study).render(),
                    (2, _) => format!("{}\n{PAPER_TABLE2}", Table2::compute(&study, 15).render()),
                    (3, _) => format!("{}\n{PAPER_TABLE3}", Table3::compute(&study, 15).render()),
                    (4, _) => format!("{}\n{PAPER_TABLE4}", Table4::compute(&study, 15).render()),
                    (_, true) => Table5::compute(&study).to_csv(),
                    (_, false) => Table5::compute(&study).render(),
                },
                0,
            ))
        }
        Command::Figure3(source, csv) => {
            let study = obtain_study(&source)?;
            let fig = sockscope::analysis::figures::Figure3::compute(&study, None, 10_000);
            Ok((if csv { fig.to_csv() } else { fig.render() }, 0))
        }
        Command::TextStats(source) => {
            let study = obtain_study(&source)?;
            Ok((
                sockscope::analysis::textstats::TextStats::compute(&study).render(),
                0,
            ))
        }
        Command::Churn(source) => {
            let study = obtain_study(&source)?;
            Ok((
                sockscope::analysis::churn::Churn::compute(&study).render(40),
                0,
            ))
        }
        Command::Categories(source) => {
            let study = obtain_study(&source)?;
            Ok((
                sockscope::analysis::categories::CategoryBreakdown::compute(&study).render(),
                0,
            ))
        }
        Command::Blocking(source) => {
            let study = obtain_study(&source)?;
            let stats = sockscope::analysis::textstats::TextStats::compute(&study);
            Ok((
                format!(
                    "post-hoc rule-list analysis:\n  A&A-socket chains blockable: {:.1}% (paper ~5%)\n  all A&A chains blockable:    {:.1}% (paper ~27%)\n",
                    stats.pct_socket_chains_blocked, stats.pct_aa_chains_blocked
                ),
                0,
            ))
        }
        Command::Inspect {
            from,
            receiver,
            limit,
        } => {
            let study = obtain_study(&Source::Snapshot(from))?;
            let mut out = String::new();
            let mut shown = 0usize;
            let mut total = 0usize;
            use std::fmt::Write as _;
            for idx in 0..study.crawl_count() {
                for c in study.classified(idx) {
                    if c.receiver != receiver {
                        continue;
                    }
                    total += 1;
                    if shown < limit {
                        shown += 1;
                        let _ = writeln!(
                            out,
                            "[{}] {} -> {}  sent: {:?}",
                            study.reductions[idx].label, c.initiator, c.obs.url, c.obs.sent_items
                        );
                    }
                }
            }
            let _ = writeln!(out, "({shown} of {total} sockets to {receiver} shown)");
            Ok((out, 0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_run_with_knobs() {
        let cmd = parse(&args(&[
            "run",
            "--sites",
            "500",
            "--seed",
            "0xABC",
            "--threads",
            "2",
            "--save",
            "out.json",
        ]))
        .unwrap();
        match cmd {
            Command::Run {
                config,
                save,
                checkpoint_dir,
                resume,
                max_quarantined,
                lineage_dir,
            } => {
                assert_eq!(config.n_sites, 500);
                assert_eq!(config.seed, 0xABC);
                assert_eq!(config.threads, 2);
                assert_eq!(save.as_deref(), Some("out.json"));
                assert_eq!(checkpoint_dir, None);
                assert!(!resume);
                assert_eq!(max_quarantined, None);
                assert_eq!(lineage_dir, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_checkpoint_flags() {
        let cmd = parse(&args(&[
            "run",
            "--sites",
            "40",
            "--checkpoint-dir",
            "journal",
            "--resume",
        ]))
        .unwrap();
        match cmd {
            Command::Run {
                checkpoint_dir,
                resume,
                ..
            } => {
                assert_eq!(checkpoint_dir.as_deref(), Some("journal"));
                assert!(resume);
            }
            other => panic!("unexpected {other:?}"),
        }
        // --resume is meaningless without a journal to resume from.
        assert!(parse(&args(&["run", "--resume"])).is_err());
    }

    #[test]
    fn error_classes_map_to_distinct_exit_codes() {
        assert_eq!(CliError::Config("x".into()).exit_code(), 2);
        assert_eq!(CliError::Io("x".into()).exit_code(), 3);
        assert_eq!(CliError::Corrupt("x".into()).exit_code(), 4);
        // Snapshot errors split between I/O and corruption.
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        assert_eq!(snapshot_error("ctx", SnapshotError::Io(io)).exit_code(), 3);
        assert_eq!(
            snapshot_error("ctx", SnapshotError::Version(9)).exit_code(),
            4
        );
        // A dirty journal on a fresh run is a configuration mistake.
        assert_eq!(
            checkpoint_error(CheckpointError::DirNotEmpty("j".into())).exit_code(),
            2
        );
        // A breached quarantine ceiling fails the run with exit 3.
        let exceeded = CliError::QuarantineExceeded {
            quarantined: 7,
            max: 2,
        };
        assert_eq!(exceeded.exit_code(), 3);
        assert!(exceeded.to_string().contains("--max-quarantined"));
    }

    #[test]
    fn parses_max_quarantined() {
        let cmd = parse(&args(&["run", "--sites", "40", "--max-quarantined", "3"])).unwrap();
        match cmd {
            Command::Run {
                max_quarantined, ..
            } => assert_eq!(max_quarantined, Some(3)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&args(&["run", "--max-quarantined", "lots"])).is_err());
        assert!(parse(&args(&["run", "--max-quarantined"])).is_err());
    }

    #[test]
    fn quarantine_drives_the_exit_status() {
        let run = |faults: Option<FaultProfile>, max_quarantined: Option<usize>| {
            execute_with_status(Command::Run {
                config: StudyConfig {
                    n_sites: 60,
                    threads: 2,
                    faults,
                    ..StudyConfig::default()
                },
                save: None,
                checkpoint_dir: None,
                resume: false,
                max_quarantined,
                lineage_dir: None,
            })
        };
        // Clean run: status 0.
        let (_, status) = run(None, None).unwrap();
        assert_eq!(status, 0);
        // Poisoned run completes but reports quarantine through status 5.
        let (text, status) = run(Some(FaultProfile::poison()), None).unwrap();
        assert_eq!(status, 5);
        assert!(text.contains("Quarantine accounting"));
        // A generous ceiling keeps status 5; a breached ceiling is exit 3.
        let (_, status) = run(Some(FaultProfile::poison()), Some(60)).unwrap();
        assert_eq!(status, 5);
        match run(Some(FaultProfile::poison()), Some(0)) {
            Err(e @ CliError::QuarantineExceeded { .. }) => assert_eq!(e.exit_code(), 3),
            other => panic!("expected quarantine error, got {other:?}"),
        }
    }

    #[test]
    fn missing_snapshot_is_an_io_error() {
        match execute(Command::Report(Source::Snapshot(
            "/nonexistent/sockscope-snap.json".into(),
        ))) {
            Err(CliError::Io(_)) => {}
            other => panic!("expected io error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_snapshot_is_a_corrupt_error() {
        let dir = std::env::temp_dir().join("sockscope-cli-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{not json").unwrap();
        match execute(Command::Report(Source::Snapshot(
            path.to_string_lossy().into_owned(),
        ))) {
            Err(CliError::Corrupt(_)) => {}
            other => panic!("expected corrupt error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parses_orchestrator_knobs() {
        let cmd = parse(&args(&[
            "run",
            "--sites",
            "40",
            "--workers",
            "4",
            "--queue-depth",
            "16",
        ]))
        .unwrap();
        match cmd {
            Command::Run { config, .. } => {
                assert_eq!(config.workers, Some(4));
                assert_eq!(config.queue_depth, 16);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Degenerate knob values are rejected up front.
        for (flag, value) in [
            ("--threads", "0"),
            ("--workers", "0"),
            ("--queue-depth", "0"),
            ("--workers", "many"),
        ] {
            let err = parse(&args(&["run", flag, value])).unwrap_err();
            assert!(err.0.starts_with(flag), "{flag} {value}: {err}");
        }
        // The removed driver selectors are plain unknown options now.
        for flag in ["--streaming", "--orchestrated", "--static-shards"] {
            assert_eq!(
                parse(&args(&["run", flag])),
                Err(ParseError(format!("unknown option {flag}")))
            );
        }
    }

    #[test]
    fn parses_table_and_sources() {
        assert_eq!(
            parse(&args(&["table", "3", "--from", "snap.json"])).unwrap(),
            Command::Table(3, Source::Snapshot("snap.json".into()), false)
        );
        assert_eq!(
            parse(&args(&["table", "1", "--csv", "--from", "snap.json"])).unwrap(),
            Command::Table(1, Source::Snapshot("snap.json".into()), true)
        );
        assert_eq!(
            parse(&args(&["figure3", "--csv"])).unwrap(),
            Command::Figure3(
                Source::Fresh(StudyConfig {
                    n_sites: 8000,
                    ..StudyConfig::default()
                }),
                true
            )
        );
        assert!(parse(&args(&["table", "9"])).is_err());
        assert!(parse(&args(&["table"])).is_err());
    }

    #[test]
    fn parses_fault_profiles() {
        let cmd = parse(&args(&["run", "--sites", "40", "--faults", "heavy"])).unwrap();
        match cmd {
            Command::Run { config, .. } => {
                assert_eq!(config.faults, Some(FaultProfile::heavy()));
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(&args(&["report", "--faults", "none"])).unwrap();
        match cmd {
            Command::Report(Source::Fresh(config)) => {
                assert_eq!(config.faults, Some(FaultProfile::none()));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&args(&["run", "--faults", "catastrophic"])).is_err());
        assert!(parse(&args(&["run", "--faults"])).is_err());
    }

    #[test]
    fn parses_eras_and_lineage_dir() {
        let cmd = parse(&args(&["run", "--sites", "40", "--eras", "7"])).unwrap();
        match cmd {
            Command::Run { config, .. } => {
                assert_eq!(config.timeline.len(), 7);
                assert!(!config.timeline.is_paper());
            }
            other => panic!("unexpected {other:?}"),
        }
        // The timeline seed follows --seed regardless of flag order.
        let before = parse(&args(&["run", "--eras", "5", "--seed", "BEEF"])).unwrap();
        let after = parse(&args(&["run", "--seed", "BEEF", "--eras", "5"])).unwrap();
        match (before, after) {
            (Command::Run { config: a, .. }, Command::Run { config: b, .. }) => {
                assert_eq!(a.timeline, b.timeline);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(&args(&["run", "--lineage-dir", "lin"])).unwrap();
        match cmd {
            Command::Run { lineage_dir, .. } => assert_eq!(lineage_dir.as_deref(), Some("lin")),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&args(&["run", "--eras", "0"])).is_err());
        assert!(parse(&args(&["run", "--eras", "soon"])).is_err());
        assert!(parse(&args(&["run", "--eras"])).is_err());
    }

    #[test]
    fn end_to_end_longitudinal_run_writes_a_lineage() {
        let dir =
            std::env::temp_dir().join(format!("sockscope-cli-lineage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = parse(&args(&[
            "run",
            "--sites",
            "50",
            "--threads",
            "2",
            "--eras",
            "5",
            "--lineage-dir",
            &dir.to_string_lossy(),
        ]))
        .unwrap();
        let out = execute(cmd).unwrap();
        assert!(out.contains("Era drift (longitudinal run)"));
        let lineage = SnapshotLineage::load(&dir).unwrap();
        assert_eq!(lineage.era_count(), 5);
        // Every era reconstructs without error from the saved chain.
        for k in 0..5 {
            assert!(!lineage.reconstruct(k).unwrap().is_empty());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn evolving_run_without_lineage_dir_still_reports_era_drift() {
        let cmd = parse(&args(&[
            "run",
            "--sites",
            "40",
            "--threads",
            "2",
            "--eras",
            "3",
        ]))
        .unwrap();
        let out = execute(cmd).unwrap();
        assert!(out.contains("Era drift (longitudinal run)"));
    }

    #[test]
    fn rejects_unknown() {
        assert!(parse(&args(&["frobnicate"])).is_err());
        assert!(parse(&args(&["run", "--bogus", "1"])).is_err());
        assert!(parse(&args(&["run", "--sites"])).is_err());
    }

    #[test]
    fn help_paths() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args(&["--help"])).unwrap(), Command::Help);
        assert!(execute(Command::Help).unwrap().contains("USAGE"));
    }

    #[test]
    fn inspect_requires_from_and_receiver() {
        assert!(parse(&args(&["inspect", "--from", "x.json"])).is_err());
        assert!(parse(&args(&["inspect", "--receiver", "zopim.com"])).is_err());
        let ok = parse(&args(&[
            "inspect",
            "--from",
            "x.json",
            "--receiver",
            "zopim.com",
            "--limit",
            "3",
        ]))
        .unwrap();
        assert_eq!(
            ok,
            Command::Inspect {
                from: "x.json".into(),
                receiver: "zopim.com".into(),
                limit: 3
            }
        );
    }

    #[test]
    fn timeline_executes_without_a_study() {
        let text = execute(Command::Timeline).unwrap();
        assert!(text.contains("129353"));
    }

    #[test]
    fn end_to_end_run_save_reload() {
        let dir = std::env::temp_dir().join("sockscope-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("mini.json");
        let snap_str = snap.to_string_lossy().to_string();
        // Tiny run with a snapshot.
        let out = execute(Command::Run {
            config: StudyConfig {
                n_sites: 60,
                threads: 2,
                ..StudyConfig::default()
            },
            save: Some(snap_str.clone()),
            checkpoint_dir: None,
            resume: false,
            max_quarantined: None,
            lineage_dir: None,
        })
        .unwrap();
        assert!(out.contains("Table 1"));
        // Re-analyze from the snapshot without crawling.
        let table = execute(Command::Table(1, Source::Snapshot(snap_str.clone()), false)).unwrap();
        assert!(table.contains("Table 1"));
        let csv = execute(Command::Table(1, Source::Snapshot(snap_str.clone()), true)).unwrap();
        assert!(csv.starts_with("crawl,pct_sites_ws"));
        let table2 = execute(Command::Table(2, Source::Snapshot(snap_str.clone()), false)).unwrap();
        assert!(table2.contains("Table 2"));
        assert!(table2.ends_with(PAPER_TABLE2));
        let stats = execute(Command::TextStats(Source::Snapshot(snap_str))).unwrap();
        assert!(stats.contains("cross-origin"));
        std::fs::remove_file(&snap).ok();
    }

    #[test]
    fn end_to_end_checkpointed_run_and_resume() {
        let dir =
            std::env::temp_dir().join(format!("sockscope-cli-checkpoint-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StudyConfig {
            n_sites: 40,
            threads: 2,
            ..StudyConfig::default()
        };
        let run = |resume: bool| {
            execute(Command::Run {
                config: config.clone(),
                save: None,
                checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
                resume,
                max_quarantined: None,
                lineage_dir: None,
            })
        };
        let fresh = run(false).unwrap();
        assert!(fresh.contains("Resume provenance"));
        assert!(fresh.contains("mode:                 fresh"));
        // A second fresh run into the same journal is a config error...
        match run(false) {
            Err(CliError::Config(_)) => {}
            other => panic!("expected config error, got {other:?}"),
        }
        // ...while --resume recovers every shard without re-crawling.
        let resumed = run(true).unwrap();
        assert!(resumed.contains("mode:                 resumed"));
        assert!(resumed.contains("shards re-crawled:    0"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
