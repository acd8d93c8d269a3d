#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod e2e;
pub mod host;
pub mod job;
pub mod stats;
pub mod trace;
pub mod workload;

use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::path::{Path, PathBuf};
use workload::Workload;

/// The CLI's default universe seed; the workload pins hold at this seed.
pub const DEFAULT_SEED: u64 = 0x50C2_5C0F;

/// Where runs leave their logs, spans and scratch outputs, relative to the
/// working directory.
pub const OUT_DIR: &str = "target/bench";

/// Usage text of `bench` and `bench_trace`.
pub const USAGE: &str = "\
usage: bench --workload paper|longitudinal|scale|poison [--seed N] [--seconds S] [--trace 0|1]
       bench compare BEFORE.jsonl AFTER.jsonl";

/// Arguments of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Universe seed (decimal, or hex with `0x`).
    pub seed: u64,
    /// Target length of the end-to-end run; sizes its set of universes.
    pub seconds: f64,
    /// Run the per-layer trace instead of the end-to-end measurement.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds` and `--trace`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut parsed = Args {
            workload: Workload::Paper,
            seed: DEFAULT_SEED,
            seconds: 25.0,
            trace: false,
        };
        for pair in args.chunks(2) {
            let [flag, value] = pair else {
                return Err(format!("{} needs a value", pair[0]));
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => {
                    parsed.seed = match value.strip_prefix("0x") {
                        Some(hex) => u64::from_str_radix(hex, 16),
                        None => value.parse(),
                    }
                    .map_err(|_| format!("--seed expects an integer, got {value}"))?;
                }
                "--seconds" => {
                    parsed.seconds =
                        value
                            .parse()
                            .ok()
                            .filter(|s: &f64| *s > 0.0)
                            .ok_or_else(|| {
                                format!("--seconds expects a positive number, got {value}")
                            })?;
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace expects 0 or 1, got {value}")),
                    };
                }
                other => return Err(format!("unknown option {other}")),
            }
        }
        parsed.workload = workload.ok_or("--workload is required")?;
        Ok(parsed)
    }

    /// The job this run measures, with its outputs under `dir`.
    pub fn job(&self, dir: PathBuf) -> job::JobSpec {
        job::JobSpec {
            workload: self.workload,
            sites: self.workload.sites(),
            seed: self.seed,
            dir,
        }
    }
}

/// The last line a run prints: `correct`, `attempted`, `failed`, and each
/// metric's value with its unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[MetricRecord]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let body = vec![
                ("value".to_string(), Value::Float(m.value)),
                ("unit".to_string(), Value::Str(m.unit.clone())),
            ];
            (m.name.clone(), Value::Obj(body))
        })
        .collect();
    let line = Value::Obj(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::UInt(attempted)),
        ("failed".to_string(), Value::UInt(failed)),
        ("metrics".to_string(), Value::Obj(metrics)),
    ]);
    serde_json::to_string(&line).expect("result serializes")
}

/// One metric of a run: its value, and for end-to-end metrics the spread
/// of the per-universe values it combines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricRecord {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit of every number in the record.
    pub unit: String,
    /// The reported value.
    pub value: f64,
    /// First quartile of the samples.
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

impl MetricRecord {
    /// A record of `value`, with the spread of the samples behind it.
    pub fn new(name: &str, unit: &str, value: f64, samples: &stats::Summary) -> MetricRecord {
        MetricRecord {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            q1: samples.q1,
            q3: samples.q3,
            min: samples.min,
            max: samples.max,
            n: samples.n,
        }
    }

    /// A record of one single measurement.
    pub fn single(name: &str, unit: &str, value: f64) -> MetricRecord {
        let one = stats::Summary::of(&[value]).expect("one value");
        MetricRecord::new(name, unit, value, &one)
    }
}

/// Everything one run measured, as appended to `target/bench/results.jsonl`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Universe seed.
    pub seed: u64,
    /// `true` for a per-layer trace run.
    pub trace: bool,
    /// Host cores.
    pub cores: usize,
    /// Host memory, MiB.
    pub mem_total_mib: u64,
    /// Toolchain.
    pub rustc: String,
    /// Commit of the working directory, when it is a git checkout.
    pub commit: String,
    /// Every check passed.
    pub correct: bool,
    /// Jobs (or traces) started.
    pub attempted: u64,
    /// Jobs (or traces) that did not finish.
    pub failed: u64,
    /// Failed checks.
    pub problems: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<MetricRecord>,
    /// The end-to-end jobs the metrics summarise; empty for a trace.
    pub jobs: Vec<e2e::JobSample>,
}

impl RunRecord {
    /// Prints the human-readable table to standard error and the result
    /// line to standard output, and appends the record to the run log.
    pub fn emit(&self) {
        eprintln!(
            "[bench] {} seed {:#X} on {} cores, {} MiB, {}, commit {}",
            self.workload, self.seed, self.cores, self.mem_total_mib, self.rustc, self.commit
        );
        eprintln!(
            "{:<44} {:>14} {:>14} {:>14} {:>14} {:>14} {:>4}  unit",
            "metric", "value", "q1", "q3", "min", "max", "n"
        );
        for m in &self.metrics {
            eprintln!(
                "{:<44} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>4}  {}",
                m.name, m.value, m.q1, m.q3, m.min, m.max, m.n, m.unit
            );
        }
        for p in &self.problems {
            eprintln!("[bench] CHECK FAILED: {p}");
        }
        if let Err(e) = self.append_to(&Path::new(OUT_DIR).join("results.jsonl")) {
            eprintln!("[bench] could not append to the run log: {e}");
        }
        println!(
            "{}",
            result_line(self.correct, self.attempted, self.failed, &self.metrics)
        );
    }

    fn append_to(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let line = serde_json::to_string(self).expect("record serializes");
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(file, "{line}")?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_run_arguments() {
        let a = Args::parse(&args(&[
            "--workload",
            "scale",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Workload::Scale);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        let hex = Args::parse(&args(&["--workload", "paper", "--seed", "0x50C25C0F"])).unwrap();
        assert_eq!(hex.seed, DEFAULT_SEED);
        assert!(!hex.trace);
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "heavy"],
            &["--workload", "paper", "--trace", "2"],
            &["--workload", "paper", "--seconds", "0"],
            &["--workload", "paper", "--seed"],
            &["--workload", "paper", "--frobnicate", "1"],
        ] {
            assert!(Args::parse(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 3, 0, &[MetricRecord::single("setup_s", "s", 0.8127)]);
        let v: Value = serde_json::from_str(&line).unwrap();
        let Value::Obj(fields) = &v else {
            panic!("not an object: {line}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    }
}
