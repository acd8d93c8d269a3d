//! `bench compare BEFORE AFTER`: checks two sets of end-to-end runs, as
//! logged in `target/bench/results.jsonl`, against the regression bounds
//! `BENCHMARK.json` fixes.
//!
//! For every workload and metric it reports each set's median and
//! quartiles over its runs. A metric *regressed* when the second median is
//! worse than the first by more than its allowance ([`stats::allowance`]);
//! it is *unresolved* when either set's spread (quartile distance over the
//! median) exceeds the bound, because then the bound cannot tell a change
//! from noise.

use crate::stats::{self, Better, Summary};
use crate::workload::Workload;
use crate::RunRecord;
use serde_json::Value;

/// `setup_s` may always worsen by this much. A set-up build lasts about
/// 2 ms at the benchmark's sizes, and a scheduler tick or a burst of page
/// faults costs a few hundred microseconds; below 1 ms the share alone
/// would judge a faster set-up on that jitter.
pub const SETUP_FLOOR_S: f64 = 0.000_25;

/// One end-to-end metric's regression rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening, as a share of the first set's median.
    pub bound: f64,
}

impl Bound {
    /// The absolute floor under this metric's allowance.
    pub fn floor(&self) -> f64 {
        if self.name == "setup_s" {
            SETUP_FLOOR_S
        } else {
            0.0
        }
    }
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json` text.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let v: Value = serde_json::from_str(benchmark_json).map_err(|e| e.to_string())?;
    let metrics = v
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k}"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .into(),
                better: Better::parse(field("better")?.as_str().unwrap_or(""))
                    .ok_or("better is neither lower nor higher")?,
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Parses a run log: one [`RunRecord`] per line.
pub fn records(log: &str) -> Result<Vec<RunRecord>, String> {
    log.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).map_err(|e| format!("bad run record: {e}")))
        .collect()
}

fn values(records: &[RunRecord], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload && !r.trace && r.correct)
        .filter_map(|r| r.metrics.iter().find(|m| m.name == metric))
        .map(|m| m.value)
        .collect()
}

/// The comparison table, and whether every metric held its bound.
pub fn compare(bounds: &[Bound], before: &[RunRecord], after: &[RunRecord]) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = format!(
        "{:<13} {:<18} {:>12} {:>7} {:>12} {:>7} {:>6}  verdict\n",
        "workload", "metric", "before", "spread", "after", "spread", "bound"
    );
    let mut ok = true;
    for w in Workload::ALL.map(Workload::name) {
        for b in bounds {
            let (Some(x), Some(y)) = (
                Summary::of(&values(before, w, &b.name)),
                Summary::of(&values(after, w, &b.name)),
            ) else {
                continue;
            };
            let verdict = if stats::regressed(b.better, x.median, y.median, b.bound, b.floor()) {
                "REGRESSED"
            } else if b.name != "setup_s" && (x.spread() > b.bound || y.spread() > b.bound) {
                "unresolved"
            } else {
                "ok"
            };
            ok &= verdict == "ok";
            let _ = writeln!(
                out,
                "{w:<13} {:<18} {:>12.4} {:>6.1}% {:>12.4} {:>6.1}% {:>5.0}%  {verdict}",
                b.name,
                x.median,
                100.0 * x.spread(),
                y.median,
                100.0 * y.spread(),
                100.0 * b.bound
            );
        }
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricRecord;

    fn record(workload: &str, site_crawls_per_s: f64, setup_s: f64) -> RunRecord {
        RunRecord {
            workload: workload.into(),
            seed: 1,
            trace: false,
            cores: 2,
            mem_total_mib: 1,
            rustc: String::new(),
            commit: String::new(),
            correct: true,
            attempted: 3,
            failed: 0,
            problems: Vec::new(),
            metrics: vec![
                MetricRecord::single("site_crawls_per_s", "1/s", site_crawls_per_s),
                MetricRecord::single("setup_s", "s", setup_s),
            ],
            jobs: Vec::new(),
        }
    }

    const JSON: &str = r#"{"end_to_end": [
        {"name": "site_crawls_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#;

    #[test]
    fn reads_bounds_from_benchmark_json() {
        let b = bounds(JSON).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].better, Better::Higher);
        assert_eq!(b[1].floor(), SETUP_FLOOR_S);
        assert_eq!(b[0].floor(), 0.0);
        assert!(bounds("{}").is_err());
    }

    #[test]
    fn flags_regressions_beyond_the_bound_only() {
        let b = bounds(JSON).unwrap();
        let before: Vec<_> = [1000.0, 1010.0, 990.0]
            .map(|v| record("paper", v, 0.0017))
            .into();
        let slower: Vec<_> = [880.0, 890.0, 870.0]
            .map(|v| record("paper", v, 0.0030))
            .into();
        let (table, ok) = compare(&b, &before, &slower);
        assert!(!ok);
        assert!(table.contains("REGRESSED"));
        // 0.2 ms worse on 1.7 ms is inside the 25% setup bound; 5% slower
        // throughput is inside the 10% bound.
        let close: Vec<_> = [950.0, 960.0, 940.0]
            .map(|v| record("paper", v, 0.0019))
            .into();
        let (table, ok) = compare(&b, &before, &close);
        assert!(ok, "{table}");
    }

    #[test]
    fn wide_spreads_are_unresolved() {
        let b = bounds(JSON).unwrap();
        let noisy: Vec<_> = [700.0, 1000.0, 1300.0, 1000.0]
            .map(|v| record("scale", v, 0.0017))
            .into();
        let (table, ok) = compare(&b, &noisy, &noisy);
        assert!(!ok);
        assert!(table.contains("unresolved"));
    }
}
