//! Every workload, run on tiny universes through the same library path the
//! benchmark takes, emits exactly the metrics `BENCHMARK.json` names, with
//! the units it names, and passes its output checks.

use serde_json::Value;
use sockbench::job::{self, JobSpec};
use sockbench::workload::Workload;
use sockbench::{e2e, trace};
use std::path::PathBuf;

/// Sites per universe: enough for every workload's invariants (poison
/// quarantines something), small enough for an unoptimised build.
const TINY_SITES: usize = 6;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn named(list: &str) -> Vec<(String, String)> {
    let json = benchmark_json();
    let entries = json.get(list).and_then(Value::as_array).expect(list);
    entries
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn tiny(workload: Workload, test: &str) -> JobSpec {
    JobSpec {
        workload,
        sites: TINY_SITES,
        seed: 7,
        dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{test}-{}", workload.name())),
    }
}

#[test]
fn workloads_are_the_ones_benchmark_json_lists() {
    let json = benchmark_json();
    let listed: Vec<&str> = json
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(listed, Workload::ALL.map(Workload::name));
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let want = named("end_to_end");
    for w in Workload::ALL {
        let spec = tiny(w, "e2e");
        let measured = e2e::measure(&spec, 0.0, &job::run);
        assert!(measured.correct(), "{}: {:?}", w.name(), measured.problems);
        // Two universes at the shortest run length, once per pass.
        assert_eq!(measured.attempted, 2 * w.passes() as u64);
        assert_eq!(measured.jobs.len(), 2 * w.passes());
        let got: Vec<(String, String)> = measured
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect();
        assert_eq!(got, want, "{}", w.name());
        for m in &measured.metrics {
            assert!(m.value > 0.0, "{}: {} is {}", w.name(), m.name, m.value);
            assert_eq!(m.n, 2, "{}: {}", w.name(), m.name);
        }
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    let want = named("per_layer");
    for w in Workload::ALL {
        let spec = tiny(w, "trace");
        let run = trace::run(&spec, &|_| {}).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let _ = std::fs::remove_dir_all(&spec.dir);
        assert!(run.problems.is_empty(), "{}: {:?}", w.name(), run.problems);
        let got: Vec<(String, String)> = run
            .metrics
            .iter()
            .map(|(name, unit, _)| (name.to_string(), unit.to_string()))
            .collect();
        assert_eq!(got, want, "{}", w.name());
        let value = |name: &str| run.metrics.iter().find(|m| m.0 == name).expect(name).2;
        // The crawl layers sum to the traced crawl time.
        let layers: f64 = [
            "webgen.self_s",
            "browser.self_s",
            "inclusion.push_s",
            "analysis.classify_s",
            "analysis.page_reduce_s",
            "analysis.fold_s",
            "analysis.normalize_s",
        ]
        .iter()
        .map(|n| value(n))
        .sum();
        assert!((layers - value("trace.crawl_s")).abs() < 1e-9);
        assert_eq!(
            value("crawler.site_samples"),
            (TINY_SITES * w.eras()) as f64
        );
        assert_eq!(value("crawler.quarantined") > 0.0, w == Workload::Poison);
        assert!(value("trace.overhead_ratio") > 0.0);
        assert!(run.spans.iter().any(|l| l.contains("\"kind\":\"page\"")));
    }
}
