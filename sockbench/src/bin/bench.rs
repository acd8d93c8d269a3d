//! `bench`: the sockscope benchmark.
//!
//! * `bench --workload W [--seed N] [--seconds S] --trace 0` measures the
//!   end-to-end metrics, running each job in a fresh child process
//!   (`bench job …`) so its peak RSS is its own.
//! * `--trace 1` hands the same arguments to `bench_trace`, the sibling
//!   binary that counts allocations.
//! * `bench compare BEFORE.jsonl AFTER.jsonl` checks two run logs against
//!   the bounds in `BENCHMARK.json`.

use sockbench::host::HostRecord;
use sockbench::job::{self, JobResult, JobSpec};
use sockbench::workload::Workload;
use sockbench::{compare, e2e, Args, RunRecord, OUT_DIR, USAGE};
use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("job") => job_child(&args[1..]),
        Some("compare") => compare_logs(&args[1..]),
        _ => run(&args),
    };
    std::process::exit(code);
}

fn run(args: &[String]) -> i32 {
    let parsed = match Args::parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    let exe = std::env::current_exe().expect("own executable path");
    if parsed.trace {
        let trace = exe.with_file_name("bench_trace");
        return match Command::new(&trace).args(args).status() {
            Ok(status) => status.code().unwrap_or(1),
            Err(e) => {
                eprintln!("error: running {}: {e}", trace.display());
                1
            }
        };
    }
    let host = HostRecord::current();
    let spec = parsed.job(Path::new(OUT_DIR).join(format!("work-{}", std::process::id())));
    let pin = e2e::check_pin();
    let mut measured = e2e::measure(&spec, parsed.seconds, &|spec| run_child(&exe, spec));
    measured.problems.extend(pin.err());
    let correct = measured.correct();
    RunRecord {
        workload: spec.workload.name().into(),
        seed: spec.seed,
        trace: false,
        cores: host.cores,
        mem_total_mib: host.mem_total_mib,
        rustc: host.rustc,
        commit: host.commit,
        correct,
        attempted: measured.attempted,
        failed: measured.failed,
        problems: measured.problems,
        metrics: measured.metrics,
        jobs: measured.jobs,
    }
    .emit();
    if correct {
        0
    } else {
        1
    }
}

/// Runs one job in a child process and reads back its result line.
fn run_child(exe: &Path, spec: &JobSpec) -> Result<JobResult, String> {
    let out = Command::new(exe)
        .arg("job")
        .args(["--workload", spec.workload.name()])
        .args(["--sites", &spec.sites.to_string()])
        .args(["--seed", &spec.seed.to_string()])
        .arg("--dir")
        .arg(&spec.dir)
        .output()
        .map_err(|e| format!("starting a job: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("job failed ({}): {}", out.status, stderr.trim()));
    }
    e2e::parse_job_line(stdout.lines().last().unwrap_or(""))
}

/// `bench job --workload W --sites N --seed S --dir D`: one job, in this
/// process, printing its result as one JSON line.
fn job_child(args: &[String]) -> i32 {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let spec = (|| {
        Some(JobSpec {
            workload: Workload::from_name(&flag("--workload")?)?,
            sites: flag("--sites")?.parse().ok()?,
            seed: flag("--seed")?.parse().ok()?,
            dir: PathBuf::from(flag("--dir")?),
        })
    })();
    let Some(spec) = spec else {
        eprintln!("error: bench job needs --workload, --sites, --seed and --dir");
        return 2;
    };
    match job::run(&spec) {
        Ok(result) => {
            println!(
                "{}",
                serde_json::to_string(&result).expect("job result serializes")
            );
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn compare_logs(args: &[String]) -> i32 {
    let [before, after] = args else {
        eprintln!("{USAGE}");
        return 2;
    };
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| compare::records(&text))
    };
    let loaded = (|| {
        let bounds = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("reading BENCHMARK.json: {e}"))
            .and_then(|text| compare::bounds(&text))?;
        Ok::<_, String>((bounds, read(before)?, read(after)?))
    })();
    match loaded {
        Ok((bounds, before, after)) => {
            let (table, ok) = compare::compare(&bounds, &before, &after);
            print!("{table}");
            if ok {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}
