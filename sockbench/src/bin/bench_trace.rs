//! `bench_trace`: the per-layer trace of one workload (`bench --trace 1`
//! runs this). It installs an allocator that counts allocations while the
//! traced crawl runs; `bench` leaves counting out because it slows the
//! end-to-end jobs.

use sockbench::host::HostRecord;
use sockbench::trace;
use sockbench::{Args, MetricRecord, RunRecord, OUT_DIR, USAGE};
use sockscope_exec::memmeter::CountingAlloc;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

/// Whether allocations go through [`CountingAlloc`] right now. A
/// statistic switch: it publishes no data, so `Relaxed` suffices.
static COUNTING: AtomicBool = AtomicBool::new(false);

/// [`System`], or [`CountingAlloc`] over [`System`] while [`COUNTING`]
/// is set. A block may be freed through the other path than it was
/// allocated through; both free it with `System`, and only the meter's
/// live-byte figure, which the trace does not read, drifts.
struct SwitchedAlloc;

// SAFETY: every method forwards its arguments unchanged to an allocator
// whose memory comes from `System`, so a pointer allocated through either
// path is valid to free, grow or shrink through either path.
unsafe impl GlobalAlloc for SwitchedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            CountingAlloc.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            CountingAlloc.alloc_zeroed(layout)
        } else {
            System.alloc_zeroed(layout)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Relaxed) {
            CountingAlloc.dealloc(ptr, layout)
        } else {
            System.dealloc(ptr, layout)
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            CountingAlloc.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }
}

#[global_allocator]
static ALLOCATOR: SwitchedAlloc = SwitchedAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match Args::parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = HostRecord::current();
    let out = Path::new(OUT_DIR);
    let spec = parsed.job(out.join(format!("trace-work-{}", std::process::id())));
    let outcome = trace::run(&spec, &|on| COUNTING.store(on, Relaxed));
    let _ = std::fs::remove_dir_all(&spec.dir);
    let run = match outcome {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let spans = out.join(format!("trace-{}.jsonl", spec.workload.name()));
    if let Err(e) = std::fs::write(&spans, run.spans.join("\n") + "\n") {
        eprintln!("[bench] could not write {}: {e}", spans.display());
    }
    let correct = run.problems.is_empty();
    RunRecord {
        workload: spec.workload.name().into(),
        seed: spec.seed,
        trace: true,
        cores: host.cores,
        mem_total_mib: host.mem_total_mib,
        rustc: host.rustc,
        commit: host.commit,
        correct,
        attempted: 1,
        failed: 0,
        problems: run.problems,
        metrics: run
            .metrics
            .iter()
            .map(|&(name, unit, value)| MetricRecord::single(name, unit, value))
            .collect(),
        jobs: Vec::new(),
    }
    .emit();
    std::process::exit(if correct { 0 } else { 1 });
}
