//! The traced benchmark binary.
//!
//! ```text
//! perfbench-traced --workload <name> --seed <n>
//! ```
//!
//! Runs every cell of the workload once with spans, the stage profiler and
//! the counting allocator, prints the per-layer metrics as its last line,
//! and writes the spans to `perfbench/out/trace-<workload>-seed<n>.json`
//! (Chrome trace-event format; open it in perfetto).

use std::process::ExitCode;

use perfbench::alloc::CountingAlloc;
use perfbench::{traced, Args};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const OUT_DIR: &str = "perfbench/out";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match Args::parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-traced: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (report, tracer) = traced::run(a.workload, a.seed);
    for (layer, ms) in tracer.self_times() {
        eprintln!("self time {layer:<10} {ms:>10.1} ms");
    }
    let path = format!("{OUT_DIR}/trace-{}-seed{}.json", a.workload.name(), a.seed);
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, tracer.chrome_json()));
    if let Err(e) = written {
        eprintln!("perfbench-traced: writing {path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("spans written to {path}");
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
