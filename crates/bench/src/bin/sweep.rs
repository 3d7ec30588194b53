//! Parallel configuration sweep over the full experiment grid.
//!
//! Runs every workload under the four trace-selection baselines (Table 3)
//! and the four control-independence models (Figures 9/10) — one
//! (workload, config) cell per core — and prints a workload × config IPC
//! matrix.
//!
//! Usage: `cargo run --release -p tp-bench --bin sweep [tiny|small|full]`
//! (default `small`; the paper's numbers use `full`).

use std::time::Instant;

use tp_bench::speed::parse_size;
use tp_bench::sweep::{run_sweep_parallel, SweepJob};
use tp_core::{CiModel, TraceProcessorConfig};
use tp_stats::Table;
use tp_trace::SelectionConfig;
use tp_workloads::{suite, Size};

fn main() {
    let size = match std::env::args().nth(1) {
        None => Size::Small,
        Some(s) => parse_size(&s).filter(|&size| size != Size::Long).unwrap_or_else(|| {
            tp_bench::cli::usage_error(format!("unknown size {s:?}; expected tiny|small|full"))
        }),
    };
    let configs: Vec<(&str, TraceProcessorConfig)> = vec![
        ("base", TraceProcessorConfig::baseline(SelectionConfig::base())),
        ("b(ntb)", TraceProcessorConfig::baseline(SelectionConfig::with_ntb())),
        ("b(fg)", TraceProcessorConfig::baseline(SelectionConfig::with_fg())),
        ("b(fg,ntb)", TraceProcessorConfig::baseline(SelectionConfig::with_fg_ntb())),
        ("RET", TraceProcessorConfig::paper(CiModel::Ret)),
        ("MLB-RET", TraceProcessorConfig::paper(CiModel::MlbRet)),
        ("FG", TraceProcessorConfig::paper(CiModel::Fg)),
        ("FG+MLB-RET", TraceProcessorConfig::paper(CiModel::FgMlbRet)),
    ];
    for (label, cfg) in &configs {
        tp_bench::cli::validated(cfg.clone(), label);
    }
    let workloads = suite(size);
    let jobs: Vec<SweepJob<'_>> = workloads
        .iter()
        .flat_map(|w| {
            configs.iter().map(|(label, cfg)| SweepJob {
                workload: w.name,
                label: (*label).to_string(),
                program: &w.program,
                cfg: cfg.clone(),
            })
        })
        .collect();
    let cells = jobs.len();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    eprintln!("sweeping {cells} cells on {cores} cores...");
    let t = Instant::now();
    let results = run_sweep_parallel(jobs);
    let elapsed = t.elapsed();

    let labels: Vec<&str> = configs.iter().map(|(l, _)| *l).collect();
    let mut table = Table::new("IPC", &labels);
    for chunk in results.chunks(configs.len()) {
        let ipcs: Vec<f64> = chunk.iter().map(|r| r.summary.stats.ipc()).collect();
        table.row(chunk[0].workload, &ipcs);
    }
    println!("{table}");
    eprintln!("swept {cells} cells in {:.1}s", elapsed.as_secs_f64());
}
