//! Metrics/profiling report and perf-trend regression gate.
//!
//! Two modes:
//!
//! * **Report** (default): runs the metrics collection grid — every
//!   selected workload under every selected model with the full-interest
//!   [`MetricsSink`](tp_metrics::MetricsSink) and the host stage profiler
//!   attached — and prints per-cell distribution, stage-profile and
//!   work-counter tables (the simulator's deterministic bookkeeping per
//!   1000 retired instructions: global registers allocated, reader-list
//!   pushes, register-file sweeps). `--json PATH` writes the
//!   `tp-bench/metrics/v1` document, `--md PATH` the markdown report.
//!   `--sample` additionally runs each cell under sampled simulation and
//!   appends the cold/steady/ffwd phase series.
//!
//! * **Diff** (`--diff OLD NEW`): compares two harness JSON documents
//!   (`tp-bench/speed/v2` or `tp-bench/metrics/v1`) cell by cell.
//!   Deterministic simulated figures (IPC, distribution percentiles)
//!   regress hard; host throughput only warns. `--gate` exits non-zero on
//!   any regression — the CI perf-trend step runs
//!   `simprof --diff BENCH_speed.json new.json --gate`. `--ipc-tol PCT`
//!   adjusts the IPC gate (default 1%), `--md PATH` writes the markdown
//!   artifact.
//!
//! Usage: `simprof [--size tiny|small|full|long] [--suite synth|rv|all]
//! [--workload NAME] [--model NAME] [--sample] [--json PATH] [--md PATH]`
//! or `simprof --diff OLD.json NEW.json [--gate] [--ipc-tol PCT]
//! [--md PATH]`.

use tp_bench::cli::{self, usage_error, Args};
use tp_bench::json;
use tp_bench::metrics::{
    collect_grid, collect_phases, diff_documents, metrics_to_json, metrics_to_markdown,
    DiffThresholds, MetricsCell, PhaseReport,
};
use tp_bench::sampled::default_sample_for;
use tp_bench::speed::SuiteChoice;
use tp_core::CiModel;
use tp_workloads::Size;

fn usage() -> ! {
    usage_error(
        "usage: simprof [--size tiny|small|full|long] [--suite synth|rv|all] \
         [--workload NAME] [--model base|RET|MLB-RET|FG|FG+MLB-RET] [--sample] \
         [--json PATH] [--md PATH]\n\
         \x20      simprof --diff OLD.json NEW.json [--gate] [--ipc-tol PCT] [--md PATH]",
    );
}

fn main() {
    let mut size = Size::Tiny;
    let mut suite_choice = SuiteChoice::Synth;
    let mut workload: Option<String> = None;
    let mut model: Option<CiModel> = None;
    let mut sample = false;
    let mut json_out: Option<String> = None;
    let mut md_out: Option<String> = None;
    let mut diff: Option<(String, String)> = None;
    let mut gate = false;
    let mut thresholds = DiffThresholds::default();
    let mut args = Args::from_env();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--size" => size = args.size("--size"),
            "--suite" => suite_choice = args.suite("--suite"),
            "--workload" => workload = Some(args.value("--workload")),
            "--model" => model = Some(args.model("--model")),
            "--sample" => sample = true,
            "--json" => json_out = Some(args.value("--json")),
            "--md" => md_out = Some(args.value("--md")),
            "--diff" => diff = Some((args.value("--diff"), args.value("--diff"))),
            "--gate" => gate = true,
            "--ipc-tol" => thresholds.ipc_pct = args.num("--ipc-tol"),
            _ => usage(),
        }
    }
    if let Some((old_path, new_path)) = diff {
        run_diff(&old_path, &new_path, &thresholds, gate, md_out.as_deref());
        return;
    }
    if gate {
        usage_error("--gate only applies to --diff");
    }
    run_report(size, suite_choice, workload.as_deref(), model, sample, json_out, md_out);
}

fn run_report(
    size: Size,
    suite_choice: SuiteChoice,
    workload: Option<&str>,
    model: Option<CiModel>,
    sample: bool,
    json_out: Option<String>,
    md_out: Option<String>,
) {
    let workloads = match workload {
        Some(name) => vec![cli::workload(name, size)],
        None => suite_choice.workloads(size),
    };
    let models: Vec<CiModel> = match model {
        Some(m) => vec![m],
        None => CiModel::ALL.to_vec(),
    };
    let cells: Vec<MetricsCell> = collect_grid(&workloads, &models);
    let phases: Vec<PhaseReport> = if sample {
        let sc = default_sample_for(size);
        workloads.iter().flat_map(|w| models.iter().map(|&m| collect_phases(w, m, &sc))).collect()
    } else {
        Vec::new()
    };
    for c in &cells {
        println!(
            "== {} / {} — IPC {:.3}, {} instrs, {} cycles, {:.2}s host",
            c.workload,
            c.model.name(),
            c.stats.ipc(),
            c.stats.retired_instrs,
            c.stats.cycles,
            c.wall_seconds
        );
        print!("{}", c.metrics.table());
        print!("{}", c.profiler.table());
        print!("{}", c.work_table());
    }
    for p in &phases {
        let (cold, steady): (Vec<_>, Vec<_>) =
            p.points.iter().filter(|pt| pt.phase != "ffwd").partition(|pt| pt.phase == "cold");
        let ipc = |pts: &[&tp_bench::metrics::PhasePoint]| {
            let (i, c) = pts.iter().fold((0u64, 0u64), |(i, c), p| (i + p.instrs, c + p.cycles));
            if c == 0 {
                0.0
            } else {
                i as f64 / c as f64
            }
        };
        println!(
            "== {} / {} phases: cold ipc {:.3} ({} legs), steady ipc {:.3} ({} legs), \
             {} ffwd legs",
            p.workload,
            p.model.name(),
            ipc(&cold),
            cold.len(),
            ipc(&steady),
            steady.len(),
            p.points.iter().filter(|pt| pt.phase == "ffwd").count()
        );
    }
    if let Some(path) = json_out {
        std::fs::write(&path, metrics_to_json(&cells, size, &phases).to_string())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
    if let Some(path) = md_out {
        std::fs::write(&path, metrics_to_markdown(&cells, &phases))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}

fn run_diff(
    old_path: &str,
    new_path: &str,
    thresholds: &DiffThresholds,
    gate: bool,
    md_out: Option<&str>,
) {
    let read = |path: &str| -> json::Json {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            usage_error(format!("reading {path}: {e}"));
        });
        json::parse(&text).unwrap_or_else(|e| {
            usage_error(format!("parsing {path}: {e}"));
        })
    };
    let (old, new) = (read(old_path), read(new_path));
    let report = diff_documents(&old, &new, thresholds).unwrap_or_else(|e| {
        usage_error(format!("diff failed: {e}"));
    });
    println!(
        "perf-trend: {} cells compared, {} regressions, {} warnings",
        report.compared_cells,
        report.regressions.len(),
        report.warnings.len()
    );
    for r in &report.regressions {
        println!("REGRESSION {r}");
    }
    for w in &report.warnings {
        println!("warning    {w}");
    }
    if let Some(path) = md_out {
        std::fs::write(path, report.to_markdown())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
    if gate && !report.gate_ok() {
        eprintln!("perf-trend gate FAILED: {} regressions", report.regressions.len());
        std::process::exit(1);
    }
    if gate {
        println!("perf-trend gate: OK");
    }
}
