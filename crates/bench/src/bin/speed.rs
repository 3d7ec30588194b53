//! Quick calibration probe: IPC and misprediction profile per workload.
//!
//! Usage: `speed [--size tiny|small|full|long] [--suite synth|rv|all]
//! [--sample] [--ckpt DIR] [--ffwd-bench [--out PATH] [--gate MIN]]
//! [--events-guard PCT]`
//!
//! Default is a full detailed run of each workload under the base model.
//! `--suite` selects the synthetic kernels, the RV64 corpus, or both
//! (default: synth). `--sample` switches to sampled execution
//! (fast-forward + detailed intervals; the only tractable mode for
//! `--size long`), printing the sampled IPC with its confidence interval,
//! coverage, and estimated cycles. `--ckpt DIR` additionally writes, per
//! workload, a functionally warmed checkpoint captured after one
//! skip-length of fast-forward from program start — a ready-made resume
//! point for `ckpt inspect`/`ckpt verify` or
//! `TraceProcessor::from_checkpoint` experiments.
//!
//! `--ffwd-bench` benchmarks the functional fast-forward engines instead:
//! each workload runs to halt under the reference interpreter and under
//! the superblock engine (asserting byte-identical TPCK checkpoints),
//! printing per-workload throughput and speedup. `--out PATH` writes the
//! `tp-bench/ffwd/v1` throughput JSON (the CI artifact); `--gate MIN`
//! exits non-zero if the geometric-mean speedup falls below `MIN` (CI
//! gates at 1.0: the superblock engine must never be slower).
//!
//! `--events-guard PCT` runs the disabled-bus overhead probe instead:
//! the tiny synthetic suite, bare vs with a `NullSink` attached (empty
//! interest mask — the compiled-in event bus with every emission site
//! masked off), alternating repetitions, minimum wall per variant. Exits
//! non-zero if the attached run is more than `PCT` percent slower (CI
//! gates at 1.0: the event bus must stay free when nobody listens).

use tp_bench::cli::{usage_error, validated_config, Args};
use tp_bench::ffwd::{ffwd_section_json, run_ffwd_bench, speedup_geomean};
use tp_bench::runner::{try_run_cell, CellRun};
use tp_bench::sampled::{default_sample_for, run_sampled_as};
use tp_bench::speed::SuiteChoice;
use tp_bench::tap::{measure_observability_overhead, ObsVariant};
use tp_ckpt::FastForward;
use tp_core::{CiModel, TraceProcessor, TraceProcessorConfig};
use tp_workloads::Size;

fn main() {
    let mut size = Size::Full;
    let mut sample = false;
    let mut ffwd_bench = false;
    let mut out: Option<String> = None;
    let mut gate: Option<f64> = None;
    let mut ckpt_dir: Option<String> = None;
    let mut events_guard: Option<f64> = None;
    let mut suite_choice = SuiteChoice::Synth;
    let mut args = Args::from_env();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--size" => size = args.size("--size"),
            "--suite" => suite_choice = args.suite("--suite"),
            "--sample" => sample = true,
            "--ffwd-bench" => ffwd_bench = true,
            "--out" => out = Some(args.value("--out")),
            "--gate" => gate = Some(args.num("--gate")),
            "--ckpt" => ckpt_dir = Some(args.value("--ckpt")),
            "--events-guard" => events_guard = Some(args.num("--events-guard")),
            other => usage_error(format!(
                "unknown argument {other:?}\n\
                 usage: speed [--size tiny|small|full|long] [--suite synth|rv|all] \
                 [--sample] [--ckpt DIR] [--ffwd-bench [--out PATH] [--gate MIN]] \
                 [--events-guard PCT]"
            )),
        }
    }
    if let Some(max_pct) = events_guard {
        run_events_guard(max_pct);
        return;
    }
    if ffwd_bench {
        run_ffwd_table(size, suite_choice, out.as_deref(), gate);
        return;
    }
    if out.is_some() || gate.is_some() {
        usage_error("--out/--gate only apply to --ffwd-bench");
    }
    let cfg = validated_config(CiModel::None);
    if sample {
        run_sampled_table(size, suite_choice, &cfg, ckpt_dir.as_deref());
    } else {
        run_detailed_table(size, suite_choice, &cfg);
    }
}

/// The disabled-bus overhead guard: with only a `NullSink` attached every
/// emission site is still masked off, so the attached run must track the
/// bare run to within `max_pct` percent. A small absolute slack floor
/// absorbs scheduler jitter on the short tiny-suite runs. The
/// metrics-attached and profiler-enabled variants pay for observation by
/// design, so their figures are printed for the record but never gated.
fn run_events_guard(max_pct: f64) {
    let probe = measure_observability_overhead(5);
    for v in ObsVariant::ALL {
        println!(
            "events-guard: tiny suite {:<16} {:.3}s ({:+.2}%)",
            v.label(),
            probe.seconds(v),
            probe.overhead_pct(v)
        );
    }
    let pct = probe.overhead_pct(ObsVariant::NullSink);
    let slack = 0.02; // seconds; tiny runs are short enough to jitter
    if probe.seconds(ObsVariant::NullSink)
        > probe.seconds(ObsVariant::Bare) * (1.0 + max_pct / 100.0) + slack
    {
        eprintln!("events-guard FAILED: NullSink overhead {pct:.2}% > {max_pct:.2}%");
        std::process::exit(1);
    }
    println!("events-guard: OK (null-sink <= {max_pct:.1}% + {slack:.2}s slack)");
}

fn run_ffwd_table(size: Size, suite_choice: SuiteChoice, out: Option<&str>, gate: Option<f64>) {
    // MLB-RET is the sampled flow's usual model; its selection (ntb cuts,
    // no fg padding) is the realistic per-trace warming cost.
    let model = CiModel::MlbRet;
    let cells = run_ffwd_bench(&suite_choice.workloads(size), model);
    println!(
        "{:<10} {:>10} {:>14} {:>14} {:>8} {:>5}",
        "bench", "instrs", "interp-i/s", "superblk-i/s", "speedup", "tpck"
    );
    for c in &cells {
        println!(
            "{:<10} {:>10} {:>14.0} {:>14.0} {:>7.1}x {:>5}",
            c.workload,
            c.instrs,
            c.interp_ips,
            c.superblock_ips,
            c.speedup(),
            if c.tpck_equal { "ok" } else { "FAIL" }
        );
    }
    let geomean = speedup_geomean(&cells);
    println!("geomean speedup: {geomean:.1}x (superblock over interpreter, {})", model.name());
    if let Some(path) = out {
        std::fs::write(path, ffwd_section_json(&cells, size, model).to_string())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
    if let Some(min) = gate {
        if geomean < min {
            eprintln!("ffwd gate FAILED: geomean speedup {geomean:.2}x < {min:.2}x");
            std::process::exit(1);
        }
        println!("ffwd gate: OK ({geomean:.1}x >= {min:.1}x)");
    }
}

fn run_detailed_table(size: Size, suite_choice: SuiteChoice, cfg: &TraceProcessorConfig) {
    println!(
        "{:<10} {:>9} {:>8} {:>6} {:>7} {:>7} {:>7} {:>7} {:>6} {:>6} {:>7} {:>7}",
        "bench",
        "instrs",
        "cycles",
        "ipc",
        "brmisp%",
        "trmisp%",
        "tc$m%",
        "tlen",
        "secs",
        "pred%",
        "fullsq",
        "disp"
    );
    for w in suite_choice.workloads(size) {
        let mut sim = TraceProcessor::new(&w.program, cfg.clone());
        match try_run_cell(&mut sim, w.name, "base") {
            Ok(CellRun { result, wall_seconds }) => {
                let s = result.stats;
                println!("{:<10} {:>9} {:>8} {:>6.2} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>6.1} {:>6.1} {:>7} {:>7}",
                    w.name, s.retired_instrs, s.cycles, s.ipc(), s.branch_misp_rate(),
                    s.trace_misp_rate(), s.tcache_miss_rate(), s.avg_trace_len(),
                    wall_seconds,
                    100.0 * s.predicted_traces as f64 / s.retired_traces.max(1) as f64,
                    s.full_squashes, s.dispatched_traces);
            }
            Err(e) => println!("{:<10} ERROR {}", w.name, &e[..120.min(e.len())]),
        }
    }
}

fn run_sampled_table(
    size: Size,
    suite_choice: SuiteChoice,
    cfg: &TraceProcessorConfig,
    ckpt_dir: Option<&str>,
) {
    let sample = default_sample_for(size);
    println!(
        "sampled mode: warmup {} / interval {} / mean skip {} instructions",
        sample.warmup, sample.interval, sample.skip
    );
    println!(
        "{:<10} {:>10} {:>4} {:>7} {:>9} {:>6} {:>8} {:>10} {:>6}",
        "bench", "instrs", "K", "frac%", "est-cyc", "ipc", "ci95", "ffwd", "secs"
    );
    for w in suite_choice.workloads(size) {
        let run = run_sampled_as(&w.program, w.frontend, cfg, &sample);
        println!(
            "{:<10} {:>10} {:>4} {:>7.1} {:>9.0} {:>6.2} {:>8.3} {:>10} {:>6.1}",
            w.name,
            run.total_instrs,
            run.intervals.len(),
            100.0 * run.detailed_fraction(),
            run.estimated_cycles(),
            run.ipc_estimate(),
            run.ipc_ci95(),
            run.ffwd_instrs,
            run.wall_seconds,
        );
        if let Some(dir) = ckpt_dir {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {dir}: {e}"));
            let mut ff = FastForward::new(&w.program, cfg);
            ff.set_frontend(w.frontend);
            ff.skip(sample.skip.max(sample.interval)).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let path = format!("{dir}/{}.tpckpt", w.name);
            std::fs::write(&path, ff.checkpoint().encode())
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
            println!("           wrote {path}");
        }
    }
}
