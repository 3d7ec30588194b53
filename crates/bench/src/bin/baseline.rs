//! Speed baseline harness: runs the workload suite under the full
//! five-model control-independence matrix and emits `BENCH_speed.json`
//! (`tp-bench/speed/v2`; see README "Benchmarking").
//!
//! Usage:
//!
//! ```text
//! baseline [--smoke | --size tiny|small|full|long] [--suite synth|rv|all]
//!          [--pes N[,N..]|--pe-sweep] [--guard] [--sample] [--ffwd-bench]
//!          [--out PATH]
//! ```
//!
//! `--smoke` (alias for `--size small`) is what CI runs; the checked-in
//! `BENCH_speed.json` comes from a `--size full --suite all` run (both
//! suites' cells, the rv section last). `--suite` selects the synthetic
//! kernels, the RV64 corpus, or both (default: synth). `--pe-sweep` adds
//! the 4/8/16 PE-count axis. `--guard` exits non-zero if any CI model
//! loses more than 1% IPC to the base model on any cell. `--sample`
//! switches to sampled execution (the only tractable mode for `--size
//! long`) and emits the `tp-bench/sampled/v3` schema instead, defaulting
//! `--out` to `BENCH_sampled.json`; it rejects
//! `--guard`/`--pes`/`--pe-sweep`, which only apply to the detailed grid.
//! `--ffwd-bench` additionally benchmarks the fast-forward engines
//! (interpreter vs superblock) on the *long*-size suite and embeds the
//! throughput report (`tp-bench/ffwd/v1`) as the detailed document's
//! `sampled` section — how the checked-in `BENCH_speed.json` records the
//! measured ffwd speedup.

use tp_bench::cli::{self, usage_error, Args};
use tp_bench::ffwd::{ffwd_section_json, run_ffwd_bench, speedup_geomean};
use tp_bench::sampled::{default_sample_for, run_sampled_grid_on, sampled_to_json};
use tp_bench::speed::{guard_violations, run_grid_on, to_json, SuiteChoice, SWEEP_PES};
use tp_core::{CiModel, TraceProcessorConfig};
use tp_workloads::Size;

fn main() {
    let mut size = Size::Full;
    let mut out: Option<String> = None;
    let mut pes: Vec<usize> = vec![16];
    let mut pes_set = false;
    let mut guard = false;
    let mut sample = false;
    let mut ffwd_bench = false;
    let mut suite_choice = SuiteChoice::Synth;
    let mut args = Args::from_env();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => size = Size::Small,
            "--sample" => sample = true,
            "--ffwd-bench" => ffwd_bench = true,
            "--size" => size = args.size("--size"),
            "--suite" => suite_choice = args.suite("--suite"),
            "--pes" => {
                pes = args
                    .value("--pes")
                    .split(',')
                    .map(|p| cli::parse_num("--pes", p))
                    .collect::<Result<_, _>>()
                    .unwrap_or_else(|e| usage_error(e));
                pes_set = true;
            }
            "--pe-sweep" => {
                pes = SWEEP_PES.to_vec();
                pes_set = true;
            }
            "--guard" => guard = true,
            "--out" => out = Some(args.value("--out")),
            other => usage_error(format!(
                "unknown argument {other:?}\n\
                 usage: baseline [--smoke | --size tiny|small|full|long] \
                 [--suite synth|rv|all] [--pes N[,N..]|--pe-sweep] [--guard] [--sample] \
                 [--ffwd-bench] [--out PATH]"
            )),
        }
    }
    // Validate every configuration the grid will run, reporting the
    // offending field instead of panicking mid-grid (a bad `--pes` value
    // lands here).
    for model in CiModel::ALL {
        for &p in &pes {
            let mut cfg = TraceProcessorConfig::paper(model);
            cfg.num_pes = p;
            cli::validated(cfg, model.name());
        }
    }
    if sample {
        // Reject flags the sampled grid does not honour rather than
        // silently ignoring them (a no-op --guard would be a false green).
        if guard || pes_set || ffwd_bench {
            usage_error("--sample does not support --guard/--pes/--pe-sweep/--ffwd-bench");
        }
        // Sampled output is a different schema; never default onto the
        // checked-in detailed baseline.
        let out = out.unwrap_or_else(|| String::from("BENCH_sampled.json"));
        let sample_cfg = default_sample_for(size);
        let cells = run_sampled_grid_on(&suite_choice.workloads(size), &CiModel::ALL, &sample_cfg);
        println!(
            "{:<10} {:<11} {:>10} {:>4} {:>7} {:>6} {:>8} {:>7}",
            "bench", "model", "instrs", "K", "frac%", "ipc", "ci95", "secs"
        );
        for c in &cells {
            let r = &c.run;
            println!(
                "{:<10} {:<11} {:>10} {:>4} {:>7.1} {:>6.2} {:>8.3} {:>7.2}",
                c.workload,
                c.model.name(),
                r.total_instrs,
                r.intervals.len(),
                100.0 * r.detailed_fraction(),
                r.ipc_estimate(),
                r.ipc_ci95(),
                r.wall_seconds,
            );
        }
        let json = sampled_to_json(&cells, size, &sample_cfg);
        std::fs::write(&out, json.to_string()).unwrap_or_else(|e| panic!("writing {out}: {e}"));
        println!("wrote {out}");
        return;
    }
    let out = out.unwrap_or_else(|| String::from("BENCH_speed.json"));
    let cells = run_grid_on(&suite_choice.workloads(size), &CiModel::ALL, &pes);
    println!(
        "{:<10} {:<11} {:>3} {:>9} {:>9} {:>6} {:>8} {:>7} {:>7} {:>12}",
        "bench",
        "model",
        "pes",
        "instrs",
        "cycles",
        "ipc",
        "brmisp%",
        "trmisp%",
        "secs",
        "instrs/sec"
    );
    for c in &cells {
        let s = &c.stats;
        println!(
            "{:<10} {:<11} {:>3} {:>9} {:>9} {:>6.2} {:>8.1} {:>7.1} {:>7.2} {:>12.0}",
            c.workload,
            c.model.name(),
            c.pes,
            s.retired_instrs,
            s.cycles,
            s.ipc(),
            s.branch_misp_rate(),
            s.trace_misp_rate(),
            c.wall_seconds,
            c.instrs_per_sec()
        );
    }
    let total_wall: f64 = cells.iter().map(|c| c.wall_seconds).sum();
    let total_instrs: u64 = cells.iter().map(|c| c.stats.retired_instrs).sum();
    println!(
        "total: {} cells, {:.2}s wall, {:.0} instrs/sec",
        cells.len(),
        total_wall,
        total_instrs as f64 / total_wall.max(1e-9)
    );
    // The fast-forward throughput section always measures the long-size
    // suite — the regime where fast-forward is the wall-clock floor and
    // where the ≥10x gate is defined — regardless of the detailed grid's
    // `--size`.
    let sampled_section = if ffwd_bench {
        let model = CiModel::MlbRet;
        let ffwd_cells = run_ffwd_bench(&suite_choice.workloads(Size::Long), model);
        for c in &ffwd_cells {
            println!(
                "ffwd: {:<10} {:>10} instrs, interp {:>12.0} i/s, superblock {:>12.0} i/s \
                 ({:.1}x)",
                c.workload,
                c.instrs,
                c.interp_ips,
                c.superblock_ips,
                c.speedup()
            );
        }
        println!(
            "ffwd: geomean speedup {:.1}x (long suite, {})",
            speedup_geomean(&ffwd_cells),
            model.name()
        );
        Some(ffwd_section_json(&ffwd_cells, Size::Long, model))
    } else {
        None
    };
    let json = to_json(&cells, size, sampled_section);
    std::fs::write(&out, json.to_string()).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");
    if guard {
        let violations = guard_violations(&cells);
        if !violations.is_empty() {
            eprintln!("CI-model dominance guard FAILED:");
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
        println!("guard: no CI model loses >1% IPC to base on any cell");
    }
}
