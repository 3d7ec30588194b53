//! Trace tap: run any (workload, model) cell — or resume a TPCK
//! checkpoint, or replay a fuzzer reproducer — with the `tp-events` bus
//! attached, and write Chrome trace-event JSON (loads directly in
//! perfetto / `chrome://tracing`) plus an optional metrics document.
//!
//! ```text
//! tracetap --workload NAME [--size tiny|small|full|long] [--model M] [--budget N]
//! tracetap --ckpt PATH [--interval N] [--model M]
//! tracetap --fuzz-seed S [--isa synth|rv] [--machine paper|small]
//!          [--config default|small] [--model M] [--budget N]
//! ```
//!
//! Common flags: `--out PATH` (Chrome trace JSON, default
//! `tracetap.trace.json`) and `--metrics PATH` (the `MetricsSink` counters
//! and distributions of the same run — the `metrics` payload of a
//! `tp-bench/metrics/v1` cell — only written when requested).
//!
//! * `--workload` runs a fresh simulator on a named workload for up to
//!   `--budget` retired instructions (default 200 000).
//! * `--ckpt` boots a detailed interval from a TPCK checkpoint (the
//!   source program is found by fingerprint, the model defaults to the
//!   checkpoint's warmed selection) and captures `--interval` retired
//!   instructions (default 10 000).
//! * `--fuzz-seed` regenerates the fuzzer program for a seed, emits it
//!   through the chosen frontend, and runs it under the same
//!   oracle-verified configuration the fuzzer uses — so a divergence
//!   reported by the `fuzz` binary replays here with full event capture,
//!   and the capture survives even if the run errors or panics.
//! * `--sample` (with `--workload`) captures a *sampled* run instead:
//!   every detailed interval lands on one coherent timeline — timestamps
//!   offset by the cycles of earlier legs plus the instructions skipped
//!   by the functional legs — and each interval is stamped with an
//!   instant marker carrying its index and retired-instruction offset.
//!   `--rounds N` bounds the number of intervals (default 16).
//!
//! The exit status is non-zero if the captured run ended in a simulator
//! error; the trace documents are written either way — capturing the
//! events leading up to a failure is the whole point of the tap.

use tp_bench::cli::{
    self, boot_checkpoint, file_error, find_program, read_checkpoint, usage_error,
    validated_config, warm_model,
};
use tp_bench::speed::size_name;
use tp_bench::tap::{capture_interval, capture_program, capture_sampled, Capture};
use tp_core::CiModel;
use tp_fuzz::harness::{Harness, Isa};
use tp_fuzz::{emit_rv_source, generate, FuzzConfig};
use tp_workloads::Size;

fn usage() -> ! {
    usage_error(
        "usage: tracetap --workload NAME [--size tiny|small|full|long] [--model M] [--budget N]\n\
         \x20      tracetap --workload NAME --sample [--rounds N] [--model M]\n\
         \x20      tracetap --ckpt PATH [--interval N] [--model M]\n\
         \x20      tracetap --fuzz-seed S [--isa synth|rv] [--machine paper|small]\n\
         \x20               [--config default|small] [--model M] [--budget N]\n\
         common: --out PATH (default tracetap.trace.json), --metrics PATH\n\
         models: base|RET|MLB-RET|FG|FG+MLB-RET",
    );
}

struct Args {
    workload: Option<String>,
    size: Size,
    ckpt: Option<String>,
    interval: u64,
    fuzz_seed: Option<u64>,
    isa: Isa,
    small_machine: bool,
    config: FuzzConfig,
    model: Option<CiModel>,
    budget: u64,
    out: String,
    metrics: Option<String>,
    sample: bool,
    rounds: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        size: Size::Tiny,
        ckpt: None,
        interval: 10_000,
        fuzz_seed: None,
        isa: Isa::Synth,
        small_machine: false,
        config: FuzzConfig::default(),
        model: None,
        budget: 200_000,
        out: String::from("tracetap.trace.json"),
        metrics: None,
        sample: false,
        rounds: 16,
    };
    let mut it = cli::Args::from_env();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => args.workload = Some(it.value("--workload")),
            "--size" => args.size = it.size("--size"),
            "--ckpt" => args.ckpt = Some(it.value("--ckpt")),
            "--interval" => args.interval = it.num("--interval"),
            "--fuzz-seed" => args.fuzz_seed = Some(it.num("--fuzz-seed")),
            "--isa" => args.isa = it.pick("--isa", &[("synth", Isa::Synth), ("rv", Isa::Rv)]),
            "--machine" => {
                args.small_machine = it.pick("--machine", &[("paper", false), ("small", true)]);
            }
            "--config" => {
                args.config = it.pick(
                    "--config",
                    &[("default", FuzzConfig::default()), ("small", FuzzConfig::small())],
                );
            }
            "--model" => args.model = Some(it.model("--model")),
            "--budget" => args.budget = it.num("--budget"),
            "--out" => args.out = it.value("--out"),
            "--metrics" => args.metrics = Some(it.value("--metrics")),
            "--sample" => args.sample = true,
            "--rounds" => args.rounds = it.num("--rounds"),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let modes = usize::from(args.workload.is_some())
        + usize::from(args.ckpt.is_some())
        + usize::from(args.fuzz_seed.is_some());
    if modes != 1 {
        usage();
    }
    if args.sample {
        let Some(name) = &args.workload else {
            eprintln!("--sample requires --workload");
            usage();
        };
        run_sampled_capture(&args, name);
        return;
    }
    let (label, cap) = if let Some(name) = &args.workload {
        run_workload(&args, name)
    } else if let Some(path) = &args.ckpt {
        run_checkpoint(&args, path)
    } else {
        run_fuzz_seed(&args, args.fuzz_seed.expect("mode checked above"))
    };
    write_doc(&args.out, &cap.chrome_json);
    if let Some(path) = &args.metrics {
        write_doc(path, &cap.metrics_json.to_string());
    }
    println!(
        "{label}: {} retired, {} cycles{}{}",
        cap.retired,
        cap.cycles,
        if cap.halted { ", halted" } else { "" },
        match &cap.error {
            Some(e) => format!(" — run ended in error: {e}"),
            None => String::new(),
        }
    );
    if cap.error.is_some() {
        std::process::exit(1);
    }
}

fn write_doc(path: &str, body: &str) {
    std::fs::write(path, body).unwrap_or_else(|e| {
        eprintln!("writing {path}: {e}");
        std::process::exit(1);
    });
    println!("{path}: {} bytes", body.len());
}

fn run_sampled_capture(args: &Args, name: &str) {
    let w = cli::workload(name, args.size);
    let model = args.model.unwrap_or(CiModel::MlbRet);
    let cfg = validated_config(model);
    let sample = tp_bench::sampled::default_sample_for(args.size);
    let cap = capture_sampled(&w.program, w.frontend, &cfg, &sample, args.rounds);
    write_doc(&args.out, &cap.chrome_json);
    println!(
        "{name}/{} under {}: {} sampled intervals, {} instrs covered{}",
        size_name(args.size),
        model.name(),
        cap.intervals,
        cap.total_instrs,
        if cap.halted { ", halted" } else { " (round budget reached)" }
    );
}

fn run_workload(args: &Args, name: &str) -> (String, Capture) {
    let w = cli::workload(name, args.size);
    let model = args.model.unwrap_or(CiModel::MlbRet);
    let cfg = validated_config(model);
    let label = format!("{name}/{} ({}) under {}", size_name(args.size), w.frontend, model.name());
    (label, capture_program(&w.program, cfg, args.budget))
}

fn run_checkpoint(args: &Args, path: &str) -> (String, Capture) {
    let ckpt = read_checkpoint(path);
    let (program, size, _) = find_program(&ckpt).unwrap_or_else(|msg| file_error(path, msg));
    // Default the model to the checkpoint's warmed trace selection, the
    // same derivation `ckpt verify` uses; `--model` overrides it.
    let model = args.model.unwrap_or_else(|| warm_model(&ckpt));
    let cfg = validated_config(model);
    let mut sim = boot_checkpoint(path, &ckpt, &program, cfg);
    let label = format!(
        "{}/{} resumed at {} retired under {}",
        ckpt.program_name,
        size_name(size),
        ckpt.retired,
        model.name()
    );
    (label, capture_interval(&mut sim, args.interval))
}

fn run_fuzz_seed(args: &Args, seed: u64) -> (String, Capture) {
    let ast = generate(&args.config, seed);
    let name = format!("fuzz-{seed}");
    let program = match args.isa {
        Isa::Synth => tp_fuzz::emit::emit_synth(&ast, &name),
        Isa::Rv => tp_fuzz::emit::emit_rv(&ast, &name).unwrap_or_else(|e| {
            eprintln!("seed {seed}: rv emission failed: {e}");
            eprintln!("--- rv64 rendering ---\n{}", emit_rv_source(&ast));
            std::process::exit(1);
        }),
    };
    let model = args.model.unwrap_or(CiModel::MlbRet);
    let harness = Harness { small_machine: args.small_machine, ..Harness::default() };
    let label = format!(
        "fuzz seed {seed} ({} frontend, {} machine) under {} (oracle on)",
        args.isa,
        if args.small_machine { "small" } else { "paper" },
        model.name()
    );
    (label, capture_program(&program, harness.config(model), args.budget))
}
