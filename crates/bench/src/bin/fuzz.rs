//! Differential fuzzer driver: generated structured programs through all
//! five control-independence models on both frontends, against the
//! functional oracle.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p tp-bench --bin fuzz -- \
//!     [--seed S] [--count N] [--budget B] [--config default|small] \
//!     [--jobs J] [--cfg-oracle] [--shrink] [--quiet]
//! ```
//!
//! * `--seed S`   first seed (default 0)
//! * `--count N`  number of seeds; `0` fuzzes forever (default 500)
//! * `--budget B` functional-oracle instruction budget per program
//! * `--config`   generator configuration (default `default`)
//! * `--machine`  simulated machine: `paper` (16 PEs) or `small` (4 PEs,
//!   short traces — keeps the window saturated; default `paper`)
//! * `--jobs J`   worker threads (default: available cores)
//! * `--cfg-oracle` also check every CGCI re-convergence detection against
//!   the static post-dominator analysis (`tp-cfg`); an unjustifiable
//!   detection is reported as a divergence
//! * `--shrink`   on divergence, shrink to a minimal reproducer and print
//!   its AST and RV64 source
//! * `--inject-bug` re-introduce the fixed CGCI retired-upstream stall
//!   bug, making divergences certain — a self-test of the whole
//!   divergence pipeline (reporting, event capture, shrinking)
//! * `--quiet`    suppress per-chunk progress
//!
//! Exit status is non-zero iff any seed diverged. Every divergent seed is
//! printed (`DIVERGE seed=... [isa model] detail`), so a failing run can
//! be replayed exactly with `--seed <seed> --count 1 --shrink`. Each
//! divergent seed whose failure reached simulation is additionally
//! re-run with the `tp-events` bus attached and the Chrome trace capture
//! is written to `divergence-<seed>.trace.json` in the working directory,
//! so the cycles leading up to the divergence can be inspected in
//! perfetto (the `tracetap` binary's `--fuzz-seed` mode reproduces the
//! same capture on demand).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tp_bench::cli::{usage_error, Args};
use tp_bench::tap::capture_program;
use tp_fuzz::emit::{emit_rv, emit_synth};
use tp_fuzz::gen::generate;
use tp_fuzz::harness::{Divergence, Harness, Isa, Outcome, SIM_SLACK};
use tp_fuzz::shrink::shrink;
use tp_fuzz::{emit_rv_source, FuzzConfig};

struct FuzzArgs {
    seed: u64,
    count: u64,
    budget: u64,
    config: FuzzConfig,
    small_machine: bool,
    jobs: usize,
    cfg_oracle: bool,
    inject_bug: bool,
    do_shrink: bool,
    quiet: bool,
}

fn parse_args() -> FuzzArgs {
    let mut args = FuzzArgs {
        seed: 0,
        count: 500,
        budget: 2_000_000,
        config: FuzzConfig::default(),
        small_machine: false,
        jobs: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        cfg_oracle: false,
        inject_bug: false,
        do_shrink: false,
        quiet: false,
    };
    let mut it = Args::from_env();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => args.seed = it.num("--seed"),
            "--count" => args.count = it.num("--count"),
            "--budget" => args.budget = it.num("--budget"),
            "--jobs" => args.jobs = it.num("--jobs"),
            "--config" => {
                args.config = it.pick(
                    "--config",
                    &[("default", FuzzConfig::default()), ("small", FuzzConfig::small())],
                );
            }
            "--machine" => {
                args.small_machine = it.pick("--machine", &[("paper", false), ("small", true)]);
            }
            "--cfg-oracle" => args.cfg_oracle = true,
            "--inject-bug" => args.inject_bug = true,
            "--shrink" => args.do_shrink = true,
            "--quiet" => args.quiet = true,
            other => usage_error(format!("unknown argument {other:?}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let harness = Harness {
        oracle_budget: args.budget,
        small_machine: args.small_machine,
        cfg_oracle: args.cfg_oracle,
        inject_cgci_stall_bug: args.inject_bug,
        ..Harness::default()
    };
    let next = AtomicU64::new(args.seed);
    let end = if args.count == 0 { u64::MAX } else { args.seed.saturating_add(args.count) };
    let checked = AtomicU64::new(0);
    let skipped = AtomicU64::new(0);
    let failures: Mutex<Vec<(u64, Divergence)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..args.jobs.max(1) {
            scope.spawn(|| loop {
                let seed = next.fetch_add(1, Ordering::Relaxed);
                if seed >= end {
                    break;
                }
                match harness.check_seed(&args.config, seed) {
                    Outcome::Pass { .. } => {}
                    Outcome::TooLong => {
                        skipped.fetch_add(1, Ordering::Relaxed);
                    }
                    Outcome::Diverged(d) => {
                        println!("DIVERGE seed={seed} {d}");
                        failures.lock().unwrap().push((seed, d));
                    }
                }
                let n = checked.fetch_add(1, Ordering::Relaxed) + 1;
                if !args.quiet && n.is_multiple_of(500) {
                    eprintln!(
                        "fuzz: {n} programs checked (through seed ~{seed}), {} skipped, {} divergent",
                        skipped.load(Ordering::Relaxed),
                        failures.lock().unwrap().len()
                    );
                }
            });
        }
    });

    let n = checked.load(Ordering::Relaxed);
    let failures = failures.into_inner().unwrap();
    eprintln!(
        "fuzz: done — {n} programs, {} skipped (over budget), {} divergent",
        skipped.load(Ordering::Relaxed),
        failures.len()
    );
    if failures.is_empty() {
        return;
    }
    for (seed, d) in &failures {
        capture_divergence(&harness, &args.config, *seed, d);
    }
    if args.do_shrink {
        for (seed, _) in &failures {
            shrink_and_print(&harness, &args.config, *seed);
        }
    }
    std::process::exit(1);
}

/// Replays a divergent seed with the `tp-events` bus attached and writes
/// the Chrome trace capture next to the reproducer output, preserving the
/// cycles leading up to the divergence. The capture survives a simulator
/// error or panic mid-replay — that failure point is exactly what the
/// trace is for.
fn capture_divergence(harness: &Harness, config: &FuzzConfig, seed: u64, d: &Divergence) {
    let Some(model) = d.model else {
        eprintln!("seed {seed}: divergence precedes simulation; no event capture");
        return;
    };
    let ast = generate(config, seed);
    let name = format!("fuzz-{seed}");
    let program = match d.isa {
        Isa::Synth => emit_synth(&ast, &name),
        Isa::Rv => match emit_rv(&ast, &name) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("seed {seed}: rv emission failed during event capture: {e}");
                return;
            }
        },
    };
    let budget = harness.oracle_budget.saturating_add(SIM_SLACK);
    let cap = capture_program(&program, harness.config(model), budget);
    let path = format!("divergence-{seed}.trace.json");
    match std::fs::write(&path, &cap.chrome_json) {
        Ok(()) => println!(
            "seed {seed}: event capture at {path} ({} retired, {} cycles{})",
            cap.retired,
            cap.cycles,
            match &cap.error {
                Some(e) => format!(", run ended: {e}"),
                None => String::new(),
            }
        ),
        Err(e) => eprintln!("seed {seed}: writing {path}: {e}"),
    }
}

/// Shrinks a divergent seed, preserving its first divergence's (isa,
/// model), and prints the minimal AST plus its RV64 rendering.
fn shrink_and_print(harness: &Harness, config: &FuzzConfig, seed: u64) {
    let ast = generate(config, seed);
    let Outcome::Diverged(orig) = harness.check_ast(&ast, "shrink") else {
        eprintln!("seed {seed}: divergence did not reproduce for shrinking");
        return;
    };
    let pred = |a: &tp_fuzz::FuzzAst| match harness.check_ast(a, "shrink") {
        Outcome::Diverged(d) => d.isa == orig.isa && d.model == orig.model,
        _ => false,
    };
    let before = ast.size();
    let (small, stats) = shrink(&ast, pred, 4_000);
    println!(
        "--- seed {seed}: shrunk {before} -> {} statements ({} evals) ---",
        small.size(),
        stats.evals
    );
    println!("{small:#?}");
    println!("--- rv64 rendering ---\n{}", emit_rv_source(&small));
}
