//! Checkpoint tool: create, inspect, and verify checkpoint files, plus the
//! CI smoke that validates the whole sampled pipeline.
//!
//! ```text
//! ckpt create  --workload NAME [--size S] [--model M] [--ffwd N] --out PATH
//! ckpt inspect PATH
//! ckpt verify  PATH [--resume N]
//! ckpt smoke   [--out PATH]
//! ```
//!
//! `verify` identifies the source program by fingerprint (searching the
//! workload suite across sizes), then proves the checkpoint resumes
//! bit-exactly: the resumed functional machine is compared against a
//! straight run, the interpreter and superblock fast-forward engines are
//! re-run to the checkpoint's position and must produce byte-identical
//! TPCK captures, and a detailed interval booted from the checkpoint runs
//! under full oracle verification.
//!
//! `smoke` is what CI runs (`just sample-smoke`): create + inspect +
//! verify a checkpoint (written to `--out` and uploaded as an artifact),
//! prove the interpreter and superblock fast-forward engines agree byte
//! for byte on every workload of both suites (and the superblock engine
//! is no slower), cross-check sampled vs. full IPC on the tiny suite for
//! base and MLB-RET (must agree within 5%), and demonstrate the >= 3x
//! wall-clock speedup of sampled execution on the long gcc/go/compress
//! variants.

use tp_bench::cli::{
    self, boot_checkpoint, file_error, find_program, read_checkpoint, usage_error,
    validated_config, warm_model, Args,
};
use tp_bench::ffwd::{run_ffwd_bench, speedup_geomean};
use tp_bench::sampled::{cross_check, SampleConfig};
use tp_bench::speed::size_name;
use tp_ckpt::FastForward;
use tp_core::CiModel;
use tp_isa::func::Machine;
use tp_workloads::{all_workloads, suite, Size};

fn usage() -> ! {
    usage_error(
        "usage: ckpt create --workload NAME [--size tiny|small|full|long] \
         [--model base|RET|MLB-RET|FG|FG+MLB-RET] [--ffwd N] --out PATH\n\
         \x20      ckpt inspect PATH\n\
         \x20      ckpt verify PATH [--resume N]\n\
         \x20      ckpt smoke [--out PATH]",
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("create") => create(&args[1..]),
        Some("inspect") => inspect(&args[1..]),
        Some("verify") => verify(&args[1..]),
        Some("smoke") => smoke(&args[1..]),
        _ => usage(),
    }
}

fn create(args: &[String]) {
    let (mut workload, mut size, mut model) = (None, Size::Full, CiModel::None);
    let (mut ffwd_budget, mut out) = (20_000u64, None);
    let mut it = Args::new(args.to_vec());
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => workload = Some(it.value("--workload")),
            "--size" => size = it.size("--size"),
            "--model" => model = it.model("--model"),
            "--ffwd" => ffwd_budget = it.num("--ffwd"),
            "--out" => out = Some(it.value("--out")),
            _ => usage(),
        }
    }
    let (Some(workload), Some(out)) = (workload, out) else { usage() };
    let w = cli::workload(&workload, size);
    let cfg = validated_config(model);
    let mut ff = FastForward::new(&w.program, &cfg);
    ff.set_frontend(w.frontend);
    let s = ff.skip(ffwd_budget).unwrap_or_else(|e| panic!("{workload}: {e}"));
    let ckpt = ff.checkpoint();
    let bytes = ckpt.encode();
    std::fs::write(&out, &bytes).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!(
        "{out}: {} bytes; {workload}/{} ({}) {} after {} retired ({} traces{})",
        bytes.len(),
        size_name(size),
        w.frontend,
        cfg.selection.name(),
        ckpt.retired,
        s.traces,
        if s.halted { ", halted" } else { "" }
    );
}

fn inspect(args: &[String]) {
    let Some(path) = args.first() else { usage() };
    let ckpt = read_checkpoint(path);
    println!("program   : {} (fingerprint {:016x})", ckpt.program_name, ckpt.program_fingerprint);
    println!("frontend  : {}", ckpt.frontend);
    println!("pc        : {}", ckpt.pc);
    println!("retired   : {}", ckpt.retired);
    println!("halted    : {}", ckpt.halted);
    println!("mem delta : {} dirty words", ckpt.mem_delta.len());
    match &ckpt.warm {
        None => println!("warm      : none"),
        Some(w) => {
            println!(
                "warm      : selection {}, btb {} entries ({} indirect targets), gshare {} \
                 entries / {} history bits, ras {}/{}, predictor {}+{} entries, tcache {} \
                 lines ({}x{}), icache {} lines, dcache {} lines, history {}/{}",
                w.selection.name(),
                w.btb.counters.len(),
                w.btb.targets.len(),
                w.gshare.counters.len(),
                w.gshare.history_bits,
                w.ras.len(),
                w.ras_capacity,
                w.predictor.path.len(),
                w.predictor.simple.len(),
                w.tcache.len(),
                w.tcache_sets,
                w.tcache_ways,
                w.icache_lines.len(),
                w.dcache_lines.len(),
                w.history.len(),
                w.history_depth,
            );
        }
    }
}

fn verify(args: &[String]) {
    let Some(path) = args.first() else { usage() };
    let mut resume = 10_000u64;
    let mut it = Args::new(args[1..].to_vec());
    while let Some(a) = it.next() {
        match a.as_str() {
            "--resume" => resume = it.num("--resume"),
            _ => usage(),
        }
    }
    let ckpt = read_checkpoint(path);
    let (program, size, frontend) = find_program(&ckpt).unwrap_or_else(|msg| file_error(path, msg));
    println!("program   : {} at size {} ({frontend})", ckpt.program_name, size_name(size));

    // 1. Functional resume equals a straight run.
    let mut resumed = ckpt.machine(&program).expect("fingerprint verified");
    resumed.run(resume).expect("resume stays in program");
    let mut straight = Machine::new(&program);
    straight.run(resumed.retired()).expect("straight run stays in program");
    assert_eq!(resumed.pc(), straight.pc(), "resumed pc diverged");
    assert_eq!(resumed.arch_state(), straight.arch_state(), "resumed state diverged");
    println!(
        "resume    : OK ({} functional instructions, state bit-exact vs straight run)",
        resumed.retired() - ckpt.retired
    );

    let model = warm_model(&ckpt);

    // 2. The interpreter and superblock fast-forward engines agree byte
    // for byte at this checkpoint's position (meaningful for warmed
    // checkpoints, where the capture includes the warm images the two
    // engines build along different code paths).
    if ckpt.warm.is_some() && !ckpt.halted {
        let cfg = validated_config(model);
        let mut fast = FastForward::new(&program, &cfg);
        fast.set_frontend(frontend);
        fast.skip(ckpt.retired).expect("superblock fast-forward stays in program");
        let mut slow = FastForward::new(&program, &cfg);
        slow.set_frontend(frontend);
        slow.set_superblock(false);
        slow.skip(ckpt.retired).expect("interpreter fast-forward stays in program");
        assert_eq!(
            fast.checkpoint().encode(),
            slow.checkpoint().encode(),
            "superblock and interpreter fast-forward TPCK bytes diverge"
        );
        println!(
            "engines   : OK (interpreter and superblock TPCK bytes identical at {} retired)",
            ckpt.retired
        );
    }

    // 3. A detailed interval boots and runs under full oracle verification.
    let cfg = validated_config(model).with_oracle();
    let mut sim = boot_checkpoint(path, &ckpt, &program, cfg);
    let r = sim
        .run_interval(resume.min(5_000))
        .unwrap_or_else(|e| file_error(path, format!("detailed interval failed: {e}")));
    println!(
        "detailed  : OK ({} instructions retired oracle-verified under {}, ipc {:.3})",
        r.stats.retired_instrs,
        model.name(),
        r.stats.ipc()
    );
    println!("{path}: verified");
}

fn smoke(args: &[String]) {
    let mut out = String::from("ckpt_smoke.tpckpt");
    let mut it = Args::new(args.to_vec());
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.value("--out"),
            _ => usage(),
        }
    }
    // 1. Create, inspect, verify a checkpoint (the uploaded artifact).
    let fixed = "--workload gcc --size full --model MLB-RET --ffwd 20000 --out";
    let mut argv: Vec<String> = fixed.split(' ').map(String::from).collect();
    argv.push(out.clone());
    create(&argv);
    inspect(std::slice::from_ref(&out));
    verify(std::slice::from_ref(&out));

    // 2. The two fast-forward engines halt with byte-identical TPCK
    // checkpoints on every workload of both suites (run_ffwd_bench
    // asserts it), and the superblock engine is no slower than the
    // interpreter in aggregate.
    let ffwd_cells = run_ffwd_bench(&all_workloads(Size::Tiny), CiModel::MlbRet);
    for c in &ffwd_cells {
        println!(
            "ffwd      : {:<10} interp {:>12.0} i/s, superblock {:>12.0} i/s ({:.1}x, tpck ok)",
            c.workload,
            c.interp_ips,
            c.superblock_ips,
            c.speedup()
        );
    }
    let ffwd_geomean = speedup_geomean(&ffwd_cells);
    assert!(
        ffwd_geomean >= 1.0,
        "superblock fast-forward slower than the interpreter on the tiny suite \
         ({ffwd_geomean:.2}x)"
    );
    println!(
        "ffwd      : OK (all {} workloads byte-identical, geomean speedup {ffwd_geomean:.1}x)",
        ffwd_cells.len()
    );

    // 3. Sampled IPC within 5% of the full run on the tiny suite.
    let tiny = suite(Size::Tiny);
    let checks = cross_check(&tiny, &[CiModel::None, CiModel::MlbRet], &SampleConfig::dense());
    let mut worst: f64 = 0.0;
    for c in &checks {
        println!(
            "accuracy  : {:<10} {:<8} full {:.3} sampled {:.3} err {:.2}%",
            c.workload,
            c.model.name(),
            c.full_ipc,
            c.sampled.ipc_estimate(),
            c.rel_err_pct()
        );
        worst = worst.max(c.rel_err_pct());
    }
    assert!(
        worst <= 5.0,
        "sampled IPC diverges {worst:.2}% (> 5%) from the full run on the tiny suite"
    );
    println!("accuracy  : OK (worst error {worst:.2}% <= 5%)");

    // 4. Sampled execution of the long variants is >= 3x faster than a
    // full detailed run.
    let long = ["gcc", "go", "compress"].map(|name| cli::workload(name, Size::Long));
    let checks = cross_check(&long, &[CiModel::None], &SampleConfig::sparse());
    for c in &checks {
        println!(
            "speedup   : {:<10} {} instrs: detailed {:.1}s, sampled {:.1}s ({:.1}x, \
             ipc err {:.2}%)",
            c.workload,
            c.sampled.total_instrs,
            c.full_wall,
            c.sampled.wall_seconds,
            c.speedup(),
            c.rel_err_pct()
        );
    }
    let full_wall: f64 = checks.iter().map(|c| c.full_wall).sum();
    let sampled_wall: f64 = checks.iter().map(|c| c.sampled.wall_seconds).sum();
    let speedup = full_wall / sampled_wall;
    assert!(
        speedup >= 3.0,
        "sampled long suite only {speedup:.1}x faster than detailed (need >= 3x)"
    );
    println!("speedup   : OK ({speedup:.1}x >= 3x on the long suite)");
    println!("smoke     : all checks passed; artifact at {out}");
}
