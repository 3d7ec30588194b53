//! Acceptance tests for the checkpointed fast-forward + sampled-simulation
//! subsystem (`tp-ckpt` + `tp_bench::sampled`):
//!
//! * checkpoint round-trips are bit-exact: fast-forward `n`, serialize,
//!   resume, run `m` more — equals a straight functional run of `n + m`
//!   (registers, memory digest, PC), across a seed/split grid;
//! * functional warming works: a detailed interval booted from a warmed
//!   checkpoint mispredicts less than the same interval booted cold;
//! * the sampled IPC estimate agrees with a full detailed run within 5%
//!   on the whole tiny suite for the base and MLB-RET models;
//! * the phase series and the sampled event capture observe exactly the
//!   intervals of a plain sampled run.

use tp_bench::sampled::{cross_check, Interval, SampleConfig};
use trace_processor::tp_ckpt::{Checkpoint, FastForward};
use trace_processor::tp_core::{CiModel, TraceProcessor, TraceProcessorConfig};
use trace_processor::tp_isa::asm::Asm;
use trace_processor::tp_isa::func::Machine;
use trace_processor::tp_isa::synth::{self, SynthConfig};
use trace_processor::tp_isa::{AluOp, Cond, Program, Reg};
use trace_processor::tp_workloads::{by_name, suite, Size};

fn mem_digest(m: &Machine<'_>) -> u64 {
    let st = m.arch_state();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (a, w) in &st.mem {
        for b in a.to_le_bytes().into_iter().chain((*w as u64).to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Property: for any (program, split n, continuation m), fast-forwarding
/// `n`, round-tripping the checkpoint through its binary encoding, and
/// resuming for `m` equals a straight functional run of the same length.
/// The grid is driven proptest-style from a deterministic generator over
/// synthetic program seeds and split points.
#[test]
fn ffwd_checkpoint_resume_equals_straight_run() {
    let cfg = TraceProcessorConfig::small(CiModel::MlbRet);
    let mut rng: u64 = 0x1234_5678;
    let mut next = move |bound: u64| {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (rng >> 33) % bound
    };
    for seed in [3u64, 17, 40] {
        let program = synth::generate(&SynthConfig::small(), seed);
        for _ in 0..4 {
            let n = 1 + next(4000);
            let m = 1 + next(4000);
            let mut ff = FastForward::new(&program, &cfg);
            ff.skip(n).expect("committed path stays in program");
            let ckpt = Checkpoint::decode(&ff.checkpoint().encode()).expect("round-trip");
            let mut resumed = ckpt.machine(&program).expect("same program");
            resumed.run(m).expect("resume stays in program");

            let mut straight = Machine::new(&program);
            straight.run(resumed.retired()).expect("straight run stays in program");
            let ctx = format!("seed {seed} n {n} m {m}");
            assert_eq!(resumed.pc(), straight.pc(), "{ctx}: pc");
            assert_eq!(resumed.arch_state().regs, straight.arch_state().regs, "{ctx}: regs");
            assert_eq!(mem_digest(&resumed), mem_digest(&straight), "{ctx}: memory digest");
            assert_eq!(resumed.retired(), straight.retired(), "{ctx}: retired");
        }
    }
}

/// A loop-exit kernel with a *learnable* trip-count pattern: the inner
/// loop runs `(outer & 3) + 1` iterations, so the exit branch follows a
/// short periodic pattern a path-based next-trace predictor can capture
/// given training time — exactly what functional warming provides.
fn periodic_loop_exit_kernel() -> Program {
    let mut a = Asm::new("periodic-loop-exit");
    let (i, trip, t, acc) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
    a.li(i, 2000);
    a.li(acc, 7);
    a.label("outer");
    a.alui(AluOp::And, trip, i, 3);
    a.addi(trip, trip, 1);
    a.label("inner");
    a.alui(AluOp::Mul, t, trip, 0x9E37_79B9u32 as i32);
    a.alu(AluOp::Add, acc, acc, t);
    a.addi(trip, trip, -1);
    a.branch(Cond::Gt, trip, Reg::ZERO, "inner");
    // Control-independent continuation.
    a.alui(AluOp::Xor, acc, acc, 0x55);
    a.addi(acc, acc, 3);
    a.addi(i, i, -1);
    a.branch(Cond::Gt, i, Reg::ZERO, "outer");
    a.halt();
    a.assemble().expect("valid program")
}

/// Functional warming must pay off: boot the same mid-run checkpoint twice
/// — once with its warmed predictor images, once stripped cold — and the
/// warmed interval's branch misprediction rate must beat the cold one.
#[test]
fn warmed_interval_mispredicts_less_than_cold() {
    let program = periodic_loop_exit_kernel();
    let cfg = TraceProcessorConfig::paper(CiModel::MlbRet);
    let mut ff = FastForward::new(&program, &cfg);
    ff.skip(6_000).expect("kernel stays in program");
    assert!(!ff.halted(), "kernel must outlast the warmed fast-forward");
    let ckpt = Checkpoint::decode(&ff.checkpoint().encode()).expect("round-trip");

    let misp_rate = |warm: bool| {
        let mut boot = ckpt.boot_image(&program, &cfg).expect("boot");
        if !warm {
            boot.warm = None;
        }
        let mut sim =
            TraceProcessor::from_checkpoint(&program, cfg.clone(), boot).expect("boot accepted");
        let r = sim.run_interval(2_000).expect("interval runs");
        assert!(r.stats.retired_cond_branches > 0);
        (
            r.stats.retired_cond_mispredicts,
            r.stats.retired_cond_branches,
            r.stats.branch_misp_rate(),
        )
    };
    let (warm_misp, warm_branches, warm_rate) = misp_rate(true);
    let (cold_misp, cold_branches, cold_rate) = misp_rate(false);
    assert_eq!(warm_branches, cold_branches, "same interval, same branches");
    assert!(
        warm_rate < cold_rate,
        "warming did not help: warm {warm_misp}/{warm_branches} ({warm_rate:.2}%) vs \
         cold {cold_misp}/{cold_branches} ({cold_rate:.2}%)"
    );
}

/// A committed store of *zero* over non-zero initial data must survive
/// the detailed-interval -> fast-forward handoff: the runner seeds the
/// resumed machine from the full committed memory image, not the
/// zero-normalized `arch_state` view. The kernel stores 0 over an
/// initially non-zero word mid-run and branches on it much later — if
/// the zero were lost across an adopt boundary, the reload would
/// resurrect the initial value and execute a large extra loop, changing
/// the total instruction count.
#[test]
fn zero_overwrite_survives_interval_handoff() {
    let mut a = Asm::new("zero-overwrite");
    let (r1, r2) = (Reg::new(1), Reg::new(2));
    a.li(r1, 60);
    a.label("l1");
    a.addi(r1, r1, -1);
    a.branch(Cond::Gt, r1, Reg::ZERO, "l1");
    a.store(Reg::ZERO, Reg::ZERO, 0x100); // zero over initial 1234
    a.li(r1, 150);
    a.label("l2");
    a.addi(r1, r1, -1);
    a.branch(Cond::Gt, r1, Reg::ZERO, "l2");
    a.load(r2, Reg::ZERO, 0x100);
    a.branch(Cond::Eq, r2, Reg::ZERO, "end");
    a.li(r1, 500); // only reachable if the zero store was lost
    a.label("l3");
    a.addi(r1, r1, -1);
    a.branch(Cond::Gt, r1, Reg::ZERO, "l3");
    a.label("end");
    a.halt();
    a.data_word(0x100, 1234);
    let program = a.assemble().expect("valid program");

    let mut straight = Machine::new(&program);
    straight.run(u64::MAX).expect("halts");

    let cfg = TraceProcessorConfig::paper(CiModel::None);
    // Small rounds so the store and the dependent load land in different
    // legs with adopt boundaries between them.
    let sample = SampleConfig { warmup: 30, interval: 100, skip: 80 };
    let run = tp_bench::sampled::run_sampled(&program, &cfg, &sample);
    assert_eq!(
        run.total_instrs,
        straight.retired(),
        "sampled run diverged: the zero store was lost across a handoff"
    );
}

/// The acceptance bar for sampled accuracy: on every tiny-suite workload,
/// under base and MLB-RET, the sampled IPC estimate is within 5% of the
/// full detailed run's IPC.
#[test]
fn sampled_ipc_within_5_percent_of_full_run() {
    let tiny = suite(Size::Tiny);
    let checks = cross_check(&tiny, &[CiModel::None, CiModel::MlbRet], &SampleConfig::dense());
    assert_eq!(checks.len(), 16, "8 workloads x 2 models");
    for c in &checks {
        assert!(
            c.rel_err_pct() <= 5.0,
            "{} {}: sampled {:.4} vs full {:.4} ({:.2}% error)",
            c.workload,
            c.model.name(),
            c.sampled.ipc_estimate(),
            c.full_ipc,
            c.rel_err_pct()
        );
    }
}

/// There is one sampled-round driver: the plain sampled run, the metrics
/// phase series and the sampled event capture all observe the same
/// rounds, so they measure exactly the same intervals.
#[test]
fn sampled_observers_see_the_driver_intervals() {
    let w = by_name("compress", Size::Tiny).unwrap();
    let cfg = TraceProcessorConfig::paper(CiModel::MlbRet);
    let sample = SampleConfig { warmup: 100, interval: 400, skip: 800 };
    let run = tp_bench::sampled::run_sampled_as(&w.program, w.frontend, &cfg, &sample);
    assert!(run.intervals.len() > 2, "{} intervals: too few", run.intervals.len());

    let phases = tp_bench::metrics::collect_phases(&w, CiModel::MlbRet, &sample);
    let detailed: Vec<Interval> = phases
        .points
        .iter()
        .filter(|p| p.phase != "ffwd")
        .map(|p| Interval { start_retired: p.start_retired, instrs: p.instrs, cycles: p.cycles })
        .collect();
    assert_eq!(detailed, run.intervals);
    let skipped: u64 = phases.points.iter().filter(|p| p.phase == "ffwd").map(|p| p.instrs).sum();
    assert_eq!(skipped, run.ffwd_instrs);

    let cap = tp_bench::capture_sampled(&w.program, w.frontend, &cfg, &sample, u64::MAX);
    assert!(cap.halted);
    assert_eq!(cap.intervals, run.intervals.len() as u64);
    assert_eq!(cap.total_instrs, run.total_instrs);
}
