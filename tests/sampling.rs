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
//!   intervals of a plain sampled run;
//! * the in-place delta hand-back is exact: every round's checkpoint
//!   bytes, the intervals and the final state equal those of the
//!   full-state hand-back, a stale interval is rejected, and the words a
//!   detailed run reports as committed are exactly the functional stores;
//! * the lending law: a boot lent from the fast-forward's warm set equals
//!   the boot image of its checkpoint's bytes, and the driver, which only
//!   lends, measures exactly the intervals of a loop that boots through
//!   the bytes every round.

use std::collections::BTreeMap;

use tp_bench::sampled::{cross_check, run_sampled_with, Interval, RoundObserver, SampleConfig};
use trace_processor::tp_ckpt::{Checkpoint, CkptError, FastForward, WarmImages};
use trace_processor::tp_core::{CheckLevel, CiModel, TraceProcessor, TraceProcessorConfig};
use trace_processor::tp_isa::asm::Asm;
use trace_processor::tp_isa::func::{ArchState, Machine, MachineState};
use trace_processor::tp_isa::synth::{self, SynthConfig};
use trace_processor::tp_isa::{AluOp, Cond, Frontend, Program, Reg, Word};
use trace_processor::tp_workloads::{by_name, rv_suite, suite, Size};

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

/// A kernel whose stores cover every hand-back corner: zero over initial
/// data, the initial value stored back (written but unchanged), a fresh
/// non-zero word, and zero into a never-initialized word — all revisited
/// across many rounds.
fn zero_store_kernel() -> Program {
    let mut a = Asm::new("zero-stores");
    let (i, off, v, t) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
    a.li(i, 300);
    a.label("top");
    a.alui(AluOp::And, off, i, 7);
    a.alui(AluOp::Shl, off, off, 3);
    a.load(v, off, 0x100);
    a.alu(AluOp::Add, v, v, i);
    a.store(v, off, 0x2000); // fresh word
    a.store(Reg::ZERO, off, 0x4000); // zero into a never-initialized word
    a.alui(AluOp::And, t, i, 8);
    a.branch(Cond::Eq, t, Reg::ZERO, "restore");
    a.store(Reg::ZERO, off, 0x100); // zero over initial data
    a.jump("next");
    a.label("restore");
    a.alui(AluOp::Shr, t, off, 3);
    a.addi(t, t, 1000);
    a.store(t, off, 0x100); // the initial value, stored back
    a.label("next");
    a.addi(i, i, -1);
    a.branch(Cond::Gt, i, Reg::ZERO, "top");
    a.halt();
    for k in 0..8 {
        a.data_word(0x100 + 8 * k, 1000 + k as Word);
    }
    a.assemble().expect("valid program")
}

/// The hand-back and lending laws' programs: the tiny suite of both
/// frontends plus the zero-store kernel.
fn hand_back_programs() -> Vec<(String, Program, Frontend)> {
    let mut programs: Vec<(String, Program, Frontend)> = suite(Size::Tiny)
        .into_iter()
        .chain(rv_suite(Size::Tiny))
        .map(|w| (w.name.to_string(), w.program, w.frontend))
        .collect();
    programs.push(("zero-stores".to_string(), zero_store_kernel(), Frontend::Synth));
    programs
}

/// Every detailed leg of a sampled run lays its core, its ARB backing and
/// its functional oracle over the program's one shared data image, copying
/// only the pages it writes. On the largest images (strhash and fsm) and
/// the zero-store kernel, a run at `CheckLevel::Oracle` (`Full` under
/// `TP_PARANOID`) measures exactly the intervals of the unchecked run: a
/// store leaking through a shared page would make an oracle diverge and
/// fail the run.
#[test]
fn oracle_checked_sampled_run_shares_the_image() {
    let sample = SampleConfig { warmup: 30, interval: 100, skip: 300 };
    let level = tp_bench::cli::check_level(CheckLevel::Oracle);
    let mut programs: Vec<(Program, Frontend)> = ["strhash", "fsm"]
        .into_iter()
        .map(|name| {
            let w = by_name(name, Size::Small).expect("registered");
            (w.program, w.frontend)
        })
        .collect();
    programs.push((zero_store_kernel(), Frontend::Synth));
    for (program, frontend) in &programs {
        let cfg = TraceProcessorConfig::paper(CiModel::MlbRet);
        let off = run_sampled_with(program, *frontend, &cfg, &sample, &mut ());
        let checked =
            run_sampled_with(program, *frontend, &cfg.with_check(level), &sample, &mut ());
        let name = program.name();
        assert!(off.intervals.len() > 2, "{name}: too few rounds");
        assert_eq!(checked.intervals, off.intervals, "{name}: the checked run measured otherwise");
        assert_eq!(checked.total_instrs, off.total_instrs, "{name}");
    }
}

/// What one sampled run produced, round by round.
#[derive(Debug, PartialEq)]
struct Rounds {
    /// Every round's boot checkpoint, encoded.
    ckpts: Vec<Vec<u8>>,
    /// Every round's boot position (instructions retired).
    boots: Vec<u64>,
    intervals: Vec<Interval>,
    total_instrs: u64,
}

/// Records the driver's boot positions.
#[derive(Default)]
struct CkptLog(Vec<u64>);

impl RoundObserver for CkptLog {
    fn booted(&mut self, _round: u64, retired: u64, _sim: &mut TraceProcessor<'_>) {
        self.0.push(retired);
    }
}

/// The reference hand-back: rebuild the machine from the interval's full
/// committed image.
fn full_state_handback<'p>(ff: &mut FastForward<'p>, sim: TraceProcessor<'p>) {
    let (pc, retired) = sim.retired_frontier();
    let state = MachineState {
        regs: sim.arch_state().regs,
        mem: sim.committed_mem_words().into_iter().collect(),
        pc,
        halted: sim.halted(),
        retired: ff.retired() + retired,
    };
    ff.adopt(state, sim.into_warm());
}

fn delta_handback<'p>(ff: &mut FastForward<'p>, sim: TraceProcessor<'p>) {
    ff.adopt_interval(sim).expect("the interval booted at the frontier");
}

/// The sampled round protocol of `run_sampled_with`, written out with a
/// pluggable hand-back and every boot taken through the TPCK bytes (the
/// reference the driver's lent boots must match). Returns the rounds and
/// the final machine state.
fn rounds_with<'p>(
    program: &'p Program,
    frontend: Frontend,
    cfg: &TraceProcessorConfig,
    sample: &SampleConfig,
    handback: fn(&mut FastForward<'p>, TraceProcessor<'p>),
) -> (Rounds, ArchState) {
    let mut ff = FastForward::new(program, cfg);
    ff.set_frontend(frontend);
    let mut out =
        Rounds { ckpts: Vec::new(), boots: Vec::new(), intervals: Vec::new(), total_instrs: 0 };
    for round in 0u64.. {
        let bytes = ff.checkpoint().encode();
        let ckpt = Checkpoint::decode(&bytes).expect("round-trip");
        out.ckpts.push(bytes);
        out.boots.push(ckpt.retired);
        let boot = ckpt.boot_image(program, cfg).expect("boot image");
        let mut sim = TraceProcessor::from_checkpoint(program, cfg.clone(), boot).expect("boot");
        sim.run_interval(if round == 0 { 0 } else { sample.warmup }).expect("warmup");
        let (w_instrs, w_cycles) = (sim.stats().retired_instrs, sim.stats().cycles);
        let r = sim.run_interval(sample.interval).expect("interval");
        if r.stats.retired_instrs > w_instrs {
            out.intervals.push(Interval {
                start_retired: ckpt.retired + w_instrs,
                instrs: r.stats.retired_instrs - w_instrs,
                cycles: r.stats.cycles - w_cycles,
            });
        }
        handback(&mut ff, sim);
        if r.halted {
            break;
        }
        let h = (round + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33;
        if ff.skip(sample.skip / 2 + h % sample.skip).expect("skip").halted {
            break;
        }
    }
    out.total_instrs = ff.retired();
    (out, ff.machine().arch_state())
}

/// The delta hand-back is exactly the full-state one: in a local loop
/// that boots through the TPCK bytes, every round boots from
/// byte-identical checkpoint bytes, measures identical intervals, and the
/// run ends in the same state as a straight functional run. The driver,
/// which boots from lent warm sets instead, boots at the same positions
/// and measures the same intervals — on the tiny suite of both frontends
/// plus the zero-store kernel, under base and MLB-RET.
#[test]
fn delta_handback_equals_full_state_handback() {
    let sample = SampleConfig { warmup: 30, interval: 100, skip: 80 };
    for (name, program, frontend) in &hand_back_programs() {
        let mut straight = Machine::new(program);
        straight.run(u64::MAX).expect("halts");
        for model in [CiModel::None, CiModel::MlbRet] {
            let ctx = format!("{name} {}", model.name());
            let cfg = TraceProcessorConfig::paper(model);
            let (reference, ref_state) =
                rounds_with(program, *frontend, &cfg, &sample, full_state_handback);
            let (delta, delta_state) =
                rounds_with(program, *frontend, &cfg, &sample, delta_handback);
            assert!(reference.ckpts.len() > 2, "{ctx}: too few rounds");
            assert_eq!(delta, reference, "{ctx}: local loop diverged");
            assert_eq!(delta_state, ref_state, "{ctx}: final state diverged");
            assert_eq!(ref_state, straight.arch_state(), "{ctx}: final state is not the program's");

            let mut log = CkptLog::default();
            let run = run_sampled_with(program, *frontend, &cfg, &sample, &mut log);
            assert_eq!(log.0, reference.boots, "{ctx}: driver booted elsewhere");
            assert_eq!(run.intervals, reference.intervals, "{ctx}: driver intervals diverged");
            assert_eq!(run.total_instrs, reference.total_instrs, "{ctx}: driver length diverged");
        }
    }
}

/// The lending law: a boot lent from the fast-forward's own warm set
/// ([`FastForward::boot`]) equals the boot image of its checkpoint taken
/// through the TPCK bytes, in every field a detailed run reads, at round 0
/// and after several delta hand-backs — on the tiny suite of both
/// frontends plus the zero-store kernel, under all five models.
#[test]
fn lent_boot_equals_checkpoint_boot() {
    let sample = SampleConfig { warmup: 30, interval: 100, skip: 80 };
    const ROUNDS: u64 = 3;
    for (name, program, frontend) in &hand_back_programs() {
        for model in CiModel::ALL {
            let cfg = TraceProcessorConfig::paper(model);
            let mut ff = FastForward::new(program, &cfg);
            ff.set_frontend(*frontend);
            let mut round = 0;
            while round < ROUNDS && !ff.halted() {
                let ctx = format!("{name} {} round {round}", model.name());
                let want = Checkpoint::decode(&ff.checkpoint().encode())
                    .and_then(|c| c.boot_image(program, &cfg))
                    .expect("byte boot");
                let got = ff.boot(&cfg).expect("lent boot");
                assert_eq!(got.pc, want.pc, "{ctx}: pc");
                assert_eq!(got.regs, want.regs, "{ctx}: regs");
                assert_eq!(got.mem_delta, want.mem_delta, "{ctx}: mem delta");
                assert_eq!(got.retired, want.retired, "{ctx}: retired");
                assert_eq!(got.halted, want.halted, "{ctx}: halted");
                let (g, w) = (got.warm.as_ref().unwrap(), want.warm.as_ref().unwrap());
                let images = |warm| WarmImages::capture(warm, cfg.selection);
                assert_eq!(images(g), images(w), "{ctx}: warm images");
                assert_eq!(format!("{:?}", g.bit), format!("{:?}", w.bit), "{ctx}: BIT");
                assert_eq!(g.predictor.stats(), w.predictor.stats(), "{ctx}: predictor stats");

                let mut sim = TraceProcessor::from_checkpoint(program, cfg.clone(), got).unwrap();
                sim.run_interval(sample.warmup + sample.interval).expect("interval");
                let halted = sim.halted();
                ff.adopt_interval(sim).expect("hand-back");
                round += 1;
                if halted || ff.skip(sample.skip).expect("skip").halted {
                    break;
                }
            }
            assert_eq!(round, ROUNDS, "{name} {}: too few rounds", model.name());
        }
    }
}

/// The hand-back fails closed: an interval booted from a checkpoint the
/// fast-forward has since moved past is rejected with both positions
/// named, and the fast-forward is left untouched.
#[test]
fn stale_interval_is_rejected() {
    let program = zero_store_kernel();
    let cfg = TraceProcessorConfig::paper(CiModel::MlbRet);
    let mut ff = FastForward::new(&program, &cfg);
    ff.skip(200).expect("skip");
    let ckpt = ff.checkpoint();
    let boot = ckpt.boot_image(&program, &cfg).expect("boot image");
    let mut sim = TraceProcessor::from_checkpoint(&program, cfg.clone(), boot).expect("boot");
    sim.run_interval(100).expect("interval");
    ff.skip(150).expect("skip");
    let before = ff.checkpoint().encode();
    let err = ff.adopt_interval(sim).expect_err("stale interval adopted");
    assert_eq!(
        err,
        CkptError::StaleInterval {
            frontier: (ff.machine().pc(), ff.retired()),
            booted: (ckpt.pc, ckpt.retired),
        }
    );
    let msg = err.to_string();
    for n in [ckpt.retired, ff.retired()] {
        assert!(msg.contains(&n.to_string()), "{msg}: position {n} not named");
    }
    assert_eq!(ff.checkpoint().encode(), before, "a rejected hand-back changed the machine");
}

/// On a full detailed run, the words the processor reports as committed
/// since boot are exactly the functional machine's stores over the same
/// instructions: each stored word once, ascending, with its last value.
#[test]
fn committed_since_boot_equals_functional_stores() {
    let mut programs: Vec<Program> = ["compress", "go", "qsort", "strhash"]
        .into_iter()
        .map(|name| by_name(name, Size::Tiny).unwrap().program)
        .collect();
    programs.push(zero_store_kernel());
    for program in &programs {
        let mut m = Machine::new(program);
        let mut stores = BTreeMap::new();
        while !m.halted() {
            let step = m.step().expect("stays in program");
            if let (Some(ea), trace_processor::tp_isa::Inst::Store { .. }) = (step.ea, step.inst) {
                stores.insert(ea >> 3, m.mem_word(ea));
            }
        }
        let mut sim = TraceProcessor::new(program, TraceProcessorConfig::paper(CiModel::MlbRet));
        sim.run(u64::MAX).expect("runs");
        assert!(sim.halted());
        let committed: Vec<(u64, Word)> = sim.committed_since_boot().collect();
        assert_eq!(committed, stores.into_iter().collect::<Vec<_>>(), "{}", program.name());
    }
}
