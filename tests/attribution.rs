//! The misprediction outcome-attribution ledger: accounting invariants and
//! model-dominance regression tests on targeted microkernels.
//!
//! The ledger is the diagnostic instrument behind the five-model benchmark
//! matrix: these tests pin (a) its books — retirement-side per-class counts
//! must sum to `retired_cond_mispredicts` exactly, for every model — and
//! (b) the paper's headline dominance claims on kernels built to exercise
//! one heuristic each: a data-dependent loop exit (MLB-RET's target) and a
//! data-dependent hammock (FG's target). Each kernel regression-tests the
//! class attribution too: the ledger must localize the recoveries to the
//! branch class the kernel was built around.

use std::collections::HashMap;

use tp_bench::run_cell;
use trace_processor::tp_core::{CiModel, TraceProcessor, TraceProcessorConfig};
use trace_processor::tp_events::{Category, CategoryMask, Event, RingSink};
use trace_processor::tp_isa::asm::Asm;
use trace_processor::tp_isa::{AluOp, Cond, Program, Reg};
use trace_processor::tp_stats::attr::{BranchClass, Heuristic, RecoveryOutcome};
use trace_processor::tp_workloads::{by_name, Size};

fn run(program: &Program, model: CiModel) -> trace_processor::tp_core::RunResult {
    let cfg = TraceProcessorConfig::paper(model).with_oracle();
    let mut sim = TraceProcessor::new(program, cfg);
    run_cell(&mut sim, program.name(), model.name()).result
}

/// A loop-exit kernel: an outer work loop around an inner list-walk whose
/// trip count (1..=4) is data-dependent on an evolving accumulator — the
/// unpredictable backward branch the MLB heuristic targets. The
/// control-independent continuation after the exit does real work.
fn loop_exit_kernel() -> Program {
    let mut a = Asm::new("loop-exit");
    let (i, trip, t, acc) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
    a.li(i, 600);
    a.li(acc, 7);
    a.label("outer");
    // Data-dependent trip count in 1..=4.
    a.alui(AluOp::Shr, trip, acc, 3);
    a.alu(AluOp::Xor, trip, trip, acc);
    a.alui(AluOp::And, trip, trip, 3);
    a.addi(trip, trip, 1);
    a.label("inner");
    a.alui(AluOp::Mul, t, trip, 0x9E37_79B9u32 as i32);
    a.alu(AluOp::Add, acc, acc, t);
    a.addi(trip, trip, -1);
    a.branch(Cond::Gt, trip, Reg::ZERO, "inner");
    // Control-independent continuation.
    a.alui(AluOp::Xor, acc, acc, 0x55);
    a.addi(acc, acc, 3);
    a.alui(AluOp::Shl, t, acc, 1);
    a.alu(AluOp::Sub, acc, t, acc);
    a.addi(i, i, -1);
    a.branch(Cond::Gt, i, Reg::ZERO, "outer");
    a.halt();
    a.assemble().expect("valid program")
}

/// A hammock kernel: a data-dependent forward branch over a short
/// alternate path, inside a counted loop with a control-independent tail
/// of *parallel* work. The branch condition comes from its own serial
/// pseudo-random chain (`s`), so the hammock arms do not corrupt later
/// branch sources — younger iterations' work is genuinely valid across a
/// misprediction, which is exactly what FG preserves and base throws away.
fn hammock_kernel() -> Program {
    let mut a = Asm::new("hammock");
    let (i, s, x, acc) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
    let (t5, t6, t7, t8) = (Reg::new(5), Reg::new(6), Reg::new(7), Reg::new(8));
    a.li(i, 800);
    a.li(s, 12345);
    a.li(acc, 3);
    a.label("top");
    // Serial unpredictability chain: resolves late, predicts ~coin-flip.
    a.alui(AluOp::Mul, s, s, 1_103_515_245);
    a.addi(s, s, 12345);
    a.alui(AluOp::Shr, x, s, 13);
    a.alui(AluOp::And, x, x, 1);
    a.branch(Cond::Eq, x, Reg::ZERO, "else");
    a.addi(acc, acc, 5);
    a.jump("join");
    a.label("else");
    a.addi(acc, acc, 9);
    a.label("join");
    // Control-independent tail: four independent chains of real work.
    for (k, t) in [t5, t6, t7, t8].into_iter().enumerate() {
        a.alui(AluOp::Add, t, i, k as i32 + 1);
        a.alui(AluOp::Mul, t, t, 77);
        a.alui(AluOp::Xor, t, t, 0x2b);
    }
    a.alu(AluOp::Add, acc, acc, t5);
    a.alu(AluOp::Add, acc, acc, t6);
    a.alu(AluOp::Add, acc, acc, t7);
    a.alu(AluOp::Add, acc, acc, t8);
    a.addi(i, i, -1);
    a.branch(Cond::Gt, i, Reg::ZERO, "top");
    a.halt();
    a.assemble().expect("valid program")
}

/// Ledger books must balance for every model on a real workload: the sum
/// of retirement-side per-class counts equals `retired_cond_mispredicts`.
#[test]
fn ledger_retired_counts_sum_to_mispredicts() {
    for (name, size) in [("compress", Size::Tiny), ("li", Size::Tiny), ("go", Size::Tiny)] {
        let w = by_name(name, size).unwrap();
        for model in CiModel::ALL {
            let r = run(&w.program, model);
            assert_eq!(
                r.attribution.retired_total(),
                r.stats.retired_cond_mispredicts,
                "{name} {model:?}: ledger retired-total out of balance"
            );
            let by_class: u64 = r.attribution.retired_by_class().iter().sum();
            assert_eq!(by_class, r.stats.retired_cond_mispredicts, "{name} {model:?}");
        }
    }
}

/// The base model's ledger only ever contains full squashes with no
/// heuristic, and preserves nothing.
#[test]
fn base_model_ledger_is_full_squash_only() {
    let w = by_name("compress", Size::Tiny).unwrap();
    let r = run(&w.program, CiModel::None);
    assert!(r.stats.retired_cond_mispredicts > 0, "kernel must mispredict");
    for ((_, heur, outcome), cell) in r.attribution.nonzero() {
        assert_eq!(outcome, RecoveryOutcome::FullSquash, "{heur:?}/{outcome:?} {cell:?}");
        assert_eq!(cell.traces_preserved, 0);
        assert_eq!(cell.traces_redispatched, 0);
    }
}

/// MLB-RET must beat base on the loop-exit kernel, and the ledger must
/// attribute its recoveries to backward branches recovered by MLB.
#[test]
fn mlb_ret_dominates_base_on_loop_exit_kernel() {
    let p = loop_exit_kernel();
    let base = run(&p, CiModel::None);
    let mlb = run(&p, CiModel::MlbRet);
    assert_eq!(base.stats.retired_instrs, mlb.stats.retired_instrs);
    assert!(
        mlb.stats.cycles < base.stats.cycles,
        "MLB-RET must beat base on a loop-exit kernel: {} vs {} cycles",
        mlb.stats.cycles,
        base.stats.cycles
    );
    // The ledger localizes the win: backward-branch recoveries re-converge
    // through MLB and preserve control-independent traces.
    let reconv = mlb
        .attribution
        .nonzero()
        .filter(|((class, _, outcome), _)| {
            *class == BranchClass::Backward && *outcome == RecoveryOutcome::CgciReconverged
        })
        .map(|(_, cell)| cell.events)
        .sum::<u64>();
    assert!(reconv > 0, "no backward CGCI re-convergence recorded:\n{}", mlb.attribution.table());
    let preserved = mlb.attribution.nonzero().map(|(_, c)| c.traces_preserved).sum::<u64>();
    assert!(preserved > 0, "MLB-RET preserved nothing");
}

/// FG must beat base on the hammock kernel, and the ledger must attribute
/// its recoveries to FGCI repairs of embedded forward branches.
#[test]
fn fg_dominates_base_on_hammock_kernel() {
    let p = hammock_kernel();
    let base = run(&p, CiModel::None);
    let fg = run(&p, CiModel::Fg);
    assert_eq!(base.stats.retired_instrs, fg.stats.retired_instrs);
    assert!(
        fg.stats.cycles < base.stats.cycles,
        "FG must beat base on a hammock kernel: {} vs {} cycles",
        fg.stats.cycles,
        base.stats.cycles
    );
    let repairs = fg
        .attribution
        .nonzero()
        .filter(|((class, _, outcome), _)| {
            *class == BranchClass::ForwardFgci && *outcome == RecoveryOutcome::FgciRepair
        })
        .map(|(_, cell)| cell.events)
        .sum::<u64>();
    assert!(repairs > 0, "no FGCI repairs recorded:\n{}", fg.attribution.table());
    // FGCI repairs never squash; full squashes should be (near) absent.
    let squashed = fg.attribution.nonzero().map(|(_, c)| c.traces_squashed).sum::<u64>();
    assert!(
        squashed * 10 <= fg.stats.dispatched_traces,
        "FG squashes too much on a pure hammock kernel: {squashed}"
    );
}

/// A CGCI attempt that cannot re-converge (the heuristic fires but the
/// window fills first) resolves as `CgciFailed` and costs squashes — the
/// failure outcome the go regression hid inside aggregate counters.
#[test]
fn failed_cgci_attempts_are_attributed() {
    let w = by_name("go", Size::Tiny).unwrap();
    let r = run(&w.program, CiModel::MlbRet);
    let failed: u64 = r
        .attribution
        .nonzero()
        .filter(|((_, _, outcome), _)| *outcome == RecoveryOutcome::CgciFailed)
        .map(|(_, cell)| cell.events)
        .sum();
    let reconv: u64 = r
        .attribution
        .nonzero()
        .filter(|((_, _, outcome), _)| *outcome == RecoveryOutcome::CgciReconverged)
        .map(|(_, cell)| cell.events)
        .sum();
    // go's misprediction-dense window produces both outcomes; the split is
    // the diagnostic this subsystem exists for.
    assert!(failed + reconv > 0, "no CGCI attempts resolved:\n{}", r.attribution.table());
    assert!(
        reconv + failed <= r.stats.cgci_attempts + 1,
        "more resolutions than attempts: {} + {} vs {}",
        reconv,
        failed,
        r.stats.cgci_attempts
    );
}

/// The event stream and the attribution ledger are two independent
/// recordings of the same CGCI attempts, and they must balance *exactly*:
/// `CgciClosed` events per `(class, heuristic, outcome)` cell equal that
/// cell's ledger `events` count, and opens exceed closes by at most the
/// one attempt the end of the run can strand.
#[test]
fn cgci_events_balance_against_ledger() {
    for (name, model) in
        [("go", CiModel::MlbRet), ("compress", CiModel::MlbRet), ("go", CiModel::FgMlbRet)]
    {
        let w = by_name(name, Size::Tiny).unwrap();
        let cfg = TraceProcessorConfig::paper(model).with_oracle();
        let mut sim = TraceProcessor::new(&w.program, cfg);
        sim.attach_event_sink(Box::new(RingSink::with_interests(
            1 << 20,
            CategoryMask::of(&[Category::Cgci]),
        )));
        let r = run_cell(&mut sim, name, model.name()).result;
        let mut bus = sim.release_event_bus();
        let ring = bus.take::<RingSink>().expect("ring sink attached above");
        assert_eq!(ring.dropped(), 0, "{name} {model:?}: ring overflowed");

        let mut opens = 0u64;
        let mut closes: HashMap<(BranchClass, Heuristic, RecoveryOutcome), u64> = HashMap::new();
        for &(_, event) in ring.events() {
            match event {
                Event::CgciOpened { .. } => opens += 1,
                Event::CgciClosed { class, heuristic, outcome, .. } => {
                    *closes.entry((class, heuristic, outcome)).or_default() += 1;
                }
                _ => {}
            }
        }
        let total_closes: u64 = closes.values().sum();
        for ((class, heur, outcome), cell) in r.attribution.nonzero() {
            if matches!(outcome, RecoveryOutcome::CgciReconverged | RecoveryOutcome::CgciFailed) {
                assert_eq!(
                    closes.remove(&(class, heur, outcome)).unwrap_or(0),
                    cell.events,
                    "{name} {model:?}: event/ledger mismatch in cell \
                     ({class:?}, {heur:?}, {outcome:?})"
                );
            }
        }
        assert!(
            closes.is_empty(),
            "{name} {model:?}: CgciClosed events with no ledger cell: {closes:?}"
        );
        assert!(
            opens == total_closes || opens == total_closes + 1,
            "{name} {model:?}: {opens} opens vs {total_closes} closes (at most one attempt \
             may be stranded by the end of the run)"
        );
    }
}
