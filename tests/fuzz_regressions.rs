//! Regression kernels found by the differential fuzzer (`tp-fuzz`).
//!
//! Each kernel is a program shape that once diverged from the functional
//! oracle, shrunk to a minimal reproducer and checked in here with the
//! fix. The kernels run through the same [`Harness`] the fuzzer uses:
//! every control-independence model, both frontends, checked at
//! `CheckLevel::Oracle`, or at `CheckLevel::Full` with `TP_PARANOID` set.

use tp_bench::cli::check_level;
use tp_core::CheckLevel;
use tp_fuzz::ast::{CondSpec, CondSrc, Func, FuzzAst, Op, Stmt};
use tp_fuzz::harness::Harness;
use tp_fuzz::{generate, FuzzConfig};
use tp_isa::Cond;

/// The fuzzer's harness at the level the run asks for.
fn harness() -> Harness {
    Harness { check: check_level(CheckLevel::Oracle), ..Harness::default() }
}

/// Runs `ast` through every model on both frontends and asserts no
/// divergence, on both the paper and the small machine.
fn assert_clean(ast: &FuzzAst, name: &str) {
    for small_machine in [false, true] {
        let harness = Harness { small_machine, ..harness() };
        let out = harness.check_ast(ast, name);
        assert!(!out.is_divergence(), "{name} (small_machine={small_machine}): {out:?}");
    }
}

/// Fuzzer seed 386 (synth, `Ret`), shrunk from 1005 to 4 statements.
///
/// The control-dependent region upstream of a preserved trace is tiny
/// enough to *fully retire* while CGCI insertion is still in progress:
/// retirement (stage 2) runs before fetch (stage 4), so a return or
/// branch that resolves and retires in the same cycle is never observed
/// by fetch's stalled-expectation refresh. The preserved trace is then
/// pinned at the window head (retirement blocks it while the mode is
/// `CgciInsert`) with `list.prev(before) == None`, and — before the fix —
/// fetch stalled forever (deadlock at cycle ~50k), or panicked when
/// re-convergence was detected with no live predecessor. The fix falls
/// back to the committed frontier: the stalled fetch expectation
/// re-derives from `retired_next_pc`, and the CGCI re-dispatch pass
/// chains from the retired rename map and history.
///
/// The same root cause was found independently at seeds 1251, 1359,
/// 2003 (synth deadlocks), 2704 (rv deadlock) and 1411 (rv panic); see
/// [`formerly_divergent_seed_corpus`].
#[test]
fn cgci_retired_upstream_kernel() {
    let ast = FuzzAst {
        funcs: vec![
            Func {
                body: vec![
                    Stmt::Ops(vec![Op::Store { rs: 6, word: 31 }]),
                    Stmt::Hammock {
                        cond: CondSpec { cond: Cond::Lt, lhs: CondSrc::Mem(28), rhs: None },
                        then_b: vec![Stmt::Hammock {
                            cond: CondSpec { cond: Cond::Lt, lhs: CondSrc::Reg(7), rhs: Some(2) },
                            then_b: vec![],
                            else_b: vec![],
                        }],
                        else_b: vec![],
                    },
                    Stmt::Ops(vec![Op::Load { rd: 5, word: 21 }]),
                ],
            },
            Func { body: vec![] },
            Func { body: vec![] },
            Func { body: vec![] },
            Func { body: vec![] },
        ],
        data: vec![0; 48],
        scratch_init: vec![-6, -18, 60, 8, 23, 24, 30, 15],
    };
    assert_clean(&ast, "cgci-retired-upstream");
}

/// Every seed the first fuzzing campaigns flagged, replayed in full
/// (un-shrunk) through the default generator configuration. All six
/// exposed the retired-upstream CGCI stall fixed alongside
/// [`cgci_retired_upstream_kernel`].
#[test]
fn formerly_divergent_seed_corpus() {
    let harness = harness();
    let cfg = FuzzConfig::default();
    for seed in [386, 1251, 1359, 1411, 2003, 2704] {
        let out = harness.check_ast(&generate(&cfg, seed), &format!("seed-{seed}"));
        assert!(!out.is_divergence(), "seed {seed}: {out:?}");
    }
}
