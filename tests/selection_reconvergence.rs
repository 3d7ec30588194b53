//! Property-style test for the paper's central trace-selection claim: with
//! `fg` selection, every path through an embeddable region ends the trace
//! at the same instruction (trace-level re-convergence), no matter which
//! branch outcomes are predicted.
//!
//! Written as a deterministic sweep over generated cases (rather than
//! `proptest`) because the build environment is offline; the generator is
//! seeded with a fixed value so the 64 cases are stable run to run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trace_processor::tp_isa::{asm::Asm, AluOp, Cond, Reg};
use trace_processor::tp_trace::{analyze_region, Bit, SelectionConfig, Selector};

/// Builds a random nested hammock followed by a tail, returning the program.
fn hammock_program(spec: &[u8]) -> trace_processor::tp_isa::Program {
    fn emit(a: &mut Asm, spec: &[u8], at: &mut usize, depth: usize) {
        let take = |at: &mut usize| {
            let v = spec.get(*at).copied().unwrap_or(0);
            *at += 1;
            v
        };
        let else_l = a.fresh_label("e");
        let end_l = a.fresh_label("n");
        a.branch(Cond::Eq, Reg::new(1), Reg::ZERO, else_l.clone());
        for _ in 0..take(at) % 3 {
            a.addi(Reg::new(2), Reg::new(2), 1);
        }
        if depth < 2 && take(at) % 2 == 0 {
            emit(a, spec, at, depth + 1);
        }
        a.jump(end_l.clone());
        a.label(else_l);
        for _ in 0..take(at) % 4 {
            a.alui(AluOp::Xor, Reg::new(3), Reg::new(3), 5);
        }
        a.label(end_l);
    }
    let mut a = Asm::new("prop-hammock");
    let mut at = 0;
    emit(&mut a, spec, &mut at, 0);
    for _ in 0..6 {
        a.addi(Reg::new(4), Reg::new(4), 1);
    }
    a.halt();
    a.assemble().expect("valid")
}

#[test]
fn fg_selection_reconverges_for_every_outcome_pattern() {
    let mut rng = StdRng::seed_from_u64(0x5e1ec7);
    let mut checked = 0;
    let mut attempts = 0;
    while checked < 64 {
        // Mirrors proptest's bounded rejection: fail fast instead of
        // looping forever if embeddable regions ever become rare.
        attempts += 1;
        assert!(attempts < 10_000, "only {checked}/64 embeddable cases in {attempts} attempts");
        let len = rng.gen_range(1..12usize);
        let spec: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256) as u8).collect();
        let outcomes: u64 = rng.gen();
        let outcomes = outcomes as u32;

        let program = hammock_program(&spec);
        let info = analyze_region(&program, 0, 32);
        if !info.embeddable {
            // Mirrors the original `prop_assume!`: skip non-embeddable
            // regions without counting them against the case budget.
            continue;
        }
        checked += 1;

        let selector = Selector::new(SelectionConfig::with_fg());
        let mut bit = Bit::paper();
        // Reference: all branches not taken.
        let reference = selector.select_with(&program, 0, &mut bit, |_, _, _| false, |_, _| None);
        // Any outcome pattern must end the trace at the same place.
        let sel = selector.select_with(
            &program,
            0,
            &mut bit,
            |i, _, _| (outcomes >> (i % 32)) & 1 == 1,
            |_, _| None,
        );
        assert_eq!(sel.trace.next_pc(), reference.trace.next_pc());
        assert_eq!(
            sel.trace.insts().last().map(|t| t.pc),
            reference.trace.insts().last().map(|t| t.pc)
        );
        // And the trace-level accrued length never exceeds the maximum.
        assert!(sel.trace.len() <= 32);
    }
}

/// `Trace::last_writer` answers from a table built at assembly; it must
/// agree with a reverse scan of the instructions for every register of
/// every trace the selector builds over the tiny corpus (both frontends,
/// all four selection configurations, every start PC, under all-taken,
/// all-not-taken and PC-hashed outcomes).
#[test]
fn last_writer_table_matches_scan_over_the_tiny_corpus() {
    use trace_processor::tp_trace::ClosureOutcomes;
    use trace_processor::tp_workloads::{rv_suite, suite, Size};
    let configs = [
        SelectionConfig::base(),
        SelectionConfig::with_ntb(),
        SelectionConfig::with_fg(),
        SelectionConfig::with_fg_ntb(),
    ];
    let mut checked = 0usize;
    for w in suite(Size::Tiny).into_iter().chain(rv_suite(Size::Tiny)) {
        let program = &w.program;
        for config in configs {
            let selector = Selector::new(config);
            let mut bit = Bit::new(8192, 4);
            for pattern in 0..3u32 {
                for start in 0..program.len() as u32 {
                    let mut outcomes = ClosureOutcomes::new(
                        |_, pc, _| match pattern {
                            0 => true,
                            1 => false,
                            _ => pc.wrapping_mul(0x9e37_79b9) >> 31 == 1,
                        },
                        |_, _| None,
                    );
                    let t = selector.select(program, start, &mut bit, &mut outcomes).trace;
                    for reg in Reg::all() {
                        let scan = t.insts().iter().rposition(|ti| ti.dest == Some(reg));
                        assert_eq!(t.last_writer(reg), scan, "{}: {reg} in {t}", w.name);
                    }
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 1000, "only {checked} traces selected");
}
