//! Exactness of the fuzzer's exported re-convergence ground truth.
//!
//! The emitters know, by construction, where every branch they emit
//! re-converges (a hammock's join, a loop's fall-through exit) and which
//! targets every indirect site can reach (the jump-table arms, the called
//! function). `tp-cfg` recovers the same facts from the decoded program
//! alone. This test pins the two against each other over a thousand
//! seeded programs on *both* frontends: every exported branch must have
//! its immediate post-dominator exactly where the emitter put the join,
//! the exported set must cover every conditional branch in the program,
//! and every indirect site must resolve to exactly the emitted target
//! set. A miss on either side is a bug — in the emitter's bookkeeping or
//! in the static analysis. The hardware FGCI scan (`analyze_region`) is
//! held to the same truth: every region it calls embeddable must close at
//! the emitted join.

use std::collections::BTreeSet;

use tp_cfg::CfgAnalysis;
use tp_fuzz::gen::{generate, FuzzConfig};
use tp_fuzz::{emit_rv_with_truth, emit_synth_with_truth, ReconvTruth};
use tp_isa::{Pc, Program};
use tp_trace::analyze_region;

const SEEDS: u64 = 1000;

/// Checks one emitted program against its truth, returning how many of
/// its truth branches the FGCI scan found embeddable.
fn check(program: &Program, truth: &ReconvTruth, what: &str) -> usize {
    let analysis = CfgAnalysis::build(program);
    let mut sites = BTreeSet::new();
    let mut embeddable = 0;
    for &(pc, expected) in &truth.branches {
        assert!(sites.insert(pc), "{what}: duplicate truth site at pc {pc}");
        assert_eq!(
            analysis.reconv_point(pc),
            Some(expected),
            "{what}: branch at pc {pc} must re-converge at pc {expected}"
        );
        let region = analyze_region(program, pc, 32);
        if region.embeddable {
            embeddable += 1;
            assert_eq!(
                region.reconv_pc, expected,
                "{what}: FGCI region of the branch at pc {pc} must close at pc {expected}"
            );
        }
    }
    // ...and the exported set covers every conditional branch in the
    // program: the emitters have no unaccounted-for control flow.
    for (pc, inst) in program.insts().iter().enumerate() {
        if inst.is_cond_branch() {
            assert!(
                sites.contains(&(pc as Pc)),
                "{what}: branch at pc {pc} has no exported ground truth"
            );
        }
    }
    for (pc, expected) in &truth.indirects {
        assert_eq!(
            analysis.resolved_indirect_targets(*pc),
            Some(expected.as_slice()),
            "{what}: indirect site at pc {pc} must resolve to exactly {expected:?}"
        );
    }
    embeddable
}

#[test]
fn exported_truth_matches_static_analysis_on_both_frontends() {
    let config = FuzzConfig::small();
    let mut embeddable = 0;
    for seed in 0..SEEDS {
        let ast = generate(&config, seed);
        let (program, truth) = emit_synth_with_truth(&ast, &format!("truth_synth_{seed}"));
        embeddable += check(&program, &truth, &format!("synth seed {seed}"));
        let (program, truth) =
            emit_rv_with_truth(&ast, &format!("truth_rv_{seed}")).expect("rv emission succeeds");
        embeddable += check(&program, &truth, &format!("rv seed {seed}"));
    }
    assert!(embeddable > 0, "the FGCI scan found no embeddable truth branch");
}
