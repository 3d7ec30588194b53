//! Differential re-convergence oracle: every CGCI re-convergence the
//! simulator's dynamic heuristics detect must be justified by the static
//! post-dominator analysis (`tp-cfg`), on every workload of both suites
//! under every control-independence model.
//!
//! The oracle is independent by construction — it is computed from the
//! decoded program alone, trusting none of the simulator's machinery — so
//! agreement here means the RET/MLB heuristics only ever resume fetch at
//! PCs the paper's definition of re-convergence (immediate post-dominance,
//! with classified exceptions for return continuations, loop not-taken
//! targets, and indirect targets) can explain. An `OracleMismatch` failure
//! names the branch, the heuristic, and the unjustifiable PC. The same
//! analysis also checks the FGCI region scan: every embeddable region
//! must close at its branch's immediate post-dominator.

use tp_bench::run_cell;
use tp_cfg::CfgAnalysis;
use tp_core::{CheckLevel, CiModel, TraceProcessor, TraceProcessorConfig};
use tp_events::RingSink;
use tp_isa::Pc;
use tp_trace::analyze_region;
use tp_workloads::{all_workloads, by_name, Size};

/// Both suites, all models, at `CheckLevel::Oracle`: the CFG oracle checks
/// every CGCI attempt and the functional oracle every retirement, so a
/// classified-but-wrong re-convergence cannot slip through as silent state
/// corruption either.
#[test]
fn cgci_detections_are_statically_justified_everywhere() {
    for w in all_workloads(Size::Tiny) {
        for model in CiModel::ALL {
            let cfg = TraceProcessorConfig::paper(model).with_check(CheckLevel::Oracle);
            let mut sim = TraceProcessor::new(&w.program, cfg);
            run_cell(&mut sim, w.name, model.name());
        }
    }
}

/// Checks observe, they never steer: one small-machine CGCI cell run at
/// every level produces the same statistics and the same event stream
/// (an FNV-1a digest of its `(cycle, name)` sequence), and from `Oracle`
/// on the static check classifies every CGCI attempt.
#[test]
fn check_levels_are_behaviour_invisible() {
    let w = by_name("li", Size::Tiny).unwrap(); // 29 CGCI attempts on this machine
    let runs = [CheckLevel::Off, CheckLevel::Oracle, CheckLevel::Full].map(|check| {
        let cfg = TraceProcessorConfig::small(CiModel::MlbRet).with_check(check);
        let mut sim = TraceProcessor::new(&w.program, cfg);
        sim.attach_event_sink(Box::new(RingSink::new(usize::MAX)));
        let r = sim.run(50_000_000).unwrap_or_else(|e| panic!("{check:?}: {e}"));
        assert!(r.halted, "{check:?}: did not halt");
        let classified: u64 = sim.cfg_oracle_counts().iter().map(|&(_, n)| n).sum();
        let ring = sim.release_event_bus().take::<RingSink>().expect("attached above");
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for &(cycle, e) in ring.events() {
            for &b in cycle.to_le_bytes().iter().chain(e.name().as_bytes()).chain(&[0]) {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        (check, r.stats, digest, classified)
    });
    let (_, off_stats, off_digest, off_classified) = &runs[0];
    assert!(off_stats.cgci_attempts > 0, "the cell must attempt CGCI");
    assert_eq!(*off_classified, 0, "Off runs no static check");
    for (check, stats, digest, classified) in &runs[1..] {
        assert_eq!(stats, off_stats, "{check:?} changed the statistics");
        assert_eq!(digest, off_digest, "{check:?} changed the event stream");
        assert_eq!(*classified, stats.cgci_attempts, "{check:?}: every attempt is classified");
    }
}

/// The hardware FGCI scan against the static analysis on both suites:
/// every region `analyze_region` calls embeddable closes at its branch's
/// immediate post-dominator.
#[test]
fn fgci_regions_close_at_the_static_ipdom() {
    let (mut branches, mut regions) = (0, 0);
    for w in all_workloads(Size::Tiny) {
        let analysis = CfgAnalysis::build(&w.program);
        for (pc, inst) in w.program.insts().iter().enumerate() {
            if !inst.is_cond_branch() {
                continue;
            }
            branches += 1;
            let info = analyze_region(&w.program, pc as Pc, 32);
            if info.embeddable {
                regions += 1;
                assert_eq!(
                    analysis.reconv_point(pc as Pc),
                    Some(info.reconv_pc),
                    "{}: FGCI region of the branch at pc {pc}",
                    w.name
                );
            }
        }
    }
    assert!(regions > 0 && branches > regions, "{regions} regions of {branches} branches");
}
