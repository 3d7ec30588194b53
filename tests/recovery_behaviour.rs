//! Integration tests for the recovery machinery on the benchmark suite:
//! the right mechanisms fire for the right workloads, and the statistics
//! stay self-consistent.

use tp_bench::run_cell;
use trace_processor::tp_core::{CiModel, TraceProcessor, TraceProcessorConfig};
use trace_processor::tp_workloads::{by_name, suite, Size};

#[test]
fn fgci_fires_on_hammock_heavy_workloads() {
    for name in ["compress", "jpeg"] {
        let w = by_name(name, Size::Small).unwrap();
        let mut sim = TraceProcessor::new(&w.program, TraceProcessorConfig::paper(CiModel::Fg));
        let r = run_cell(&mut sim, name, "FG").result;
        assert!(r.stats.fgci_recoveries > 0, "{name}: no FGCI recoveries: {:?}", r.stats);
        assert!(r.stats.preserved_traces > 0, "{name}: nothing preserved");
    }
}

#[test]
fn cgci_reconverges_on_loop_and_call_workloads() {
    for name in ["li", "go", "compress"] {
        let w = by_name(name, Size::Small).unwrap();
        let mut sim = TraceProcessor::new(&w.program, TraceProcessorConfig::paper(CiModel::MlbRet));
        let r = run_cell(&mut sim, name, "MLB-RET").result;
        assert!(r.stats.cgci_attempts > 0, "{name}: no CGCI attempts");
        assert!(
            r.stats.cgci_reconverged * 100 >= r.stats.cgci_attempts * 30,
            "{name}: re-convergence rarely detected: {}/{}",
            r.stats.cgci_reconverged,
            r.stats.cgci_attempts
        );
    }
}

#[test]
fn stats_stay_consistent_across_suite() {
    for w in suite(Size::Tiny) {
        let mut sim =
            TraceProcessor::new(&w.program, TraceProcessorConfig::paper(CiModel::FgMlbRet));
        let r = sim.run(20_000_000).expect("completes");
        let s = r.stats;
        assert!(r.halted, "{}", w.name);
        assert!(s.retired_instrs > 0 && s.cycles > 0);
        assert!(s.dispatched_traces >= s.retired_traces, "{}", w.name);
        assert!(s.issue_events >= s.retired_instrs, "{}", w.name);
        assert!(s.predicted_traces <= s.retired_traces, "{}", w.name);
        assert!(s.trace_mispredictions <= s.retired_traces + s.full_squashes, "{}", w.name);
        assert!(s.avg_trace_len() >= 1.0 && s.avg_trace_len() <= 32.0, "{}", w.name);
    }
}

#[test]
fn models_commit_identical_instruction_counts() {
    let w = by_name("perl", Size::Tiny).unwrap();
    let mut counts = Vec::new();
    for model in CiModel::ALL {
        let mut sim = TraceProcessor::new(&w.program, TraceProcessorConfig::paper(model));
        let r = sim.run(20_000_000).expect("completes");
        counts.push(r.stats.retired_instrs);
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "committed paths differ: {counts:?}");
}
