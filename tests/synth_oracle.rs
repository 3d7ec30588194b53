//! Property-style test: the trace processor commits exactly the functional
//! simulator's architectural state on randomly generated structured
//! programs, under every control-independence model.
//!
//! Written as deterministic seed sweeps (rather than `proptest`) because
//! the build environment is offline; the seeds below were chosen to spread
//! across the generator's support and are stable run to run.

use tp_bench::run_cell;
use trace_processor::tp_core::{CiModel, TraceProcessor, TraceProcessorConfig};
use trace_processor::tp_isa::func::Machine;
use trace_processor::tp_isa::synth::{self, SynthConfig};

/// Twelve seeds spread over the original `0..10_000` proptest domain.
const SEEDS: [u64; 12] = [0, 1, 7, 42, 123, 999, 1234, 2718, 3141, 5000, 8191, 9999];

#[test]
fn random_programs_commit_oracle_state() {
    for seed in SEEDS {
        let program = synth::generate(&SynthConfig::small(), seed);
        let mut oracle = Machine::new(&program);
        oracle.run(u64::MAX).expect("oracle in range");
        for model in CiModel::ALL {
            let cfg = TraceProcessorConfig::paper(model);
            let mut sim = TraceProcessor::new(&program, cfg);
            let r = run_cell(&mut sim, &format!("seed {seed}"), model.name()).result;
            assert_eq!(
                sim.arch_state(),
                oracle.arch_state(),
                "seed {seed} under {model:?} diverged"
            );
            assert_eq!(r.stats.retired_instrs, oracle.retired());
        }
    }
}

#[test]
fn random_programs_with_larger_windows() {
    for seed in SEEDS {
        let program = synth::generate(&SynthConfig::default(), seed);
        let mut oracle = Machine::new(&program);
        oracle.run(u64::MAX).expect("oracle in range");
        // Oracle-verified run (per-trace checking) with the full model.
        let cfg = TraceProcessorConfig::paper(CiModel::FgMlbRet).with_oracle();
        let mut sim = TraceProcessor::new(&program, cfg);
        run_cell(&mut sim, &format!("seed {seed}"), "FG+MLB-RET");
    }
}
