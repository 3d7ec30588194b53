//! Cross-crate integration: every workload commits exactly the functional
//! simulator's architectural state under every control-independence model.

use tp_bench::run_cell;
use tp_core::{CheckLevel, CiModel, TraceProcessor, TraceProcessorConfig};
use tp_isa::func::Machine;
use tp_workloads::{suite, Size};

#[test]
fn all_workloads_match_oracle_under_all_models() {
    for w in suite(Size::Tiny) {
        let mut oracle = Machine::new(&w.program);
        oracle.run(u64::MAX).expect("oracle completes");
        for model in CiModel::ALL {
            let cfg = TraceProcessorConfig::paper(model).with_check(CheckLevel::Oracle);
            let mut sim = TraceProcessor::new(&w.program, cfg);
            run_cell(&mut sim, w.name, model.name());
            assert_eq!(
                sim.arch_state(),
                oracle.arch_state(),
                "{} under {model:?}: committed state diverged",
                w.name
            );
        }
    }
}
