//! Misprediction storm: compare all five control-independence models on the
//! most misprediction-heavy workloads (compress and go), the scenario the
//! paper's introduction motivates — deep windows wasted by full squashes.
//!
//! Run with: `cargo run --release --example misprediction_storm`

use trace_processor::{
    tp_core::{CiModel, TraceProcessor, TraceProcessorConfig},
    tp_stats::improvement_pct,
    tp_workloads::{by_name, Size},
};

fn main() {
    for name in ["compress", "go"] {
        let w = by_name(name, Size::Small).unwrap();
        println!("== {name}: {}", w.description);
        let mut base_ipc = 0.0;
        for model in CiModel::ALL {
            let mut sim = TraceProcessor::new(&w.program, TraceProcessorConfig::paper(model));
            let r = sim.run(10_000_000).expect("run completes");
            let s = r.stats;
            if model == CiModel::None {
                base_ipc = s.ipc();
            }
            println!(
                "  {:<11} ipc {:.2} ({:+5.1}%) | squashed {:5} preserved {:5} | fgci {:4} cgci {:4}/{:4}",
                model.name(),
                s.ipc(),
                improvement_pct(s.ipc(), base_ipc),
                s.squashed_traces,
                s.preserved_traces,
                s.fgci_recoveries,
                s.cgci_reconverged,
                s.cgci_attempts,
            );
        }
    }
}
