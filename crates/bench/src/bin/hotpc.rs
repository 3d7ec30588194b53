//! Diagnostic: hottest mispredicting branch PCs per workload.

fn main() {
    for name in ["go", "jpeg", "compress", "perl"] {
        let w = tp_bench::cli::workload(name, tp_workloads::Size::Full);
        let p = tp_bench::profile_branches(&w.program, tp_bench::runner::CELL_BUDGET);
        println!("== {name}: overall {:.1}%  (BTB profiling)", p.overall_misp_rate());
        for (pc, execs, misps) in p.hottest().into_iter().take(5) {
            println!(
                "   pc {:5}  {:?}  execs {:8} misps {:8} ({:.1}%)",
                pc,
                w.program.fetch(pc).unwrap(),
                execs,
                misps,
                100.0 * misps as f64 / execs as f64
            );
        }
    }
}
