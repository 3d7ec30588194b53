//! Table 5: conditional branch statistics.
//!
//! Profiles every benchmark's dynamic branch stream through the functional
//! simulator and the BTB predictor, classifying branches as FGCI-type
//! (embeddable region <= 32 / > 32 instructions), other forward, or
//! backward — with the region-size metrics the paper reports. Also prints
//! Table 2-style dynamic instruction counts.

use tp_bench::profile::{profile_branches, BranchClass};
use tp_bench::{paper, runner};
use tp_stats::Table;
use tp_workloads::{suite, Size};

fn main() {
    println!("Table 2: benchmarks and dynamic instruction counts\n");
    let mut t2 = Table::new("bench", &["dyn. instrs"]);
    t2.precision(0);
    let workloads = suite(Size::Full);
    for w in &workloads {
        let p = profile_branches(&w.program, runner::CELL_BUDGET);
        t2.row(w.name, &[p.instructions as f64]);
    }
    println!("{t2}");

    println!("Table 5: conditional branch statistics (gshare profiling)\n");
    let mut table = Table::new(
        "bench",
        &[
            "fgci%br", "fgci%mp", ">32%br", "fwd%br", "fwd%mp", "bwd%br", "bwd%mp", "dynreg",
            "statreg", "br/reg", "misp%", "mp/1k",
        ],
    );
    table.precision(1);
    for w in &workloads {
        let p = profile_branches(&w.program, runner::CELL_BUDGET);
        table.row(
            w.name,
            &[
                p.frac_branches(BranchClass::FgciSmall),
                p.frac_mispredicts(BranchClass::FgciSmall),
                p.frac_branches(BranchClass::FgciLarge),
                p.frac_branches(BranchClass::OtherForward),
                p.frac_mispredicts(BranchClass::OtherForward),
                p.frac_branches(BranchClass::Backward),
                p.frac_mispredicts(BranchClass::Backward),
                p.avg_dyn_region(),
                p.avg_static_region(),
                p.avg_region_branches(),
                p.overall_misp_rate(),
                p.misp_per_kilo(),
            ],
        );
    }
    println!("{table}");

    println!("paper reference (Table 5 selected columns)");
    let mut pt = Table::new("bench", &["fgci%br", "fgci%mp", "bwd%mp", "misp%"]);
    pt.precision(1);
    for b in paper::BENCHMARKS {
        pt.row(
            b,
            &[
                paper::lookup1(&paper::TABLE5_FGCI_FRAC_BR, b).expect("known"),
                paper::lookup1(&paper::TABLE5_FGCI_FRAC_MISP, b).expect("known"),
                paper::lookup1(&paper::TABLE5_BACKWARD_FRAC_MISP, b).expect("known"),
                paper::lookup1(&paper::TABLE5_OVERALL_MISP, b).expect("known"),
            ],
        );
    }
    println!("{pt}");
}
