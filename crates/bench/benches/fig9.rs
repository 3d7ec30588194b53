//! Figure 9: performance impact of trace selection.
//!
//! Reproduces the paper's Figure 9: % IPC improvement (usually a
//! degradation) of `base(ntb)`, `base(fg)` and `base(fg,ntb)` over `base`,
//! per benchmark — the cost of the selection constraints that expose
//! control independence, before any CI mechanism is enabled.

use tp_bench::runner::run_selection;
use tp_stats::{improvement_pct, Table};
use tp_trace::SelectionConfig;
use tp_workloads::{suite, Size};

fn main() {
    println!("Figure 9: % IPC impact of trace selection over base (no CI)\n");
    let mut table = Table::new("% IPC over base", &["base(ntb)", "base(fg)", "base(fg,ntb)"]);
    table.precision(1);
    for w in suite(Size::Full) {
        let base = run_selection(&w.program, SelectionConfig::base()).stats.ipc();
        let row = [
            SelectionConfig::with_ntb(),
            SelectionConfig::with_fg(),
            SelectionConfig::with_fg_ntb(),
        ]
        .map(|sel| improvement_pct(run_selection(&w.program, sel).stats.ipc(), base));
        table.row(w.name, &row);
    }
    println!("{table}");
    println!("(paper's Figure 9 shows selection constraints costing 0-10% IPC, -2% avg)");
}
