//! Figure 10: performance of control independence.
//!
//! Reproduces the paper's Figure 10: % IPC improvement over `base` for the
//! four control-independence models `RET`, `MLB-RET`, `FG` and
//! `FG+MLB-RET`, per benchmark. Also prints the paper's summary statistics:
//! the average improvement of `FG+MLB-RET` and the best-per-benchmark
//! average (the paper's headline "2% to 25%, and 13% on average").

use tp_bench::paper;
use tp_bench::runner::{run_model, run_selection};
use tp_core::CiModel;
use tp_stats::{improvement_pct, mean, Table};
use tp_trace::SelectionConfig;
use tp_workloads::{suite, Size};

fn main() {
    let mut table =
        Table::new("% IPC over base", &["RET", "MLB-RET", "FG", "FG+MLB-RET", "paper(FG+MLB)"]);
    table.precision(1);
    let mut best = Vec::new();
    let mut fg_mlb = Vec::new();
    println!("Figure 10: % IPC improvement over base (paper: Rotenberg & Smith 1999)\n");
    for w in suite(Size::Full) {
        let base = run_selection(&w.program, SelectionConfig::base()).stats.ipc();
        let mut row = Vec::new();
        for &model in &CiModel::ALL[1..] {
            let ipc = run_model(&w.program, model).stats.ipc();
            row.push(improvement_pct(ipc, base));
        }
        let paper_row = paper::lookup(&paper::FIG10_IMPROVEMENT, w.name).expect("known benchmark");
        best.push(row.iter().copied().fold(f64::MIN, f64::max));
        fg_mlb.push(row[3]);
        row.push(paper_row[3]);
        table.row(w.name, &row);
    }
    println!("{table}");
    println!(
        "average improvement, FG+MLB-RET : {:+.1}% (paper: ~10%)",
        mean(fg_mlb.iter().copied())
    );
    println!(
        "average improvement, best model : {:+.1}% (paper: 13%, range 2%..25%)",
        mean(best.iter().copied())
    );
}
