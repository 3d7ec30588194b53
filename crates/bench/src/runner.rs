//! The one cell runner every harness shares: run a simulator to halt under
//! [`CELL_BUDGET`], time it, and fail with the cell named.
//!
//! Callers build the [`TraceProcessor`] themselves, so they can attach
//! sinks or a profiler before the run and read the simulator back after
//! it (misprediction logs, committed state, released event buses).

use std::time::Instant;

use tp_core::{CiModel, RunResult, TraceProcessor, TraceProcessorConfig};
use tp_isa::Program;
use tp_trace::SelectionConfig;

/// Instruction budget of every harness cell (workloads halt far below it).
pub const CELL_BUDGET: u64 = 100_000_000;

/// A finished cell: the run's result plus its host wall-clock time.
#[derive(Clone, Debug)]
pub struct CellRun {
    /// The halted run's result.
    pub result: RunResult,
    /// Host wall-clock seconds spent in [`TraceProcessor::run`].
    pub wall_seconds: f64,
}

/// Runs `sim` to halt under [`CELL_BUDGET`] and times the run. `workload`
/// and `model` label the cell in the error, next to the configured PE
/// count.
///
/// # Errors
///
/// Returns a message naming the cell if the simulator reports an error or
/// the program does not halt within the budget.
pub fn try_run_cell(
    sim: &mut TraceProcessor<'_>,
    workload: &str,
    model: &str,
) -> Result<CellRun, String> {
    let pes = sim.config().num_pes;
    let t = Instant::now();
    let result = sim.run(CELL_BUDGET).map_err(|e| format!("{workload} {model} {pes}pe: {e}"))?;
    let wall_seconds = t.elapsed().as_secs_f64();
    if !result.halted {
        return Err(format!("{workload} {model} {pes}pe did not halt within {CELL_BUDGET} instrs"));
    }
    Ok(CellRun { result, wall_seconds })
}

/// [`try_run_cell`] for harnesses where a failed cell is a bug.
///
/// # Panics
///
/// Panics with the cell's workload, model and PE count if the run errors
/// or does not halt.
pub fn run_cell(sim: &mut TraceProcessor<'_>, workload: &str, model: &str) -> CellRun {
    try_run_cell(sim, workload, model).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs `program` under a selection-only baseline (no control independence).
///
/// # Panics
///
/// As [`run_cell`].
pub fn run_selection(program: &Program, selection: SelectionConfig) -> RunResult {
    run_with(program, TraceProcessorConfig::baseline(selection), selection.name())
}

/// Runs `program` under a full control-independence model.
///
/// # Panics
///
/// As [`run_cell`].
pub fn run_model(program: &Program, model: CiModel) -> RunResult {
    run_with(program, TraceProcessorConfig::paper(model), model.name())
}

pub(crate) fn run_with(program: &Program, cfg: TraceProcessorConfig, label: &str) -> RunResult {
    let mut sim = TraceProcessor::new(program, cfg);
    run_cell(&mut sim, program.name(), label).result
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_workloads::{by_name, Size};

    #[test]
    fn baseline_and_model_runs_complete() {
        let w = by_name("m88ksim", Size::Tiny).unwrap();
        let a = run_selection(&w.program, SelectionConfig::base());
        assert!(a.halted);
        let b = run_model(&w.program, CiModel::FgMlbRet);
        assert!(b.halted);
        assert_eq!(a.stats.retired_instrs, b.stats.retired_instrs);
    }

    #[test]
    fn cell_failures_name_the_cell() {
        let w = by_name("compress", Size::Tiny).unwrap();
        let mut cfg = TraceProcessorConfig::paper(CiModel::Fg);
        cfg.num_pes = 8;
        cfg.deadlock_cycles = 1; // trips before the first retirement
        let mut sim = TraceProcessor::new(&w.program, cfg);
        let err = try_run_cell(&mut sim, "compress", "FG").map(|_| ()).unwrap_err();
        assert!(err.contains("compress FG 8pe"), "{err}");
    }
}
