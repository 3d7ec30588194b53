//! Parallel configuration sweeps: one simulator config per core.
//!
//! The paper's experiments (Tables 3/4/5, Figures 9/10) are embarrassingly
//! parallel — every (workload, configuration) cell is an independent
//! single-threaded simulation. This module fans the cells out over OS
//! threads with a shared work queue, one worker per available core.
//!
//! The build environment is offline, so this uses `std::thread::scope`
//! rather than `rayon`; the entry point is shaped like a parallel iterator
//! (`jobs in, results in job order out`) so swapping rayon in later is a
//! one-line change. Results are written back by job index, making the
//! output order — and therefore every downstream table — identical to a
//! sequential run ([`run_sweep_sequential`] exists to assert exactly that).

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tp_core::{RunResult, TraceProcessorConfig};
use tp_isa::Program;

use crate::runner::run_with;

/// One independent sweep cell: a labelled configuration applied to a
/// workload program.
#[derive(Clone, Debug)]
pub struct SweepJob<'p> {
    /// Workload name (for reporting).
    pub workload: &'static str,
    /// Configuration label (for reporting), e.g. `"base(fg,ntb)"`.
    pub label: String,
    /// The program to simulate.
    pub program: &'p Program,
    /// The full simulator configuration for this cell.
    pub cfg: TraceProcessorConfig,
}

/// The completed cell: the job's identity plus its run summary.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Workload name, copied from the job.
    pub workload: &'static str,
    /// Configuration label, copied from the job.
    pub label: String,
    /// Headline numbers of the run.
    pub summary: RunResult,
}

/// Runs every job, one config per core, returning results in job order.
///
/// Worker threads pull jobs from a shared counter, so long-running cells
/// (e.g. `gcc` under `Size::Full`) do not serialize behind short ones.
///
/// # Panics
///
/// Panics if any simulation deadlocks (a bug, not a result) — the same
/// contract as [`run_model`](crate::runner::run_model).
pub fn run_sweep_parallel(jobs: Vec<SweepJob<'_>>) -> Vec<SweepResult> {
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    run_sweep_with_threads(jobs, threads)
}

/// [`run_sweep_parallel`] with an explicit worker count (at least as many
/// workers as requested are spawned, capped at the job count). Exposed so
/// callers — and the equivalence test on single-core machines — can force
/// the threaded path.
///
/// # Panics
///
/// Panics if any simulation deadlocks (a bug, not a result).
pub fn run_sweep_with_threads(jobs: Vec<SweepJob<'_>>, threads: usize) -> Vec<SweepResult> {
    let threads = threads.min(jobs.len()).max(1);
    if threads <= 1 {
        return run_sweep_sequential(jobs);
    }
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<SweepResult>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let jobs = &jobs;
    let (next, results) = (&next, &results);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let summary = run_with(job.program, job.cfg.clone(), &job.label);
                *results[i].lock().expect("result slot poisoned") =
                    Some(SweepResult { workload: job.workload, label: job.label.clone(), summary });
            });
        }
    });
    results
        .iter()
        .map(|slot| slot.lock().expect("result slot poisoned").take().expect("every job ran"))
        .collect()
}

/// Runs every job on the calling thread, in order. Reference implementation
/// for [`run_sweep_parallel`]; the two produce identical results.
///
/// # Panics
///
/// Panics if any simulation deadlocks (a bug, not a result).
pub fn run_sweep_sequential(jobs: Vec<SweepJob<'_>>) -> Vec<SweepResult> {
    jobs.into_iter()
        .map(|job| {
            let summary = run_with(job.program, job.cfg, &job.label);
            SweepResult { workload: job.workload, label: job.label, summary }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_core::CiModel;
    use tp_trace::SelectionConfig;
    use tp_workloads::{by_name, Size};

    /// Acceptance: a 3-config parallel sweep produces exactly the same
    /// per-config stats as sequential runs.
    #[test]
    fn parallel_sweep_matches_sequential() {
        let w = by_name("compress", Size::Tiny).unwrap();
        let jobs = || {
            vec![
                SweepJob {
                    workload: "compress",
                    label: "base".into(),
                    program: &w.program,
                    cfg: TraceProcessorConfig::baseline(SelectionConfig::base()),
                },
                SweepJob {
                    workload: "compress",
                    label: "fg".into(),
                    program: &w.program,
                    cfg: TraceProcessorConfig::paper(CiModel::Fg),
                },
                SweepJob {
                    workload: "compress",
                    label: "fg,mlb-ret".into(),
                    program: &w.program,
                    cfg: TraceProcessorConfig::paper(CiModel::FgMlbRet),
                },
            ]
        };
        let seq = run_sweep_sequential(jobs());
        // Force the threaded path even on single-core machines.
        let par = run_sweep_with_threads(jobs(), 3);
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.workload, p.workload);
            assert_eq!(s.label, p.label);
            assert_eq!(s.summary.halted, p.summary.halted);
            assert_eq!(s.summary.stats, p.summary.stats, "stats diverged for {}", s.label);
        }
        // Sanity: the three configs genuinely differ.
        assert_ne!(seq[0].summary.stats.cycles, seq[2].summary.stats.cycles);
    }
}
