//! Host-side wall-time profiler for the simulator's pipeline-stage
//! modules.
//!
//! This measures *host* cost (where the simulator spends wall-clock time),
//! not simulated cycles. The simulator holds an `Option<Box<StageProfiler>>`
//! — the one cold discriminant test per cycle when disabled — and wraps
//! each stage call in a [`ScopedStageTimer`], which is a no-op when no
//! profiler is attached. Accumulators are [`Cell`]s so the RAII guard only
//! needs a shared borrow, leaving the simulator free to borrow itself
//! mutably for the stage call it is timing.

use std::cell::Cell;
use std::time::Instant;

use tp_stats::json::Json;
use tp_stats::Table;

/// The eight pipeline-stage modules of the detailed model, in the order
/// `step_cycle` runs them (re-dispatch runs inside dispatch when a pass is
/// active, but is its own module and its own timer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Execution-completion stage.
    Complete,
    /// Retirement stage.
    Retire,
    /// Misprediction-recovery stage.
    Recovery,
    /// Trace fetch (prediction, cache, construction).
    Fetch,
    /// Trace dispatch (allocation, renaming).
    Dispatch,
    /// Re-dispatch pass over preserved traces.
    Redispatch,
    /// Instruction issue.
    Issue,
    /// Cache/result bus arbitration.
    Buses,
}

impl Stage {
    /// All stages, in `step_cycle` order.
    pub const ALL: [Stage; 8] = [
        Stage::Complete,
        Stage::Retire,
        Stage::Recovery,
        Stage::Fetch,
        Stage::Dispatch,
        Stage::Redispatch,
        Stage::Issue,
        Stage::Buses,
    ];

    /// A short stable label (used in reports and JSON).
    pub fn label(self) -> &'static str {
        match self {
            Stage::Complete => "complete",
            Stage::Retire => "retire",
            Stage::Recovery => "recovery",
            Stage::Fetch => "fetch",
            Stage::Dispatch => "dispatch",
            Stage::Redispatch => "redispatch",
            Stage::Issue => "issue",
            Stage::Buses => "buses",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Per-stage host wall-time accumulators.
#[derive(Debug, Default)]
pub struct StageProfiler {
    nanos: [Cell<u64>; 8],
    calls: [Cell<u64>; 8],
}

impl StageProfiler {
    /// A zeroed profiler.
    pub fn new() -> StageProfiler {
        StageProfiler::default()
    }

    /// Accumulated host nanoseconds in `stage`.
    pub fn nanos(&self, stage: Stage) -> u64 {
        self.nanos[stage.index()].get()
    }

    /// Number of timed entries into `stage`.
    pub fn calls(&self, stage: Stage) -> u64 {
        self.calls[stage.index()].get()
    }

    /// Total accumulated nanoseconds across all stages.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().map(Cell::get).sum()
    }

    fn add(&self, stage: Stage, nanos: u64) {
        let i = stage.index();
        self.nanos[i].set(self.nanos[i].get() + nanos);
        self.calls[i].set(self.calls[i].get() + 1);
    }

    /// The per-stage breakdown as a [`Table`]: total milliseconds, share
    /// of the profiled total, and mean nanoseconds per call.
    pub fn table(&self) -> Table {
        let total = self.total_nanos().max(1) as f64;
        let mut t = Table::new("stage", &["ms", "share%", "ns/call"]);
        for s in Stage::ALL {
            let ns = self.nanos(s) as f64;
            let calls = self.calls(s).max(1) as f64;
            t.row(s.label(), &[ns / 1e6, 100.0 * ns / total, ns / calls]);
        }
        t
    }

    /// The breakdown as a JSON object keyed by stage label, each value
    /// `{nanos, calls}`.
    pub fn to_json(&self) -> Json {
        Json::obj(Stage::ALL.map(|s| {
            (
                s.label(),
                Json::obj([("nanos", self.nanos(s).into()), ("calls", self.calls(s).into())]),
            )
        }))
    }
}

/// RAII guard timing one stage entry: starts a host clock on construction
/// when a profiler is present, and folds the elapsed time into the
/// profiler on drop. With `None` both ends are no-ops.
#[must_use = "the timer measures until dropped"]
pub struct ScopedStageTimer<'a> {
    prof: Option<(&'a StageProfiler, Stage, Instant)>,
}

impl<'a> ScopedStageTimer<'a> {
    /// Starts timing `stage` against `prof`, if attached.
    #[inline]
    pub fn new(prof: Option<&'a StageProfiler>, stage: Stage) -> ScopedStageTimer<'a> {
        ScopedStageTimer { prof: prof.map(|p| (p, stage, Instant::now())) }
    }
}

impl Drop for ScopedStageTimer<'_> {
    fn drop(&mut self) {
        if let Some((p, stage, start)) = self.prof.take() {
            p.add(stage, start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timer_records_nothing() {
        let p = StageProfiler::new();
        {
            let _t = ScopedStageTimer::new(None, Stage::Fetch);
        }
        assert_eq!(p.total_nanos(), 0);
        assert_eq!(p.calls(Stage::Fetch), 0);
    }

    #[test]
    fn enabled_timer_accumulates() {
        let p = StageProfiler::new();
        for _ in 0..3 {
            let _t = ScopedStageTimer::new(Some(&p), Stage::Issue);
        }
        assert_eq!(p.calls(Stage::Issue), 3);
        assert_eq!(p.calls(Stage::Fetch), 0);
        // Wall time is monotone, so three timed scopes accumulate >= 0 ns
        // and the total equals the single stage's total.
        assert_eq!(p.total_nanos(), p.nanos(Stage::Issue));
    }

    #[test]
    fn stage_labels_are_unique() {
        let mut seen: Vec<&str> = Stage::ALL.iter().map(|s| s.label()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), Stage::ALL.len());
    }
}
