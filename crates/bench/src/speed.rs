//! Wall-clock speed baseline: the measurement grid behind the `baseline`
//! bin and `BENCH_speed.json`.
//!
//! Runs the full workload suite under the complete five-model
//! control-independence matrix (optionally swept over PE counts) and
//! records, per cell, the *simulated* outcome (cycles, IPC, misprediction
//! rates — machine-independent, guarded by the golden corpus), the
//! misprediction outcome-attribution ledger and next-trace predictor
//! introspection (the `tp-bench/speed/v2` additions that make per-cell
//! regressions diagnosable), and the *simulator's* throughput (wall
//! seconds, retired instructions per second — the perf trajectory the
//! ROADMAP tracks).

use tp_core::{CiModel, SimStats, TraceProcessor, TraceProcessorConfig};
use tp_predict::TracePredictorStats;
use tp_stats::json::Json;
use tp_stats::RecoveryAttribution;
use tp_workloads::{all_workloads, rv_suite, suite, Size, Workload};

use crate::runner::{run_cell, CellRun};

/// Which workload suite a measurement grid runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuiteChoice {
    /// The eight synthetic SPEC95-like kernels.
    Synth,
    /// The six RV64 corpus programs.
    Rv,
    /// Both, synthetic first.
    All,
}

impl SuiteChoice {
    /// Parses a suite label (`synth`, `rv` or `all`).
    pub fn parse(s: &str) -> Option<SuiteChoice> {
        match s {
            "synth" => Some(SuiteChoice::Synth),
            "rv" => Some(SuiteChoice::Rv),
            "all" => Some(SuiteChoice::All),
            _ => None,
        }
    }

    /// Builds the chosen workloads at `size`.
    pub fn workloads(self, size: Size) -> Vec<Workload> {
        match self {
            SuiteChoice::Synth => suite(size),
            SuiteChoice::Rv => rv_suite(size),
            SuiteChoice::All => all_workloads(size),
        }
    }
}

/// The default PE-count axis (the paper's 16-PE machine).
pub const DEFAULT_PES: [usize; 1] = [16];

/// The full PE-count sweep axis.
pub const SWEEP_PES: [usize; 3] = [4, 8, 16];

/// One `(workload, model, PE count)` measurement.
#[derive(Clone, Debug)]
pub struct SpeedCell {
    /// Workload name (paper Table 2).
    pub workload: &'static str,
    /// Control-independence model.
    pub model: CiModel,
    /// Number of processing elements.
    pub pes: usize,
    /// Final simulation statistics.
    pub stats: SimStats,
    /// The misprediction outcome-attribution ledger.
    pub attribution: RecoveryAttribution,
    /// Next-trace predictor statistics.
    pub predictor: TracePredictorStats,
    /// Host wall-clock seconds for the run.
    pub wall_seconds: f64,
}

impl SpeedCell {
    /// Simulator throughput: retired instructions per host second.
    pub fn instrs_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.stats.retired_instrs as f64 / self.wall_seconds
        }
    }
}

/// Runs the whole grid: every workload in `workloads` under every model in
/// `models`, at every PE count in `pe_counts`.
///
/// # Panics
///
/// Panics if any cell deadlocks or fails to halt — a baseline must never
/// be recorded from a broken run.
pub fn run_grid_on(
    workloads: &[Workload],
    models: &[CiModel],
    pe_counts: &[usize],
) -> Vec<SpeedCell> {
    let mut cells = Vec::new();
    for w in workloads {
        for &pes in pe_counts {
            for &model in models {
                let mut cfg = TraceProcessorConfig::paper(model);
                cfg.num_pes = pes;
                let mut sim = TraceProcessor::new(&w.program, cfg);
                let CellRun { result: r, wall_seconds } = run_cell(&mut sim, w.name, model.name());
                cells.push(SpeedCell {
                    workload: w.name,
                    model,
                    pes,
                    stats: r.stats,
                    attribution: r.attribution,
                    predictor: r.predictor,
                    wall_seconds,
                });
            }
        }
    }
    cells
}

/// Absolute slack of the dominance guard, in cycles: recovery events cost
/// whole construction/refill latencies, so on sub-thousand-cycle runs a
/// single event exceeds 1% without meaning anything. One window-refill of
/// slack absorbs that event-granularity noise; at small/full scale (tens
/// of thousands of cycles) the 1% relative bound dominates.
pub const GUARD_SLACK_CYCLES: u64 = 64;

/// The `>1%` CI-model dominance guard: every control-independence model
/// must reach at least 99% of the base model's IPC (modulo
/// [`GUARD_SLACK_CYCLES`]) on every `(workload, PE count)` cell. Returns
/// one message per violation.
pub fn guard_violations(cells: &[SpeedCell]) -> Vec<String> {
    let mut out = Vec::new();
    for c in cells {
        if c.model == CiModel::None {
            continue;
        }
        let Some(base) = cells
            .iter()
            .find(|b| b.model == CiModel::None && b.workload == c.workload && b.pes == c.pes)
        else {
            continue;
        };
        let (ipc, base_ipc) = (c.stats.ipc(), base.stats.ipc());
        let within_slack = c.stats.cycles <= base.stats.cycles + GUARD_SLACK_CYCLES;
        if ipc < base_ipc * 0.99 && !within_slack {
            out.push(format!(
                "{} {} {}pe: ipc {ipc:.4} loses {:.2}% to base ({base_ipc:.4})",
                c.workload,
                c.model.name(),
                c.pes,
                100.0 * (base_ipc - ipc) / base_ipc,
            ));
        }
    }
    out
}

/// The suite-size label used in JSON documents and CLI parsing.
pub fn size_name(size: Size) -> &'static str {
    match size {
        Size::Tiny => "tiny",
        Size::Small => "small",
        Size::Full => "full",
        Size::Long => "long",
    }
}

/// Parses a suite-size label (the inverse of [`size_name`]).
pub fn parse_size(s: &str) -> Option<Size> {
    [Size::Tiny, Size::Small, Size::Full, Size::Long].into_iter().find(|&z| size_name(z) == s)
}

/// The next-trace predictor's introspection counters as a JSON object —
/// the `predictor` member of `BENCH_speed.json` cells and of
/// `cistats --json`.
pub fn predictor_json(p: &TracePredictorStats) -> Json {
    Json::obj([
        ("predictions", p.predictions.into()),
        ("path_hits", p.path_hits.into()),
        ("simple_hits", p.simple_hits.into()),
        ("no_prediction", p.no_prediction.into()),
        ("path_tag_evictions", p.path_tag_evictions.into()),
        ("path_repoints", p.path_repoints.into()),
        ("simple_tag_evictions", p.simple_tag_evictions.into()),
        ("simple_repoints", p.simple_repoints.into()),
    ])
}

/// The grid as the `BENCH_speed.json` document (`tp-bench/speed/v2`
/// schema; see README "Benchmarking"), with an optional `sampled` section:
/// the fast-forward throughput report from [`crate::ffwd::ffwd_section_json`].
pub fn to_json(cells: &[SpeedCell], size: Size, sampled: Option<Json>) -> Json {
    let total_wall: f64 = cells.iter().map(|c| c.wall_seconds).sum();
    let total_instrs: u64 = cells.iter().map(|c| c.stats.retired_instrs).sum();
    let mut doc = Json::obj([
        ("schema", "tp-bench/speed/v2".into()),
        ("suite_size", size_name(size).into()),
        ("wall_seconds_total", total_wall.into()),
        ("retired_instrs_total", total_instrs.into()),
        (
            "instrs_per_sec_total",
            (if total_wall > 0.0 { total_instrs as f64 / total_wall } else { 0.0 }).into(),
        ),
    ]);
    if let Some(section) = sampled {
        doc.push("sampled", section);
    }
    let cell = |c: &SpeedCell| {
        let st = &c.stats;
        Json::obj([
            ("workload", c.workload.into()),
            ("model", c.model.name().into()),
            ("pes", c.pes.into()),
            ("instrs", st.retired_instrs.into()),
            ("cycles", st.cycles.into()),
            ("ipc", st.ipc().into()),
            ("wall_seconds", c.wall_seconds.into()),
            ("instrs_per_sec", c.instrs_per_sec().into()),
            ("branch_misp_rate_pct", st.branch_misp_rate().into()),
            ("branch_misp_per_kilo", st.branch_misp_per_kilo().into()),
            ("trace_misp_rate_pct", st.trace_misp_rate().into()),
            ("trace_misp_per_kilo", st.trace_misp_per_kilo().into()),
            ("avg_trace_len", st.avg_trace_len().into()),
            ("dispatched_traces", st.dispatched_traces.into()),
            ("squashed_traces", st.squashed_traces.into()),
            ("reissue_events", st.reissue_events.into()),
            ("predictor", predictor_json(&c.predictor)),
            ("attribution", c.attribution.to_json()),
        ])
    };
    doc.push("cells", Json::Arr(cells.iter().map(cell).collect()));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_runs_and_serializes() {
        let cells = run_grid_on(&suite(Size::Tiny), &[CiModel::None, CiModel::Fg], &DEFAULT_PES);
        assert_eq!(cells.len(), 16, "two cells per workload");
        assert!(cells.iter().all(|c| c.stats.retired_instrs > 0 && c.stats.cycles > 0));
        let doc = crate::json::parse(&to_json(&cells, Size::Tiny, None).to_string()).unwrap();
        assert_eq!(
            (doc.str("schema"), doc.str("suite_size")),
            (Some("tp-bench/speed/v2"), Some("tiny"))
        );
        // 8 workloads x 2 models, in grid order.
        let rows = doc.get("cells").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 16);
        assert_eq!(
            (rows[0].str("workload"), rows[0].str("model")),
            (Some("compress"), Some("base"))
        );
        assert_eq!(rows[0].num("pes"), Some(16.0));
        assert!(rows
            .iter()
            .all(|r| r.get("predictor").and_then(|p| p.num("predictions")).is_some()));
        // An FG cell on a branchy workload has attribution rows.
        let ledger = rows.iter().filter_map(|r| r.get("attribution")?.as_array()).flatten();
        assert!(ledger.clone().any(|a| a.str("outcome") == Some("fgci-repair")), "{ledger:?}");
    }

    /// The checked-in baseline is the renderer's own output: parsing it
    /// and rendering it again reproduces the file byte for byte.
    #[test]
    fn checked_in_baseline_round_trips_byte_for_byte() {
        let file = include_str!("../../../BENCH_speed.json");
        assert_eq!(crate::json::parse(file).unwrap().to_string(), file);
    }

    #[test]
    fn pe_axis_produces_distinct_cells() {
        let w = "m88ksim";
        let cells: Vec<SpeedCell> = run_grid_on(&suite(Size::Tiny), &[CiModel::None], &[4, 16])
            .into_iter()
            .filter(|c| c.workload == w)
            .collect();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].pes, 4);
        assert_eq!(cells[1].pes, 16);
        // Same committed work, different machine width.
        assert_eq!(cells[0].stats.retired_instrs, cells[1].stats.retired_instrs);
        assert_ne!(cells[0].stats.cycles, cells[1].stats.cycles);
    }

    #[test]
    fn guard_flags_only_losing_models() {
        let mk = |model: CiModel, cycles: u64| SpeedCell {
            workload: "x",
            model,
            pes: 16,
            stats: SimStats { retired_instrs: 1000, cycles, ..SimStats::default() },
            attribution: RecoveryAttribution::new(),
            predictor: TracePredictorStats::default(),
            wall_seconds: 0.1,
        };
        // FG 2% slower than base, MLB-RET faster: only FG is flagged.
        let cells =
            vec![mk(CiModel::None, 100_000), mk(CiModel::Fg, 102_000), mk(CiModel::MlbRet, 90_000)];
        let v = guard_violations(&cells);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("FG"), "{v:?}");
        // Within 1%: not flagged.
        let cells = vec![mk(CiModel::None, 100_000), mk(CiModel::Fg, 100_900)];
        assert!(guard_violations(&cells).is_empty());
        // A large relative loss on a tiny run stays within the absolute
        // event-granularity slack: not flagged.
        let cells = vec![mk(CiModel::None, 500), mk(CiModel::Fg, 540)];
        assert!(guard_violations(&cells).is_empty());
    }

    #[test]
    fn throughput_is_positive_and_consistent() {
        let c = SpeedCell {
            workload: "x",
            model: CiModel::None,
            pes: 16,
            stats: SimStats { retired_instrs: 1000, cycles: 500, ..SimStats::default() },
            attribution: RecoveryAttribution::new(),
            predictor: TracePredictorStats::default(),
            wall_seconds: 0.5,
        };
        assert!((c.instrs_per_sec() - 2000.0).abs() < 1e-9);
    }
}
