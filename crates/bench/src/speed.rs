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
//! ROADMAP tracks). The JSON emitter is hand-rolled because the build is
//! offline.

use tp_core::{CiModel, SimStats, TraceProcessor, TraceProcessorConfig};
use tp_predict::TracePredictorStats;
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
    match s {
        "tiny" => Some(Size::Tiny),
        "small" => Some(Size::Small),
        "full" => Some(Size::Full),
        "long" => Some(Size::Long),
        _ => None,
    }
}

fn num(x: f64) -> String {
    // JSON number: finite, fixed precision (the digest-stable part of the
    // file is the integer counters; rates are derived convenience values).
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "0.0".to_string()
    }
}

/// Renders the grid as the `BENCH_speed.json` document
/// (`tp-bench/speed/v2` schema; see README "Benchmarking").
pub fn to_json(cells: &[SpeedCell], size: Size) -> String {
    to_json_with_sampled(cells, size, None)
}

/// [`to_json`] with an optional pre-rendered `sampled` section — the
/// fast-forward throughput report from [`crate::ffwd::ffwd_section_json`]
/// (a JSON object, embedded verbatim the way attribution ledgers are).
pub fn to_json_with_sampled(cells: &[SpeedCell], size: Size, sampled: Option<&str>) -> String {
    let total_wall: f64 = cells.iter().map(|c| c.wall_seconds).sum();
    let total_instrs: u64 = cells.iter().map(|c| c.stats.retired_instrs).sum();
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"tp-bench/speed/v2\",\n");
    s.push_str(&format!("  \"suite_size\": \"{}\",\n", size_name(size)));
    s.push_str(&format!("  \"wall_seconds_total\": {},\n", num(total_wall)));
    s.push_str(&format!("  \"retired_instrs_total\": {total_instrs},\n"));
    s.push_str(&format!(
        "  \"instrs_per_sec_total\": {},\n",
        num(if total_wall > 0.0 { total_instrs as f64 / total_wall } else { 0.0 })
    ));
    if let Some(section) = sampled {
        s.push_str(&format!("  \"sampled\": {section},\n"));
    }
    s.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let st = &c.stats;
        s.push_str("    {");
        s.push_str(&format!("\"workload\": \"{}\", ", c.workload));
        s.push_str(&format!("\"model\": \"{}\", ", c.model.name()));
        s.push_str(&format!("\"pes\": {}, ", c.pes));
        s.push_str(&format!("\"instrs\": {}, ", st.retired_instrs));
        s.push_str(&format!("\"cycles\": {}, ", st.cycles));
        s.push_str(&format!("\"ipc\": {}, ", num(st.ipc())));
        s.push_str(&format!("\"wall_seconds\": {}, ", num(c.wall_seconds)));
        s.push_str(&format!("\"instrs_per_sec\": {}, ", num(c.instrs_per_sec())));
        s.push_str(&format!("\"branch_misp_rate_pct\": {}, ", num(st.branch_misp_rate())));
        s.push_str(&format!("\"branch_misp_per_kilo\": {}, ", num(st.branch_misp_per_kilo())));
        s.push_str(&format!("\"trace_misp_rate_pct\": {}, ", num(st.trace_misp_rate())));
        s.push_str(&format!("\"trace_misp_per_kilo\": {}, ", num(st.trace_misp_per_kilo())));
        s.push_str(&format!("\"avg_trace_len\": {}, ", num(st.avg_trace_len())));
        s.push_str(&format!("\"dispatched_traces\": {}, ", st.dispatched_traces));
        s.push_str(&format!("\"squashed_traces\": {}, ", st.squashed_traces));
        s.push_str(&format!("\"reissue_events\": {}, ", st.reissue_events));
        let p = &c.predictor;
        s.push_str(&format!(
            "\"predictor\": {{\"predictions\": {}, \"path_hits\": {}, \"simple_hits\": {}, \
             \"no_prediction\": {}, \"path_tag_evictions\": {}, \"path_repoints\": {}, \
             \"simple_tag_evictions\": {}, \"simple_repoints\": {}}}, ",
            p.predictions,
            p.path_hits,
            p.simple_hits,
            p.no_prediction,
            p.path_tag_evictions,
            p.path_repoints,
            p.simple_tag_evictions,
            p.simple_repoints
        ));
        s.push_str("\"attribution\": ");
        s.push_str(&c.attribution.to_json());
        s.push_str(if i + 1 == cells.len() { "}\n" } else { "},\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_runs_and_serializes() {
        let cells = run_grid_on(&suite(Size::Tiny), &[CiModel::None, CiModel::Fg], &DEFAULT_PES);
        assert_eq!(cells.len(), 16, "two cells per workload");
        assert!(cells.iter().all(|c| c.stats.retired_instrs > 0 && c.stats.cycles > 0));
        let json = to_json(&cells, Size::Tiny);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"schema\": \"tp-bench/speed/v2\""));
        assert!(json.contains("\"suite_size\": \"tiny\""));
        assert!(json.contains("\"workload\": \"compress\""));
        assert!(json.contains("\"model\": \"base\""));
        assert!(json.contains("\"pes\": 16"));
        assert!(json.contains("\"predictor\""));
        assert!(json.contains("\"attribution\""));
        // 8 workloads x 2 models.
        assert_eq!(json.matches("\"workload\"").count(), 16);
        // An FG cell on a branchy workload has attribution rows.
        assert!(json.contains("fgci-repair"), "{json}");
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
