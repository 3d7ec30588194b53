//! Metrics collection grid and the perf-trend diff gate behind the
//! `simprof` bin.
//!
//! Three pieces:
//!
//! * **Per-cell collection** — runs a `(workload, model)` cell with a
//!   full-interest [`MetricsSink`] (seeded with the static-ipdom map from
//!   tp-cfg so CGCI detections land in the reconvergence-distance
//!   histogram) and the host stage profiler attached, and keeps the
//!   derived distributions next to the headline stats.
//! * **Phase series** — an observer of the one sampled driver
//!   ([`run_sampled_with`]): it attaches a [`MetricsSink`] after each
//!   round's warmup and records one point per leg. The first detailed
//!   interval is the *cold* phase (it boots the initial image,
//!   bit-identical to a full run's start), later intervals are *steady*,
//!   and the functional fast-forward legs appear as instruction-only
//!   points. One merged [`Metrics`] per phase rides along.
//! * **Diff comparator** — [`diff_documents`] compares two harness JSON
//!   documents (`tp-bench/speed/v2` or `tp-bench/metrics/v1`) cell by
//!   cell. Simulated figures (IPC, distribution percentiles) are
//!   deterministic, so drops beyond the threshold are hard *regressions*;
//!   host throughput varies across machines, so its drifts are
//!   warn-only. This is the CI perf-trend gate.

use std::collections::HashMap;

use tp_cfg::CfgAnalysis;
use tp_core::{CiModel, SimStats, TraceProcessor, TraceProcessorConfig, WorkCounters};
use tp_isa::{Pc, Program};
use tp_metrics::{Metrics, MetricsSink, StageProfiler};
use tp_stats::json::Json;
use tp_stats::{per_kilo, Table};
use tp_workloads::{Size, Workload};

use crate::runner::run_cell;
use crate::sampled::{run_sampled_with, Interval, RoundObserver, SampleConfig};
use crate::speed::size_name;

/// The static immediate-post-dominator map of every conditional branch
/// that has one: `branch pc -> re-convergence pc`, straight from the
/// tp-cfg oracle. Branches without a static re-convergence point
/// (function-exit splits) are absent, and detections on them are counted
/// by the sink's `reconv_unmapped` counter instead.
pub fn ipdom_map(program: &Program) -> HashMap<u32, u32> {
    let analysis = CfgAnalysis::build(program);
    let mut map = HashMap::new();
    for (pc, inst) in program.insts().iter().enumerate() {
        if inst.is_cond_branch() {
            let pc = pc as Pc;
            if let Some(r) = analysis.reconv_point(pc) {
                map.insert(pc, r);
            }
        }
    }
    map
}

/// One `(workload, model)` metrics measurement: headline stats plus the
/// derived distributions and the host stage profile.
#[derive(Debug)]
pub struct MetricsCell {
    /// Workload name.
    pub workload: &'static str,
    /// Control-independence model.
    pub model: CiModel,
    /// Final simulation statistics.
    pub stats: SimStats,
    /// Host wall-clock seconds for the run (with observation enabled —
    /// not comparable to bare `speed` figures).
    pub wall_seconds: f64,
    /// The derived distributions and counters.
    pub metrics: Metrics,
    /// Host wall-time per pipeline stage.
    pub profiler: StageProfiler,
    /// The simulator's deterministic bookkeeping counters.
    pub work: WorkCounters,
}

impl MetricsCell {
    /// The bookkeeping counters per 1000 retired instructions, by name.
    pub fn work_per_kinstr(&self) -> [(&'static str, f64); 3] {
        self.work.named().map(|(name, n)| (name, per_kilo(n, self.stats.retired_instrs)))
    }

    /// [`MetricsCell::work_per_kinstr`] as a one-row table.
    pub fn work_table(&self) -> Table {
        let per_kinstr = self.work_per_kinstr();
        let names: Vec<&str> = per_kinstr.iter().map(|&(name, _)| name).collect();
        let mut t = Table::new("work", &names);
        t.precision(3).row("per kinstr", &per_kinstr.map(|(_, v)| v));
        t
    }

    /// Simulator throughput: retired instructions per host second.
    pub fn instrs_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.stats.retired_instrs as f64 / self.wall_seconds
        }
    }
}

/// Runs one cell with the metrics sink (ipdom-seeded) and stage profiler
/// attached.
///
/// # Panics
///
/// Panics if the run deadlocks or fails to halt.
pub fn collect_cell(w: &Workload, model: CiModel) -> MetricsCell {
    let cfg = TraceProcessorConfig::paper(model);
    let mut sim = TraceProcessor::new(&w.program, cfg);
    sim.attach_event_sink(Box::new(MetricsSink::new().with_ipdom(ipdom_map(&w.program))));
    sim.attach_stage_profiler();
    let cell = run_cell(&mut sim, w.name, model.name());
    let profiler = *sim.take_stage_profiler().expect("profiler attached above");
    // Release first: the drain emits balancing close events for still-open
    // spans, which the sink must see before it is detached.
    let sink = sim.release_event_bus().take::<MetricsSink>().expect("attached above");
    MetricsCell {
        workload: w.name,
        model,
        stats: cell.result.stats,
        wall_seconds: cell.wall_seconds,
        metrics: sink.into_metrics(),
        profiler,
        work: sim.work_counters(),
    }
}

/// Runs the whole collection grid: every workload under every model.
///
/// # Panics
///
/// As [`collect_cell`].
pub fn collect_grid(workloads: &[Workload], models: &[CiModel]) -> Vec<MetricsCell> {
    workloads.iter().flat_map(|w| models.iter().map(move |&m| collect_cell(w, m))).collect()
}

/// One point of a sampled run's phase series.
#[derive(Clone, Copy, Debug)]
pub struct PhasePoint {
    /// Leg index on the run's global timeline.
    pub index: u64,
    /// `"cold"` (first detailed interval), `"steady"` (later detailed
    /// intervals), or `"ffwd"` (functional legs — no cycles).
    pub phase: &'static str,
    /// Retired-instruction offset at which the leg started.
    pub start_retired: u64,
    /// Instructions retired by the leg.
    pub instrs: u64,
    /// Cycles the leg took (0 for functional legs).
    pub cycles: u64,
}

impl PhasePoint {
    /// The leg's IPC (0 for functional legs).
    pub fn ipc(&self) -> f64 {
        Interval { start_retired: self.start_retired, instrs: self.instrs, cycles: self.cycles }
            .ipc()
    }
}

/// A sampled run's per-phase metrics: the leg series plus one merged
/// [`Metrics`] per detailed phase.
#[derive(Debug)]
pub struct PhaseReport {
    /// Workload name.
    pub workload: &'static str,
    /// Control-independence model.
    pub model: CiModel,
    /// Every leg, in timeline order.
    pub points: Vec<PhasePoint>,
    /// Merged distributions of the first detailed interval.
    pub cold: Metrics,
    /// Merged distributions of every later detailed interval.
    pub steady: Metrics,
    /// Whether the workload halted.
    pub halted: bool,
}

/// Runs `w` under `model` through the sampled driver as an observer that
/// attaches a fresh metrics sink to every detailed interval (after its
/// warmup leg, so the distributions cover measured work only) and merges
/// the results by phase.
///
/// # Panics
///
/// As [`run_sampled_as`](crate::sampled::run_sampled_as).
pub fn collect_phases(w: &Workload, model: CiModel, sample: &SampleConfig) -> PhaseReport {
    let cfg = TraceProcessorConfig::paper(model);
    let report = PhaseReport {
        workload: w.name,
        model,
        points: Vec::new(),
        cold: Metrics::default(),
        steady: Metrics::default(),
        halted: false,
    };
    let mut obs = PhaseObserver { ipdom: ipdom_map(&w.program), report };
    let run = run_sampled_with(&w.program, w.frontend, &cfg, sample, &mut obs);
    PhaseReport { halted: run.halted, ..obs.report }
}

/// The [`collect_phases`] observer: fills the report's points and merged
/// per-phase [`Metrics`].
struct PhaseObserver {
    ipdom: HashMap<u32, u32>,
    report: PhaseReport,
}

impl PhaseObserver {
    fn push(&mut self, phase: &'static str, start_retired: u64, instrs: u64, cycles: u64) {
        let points = &mut self.report.points;
        points.push(PhasePoint {
            index: points.len() as u64,
            phase,
            start_retired,
            instrs,
            cycles,
        });
    }
}

impl RoundObserver for PhaseObserver {
    fn warmed(&mut self, _round: u64, sim: &mut TraceProcessor<'_>) {
        // Attach after warmup: warmup events are pipeline-priming noise.
        sim.attach_event_sink(Box::new(MetricsSink::new().with_ipdom(self.ipdom.clone())));
    }

    fn interval_end(&mut self, round: u64, iv: Option<&Interval>, sim: &mut TraceProcessor<'_>) {
        // Release before teardown so drained close events reach the sink.
        let sink = sim.release_event_bus().take::<MetricsSink>().expect("attached after warmup");
        let Some(iv) = iv else { return };
        let cold = round == 0;
        self.push(if cold { "cold" } else { "steady" }, iv.start_retired, iv.instrs, iv.cycles);
        let merged = if cold { &mut self.report.cold } else { &mut self.report.steady };
        merged.merge(sink.metrics());
    }

    fn skipped(&mut self, start: u64, instrs: u64) {
        if instrs > 0 {
            self.push("ffwd", start, instrs, 0);
        }
    }
}

/// A collection grid (and optional phase reports) as the
/// `tp-bench/metrics/v1` JSON document.
pub fn metrics_to_json(cells: &[MetricsCell], size: Size, phases: &[PhaseReport]) -> Json {
    let cell = |c: &MetricsCell| {
        Json::obj([
            ("workload", c.workload.into()),
            ("model", c.model.name().into()),
            ("instrs", c.stats.retired_instrs.into()),
            ("cycles", c.stats.cycles.into()),
            ("ipc", c.stats.ipc().into()),
            ("wall_seconds", c.wall_seconds.into()),
            ("instrs_per_sec", c.instrs_per_sec().into()),
            ("metrics", c.metrics.to_json()),
            ("profiler", c.profiler.to_json()),
            ("work_per_kinstr", Json::obj(c.work_per_kinstr().map(|(k, v)| (k, Json::from(v))))),
        ])
    };
    let point = |pt: &PhasePoint| {
        Json::obj([
            ("index", pt.index.into()),
            ("phase", pt.phase.into()),
            ("start_retired", pt.start_retired.into()),
            ("instrs", pt.instrs.into()),
            ("cycles", pt.cycles.into()),
        ])
    };
    let phase = |p: &PhaseReport| {
        Json::obj([
            ("workload", p.workload.into()),
            ("model", p.model.name().into()),
            ("points", Json::Arr(p.points.iter().map(point).collect())),
            ("cold", p.cold.to_json()),
            ("steady", p.steady.to_json()),
        ])
    };
    let mut doc = Json::obj([
        ("schema", "tp-bench/metrics/v1".into()),
        ("suite_size", size_name(size).into()),
        ("cells", Json::Arr(cells.iter().map(cell).collect())),
    ]);
    if !phases.is_empty() {
        doc.push("phases", Json::Arr(phases.iter().map(phase).collect()));
    }
    doc
}

/// Renders a collection grid (and optional phase reports) as a markdown
/// report: one distribution table and one stage-profile table per cell.
pub fn metrics_to_markdown(cells: &[MetricsCell], phases: &[PhaseReport]) -> String {
    let mut s = String::from("# Metrics report\n");
    for c in cells {
        s.push_str(&format!(
            "\n## {} / {} — IPC {:.3}, {} instrs in {} cycles\n\n",
            c.workload,
            c.model.name(),
            c.stats.ipc(),
            c.stats.retired_instrs,
            c.stats.cycles
        ));
        s.push_str(&c.metrics.table().to_markdown());
        s.push('\n');
        s.push_str(&c.profiler.table().to_markdown());
        s.push('\n');
        s.push_str(&c.work_table().to_markdown());
    }
    for p in phases {
        let detailed = p.points.iter().filter(|pt| pt.phase != "ffwd");
        let mut t = Table::new("leg", &["phase", "start_retired", "instrs", "cycles", "ipc"]);
        for pt in detailed {
            t.row_text(
                format!("{}", pt.index),
                &[
                    pt.phase.to_string(),
                    pt.start_retired.to_string(),
                    pt.instrs.to_string(),
                    pt.cycles.to_string(),
                    format!("{:.3}", pt.ipc()),
                ],
            );
        }
        s.push_str(&format!("\n## {} / {} — phase series\n\n", p.workload, p.model.name()));
        s.push_str(&t.to_markdown());
    }
    s
}

/// Thresholds of the perf-trend comparator.
#[derive(Clone, Copy, Debug)]
pub struct DiffThresholds {
    /// Maximum tolerated IPC drop, percent. IPC is deterministic, so this
    /// is a hard gate.
    pub ipc_pct: f64,
    /// Host-throughput drop that earns a warning, percent. Wall-clock is
    /// machine-dependent, so never gated.
    pub host_pct: f64,
    /// Maximum tolerated increase of a distribution percentile, percent.
    /// Percentiles above 64 are bucket-quantized (error < 2×), so the
    /// default absorbs one sub-bucket drift; deterministic runs make any
    /// larger move a real change.
    pub percentile_pct: f64,
}

impl Default for DiffThresholds {
    fn default() -> DiffThresholds {
        DiffThresholds { ipc_pct: 1.0, host_pct: 20.0, percentile_pct: 25.0 }
    }
}

/// One compared figure, kept for the markdown artifact.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// `workload/model[/pes]` cell label.
    pub cell: String,
    /// Figure name (`ipc`, `instrs_per_sec`, `p99 recovery_latency`, …).
    pub metric: String,
    /// Baseline value.
    pub old: f64,
    /// Candidate value.
    pub new: f64,
    /// `"ok"`, `"regression"`, or `"warn"`.
    pub status: &'static str,
}

impl DiffRow {
    /// Relative change, percent (positive = increased).
    pub fn delta_pct(&self) -> f64 {
        if self.old == 0.0 {
            0.0
        } else {
            100.0 * (self.new - self.old) / self.old
        }
    }
}

/// The outcome of a perf-trend comparison.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Hard failures — the gate trips when non-empty.
    pub regressions: Vec<String>,
    /// Non-gating drifts: host throughput, missing/new cells, counter
    /// changes.
    pub warnings: Vec<String>,
    /// Every figure compared.
    pub rows: Vec<DiffRow>,
    /// Number of cells matched between the two documents.
    pub compared_cells: usize,
}

impl DiffReport {
    /// Whether the gate passes.
    pub fn gate_ok(&self) -> bool {
        self.regressions.is_empty()
    }

    /// The report as a markdown artifact.
    pub fn to_markdown(&self) -> String {
        let mut s = String::from("# Perf trend\n\n");
        s.push_str(&format!(
            "{} cells compared, {} regressions, {} warnings — **{}**\n\n",
            self.compared_cells,
            self.regressions.len(),
            self.warnings.len(),
            if self.gate_ok() { "PASS" } else { "FAIL" }
        ));
        let mut t = Table::new("cell", &["metric", "old", "new", "delta%", "status"]);
        for r in &self.rows {
            t.row_text(
                r.cell.clone(),
                &[
                    r.metric.clone(),
                    format!("{:.4}", r.old),
                    format!("{:.4}", r.new),
                    format!("{:+.2}", r.delta_pct()),
                    r.status.to_string(),
                ],
            );
        }
        s.push_str(&t.to_markdown());
        if !self.regressions.is_empty() {
            s.push_str("\n## Regressions\n\n");
            for r in &self.regressions {
                s.push_str(&format!("- {r}\n"));
            }
        }
        if !self.warnings.is_empty() {
            s.push_str("\n## Warnings\n\n");
            for w in &self.warnings {
                s.push_str(&format!("- {w}\n"));
            }
        }
        s
    }
}

/// Compares two harness JSON documents cell by cell.
///
/// Both documents must carry the same `schema`; `tp-bench/speed/v2` and
/// `tp-bench/metrics/v1` are supported. See [`DiffThresholds`] for what
/// gates versus warns.
///
/// # Errors
///
/// Returns a message when a document is malformed or the schemas are
/// missing, different, or unsupported.
pub fn diff_documents(old: &Json, new: &Json, th: &DiffThresholds) -> Result<DiffReport, String> {
    let so = old.str("schema").ok_or("baseline document has no \"schema\"")?;
    let sn = new.str("schema").ok_or("candidate document has no \"schema\"")?;
    if so != sn {
        return Err(format!("schema mismatch: baseline {so:?} vs candidate {sn:?}"));
    }
    match so {
        "tp-bench/speed/v2" | "tp-bench/metrics/v1" => {}
        other => return Err(format!("unsupported schema {other:?}")),
    }
    let with_pes = so == "tp-bench/speed/v2";
    let old_cells = old
        .get("cells")
        .and_then(Json::as_array)
        .ok_or("baseline document has no \"cells\" array")?;
    let new_cells = new
        .get("cells")
        .and_then(Json::as_array)
        .ok_or("candidate document has no \"cells\" array")?;
    let key = |c: &Json| -> Option<String> {
        let w = c.str("workload")?;
        let m = c.str("model")?;
        Some(if with_pes {
            format!("{w}/{m}/{}pe", c.num("pes").unwrap_or(0.0) as u64)
        } else {
            format!("{w}/{m}")
        })
    };
    let new_by_key: HashMap<String, &Json> =
        new_cells.iter().filter_map(|c| Some((key(c)?, c))).collect();
    let mut report = DiffReport::default();
    let mut matched: std::collections::HashSet<String> = std::collections::HashSet::new();
    for oc in old_cells {
        let Some(k) = key(oc) else {
            report.warnings.push("baseline cell without workload/model — skipped".into());
            continue;
        };
        let Some(nc) = new_by_key.get(k.as_str()) else {
            report.warnings.push(format!("{k}: present in baseline, missing from candidate"));
            continue;
        };
        report.compared_cells += 1;
        diff_cell(&k, oc, nc, th, &mut report);
        matched.insert(k);
    }
    for nc in new_cells {
        if let Some(k) = key(nc) {
            if !matched.contains(k.as_str()) {
                report.warnings.push(format!("{k}: new cell, absent from baseline"));
            }
        }
    }
    // Suite-level host throughput (speed/v2 only).
    if let (Some(o), Some(n)) = (old.num("instrs_per_sec_total"), new.num("instrs_per_sec_total")) {
        push_host_row(&mut report, "suite", "instrs_per_sec_total", o, n, th);
    }
    Ok(report)
}

fn diff_cell(k: &str, oc: &Json, nc: &Json, th: &DiffThresholds, report: &mut DiffReport) {
    // IPC: deterministic — hard gate.
    if let (Some(o), Some(n)) = (oc.num("ipc"), nc.num("ipc")) {
        let regressed = n < o * (1.0 - th.ipc_pct / 100.0);
        report.rows.push(DiffRow {
            cell: k.to_string(),
            metric: "ipc".into(),
            old: o,
            new: n,
            status: if regressed { "regression" } else { "ok" },
        });
        if regressed {
            report.regressions.push(format!(
                "{k}: ipc {n:.4} is {:.2}% below baseline {o:.4} (gate {:.2}%)",
                100.0 * (o - n) / o,
                th.ipc_pct
            ));
        }
    }
    // Host throughput: machine-dependent — warn only.
    if let (Some(o), Some(n)) = (oc.num("instrs_per_sec"), nc.num("instrs_per_sec")) {
        push_host_row(report, k, "instrs_per_sec", o, n, th);
    }
    // Distribution percentiles (metrics/v1 cells): deterministic — gated.
    // Compared in the baseline document's order.
    if let (Some(od), Some(nd)) = (dist_obj(oc), dist_obj(nc)) {
        for (name, oh) in od {
            let Some((_, nh)) = nd.iter().find(|(n, _)| n == name) else {
                report.warnings.push(format!("{k}: distribution {name} missing from candidate"));
                continue;
            };
            for p in ["p50", "p90", "p99"] {
                let (Some(o), Some(n)) = (oh.num(p), nh.num(p)) else { continue };
                let regressed = o > 0.0 && n > o * (1.0 + th.percentile_pct / 100.0);
                if regressed || n != o {
                    report.rows.push(DiffRow {
                        cell: k.to_string(),
                        metric: format!("{p} {name}"),
                        old: o,
                        new: n,
                        status: if regressed { "regression" } else { "ok" },
                    });
                }
                if regressed {
                    report.regressions.push(format!(
                        "{k}: {name} {p} rose {o:.0} -> {n:.0} (gate +{:.0}%)",
                        th.percentile_pct
                    ));
                }
            }
            if oh.num("count") != nh.num("count") {
                report.warnings.push(format!(
                    "{k}: {name} count changed {} -> {}",
                    oh.num("count").unwrap_or(0.0),
                    nh.num("count").unwrap_or(0.0)
                ));
            }
        }
    }
}

fn push_host_row(
    report: &mut DiffReport,
    cell: &str,
    metric: &str,
    old: f64,
    new: f64,
    th: &DiffThresholds,
) {
    let drifted = new < old * (1.0 - th.host_pct / 100.0);
    report.rows.push(DiffRow {
        cell: cell.to_string(),
        metric: metric.to_string(),
        old,
        new,
        status: if drifted { "warn" } else { "ok" },
    });
    if drifted {
        report.warnings.push(format!(
            "{cell}: host {metric} {new:.0} is {:.1}% below baseline {old:.0} \
             (machine-dependent; not gated)",
            100.0 * (old - new) / old
        ));
    }
}

fn dist_obj(cell: &Json) -> Option<&[(String, Json)]> {
    cell.get("metrics")?.get("distributions")?.as_object()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_stats::json::parse;
    use tp_workloads::{by_name, Size};

    #[test]
    fn ipdom_map_covers_hammocks() {
        let w = by_name("m88ksim", Size::Tiny).unwrap();
        let map = ipdom_map(&w.program);
        assert!(!map.is_empty(), "m88ksim has re-convergent branches");
        for (&b, &r) in &map {
            assert!(w.program.contains(b) && w.program.contains(r));
        }
    }

    #[test]
    fn collect_cell_fills_distributions() {
        let w = by_name("compress", Size::Tiny).unwrap();
        let c = collect_cell(&w, CiModel::FgMlbRet);
        assert!(c.stats.retired_instrs > 0);
        assert!(c.metrics.traces_retired.get() > 0);
        assert!(!c.metrics.trace_residency.is_empty());
        assert!(c.profiler.total_nanos() > 0);
        // The run itself is unperturbed by observation.
        let bare = crate::run_model(&w.program, CiModel::FgMlbRet);
        assert_eq!(bare.stats.cycles, c.stats.cycles);
    }

    #[test]
    fn phase_series_covers_the_run() {
        let w = by_name("compress", Size::Tiny).unwrap();
        let sample = SampleConfig { warmup: 300, interval: 2_000, skip: 4_000 };
        let p = collect_phases(&w, CiModel::MlbRet, &sample);
        assert!(p.halted);
        assert_eq!(p.points[0].phase, "cold");
        assert!(p.points.iter().any(|pt| pt.phase == "ffwd"));
        assert!(!p.cold.trace_residency.is_empty());
        // Points are ordered on the global retired-instruction timeline.
        for pair in p.points.windows(2) {
            assert!(pair[0].start_retired <= pair[1].start_retired);
        }
    }

    #[test]
    fn json_report_parses_back() {
        let w = by_name("compress", Size::Tiny).unwrap();
        let cells = vec![collect_cell(&w, CiModel::None)];
        let doc = metrics_to_json(&cells, Size::Tiny, &[]).to_string();
        let v = parse(&doc).expect("valid json");
        assert_eq!(v.str("schema"), Some("tp-bench/metrics/v1"));
        let cells = v.get("cells").and_then(Json::as_array).unwrap();
        assert_eq!(cells[0].str("workload"), Some("compress"));
        assert!(cells[0].get("metrics").and_then(|m| m.get("distributions")).is_some());
        assert!(cells[0].get("profiler").is_some());
        let work = cells[0].get("work_per_kinstr").expect("work counters");
        assert!(work.get("global_regs_allocated").is_some_and(|v| v.as_f64() > Some(0.0)));
    }

    fn speed_doc(ipc: f64, ips: f64) -> Json {
        parse(&format!(
            r#"{{"schema": "tp-bench/speed/v2", "instrs_per_sec_total": {ips},
                "cells": [{{"workload": "go", "model": "FG", "pes": 16,
                            "ipc": {ipc}, "instrs_per_sec": {ips}}}]}}"#
        ))
        .expect("valid")
    }

    #[test]
    fn identical_documents_produce_zero_regressions() {
        let (a, b) = (speed_doc(1.5, 1e6), speed_doc(1.5, 1e6));
        let r = diff_documents(&a, &b, &DiffThresholds::default()).unwrap();
        assert!(r.gate_ok(), "{:?}", r.regressions);
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
        assert_eq!(r.compared_cells, 1);
    }

    #[test]
    fn ipc_drop_trips_gate_but_host_drop_only_warns() {
        let base = speed_doc(1.5, 1e6);
        // A 5% IPC drop: hard regression.
        let r =
            diff_documents(&base, &speed_doc(1.5 * 0.95, 1e6), &DiffThresholds::default()).unwrap();
        assert!(!r.gate_ok());
        assert!(r.regressions[0].contains("ipc"));
        // A 50% host-throughput drop: warning only.
        let r = diff_documents(&base, &speed_doc(1.5, 0.5e6), &DiffThresholds::default()).unwrap();
        assert!(r.gate_ok(), "{:?}", r.regressions);
        assert!(!r.warnings.is_empty());
    }

    #[test]
    fn missing_cells_and_schema_mismatches_are_reported() {
        let a = speed_doc(1.5, 1e6);
        let empty = parse(r#"{"schema": "tp-bench/speed/v2", "cells": []}"#).unwrap();
        let r = diff_documents(&a, &empty, &DiffThresholds::default()).unwrap();
        assert!(r.warnings.iter().any(|w| w.contains("missing from candidate")));
        let m = parse(r#"{"schema": "tp-bench/metrics/v1", "cells": []}"#).unwrap();
        assert!(diff_documents(&a, &m, &DiffThresholds::default()).is_err());
        let bad = parse(r#"{"cells": []}"#).unwrap();
        assert!(diff_documents(&bad, &a, &DiffThresholds::default()).is_err());
    }

    #[test]
    fn regenerated_snapshots_diff_clean_and_perturbation_trips_gate() {
        use crate::speed::{run_grid_on, to_json, DEFAULT_PES};
        use tp_core::CiModel;
        // Two independent regenerations of the speed document: simulated
        // figures are deterministic, host wall-clock is not — the diff
        // must report zero regressions either way.
        let models = [CiModel::None, CiModel::MlbRet];
        let workloads = tp_workloads::suite(Size::Tiny);
        let a = run_grid_on(&workloads, &models, &DEFAULT_PES);
        let b = run_grid_on(&workloads, &models, &DEFAULT_PES);
        let (da, db) = (to_json(&a, Size::Tiny, None), to_json(&b, Size::Tiny, None));
        let r = diff_documents(&da, &db, &DiffThresholds::default()).unwrap();
        assert!(r.gate_ok(), "spurious regressions: {:?}", r.regressions);
        assert_eq!(r.compared_cells, 16, "8 workloads x 2 models");
        // A synthetic -5% IPC perturbation (cycles inflated ~5.3%) must
        // trip the 1% gate on every perturbed cell.
        let mut perturbed = b;
        for c in &mut perturbed {
            c.stats.cycles = c.stats.cycles * 20 / 19;
        }
        let dp = to_json(&perturbed, Size::Tiny, None);
        let r = diff_documents(&da, &dp, &DiffThresholds::default()).unwrap();
        assert!(!r.gate_ok(), "a 5% IPC drop must trip the gate");
        assert_eq!(r.regressions.len(), 16, "{:?}", r.regressions);
    }

    #[test]
    fn metrics_documents_gate_percentiles() {
        let doc = |p99: u64| {
            parse(&format!(
                r#"{{"schema": "tp-bench/metrics/v1", "cells": [
                    {{"workload": "go", "model": "FG", "ipc": 1.5,
                      "metrics": {{"distributions": {{"recovery_latency":
                        {{"count": 10, "p50": 4, "p90": 8, "p99": {p99}}}}},
                        "counters": {{}}}}}}]}}"#
            ))
            .expect("valid")
        };
        let r = diff_documents(&doc(16), &doc(16), &DiffThresholds::default()).unwrap();
        assert!(r.gate_ok() && r.warnings.is_empty());
        let r = diff_documents(&doc(16), &doc(64), &DiffThresholds::default()).unwrap();
        assert!(!r.gate_ok());
        assert!(r.regressions[0].contains("recovery_latency p99"));
        let md = r.to_markdown();
        assert!(md.contains("FAIL") && md.contains("regression"));
    }
}
