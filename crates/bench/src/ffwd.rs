//! Fast-forward throughput benchmark: interpreter vs superblock engine.
//!
//! Runs each workload to halt twice through [`FastForward`] — once with
//! the superblock engine disabled (the reference interpreter) and once
//! with it enabled — measuring functional-warming throughput and proving
//! the two engines produce byte-identical TPCK checkpoints at halt. This
//! is both the throughput measurement behind the `sampled` section of
//! `BENCH_speed.json` (the ISSUE's ≥10x gate runs on the long suite) and
//! the all-workload bit-exactness cross-check behind `ckpt smoke`.
//!
//! Tiny workloads finish in microseconds, far below timer resolution, so
//! each engine's timing loop repeats whole runs until a minimum wall time
//! has accumulated; the reported throughput is total instructions over
//! total wall. Every repetition does identical work (the engines are
//! deterministic), so repetition changes variance, not the estimate.

use std::time::Instant;

use tp_ckpt::FastForward;
use tp_core::{CiModel, TraceProcessorConfig};
use tp_stats::json::Json;
use tp_workloads::{Size, Workload};

/// Minimum accumulated wall time per (workload, engine) measurement.
const MIN_WALL_SECONDS: f64 = 0.05;

/// One workload's interpreter-vs-superblock throughput comparison.
#[derive(Clone, Debug)]
pub struct FfwdBenchCell {
    /// Workload name.
    pub workload: &'static str,
    /// Instructions retired by one full run to halt (identical for both
    /// engines — asserted).
    pub instrs: u64,
    /// Interpreter throughput, retired instructions per host second.
    pub interp_ips: f64,
    /// Superblock-engine throughput, retired instructions per host second.
    pub superblock_ips: f64,
    /// Whether the two engines' halt checkpoints are byte-identical
    /// (always true — a mismatch panics — but recorded in the artifact so
    /// the JSON is self-describing).
    pub tpck_equal: bool,
}

impl FfwdBenchCell {
    /// Superblock speedup over the interpreter.
    pub fn speedup(&self) -> f64 {
        if self.interp_ips <= 0.0 {
            0.0
        } else {
            self.superblock_ips / self.interp_ips
        }
    }
}

/// Runs one workload to halt under one engine, repeating whole runs until
/// [`MIN_WALL_SECONDS`] has accumulated. Returns the throughput, the
/// per-run retired count, and the halt checkpoint's TPCK bytes.
fn measure(w: &Workload, cfg: &TraceProcessorConfig, superblock: bool) -> (f64, u64, Vec<u8>) {
    let (mut wall, mut instrs) = (0.0f64, 0u64);
    let mut bytes = Vec::new();
    let mut retired = 0;
    while wall < MIN_WALL_SECONDS {
        let mut ff = FastForward::new(&w.program, cfg);
        ff.set_frontend(w.frontend);
        ff.set_superblock(superblock);
        let t = Instant::now();
        ff.skip(u64::MAX).unwrap_or_else(|e| panic!("{}: fast-forward failed: {e}", w.name));
        wall += t.elapsed().as_secs_f64();
        assert!(ff.halted(), "{}: fast-forward did not halt", w.name);
        instrs += ff.retired();
        retired = ff.retired();
        if bytes.is_empty() {
            bytes = ff.checkpoint().encode();
        }
    }
    (instrs as f64 / wall, retired, bytes)
}

/// Benchmarks every workload in `workloads` under `model`, asserting the
/// two engines halt with byte-identical TPCK checkpoints.
///
/// # Panics
///
/// Panics if a run fails to halt or the engines' checkpoints diverge —
/// a correctness bug, not a result.
pub fn run_ffwd_bench(workloads: &[Workload], model: CiModel) -> Vec<FfwdBenchCell> {
    let cfg = TraceProcessorConfig::paper(model);
    workloads
        .iter()
        .map(|w| {
            let (interp_ips, interp_instrs, interp_bytes) = measure(w, &cfg, false);
            let (superblock_ips, sb_instrs, sb_bytes) = measure(w, &cfg, true);
            assert_eq!(
                interp_instrs, sb_instrs,
                "{}: engines retired different instruction counts",
                w.name
            );
            assert_eq!(
                interp_bytes, sb_bytes,
                "{}: interpreter and superblock TPCK bytes diverge at halt",
                w.name
            );
            FfwdBenchCell {
                workload: w.name,
                instrs: sb_instrs,
                interp_ips,
                superblock_ips,
                tpck_equal: true,
            }
        })
        .collect()
}

/// Geometric-mean speedup across cells (zero for an empty grid).
pub fn speedup_geomean(cells: &[FfwdBenchCell]) -> f64 {
    if cells.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = cells.iter().map(|c| c.speedup().max(1e-12).ln()).sum();
    (log_sum / cells.len() as f64).exp()
}

/// The benchmark as a `tp-bench/ffwd/v1` JSON object: the `sampled`
/// section embedded in `BENCH_speed.json`, and the standalone document
/// `speed --ffwd-bench --out` writes and CI uploads.
pub fn ffwd_section_json(cells: &[FfwdBenchCell], size: Size, model: CiModel) -> Json {
    let cell = |c: &FfwdBenchCell| {
        Json::obj([
            ("workload", c.workload.into()),
            ("instrs", c.instrs.into()),
            (
                "ffwd_instrs_per_sec",
                Json::obj([
                    ("interpreter", c.interp_ips.into()),
                    ("superblock", c.superblock_ips.into()),
                ]),
            ),
            ("speedup", c.speedup().into()),
            ("tpck_equal", c.tpck_equal.into()),
        ])
    };
    Json::obj([
        ("schema", "tp-bench/ffwd/v1".into()),
        ("suite_size", crate::speed::size_name(size).into()),
        ("model", model.name().into()),
        ("ffwd_speedup_geomean", speedup_geomean(cells).into()),
        ("ffwd", Json::Arr(cells.iter().map(cell).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_workloads::by_name;

    #[test]
    fn bench_cell_math() {
        let c = FfwdBenchCell {
            workload: "x",
            instrs: 1000,
            interp_ips: 2.0e6,
            superblock_ips: 3.0e7,
            tpck_equal: true,
        };
        assert!((c.speedup() - 15.0).abs() < 1e-9);
        assert!((speedup_geomean(&[c.clone(), c]) - 15.0).abs() < 1e-9);
        assert_eq!(speedup_geomean(&[]), 0.0);
    }

    #[test]
    fn tiny_cell_runs_and_serializes() {
        let w = by_name("li", Size::Tiny).unwrap();
        let cells = run_ffwd_bench(std::slice::from_ref(&w), CiModel::MlbRet);
        assert_eq!(cells.len(), 1);
        assert!(cells[0].instrs > 0);
        assert!(cells[0].interp_ips > 0.0 && cells[0].superblock_ips > 0.0);
        assert!(cells[0].tpck_equal);
        let text = ffwd_section_json(&cells, Size::Tiny, CiModel::MlbRet).to_string();
        let doc = crate::json::parse(&text).unwrap();
        assert_eq!(doc.str("schema"), Some("tp-bench/ffwd/v1"));
        assert_eq!(doc.str("model"), Some("MLB-RET"));
        let rows = doc.get("ffwd").and_then(Json::as_array).unwrap();
        assert_eq!(rows[0].str("workload"), Some("li"));
        let ips = rows[0].get("ffwd_instrs_per_sec").unwrap();
        assert!(ips.num("interpreter").unwrap() > 0.0 && ips.num("superblock").unwrap() > 0.0);
        assert_eq!(rows[0].get("tpck_equal"), Some(&Json::Bool(true)));
    }
}
