//! Sampled simulation: alternating functional fast-forward and detailed
//! measurement intervals.
//!
//! A sampled run cuts the program into rounds of
//! `[detailed warmup + measured interval][functional skip]`: the detailed
//! cycle model only executes the intervals, while the fast-forward engine
//! executes the skips functionally *with predictor warming* and carries
//! the detailed model's own trained structures across each skip
//! ([`FastForward::adopt_interval`]), so every interval starts with the predictor
//! state an uninterrupted detailed run would have had. Every checkpoint
//! handed to the detailed model goes through a full encode/decode of the
//! binary format — there is exactly one boot path, the one the `ckpt`
//! binary and CI artifacts use.
//!
//! The round protocol — checkpoint boot → warmup → measured interval →
//! warm hand-back → jittered skip — is written once, in
//! [`run_sampled_with`]. Analyses attach to it as a [`RoundObserver`]
//! with hooks after boot, after warmup, at interval end (before the
//! detailed model is torn down) and after each skip, plus an early stop.
//! [`run_sampled_as`] is the driver with the no-op observer `()`; the
//! metrics phase series and the sampled event capture are observers.
//!
//! Aggregation follows the standard systematic-sampling estimate: the IPC
//! estimate is `sum(interval instructions) / sum(interval cycles)`, and
//! the reported error bound is a 95% confidence interval over the
//! per-interval IPCs (normal approximation). Warmup instructions execute
//! in the detailed model but are excluded from the measurement.

use std::time::Instant;

use tp_ckpt::{Checkpoint, FastForward};
use tp_core::{CiModel, TraceProcessor, TraceProcessorConfig};
use tp_isa::{Frontend, Program};
use tp_stats::json::Json;
use tp_stats::RecoveryAttribution;
use tp_workloads::{Size, Workload};

use crate::runner::run_cell;

/// The sampling regime: how much detail per round, and how far to
/// fast-forward between rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleConfig {
    /// Detailed instructions per round whose statistics are discarded
    /// (absorbs the pipeline-fill transient after a checkpoint boot).
    pub warmup: u64,
    /// Detailed instructions measured per round.
    pub interval: u64,
    /// Instructions fast-forwarded functionally between rounds.
    pub skip: u64,
}

impl SampleConfig {
    /// Dense sampling for short (tiny/small) workloads: no skipping —
    /// every instruction runs detailed, in interval-sized chunks with
    /// warming carried across chunk boundaries. This is the *accuracy
    /// validation* regime behind the 5% cross-check and the CI smoke:
    /// boot transients are the only error source, and the interval length
    /// amortizes them to under a couple of percent (workloads that fit in
    /// one interval reproduce the full run's cycle count exactly). The
    /// warmup covers a 16-PE window refill (~512 in-flight instructions)
    /// with margin.
    pub fn dense() -> SampleConfig {
        SampleConfig { warmup: 768, interval: 5_000, skip: 0 }
    }

    /// Sparse sampling for long workloads — the *speedup* regime: ~12% of
    /// instructions run detailed, the rest fast-forward functionally with
    /// warming. Validated on the long suite at <0.5% IPC error against
    /// full detailed runs.
    pub fn sparse() -> SampleConfig {
        SampleConfig { warmup: 1_500, interval: 12_000, skip: 100_000 }
    }
}

/// One measured interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Retired-instruction position of the first measured instruction.
    pub start_retired: u64,
    /// Instructions measured (may overshoot the configured interval by up
    /// to one trace).
    pub instrs: u64,
    /// Cycles the interval took.
    pub cycles: u64,
}

impl Interval {
    /// The interval's IPC.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }
}

/// A completed sampled run.
#[derive(Clone, Debug)]
pub struct SampledRun {
    /// The measured intervals, in program order.
    pub intervals: Vec<Interval>,
    /// Total program instructions (functional + detailed legs together).
    pub total_instrs: u64,
    /// Instructions measured in detailed intervals.
    pub detailed_instrs: u64,
    /// Detailed instructions spent on (discarded) warmup.
    pub warmup_instrs: u64,
    /// Instructions covered by functional fast-forward.
    pub ffwd_instrs: u64,
    /// Whether the program halted (it always should).
    pub halted: bool,
    /// Host wall-clock seconds for the whole sampled run.
    pub wall_seconds: f64,
    /// Host wall-clock seconds spent inside the functional fast-forward
    /// legs (a subset of [`SampledRun::wall_seconds`]).
    pub ffwd_wall_seconds: f64,
    /// Merged misprediction outcome-attribution ledger of the intervals.
    pub attribution: RecoveryAttribution,
}

impl SampledRun {
    /// The steady-state intervals: everything after the first. The first
    /// interval is special — it starts at instruction 0 from the true
    /// cold-boot state, so it measures the program's cold-start phase
    /// *exactly* and must not be extrapolated over the rest of the run
    /// (a cold start is a one-off, not a recurring phase; flat averaging
    /// over-weights it by the sampling ratio).
    fn steady(&self) -> &[Interval] {
        if self.intervals.len() > 1 {
            &self.intervals[1..]
        } else {
            &self.intervals
        }
    }

    /// Whole-program cycle estimate: the first interval's cycles taken
    /// exactly, plus the remaining instructions extrapolated at the
    /// steady-state intervals' aggregate CPI (a stratified ratio
    /// estimate). When sampling is exhaustive (`skip = 0` and no warmup
    /// discarded) this degenerates to the exact measured cycle count.
    pub fn estimated_cycles(&self) -> f64 {
        let Some(cold) = self.intervals.first() else { return 0.0 };
        let rest_instrs = self.total_instrs.saturating_sub(cold.instrs) as f64;
        let cpi = if self.intervals.len() == 1 {
            // A single interval measured from cold covers the run up to
            // `total_instrs`; extrapolate any tail at its own CPI.
            cold.cycles as f64 / cold.instrs.max(1) as f64
        } else {
            let steady = self.steady();
            let (si, sc) =
                steady.iter().fold((0u64, 0u64), |(i, c), iv| (i + iv.instrs, c + iv.cycles));
            if si == 0 {
                0.0
            } else {
                sc as f64 / si as f64
            }
        };
        cold.cycles as f64 + rest_instrs * cpi
    }

    /// The sampled whole-program IPC estimate (see
    /// [`SampledRun::estimated_cycles`]).
    pub fn ipc_estimate(&self) -> f64 {
        let cycles = self.estimated_cycles();
        if cycles == 0.0 {
            0.0
        } else {
            self.total_instrs as f64 / cycles
        }
    }

    /// Half-width of the 95% confidence interval over the steady-state
    /// per-interval IPCs (zero with fewer than two steady intervals).
    pub fn ipc_ci95(&self) -> f64 {
        let steady = self.steady();
        let k = steady.len();
        if k < 2 {
            return 0.0;
        }
        let mean = steady.iter().map(Interval::ipc).sum::<f64>() / k as f64;
        let var = steady.iter().map(|i| (i.ipc() - mean).powi(2)).sum::<f64>() / (k - 1) as f64;
        1.96 * (var / k as f64).sqrt()
    }

    /// Fast-forward throughput: functionally skipped instructions per
    /// host second spent in the fast-forward legs (zero when the regime
    /// never skips, e.g. dense sampling).
    pub fn ffwd_instrs_per_sec(&self) -> f64 {
        if self.ffwd_wall_seconds <= 0.0 {
            0.0
        } else {
            self.ffwd_instrs as f64 / self.ffwd_wall_seconds
        }
    }

    /// Fraction of the program that ran in the detailed model (measured
    /// plus warmup).
    pub fn detailed_fraction(&self) -> f64 {
        if self.total_instrs == 0 {
            0.0
        } else {
            (self.detailed_instrs + self.warmup_instrs) as f64 / self.total_instrs as f64
        }
    }
}

/// Runs `program` sampled under `cfg`.
///
/// # Panics
///
/// Panics if the simulator deadlocks, a checkpoint fails to round-trip,
/// or the committed path leaves the program image — all bugs, not
/// results.
pub fn run_sampled(
    program: &Program,
    cfg: &TraceProcessorConfig,
    sample: &SampleConfig,
) -> SampledRun {
    run_sampled_as(program, Frontend::Synth, cfg, sample)
}

/// [`run_sampled`] with an explicit frontend kind, recorded in every
/// internal checkpoint the run round-trips through (rv workloads pass
/// [`Frontend::Rv64`]).
///
/// # Panics
///
/// As [`run_sampled`].
pub fn run_sampled_as(
    program: &Program,
    frontend: Frontend,
    cfg: &TraceProcessorConfig,
    sample: &SampleConfig,
) -> SampledRun {
    run_sampled_with(program, frontend, cfg, sample, &mut ())
}

/// Per-round hooks into the sampled driver ([`run_sampled_with`]). Every
/// hook defaults to a no-op, so an analysis implements only the points it
/// watches. `round` counts detailed legs from 0; the simulator handed to a
/// hook is the round's freshly booted detailed model.
pub trait RoundObserver {
    /// The round booted from `ckpt` (the fast-forward's frontier after a
    /// round trip through the binary format; `ckpt.retired` is where the
    /// round starts). The warmup leg runs next.
    fn booted(&mut self, _round: u64, _ckpt: &Checkpoint, _sim: &mut TraceProcessor<'_>) {}

    /// The warmup leg finished; the measured interval runs next.
    fn warmed(&mut self, _round: u64, _sim: &mut TraceProcessor<'_>) {}

    /// The measured interval finished (`None` when it retired nothing).
    /// The simulator is torn down and its warm state handed back next.
    fn interval_end(
        &mut self,
        _round: u64,
        _interval: Option<&Interval>,
        _sim: &mut TraceProcessor<'_>,
    ) {
    }

    /// A functional skip leg retired `instrs` instructions from `start`.
    fn skipped(&mut self, _start: u64, _instrs: u64) {}

    /// Whether to stop before booting the next round (an early stop leaves
    /// the returned run's `halted` false).
    fn done(&self) -> bool {
        false
    }
}

/// The no-op observer of a plain sampled run.
impl RoundObserver for () {}

/// The sampled driver: runs `program` round by round, calling `obs` at
/// each hook. [`run_sampled_as`] is this driver with the no-op observer;
/// the phase series ([`crate::metrics::collect_phases`]) and the sampled
/// event capture ([`crate::tap::capture_sampled`]) are observers of it.
///
/// # Panics
///
/// As [`run_sampled`].
pub fn run_sampled_with<O: RoundObserver>(
    program: &Program,
    frontend: Frontend,
    cfg: &TraceProcessorConfig,
    sample: &SampleConfig,
    obs: &mut O,
) -> SampledRun {
    let name = program.name();
    let t = Instant::now();
    let mut ff = FastForward::new(program, cfg);
    ff.set_frontend(frontend);
    let mut intervals = Vec::new();
    let mut attribution = RecoveryAttribution::new();
    let mut warmup_instrs = 0;
    let mut detailed_instrs = 0;
    let mut halted = false;
    let mut round = 0u64;
    let mut ffwd_wall = 0.0f64;
    while !halted && !ff.halted() && !obs.done() {
        // Detailed leg, booted through the binary checkpoint format.
        let ckpt = Checkpoint::decode(&ff.checkpoint().encode())
            .unwrap_or_else(|e| panic!("{name}: checkpoint round-trip failed: {e}"));
        let boot = ckpt
            .boot_image(program, cfg)
            .unwrap_or_else(|e| panic!("{name}: checkpoint boot failed: {e}"));
        let mut sim = TraceProcessor::from_checkpoint(program, cfg.clone(), boot)
            .unwrap_or_else(|e| panic!("{name}: boot rejected: {e}"));
        obs.booted(round, &ckpt, &mut sim);
        // The first round boots the *initial* state — bit-identical to how
        // a full run starts — so its cold-start cycles are real cost and
        // must be measured, not discarded. Later rounds boot mid-program
        // with an artificially empty pipeline; their warmup absorbs that
        // boot transient.
        let this_warmup = if round == 0 { 0 } else { sample.warmup };
        sim.run_interval(this_warmup).unwrap_or_else(|e| panic!("{name} warmup: {e}"));
        let (w_instrs, w_cycles) = (sim.stats().retired_instrs, sim.stats().cycles);
        // The simulator's ledger is cumulative since boot; snapshot it so
        // the merged attribution covers the measured interval only, not
        // the discarded warmup leg.
        let w_attr = sim.attribution().clone();
        warmup_instrs += w_instrs;
        obs.warmed(round, &mut sim);
        let r = sim.run_interval(sample.interval).unwrap_or_else(|e| panic!("{name}: {e}"));
        let instrs = r.stats.retired_instrs - w_instrs;
        let cycles = r.stats.cycles - w_cycles;
        let interval = (instrs > 0).then_some(Interval {
            start_retired: ckpt.retired + w_instrs,
            instrs,
            cycles,
        });
        if let Some(iv) = interval {
            intervals.push(iv);
            attribution.merge(&r.attribution.since(&w_attr));
            detailed_instrs += instrs;
        }
        halted = r.halted;
        obs.interval_end(round, interval.as_ref(), &mut sim);
        round += 1;
        // Hand the interval back to the fast-forward engine, which still
        // stands at the checkpoint this round booted from: it applies the
        // interval's architectural frontier and committed words in place
        // (a store of zero over non-zero data included) and adopts the
        // trained structures.
        ff.adopt_interval(sim).unwrap_or_else(|e| panic!("{name}: hand-back rejected: {e}"));
        if halted {
            break;
        }
        // Functional leg. The skip length is stratified deterministically
        // around the configured mean (uniform in [skip/2, 3*skip/2)):
        // fixed-period systematic sampling can alias with a workload's
        // phase structure and measure the same phase every round, which
        // shows up as a large bias with a deceptively small confidence
        // interval. Jitter breaks the lock-step while keeping runs
        // reproducible.
        let jittered = if sample.skip == 0 {
            0
        } else {
            let h = round.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33;
            sample.skip / 2 + h % sample.skip
        };
        let before = ff.retired();
        let leg = Instant::now();
        let s = ff
            .skip(jittered)
            .unwrap_or_else(|e| panic!("{name}: fast-forward left the program: {e}"));
        ffwd_wall += leg.elapsed().as_secs_f64();
        halted = s.halted;
        obs.skipped(before, ff.retired() - before);
    }
    SampledRun {
        intervals,
        total_instrs: ff.retired(),
        detailed_instrs,
        warmup_instrs,
        ffwd_instrs: ff.retired() - detailed_instrs - warmup_instrs,
        halted: halted || ff.halted(),
        wall_seconds: t.elapsed().as_secs_f64(),
        ffwd_wall_seconds: ffwd_wall,
        attribution,
    }
}

/// The sampling regime conventionally paired with a suite size: sparse
/// for the long suite (where detail is the bottleneck), dense otherwise.
pub fn default_sample_for(size: Size) -> SampleConfig {
    match size {
        Size::Long => SampleConfig::sparse(),
        _ => SampleConfig::dense(),
    }
}

/// One `(workload, model)` sampled measurement.
#[derive(Clone, Debug)]
pub struct SampledCell {
    /// Workload name.
    pub workload: &'static str,
    /// Control-independence model.
    pub model: CiModel,
    /// The sampled run.
    pub run: SampledRun,
}

/// Runs every workload in `workloads` sampled under every model in
/// `models`.
///
/// # Panics
///
/// As [`run_sampled`].
pub fn run_sampled_grid_on(
    workloads: &[Workload],
    models: &[CiModel],
    sample: &SampleConfig,
) -> Vec<SampledCell> {
    let cell = |w: &Workload, model: CiModel| {
        let cfg = TraceProcessorConfig::paper(model);
        SampledCell {
            workload: w.name,
            model,
            run: run_sampled_as(&w.program, w.frontend, &cfg, sample),
        }
    };
    workloads.iter().flat_map(|w| models.iter().map(move |&m| cell(w, m))).collect()
}

/// Renders a sampled grid as the `tp-bench/sampled/v2` JSON document
/// (see README "Sampled simulation"). v2 adds the per-cell fast-forward
/// throughput (`ffwd_instrs_per_sec`, superblock engine) and its wall
/// time; the interpreter-vs-superblock comparison lives in the `sampled`
/// section of `BENCH_speed.json` (see [`crate::ffwd`]).
pub fn sampled_to_json(cells: &[SampledCell], size: Size, sample: &SampleConfig) -> Json {
    let total_wall: f64 = cells.iter().map(|c| c.run.wall_seconds).sum();
    let cell = |c: &SampledCell| {
        let r = &c.run;
        Json::obj([
            ("workload", c.workload.into()),
            ("model", c.model.name().into()),
            ("total_instrs", r.total_instrs.into()),
            ("intervals", r.intervals.len().into()),
            ("detailed_instrs", r.detailed_instrs.into()),
            ("warmup_instrs", r.warmup_instrs.into()),
            ("ffwd_instrs", r.ffwd_instrs.into()),
            ("ffwd_wall_seconds", r.ffwd_wall_seconds.into()),
            ("ffwd_instrs_per_sec", r.ffwd_instrs_per_sec().into()),
            ("ipc_estimate", r.ipc_estimate().into()),
            ("ipc_ci95", r.ipc_ci95().into()),
            ("estimated_cycles", r.estimated_cycles().into()),
            ("detailed_fraction", r.detailed_fraction().into()),
            ("wall_seconds", r.wall_seconds.into()),
            ("attribution", r.attribution.to_json()),
        ])
    };
    Json::obj([
        ("schema", "tp-bench/sampled/v2".into()),
        ("suite_size", crate::speed::size_name(size).into()),
        (
            "sample",
            Json::obj([
                ("warmup", sample.warmup.into()),
                ("interval", sample.interval.into()),
                ("skip", sample.skip.into()),
            ]),
        ),
        ("wall_seconds_total", total_wall.into()),
        ("cells", Json::Arr(cells.iter().map(cell).collect())),
    ])
}

/// One workload's sampled-vs-full comparison.
#[derive(Clone, Debug)]
pub struct CrossCheck {
    /// Workload name.
    pub workload: &'static str,
    /// Control-independence model.
    pub model: CiModel,
    /// Full detailed-run IPC.
    pub full_ipc: f64,
    /// Full detailed-run wall seconds.
    pub full_wall: f64,
    /// The sampled run.
    pub sampled: SampledRun,
}

impl CrossCheck {
    /// Relative IPC error of the sampled estimate, in percent.
    pub fn rel_err_pct(&self) -> f64 {
        if self.full_ipc == 0.0 {
            0.0
        } else {
            100.0 * (self.sampled.ipc_estimate() - self.full_ipc).abs() / self.full_ipc
        }
    }

    /// Wall-clock speedup of the sampled run over the full detailed run.
    pub fn speedup(&self) -> f64 {
        if self.sampled.wall_seconds == 0.0 {
            0.0
        } else {
            self.full_wall / self.sampled.wall_seconds
        }
    }
}

/// Runs every workload in `workloads` both ways (full detailed, then
/// sampled) under each model and returns the comparisons — the sampled-accuracy
/// validation behind the CI smoke step and the acceptance tests.
///
/// # Panics
///
/// Panics if any run deadlocks or fails to halt.
pub fn cross_check(
    workloads: &[Workload],
    models: &[CiModel],
    sample: &SampleConfig,
) -> Vec<CrossCheck> {
    let mut out = Vec::new();
    for w in workloads {
        for &model in models {
            let cfg = TraceProcessorConfig::paper(model);
            let mut sim = TraceProcessor::new(&w.program, cfg.clone());
            let full = run_cell(&mut sim, w.name, model.name());
            let sampled = run_sampled_as(&w.program, w.frontend, &cfg, sample);
            assert_eq!(
                sampled.total_instrs, full.result.stats.retired_instrs,
                "{} {model:?}: sampled run covered a different instruction count",
                w.name
            );
            out.push(CrossCheck {
                workload: w.name,
                model,
                full_ipc: full.result.stats.ipc(),
                full_wall: full.wall_seconds,
                sampled,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_workloads::by_name;

    #[test]
    fn sampled_run_covers_the_whole_program() {
        let w = by_name("compress", Size::Tiny).unwrap().program;
        let cfg = TraceProcessorConfig::paper(CiModel::None);
        let run = run_sampled(&w, &cfg, &SampleConfig::dense());
        assert!(run.halted);
        assert!(!run.intervals.is_empty());
        assert_eq!(run.total_instrs, run.detailed_instrs + run.warmup_instrs + run.ffwd_instrs);
        // Same committed work as a plain functional run.
        let mut m = tp_isa::func::Machine::new(&w);
        m.run(u64::MAX).unwrap();
        assert_eq!(run.total_instrs, m.retired());
        assert!(run.ipc_estimate() > 0.0);
        assert!(run.detailed_fraction() > 0.0 && run.detailed_fraction() <= 1.0);
    }

    #[test]
    fn sampled_runs_are_deterministic() {
        let w = by_name("li", Size::Tiny).unwrap().program;
        let cfg = TraceProcessorConfig::paper(CiModel::MlbRet);
        let a = run_sampled(&w, &cfg, &SampleConfig::dense());
        let b = run_sampled(&w, &cfg, &SampleConfig::dense());
        assert_eq!(a.intervals, b.intervals);
        assert_eq!(a.total_instrs, b.total_instrs);
    }

    #[test]
    fn interval_math_is_sane() {
        let i = Interval { start_retired: 0, instrs: 300, cycles: 150 };
        assert!((i.ipc() - 2.0).abs() < 1e-12);
        let run = SampledRun {
            intervals: vec![
                Interval { start_retired: 0, instrs: 100, cycles: 100 },
                Interval { start_retired: 500, instrs: 100, cycles: 50 },
            ],
            total_instrs: 1000,
            detailed_instrs: 200,
            warmup_instrs: 50,
            ffwd_instrs: 750,
            halted: true,
            wall_seconds: 0.1,
            ffwd_wall_seconds: 0.05,
            attribution: RecoveryAttribution::new(),
        };
        // Cold interval exact (100 cycles), remaining 900 instructions at
        // the steady CPI of 0.5: 550 estimated cycles.
        assert!((run.estimated_cycles() - 550.0).abs() < 1e-9);
        assert!((run.ipc_estimate() - 1000.0 / 550.0).abs() < 1e-12);
        assert_eq!(run.ipc_ci95(), 0.0, "one steady interval has no spread");
        assert!((run.detailed_fraction() - 0.25).abs() < 1e-12);
    }
}
