//! Event capture: attach a Chrome-trace sink and a `MetricsSink` to a
//! simulator, run it, and render the captured documents. Shared by the
//! `tracetap` binary and the fuzz binary's divergence capture. A sampled
//! capture is an observer of the one sampled driver, so its intervals are
//! exactly a sampled run's. Also home of the observability overhead probe
//! behind `speed --events-guard`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tp_core::{TraceProcessor, TraceProcessorConfig};
use tp_events::ChromeTraceSink;
use tp_isa::{Frontend, Program};
use tp_metrics::MetricsSink;
use tp_stats::json::Json;

use crate::metrics::ipdom_map;
use crate::runner::run_cell;
use crate::sampled::{run_sampled_with, Interval, RoundObserver, SampleConfig};

/// A finished event capture: the Chrome trace, the metrics derived from
/// the same event stream, and the run's headline numbers.
#[derive(Clone, Debug)]
pub struct Capture {
    /// Chrome trace-event JSON (loads in perfetto / `chrome://tracing`).
    pub chrome_json: String,
    /// The run's [`Metrics`](tp_metrics::Metrics) as JSON, reconvergence
    /// distances joined against the static ipdoms as in `simprof`.
    pub metrics_json: Json,
    /// How the run ended: `None` for a clean stop, `Some(description)` for
    /// a simulator error or panic. The capture up to the failure point
    /// stands either way — that is the whole point of a trace tap.
    pub error: Option<String>,
    /// Whether the program halted.
    pub halted: bool,
    /// Total retired instructions on the simulator (including any
    /// checkpointed prefix).
    pub retired: u64,
    /// Final cycle count.
    pub cycles: u64,
}

/// Attaches Chrome-trace and metrics sinks to `sim`, runs up to `interval`
/// more retired instructions, and renders the capture. The bus is always
/// released, so a simulator error — or even a panic — mid-run still yields
/// the events recorded up to that point.
pub fn capture_interval(sim: &mut TraceProcessor<'_>, interval: u64) -> Capture {
    sim.attach_event_sink(Box::new(ChromeTraceSink::new()));
    let ipdom = ipdom_map(sim.program());
    sim.attach_event_sink(Box::new(MetricsSink::new().with_ipdom(ipdom)));
    let outcome = catch_unwind(AssertUnwindSafe(|| sim.run_interval(interval)));
    let error = match outcome {
        Ok(Ok(_)) => None,
        Ok(Err(e)) => Some(e.to_string()),
        Err(p) => Some(format!("simulator panicked: {}", panic_message(&p))),
    };
    let mut bus = sim.release_event_bus();
    let chrome = bus.take::<ChromeTraceSink>().expect("attached above");
    let metrics = bus.take::<MetricsSink>().expect("attached above");
    Capture {
        chrome_json: chrome.to_json(),
        metrics_json: metrics.metrics().to_json(),
        error,
        halted: sim.halted(),
        retired: sim.stats().retired_instrs,
        cycles: sim.stats().cycles,
    }
}

/// Builds a fresh simulator for `program` under `cfg` and captures a run
/// of up to `budget` retired instructions ([`capture_interval`]).
pub fn capture_program(program: &Program, cfg: TraceProcessorConfig, budget: u64) -> Capture {
    let mut sim = TraceProcessor::new(program, cfg);
    capture_interval(&mut sim, budget)
}

/// A sampled-run event capture: one Chrome trace document whose detailed
/// intervals are laid end to end on a single global timeline.
#[derive(Clone, Debug)]
pub struct SampledCapture {
    /// The Chrome trace-event JSON document.
    pub chrome_json: String,
    /// Detailed intervals captured.
    pub intervals: u64,
    /// Total program instructions covered (detailed + fast-forwarded).
    pub total_instrs: u64,
    /// Whether the program halted.
    pub halted: bool,
}

/// Captures a sampled run's events on one coherent timeline.
///
/// An observer of the one sampled driver
/// ([`run_sampled_with`](crate::sampled::run_sampled_with)) that reuses a
/// *single* [`ChromeTraceSink`] across the detailed intervals, attached at
/// each boot: each interval's simulator restarts at cycle 0, so before
/// re-attaching the sink its timeline base is advanced past everything
/// already captured and the interval is stamped with `(interval index,
/// retired-instruction offset)` on a dedicated `sampling` track.
/// Fast-forward legs appear as gaps: the base also advances by one cycle
/// per functionally skipped instruction (an IPC-1 proxy — the legs
/// execute in the functional model, which has no cycle clock), so
/// interval spacing reflects skip lengths without pretending cycle
/// accuracy.
///
/// At most `max_rounds` detailed intervals are captured (the trace file
/// grows with every event; a tap wants the first few intervals, not the
/// whole run).
///
/// # Panics
///
/// As [`run_sampled_as`](crate::sampled::run_sampled_as).
pub fn capture_sampled(
    program: &Program,
    frontend: Frontend,
    cfg: &TraceProcessorConfig,
    sample: &SampleConfig,
    max_rounds: u64,
) -> SampledCapture {
    let mut obs = CaptureObserver {
        sink: Some(Box::new(ChromeTraceSink::new())),
        base: 0,
        rounds: 0,
        max_rounds,
    };
    let run = run_sampled_with(program, frontend, cfg, sample, &mut obs);
    SampledCapture {
        chrome_json: obs.sink.expect("returned at interval end").to_json(),
        intervals: obs.rounds,
        total_instrs: run.total_instrs,
        halted: run.halted,
    }
}

/// The [`capture_sampled`] observer.
struct CaptureObserver {
    /// The one sink, parked here between intervals.
    sink: Option<Box<ChromeTraceSink>>,
    /// Timeline offset of the next interval, in cycles.
    base: u64,
    rounds: u64,
    max_rounds: u64,
}

impl RoundObserver for CaptureObserver {
    fn booted(&mut self, round: u64, retired: u64, sim: &mut TraceProcessor<'_>) {
        let mut sink = self.sink.take().expect("returned at interval end");
        sink.set_base(self.base);
        sink.mark_interval(round, retired);
        sim.attach_event_sink(sink);
        self.rounds += 1;
    }

    fn interval_end(&mut self, _round: u64, _iv: Option<&Interval>, sim: &mut TraceProcessor<'_>) {
        self.base += sim.now();
        self.sink = sim.release_event_bus().take::<ChromeTraceSink>();
    }

    fn skipped(&mut self, _start: u64, instrs: u64) {
        // Lay the skipped leg out as a visible gap at an IPC-1 proxy.
        self.base += instrs;
    }

    fn done(&self) -> bool {
        self.rounds >= self.max_rounds
    }
}

/// An observability configuration of the simulator, for paired overhead
/// timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObsVariant {
    /// No sink, no profiler — the production configuration.
    Bare,
    /// A `NullSink` attached (empty interest mask: attach plumbing live,
    /// every emission site masked off).
    NullSink,
    /// A full-interest [`MetricsSink`](tp_metrics::MetricsSink) attached.
    MetricsAttached,
    /// The host stage profiler enabled.
    ProfilerEnabled,
}

impl ObsVariant {
    /// All variants, in report order.
    pub const ALL: [ObsVariant; 4] = [
        ObsVariant::Bare,
        ObsVariant::NullSink,
        ObsVariant::MetricsAttached,
        ObsVariant::ProfilerEnabled,
    ];

    /// A short stable label.
    pub fn label(self) -> &'static str {
        match self {
            ObsVariant::Bare => "bare",
            ObsVariant::NullSink => "null-sink",
            ObsVariant::MetricsAttached => "metrics-attached",
            ObsVariant::ProfilerEnabled => "profiler-enabled",
        }
    }
}

/// Paired wall-clock figures for every observability configuration, each
/// the minimum over the repetitions with rotated measurement order.
///
/// Only the `NullSink` figure is gated (the disabled-overhead budget):
/// metrics-attached and profiler-enabled runs *do* pay for observation by
/// design, so their figures are reported, not gated.
#[derive(Clone, Copy, Debug)]
pub struct ObservabilityProbe {
    /// Best wall-clock per variant, seconds, indexed in [`ObsVariant::ALL`]
    /// order.
    pub best_seconds: [f64; 4],
}

impl ObservabilityProbe {
    /// A variant's overhead relative to the bare run, in percent.
    pub fn overhead_pct(&self, v: ObsVariant) -> f64 {
        100.0 * (self.seconds(v) / self.seconds(ObsVariant::Bare) - 1.0)
    }

    /// A variant's best wall-clock, seconds.
    pub fn seconds(&self, v: ObsVariant) -> f64 {
        self.best_seconds[v as usize]
    }
}

/// Times the tiny synthetic suite under MLB-RET in every
/// [`ObsVariant`], `reps` times each with the order rotated per
/// repetition so machine drift hits all variants equally; each figure is
/// the per-variant minimum.
pub fn measure_observability_overhead(reps: usize) -> ObservabilityProbe {
    let workloads = tp_workloads::suite(tp_workloads::Size::Tiny);
    let cfg = TraceProcessorConfig::paper(tp_core::CiModel::MlbRet);
    let mut best_seconds = [f64::MAX; 4];
    for rep in 0..reps.max(1) {
        for i in 0..ObsVariant::ALL.len() {
            let v = ObsVariant::ALL[(i + rep) % ObsVariant::ALL.len()];
            let t = time_tiny_suite(&workloads, &cfg, v);
            best_seconds[v as usize] = best_seconds[v as usize].min(t);
        }
    }
    ObservabilityProbe { best_seconds }
}

fn time_tiny_suite(
    workloads: &[tp_workloads::Workload],
    cfg: &TraceProcessorConfig,
    variant: ObsVariant,
) -> f64 {
    let model = tp_core::CiModel::MlbRet.name();
    let mut total = 0.0;
    for w in workloads {
        let mut sim = TraceProcessor::new(&w.program, cfg.clone());
        match variant {
            ObsVariant::Bare => {}
            ObsVariant::NullSink => sim.attach_event_sink(Box::new(tp_events::NullSink)),
            ObsVariant::MetricsAttached => {
                sim.attach_event_sink(Box::new(tp_metrics::MetricsSink::new()));
            }
            ObsVariant::ProfilerEnabled => sim.attach_stage_profiler(),
        }
        total += run_cell(&mut sim, w.name, model).wall_seconds;
    }
    total
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_core::CiModel;
    use tp_workloads::{by_name, Size};

    #[test]
    fn capture_renders_both_documents() {
        let w = by_name("compress", Size::Tiny).unwrap();
        let cfg = TraceProcessorConfig::paper(CiModel::MlbRet);
        let cap = capture_program(&w.program, cfg, 2_000);
        assert!(cap.error.is_none(), "{:?}", cap.error);
        assert!(cap.retired > 0);
        let chrome = crate::json::parse(&cap.chrome_json).expect("valid Chrome JSON");
        assert!(chrome.get("traceEvents").and_then(Json::as_array).is_some_and(|e| !e.is_empty()));
        let counters = cap.metrics_json.get("counters").expect("counters");
        assert!(counters.num("traces_retired").is_some_and(|n| n > 0.0));
        assert!(cap
            .metrics_json
            .get("distributions")
            .and_then(|d| d.get("trace-residency"))
            .is_some());
    }
}
