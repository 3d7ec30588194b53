//! Histogram/time-series metrics layer for the trace-processor simulator.
//!
//! Splits observation into a cheap always-on core and analyses layered on
//! top, in two independent pieces:
//!
//! * **Simulated-time metrics** ([`MetricsSink`]): an event-bus sink that
//!   folds the structured event stream into derived distributions
//!   ([`Metrics`]) — recovery latency, trace residency lifetime,
//!   window/issue/bus occupancy, mispredict inter-arrival, and CGCI
//!   re-convergence distance from the static immediate post-dominator.
//!   Attaching one adds no simulator-side instrumentation (the bus already
//!   emits everything) and cannot change simulated behaviour.
//! * **Host-time profiling** ([`StageProfiler`]): RAII scoped wall-clock
//!   timers around each of the eight pipeline-stage modules, behind a
//!   single cold discriminant test per cycle when disabled.
//!
//! The building blocks — fixed-layout log2 [`Histogram`]s with exact low
//! buckets and associative merge, and [`Counter`]/[`Gauge`] scalars — are
//! usable on their own; the
//! `simprof` bin in `tp-bench` renders them as `tp-bench/metrics/v1`
//! reports.

pub mod counter;
pub mod hist;
pub mod profiler;
pub mod sink;

pub use counter::{Counter, Gauge};
pub use hist::{Histogram, EXACT_BUCKETS, LOG_BUCKETS};
pub use profiler::{ScopedStageTimer, Stage, StageProfiler};
pub use sink::{Metrics, MetricsSink};
