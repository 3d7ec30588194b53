//! Experiment harness library: branch profiling (Table 5), the shared cell
//! runner and sampled driver, the bins' CLI layer, and paper-reference
//! data used by the bench targets in `benches/`.

pub mod cli;
pub mod corpus;
pub mod ffwd;
pub mod metrics;
pub mod paper;
pub mod profile;
pub mod runner;
pub mod sampled;
pub mod speed;
pub mod tap;

pub use tp_stats::json;

pub use ffwd::{ffwd_section_json, run_ffwd_bench, speedup_geomean, FfwdBenchCell};
pub use profile::{profile_branches, BranchClass, BranchProfile};
pub use runner::{run_cell, run_model, run_selection, try_run_cell, CellRun};
pub use sampled::{
    cross_check, default_sample_for, run_sampled, run_sampled_with, sampled_to_json, CrossCheck,
    Interval, RoundObserver, SampleConfig, SampledCell, SampledRun,
};
pub use tap::{
    capture_interval, capture_program, capture_sampled, measure_observability_overhead, Capture,
    ObsVariant, ObservabilityProbe, SampledCapture,
};
