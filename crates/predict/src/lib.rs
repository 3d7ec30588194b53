//! Branch- and trace-level predictors for the trace processor.
//!
//! Three predictors from the paper's Table 1 configuration:
//!
//! * [`Btb`] — the "simple branch predictor": a 16K-entry tagless BTB with
//!   2-bit saturating counters, plus last-target storage for indirect
//!   branches. Used by trace construction and misprediction repair.
//! * [`Ras`] — a return address stack used alongside the BTB to predict
//!   return targets during trace construction.
//! * [`NextTracePredictor`] — the hybrid next-trace predictor of Jacobson,
//!   Rotenberg and Smith (1997): a path-based component indexed by a hash of
//!   the last eight trace ids and a simple component indexed by the last
//!   trace id alone, each 2^16 entries with tags and saturating-counter
//!   replacement. A single trace prediction implicitly predicts multiple
//!   branches per cycle.
//!
//! Histories ([`TraceHistory`]) are owned by the caller, which makes
//! checkpoint/restore on misprediction recovery trivial — the trace
//! processor snapshots the speculative history at every trace dispatch and
//! maintains a separate retirement-side history for predictor training.

pub mod btb;
pub mod gshare;
pub mod ras;
pub mod trace_pred;

pub use btb::{Btb, BtbImage};
pub use gshare::Gshare;
pub use ras::Ras;
pub use trace_pred::{
    NextTracePredictor, PredictionSource, TraceHistory, TracePredictorConfig, TracePredictorImage,
    TracePredictorStats,
};
