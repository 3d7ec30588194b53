//! Traces and trace selection for the trace processor.
//!
//! A *trace* is a long dynamic instruction sequence spanning multiple basic
//! blocks, constrained primarily by a hardware-determined maximum length
//! (32 instructions in the paper's configuration). This crate implements:
//!
//! * [`Trace`]/[`TraceId`] — the unit of prediction, caching, dispatch and
//!   squash, with intra-trace pre-renaming (live-in/live-out analysis) done
//!   once at trace-construction time, exactly like the paper's trace cache;
//! * [`fgci`] — the hardware FGCI-algorithm of Section 3: a single forward
//!   scan that finds a forward branch's *embeddable region*, its
//!   re-convergent point and its *dynamic region size* (longest control
//!   dependent path);
//! * [`bit`] — the branch information table (BIT) that caches FGCI-algorithm
//!   results;
//! * [`select`] — trace selection: the default algorithm (stop at maximum
//!   length or any indirect branch), the `ntb` constraint (stop at predicted
//!   not-taken backward branches, exposing loop exits for CGCI), and `fg`
//!   padding (Section 3.2) which guarantees trace-level re-convergence for
//!   embeddable regions.

pub mod bit;
pub mod fgci;
pub mod select;
pub mod trace;

pub use bit::Bit;
pub use fgci::{analyze_region, RegionInfo};
pub use select::{
    ClosureOutcomes, IdOutcomes, OutcomeSource, SelectionConfig, SelectionStats, Selector, Walk,
};
pub use trace::{EndReason, OperandRef, Trace, TraceId, TraceInst};
