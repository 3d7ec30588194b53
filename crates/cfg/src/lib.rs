//! Static CFG recovery and post-dominator analysis for trace-processor
//! workloads — an *independent re-convergence oracle*.
//!
//! The simulator's control-independence machinery (tp-core) detects
//! re-convergent points **dynamically**: the RET and MLB heuristics watch
//! traces retire and guess where a mispredicted branch's control-dependent
//! region ends. Rotenberg & Smith's paper defines the ground truth
//! **statically**: the re-convergent point of a branch is its immediate
//! post-dominator in the control-flow graph.
//!
//! This crate computes that ground truth from nothing but the decoded
//! [`Program`](tp_isa::Program) — shared by both frontends — so it can sit
//! *outside* the simulator and check it:
//!
//! * [`CfgAnalysis`] recovers the whole-program CFG (resolving jump tables
//!   through a small abstract interpreter, summarizing calls), builds
//!   dominator and post-dominator trees with the Cooper–Harvey–Kennedy
//!   algorithm, and derives natural-loop nesting and per-branch static
//!   re-convergence points.
//! * [`CfgAnalysis::classify`] maps any dynamically detected re-convergent
//!   PC onto the static structure ([`ReconvClass`]); the simulator's
//!   differential oracle mode asserts every CGCI attempt lands in a
//!   classified bucket.
//! * [`lint()`] flags structural workload defects (unreachable code,
//!   fall-through off the end, escaping code pointers).
//! * [`CfgReport`] summarizes the static control-independence opportunity
//!   a workload offers — the ceiling the dynamic heuristics chase.
//!
//! The crate depends only on `tp-isa`, deliberately: none of the
//! simulator's own machinery is trusted, which is what makes the oracle
//! differential.

pub mod analysis;
pub mod dom;
pub mod graph;
pub mod lint;
pub mod report;
mod resolve;

pub use analysis::{CfgAnalysis, ReconvClass};
pub use dom::DomTree;
pub use graph::Graph;
pub use lint::{lint, LintFinding};
pub use report::{BranchKind, BranchReport, CfgReport};
