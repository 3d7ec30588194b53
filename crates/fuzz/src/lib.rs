//! # tp-fuzz
//!
//! Adversarial control-flow fuzzer for the trace processor: a seeded,
//! deterministic generator of *structured* random programs (nested
//! hammocks, counted loops with data-dependent trip counts and second
//! exits, indirect jump tables, call/return ladders, stores feeding later
//! branches), a differential harness that runs every generated program
//! through all five control-independence models against the functional
//! oracle, and a structural shrinker that reduces a failing program to a
//! minimal reproducer.
//!
//! Every program is emitted through *both* frontends — the internal ISA
//! and RV64 via the `tp-rv` assembler/encoder/decoder — so a fuzz run
//! doubles as an encoder/decoder round trip. Termination is guaranteed by
//! construction (see [`ast`]), so any non-halting pipeline run is a
//! finding, not a generator artifact.
//!
//! # Example
//!
//! ```
//! use tp_fuzz::gen::{generate, FuzzConfig};
//! use tp_fuzz::harness::Harness;
//!
//! let harness = Harness::default();
//! let outcome = harness.check_seed(&FuzzConfig::small(), 42);
//! assert!(!outcome.is_divergence(), "{outcome:?}");
//! ```

pub mod ast;
pub mod emit;
pub mod gen;
pub mod harness;
pub mod shrink;

pub use ast::FuzzAst;
pub use emit::{
    emit_rv, emit_rv_source, emit_rv_with_truth, emit_synth, emit_synth_with_truth, ReconvTruth,
    TABLE_BASE,
};
pub use gen::{generate, FuzzConfig};
pub use harness::{Divergence, Harness, Isa, Outcome};
pub use shrink::{shrink, ShrinkStats};
