//! The trace processor: a cycle-level, execution-driven simulator of the
//! microarchitecture of *Control Independence in Trace Processors*
//! (Rotenberg & Smith, MICRO 1999).
//!
//! The processor is organized entirely around traces:
//!
//! * the **frontend** predicts the next trace with a hybrid path-based
//!   next-trace predictor, fetches it from the trace cache (constructing it
//!   through the instruction cache on a miss), renames its live-ins and
//!   live-outs, and dispatches it to a processing element (PE) — one trace
//!   per PE;
//! * **processing elements** issue up to four instructions per cycle from
//!   their trace-sized windows, bypassing intra-trace values locally and
//!   communicating inter-trace values over shared global result buses;
//! * **memory** runs through an ARB that buffers speculative store versions
//!   by sequence number so loads can issue speculatively and be selectively
//!   reissued on a violation;
//! * on a **branch misprediction** the trace is repaired in its trace
//!   buffer while younger traces keep executing. With control independence
//!   enabled, recovery preserves control-independent traces:
//!   **FGCI** (fine-grain) repairs entirely within one PE when the branch's
//!   embeddable region was padded into the trace, and **CGCI**
//!   (coarse-grain) manages the PEs as a linked list, squashing and
//!   inserting control-dependent traces in the *middle* of the window using
//!   the `RET`/`MLB-RET` heuristics to locate a global re-convergent point.
//!   A trace *re-dispatch pass* then repairs register dependences of the
//!   preserved traces, and only instructions with changed source names (or
//!   loads caught by ARB snooping) selectively reissue.
//!
//! The simulator is execution-driven: wrong-path instructions execute with
//! real (possibly wrong) values. Committed architectural state is optionally
//! verified against the [`tp_isa::func::Machine`] oracle every trace
//! ([`TraceProcessorConfig::verify_with_oracle`]).
//!
//! # Example
//!
//! ```
//! use tp_core::{CiModel, TraceProcessor, TraceProcessorConfig};
//! use tp_isa::{asm::Asm, Cond, Reg};
//!
//! let mut a = Asm::new("count");
//! let r1 = Reg::new(1);
//! a.li(r1, 100);
//! a.label("top");
//! a.addi(r1, r1, -1);
//! a.branch(Cond::Gt, r1, Reg::ZERO, "top");
//! a.halt();
//! let program = a.assemble()?;
//!
//! let config = TraceProcessorConfig::paper(CiModel::FgMlbRet);
//! let mut sim = TraceProcessor::new(&program, config);
//! let result = sim.run(1_000_000).expect("no deadlock");
//! assert!(result.halted);
//! assert!(result.stats.ipc() > 0.5);
//! # Ok::<(), tp_isa::asm::AsmError>(())
//! ```

pub mod boot;
pub mod config;
pub mod pe;
pub mod pe_list;
pub mod physreg;
pub mod sim;
pub mod stats;

pub use boot::{BootError, BootImage, WarmBoot};
pub use config::{CiModel, ConfigError, TraceProcessorConfig, MAX_PES};
pub use sim::{RunResult, SimError, TraceProcessor};
pub use stats::{SimStats, WorkCounters};
