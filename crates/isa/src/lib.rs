//! Instruction set architecture for the trace processor reproduction.
//!
//! The paper evaluated SPEC95 binaries compiled for the SimpleScalar PISA
//! instruction set. This crate provides the equivalent substrate built from
//! scratch: a small, regular RISC ISA together with
//!
//! * an [`asm::Asm`] assembler with labels (used by `tp-workloads` to write
//!   the synthetic benchmark kernels),
//! * a [`func::Machine`] functional (architectural) simulator that serves as
//!   the golden reference for the cycle-level trace processor in `tp-core`,
//! * a [`synth`] structured random-program generator used by property tests,
//! * [`mem::PagedMem`], the sparse paged word memory behind both the
//!   functional machine and the trace processor's committed memory, laid
//!   copy-on-write over the program's shared [`mem::DataImage`].
//!
//! Programs are word-indexed: a [`Pc`] is an index into [`Program::insts`],
//! and every instruction occupies one slot. Memory is an array of 64-bit
//! words addressed by byte addresses; loads and stores access the aligned
//! word containing the effective address, which keeps execution *total* —
//! wrong-path instructions in the timing simulator execute with garbage
//! values and must never fault.
//!
//! # Example
//!
//! ```
//! use tp_isa::{asm::Asm, func::Machine, Cond, Reg};
//!
//! let mut a = Asm::new("double-loop");
//! let (r1, r2) = (Reg::new(1), Reg::new(2));
//! a.li(r1, 0); // accumulator
//! a.li(r2, 5); // trip count
//! a.label("loop");
//! a.addi(r1, r1, 3);
//! a.addi(r2, r2, -1);
//! a.branch(Cond::Gt, r2, Reg::ZERO, "loop");
//! a.halt();
//! let program = a.assemble().expect("valid program");
//!
//! let mut m = Machine::new(&program);
//! m.run(1_000).expect("program runs to completion");
//! assert_eq!(m.reg(r1), 15);
//! ```

pub mod asm;
pub mod func;
pub mod fxhash;
pub mod inst;
pub mod mem;
pub mod program;
pub mod reg;
pub mod synth;

pub use inst::{AluOp, Cond, Inst};
pub use program::{Program, ProgramError};
pub use reg::Reg;

/// The frontend (source ISA) a [`Program`] was produced by.
///
/// Programs are always *executed* as the internal [`Inst`] stream; the
/// frontend records where that stream came from. The distinction matters
/// wherever a program is looked up or resumed by identity — workload
/// registries keep one namespace per frontend, and checkpoints record the
/// kind so a capture can never boot against the wrong ISA's workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Frontend {
    /// Hand-assembled internal-ISA programs (the synthetic kernels).
    Synth,
    /// Programs decoded from 32-bit RV64 encodings by the `tp-rv` frontend.
    Rv64,
}

impl Frontend {
    /// Short stable label (used in reports and wire formats' error text).
    pub fn name(self) -> &'static str {
        match self {
            Frontend::Synth => "synth",
            Frontend::Rv64 => "rv64",
        }
    }

    /// Stable one-byte wire code.
    pub fn code(self) -> u8 {
        match self {
            Frontend::Synth => 0,
            Frontend::Rv64 => 1,
        }
    }

    /// Decodes a wire code (inverse of [`Frontend::code`]).
    pub fn from_code(code: u8) -> Option<Frontend> {
        match code {
            0 => Some(Frontend::Synth),
            1 => Some(Frontend::Rv64),
            _ => None,
        }
    }
}

impl std::fmt::Display for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A program counter: an index into [`Program::insts`].
pub type Pc = u32;

/// An architectural 64-bit integer value.
pub type Word = i64;

/// A byte address. Loads/stores access the aligned 8-byte word containing
/// the address (i.e. the word with index `addr >> 3`).
pub type Addr = u64;

/// Base byte address used by convention for workload data segments.
pub const DATA_BASE: Addr = 0x1_0000;

/// Base byte address used by convention for the software stack.
pub const STACK_BASE: Addr = 0x8_0000;
