//! RV64IM frontend for the trace processor.
//!
//! Everything measured so far ran on synthetic kernels hand-written in the
//! internal ISA; this crate opens the real-ISA axis. It provides
//!
//! * a **decoder** ([`decode::decode`]) from standard 32-bit RV64
//!   encodings into [`RvInst`], and a **lowering** ([`lower::lower`]) from
//!   `RvInst` onto the internal [`tp_isa::Inst`] stream — one instruction
//!   to one instruction, with RV branches/`jal`/`jalr` mapped onto the
//!   branch classes the trace selector, CGCI detection and the attribution
//!   ledger already understand (see the table in [`mod@lower`]);
//! * an embedded **assembler** ([`asm::RvAsm`]): the container has no
//!   RISC-V cross-compiler, so corpus programs are assembly text
//!   assembled in-process, and the assemble → decode round trip is the
//!   frontend's self-test;
//! * a **corpus** ([`corpus`]) of real RV64 programs (crc32, quicksort,
//!   dijkstra, matmul, string hash, state-machine interpreter) registered
//!   by `tp-workloads` as the second workload suite.
//!
//! # Supported subset
//!
//! RV64I base integer instructions restricted to what the 64-bit-word
//! internal machine can express faithfully, plus the signed M-extension
//! ops:
//!
//! * `lui`, `jal`, `jalr`, `beq/bne/blt/bge/bltu/bgeu`;
//! * `ld`/`sd` (the internal memory is an array of 64-bit words, so
//!   sub-word loads/stores have no faithful equivalent);
//! * `addi/slti/sltiu/xori/ori/andi`, `slli/srli/srai` (6-bit shamt);
//! * `add/sub/sll/slt/sltu/xor/srl/sra/or/and`, `mul/div/rem`;
//! * `ecall`, used as the halt convention.
//!
//! Excluded: compressed encodings, `auipc` (PC-relative data addressing
//! has no meaning under word-indexed PCs), W-form 32-bit arithmetic,
//! unsigned divide/remainder, `lr/sc/amo`, CSRs and `fence`. The decoder
//! rejects all of these with an error naming the encoding, never a silent
//! mis-decode. `div`/`rem` by zero follow the simulator's total-ALU
//! convention (0), not the RV spec.
//!
//! # Example
//!
//! ```
//! use tp_rv::assemble_program;
//! use tp_isa::func::Machine;
//!
//! let program = assemble_program(
//!     "sum",
//!     "    li a0, 0
//!          li a1, 5
//!     loop:
//!          add a0, a0, a1
//!          addi a1, a1, -1
//!          bnez a1, loop
//!          ecall",
//! )
//! .expect("assembles");
//! let mut m = Machine::new(&program);
//! m.run(100).expect("runs");
//! assert_eq!(m.reg(tp_rv::lower::map_reg(10)), 15); // a0
//! ```

pub mod asm;
pub mod corpus;
pub mod decode;
pub mod inst;
pub mod lower;

use std::fmt;

use tp_isa::{Pc, Program, ProgramError};

pub use asm::{RvAsm, RvAsmError, RvModule};
pub use decode::{decode, DecodeError};
pub use inst::{RvCond, RvIOp, RvInst, RvOp, RvShift};
pub use lower::{lower, LowerError};

/// Error building a [`Program`] through the frontend.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RvError {
    /// The assembly source failed to assemble.
    Asm(RvAsmError),
    /// A 32-bit word failed to decode.
    Decode {
        /// Word-indexed PC of the word.
        pc: Pc,
        /// The decoder's diagnosis.
        err: DecodeError,
    },
    /// A decoded instruction has no internal equivalent.
    Lower {
        /// Word-indexed PC of the instruction.
        pc: Pc,
        /// The lowering diagnosis.
        err: LowerError,
    },
    /// The lowered program failed [`Program`] validation.
    Program(ProgramError),
}

impl fmt::Display for RvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RvError::Asm(e) => write!(f, "assembly failed: {e}"),
            RvError::Decode { pc, err } => write!(f, "instruction {pc}: {err}"),
            RvError::Lower { pc, err } => write!(f, "instruction {pc}: {err}"),
            RvError::Program(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for RvError {}

impl From<RvAsmError> for RvError {
    fn from(e: RvAsmError) -> RvError {
        RvError::Asm(e)
    }
}

impl From<ProgramError> for RvError {
    fn from(e: ProgramError) -> RvError {
        RvError::Program(e)
    }
}

/// Decodes and lowers an assembled [`RvModule`] into a validated
/// [`Program`].
///
/// This is the only path from encodings to the simulator: the program the
/// machine runs is built from the 32-bit words, not from the assembler's
/// internal instruction list, so every corpus program exercises the
/// decoder end to end. The module's data image moves into the program
/// without a copy.
///
/// # Errors
///
/// Decode, lowering, and program-validation failures, each naming the
/// offending instruction.
pub fn module_to_program(module: RvModule) -> Result<Program, RvError> {
    let mut insts = Vec::with_capacity(module.words.len());
    for (i, &word) in module.words.iter().enumerate() {
        let pc = i as Pc;
        let rv = decode::decode(word).map_err(|err| RvError::Decode { pc, err })?;
        insts.push(lower::lower(rv, pc).map_err(|err| RvError::Lower { pc, err })?);
    }
    Ok(Program::from_image(module.name, insts, module.entry, module.data)?
        .with_code_ptrs(module.code_ptrs)?)
}

/// Assembles source text straight into a validated [`Program`]
/// (convenience wrapper: [`RvAsm`] + [`module_to_program`]).
///
/// # Errors
///
/// As [`RvAsm::assemble`] and [`module_to_program`].
pub fn assemble_program(name: impl Into<String>, src: &str) -> Result<Program, RvError> {
    let mut a = RvAsm::new(name);
    a.source(src)?;
    module_to_program(a.assemble()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_isa::func::Machine;
    use tp_isa::Inst;

    #[test]
    fn module_to_program_goes_through_the_decoder() {
        let mut a = RvAsm::new("t");
        a.source("  li a0, 7\n  ecall\n").unwrap();
        let mut m = a.assemble().unwrap();
        let p = module_to_program(m.clone()).unwrap();
        assert!(matches!(p.insts()[1], Inst::Halt));
        // Corrupt a word: the error comes from the decoder and names the pc.
        m.words[0] = 0x0000_0007; // unassigned opcode
        let e = module_to_program(m).unwrap_err();
        assert!(matches!(e, RvError::Decode { pc: 0, .. }), "{e}");
        assert!(e.to_string().contains("instruction 0"), "{e}");
    }

    #[test]
    fn call_ret_roundtrip_with_word_indexed_links() {
        let p = assemble_program(
            "callret",
            "    call f
                 li a1, 2
                 ecall
             f:  li a0, 1
                 ret",
        )
        .unwrap();
        let mut m = Machine::new(&p);
        m.run(100).unwrap();
        assert!(m.halted());
        assert_eq!(m.reg(lower::map_reg(10)), 1);
        assert_eq!(m.reg(lower::map_reg(11)), 2);
    }

    #[test]
    fn jump_table_dispatch_through_wordpc() {
        let p = assemble_program(
            "dispatch",
            "    .org 0x100
                 .wordpc h0
                 .wordpc h1
                 li t0, 0x108      # &table[1]
                 ld t1, (t0)
                 jr t1
             h0: li a0, 10
                 ecall
             h1: li a0, 20
                 ecall",
        )
        .unwrap();
        let mut m = Machine::new(&p);
        m.run(100).unwrap();
        assert_eq!(m.reg(lower::map_reg(10)), 20);
    }

    #[test]
    fn unsigned_ops_execute_with_rv_semantics() {
        let p = assemble_program(
            "unsigned",
            "    li a0, -1
                 li a1, 1
                 sltu a2, a1, a0    # 1 <u 2^64-1 -> 1
                 sltu a3, a0, a1    # -> 0
                 srli a4, a0, 60    # logical -> 0xf
                 srai a5, a0, 60    # arithmetic -> -1
                 bltu a1, a0, big
                 li a6, 111
                 ecall
             big:
                 li a6, 222
                 ecall",
        )
        .unwrap();
        let mut m = Machine::new(&p);
        m.run(100).unwrap();
        assert_eq!(m.reg(lower::map_reg(12)), 1);
        assert_eq!(m.reg(lower::map_reg(13)), 0);
        assert_eq!(m.reg(lower::map_reg(14)), 0xf);
        assert_eq!(m.reg(lower::map_reg(15)), -1);
        assert_eq!(m.reg(lower::map_reg(16)), 222);
    }
}
