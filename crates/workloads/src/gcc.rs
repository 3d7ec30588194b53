//! `gcc`: an IR-walk with switch dispatch, medium hammocks and helpers.
//!
//! SPEC95 `gcc` has a broad static footprint: many forward branches with
//! mid-sized FGCI regions (Table 5: region ≈ 11–13 instructions, ≈3 branches
//! per region), indirect jumps (switches) that pressure the trace cache, and
//! plenty of calls. This kernel walks a synthetic IR buffer, dispatching on
//! a 4-way opcode switch through a jump table; each handler contains a
//! nested hammock over semi-random payload bits and one handler calls a
//! helper function.

use tp_isa::asm::Asm;
use tp_isa::{AluOp, Cond, Program, Reg};

use crate::common::{self, emit_indexed_load, emit_prologue, regs};
use rand::Rng;

const IR_WORDS: usize = 512;
const OPS: usize = 4;

/// Builds the kernel (`2 * iters` dispatches).
pub fn build(iters: u32) -> Program {
    let mut a = Asm::new("gcc");
    let mut rng = common::rng(0x6CC);
    emit_prologue(&mut a);

    let (node, op, payload, tmp, acc) =
        (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4), Reg::new(5));

    a.li(acc, 0);
    a.li64(regs::OUTER, 2 * iters as i64);
    a.label("walk");

    // node = ir[i & 511]; op = node & 3; payload = node >> 2.
    emit_indexed_load(&mut a, node, regs::DATA, regs::OUTER, IR_WORDS as i32 - 1, tmp);
    a.alui(AluOp::And, op, node, OPS as i32 - 1);
    a.alui(AluOp::Shr, payload, node, 2);

    // Switch through a jump table stored in the table region.
    a.alui(AluOp::Shl, tmp, op, 3);
    a.alu(AluOp::Add, tmp, tmp, regs::TABLE);
    a.load(tmp, tmp, 0);
    a.jump_indirect(tmp);

    // Handler 0: nested hammock (region ≈ 12 instructions, 2 branches).
    a.label("op0");
    a.alui(AluOp::And, tmp, payload, 1);
    a.branch(Cond::Eq, tmp, Reg::ZERO, "op0_else");
    a.alui(AluOp::And, tmp, payload, 2);
    a.branch(Cond::Eq, tmp, Reg::ZERO, "op0_inner_else");
    a.alu(AluOp::Add, acc, acc, payload);
    a.addi(acc, acc, 1);
    a.jump("op0_join");
    a.label("op0_inner_else");
    a.alu(AluOp::Xor, acc, acc, payload);
    a.jump("op0_join");
    a.label("op0_else");
    a.alui(AluOp::Shr, tmp, payload, 3);
    a.alu(AluOp::Sub, acc, acc, tmp);
    a.addi(acc, acc, 2);
    a.addi(acc, acc, 3);
    a.label("op0_join");
    a.jump("next");

    // Handler 1: arithmetic with a medium if-then region.
    a.label("op1");
    a.alui(AluOp::And, tmp, payload, 4);
    a.branch(Cond::Eq, tmp, Reg::ZERO, "op1_join");
    a.alui(AluOp::Mul, tmp, payload, 3);
    a.alu(AluOp::Add, acc, acc, tmp);
    a.alui(AluOp::And, acc, acc, 0xffff);
    a.addi(acc, acc, 5);
    a.label("op1_join");
    a.store(acc, regs::OUT, 8);
    a.jump("next");

    // Handler 2: calls a helper (exercises call/return + RET heuristic).
    a.label("op2");
    a.call("fold");
    a.jump("next");

    // Handler 3: store-heavy path.
    a.label("op3");
    a.alui(AluOp::And, tmp, payload, 31);
    a.alui(AluOp::Shl, tmp, tmp, 3);
    a.alu(AluOp::Add, tmp, tmp, regs::OUT);
    a.store(acc, tmp, 0);
    a.alui(AluOp::Shr, tmp, payload, 5);
    a.alu(AluOp::Or, acc, acc, tmp);
    a.jump("next");

    a.label("next");
    a.addi(regs::OUTER, regs::OUTER, -1);
    a.branch(Cond::Gt, regs::OUTER, Reg::ZERO, "walk");
    a.store(acc, regs::OUT, 0);
    a.halt();

    // Helper: fold payload into acc with an unpredictable hammock inside.
    a.label("fold");
    a.alui(AluOp::And, tmp, payload, 8);
    a.branch(Cond::Ne, tmp, Reg::ZERO, "fold_t");
    a.alu(AluOp::Sub, acc, acc, payload);
    a.ret();
    a.label("fold_t");
    a.alu(AluOp::Add, acc, acc, payload);
    a.alui(AluOp::Xor, acc, acc, 0x55);
    a.ret();

    // Jump table + IR data.
    for (i, label) in ["op0", "op1", "op2", "op3"].iter().enumerate() {
        a.data_label(common::TABLE_REGION + 8 * i as u64, *label);
    }
    // Opcode stream: mostly a repeating 12-long pattern (real compiler IR
    // has strong local structure) with ~1-in-8 random deviations; payloads
    // are fully random, so hammock outcomes stay data dependent.
    let pattern = [0i64, 1, 0, 3, 2, 0, 1, 1, 3, 0, 2, 1];
    let ir: Vec<i64> = (0..IR_WORDS)
        .map(|i| {
            let op = if rng.gen_range(0..8) == 0 {
                rng.gen_range(0..OPS as i64)
            } else {
                pattern[i % pattern.len()]
            };
            // Payloads: mostly a deterministic function of the position (so
            // hammock outcomes correlate with the opcode pattern and
            // predictors do reasonably well), with 1-in-6 fully random.
            let payload: i64 = if rng.gen_range(0..6) == 0 {
                rng.gen_range(0..1 << 18)
            } else {
                ((i as i64).wrapping_mul(2654435761) >> 7) & ((1 << 18) - 1)
            };
            (payload << 2) | op
        })
        .collect();
    a.data_words(common::DATA_REGION, &ir);
    a.assemble().expect("gcc kernel is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_isa::func::Machine;

    #[test]
    fn halts_and_dispatches() {
        let p = build(50);
        let mut m = Machine::new(&p);
        let s = m.run(2_000_000).unwrap();
        assert!(s.halted);
        assert!(s.retired > 1_000);
    }

    #[test]
    fn uses_indirect_dispatch_and_calls() {
        let p = build(5);
        assert!(p.insts().iter().any(|i| matches!(i, tp_isa::Inst::JumpIndirect { .. })));
        assert!(p.insts().iter().any(|i| matches!(i, tp_isa::Inst::Call { .. })));
        assert!(p.insts().iter().any(|i| i.is_return()));
    }

    #[test]
    fn deterministic() {
        assert_eq!(build(7), build(7));
    }
}
