//! `li`: interpreter dispatch with short data-dependent list walks.
//!
//! SPEC95 `li` (xlisp) is dominated by backward-branch mispredictions
//! (Table 5: 60.9% of all mispredictions come from backward branches —
//! list-walk and GC loops with tiny, unpredictable trip counts). The paper's
//! MLB heuristic targets exactly these. This kernel interprets a random
//! opcode stream through a jump table; the hot handler walks a linked list
//! whose length is data-dependent (1–4 nodes), and helpers use call/return.

use tp_isa::asm::Asm;
use tp_isa::{AluOp, Cond, Program, Reg};

use crate::common::{self, emit_indexed_load, emit_prologue, emit_random_words, regs};
use rand::Rng;

const CODE_WORDS: usize = 256;
const HEAP_WORDS: usize = 64;

/// Builds the kernel (`2 * iters` dispatches).
pub fn build(iters: u32) -> Program {
    let mut a = Asm::new("li");
    let mut rng = common::rng(0x115F);
    emit_prologue(&mut a);

    let (op, val, node, tmp, acc) =
        (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4), Reg::new(5));

    a.li(acc, 0);
    a.li64(regs::OUTER, 2 * iters as i64);
    a.label("dispatch");

    emit_indexed_load(&mut a, op, regs::DATA, regs::OUTER, CODE_WORDS as i32 - 1, tmp);
    a.alui(AluOp::And, tmp, op, 3);
    a.alui(AluOp::Shl, tmp, tmp, 3);
    a.alu(AluOp::Add, tmp, tmp, regs::TABLE);
    a.load(tmp, tmp, 0);
    a.jump_indirect(tmp);

    // Handler 0: walk a list of data-dependent length (1..=4) — the
    // unpredictable backward branch the MLB heuristic repairs.
    a.label("h_walk");
    // Walk length comes from the *evolving* accumulator (1..=4): the loop
    // exit is genuinely unpredictable, unlike the periodic opcode stream.
    a.alui(AluOp::Shr, val, acc, 3);
    a.alu(AluOp::Xor, val, val, acc);
    a.alui(AluOp::And, val, val, 3);
    a.addi(val, val, 1);
    a.label("walk_loop");
    a.alu(AluOp::Add, tmp, regs::OUTER, val);
    a.alui(AluOp::And, tmp, tmp, HEAP_WORDS as i32 - 1);
    a.alui(AluOp::Shl, tmp, tmp, 3);
    a.alu(AluOp::Add, tmp, tmp, regs::TABLE);
    a.load(node, tmp, 64 * 8); // heap lives past the jump table
    a.alu(AluOp::Add, acc, acc, node);
    a.addi(val, val, -1);
    a.branch(Cond::Gt, val, Reg::ZERO, "walk_loop");
    // Control independent continuation after the loop exit.
    a.alui(AluOp::Xor, acc, acc, 0x11);
    a.addi(acc, acc, 1);
    a.jump("next");

    // Handler 1: cons — store to the heap through a helper.
    a.label("h_cons");
    a.call("cons");
    a.jump("next");

    // Handler 2: small arithmetic hammock.
    a.label("h_arith");
    a.alui(AluOp::And, tmp, op, 16);
    a.branch(Cond::Eq, tmp, Reg::ZERO, "arith_else");
    a.alu(AluOp::Add, acc, acc, op);
    a.jump("next");
    a.label("arith_else");
    a.alu(AluOp::Sub, acc, acc, op);
    a.jump("next");

    // Handler 3: nil — nothing.
    a.label("h_nil");
    a.addi(acc, acc, 1);
    a.jump("next");

    a.label("next");
    a.addi(regs::OUTER, regs::OUTER, -1);
    a.branch(Cond::Gt, regs::OUTER, Reg::ZERO, "dispatch");
    a.store(acc, regs::OUT, 0);
    a.halt();

    a.label("cons");
    a.alui(AluOp::And, tmp, acc, HEAP_WORDS as i32 - 1);
    a.alui(AluOp::Shl, tmp, tmp, 3);
    a.alu(AluOp::Add, tmp, tmp, regs::TABLE);
    a.store(acc, tmp, 64 * 8);
    a.addi(acc, acc, 3);
    a.ret();

    for (i, label) in ["h_walk", "h_cons", "h_arith", "h_nil"].iter().enumerate() {
        a.data_label(common::TABLE_REGION + 8 * i as u64, *label);
    }
    // Opcode stream: interpreter programs repeat heavily; 3-in-4 slots
    // follow a fixed pattern, the rest are random. Walk lengths (bits 2..4)
    // stay fully random — the unpredictable loop exits are li's signature.
    let pattern = [0i64, 2, 0, 1, 0, 3, 2, 0];
    let code: Vec<i64> = (0..CODE_WORDS)
        .map(|i| {
            let op = if rng.gen_range(0..4) == 0 {
                rng.gen_range(0..4)
            } else {
                pattern[i % pattern.len()]
            };
            let walk: i64 = rng.gen_range(0..1 << 12);
            (walk << 2) | op
        })
        .collect();
    a.data_words(common::DATA_REGION, &code);
    // Heap initial contents, after the 64-entry jump-table area.
    emit_random_words(&mut a, &mut rng, common::TABLE_REGION + 64 * 8, HEAP_WORDS, -50, 50);
    a.assemble().expect("li kernel is well-formed")
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
        assert!(s.retired > 1_500);
    }

    #[test]
    fn walk_loop_is_backward_and_short() {
        let p = build(5);
        let backward: Vec<usize> = p
            .insts()
            .iter()
            .enumerate()
            .filter(|(pc, i)| i.is_backward_branch(*pc as u32))
            .map(|(pc, _)| pc)
            .collect();
        // The walk loop plus the dispatch loop.
        assert_eq!(backward.len(), 2);
    }

    #[test]
    fn deterministic() {
        assert_eq!(build(6), build(6));
    }
}
