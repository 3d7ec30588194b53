//! `compress`: an LZW-style hash-table kernel.
//!
//! SPEC95 `compress` spends its time in a tight loop hashing input symbols
//! into a code table, with short, data-dependent hit/miss and bit-test
//! hammocks — exactly the *small FGCI region* population of Table 5
//! (compress: 40.8% of branches are FGCI-type and they produce 63% of all
//! mispredictions; dynamic region size ≈ 4). This kernel reproduces that
//! structure: a predictable counted scan loop whose body is three small
//! unpredictable hammocks.

use tp_isa::asm::Asm;
use tp_isa::{AluOp, Cond, Program, Reg};

use crate::common::{self, emit_indexed_load, emit_prologue, regs};

/// Input symbols in the data region (power of two).
const INPUT_WORDS: usize = 256;
/// Hash-table buckets (power of two): one per distinct input symbol, so
/// lookups mostly hit once the table is warm (biased, compress-like).
const TABLE_WORDS: usize = 256;

/// Builds the kernel with `iters` outer-loop scale (the loop runs
/// `3 * iters` times).
pub fn build(iters: u32) -> Program {
    let mut a = Asm::new("compress");
    let mut rng = common::rng(0xC0117);
    emit_prologue(&mut a);

    let (w, hash, entry, tmp, acc, hits, misses) =
        (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4), Reg::new(5), Reg::new(6), Reg::new(7));
    let lcg = Reg::new(8);
    a.li(lcg, 987654321);

    a.li(acc, 0);
    a.li(hits, 0);
    a.li(misses, 0);
    a.li64(regs::OUTER, 3 * iters as i64);
    a.label("scan");

    // w = next_symbol() — fetched through a helper call, like compress's
    // getcode(): the return target is a global re-convergent point right
    // before the unpredictable hammocks, which is what makes the RET
    // heuristic effective on this benchmark.
    a.call("next_symbol");

    // hash = (w ^ (w >> 5)) & 127
    a.alui(AluOp::Shr, hash, w, 5);
    a.alu(AluOp::Xor, hash, hash, w);
    a.alui(AluOp::And, hash, hash, TABLE_WORDS as i32 - 1);
    a.alui(AluOp::Shl, tmp, hash, 3);
    a.alu(AluOp::Add, tmp, tmp, regs::TABLE);
    a.load(entry, tmp, 0);

    // Hammock 1: hash hit or miss (data dependent, ~50/50 after warm-up).
    a.branch(Cond::Ne, entry, w, "miss");
    a.addi(hits, hits, 1);
    a.jump("after_lookup");
    a.label("miss");
    a.store(w, tmp, 0);
    a.addi(misses, misses, 1);
    a.label("after_lookup");

    // Hammock 2: low-bits test on the symbol (taken about a quarter of the
    // time — data dependent but biased, like real compress dictionary hits).
    a.alui(AluOp::And, tmp, w, 3);
    a.branch(Cond::Eq, tmp, Reg::ZERO, "even");
    a.alui(AluOp::And, tmp, w, 255);
    a.alu(AluOp::Add, acc, acc, tmp);
    a.jump("after_parity");
    a.label("even");
    a.alui(AluOp::And, tmp, w, 63);
    a.alu(AluOp::Sub, acc, acc, tmp);
    a.alui(AluOp::Xor, acc, acc, 3);
    a.label("after_parity");

    // Hammock 3: if-then on bits 2..4 (taken about seven times in eight).
    a.alui(AluOp::Shr, tmp, w, 2);
    a.alui(AluOp::And, tmp, tmp, 7);
    a.branch(Cond::Ne, tmp, Reg::ZERO, "after_bit7");
    a.addi(acc, acc, 7);
    a.label("after_bit7");

    a.addi(regs::OUTER, regs::OUTER, -1);
    a.branch(Cond::Gt, regs::OUTER, Reg::ZERO, "scan");

    a.store(acc, regs::OUT, 0);
    a.store(hits, regs::OUT, 8);
    a.store(misses, regs::OUT, 16);
    a.halt();

    // The symbol sequence advances through a linear congruential generator,
    // so it never settles into a period the trace predictor could memorize
    // (real compress input is likewise effectively aperiodic).
    a.label("next_symbol");
    a.alui(AluOp::Mul, lcg, lcg, 1103515245);
    a.alui(AluOp::Add, lcg, lcg, 12345);
    a.alui(AluOp::Shr, tmp, lcg, 11);
    emit_indexed_load(&mut a, w, regs::DATA, tmp, INPUT_WORDS as i32 - 1, tmp);
    a.ret();

    // Input symbols: a permutation of 0..256 (the hash is bijective on this
    // range, so dictionary lookups always hit once the table is warm — the
    // remaining mispredictions come from the value-dependent hammocks, at a
    // compress-like overall rate).
    let _ = &mut rng;
    let input: Vec<i64> = (0..INPUT_WORDS as i64).map(|i| (i * 167 + 13) & 255).collect();
    a.data_words(common::DATA_REGION, &input);
    a.assemble().expect("compress kernel is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_isa::func::Machine;

    #[test]
    fn halts_and_counts_lookups() {
        let p = build(120); // > 256 iterations so the input wraps and repeats
        let mut m = Machine::new(&p);
        let s = m.run(1_000_000).unwrap();
        assert!(s.halted);
        let hits = m.mem_word(common::OUT_REGION + 8);
        let misses = m.mem_word(common::OUT_REGION + 16);
        assert_eq!(hits + misses, 360, "every iteration looks up once");
        assert!(misses > 0, "table starts cold");
        assert!(hits > 0, "repeated symbols hit after warm-up");
    }

    #[test]
    fn branch_mix_is_hammock_heavy() {
        let p = build(40);
        // 4 conditional branches per iteration: 3 hammocks + loop.
        let branches = p.static_cond_branches();
        assert_eq!(branches, 4);
    }

    #[test]
    fn deterministic() {
        assert_eq!(build(10), build(10));
    }
}
