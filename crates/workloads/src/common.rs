//! Shared helpers for workload construction.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tp_isa::asm::Asm;
use tp_isa::{Addr, Reg, Word};

/// Register conventions shared by all workload kernels.
pub mod regs {
    use tp_isa::Reg;

    /// Base pointer to the primary input data region.
    pub const DATA: Reg = Reg::new(16);
    /// Base pointer to a secondary table region.
    pub const TABLE: Reg = Reg::new(17);
    /// Base pointer to the output region.
    pub const OUT: Reg = Reg::new(18);
    /// Outer loop counter.
    pub const OUTER: Reg = Reg::new(20);
    /// Inner loop counter.
    pub const INNER: Reg = Reg::new(21);
}

/// Byte address of the primary input region.
pub const DATA_REGION: Addr = tp_isa::DATA_BASE;
/// Byte address of the table region.
pub const TABLE_REGION: Addr = tp_isa::DATA_BASE + 0x4000;
/// Byte address of the output region.
pub const OUT_REGION: Addr = tp_isa::DATA_BASE + 0x8000;

/// A deterministic pseudo-random generator for workload data (fixed per
/// workload so every build is identical).
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Emits `words` pseudo-random words into the data image at `base`, with
/// values drawn from `lo..hi`.
pub fn emit_random_words(
    a: &mut Asm,
    rng: &mut StdRng,
    base: Addr,
    words: usize,
    lo: Word,
    hi: Word,
) {
    let values: Vec<Word> = (0..words).map(|_| rng.gen_range(lo..hi)).collect();
    a.data_words(base, &values);
}

/// Emits the standard prologue: stack pointer, data/table/output base
/// registers.
pub fn emit_prologue(a: &mut Asm) {
    a.li64(Reg::SP, tp_isa::STACK_BASE as i64);
    a.li64(regs::DATA, DATA_REGION as i64);
    a.li64(regs::TABLE, TABLE_REGION as i64);
    a.li64(regs::OUT, OUT_REGION as i64);
}

/// Emits `r = data[(idx_reg & mask) * 8 + base_reg]` using `tmp` as scratch:
/// a bounded, data-dependent table load.
pub fn emit_indexed_load(a: &mut Asm, r: Reg, base: Reg, idx: Reg, mask: i32, tmp: Reg) {
    use tp_isa::AluOp;
    a.alui(AluOp::And, tmp, idx, mask);
    a.alui(AluOp::Shl, tmp, tmp, 3);
    a.alu(AluOp::Add, tmp, tmp, base);
    a.load(r, tmp, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_isa::func::Machine;

    #[test]
    fn rng_is_deterministic() {
        let mut a = rng(5);
        let mut b = rng(5);
        let x: u64 = a.gen();
        let y: u64 = b.gen();
        assert_eq!(x, y);
    }

    #[test]
    fn indexed_load_masks_and_scales() {
        let mut a = Asm::new("t");
        emit_prologue(&mut a);
        let (r1, r2, tmp) = (Reg::new(1), Reg::new(2), Reg::new(3));
        a.li(r2, 0x47); // index 0x47 & 0xf = 7
        emit_indexed_load(&mut a, r1, regs::DATA, r2, 0xf, tmp);
        a.halt();
        a.data_word(DATA_REGION + 8 * 7, 1234);
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p);
        m.run(100).unwrap();
        assert_eq!(m.reg(r1), 1234);
    }

    #[test]
    fn regions_do_not_overlap() {
        const { assert!(TABLE_REGION - DATA_REGION >= 0x4000) };
        const { assert!(OUT_REGION - TABLE_REGION >= 0x4000) };
    }
}
