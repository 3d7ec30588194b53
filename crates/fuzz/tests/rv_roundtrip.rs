//! Frontend round-trip property over *generated* programs: every program
//! the fuzzer emits as RV64 source assembles to 32-bit words in which
//! each word decodes back to an instruction that re-encodes to the exact
//! same word. This runs the full asm → encode → decode chain over the
//! adversarial control-flow shapes (jump tables, call ladders, nested
//! hammocks) rather than hand-written corpus programs.

use tp_fuzz::{emit_rv_source, generate, FuzzConfig};
use tp_rv::{decode, module_to_program, RvAsm};

#[test]
fn generated_programs_roundtrip_word_exactly() {
    let cfg = FuzzConfig::default();
    for seed in 0..25u64 {
        let src = emit_rv_source(&generate(&cfg, seed));
        let mut asm = RvAsm::new(format!("roundtrip-{seed}"));
        asm.source(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let module = asm.assemble().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for (pc, &word) in module.words.iter().enumerate() {
            let inst = decode(word).unwrap_or_else(|e| panic!("seed {seed} pc {pc}: {e}"));
            assert_eq!(inst.encode(), word, "seed {seed} pc {pc}: {inst}");
        }
        // And the decoded stream lowers into a valid program.
        module_to_program(module).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}
