//! End-to-end tests of the RV64 frontend (`tp-rv`).
//!
//! Three layers of evidence that the frontend is faithful:
//!
//! 1. **Round trips.** Every corpus program's encodings decode and
//!    re-encode bit-identically (assemble → decode → re-assemble), and a
//!    randomized sweep proves `decode(encode(i)) == i` over the whole
//!    RV64IM subset — the assembler and decoder can only agree because
//!    both implement the standard encodings.
//! 2. **Differential execution.** For every rv workload under all five
//!    control-independence models, the detailed pipeline runs with the
//!    functional-oracle comparison enabled: every retired instruction's PC
//!    is checked against the functional [`Machine`]'s retired stream, every
//!    committed store against its memory, and every committed register
//!    value against its register file. A model that preserved, repaired,
//!    or reissued its way to a different committed stream fails here.
//! 3. **Dominance.** At least one control-independence model must beat
//!    base on at least one rv workload (the paper's claim carries over to
//!    real-ISA control flow), and no CI model may lose to base beyond the
//!    guard bound.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tp_bench::run_cell;
use trace_processor::tp_core::{CiModel, TraceProcessor, TraceProcessorConfig};
use trace_processor::tp_isa::func::Machine;
use trace_processor::tp_rv::{corpus, decode, RvCond, RvIOp, RvInst, RvOp, RvShift};
use trace_processor::tp_workloads::{rv_suite, Size};

/// Assemble → decode → re-assemble on every corpus program: decoding each
/// assembled 32-bit word and re-encoding the decoded instruction must
/// reproduce the word bit-for-bit, for every instruction of every program.
#[test]
fn corpus_encodings_roundtrip() {
    for module in corpus::all_modules(Size::Tiny.iters()) {
        assert!(!module.words.is_empty(), "{} is non-trivial", module.name);
        for (i, &word) in module.words.iter().enumerate() {
            let inst =
                decode(word).unwrap_or_else(|e| panic!("{} instruction {i}: {e}", module.name));
            assert_eq!(
                inst.encode(),
                word,
                "{} instruction {i} ({inst}) re-encodes differently",
                module.name
            );
        }
    }
}

/// `decode(encode(inst)) == inst` over a randomized sweep of the whole
/// supported subset (every opcode class, extreme immediates included).
#[test]
fn randomized_encode_decode_equivalence() {
    let mut rng = StdRng::seed_from_u64(0x5eed_51de);
    let mut cases: Vec<RvInst> = Vec::new();
    for _ in 0..5_000 {
        let rd = rng.gen_range(0..32u8);
        let rs1 = rng.gen_range(0..32u8);
        let rs2 = rng.gen_range(0..32u8);
        let imm12 = rng.gen_range(-2048..2048i32);
        let inst = match rng.gen_range(0..9) {
            0 => RvInst::Lui { rd, imm20: rng.gen_range(-(1 << 19)..1 << 19) },
            1 => RvInst::Jal { rd, offset: rng.gen_range(-(1 << 18)..1 << 18) * 4 },
            2 => RvInst::Jalr { rd, rs1, imm: imm12 },
            3 => RvInst::Branch {
                cond: RvCond::ALL[rng.gen_range(0..RvCond::ALL.len())],
                rs1,
                rs2,
                offset: rng.gen_range(-1024..1024i32) * 4,
            },
            4 => RvInst::Ld { rd, rs1, imm: imm12 },
            5 => RvInst::Sd { rs2, rs1, imm: imm12 },
            6 => RvInst::OpImm {
                op: RvIOp::ALL[rng.gen_range(0..RvIOp::ALL.len())],
                rd,
                rs1,
                imm: imm12,
            },
            7 => RvInst::ShiftImm {
                op: RvShift::ALL[rng.gen_range(0..RvShift::ALL.len())],
                rd,
                rs1,
                shamt: rng.gen_range(0..64),
            },
            _ => RvInst::Op { op: RvOp::ALL[rng.gen_range(0..RvOp::ALL.len())], rd, rs1, rs2 },
        };
        cases.push(inst);
    }
    cases.push(RvInst::Ecall);
    for inst in cases {
        let word = inst.encode();
        assert_eq!(decode(word), Ok(inst), "{inst} <-> {word:#010x}");
    }
}

/// Differential: under all five models, every rv workload runs to halt
/// with the oracle comparing the retired stream (PCs, stores, registers)
/// against the functional machine, and commits the exact final state.
#[test]
fn rv_suite_matches_functional_machine_under_all_models() {
    for w in rv_suite(Size::Tiny) {
        let mut oracle = Machine::new(&w.program);
        oracle.run(u64::MAX).expect("functional run completes");
        for model in CiModel::ALL {
            let cfg = TraceProcessorConfig::paper(model).with_oracle();
            let mut sim = TraceProcessor::new(&w.program, cfg);
            let r = run_cell(&mut sim, w.name, model.name()).result;
            assert_eq!(
                r.stats.retired_instrs,
                oracle.retired(),
                "{} {model:?} retired-stream length",
                w.name
            );
            assert_eq!(sim.arch_state(), oracle.arch_state(), "{} {model:?} final state", w.name);
        }
    }
}

/// The paper's claim on real-ISA control flow: at least one CI model beats
/// base somewhere, and none loses beyond the guard bound anywhere.
#[test]
fn rv_suite_ci_dominance() {
    use tp_bench::speed::{guard_violations, run_grid_on, SuiteChoice};
    let cells = run_grid_on(&SuiteChoice::Rv.workloads(Size::Tiny), &CiModel::ALL, &[16]);
    let violations = guard_violations(&cells);
    assert!(violations.is_empty(), "CI models lose to base: {violations:?}");
    let mut wins = Vec::new();
    for c in &cells {
        if c.model == CiModel::None {
            continue;
        }
        let base = cells
            .iter()
            .find(|b| b.model == CiModel::None && b.workload == c.workload)
            .expect("base cell exists");
        if c.stats.ipc() > base.stats.ipc() * 1.05 {
            wins.push(format!("{} {}", c.workload, c.model.name()));
        }
    }
    assert!(!wins.is_empty(), "no CI model beats base by >5% on any rv workload");
}
