//! The oracle-verified determinism probe corpus.
//!
//! A fixed set of kernels, each run under every control-independence model
//! with per-trace oracle checking enabled. The cycle count, retired
//! instruction count, and a digest of committed architectural state are
//! fully deterministic, so two runs (or a run and a checked-in fixture)
//! can be diffed to prove that a refactor left cycle-level behaviour and
//! committed state bit-identical.
//!
//! Shared by `examples/oracle_verify` (human-readable probe) and
//! `tests/golden_stats.rs` (the golden-stats regression corpus); keeping
//! one implementation guarantees the two can never drift apart.

use tp_core::{CiModel, TraceProcessor, TraceProcessorConfig};
use tp_isa::asm::Asm;
use tp_isa::func::{ArchState, Machine};
use tp_isa::synth::{self, SynthConfig};
use tp_isa::{AluOp, Cond, Program, Reg};
use tp_workloads::{by_name, Size, Workload};

use crate::runner::run_cell;

/// One deterministic probe outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeResult {
    /// Cycles to halt.
    pub cycles: u64,
    /// Retired instructions.
    pub retired: u64,
    /// FNV-1a digest of committed registers and memory.
    pub digest: u64,
}

/// The quickstart kernel (see `examples/quickstart.rs`): a data-dependent
/// hammock inside a counted loop.
pub fn quickstart_program() -> Program {
    let mut a = Asm::new("quickstart");
    let (r1, r2, r3) = (Reg::new(1), Reg::new(2), Reg::new(3));
    a.li(r1, 500);
    a.li(r2, 0);
    a.label("top");
    a.alui(AluOp::Mul, r3, r1, 0x9E37_79B9u32 as i32);
    a.alui(AluOp::And, r3, r3, 1);
    a.branch(Cond::Eq, r3, Reg::ZERO, "even");
    a.addi(r2, r2, 3);
    a.jump("join");
    a.label("even");
    a.addi(r2, r2, 5);
    a.label("join");
    a.addi(r1, r1, -1);
    a.branch(Cond::Gt, r1, Reg::ZERO, "top");
    a.halt();
    a.assemble().expect("valid program")
}

/// The probe programs, in canonical order: `(name, program)`.
pub fn probe_programs() -> Vec<(&'static str, Program)> {
    vec![
        ("quickstart", quickstart_program()),
        ("synth-small-7", synth::generate(&SynthConfig::small(), 7)),
        ("synth-default-3", synth::generate(&SynthConfig::default(), 3)),
        ("compress-tiny", by_name("compress", Size::Tiny).unwrap().program),
        ("li-tiny", by_name("li", Size::Tiny).unwrap().program),
    ]
}

/// FNV-1a digest of the committed register file and memory image.
pub fn state_digest(sim: &TraceProcessor<'_>) -> u64 {
    let state = sim.arch_state();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for r in &state.regs {
        mix(*r as u64);
    }
    let mut mem: Vec<_> = state.mem.iter().collect();
    mem.sort();
    for (addr, val) in mem {
        mix(*addr);
        mix(*val as u64);
    }
    h
}

/// The functional oracle's final architectural state for `program`,
/// computed once and shared across that program's five model cells.
pub fn oracle_state(program: &Program) -> ArchState {
    let mut oracle = Machine::new(program);
    oracle.run(u64::MAX).expect("oracle runs");
    oracle.arch_state()
}

/// Runs one `(program, model)` probe cell under full oracle verification,
/// checking final committed state against a precomputed [`oracle_state`].
///
/// # Panics
///
/// Panics if the simulation errors, fails to halt, or commits state that
/// differs from the functional oracle — a probe must never be recorded
/// from a broken run.
pub fn run_probe_against(
    name: &str,
    program: &Program,
    model: CiModel,
    expected: &ArchState,
) -> ProbeResult {
    let cfg = TraceProcessorConfig::paper(model).with_oracle();
    let mut sim = TraceProcessor::new(program, cfg);
    let stats = run_cell(&mut sim, name, model.name()).result.stats;
    assert_eq!(&sim.arch_state(), expected, "{name} {model:?} diverged");
    ProbeResult { cycles: stats.cycles, retired: stats.retired_instrs, digest: state_digest(&sim) }
}

/// The canonical one-line rendering of a probe cell — the historical
/// `oracle_verify` output format, also stored verbatim in
/// `tests/golden/oracle_probes.txt`.
pub fn probe_row(name: &str, model: CiModel, r: ProbeResult) -> String {
    format!(
        "{name:<16} {:<10} cycles={:<8} retired={:<8} state={:016x}",
        format!("{model:?}"),
        r.cycles,
        r.retired,
        r.digest
    )
}

/// The `simstats.txt` fixture rows: every workload in `workloads` under
/// every model, one `{workload} {model:?} {stats:?}` line per cell.
/// `attach` prepares each simulator before its run, so observation-only
/// checks can attach sinks and still compare the same bytes.
pub fn simstats_rows(
    workloads: &[Workload],
    mut attach: impl FnMut(&Workload, &mut TraceProcessor<'_>),
) -> String {
    let mut rows = String::new();
    for w in workloads {
        for model in CiModel::ALL {
            let mut sim = TraceProcessor::new(&w.program, TraceProcessorConfig::paper(model));
            attach(w, &mut sim);
            let stats = run_cell(&mut sim, w.name, model.name()).result.stats;
            rows.push_str(&format!("{} {model:?} {stats:?}\n", w.name));
        }
    }
    rows
}

/// Runs the full 25-cell corpus (5 programs x 5 models) and returns the
/// canonical rows in order.
pub fn probe_rows() -> Vec<String> {
    let mut rows = Vec::new();
    for (name, program) in probe_programs() {
        let expected = oracle_state(&program);
        for model in CiModel::ALL {
            let r = run_probe_against(name, &program, model, &expected);
            rows.push(probe_row(name, model, r));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_probe_is_deterministic() {
        let p = quickstart_program();
        let expected = oracle_state(&p);
        let a = run_probe_against("quickstart", &p, CiModel::None, &expected);
        let b = run_probe_against("quickstart", &p, CiModel::None, &expected);
        assert_eq!(a, b);
        assert!(a.cycles > 0 && a.retired > 0);
    }

    #[test]
    fn probe_row_format_is_stable() {
        let r = ProbeResult { cycles: 7040, retired: 3253, digest: 0x634b_0da4_0070_15f9 };
        assert_eq!(
            probe_row("quickstart", CiModel::None, r),
            "quickstart       None       cycles=7040     retired=3253     state=634b0da4007015f9"
        );
    }
}
