//! Oracle-verified determinism probe: runs a fixed set of kernels under
//! every control-independence model at `CheckLevel::Oracle` and prints
//! cycle counts plus a digest of committed architectural state.
//!
//! The output is fully deterministic, so diffing two runs proves that a
//! refactor left cycle-level behaviour and committed state bit-identical.
//! The probe corpus itself lives in `tp_bench::corpus` and is shared with
//! the golden-stats regression test (`tests/golden_stats.rs`), which diffs
//! the same rows against `tests/golden/oracle_probes.txt`.
//!
//! Run with: `cargo run --release --example oracle_verify`

fn main() {
    for row in tp_bench::corpus::probe_rows(trace_processor::tp_core::CheckLevel::Oracle) {
        println!("{row}");
    }
}
