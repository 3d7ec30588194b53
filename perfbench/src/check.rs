//! Output checks, run outside the timed region.
//!
//! A detailed cell must halt with the functional machine's retired count,
//! registers and committed memory, and at the canonical seed reproduce
//! the `instrs`/`cycles` its `BENCH_speed.json` cell pins. A sampled cell
//! must halt having covered the program's instruction count and produce
//! the intervals the reference table records.

use tp_core::SimStats;
use tp_isa::func::{ArchState, Machine};

use crate::reference::{self, Entry};
use crate::workload::{Cell, Setup, CANONICAL_SEED};

/// The behaviour contract the canonical-seed detailed cells are held to.
const BENCH_SPEED: &str = include_str!("../../BENCH_speed.json");

/// What a detailed cell run leaves behind for checking.
#[derive(Clone, Debug, PartialEq)]
pub struct DetailedOut {
    /// Whether the program halted.
    pub halted: bool,
    /// Final statistics.
    pub stats: SimStats,
    /// Committed registers and memory.
    pub state: ArchState,
}

/// What a sampled cell run leaves behind for checking.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampledOut {
    /// Whether the program halted.
    pub halted: bool,
    /// Program instructions covered (detailed and fast-forwarded).
    pub total_instrs: u64,
    /// [`reference::intervals_digest`] of the measured intervals.
    pub digest: u64,
    /// The sampled IPC estimate.
    pub ipc_estimate: f64,
}

/// A program's functional run to halt.
pub struct Oracle {
    retired: u64,
    state: ArchState,
}

/// Runs every program of `setup` on the functional machine.
pub fn oracles(setup: &Setup) -> Vec<Result<Oracle, String>> {
    setup
        .programs
        .iter()
        .map(|b| {
            crate::guarded(|| {
                let mut m = Machine::new(&b.program);
                let s = m.run(u64::MAX).map_err(|e| format!("{}: functional run: {e}", b.name))?;
                if !s.halted {
                    return Err(format!("{}: functional run did not halt", b.name));
                }
                Ok(Oracle { retired: m.retired(), state: m.arch_state() })
            })
        })
        .collect()
}

/// `(program, model) → (instrs, cycles)` of the 16-PE cells in
/// `BENCH_speed.json`.
///
/// # Errors
///
/// When the embedded document does not parse.
pub fn anchors() -> Result<Vec<(String, String, u64, u64)>, String> {
    let doc = tp_bench::json::parse(BENCH_SPEED).map_err(|e| format!("BENCH_speed.json: {e}"))?;
    let cells = doc.get("cells").and_then(|c| c.as_array()).ok_or("BENCH_speed.json: no cells")?;
    Ok(cells
        .iter()
        .filter(|c| c.get("pes").and_then(tp_bench::json::Json::as_u64) == Some(16))
        .filter_map(|c| {
            let num = |k| c.get(k).and_then(tp_bench::json::Json::as_u64);
            Some((
                c.str("workload")?.to_string(),
                c.str("model")?.to_string(),
                num("instrs")?,
                num("cycles")?,
            ))
        })
        .collect())
}

/// Checks one detailed cell's output against its program's oracle and, at
/// the canonical seed, its `BENCH_speed.json` anchor.
///
/// # Errors
///
/// The first disagreement.
pub fn detailed(
    setup: &Setup,
    cell: Cell,
    out: &DetailedOut,
    oracle: &Result<Oracle, String>,
    anchors: &[(String, String, u64, u64)],
    seed: u64,
) -> Result<(), String> {
    let label = setup.label(cell);
    let oracle = oracle.as_ref().map_err(Clone::clone)?;
    if !out.halted {
        return Err(format!("{label}: did not halt"));
    }
    if out.stats.retired_instrs != oracle.retired {
        return Err(format!(
            "{label}: retired {} instrs, functional machine {}",
            out.stats.retired_instrs, oracle.retired
        ));
    }
    if out.state != oracle.state {
        return Err(format!("{label}: committed state differs from the functional machine"));
    }
    if seed == CANONICAL_SEED {
        let name = setup.programs[cell.prog].name;
        let anchor = anchors.iter().find(|a| a.0 == name && a.1 == cell.model.name());
        if let Some((_, _, instrs, cycles)) = anchor {
            if (out.stats.retired_instrs, out.stats.cycles) != (*instrs, *cycles) {
                return Err(format!(
                    "{label}: {} instrs / {} cycles, BENCH_speed.json pins {instrs} / {cycles}",
                    out.stats.retired_instrs, out.stats.cycles
                ));
            }
        }
    }
    Ok(())
}

/// Checks one sampled cell against the reference table and returns its
/// entry.
///
/// # Errors
///
/// A missing entry or any disagreement with it.
pub fn sampled(
    setup: &Setup,
    cell: Cell,
    out: &SampledOut,
    table: &[Entry],
) -> Result<Entry, String> {
    let label = setup.label(cell);
    let b = &setup.programs[cell.prog];
    let entry = reference::lookup(table, b.name, b.iters)
        .ok_or_else(|| format!("{label}: no reference entry for {} iterations", b.iters))?;
    if !out.halted || out.total_instrs != entry.instrs {
        return Err(format!(
            "{label}: covered {} instrs (halted: {}), the program has {}",
            out.total_instrs, out.halted, entry.instrs
        ));
    }
    if out.digest != entry.sampled_digest {
        return Err(format!("{label}: intervals differ from the reference sampled run"));
    }
    Ok(entry)
}
