//! The untraced run: end-to-end metrics.
//!
//! Cells run in order, round after round, until every cell has run once
//! and `--seconds` have passed. A cell's time is the median of its runs'
//! corrected times (see [`crate::host`]), and throughput is the
//! instructions of one round over the sum of those medians, so the mix of
//! cells is the same however many rounds fit.

use std::time::Instant;

use tp_bench::sampled::{run_sampled_as, SampleConfig};
use tp_core::{CiModel, TraceProcessor};

use crate::check::{self, DetailedOut, SampledOut};
use crate::host::{self, HostProbe, Stopwatch, Stretch};
use crate::reference::{self, intervals_digest};
use crate::workload::Setup;
use crate::{geomean, guarded, median, Metric, Report, CELL_BUDGET};

/// Retired instructions between two probes in a detailed run (tens of
/// milliseconds of host time).
pub const CHUNK_INSTRS: u64 = 20_000;

/// The runs of one cell.
pub struct CellRuns<T> {
    /// The timed stretches of each successful run.
    pub runs: Vec<Vec<Stretch>>,
    /// Output of the first successful run.
    pub first: Option<T>,
    /// Runs attempted.
    pub attempted: u64,
    /// The first failure, if any run failed.
    pub error: Option<String>,
}

impl<T> CellRuns<T> {
    /// Median raw and median corrected seconds over the successful runs.
    pub fn secs(&self, quiet: f64) -> (f64, f64) {
        let (raw, cor): (Vec<f64>, Vec<f64>) =
            self.runs.iter().map(|r| host::total(r, quiet)).unzip();
        (median(&raw), median(&cor))
    }
}

/// Runs cells `0..n` round-robin until each ran once and `seconds` have
/// passed. `run` returns a run's timed stretches and output; a later run
/// whose output differs from the first counts as failed.
pub fn timed_rounds<T: PartialEq>(
    n: usize,
    seconds: f64,
    mut run: impl FnMut(usize) -> Result<(Vec<Stretch>, T), String>,
) -> Vec<CellRuns<T>> {
    let mut cells: Vec<CellRuns<T>> = (0..n)
        .map(|_| CellRuns { runs: Vec::new(), first: None, attempted: 0, error: None })
        .collect();
    let start = Instant::now();
    for i in (0..n).cycle() {
        let c = &mut cells[i];
        c.attempted += 1;
        match guarded(|| run(i)) {
            Ok((stretches, out)) => match &c.first {
                None => {
                    c.runs.push(stretches);
                    c.first = Some(out);
                }
                Some(first) if *first == out => c.runs.push(stretches),
                Some(_) => {
                    c.error.get_or_insert_with(|| format!("cell {i}: output changed between runs"));
                }
            },
            Err(e) => {
                c.error.get_or_insert(e);
            }
        }
        if i + 1 == n && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    cells
}

/// One detailed cell run: `TraceProcessor::new`, `run_interval` chunks to
/// halt and the drop are timed, with a probe between chunks.
///
/// # Errors
///
/// A simulator error.
pub fn run_detailed(
    setup: &Setup,
    i: usize,
    probe: &mut HostProbe,
) -> Result<(Vec<Stretch>, DetailedOut), String> {
    let cell = setup.cells[i];
    let program = &setup.programs[cell.prog].program;
    let mut sw = Stopwatch::new(probe);
    let mut sim = sw.time(|| TraceProcessor::new(program, setup.config(cell).clone()));
    let r = loop {
        let left = CELL_BUDGET - sim.stats().retired_instrs;
        let r = sw.time(|| sim.run_interval(CHUNK_INSTRS.min(left)));
        let r = r.map_err(|e| format!("{}: {e}", setup.label(cell)))?;
        sw.cut();
        if r.halted || r.stats.retired_instrs >= CELL_BUDGET {
            break r;
        }
    };
    let out = DetailedOut { halted: r.halted, stats: r.stats, state: sim.arch_state() };
    sw.time(|| drop(sim));
    Ok((sw.finish(), out))
}

/// One sampled cell run through `run_sampled_as`, timed whole between two
/// probes.
pub fn run_sampled(setup: &Setup, i: usize, probe: &mut HostProbe) -> (Vec<Stretch>, SampledOut) {
    let cell = setup.cells[i];
    let b = &setup.programs[cell.prog];
    let mut sw = Stopwatch::new(probe);
    let run = sw.time(|| {
        run_sampled_as(&b.program, b.frontend, setup.config(cell), &SampleConfig::sparse())
    });
    let out = SampledOut {
        halted: run.halted,
        total_instrs: run.total_instrs,
        digest: intervals_digest(&run.intervals, run.total_instrs),
        ipc_estimate: run.ipc_estimate(),
    };
    (sw.finish(), out)
}

/// A cell that passed: its instructions, median raw and corrected
/// seconds, and IPC.
#[derive(Clone, Copy, Debug)]
pub struct Passed {
    /// Program instructions of one run.
    pub instrs: u64,
    /// Median raw seconds.
    pub raw_secs: f64,
    /// Median corrected seconds.
    pub secs: f64,
    /// Simulated IPC (the sampled estimate on sampled cells).
    pub ipc: f64,
}

/// Adds attempts and failures to `report`, printing each cell's times and
/// each failure.
fn account<T>(
    report: &mut Report,
    setup: &Setup,
    cells: &[CellRuns<T>],
    verdicts: &[Result<Passed, String>],
    quiet: f64,
) {
    for (i, (c, v)) in cells.iter().zip(verdicts).enumerate() {
        let (raw, cor) = c.secs(quiet);
        eprintln!(
            "{:<22} runs {:>3}  median raw {raw:.4}s  corrected {cor:.4}s",
            setup.label(setup.cells[i]),
            c.runs.len(),
        );
        report.attempted += c.attempted;
        if let Err(e) = v {
            eprintln!("perfbench: FAILED {e}");
            report.failed += c.attempted;
        } else {
            report.failed += c.attempted - c.runs.len() as u64;
        }
    }
}

/// Throughput over the passing cells in Minstr/s: `(raw, corrected)`.
pub fn host_mips(passed: &[Result<Passed, String>]) -> (f64, f64) {
    let (n, raw, cor) = passed
        .iter()
        .flatten()
        .fold((0u64, 0.0, 0.0), |(n, r, c), p| (n + p.instrs, r + p.raw_secs, c + p.secs));
    (crate::ratio(n as f64, raw) / 1e6, crate::ratio(n as f64, cor) / 1e6)
}

/// The untraced run of `setup` for `seconds`.
///
/// # Errors
///
/// When the run cannot be judged at all (the embedded anchors do not
/// parse, peak RSS is unreadable); failing cells are not errors.
pub fn run(
    setup: &Setup,
    seed: u64,
    seconds: f64,
    probe: &mut HostProbe,
) -> Result<Report, String> {
    let mut report = Report::default();
    let (verdicts, ci_speedup) = if setup.workload.is_sampled() {
        let cells = timed_rounds(setup.cells.len(), seconds, |i| Ok(run_sampled(setup, i, probe)));
        let quiet = probe.quiet();
        let table = reference::embedded();
        let mut speedups = Vec::new();
        let verdicts: Vec<Result<Passed, String>> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if let Some(e) = &c.error {
                    return Err(e.clone());
                }
                let out = c.first.as_ref().ok_or("no successful run")?;
                let entry = check::sampled(setup, setup.cells[i], out, &table)?;
                speedups.push(out.ipc_estimate / entry.base_ipc());
                let (raw_secs, secs) = c.secs(quiet);
                Ok(Passed { instrs: out.total_instrs, raw_secs, secs, ipc: out.ipc_estimate })
            })
            .collect();
        account(&mut report, setup, &cells, &verdicts, quiet);
        (verdicts, geomean(&speedups))
    } else {
        let cells = timed_rounds(setup.cells.len(), seconds, |i| run_detailed(setup, i, probe));
        let quiet = probe.quiet();
        let oracles = check::oracles(setup);
        let anchors = check::anchors()?;
        let verdicts: Vec<Result<Passed, String>> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if let Some(e) = &c.error {
                    return Err(e.clone());
                }
                let cell = setup.cells[i];
                let out = c.first.as_ref().ok_or("no successful run")?;
                check::detailed(setup, cell, out, &oracles[cell.prog], &anchors, seed)?;
                let (raw_secs, secs) = c.secs(quiet);
                let (instrs, ipc) = (out.stats.retired_instrs, out.stats.ipc());
                Ok(Passed { instrs, raw_secs, secs, ipc })
            })
            .collect();
        account(&mut report, setup, &cells, &verdicts, quiet);
        let speedup = ci_speedup(setup, &verdicts);
        (verdicts, speedup)
    };
    let (raw_mips, mips) = host_mips(&verdicts);
    eprintln!("host_mips raw {raw_mips:.4}  corrected {mips:.4}");
    let ipcs: Vec<f64> = verdicts.iter().flatten().map(|p| p.ipc).collect();
    report.metrics = vec![
        Metric::new("setup_s", setup.setup_secs(probe.quiet()), "s"),
        Metric::new("host_mips", mips, "Minstr/s"),
        Metric::new("peak_rss_mb", crate::peak_rss_mb()?, "MiB"),
        Metric::new("ipc_geomean", geomean(&ipcs), "instr/cycle"),
        Metric::new("ci_speedup_geomean", ci_speedup, "x"),
    ];
    Ok(report)
}

/// Geomean over (program, CI model) of IPC / the program's base IPC,
/// over the pairs whose cells both passed.
pub fn ci_speedup(setup: &Setup, verdicts: &[Result<Passed, String>]) -> f64 {
    let mut speedups = Vec::new();
    for (i, c) in setup.cells.iter().enumerate() {
        let base = setup.cells.iter().position(|b| b.prog == c.prog && b.model == CiModel::None);
        if let (Some(b), Ok(cell)) = (base.filter(|&b| b != i), &verdicts[i]) {
            if let Ok(base) = &verdicts[b] {
                speedups.push(cell.ipc / base.ipc);
            }
        }
    }
    geomean(&speedups)
}
