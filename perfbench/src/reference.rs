//! The sampled-long reference table: for every long-suite program and
//! iteration variant, the full detailed MLB-RET run the sampled estimate
//! is judged against, plus digests of the sampled driver's own output.
//!
//! The table is computed once by `perfbench --reference --write` and
//! embedded at build time; `perfbench --reference` recomputes it and
//! fails unless every entry reproduces bit for bit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tp_bench::sampled::{run_sampled_as, Interval, SampleConfig};
use tp_core::{CiModel, TraceProcessor, TraceProcessorConfig};
use tp_isa::func::Machine;

use crate::workload::{build, frontend, iters, Workload, VARIANTS};

/// Where the table lives, relative to the checkout root.
pub const PATH: &str = "perfbench/sampled_reference.tsv";

const EMBEDDED: &str = include_str!("../sampled_reference.tsv");

/// One long-suite cell's reference values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry {
    /// Program name.
    pub name: &'static str,
    /// Iteration count.
    pub iters: u32,
    /// Program instructions to halt (functional and full detailed agree).
    pub instrs: u64,
    /// Cycles of the full detailed MLB-RET run.
    pub full_cycles: u64,
    /// [`intervals_digest`] of the sampled MLB-RET run.
    pub sampled_digest: u64,
    /// Bits of the sampled *base* IPC estimate (the `ci_speedup_geomean`
    /// denominator on sampled-long).
    pub base_ipc_bits: u64,
}

impl Entry {
    /// The full detailed MLB-RET IPC.
    pub fn full_ipc(&self) -> f64 {
        self.instrs as f64 / self.full_cycles as f64
    }

    /// The sampled base IPC estimate.
    pub fn base_ipc(&self) -> f64 {
        f64::from_bits(self.base_ipc_bits)
    }

    fn row(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{:016x}\t{:016x}",
            self.name,
            self.iters,
            self.instrs,
            self.full_cycles,
            self.sampled_digest,
            self.base_ipc_bits
        )
    }
}

/// FNV-1a digest of a sampled run's intervals and total instruction count:
/// equal digests mean equal measurements.
pub fn intervals_digest(intervals: &[Interval], total_instrs: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for i in intervals {
        mix(i.start_retired);
        mix(i.instrs);
        mix(i.cycles);
    }
    mix(total_instrs);
    h
}

fn intern(name: &str) -> Option<&'static str> {
    Workload::SampledLong.programs().iter().copied().find(|&n| n == name)
}

/// Parses a table; `Err` names the bad line.
pub fn parse(text: &str) -> Result<Vec<Entry>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let bad = || format!("{PATH}:{}: malformed row `{line}`", i + 1);
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 6 {
            return Err(bad());
        }
        let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|_| bad());
        let dec = |s: &str| s.parse::<u64>().map_err(|_| bad());
        out.push(Entry {
            name: intern(f[0]).ok_or_else(bad)?,
            iters: f[1].parse().map_err(|_| bad())?,
            instrs: dec(f[2])?,
            full_cycles: dec(f[3])?,
            sampled_digest: hex(f[4])?,
            base_ipc_bits: hex(f[5])?,
        });
    }
    Ok(out)
}

/// The embedded table.
///
/// # Panics
///
/// Panics if the embedded file is malformed (a build of a broken table).
pub fn embedded() -> Vec<Entry> {
    parse(EMBEDDED).unwrap_or_else(|e| panic!("{e}"))
}

/// Looks up `(name, iters)`.
pub fn lookup(table: &[Entry], name: &str, iters: u32) -> Option<Entry> {
    table.iter().copied().find(|e| e.name == name && e.iters == iters)
}

/// Computes one entry from scratch.
///
/// # Errors
///
/// Describes the first disagreement between the functional machine, the
/// full detailed run and the sampled driver.
pub fn compute(name: &'static str, iters: u32) -> Result<Entry, String> {
    let program = build(name, iters);
    let mut m = Machine::new(&program);
    m.run(u64::MAX).map_err(|e| format!("{name}@{iters}: functional run: {e}"))?;
    let instrs = m.retired();
    let mut sim = TraceProcessor::new(&program, TraceProcessorConfig::paper(CiModel::MlbRet));
    let full = sim.run(u64::MAX).map_err(|e| format!("{name}@{iters}: detailed run: {e}"))?;
    if !full.halted || full.stats.retired_instrs != instrs || sim.arch_state() != m.arch_state() {
        return Err(format!("{name}@{iters}: detailed run disagrees with the functional machine"));
    }
    drop(sim);
    let sample = SampleConfig::sparse();
    let fe = frontend(name);
    let run = |model| {
        let s = run_sampled_as(&program, fe, &TraceProcessorConfig::paper(model), &sample);
        if s.total_instrs == instrs {
            Ok(s)
        } else {
            Err(format!("{name}@{iters}: sampled {model:?} covered {} instrs", s.total_instrs))
        }
    };
    let mlb = run(CiModel::MlbRet)?;
    let base = run(CiModel::None)?;
    Ok(Entry {
        name,
        iters,
        instrs,
        full_cycles: full.stats.cycles,
        sampled_digest: intervals_digest(&mlb.intervals, mlb.total_instrs),
        base_ipc_bits: base.ipc_estimate().to_bits(),
    })
}

/// Worker threads of [`compute_all`]. Entries are independent; each full
/// detailed long run peaks near 1 GB, which bounds the count.
const THREADS: usize = 2;

/// Recomputes every `(program, variant)` entry on [`THREADS`] workers and
/// returns the table in canonical order.
///
/// # Errors
///
/// The first failing entry's description.
pub fn compute_all() -> Result<Vec<Entry>, String> {
    let jobs: Vec<(&'static str, u32)> = Workload::SampledLong
        .programs()
        .iter()
        .flat_map(|&n| (0..VARIANTS).map(move |v| (n, iters(Workload::SampledLong.size(), v))))
        .collect();
    let next = AtomicUsize::new(0);
    let results = Mutex::new(vec![None; jobs.len()]);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(name, iters)) = jobs.get(i) else { break };
                let r = compute(name, iters);
                eprintln!("reference {name}@{iters}: {}", if r.is_ok() { "ok" } else { "FAILED" });
                results.lock().expect("a reference worker panicked")[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .expect("a reference worker panicked")
        .into_iter()
        .map(|r| r.expect("every job ran"))
        .collect()
}

/// Renders a table in the embedded format.
pub fn render(table: &[Entry]) -> String {
    let mut s = String::from(
        "# sampled-long reference (perfbench --reference --write)\n\
         # name\titers\tinstrs\tfull_mlbret_cycles\tsampled_digest\tbase_ipc_bits\n",
    );
    for e in table {
        s.push_str(&e.row());
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip() {
        let e = Entry {
            name: "go",
            iters: 60_468,
            instrs: 12,
            full_cycles: 34,
            sampled_digest: 0xdead_beef,
            base_ipc_bits: 1.5f64.to_bits(),
        };
        assert_eq!(parse(&render(&[e])).unwrap(), vec![e]);
        assert!(parse("go\t1\t2").is_err());
    }
}
