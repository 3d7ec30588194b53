//! Synthetic SPEC95-integer-like benchmark kernels.
//!
//! The paper evaluates on the SPEC95 integer benchmarks compiled for
//! SimpleScalar. Those binaries (and 100–200M-instruction runs) are not
//! reproducible here, so this crate substitutes eight synthetic kernels —
//! one per benchmark — each engineered to match the corresponding row of the
//! paper's Table 5:
//!
//! | kernel | control-flow character |
//! |---|---|
//! | `compress` | small data-dependent hammocks (FGCI) + counted loop; high misprediction rate |
//! | `gcc` | switch dispatch over a synthetic IR with medium hammocks and helper calls |
//! | `go` | deeply nested data-dependent conditionals; high misprediction rate |
//! | `jpeg` | counted inner loops with a large saturating-clamp hammock region |
//! | `li` | interpreter dispatch with short, data-dependent list-walk loops (backward-branch mispredictions dominate) |
//! | `m88ksim` | decode/dispatch over a repeating instruction pattern; highly predictable |
//! | `perl` | mostly-predictable scanning with occasional short match loops |
//! | `vortex` | record validation with predictable not-taken error checks and helper calls |
//!
//! What carries over from the paper is the *branch population*: the fraction
//! of FGCI-type branches (small forward regions), the share of
//! mispredictions from backward (loop) branches, region sizes, and overall
//! misprediction rates — the quantities that drive every experiment in the
//! evaluation. Dynamic instruction counts are scaled down (hundreds of
//! thousands instead of hundreds of millions) so the full table sweep runs
//! in minutes.
//!
//! # Example
//!
//! ```
//! use tp_workloads::{suite, Size};
//! use tp_isa::func::Machine;
//!
//! for w in suite(Size::Tiny) {
//!     let mut m = Machine::new(&w.program);
//!     let summary = m.run(10_000_000).expect("runs");
//!     assert!(summary.halted, "{} halts", w.name);
//! }
//! ```

pub mod common;
pub mod compress;
pub mod gcc;
pub mod go;
pub mod jpeg;
pub mod li;
pub mod m88ksim;
pub mod perl;
pub mod vortex;

use std::fmt;

use tp_isa::{Frontend, Program};

/// A named benchmark kernel.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Benchmark name (Table 2 for the synthetic suite, the corpus name
    /// for the rv suite).
    pub name: &'static str,
    /// One-line description of the kernel.
    pub description: &'static str,
    /// The program.
    pub program: Program,
    /// Which frontend produced the program (the two suites keep separate
    /// identities: checkpoints record this, and lookups report it).
    pub frontend: Frontend,
}

/// Workload size presets (iteration counts scale roughly linearly).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// A few thousand dynamic instructions (unit tests).
    Tiny,
    /// Tens of thousands (integration tests).
    Small,
    /// Hundreds of thousands (the experiment harnesses).
    Full,
    /// Millions — 10x `Full`. Only tractable with the sampled simulation
    /// engine (`tp-ckpt` / `tp_bench::sampled`); a full detailed run of
    /// the long suite takes minutes per workload.
    Long,
}

impl Size {
    /// Base iteration count for this size.
    pub fn iters(self) -> u32 {
        match self {
            Size::Tiny => 60,
            Size::Small => 600,
            Size::Full => 6_000,
            Size::Long => 60_000,
        }
    }
}

/// A workload before it is built: what a lookup by name needs.
#[derive(Clone, Copy)]
struct Kernel {
    name: &'static str,
    description: &'static str,
    frontend: Frontend,
    build: fn(u32) -> Program,
}

impl Kernel {
    fn build(&self, size: Size) -> Workload {
        Workload {
            name: self.name,
            description: self.description,
            program: (self.build)(size.iters()),
            frontend: self.frontend,
        }
    }
}

const fn synth(name: &'static str, description: &'static str, build: fn(u32) -> Program) -> Kernel {
    Kernel { name, description, frontend: Frontend::Synth, build }
}

/// The synthetic suite, in the paper's order.
const SYNTH: [Kernel; 8] = [
    synth("compress", "LZW-style hash-table kernel: unpredictable small hammocks", compress::build),
    synth("gcc", "IR-walk with switch dispatch, medium hammocks and helpers", gcc::build),
    synth("go", "board evaluation with deep data-dependent conditionals", go::build),
    synth("jpeg", "block transform with counted loops and a large clamp region", jpeg::build),
    synth("li", "interpreter with short data-dependent list walks", li::build),
    synth("m88ksim", "decode/dispatch over a repeating instruction pattern", m88ksim::build),
    synth("perl", "text scan with occasional short match loops", perl::build),
    synth("vortex", "record validation with predictable error checks", vortex::build),
];

/// The rv suite, in the corpus's canonical order.
fn rv_kernels() -> impl Iterator<Item = Kernel> {
    tp_rv::corpus::ENTRIES.iter().map(|e| Kernel {
        name: e.name,
        description: e.description,
        frontend: Frontend::Rv64,
        build: e.build,
    })
}

/// Builds all eight synthetic benchmarks at the given size, in the
/// paper's order.
pub fn suite(size: Size) -> Vec<Workload> {
    SYNTH.iter().map(|k| k.build(size)).collect()
}

/// Builds the six-program RV64 suite at the given size, in the corpus's
/// canonical order. Construction runs the full assemble → encode →
/// decode path of the `tp-rv` frontend.
pub fn rv_suite(size: Size) -> Vec<Workload> {
    rv_kernels().map(|k| k.build(size)).collect()
}

/// Every workload of both suites (synthetic first, then rv).
pub fn all_workloads(size: Size) -> Vec<Workload> {
    let mut all = suite(size);
    all.extend(rv_suite(size));
    all
}

/// Error returned by [`by_name`] for a name in neither suite.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownWorkload {
    /// The name that failed to resolve.
    pub name: String,
    /// Every valid workload name, both suites, in canonical order.
    pub available: Vec<&'static str>,
}

impl fmt::Display for UnknownWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown workload `{}` (available: {})", self.name, self.available.join(", "))
    }
}

impl std::error::Error for UnknownWorkload {}

/// The synthetic-suite names, in the paper's order.
pub fn suite_names() -> [&'static str; 8] {
    SYNTH.map(|k| k.name)
}

/// The rv-suite names, in the corpus's canonical order.
pub fn rv_names() -> [&'static str; 6] {
    tp_rv::corpus::ENTRIES.map(|e| e.name)
}

/// The names of both suites without building any program (cheap; used
/// for error messages and CLI listings).
pub fn workload_names() -> Vec<&'static str> {
    suite_names().into_iter().chain(rv_names()).collect()
}

/// Looks up a single workload by name at the given size, across both
/// suites.
///
/// # Errors
///
/// Returns [`UnknownWorkload`] listing every valid name when `name`
/// matches neither suite.
pub fn by_name(name: &str, size: Size) -> Result<Workload, UnknownWorkload> {
    // Resolve the name first, then build only that program.
    SYNTH
        .into_iter()
        .chain(rv_kernels())
        .find(|k| k.name == name)
        .map(|k| k.build(size))
        .ok_or_else(|| UnknownWorkload { name: name.to_string(), available: workload_names() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_isa::func::Machine;

    #[test]
    fn suite_has_eight_benchmarks_in_paper_order() {
        let names: Vec<&str> = suite(Size::Tiny).iter().map(|w| w.name).collect();
        assert_eq!(names, vec!["compress", "gcc", "go", "jpeg", "li", "m88ksim", "perl", "vortex"]);
    }

    #[test]
    fn all_workloads_halt_at_every_size() {
        for size in [Size::Tiny, Size::Small] {
            for w in suite(size) {
                let mut m = Machine::new(&w.program);
                let s = m.run(50_000_000).unwrap_or_else(|e| panic!("{}: {e}", w.name));
                assert!(s.halted, "{} at {size:?}", w.name);
            }
        }
    }

    #[test]
    fn rv_suite_has_six_benchmarks_that_halt() {
        let ws = rv_suite(Size::Tiny);
        let names: Vec<&str> = ws.iter().map(|w| w.name).collect();
        assert_eq!(names, rv_names().to_vec());
        for w in &ws {
            assert_eq!(w.frontend, tp_isa::Frontend::Rv64);
            let mut m = Machine::new(&w.program);
            let s = m.run(50_000_000).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(s.halted, "{}", w.name);
        }
        for w in suite(Size::Tiny) {
            assert_eq!(w.frontend, tp_isa::Frontend::Synth);
        }
    }

    #[test]
    fn all_workloads_concatenates_both_suites() {
        let all = all_workloads(Size::Tiny);
        let names: Vec<&str> = all.iter().map(|w| w.name).collect();
        assert_eq!(names, workload_names());
    }

    #[test]
    fn sizes_scale_dynamic_length() {
        for w_small in suite(Size::Tiny) {
            let w_big = by_name(w_small.name, Size::Small).unwrap();
            let mut a = Machine::new(&w_small.program);
            let mut b = Machine::new(&w_big.program);
            let ra = a.run(50_000_000).unwrap();
            let rb = b.run(50_000_000).unwrap();
            assert!(
                rb.retired > 3 * ra.retired,
                "{}: {} !>> {}",
                w_small.name,
                rb.retired,
                ra.retired
            );
        }
    }

    #[test]
    fn by_name_finds_each_across_both_suites() {
        for name in workload_names() {
            assert_eq!(by_name(name, Size::Tiny).unwrap().name, name);
        }
    }

    #[test]
    fn by_name_equals_the_suite_entry() {
        for size in [Size::Tiny, Size::Small] {
            for w in all_workloads(size) {
                let one = by_name(w.name, size).unwrap();
                assert_eq!(
                    (one.name, one.description, one.frontend),
                    (w.name, w.description, w.frontend)
                );
                assert_eq!(one.program, w.program, "{} at {size:?}", w.name);
            }
        }
    }

    #[test]
    fn by_name_rejects_unknown_listing_available() {
        let e = by_name("spice", Size::Tiny).unwrap_err();
        assert_eq!(e.name, "spice");
        let msg = e.to_string();
        assert!(msg.contains("unknown workload `spice`"), "{msg}");
        assert!(msg.contains("compress") && msg.contains("crc32"), "{msg}");
    }

    #[test]
    fn workloads_are_deterministic() {
        let a = suite(Size::Tiny);
        let b = suite(Size::Tiny);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.program, y.program, "{}", x.name);
        }
    }
}
