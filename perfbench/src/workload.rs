//! The benchmark's workloads: which programs run under which models at
//! which size, and how the workload seed perturbs each program's
//! iteration count.

use tp_core::{CiModel, TraceProcessorConfig};
use tp_isa::{Frontend, Program};
use tp_workloads::Size;

use crate::host::{self, HostProbe, Stopwatch, Stretch};

/// The canonical seed: every program at its preset size, so the detailed
/// cells are exactly the `full` cells of `BENCH_speed.json`. (Seed 7919 is
/// the held-out seed a claimed gain is confirmed on; see the README.)
pub const CANONICAL_SEED: u64 = 0;

/// Iteration-count variants a seed chooses from, per program. Few enough
/// that the sampled-long reference table covers every one of them.
pub const VARIANTS: u32 = 4;

/// Every control-independence model, base first.
const ALL_MODELS: [CiModel; 5] =
    [CiModel::None, CiModel::Ret, CiModel::MlbRet, CiModel::Fg, CiModel::FgMlbRet];

/// Programs that mispredict often: wrong-path dispatch, recovery,
/// re-dispatch and CGCI/FGCI do most of the work.
const BRANCHY: [&str; 4] = ["go", "compress", "qsort", "crc32"];

/// Well-predicted, high-IPC programs: full windows, per-instruction
/// issue/complete/bus/retire work, rare recovery.
const WIDE: [&str; 4] = ["jpeg", "vortex", "m88ksim", "matmul"];

/// Both suites, synthetic first.
const LONG: [&str; 14] = [
    "compress", "gcc", "go", "jpeg", "li", "m88ksim", "perl", "vortex", "crc32", "qsort",
    "dijkstra", "matmul", "strhash", "fsm",
];

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Full detailed runs of the often-mispredicting programs, all models.
    DetailedBranchy,
    /// Full detailed runs of the well-predicted programs, base and FG+MLB-RET.
    DetailedWide,
    /// The long suite through the sampled driver, MLB-RET.
    SampledLong,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::DetailedBranchy, Workload::DetailedWide, Workload::SampledLong];

    /// The registered name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DetailedBranchy => "detailed-branchy",
            Workload::DetailedWide => "detailed-wide",
            Workload::SampledLong => "sampled-long",
        }
    }

    /// Resolves a registered name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether cells run through the sampled driver.
    pub fn is_sampled(self) -> bool {
        self == Workload::SampledLong
    }

    /// The preset size the seed perturbs.
    pub fn size(self) -> Size {
        if self.is_sampled() {
            Size::Long
        } else {
            Size::Full
        }
    }

    /// The workload's programs, in cell order.
    pub fn programs(self) -> &'static [&'static str] {
        match self {
            Workload::DetailedBranchy => &BRANCHY,
            Workload::DetailedWide => &WIDE,
            Workload::SampledLong => &LONG,
        }
    }

    /// The models each program runs under (base first where present).
    pub fn models(self) -> &'static [CiModel] {
        match self {
            Workload::DetailedBranchy => &ALL_MODELS,
            Workload::DetailedWide => &[CiModel::None, CiModel::FgMlbRet],
            Workload::SampledLong => &[CiModel::MlbRet],
        }
    }
}

/// The iteration-count variant `seed` selects for program `name`: 0 at the
/// canonical seed, otherwise a hash of both in `0..VARIANTS`.
pub fn variant(seed: u64, name: &str) -> u32 {
    if seed == CANONICAL_SEED {
        return 0;
    }
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    // splitmix64 finalizer: spreads the low bits the modulus keeps.
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    (h % u64::from(VARIANTS)) as u32
}

/// Iteration count of `variant` at `size`: the preset plus `variant`
/// steps of 1/128 of it (at most +2.3%), small enough that IPC and host
/// throughput barely move between seeds.
pub fn iters(size: Size, variant: u32) -> u32 {
    let n = size.iters();
    n + variant * (n / 128)
}

/// Which frontend builds `name`.
pub fn frontend(name: &str) -> Frontend {
    if tp_workloads::rv_names().contains(&name) {
        Frontend::Rv64
    } else {
        Frontend::Synth
    }
}

/// Builds program `name` with `iters` iterations through its public
/// builder (the rv programs take the assemble → encode → decode path).
///
/// # Panics
///
/// Panics on a name outside both suites.
pub fn build(name: &str, iters: u32) -> Program {
    use tp_rv::corpus;
    use tp_workloads as w;
    match name {
        "compress" => w::compress::build(iters),
        "gcc" => w::gcc::build(iters),
        "go" => w::go::build(iters),
        "jpeg" => w::jpeg::build(iters),
        "li" => w::li::build(iters),
        "m88ksim" => w::m88ksim::build(iters),
        "perl" => w::perl::build(iters),
        "vortex" => w::vortex::build(iters),
        "crc32" => corpus::crc32(iters),
        "qsort" => corpus::qsort(iters),
        "dijkstra" => corpus::dijkstra(iters),
        "matmul" => corpus::matmul(iters),
        "strhash" => corpus::strhash(iters),
        "fsm" => corpus::fsm(iters),
        _ => panic!("unknown program `{name}`"),
    }
}

/// One built program of a workload.
pub struct Built {
    /// Program name.
    pub name: &'static str,
    /// Iteration count it was built with.
    pub iters: u32,
    /// Producing frontend.
    pub frontend: Frontend,
    /// The program.
    pub program: Program,
}

/// One `(program, model)` cell.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Index into [`Setup::programs`].
    pub prog: usize,
    /// Control-independence model.
    pub model: CiModel,
}

/// Everything the timed region needs, built before it.
pub struct Setup {
    /// The workload.
    pub workload: Workload,
    /// Built programs, in workload order.
    pub programs: Vec<Built>,
    /// `TraceProcessorConfig::paper` per model, in workload order.
    pub configs: Vec<TraceProcessorConfig>,
    /// Cells in run order (program-major).
    pub cells: Vec<Cell>,
    /// One timed stretch per set-up repetition.
    pub build_times: Vec<Stretch>,
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 51;

impl Setup {
    /// Builds the workload's programs and configs [`SETUP_REPS`] times,
    /// timing each repetition, and keeps the last.
    pub fn build(workload: Workload, seed: u64, probe: &mut HostProbe) -> Setup {
        let mut sw = Stopwatch::new(probe);
        let mut last = None;
        for _ in 0..SETUP_REPS {
            last = Some(sw.time(|| {
                let programs: Vec<Built> = workload
                    .programs()
                    .iter()
                    .map(|&name| {
                        let iters = iters(workload.size(), variant(seed, name));
                        Built { name, iters, frontend: frontend(name), program: build(name, iters) }
                    })
                    .collect();
                let configs: Vec<TraceProcessorConfig> =
                    workload.models().iter().map(|&m| TraceProcessorConfig::paper(m)).collect();
                (programs, configs)
            }));
            sw.cut();
        }
        let build_times = sw.finish();
        let (programs, configs) = last.expect("SETUP_REPS > 0");
        let cells = (0..programs.len())
            .flat_map(|prog| workload.models().iter().map(move |&model| Cell { prog, model }))
            .collect();
        Setup { workload, programs, configs, cells, build_times }
    }

    /// Median corrected seconds of one set-up repetition (see [`host`]).
    pub fn setup_secs(&self, quiet: f64) -> f64 {
        let secs: Vec<f64> = self.build_times.iter().map(|s| host::total(&[*s], quiet).1).collect();
        crate::median(&secs)
    }

    /// The config of `cell`'s model.
    pub fn config(&self, cell: Cell) -> &TraceProcessorConfig {
        let i = self.workload.models().iter().position(|&m| m == cell.model).expect("model");
        &self.configs[i]
    }

    /// `program/model` label of `cell`.
    pub fn label(&self, cell: Cell) -> String {
        format!("{}/{}", self.programs[cell.prog].name, cell.model.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_seed_gives_preset_sizes() {
        for w in Workload::ALL {
            for name in w.programs() {
                assert_eq!(iters(w.size(), variant(CANONICAL_SEED, name)), w.size().iters());
            }
        }
    }

    #[test]
    fn seeds_cover_every_variant() {
        let mut seen = [false; VARIANTS as usize];
        for seed in 1..64 {
            seen[variant(seed, "go") as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn every_program_builds_and_names_resolve() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            for name in w.programs() {
                assert_eq!(build(name, 60).name(), *name);
            }
        }
    }
}
