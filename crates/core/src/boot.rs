//! Booting a trace processor from a mid-run architectural checkpoint.
//!
//! The sampled-simulation subsystem (`tp-ckpt`) fast-forwards a program
//! functionally, then boots the detailed cycle model at an arbitrary
//! point: [`BootImage`] carries the architectural state to resume from
//! (PC, registers, the memory delta against the program's data image) plus
//! an optional [`WarmBoot`] of
//! predictor/cache structures functionally warmed during the fast-forward,
//! so a detailed measurement interval does not start cold. The inverse
//! direction — [`TraceProcessor::into_warm`](crate::TraceProcessor::into_warm)
//! — hands a finished interval's trained structures back to the
//! fast-forward engine, keeping warming continuous across the whole
//! sampled run.

use std::fmt;

use tp_cache::{DCache, ICache, TraceCache};
use tp_isa::{Pc, Program, Reg, Word};
use tp_predict::{Btb, NextTracePredictor, Ras, TraceHistory};
use tp_trace::Bit;

use crate::config::{ConfigError, TraceProcessorConfig};

/// Warmed frontend structures to install at boot: the branch predictor,
/// return-address stack, next-trace predictor, trace cache, branch
/// information table, and the trace history feeding the predictors.
///
/// Geometry must match the [`TraceProcessorConfig`] the processor is
/// booted with; mismatches are rejected as
/// [`BootError::WarmGeometry`] rather than silently mispredicting.
#[derive(Clone, Debug)]
pub struct WarmBoot {
    /// Warmed conditional/indirect branch predictor.
    pub btb: Btb,
    /// Warmed return address stack.
    pub ras: Ras,
    /// Warmed next-trace predictor.
    pub predictor: NextTracePredictor,
    /// Warmed trace cache.
    pub tcache: TraceCache,
    /// Warmed branch information table (FGCI region analyses).
    pub bit: Bit,
    /// Warmed instruction-cache tag state (construction latency).
    pub icache: ICache,
    /// Warmed data-cache tag state (load/store latency). Booting with the
    /// steady-state working set resident matters as much as warm
    /// predictors: a mid-run interval booted cold re-misses the entire
    /// working set and underestimates IPC.
    pub dcache: DCache,
    /// Trace history as of the checkpoint (seeds both the fetch-side and
    /// retirement-side histories).
    pub history: TraceHistory,
}

impl WarmBoot {
    /// Cold structures sized for `cfg`: the state a fresh
    /// [`TraceProcessor`](crate::TraceProcessor) starts with, and the state
    /// a fast-forward from the program entry starts warming.
    pub fn cold(cfg: &TraceProcessorConfig) -> WarmBoot {
        WarmBoot {
            btb: Btb::new(cfg.btb_entries),
            ras: Ras::new(cfg.ras_depth),
            predictor: NextTracePredictor::new(cfg.predictor),
            tcache: TraceCache::new(cfg.tcache_sets, cfg.tcache_ways),
            bit: Bit::new(cfg.bit_entries, cfg.bit_ways),
            icache: ICache::paper(),
            dcache: DCache::paper(),
            history: TraceHistory::new(cfg.predictor.path_depth),
        }
    }
}

/// A resumable boot state for [`TraceProcessor::from_checkpoint`]
/// (crate::TraceProcessor::from_checkpoint): plain data, produced by the
/// `tp-ckpt` crate's checkpoint decoder (or any other driver).
#[derive(Clone, Debug)]
pub struct BootImage {
    /// Program counter to resume fetching at.
    pub pc: Pc,
    /// Architectural register values.
    pub regs: [Word; Reg::COUNT],
    /// The committed memory as a delta against the program's initial data
    /// image: `(word index, value)` pairs (word index = byte address
    /// `>> 3`), ascending, applied over the data image at boot. Words in
    /// neither read as zero.
    pub mem_delta: Vec<(u64, Word)>,
    /// Instructions retired before the checkpoint (bookkeeping only; the
    /// booted processor's own statistics start at zero).
    pub retired: u64,
    /// Whether the program had already halted (a degenerate checkpoint;
    /// the booted processor retires nothing).
    pub halted: bool,
    /// Functionally warmed frontend structures, if any.
    pub warm: Option<WarmBoot>,
}

impl BootImage {
    /// The boot image of a fresh run: entry PC, zero registers, the
    /// program's initial data image (an empty delta), and no warm state.
    /// Booting from this
    /// is identical to [`TraceProcessor::new`](crate::TraceProcessor::new).
    pub fn fresh(program: &Program) -> BootImage {
        BootImage {
            pc: program.entry(),
            regs: [0; Reg::COUNT],
            mem_delta: Vec::new(),
            retired: 0,
            halted: false,
            warm: None,
        }
    }
}

/// Why a checkpoint boot was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BootError {
    /// The processor configuration itself is inconsistent.
    Config(ConfigError),
    /// The boot PC is outside the program image.
    PcOutOfRange {
        /// The invalid program counter.
        pc: Pc,
    },
    /// A warm structure's geometry does not match the configuration
    /// (the contained message names the structure and both geometries).
    WarmGeometry(String),
}

impl fmt::Display for BootError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BootError::Config(e) => write!(f, "invalid configuration: {e}"),
            BootError::PcOutOfRange { pc } => write!(f, "boot pc {pc} outside the program"),
            BootError::WarmGeometry(msg) => write!(f, "warm-state geometry mismatch: {msg}"),
        }
    }
}

impl std::error::Error for BootError {}

impl From<ConfigError> for BootError {
    fn from(e: ConfigError) -> BootError {
        BootError::Config(e)
    }
}
