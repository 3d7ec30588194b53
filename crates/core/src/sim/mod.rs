//! The cycle-level trace processor simulator.
//!
//! See the crate-level docs for the big picture. The simulator advances one
//! cycle at a time through seven phases, each implemented in its own
//! submodule (one file per pipeline stage):
//!
//! 1. [`complete`] — finish in-flight instructions, publish values, verify
//!    branch outcomes and indirect targets (registering faults);
//! 2. [`retire`] — commit the head trace when every slot has completed;
//! 3. [`recovery`] — start/apply misprediction recoveries (oldest first),
//!    including FGCI/CGCI preservation decisions and squashes;
//! 4. [`fetch`] — predict the next trace, probe the trace cache, construct
//!    missing traces through the instruction cache;
//! 5. [`dispatch`] — rename and allocate one trace per cycle to a PE (or run
//!    one step of a re-dispatch pass — the dispatch bus is shared; the pass
//!    itself lives in [`redispatch`]);
//! 6. [`issue`] — select up to four ready instructions per PE and begin
//!    execution (values are computed here: the simulator is
//!    execution-driven, wrong paths execute for real);
//! 7. [`buses`] — arbitrate the shared cache buses (ARB/data cache access,
//!    store snooping) and global result buses (inter-PE value bypass).
//!
//! This module owns [`TraceProcessor`], its public API ([`RunResult`],
//! [`SimError`]), all cross-stage bookkeeping state, and the per-cycle
//! [`CycleCtx`] handed to each stage by [`TraceProcessor::step_cycle`].

mod buses;
mod complete;
mod dispatch;
mod fetch;
mod issue;
mod recovery;
mod redispatch;
mod retire;

#[cfg(test)]
mod tests;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::sync::Arc;

use tp_cache::{Arb, DCache, ICache, SeqHandle, TraceCache};
use tp_cfg::{CfgAnalysis, ReconvClass};
use tp_events::{Category, Event, EventBus, EventSink};
use tp_isa::func::{ArchState, Machine};
use tp_isa::fxhash::FxHashMap;
use tp_isa::mem::PagedMem;
use tp_isa::{Addr, Pc, Program, Reg, Word};
use tp_metrics::{ScopedStageTimer, Stage, StageProfiler};
use tp_predict::{Btb, NextTracePredictor, Ras, TraceHistory, TracePredictorStats};
use tp_stats::attr::{AttrKey, RecoveryAttribution, RecoveryOutcome};
use tp_trace::{Bit, EndReason, OperandRef, Selector, Trace};

use crate::boot::{BootError, BootImage, WarmBoot};
use crate::config::TraceProcessorConfig;
use crate::pe::{FetchSource, Pe, Slot, SlotState};
use crate::pe_list::PeList;
use crate::physreg::{PhysRegFile, PhysRegId, RenameMap};
use crate::stats::SimStats;

/// Errors terminating a simulation abnormally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// No instruction retired for the configured number of cycles.
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Human-readable window dump.
        detail: String,
    },
    /// Committed state diverged from the functional oracle
    /// (only with [`TraceProcessorConfig::verify_with_oracle`]).
    OracleMismatch {
        /// Cycle of the divergence.
        cycle: u64,
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { cycle, detail } => {
                write!(f, "deadlock at cycle {cycle}: {detail}")
            }
            SimError::OracleMismatch { cycle, detail } => {
                write!(f, "oracle mismatch at cycle {cycle}: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Result of [`TraceProcessor::run`].
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Whether the program executed its `Halt`.
    pub halted: bool,
    /// Statistics at the end of the run.
    pub stats: SimStats,
    /// The misprediction outcome-attribution ledger (observation-only).
    pub attribution: RecoveryAttribution,
    /// Next-trace predictor statistics (component hits, index pollution).
    pub predictor: TracePredictorStats,
}

/// Per-cycle context handed to every pipeline stage by
/// [`TraceProcessor::step_cycle`]. The simulated clock only advances
/// between cycles, so stages read the cycle number from here rather than
/// re-deriving it from mutable simulator state.
#[derive(Clone, Copy, Debug)]
struct CycleCtx {
    /// The current cycle.
    now: u64,
}

/// What PC the frontend expects to fetch next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ExpectedNext {
    /// Certain: a static fall-through or a resolved indirect target. A
    /// next-trace prediction that contradicts it is discarded.
    Known(Pc),
    /// A RAS/BTB guess after an unresolved indirect transfer. Used as the
    /// fallback sequencing point, but the next-trace predictor wins when it
    /// has an opinion (predicting through returns is its whole point).
    Predicted(Pc),
    /// Unknown until recovery or an indirect resolution redirects fetch.
    Stalled,
}

/// Frontend mode: normal tail dispatch, or CGCI insertion before a
/// preserved control-independent trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FetchMode {
    Normal,
    CgciInsert { before: usize, before_gen: u64, reconv_start: Pc, inserted: usize },
}

/// A trace fetched but not yet dispatched (an outstanding trace buffer).
#[derive(Clone, Debug)]
struct Pending {
    trace: Arc<Trace>,
    ready_at: u64,
    hist_before: TraceHistory,
    source: FetchSource,
}

/// Recovery plan decided at fault detection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RecoveryPlan {
    Fgci,
    Cgci,
    Full,
}

/// An in-progress branch-misprediction recovery.
#[derive(Clone, Debug)]
struct Recovery {
    pe: usize,
    gen: u64,
    slot: usize,
    repaired: Arc<Trace>,
    ready_at: u64,
    plan: RecoveryPlan,
    /// Ledger coordinate of the triggering misprediction.
    attr: AttrKey,
    /// Detection cycle (ledger occupancy accounting).
    started_at: u64,
}

/// An unresolved CGCI attempt awaiting its ledger outcome: resolved as
/// `CgciReconverged` when fetch detects re-convergence, or as `CgciFailed`
/// whenever the insertion mode is torn down any other way (window
/// pressure, preserved trace lost, preemption by another recovery).
#[derive(Clone, Copy, Debug)]
struct CgciPending {
    /// Ledger coordinate; its outcome field is provisional.
    attr: AttrKey,
    /// `(pe, slot, pc)` of the faulting branch, to back-annotate the
    /// slot's attribution when the attempt resolves.
    fault: (usize, usize, Pc),
    /// Dispatch cycle of the faulting trace: generations are bumped by
    /// every repair, but `(pe, dispatched_at)` uniquely identifies the
    /// trace *instance* — without it, a freed-and-refilled PE holding the
    /// same trace shape would be mis-annotated.
    fault_dispatched_at: u64,
    /// Cycle the attempt started (occupancy accounting).
    started_at: u64,
    /// Start PC of the detected re-convergent trace, reported in the
    /// closing event so observers can judge the detection against static
    /// CFG facts.
    reconv_pc: Pc,
    /// Traces squashed on behalf of this attempt so far.
    squashed: u64,
    /// The faulting branch already retired and was counted under the
    /// provisional outcome; resolution must migrate that count if the
    /// final outcome differs.
    retired_provisionally: bool,
}

/// A re-dispatch pass over preserved (control independent) traces.
#[derive(Clone, Debug)]
struct RedispatchPass {
    queue: VecDeque<usize>,
    rolling: TraceHistory,
    origin: &'static str,
    /// Ledger coordinate charged for each re-dispatched trace.
    attr: Option<AttrKey>,
}

#[derive(Clone, Copy, Debug)]
struct BusReq {
    pe: usize,
    gen: u64,
    slot: usize,
    since: u64,
}

/// A `(pe, slot, gen)` reference into the window packed into one word:
/// `pe << 56 | slot << 48 | gen`, with the PE's generation counter in the
/// low 48 bits. References are validated against the PE's current
/// generation before use (stale entries are dropped lazily). The packing
/// orders exactly like the `(pe, slot, gen)` tuple, which the completion
/// heap's tie-breaking relies on. `num_pes` is at most
/// [`crate::config::MAX_PES`] and traces hold at most 256 slots, so both
/// indices fit a byte; 2^48 generations outlast any run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct SlotRef(u64);

impl SlotRef {
    const GEN_BITS: u32 = 48;
    const GEN_MASK: u64 = (1 << Self::GEN_BITS) - 1;

    fn new(pe: usize, slot: usize, gen: u64) -> SlotRef {
        debug_assert!(pe < 256 && slot < 256 && gen <= Self::GEN_MASK, "{pe} {slot} {gen}");
        SlotRef((pe as u64) << 56 | (slot as u64) << Self::GEN_BITS | gen & Self::GEN_MASK)
    }

    fn pe(self) -> usize {
        (self.0 >> 56) as usize
    }

    fn slot(self) -> usize {
        (self.0 >> Self::GEN_BITS & 0xff) as usize
    }

    fn gen(self) -> u64 {
        self.0 & Self::GEN_MASK
    }

    /// The referenced slot, if its PE is occupied under the referenced
    /// generation and still holds that many slots.
    fn live(self, pes: &[Pe]) -> Option<&Slot> {
        let p = &pes[self.pe()];
        if p.occupied && p.gen & Self::GEN_MASK == self.gen() {
            p.slots.get(self.slot())
        } else {
            None
        }
    }
}

/// Event-driven wakeup/issue index.
///
/// The paper's hardware evaluates every instruction slot of every PE each
/// cycle; simulating that literally (rescanning 16 PEs x 32 slots) makes
/// the simulator's wall-clock grow with window size even when almost
/// nothing can make progress. This index inverts control: producers *push*
/// events to the consumers that care, so each per-cycle stage touches only
/// the slots that can actually act this cycle.
///
/// # Invariants
///
/// Kept coherent by the slot-lifecycle hooks ([`TraceProcessor::index_enqueue`],
/// [`TraceProcessor::wake_waiters`], [`TraceProcessor::note_inflight`],
/// [`TraceProcessor::note_load_sampled`], [`TraceProcessor::mark_reissue_slot`])
/// and checked wholesale against a brute-force window rescan by
/// [`TraceProcessor::assert_event_index_coherent`]:
///
/// 1. **Ready bits.** `ready[pe]` has bit `slot` set *iff* the slot is in
///    state [`SlotState::Waiting`] and every source physical register has
///    been produced (`PhysReg::ready`). Time gating (`not_before`,
///    local/global visibility cycles) is deliberately *not* part of the
///    bit: the issue stage re-polls those cheap comparisons, because
///    global visibility can move (result-bus re-arm sets it to `u64::MAX`
///    until a bus is granted). Bits for unoccupied PEs are zero.
/// 2. **Waiters.** A `Waiting` slot whose bit is clear is registered in
///    `waiters[p]` (under its PE's current generation) for *every* source
///    `p` that is not yet produced. Production is monotone per register
///    *incarnation* (from allocation until the register is freed), so
///    firing `p` can only shrink the unproduced set; the entry for `p` is
///    consumed at fire time while registrations on the remaining
///    unproduced sources keep the slot reachable. A register's list is
///    cleared when the register is freed, so a recycled id starts with no
///    subscribers. Stale entries (gen mismatch, slot no longer `Waiting`)
///    are dropped at fire time, or pruned when a push finds the list at
///    capacity; the transition back into `Waiting` always re-enqueues.
/// 3. **Completions.** Every slot in `Executing`/`MemAccess { done_at }`
///    has a `(done_at, pe, slot, gen)` entry in `completions`. Entries are
///    popped when due and validated (generation *and* exact `done_at`)
///    before completing; `replace_trace` re-enqueues surviving in-flight
///    prefix slots under the bumped generation.
/// 4. **Sampled loads.** Every load slot with `mem_addr = Some(a)` has an
///    entry in `loads_by_word[a >> 3]` under its current generation, so
///    store/undo snooping visits only loads on the snooped word instead of
///    rescanning the window. A reissued load that moved words re-registers
///    under the new word; the old entry dies on the word check.
///
/// Every entry names its slot with a one-word [`SlotRef`]
/// (`pe << 56 | slot << 48 | gen`, a 48-bit generation), which orders
/// like the `(pe, slot, gen)` tuple, so completion ties pop in the legacy
/// physical-index order.
///
/// Two further window facts are kept up to date as events happen, so no
/// stage rescans the window to recover them, and are checked by the same
/// cross-check:
///
/// 5. **Fault masks.** Each occupied PE's mask ([`Pe::faults`]) has bit
///    `i` set *iff* `slots[i].fault` is `Some`. Every fault write goes
///    through [`Pe::set_fault`]; `replace_trace` rebuilds the mask once
///    after it moves the slots, and dispatch and squash reset it.
///    Recovery's oldest-fault search is then one word test per PE.
/// 6. **Binding.** Every occupied slot's `LiveIn(r)` operand is bound to
///    its PE's `map_before[r]` (`r0` to the zero register). Dispatch,
///    `replace_trace`, the re-dispatch pass and the head re-ground each
///    establish it. It makes the head re-ground exact on its fast path: a
///    head whose `map_before` agrees with `retired_map` on every live-in
///    has nothing to rebind.
///
/// All structures tolerate stale entries (validation is cheap and local);
/// what they must never do is *lose* a live slot — that turns into a
/// deadlock, which the invariant checker and the golden corpus guard.
struct WakeupIndex {
    /// Per-PE bitmask of issue candidates (invariant 1). Trace length is
    /// bounded at 32 by selection, so a `u64` per PE always suffices.
    ready: Vec<u64>,
    /// Per-physical-register wait lists, indexed by register id
    /// (invariant 2).
    waiters: Vec<Vec<SlotRef>>,
    /// Min-heap of `(done_at, slot)` completion events (invariant 3).
    /// Ties pop in `(pe, slot, gen)` order, matching the legacy
    /// physical-index scan order.
    completions: BinaryHeap<Reverse<(u64, SlotRef)>>,
    /// Loads that sampled memory, indexed by word address (invariant 4).
    loads_by_word: FxHashMap<Addr, Vec<SlotRef>>,
}

/// Minimum load-registry size before an amortized sweep is considered
/// (comfortably above the live window's worst case of `16 PEs x 32 slots`).
const GC_FLOOR: usize = 4096;

/// Whether a reader registration on `preg` is still live: the slot exists
/// under the registered generation and still reads `preg`. The keep
/// predicate of [`TraceProcessor::propagate_value_change`] and of
/// reader-list pruning.
fn reader_live(pes: &[Pe], r: SlotRef, preg: PhysRegId) -> bool {
    r.live(pes).is_some_and(|s| s.srcs.contains(&Some(preg)))
}

/// Whether a wait-list subscription on `preg` can still wake anything: a
/// live reader ([`reader_live`]) that is still `Waiting`.
fn waiter_live(pes: &[Pe], r: SlotRef, preg: PhysRegId) -> bool {
    r.live(pes).is_some_and(|s| s.state == SlotState::Waiting && s.srcs.contains(&Some(preg)))
}

/// Appends `entry` to `preg`'s list in a dense per-register table. A push
/// that finds the list at capacity first prunes it in place with `keep`
/// (and still grows it if that leaves it over half full), so a register
/// that stays live for a whole run, such as an untouched `retired_map`
/// entry, cannot collect dead wrong-path subscriptions without bound. The
/// pruned entries are exactly those the list's consumer would skip.
fn push_pruned(
    lists: &mut Vec<Vec<SlotRef>>,
    preg: PhysRegId,
    entry: SlotRef,
    keep: impl FnMut(&SlotRef) -> bool,
) {
    if lists.len() <= preg.index() {
        lists.resize_with(preg.index() + 1, Vec::new);
    }
    let list = &mut lists[preg.index()];
    if list.len() == list.capacity() {
        list.retain(keep);
        if list.len() > list.capacity() / 2 {
            list.reserve(list.len());
        }
    }
    list.push(entry);
}

/// Every physical register the simulator can still name (the roots listed
/// in [`crate::physreg`], except the zero register, which the file keeps
/// itself).
fn preg_roots<'a>(pes: &'a [Pe], maps: [&'a RenameMap; 2]) -> impl Iterator<Item = PhysRegId> + 'a {
    let pe_maps = pes.iter().flat_map(|p| p.map_before.iter().chain(&p.map_after));
    let slots = pes
        .iter()
        .filter(|p| p.occupied)
        .flat_map(|p| &p.slots)
        .flat_map(|s| s.srcs.iter().flatten().chain(&s.dest));
    maps.into_iter().flatten().chain(pe_maps).chain(slots).copied()
}

impl WakeupIndex {
    fn new(num_pes: usize) -> WakeupIndex {
        WakeupIndex {
            ready: vec![0; num_pes],
            waiters: Vec::new(),
            completions: BinaryHeap::new(),
            loads_by_word: FxHashMap::default(),
        }
    }
}

/// The trace processor simulator.
///
/// See the [crate-level example](crate) for typical use.
pub struct TraceProcessor<'p> {
    program: &'p Program,
    cfg: TraceProcessorConfig,
    // Substrates.
    selector: Selector,
    bit: Bit,
    btb: Btb,
    ras: Ras,
    predictor: NextTracePredictor,
    tcache: TraceCache,
    icache: ICache,
    dcache: DCache,
    arb: Arb,
    // Window.
    pes: Vec<Pe>,
    list: PeList,
    pregs: PhysRegFile,
    /// Per-physical-register reader lists, indexed by register id: the
    /// slots to reissue when the register's value changes. Cleared when
    /// the register is freed: a re-dispatched slot keeps its generation,
    /// so a stale entry could otherwise become valid again against a
    /// recycled id.
    readers: Vec<Vec<SlotRef>>,
    current_map: RenameMap,
    /// Architectural rename map of *retired* state: the physical register
    /// holding each architectural register's committed value.
    retired_map: RenameMap,
    // Frontend.
    fetch_hist: TraceHistory,
    retire_hist: TraceHistory,
    fetch_queue: VecDeque<Pending>,
    expected: ExpectedNext,
    mode: FetchMode,
    construction_busy_until: u64,
    recovery: Option<Recovery>,
    /// The unresolved CGCI attempt backing the current `CgciInsert` mode.
    cgci_pending: Option<CgciPending>,
    redispatch: Option<RedispatchPass>,
    // Buses.
    cache_bus_queue: VecDeque<BusReq>,
    result_bus_queue: VecDeque<BusReq>,
    /// Earliest cycle at which any queued cache-bus request could be
    /// granted; the arbiter pass is skipped entirely while `now` is below
    /// it. Maintained by [`Self::push_cache_req`] and the grant pass.
    cache_bus_next_due: u64,
    /// Same, for the global result buses.
    result_bus_next_due: u64,
    // Event-driven wakeup/issue index (see [`WakeupIndex`]).
    wakeup: WakeupIndex,
    /// Live entry count and doubling threshold for the amortized sweep of
    /// the load registry (`loads_by_word`, keyed by word address). Loads
    /// of squashed traces stay registered until a snoop visits their word,
    /// so without collection the registry grows with *dispatched* loads.
    /// The sweep drops exactly the entries validation would ignore anyway,
    /// so collection is behaviour-invisible; the threshold doubles after
    /// each sweep for O(1) amortized cost. (The per-register lists need no
    /// sweep: they are pruned at capacity and cleared when their register
    /// is freed.)
    load_count: usize,
    loads_gc_at: usize,
    // Reusable scratch buffers (avoid steady-state allocation).
    /// Preserved trace-repair suffix (`replace_trace`).
    scratch_slots: Vec<Slot>,
    scratch_order: Vec<usize>,
    scratch_due: Vec<(SlotRef, u64)>,
    scratch_grants: Vec<u32>,
    /// Cached `TP_PARANOID` environment flag (reading the environment once
    /// per stage per cycle is measurable on the hot path).
    paranoid: bool,
    // Architectural state.
    arch_regs: [Word; Reg::COUNT],
    oracle: Option<Machine<'p>>,
    /// Static post-dominator re-convergence oracle
    /// ([`TraceProcessorConfig::cfg_oracle`] or `TP_CFG_ORACLE`).
    /// Read-only with respect to model behaviour: it observes CGCI
    /// attempts, it never steers them.
    reconv_oracle: Option<Box<CfgAnalysis>>,
    /// First unclassifiable detection, surfaced from `step_cycle` as
    /// [`SimError::OracleMismatch`] (stages themselves return `()`).
    reconv_oracle_violation: Option<String>,
    /// CGCI detections per [`ReconvClass`] (index order of
    /// [`ReconvClass::ALL`]). Kept out of [`SimStats`] so golden
    /// statistics rows are byte-identical with the oracle on or off.
    reconv_oracle_counts: [u64; ReconvClass::ALL.len()],
    // Time.
    now: u64,
    last_retire_cycle: u64,
    halted: bool,
    /// The PC following the last retired instruction — the architectural
    /// frontier a functional machine would resume from (checkpoint capture
    /// between sampled intervals).
    retired_next_pc: Pc,
    /// The architectural position booted from: resume PC and instructions
    /// retired before boot ([`TraceProcessor::boot_frontier`]).
    boot_frontier: (Pc, u64),
    stats: SimStats,
    /// The misprediction outcome-attribution ledger. Observation-only:
    /// nothing in the simulator reads it back.
    attribution: RecoveryAttribution,
    /// Retired mispredicted branches with provenance
    /// ([`TraceProcessorConfig::log_mispredicts`]).
    misp_log: Vec<MispredictRecord>,
    /// The structured event bus ([`TraceProcessor::attach_event_sink`]).
    /// Strictly observation-only: every emission site is gated on the
    /// bus's cached category mask and nothing in the simulator reads the
    /// bus back, so runs with and without sinks are cycle-identical.
    events: EventBus,
    /// Host wall-time profiler for the pipeline-stage modules
    /// ([`TraceProcessor::attach_stage_profiler`]). `None` (the default)
    /// costs one discriminant test per cycle; attached, each stage call
    /// is wrapped in a scoped timer. Host-side only — simulated behaviour
    /// is identical either way.
    profiler: Option<Box<StageProfiler>>,
}

/// One retired mispredicted branch, with the provenance of its (wrong)
/// embedded prediction ([`TraceProcessor::mispredict_log`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MispredictRecord {
    /// The branch's PC.
    pub pc: Pc,
    /// Index of the branch among its trace's conditional branches.
    pub branch_idx: u8,
    /// Number of branches the trace's id embeds (a `branch_idx` at or
    /// beyond this depth was predicted by the construction fallback, not
    /// the next-trace prediction).
    pub id_branches: u8,
    /// How the trace entered the window.
    pub source: FetchSource,
}

impl<'p> TraceProcessor<'p> {
    /// Creates a simulator for `program`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`TraceProcessorConfig::validate`]).
    pub fn new(program: &'p Program, cfg: TraceProcessorConfig) -> TraceProcessor<'p> {
        cfg.validate().unwrap_or_else(|e| panic!("invalid configuration: {e}"));
        Self::construct(program, cfg, BootImage::fresh(program))
    }

    /// Boots a simulator from a mid-run checkpoint: architectural state
    /// (PC, registers, memory) from the image, optionally with functionally
    /// warmed predictor/cache structures (see [`BootImage`]). The booted
    /// processor's statistics and cycle count start at zero, so a
    /// subsequent [`TraceProcessor::run`] measures the interval alone.
    ///
    /// # Errors
    ///
    /// Returns [`BootError`] when the configuration is invalid, the boot PC
    /// is outside the program, or a warm structure's geometry does not
    /// match the configuration.
    pub fn from_checkpoint(
        program: &'p Program,
        cfg: TraceProcessorConfig,
        boot: BootImage,
    ) -> Result<TraceProcessor<'p>, BootError> {
        cfg.validate()?;
        if !boot.halted && !program.contains(boot.pc) {
            return Err(BootError::PcOutOfRange { pc: boot.pc });
        }
        if let Some(w) = &boot.warm {
            let mismatch = |what: &str, got: String, want: String| {
                Err(BootError::WarmGeometry(format!("{what}: checkpoint {got}, config {want}")))
            };
            if w.btb.entries() != cfg.btb_entries {
                return mismatch("btb", w.btb.entries().to_string(), cfg.btb_entries.to_string());
            }
            if w.ras.capacity() != cfg.ras_depth {
                return mismatch("ras", w.ras.capacity().to_string(), cfg.ras_depth.to_string());
            }
            if w.predictor.config() != cfg.predictor {
                return mismatch(
                    "next-trace predictor",
                    format!("{:?}", w.predictor.config()),
                    format!("{:?}", cfg.predictor),
                );
            }
            if w.tcache.geometry() != (cfg.tcache_sets, cfg.tcache_ways) {
                return mismatch(
                    "trace cache",
                    format!("{:?}", w.tcache.geometry()),
                    format!("{:?}", (cfg.tcache_sets, cfg.tcache_ways)),
                );
            }
            if w.history.depth() != cfg.predictor.path_depth {
                return mismatch(
                    "trace history",
                    w.history.depth().to_string(),
                    cfg.predictor.path_depth.to_string(),
                );
            }
        }
        Ok(Self::construct(program, cfg, boot))
    }

    /// Shared constructor behind [`TraceProcessor::new`] (a fresh boot
    /// image) and [`TraceProcessor::from_checkpoint`] (a validated one).
    fn construct(
        program: &'p Program,
        cfg: TraceProcessorConfig,
        boot: BootImage,
    ) -> TraceProcessor<'p> {
        let mut pregs = PhysRegFile::new();
        // Architectural registers start as ready physical registers holding
        // the boot image's values (all zero for a fresh run).
        let mut arch_map = [PhysRegId::ZERO; Reg::COUNT];
        for r in Reg::all().skip(1) {
            arch_map[r.index()] = pregs.alloc_ready(boot.regs[r.index()]);
        }
        let (btb, ras, predictor, tcache, bit, icache, dcache, hist) = match boot.warm {
            Some(w) => (w.btb, w.ras, w.predictor, w.tcache, w.bit, w.icache, w.dcache, w.history),
            None => (
                Btb::new(cfg.btb_entries),
                Ras::new(cfg.ras_depth),
                NextTracePredictor::new(cfg.predictor),
                TraceCache::new(cfg.tcache_sets, cfg.tcache_ways),
                Bit::new(cfg.bit_entries, cfg.bit_ways),
                ICache::paper(),
                DCache::paper(),
                TraceHistory::new(cfg.predictor.path_depth),
            ),
        };
        let pes = (0..cfg.num_pes).map(|_| Pe::empty(hist.clone())).collect();
        // Committed memory is the program's data image with the boot delta
        // on top; the delta is not "committed since boot", so it is unmarked.
        let mut mem = PagedMem::from_program(program);
        for &(word, value) in &boot.mem_delta {
            mem.set(word, value, false);
        }
        let oracle = cfg.verify_with_oracle.then(|| {
            let mut m = Machine::new(program);
            let delta = boot.mem_delta.iter().copied();
            m.apply_delta(boot.regs, boot.pc, boot.retired, boot.halted, delta);
            m
        });
        TraceProcessor {
            program,
            selector: Selector::new(cfg.selection),
            bit,
            btb,
            ras,
            predictor,
            tcache,
            icache,
            dcache,
            arb: Arb::with_backing(mem),
            pes,
            list: PeList::new(cfg.num_pes),
            pregs,
            readers: Vec::new(),
            current_map: arch_map,
            retired_map: arch_map,
            fetch_hist: hist.clone(),
            retire_hist: hist,
            fetch_queue: VecDeque::new(),
            expected: if boot.halted {
                ExpectedNext::Stalled
            } else {
                ExpectedNext::Known(boot.pc)
            },
            mode: FetchMode::Normal,
            construction_busy_until: 0,
            recovery: None,
            cgci_pending: None,
            redispatch: None,
            cache_bus_queue: VecDeque::new(),
            result_bus_queue: VecDeque::new(),
            cache_bus_next_due: u64::MAX,
            result_bus_next_due: u64::MAX,
            wakeup: WakeupIndex::new(cfg.num_pes),
            load_count: 0,
            loads_gc_at: GC_FLOOR,
            scratch_slots: Vec::new(),
            scratch_order: Vec::new(),
            scratch_due: Vec::new(),
            scratch_grants: Vec::new(),
            paranoid: std::env::var("TP_PARANOID").is_ok(),
            arch_regs: boot.regs,
            oracle,
            reconv_oracle: (cfg.cfg_oracle || std::env::var("TP_CFG_ORACLE").is_ok())
                .then(|| Box::new(CfgAnalysis::build(program))),
            reconv_oracle_violation: None,
            reconv_oracle_counts: [0; ReconvClass::ALL.len()],
            now: 0,
            last_retire_cycle: 0,
            halted: boot.halted,
            retired_next_pc: boot.pc,
            boot_frontier: (boot.pc, boot.retired),
            stats: SimStats::default(),
            attribution: RecoveryAttribution::new(),
            misp_log: Vec::new(),
            events: EventBus::new(),
            profiler: None,
            cfg,
        }
    }

    /// Attaches a structured-event sink to the simulator's event bus.
    /// Sinks observe only: attaching one has zero effect on simulated
    /// behaviour (golden statistics rows stay byte-identical).
    pub fn attach_event_sink(&mut self, sink: Box<dyn EventSink>) {
        self.events.attach(sink);
    }

    /// Whether any event sink is currently attached.
    pub fn events_attached(&self) -> bool {
        self.events.is_attached()
    }

    /// Detaches and returns the event bus (with its sinks) so captured
    /// data can be rendered. Before handing it back, a synthetic
    /// `TraceSquashed { drained: true }` close is emitted for every trace
    /// still resident in a PE, so each `TraceDispatched` is matched by
    /// exactly one close even when the run ends mid-flight.
    pub fn release_event_bus(&mut self) -> EventBus {
        if self.events.wants(Category::Trace) {
            let resident: Vec<(u8, u32)> = self
                .list
                .iter()
                .filter(|&pe| self.pes[pe].occupied)
                .map(|pe| (pe as u8, self.pes[pe].trace.id().start()))
                .collect();
            for (pe, pc) in resident {
                self.events.emit(self.now, Event::TraceSquashed { pe, pc, drained: true });
            }
        }
        std::mem::take(&mut self.events)
    }

    /// Attaches a host wall-time stage profiler: from the next cycle on,
    /// each pipeline-stage call is timed with a scoped host clock.
    /// Host-side observation only — simulated behaviour and statistics
    /// are identical with or without it. Idempotent: an already-attached
    /// profiler keeps accumulating.
    pub fn attach_stage_profiler(&mut self) {
        if self.profiler.is_none() {
            self.profiler = Some(Box::new(StageProfiler::new()));
        }
    }

    /// The attached stage profiler, if any.
    pub fn stage_profiler(&self) -> Option<&StageProfiler> {
        self.profiler.as_deref()
    }

    /// Detaches and returns the stage profiler (subsequent cycles run
    /// unprofiled).
    pub fn take_stage_profiler(&mut self) -> Option<Box<StageProfiler>> {
        self.profiler.take()
    }

    /// The simulator's configuration.
    pub fn config(&self) -> &TraceProcessorConfig {
        &self.cfg
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The misprediction outcome-attribution ledger accumulated so far.
    pub fn attribution(&self) -> &RecoveryAttribution {
        &self.attribution
    }

    /// Next-trace predictor statistics (component hits, index pollution).
    pub fn predictor_stats(&self) -> TracePredictorStats {
        self.predictor.stats()
    }

    /// Retired mispredicted conditional branches, in retirement order
    /// (empty unless [`TraceProcessorConfig::log_mispredicts`]).
    pub fn mispredict_log(&self) -> &[MispredictRecord] {
        &self.misp_log
    }

    /// CGCI re-convergence detections by static classification (all zero
    /// unless the `tp-cfg` oracle is enabled; see
    /// [`TraceProcessorConfig::cfg_oracle`]).
    pub fn cfg_oracle_counts(&self) -> [(ReconvClass, u64); ReconvClass::ALL.len()] {
        let mut out = [(ReconvClass::Exact, 0); ReconvClass::ALL.len()];
        for (i, &c) in ReconvClass::ALL.iter().enumerate() {
            out[i] = (c, self.reconv_oracle_counts[i]);
        }
        out
    }

    /// Committed architectural state (registers plus memory), normalized for
    /// comparison with [`Machine::arch_state`].
    pub fn arch_state(&self) -> ArchState {
        ArchState { regs: self.arch_regs, mem: self.arb.arch_mem() }
    }

    /// The full committed memory image as `(word index, value)` pairs,
    /// including words holding zero (unlike the normalized
    /// [`TraceProcessor::arch_state`]). This is what a resumed functional
    /// machine must be seeded with: a committed zero over non-zero initial
    /// data is real state.
    pub fn committed_mem_words(&self) -> Vec<(u64, Word)> {
        self.arb.backing_words().collect()
    }

    /// The committed architectural registers (without the memory snapshot
    /// [`TraceProcessor::arch_state`] materializes).
    pub fn arch_regs(&self) -> [Word; Reg::COUNT] {
        self.arch_regs
    }

    /// Every memory word committed since boot, once each with its last
    /// committed value, as ascending `(word index, value)` pairs: the
    /// interval's memory delta against the state it booted from. The cost
    /// scales with the words the interval wrote, not with memory size.
    pub fn committed_since_boot(&self) -> impl Iterator<Item = (u64, Word)> + '_ {
        self.arb.committed_since_boot()
    }

    /// The architectural position this processor booted from: the resume
    /// PC and the instructions retired before boot (zero for a fresh run).
    pub fn boot_frontier(&self) -> (Pc, u64) {
        self.boot_frontier
    }

    /// The program being simulated.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Whether the program's `Halt` has retired.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The retired architectural frontier: the PC following the last
    /// retired instruction and the number of instructions retired since
    /// boot. Together with [`TraceProcessor::arch_state`] this is exactly
    /// the state a functional machine needs to continue the program from
    /// where the detailed interval left off.
    pub fn retired_frontier(&self) -> (Pc, u64) {
        (self.retired_next_pc, self.stats.retired_instrs)
    }

    /// Consumes the processor and hands back its trained frontend
    /// structures, so a fast-forward engine can keep warming where the
    /// detailed interval finished (the inverse of booting with
    /// [`BootImage::warm`]).
    pub fn into_warm(self) -> WarmBoot {
        WarmBoot {
            btb: self.btb,
            ras: self.ras,
            predictor: self.predictor,
            tcache: self.tcache,
            bit: self.bit,
            icache: self.icache,
            dcache: self.dcache,
            history: self.retire_hist,
        }
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Runs until the program halts or `max_instrs` instructions retire.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if no instruction retires for the
    /// configured watchdog window, or [`SimError::OracleMismatch`] when
    /// oracle verification is enabled and committed state diverges.
    pub fn run(&mut self, max_instrs: u64) -> Result<RunResult, SimError> {
        while !self.halted && self.stats.retired_instrs < max_instrs {
            self.step_cycle()?;
            if self.now - self.last_retire_cycle > self.cfg.deadlock_cycles {
                return Err(SimError::Deadlock { cycle: self.now, detail: self.dump_window() });
            }
        }
        Ok(RunResult {
            halted: self.halted,
            stats: self.stats,
            attribution: self.attribution.clone(),
            predictor: self.predictor.stats(),
        })
    }

    /// Runs until `n` *more* instructions retire (or the program halts):
    /// the run-for-N-retired-instructions interval primitive of sampled
    /// execution. Retirement is trace-at-a-time, so the interval may
    /// overshoot by up to one trace; the returned statistics report the
    /// actual count.
    ///
    /// # Errors
    ///
    /// As [`TraceProcessor::run`].
    pub fn run_interval(&mut self, n: u64) -> Result<RunResult, SimError> {
        let target = self.stats.retired_instrs.saturating_add(n);
        self.run(target)
    }

    /// Advances the simulation by one cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OracleMismatch`] under oracle verification.
    pub fn step_cycle(&mut self) -> Result<(), SimError> {
        // Amortized collection of the load registry (behaviour-invisible:
        // only entries that validation would skip are dropped).
        if self.load_count > self.loads_gc_at {
            self.gc_loads();
        }
        // The profiler is taken out for the duration of the stage calls so
        // the scoped timers can hold a shared borrow while the stages
        // borrow the processor mutably; restored on every path out.
        let prof = self.profiler.take();
        let result = self.run_stages(prof.as_deref());
        self.profiler = prof;
        result
    }

    /// The eight pipeline-stage modules of one cycle, each wrapped in a
    /// host stage timer (no-ops when `prof` is `None`).
    fn run_stages(&mut self, prof: Option<&StageProfiler>) -> Result<(), SimError> {
        let ctx = CycleCtx { now: self.now };
        {
            let _t = ScopedStageTimer::new(prof, Stage::Complete);
            self.complete_stage(&ctx);
        }
        self.paranoid_check("complete");
        {
            let _t = ScopedStageTimer::new(prof, Stage::Retire);
            self.retire_stage(&ctx)?;
        }
        self.paranoid_check("retire");
        {
            let _t = ScopedStageTimer::new(prof, Stage::Recovery);
            self.recovery_stage(&ctx);
        }
        self.paranoid_check("recovery");
        if let Some(detail) = self.reconv_oracle_violation.take() {
            return Err(SimError::OracleMismatch { cycle: self.now, detail });
        }
        {
            let _t = ScopedStageTimer::new(prof, Stage::Fetch);
            self.fetch_stage(&ctx);
        }
        self.paranoid_check("fetch");
        self.dispatch_stage(&ctx, prof);
        self.paranoid_check("dispatch");
        {
            let _t = ScopedStageTimer::new(prof, Stage::Issue);
            self.issue_stage(&ctx);
        }
        {
            let _t = ScopedStageTimer::new(prof, Stage::Buses);
            self.bus_stage(&ctx);
        }
        if self.events.wants(Category::Occupancy) {
            self.events.emit(
                ctx.now,
                Event::WindowSample {
                    occupied: self.list.len().min(255) as u8,
                    fetch_queue: self.fetch_queue.len().min(255) as u8,
                },
            );
        }
        self.now += 1;
        self.stats.cycles = self.now;
        Ok(())
    }

    /// Window-wide rename invariant: a trace's `map_before` must never
    /// reference a physical register produced by that trace or any younger
    /// trace. Gated behind `TP_PARANOID` (read once at construction)
    /// because it is O(window^2). Also cross-checks the wakeup index
    /// against a brute-force rescan after every stage, and checks that
    /// every register root names an allocated register (a missed root
    /// would otherwise alias a recycled register silently).
    fn paranoid_check(&self, stage: &str) {
        if !self.paranoid {
            return;
        }
        self.assert_event_index_coherent();
        for preg in preg_roots(&self.pes, [&self.current_map, &self.retired_map]) {
            assert!(
                self.pregs.is_allocated(preg),
                "cycle {} after {stage}: root {preg:?} names a freed physical register\n{}",
                self.now,
                self.dump_window()
            );
        }
        // ARB coherence: every speculative version must belong to a live,
        // in-window store slot that performed at that word. An orphaned
        // version is a use-after-free of memory state: the forwarding key
        // function can only order versions whose owners are still in the
        // window.
        for (word, h) in self.arb.all_versions() {
            let (pe, slot) = ((h.0 >> 8) as usize, (h.0 & 0xff) as usize);
            let owner_ok = self.list.contains(pe)
                && self.pes[pe].occupied
                && slot < self.pes[pe].slots.len()
                && self.pes[pe].slots[slot].store_performed
                && self.pes[pe].slots[slot].mem_addr.map(|a| a >> 3) == Some(word);
            assert!(
                owner_ok,
                "cycle {} after {stage}: ARB version at word {word:#x} owned by pe{pe} slot \
                 {slot} has no live performed store\n{}",
                self.now,
                self.dump_window()
            );
        }
        let order: Vec<usize> = self.list.iter().collect();
        for (qi, &q) in order.iter().enumerate() {
            for r in Reg::all().skip(1) {
                let preg = self.pes[q].map_before[r.index()];
                for &younger in &order[qi..] {
                    for (si, sl) in self.pes[younger].slots.iter().enumerate() {
                        if sl.dest == Some(preg) {
                            panic!(
                                "cycle {} after {stage}: pe{q} map_before[{r}] = {preg:?} \
                                 is produced by pe{younger} slot {si} (not older)\n{}",
                                self.now,
                                self.dump_window()
                            );
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Helpers shared by multiple stages.

    /// Changes the frontend fetch mode. This is the single chokepoint for
    /// leaving (or restarting) `CgciInsert`: any teardown that is not the
    /// explicit success path in fetch re-convergence detection resolves
    /// the pending CGCI attempt as failed in the attribution ledger.
    /// Ledger-only — the mode change itself is exactly `self.mode = mode`.
    fn set_mode(&mut self, mode: FetchMode) {
        if matches!(self.mode, FetchMode::CgciInsert { .. }) {
            if let Some(p) = self.cgci_pending.take() {
                self.resolve_cgci(p, RecoveryOutcome::CgciFailed, 0);
            }
        }
        self.mode = mode;
    }

    /// Resolves a CGCI attempt in the ledger: flushes its accumulated
    /// costs into the `(class, heuristic, outcome)` cell and back-annotates
    /// the faulting slot's attribution when it is still identifiable (the
    /// slot may have been replaced or retired while the attempt ran; the
    /// stored PC validates it). Returns the resolved ledger key.
    fn resolve_cgci(
        &mut self,
        p: CgciPending,
        outcome: RecoveryOutcome,
        preserved: u64,
    ) -> AttrKey {
        let key = (p.attr.0, p.attr.1, outcome);
        // The faulting branch may have retired mid-attempt; its retirement
        // was counted under the provisional outcome and migrates with the
        // resolution.
        if p.retired_provisionally && key != p.attr {
            self.attribution.cell_mut(p.attr).retired -= 1;
            self.attribution.cell_mut(key).retired += 1;
        }
        let cell = self.attribution.cell_mut(key);
        cell.events += 1;
        cell.traces_squashed += p.squashed;
        cell.traces_preserved += preserved;
        cell.recovery_cycles += self.now.saturating_sub(p.started_at);
        // This is the single site charging a CGCI attempt to the ledger,
        // so emitting the close here makes the event-vs-ledger balance
        // exact by construction: closes per (class, heuristic, outcome)
        // equal that cell's `events`.
        if self.events.wants(Category::Cgci) {
            self.events.emit(
                self.now,
                Event::CgciClosed {
                    class: key.0,
                    heuristic: key.1,
                    outcome,
                    squashed: p.squashed as u32,
                    preserved: preserved as u32,
                    branch_pc: p.fault.2,
                    reconv_pc: p.reconv_pc,
                },
            );
        }
        let (pe, slot, pc) = p.fault;
        if self.pes[pe].occupied && self.pes[pe].dispatched_at == p.fault_dispatched_at {
            if let Some(s) = self.pes[pe].slots.get_mut(slot) {
                if s.ti.pc == pc && s.was_mispredicted {
                    s.attr = Some(key);
                }
            }
        }
        key
    }

    /// Emits a head-stall sample when an occupancy sink is listening
    /// (shared by retirement's early-return gates).
    fn emit_head_stall(&mut self, now: u64, pe: usize, reason: tp_events::StallReason) {
        if self.events.wants(Category::Occupancy) {
            self.events.emit(now, Event::HeadStall { pe: pe as u8, reason });
        }
    }

    fn handle(pe: usize, slot: usize) -> SeqHandle {
        SeqHandle(((pe as u64) << 8) | slot as u64)
    }

    /// Logical memory-order key of a sequence handle, derived from the PE
    /// linked list (the paper's physical-to-logical translation). Handles
    /// whose PE has left the window (a retired store that supplied a load's
    /// data, or a squashed store whose undo-triggered reissue has not run
    /// yet) rank as architectural memory — older than everything live.
    fn seq_key(&self, h: SeqHandle) -> u64 {
        let pe = (h.0 >> 8) as usize;
        let slot = h.0 & 0xff;
        if !self.list.contains(pe) {
            return 0;
        }
        // +1 so that key 0 is reserved for "architectural memory".
        ((self.list.logical(pe) + 1) << 8) | slot
    }

    fn dump_window(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = write!(
            s,
            "mode={:?} recovery={:?} expected={:?} queue={} ",
            self.mode,
            self.recovery.as_ref().map(|r| (r.pe, r.slot, r.ready_at)),
            self.expected,
            self.fetch_queue.len()
        );
        for pe in self.list.iter() {
            let p = &self.pes[pe];
            let waiting = p.slots.iter().filter(|s| s.state == SlotState::Waiting).count();
            let done = p.slots.iter().filter(|s| s.state == SlotState::Done).count();
            let _ = write!(
                s,
                "| pe{pe} {} len={} done={done} waiting={waiting} fault={:?} ",
                p.trace.id(),
                p.slots.len(),
                p.first_fault()
            );
            for (i, sl) in p.slots.iter().enumerate() {
                if sl.state != SlotState::Done || sl.pending_reissue {
                    let vals: Vec<(u32, Word, bool)> = sl
                        .srcs
                        .iter()
                        .flatten()
                        .map(|&pp| {
                            let r = self.pregs.get(pp);
                            (pp.0, r.value, r.ready)
                        })
                        .collect();
                    let _ = write!(
                        s,
                        "[slot {i} {:?} state={:?} pr={} nb={} iss={} srcs={vals:?}] ",
                        sl.ti.inst, sl.state, sl.pending_reissue, sl.not_before, sl.issues
                    );
                }
            }
        }
        s
    }

    /// Registers slot `slot` of `pe` (under its current generation) as a
    /// reader of `preg`, for selective reissue on a value change.
    fn register_reader(&mut self, preg: PhysRegId, pe: usize, slot: usize) {
        if preg == PhysRegId::ZERO {
            return;
        }
        let r = SlotRef::new(pe, slot, self.pes[pe].gen);
        let pes = &self.pes;
        push_pruned(&mut self.readers, preg, r, |&r| reader_live(pes, r, preg));
    }

    /// Marks every live consumer of `preg` for selective reissue.
    fn propagate_value_change(&mut self, preg: PhysRegId, not_before: u64) {
        let Some(list) = self.readers.get_mut(preg.index()) else { return };
        let pes = &self.pes;
        list.retain(|&r| reader_live(pes, r, preg));
        self.stats.value_change_marks += list.len() as u64;
        // Marking only touches slot state and the wait lists, never this
        // reader list, so indexing it stays valid across the calls.
        for k in 0..self.readers[preg.index()].len() {
            let r = self.readers[preg.index()][k];
            self.mark_reissue_slot(r.pe(), r.slot(), not_before);
        }
    }

    // ------------------------------------------------------------------
    // Wakeup-index slot-lifecycle hooks (see [`WakeupIndex`] invariants).

    /// Marks a slot for selective reissue *and* keeps the wakeup index
    /// coherent: a slot that *transitioned* into `Waiting` is re-enqueued
    /// so it can be woken (or issued) again. Use this for value-change
    /// reissues whose sources did not move; a reissue caused by a source
    /// *rebind* must use [`Self::rebind_reissue_slot`] instead, because an
    /// already-`Waiting` slot's index membership is keyed on its old
    /// sources. Never call [`Slot::mark_reissue`] directly from the core.
    fn mark_reissue_slot(&mut self, pe: usize, slot: usize, not_before: u64) {
        if self.pes[pe].slots[slot].mark_reissue(not_before) {
            self.index_enqueue(pe, slot);
        }
    }

    /// Rebind-aware reissue hook: marks the slot and *unconditionally*
    /// re-enqueues it while it is `Waiting` — required whenever the slot's
    /// source registers were just rebound (re-dispatch, head re-ground),
    /// since the wait-list subscriptions of an already-`Waiting` slot
    /// cover its old sources only. Slots left in flight (pending reissue)
    /// re-enqueue when their discarded completion arrives.
    fn rebind_reissue_slot(&mut self, pe: usize, slot: usize, not_before: u64) {
        self.stats.rebind_marks += 1;
        let _ = self.pes[pe].slots[slot].mark_reissue(not_before);
        if self.pes[pe].slots[slot].state == SlotState::Waiting {
            self.index_enqueue(pe, slot);
        }
    }

    /// Registers a `Waiting` slot with the wakeup index: sets its ready
    /// bit when every source has been produced, otherwise subscribes it to
    /// each unproduced source's wait list (invariants 1 and 2). Must be
    /// called on every transition into `Waiting` and after every source
    /// rebind of a `Waiting` slot.
    fn index_enqueue(&mut self, pe: usize, slot: usize) {
        if self.paranoid {
            assert_eq!(self.pes[pe].slots[slot].state, SlotState::Waiting);
            assert!(slot < 64, "trace longer than the ready bitmask");
        }
        let r = SlotRef::new(pe, slot, self.pes[pe].gen);
        let srcs = self.pes[pe].slots[slot].srcs;
        let mut all_produced = true;
        for &p in srcs.iter().flatten() {
            if !self.pregs.get(p).ready {
                all_produced = false;
                let pes = &self.pes;
                push_pruned(&mut self.wakeup.waiters, p, r, |&r| waiter_live(pes, r, p));
            }
        }
        if all_produced {
            self.wakeup.ready[pe] |= 1 << slot;
        } else {
            // A rebind can move a previously all-produced slot onto an
            // unproduced source; the stale bit must not survive it.
            self.wakeup.ready[pe] &= !(1u64 << slot);
        }
    }

    /// Fires the wait list of a just-produced physical register: every
    /// still-`Waiting` subscriber whose sources are now all produced gets
    /// its ready bit set. Called exactly once per register, on its first
    /// production (value *changes* go through selective reissue instead).
    fn wake_waiters(&mut self, preg: PhysRegId) {
        let Some(list) = self.wakeup.waiters.get_mut(preg.index()) else { return };
        // Taken out and handed back emptied, keeping its capacity.
        let mut entries = std::mem::take(list);
        for &r in &entries {
            let Some(s) = r.live(&self.pes) else {
                continue; // stale: squashed or replaced
            };
            if s.state != SlotState::Waiting {
                continue; // re-enqueued on its next transition into Waiting
            }
            if s.srcs.iter().flatten().all(|&q| self.pregs.get(q).ready) {
                self.wakeup.ready[r.pe()] |= 1 << r.slot();
            }
            // else: still subscribed to the remaining unproduced source(s).
        }
        entries.clear();
        self.wakeup.waiters[preg.index()] = entries;
    }

    /// Schedules the completion event for a slot that just entered
    /// `Executing`/`MemAccess` with the given `done_at` (invariant 3).
    fn note_inflight(&mut self, pe: usize, slot: usize, done_at: u64) {
        let r = SlotRef::new(pe, slot, self.pes[pe].gen);
        self.wakeup.completions.push(Reverse((done_at, r)));
    }

    /// Indexes a load that sampled memory at `addr` so store/undo snoops
    /// can find it without rescanning the window (invariant 4).
    fn note_load_sampled(&mut self, pe: usize, slot: usize, addr: Addr) {
        let r = SlotRef::new(pe, slot, self.pes[pe].gen);
        let bucket = self.wakeup.loads_by_word.entry(addr >> 3).or_default();
        // A reissued load may sample the same word twice under one
        // generation; keep at most one entry so a snoop reissues (and
        // counts) it exactly once.
        let before = bucket.len();
        bucket.retain(|&e| !(e.pe() == pe && e.slot() == slot));
        self.load_count -= before - bucket.len();
        bucket.push(r);
        self.load_count += 1;
    }

    /// Clears the per-PE ready bits when the PE's slots are discarded
    /// (squash, retire, or re-dispatch of a fresh trace). Generation bumps
    /// invalidate the PE's entries in every other index structure.
    fn index_reset_pe(&mut self, pe: usize) {
        self.wakeup.ready[pe] = 0;
    }

    /// Queues a cache-bus request, keeping the arbiter's fast-path
    /// horizon coherent.
    fn push_cache_req(&mut self, req: BusReq) {
        self.cache_bus_next_due = self.cache_bus_next_due.min(req.since);
        self.cache_bus_queue.push_back(req);
    }

    /// Queues a result-bus request, keeping the arbiter's fast-path
    /// horizon coherent.
    fn push_result_req(&mut self, req: BusReq) {
        self.result_bus_next_due = self.result_bus_next_due.min(req.since);
        self.result_bus_queue.push_back(req);
    }

    /// Makes room in the register file for renaming a trace of `len`
    /// instructions, sweeping when the file has reached its threshold (the
    /// policy of [`crate::physreg`]). Called before the rename starts,
    /// while every live register is rooted. Paranoid runs sweep before
    /// every rename, recycling registers as early as the roots allow, so
    /// a missed root surfaces in short runs too.
    fn reserve_pregs(&mut self, len: usize) {
        if self.pregs.grow_for(len) || self.paranoid {
            self.sweep_pregs();
        }
    }

    /// Reclaims every physical register no root names (the roots of
    /// [`crate::physreg`]), clearing each freed register's reader and wait
    /// lists so a recycled id starts with none. Never called while a
    /// half-renamed trace's registers are unrooted.
    fn sweep_pregs(&mut self) {
        let roots = preg_roots(&self.pes, [&self.current_map, &self.retired_map]);
        let (readers, waiters) = (&mut self.readers, &mut self.wakeup.waiters);
        self.pregs.sweep(roots, |id| {
            for lists in [&mut *readers, &mut *waiters] {
                if let Some(list) = lists.get_mut(id.index()) {
                    list.clear();
                }
            }
        });
    }

    /// Sweeps stale load-registry entries (dead generations and loads
    /// whose reissue moved them to another word).
    fn gc_loads(&mut self) {
        let pes = &self.pes;
        let list = &self.list;
        self.wakeup.loads_by_word.retain(|&word, entries| {
            entries.retain(|&r| {
                list.contains(r.pe())
                    && r.live(pes).is_some_and(|s| s.mem_addr.is_some_and(|a| a >> 3 == word))
            });
            !entries.is_empty()
        });
        self.load_count = self.wakeup.loads_by_word.values().map(Vec::len).sum();
        self.loads_gc_at = GC_FLOOR.max(self.load_count * 2);
    }

    /// Footprint of the wakeup index, for leak diagnostics and tests:
    /// `(waiter entries, registers with waiters, completion events, load
    /// entries)`.
    #[doc(hidden)]
    pub fn index_footprint(&self) -> (usize, usize, usize, usize) {
        (
            self.wakeup.waiters.iter().map(Vec::len).sum(),
            self.wakeup.waiters.iter().filter(|w| !w.is_empty()).count(),
            self.wakeup.completions.len(),
            self.wakeup.loads_by_word.values().map(Vec::len).sum(),
        )
    }

    /// Footprint of the physical register file, for leak diagnostics and
    /// tests: `(capacity, live high-water)`. Capacity counts every register
    /// the file holds, live or free; the high-water is the largest live set
    /// any sweep found (0 before the first sweep).
    #[doc(hidden)]
    pub fn preg_footprint(&self) -> (usize, usize) {
        (self.pregs.len(), self.pregs.live_high_water())
    }

    /// Brute-force cross-check of the wakeup index, the fault masks and the
    /// live-in binding against the window (the [`WakeupIndex`] invariants,
    /// verbatim). O(window x slots); used by tests after every cycle of
    /// adversarial runs and by `TP_PARANOID` runs after every stage. Not
    /// part of the public API.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    #[doc(hidden)]
    pub fn assert_event_index_coherent(&self) {
        for (pe, p) in self.pes.iter().enumerate() {
            if !p.occupied {
                assert_eq!(
                    self.wakeup.ready[pe], 0,
                    "cycle {}: ready bits set on unoccupied pe{pe}",
                    self.now
                );
                continue;
            }
            assert_eq!(
                p.faults(),
                p.scan_faults(),
                "cycle {}: pe{pe} fault mask disagrees with its slots",
                self.now
            );
            for (i, s) in p.slots.iter().enumerate() {
                let this = SlotRef::new(pe, i, p.gen);
                for (k, &(r, oref)) in s.ti.srcs.iter().flatten().enumerate() {
                    let want = match oref {
                        OperandRef::LiveIn(_) if r.is_zero() => PhysRegId::ZERO,
                        OperandRef::LiveIn(_) => p.map_before[r.index()],
                        OperandRef::Local(_) => continue,
                    };
                    assert_eq!(
                        s.srcs[k],
                        Some(want),
                        "cycle {}: pe{pe} slot {i} live-in {r} is not bound to map_before",
                        self.now
                    );
                }
                let bit = self.wakeup.ready[pe] >> i & 1 == 1;
                match s.state {
                    SlotState::Waiting => {
                        let unproduced: Vec<PhysRegId> = s
                            .srcs
                            .iter()
                            .flatten()
                            .copied()
                            .filter(|&q| !self.pregs.get(q).ready)
                            .collect();
                        if unproduced.is_empty() {
                            assert!(
                                bit,
                                "cycle {}: pe{pe} slot {i} is issuable but not in the ready \
                                 index\n{}",
                                self.now,
                                self.dump_window()
                            );
                        } else {
                            assert!(
                                !bit,
                                "cycle {}: pe{pe} slot {i} has unproduced sources but its \
                                 ready bit is set",
                                self.now
                            );
                            for q in unproduced {
                                assert!(
                                    self.wakeup
                                        .waiters
                                        .get(q.index())
                                        .is_some_and(|w| w.contains(&this)),
                                    "cycle {}: pe{pe} slot {i} waits on {q:?} but is not \
                                     subscribed to it",
                                    self.now
                                );
                            }
                        }
                    }
                    SlotState::Executing { done_at } | SlotState::MemAccess { done_at } => {
                        assert!(
                            self.wakeup.completions.iter().any(|&Reverse(e)| e == (done_at, this)),
                            "cycle {}: pe{pe} slot {i} in flight (done_at={done_at}) without \
                             a completion event",
                            self.now
                        );
                        assert!(
                            !bit,
                            "cycle {}: in-flight pe{pe} slot {i} has a ready bit",
                            self.now
                        );
                    }
                    _ => {
                        assert!(
                            !bit,
                            "cycle {}: pe{pe} slot {i} is {:?} with a ready bit set",
                            self.now, s.state
                        );
                    }
                }
                if matches!(s.ti.inst, tp_isa::Inst::Load { .. }) {
                    if let Some(a) = s.mem_addr {
                        assert!(
                            self.wakeup
                                .loads_by_word
                                .get(&(a >> 3))
                                .is_some_and(|w| w.contains(&this)),
                            "cycle {}: pe{pe} slot {i} sampled word {:#x} but is not in the \
                             load snoop index",
                            self.now,
                            a >> 3
                        );
                    }
                }
            }
        }
        // Bus fast-path horizons: a pass may only be skipped while nothing
        // could be granted, so every request must be covered either by its
        // own due time or by the "blocked last pass, retry next cycle"
        // horizon.
        for (queue, next_due) in [
            (&self.cache_bus_queue, self.cache_bus_next_due),
            (&self.result_bus_queue, self.result_bus_next_due),
        ] {
            for req in queue {
                assert!(
                    next_due <= req.since || next_due <= self.now + 1,
                    "cycle {}: queued bus request due at {} not covered by horizon {}",
                    self.now,
                    req.since,
                    next_due
                );
            }
        }
    }

    /// Rebuilds the speculative fetch history as of the end of the current
    /// window: the tail trace's checkpointed history plus the tail itself.
    /// (Using the checkpoints keeps histories at full path depth — a
    /// history built from the surviving window alone would be shorter than
    /// the retirement-side training contexts, and the path-based predictor
    /// would tag-miss after every squash.)
    fn rebuild_history(&self) -> TraceHistory {
        match self.list.tail() {
            Some(t) => {
                let mut h = self.pes[t].hist_before.clone();
                h.push(self.pes[t].trace.id());
                h
            }
            None => self.retire_hist.clone(),
        }
    }

    /// Expected fetch PC following the trace in `pe`.
    fn expected_after_pe(&self, pe: usize) -> ExpectedNext {
        let trace = &self.pes[pe].trace;
        match trace.end() {
            EndReason::MaxLen | EndReason::Ntb => {
                ExpectedNext::Known(trace.next_pc().expect("static end has next"))
            }
            EndReason::Indirect => {
                let last = self.pes[pe].slots.len() - 1;
                let s = &self.pes[pe].slots[last];
                if s.state == SlotState::Done {
                    match s.indirect_target {
                        Some(t) if t >= 0 && self.program.contains(t as Pc) => {
                            ExpectedNext::Known(t as Pc)
                        }
                        _ => ExpectedNext::Stalled,
                    }
                } else {
                    match trace.next_pc() {
                        Some(t) => ExpectedNext::Predicted(t),
                        None => ExpectedNext::Stalled,
                    }
                }
            }
            EndReason::Halt | EndReason::OutOfProgram => ExpectedNext::Stalled,
        }
    }

    fn expected_after_tail(&self) -> ExpectedNext {
        match self.list.tail() {
            Some(t) => self.expected_after_pe(t),
            // An empty window means everything committed: the next fetch is
            // the retired frontier, exactly. (Returning `Stalled` here
            // wedges fetch permanently — nothing is left in flight to
            // resolve a stall.)
            None => ExpectedNext::Known(self.retired_next_pc),
        }
    }
}

impl fmt::Debug for TraceProcessor<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceProcessor")
            .field("cycle", &self.now)
            .field("halted", &self.halted)
            .field("window", &self.list.len())
            .field("retired", &self.stats.retired_instrs)
            .finish()
    }
}
