//! The cycle-level trace processor simulator.
//!
//! See the crate-level docs for the big picture. The simulator advances one
//! cycle at a time through seven phases, each implemented in its own
//! submodule (one file per pipeline stage):
//!
//! 1. `complete` — finish in-flight instructions, publish values, verify
//!    branch outcomes and indirect targets (registering faults);
//! 2. `retire` — commit the head trace when every slot has completed;
//! 3. `recovery` — start/apply misprediction recoveries (oldest first),
//!    including FGCI/CGCI preservation decisions and squashes;
//! 4. `fetch` — predict the next trace, probe the trace cache, construct
//!    missing traces through the instruction cache;
//! 5. `dispatch` — rename and allocate one trace per cycle to a PE (or run
//!    one step of a re-dispatch pass — the dispatch bus is shared; the pass
//!    itself lives in `redispatch`);
//! 6. `issue` — select up to four ready instructions per PE and begin
//!    execution (values are computed here: the simulator is
//!    execution-driven, wrong paths execute for real);
//! 7. `buses` — arbitrate the shared cache buses (ARB/data cache access,
//!    store snooping) and global result buses (inter-PE value bypass).
//!
//! This module owns [`TraceProcessor`], its public API ([`RunResult`],
//! [`SimError`]), all cross-stage bookkeeping state, and the window-repair
//! helpers the stages share (squash-and-refetch, the live-in rebind walk,
//! pass start). Every stage keeps its accounting (statistics, the
//! attribution ledger, work counters, events) through the `books` layer,
//! one call per happening. The books also keep the one clock: stages read
//! the current cycle from [`TraceProcessor::now`], which is
//! `SimStats::cycles`, advanced once per cycle when the cycle ends.

mod books;
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
use tp_events::{EventBus, EventSink, FetchPath, RecoveryPlan};
use tp_isa::func::{ArchState, Machine};
use tp_isa::fxhash::FxHashMap;
use tp_isa::mem::PagedMem;
use tp_isa::{Addr, Pc, Program, Reg, Word};
use tp_metrics::{ScopedStageTimer, Stage, StageProfiler};
use tp_predict::{Btb, NextTracePredictor, Ras, TraceHistory, TracePredictorStats};
use tp_stats::attr::{AttrKey, RecoveryAttribution, RecoveryOutcome};
use tp_trace::{Bit, EndReason, OperandRef, Selector, Trace};

use crate::boot::{BootError, BootImage, WarmBoot};
use crate::config::{CheckLevel, TraceProcessorConfig, RAS_DEPTH, TCACHE_WAYS};
use crate::pe::{bits, Pe, Slot, SlotState};
use crate::pe_list::{PeList, PeQueue};
use crate::physreg::{PhysRegFile, PhysRegId, RenameMap};
use crate::stats::{SimStats, WorkCounters};
use books::{Books, BranchAt};

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
    /// Committed state diverged from the functional oracle, or a CGCI
    /// re-convergence detection could not be classified by the static
    /// post-dominator oracle (its detail starts `cfg-oracle:`). Raised only
    /// at [`CheckLevel::Oracle`] and above.
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

impl ExpectedNext {
    /// After a resolved indirect transfer: its target, if it is in the
    /// program.
    fn resolved(target: Option<Pc>) -> ExpectedNext {
        target.map_or(ExpectedNext::Stalled, ExpectedNext::Known)
    }
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
    source: FetchPath,
}

/// An in-progress branch-misprediction recovery.
#[derive(Clone, Debug)]
struct Recovery {
    pe: usize,
    gen: u64,
    slot: usize,
    repaired: Arc<Trace>,
    ready_at: u64,
    /// Plan decided at fault detection.
    plan: RecoveryPlan,
    /// Ledger coordinate of the triggering misprediction.
    attr: AttrKey,
    /// Detection cycle (ledger occupancy accounting).
    started_at: u64,
}

/// A re-dispatch pass over preserved (control independent) traces.
#[derive(Clone, Debug)]
struct RedispatchPass {
    queue: PeQueue,
    rolling: TraceHistory,
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
/// orders exactly like the `(pe, slot, gen)` tuple. `num_pes` is at most
/// [`crate::config::MAX_PES`] and traces hold at most 64 slots, so both
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
/// [`TraceProcessor::wake_readers`], [`TraceProcessor::note_inflight`],
/// [`TraceProcessor::note_load_sampled`], [`TraceProcessor::mark_reissue_slot`])
/// and checked wholesale against a brute-force window rescan by
/// [`TraceProcessor::assert_event_index_coherent`]:
///
/// 1. **Ready bits.** `ready[pe]` has bit `slot` set *iff* the slot is in
///    state [`SlotState::Waiting`] and every source has been produced: a
///    global source's register is `PhysReg::ready`, a local source's
///    producer slot has published (`Published::produced`). Time gating
///    (`not_before`, local/global visibility cycles) is deliberately *not*
///    part of the bit: the issue stage re-polls those cheap comparisons,
///    because global visibility can move (result-bus re-arm sets it to
///    `u64::MAX` until a bus is granted). Bits for unoccupied PEs are zero.
/// 2. **Readers.** Every live-in operand of every occupied slot bound to a
///    register `p` other than the zero register has an entry in `readers[p]` under
///    its PE's current generation. Every rebind site (dispatch,
///    `replace_trace`, and the live-in rebind walk
///    [`TraceProcessor::rebind_live_ins`] that the re-dispatch pass and the
///    head re-ground share) registers the slot, and pruning drops only
///    entries [`reader_live`] rejects. One
///    list serves both events on a register: its first production sets
///    the ready bit of each live `Waiting` reader whose sources are now
///    all produced, and a changed value marks each live reader for
///    reissue. Visiting a reader that is not waiting on `p` does nothing,
///    because a ready bit is only ORed in where invariant 1 demands it. A
///    register's list is cleared when the register is freed, so a
///    recycled id starts with no readers. Local sources are never
///    registered: invariant 7 covers them.
/// 3. **Completions.** Every slot in `Executing`/`MemAccess { done_at }`
///    has a `(done_at, pe, slot, gen)` entry in `completions`. Entries are
///    drained when due and validated (generation *and* exact `done_at`)
///    before completing; `replace_trace` re-enqueues surviving in-flight
///    prefix slots under the bumped generation.
/// 4. **Sampled loads.** Every load slot with `mem_addr = Some(a)` has an
///    entry in `loads_by_word[a >> 3]` under its current generation, so
///    store/undo snooping visits only loads on the snooped word instead of
///    rescanning the window. A reissued load that moved words re-registers
///    under the new word; the old entry dies on the word check.
///
/// Every entry names its slot with a one-word [`SlotRef`]
/// (`pe << 56 | slot << 48 | gen`, a 48-bit generation). The completion
/// stage completes each cycle's due slots in `(pe, slot)` order, the
/// legacy physical-index order.
///
/// Two further window facts are kept up to date as events happen, so no
/// stage rescans the window to recover them, and are checked by the same
/// cross-check:
///
/// 5. **Fault masks.** Each occupied PE's mask ([`Pe::faults`]) has bit
///    `i` set *iff* slot `i`'s side entry holds a fault. Every fault write
///    goes through [`Pe::set_fault`]; `replace_trace` rebuilds the mask
///    once after it moves the side entries, and dispatch and squash reset
///    it.
///    Recovery's oldest-fault search is then one word test per PE.
/// 6. **Binding.** Every occupied slot's `LiveIn(r)` operand is bound to
///    its PE's `map_before[r]` in [`Slot::srcs`], and every other operand
///    (`r0`, local, absent) to the zero register. Dispatch,
///    `replace_trace` and the live-in rebind walk each establish it, and
///    each visits only the trace's live-in operands
///    ([`Trace::live_in_operands`]). It makes the head re-ground exact on
///    its fast path: a head whose `map_before` agrees with `retired_map` on
///    every live-in has nothing to rebind. A `Local(j)` operand reads the
///    published result of slot `j`, named by the trace's pre-renames.
/// 7. **Consumer masks.** Local values never touch the reader lists. The
///    trace names each instruction's consumers, the slots whose first and
///    second operands read it ([`tp_trace::TraceInst::consumers`]), built
///    once when the trace is assembled. Slot `i` holds instruction `i` of
///    its PE's trace, including after a repair that shifts slots, so the
///    masks need no per-dispatch linking. Slot `j`'s first publication sets
///    the ready bit of every `Waiting` consumer whose sources are now all
///    produced, and a changed value marks every consumer for reissue: the
///    local counterpart of invariant 2. The published results move with
///    their slots.
///
/// All structures tolerate stale entries (validation is cheap and local);
/// what they must never do is *lose* a live slot — that turns into a
/// deadlock, which the invariant checker and the golden corpus guard.
struct WakeupIndex {
    /// Per-PE bitmask of issue candidates (invariant 1). Trace length is
    /// bounded at 32 by selection, so a `u64` per PE always suffices.
    ready: Vec<u64>,
    /// `(done_at, slot)` completion events (invariant 3).
    completions: CompletionWheel,
    /// Loads that sampled memory, indexed by word address (invariant 4).
    loads_by_word: FxHashMap<Addr, LoadBucket>,
    /// Emptied spilled lists of `loads_by_word`, kept for the next word
    /// that outgrows its inline entries.
    spare_buckets: Vec<Vec<SlotRef>>,
}

/// The loads registered on one word of the load registry (invariant 4),
/// in registration order. Most words hold a few, so up to
/// [`LoadBucket::INLINE`] entries live in the bucket itself and a newly
/// sampled word allocates nothing; a word with more spills into a heap
/// list taken from the registry's spare lists, and an emptied bucket gives
/// its list back ([`LoadBucket::recycle`]).
enum LoadBucket {
    Inline(u8, [SlotRef; LoadBucket::INLINE]),
    Spilled(Vec<SlotRef>),
}

impl LoadBucket {
    /// Entries held without a heap list (the bucket is as large as one).
    const INLINE: usize = 3;
    const EMPTY: LoadBucket = LoadBucket::Inline(0, [SlotRef(0); LoadBucket::INLINE]);

    fn as_slice(&self) -> &[SlotRef] {
        match self {
            LoadBucket::Inline(n, refs) => &refs[..*n as usize],
            LoadBucket::Spilled(list) => list,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Appends an entry, spilling into a list from `spare` when the inline
    /// entries are full.
    fn push(&mut self, r: SlotRef, spare: &mut Vec<Vec<SlotRef>>) {
        match self {
            LoadBucket::Inline(n, refs) if (*n as usize) < LoadBucket::INLINE => {
                refs[*n as usize] = r;
                *n += 1;
            }
            LoadBucket::Inline(_, refs) => {
                let mut list = spare.pop().unwrap_or_default();
                list.extend_from_slice(refs);
                list.push(r);
                *self = LoadBucket::Spilled(list);
            }
            LoadBucket::Spilled(list) => list.push(r),
        }
    }

    /// Keeps the entries `keep` accepts, in order.
    fn retain(&mut self, mut keep: impl FnMut(SlotRef) -> bool) {
        match self {
            LoadBucket::Inline(n, refs) => {
                let mut kept = 0;
                for i in 0..*n as usize {
                    if keep(refs[i]) {
                        refs[kept] = refs[i];
                        kept += 1;
                    }
                }
                *n = kept as u8;
            }
            LoadBucket::Spilled(list) => list.retain(|&r| keep(r)),
        }
    }

    /// Returns a spilled bucket's list to `spare` (the bucket is being
    /// dropped from the registry).
    fn recycle(self, spare: &mut Vec<Vec<SlotRef>>) {
        if let LoadBucket::Spilled(mut list) = self {
            list.clear();
            spare.push(list);
        }
    }
}

/// Validates a load-registry entry: the slot must still be a live load of
/// the registered generation whose sampled address maps to `word`. Returns
/// the slot, or `None` for a stale entry, which the registry may drop at
/// any time: no snoop would act on it.
fn live_load<'a>(pes: &'a [Pe], list: &PeList, r: SlotRef, word: Addr) -> Option<&'a Slot> {
    let s = r.live(pes)?;
    let p = &pes[r.pe()];
    if !list.contains(r.pe()) || !matches!(p.inst(r.slot()).inst, tp_isa::Inst::Load { .. }) {
        return None;
    }
    (p.side(r.slot()).mem_addr? >> 3 == word).then_some(s)
}

/// Buckets of the completion timing wheel: one per cycle of its horizon.
const WHEEL: u64 = 64;

/// The completion events of [`WakeupIndex`] invariant 3: a timing wheel of
/// [`WHEEL`] buckets for events due within the wheel's horizon, and a heap
/// for the rest. The completion stage orders each cycle's due events
/// itself, so the order they are drained in does not matter.
#[derive(Default)]
struct CompletionWheel {
    /// `buckets[t % WHEEL]` holds the events due at cycle `t`, for every
    /// `t` that was in `(now, now + WHEEL)` when the event was pushed.
    /// Empty until the first such push: sampled runs build a simulator per
    /// interval.
    buckets: Vec<Vec<(u64, SlotRef)>>,
    /// Events due at or before their push cycle, or `WHEEL` or more cycles
    /// after it.
    overflow: BinaryHeap<Reverse<(u64, SlotRef)>>,
}

impl CompletionWheel {
    /// Schedules `r` to complete at `done_at`; `now` is the current cycle.
    fn push(&mut self, now: u64, done_at: u64, r: SlotRef) {
        if done_at > now && done_at - now < WHEEL {
            if self.buckets.is_empty() {
                self.buckets.resize_with(WHEEL as usize, Vec::new);
            }
            self.buckets[(done_at % WHEEL) as usize].push((done_at, r));
        } else {
            self.overflow.push(Reverse((done_at, r)));
        }
    }

    /// Hands every event due at or before `now` to `due(slot, done_at)`,
    /// removing it, in no particular order. The completion stage runs
    /// every cycle, so the bucket of `now` holds exactly the wheel's events
    /// due at `now`: an event pushed at cycle `p < now` lands there only if
    /// it is due at `now` (it is due before `p + WHEEL`), and one pushed at
    /// `now` comes after this call.
    fn drain_due(&mut self, now: u64, mut due: impl FnMut(SlotRef, u64)) {
        if let Some(bucket) = self.buckets.get_mut((now % WHEEL) as usize) {
            for (t, r) in bucket.drain(..) {
                debug_assert_eq!(t, now, "wheel bucket out of phase");
                due(r, t);
            }
        }
        while let Some(&Reverse((t, r))) = self.overflow.peek() {
            if t > now {
                break;
            }
            self.overflow.pop();
            due(r, t);
        }
    }

    /// Whether the event is scheduled (in either part).
    fn contains(&self, event: (u64, SlotRef)) -> bool {
        self.buckets.iter().flatten().any(|&e| e == event)
            || self.overflow.iter().any(|&Reverse(e)| e == event)
    }

    /// Scheduled events, stale ones included.
    fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum::<usize>() + self.overflow.len()
    }
}

/// Minimum load-registry size before an amortized sweep is considered
/// (comfortably above the live window's worst case of `16 PEs x 32 slots`).
const GC_FLOOR: usize = 4096;

/// Where a slot reads one source operand: the paper's two-level register
/// file. Slots store only the global half ([`Slot::srcs`]); this is the
/// operand as the trace's pre-renames and the slot's binding give it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Src {
    /// A live-in: a register of the global file.
    Global(PhysRegId),
    /// A value produced inside the trace: the published result of this
    /// slot of the same PE (the PE's local register file).
    Local(u8),
}

/// An operand pre-renamed as `src` whose slot binds it to `global`.
fn src_of(src: Option<(Reg, OperandRef)>, global: PhysRegId) -> Option<Src> {
    src.map(|(_, oref)| match oref {
        OperandRef::Local(j) => Src::Local(j),
        OperandRef::LiveIn(_) => Src::Global(global),
    })
}

/// Operand `k` of slot `i` of the trace in `p`.
fn operand(p: &Pe, i: usize, k: usize) -> Option<Src> {
    src_of(p.inst(i).srcs[k], p.slots[i].srcs[k])
}

/// Whether a reader registration on `preg` is still live: the slot exists
/// under the registered generation and still reads `preg`. The keep
/// predicate of [`TraceProcessor::propagate_value_change`] and of
/// reader-list pruning. (`preg` is never the zero register, the stand-in
/// of a slot's non-live-in operands.)
fn reader_live(pes: &[Pe], r: SlotRef, preg: PhysRegId) -> bool {
    r.live(pes).is_some_and(|s| s.srcs.contains(&preg))
}

/// Whether every source of slot `i` of the trace in `p` is produced (the
/// dataflow condition of [`WakeupIndex`] invariant 1): a local source's
/// producer has published, a global source's register is ready.
fn all_produced(p: &Pe, pregs: &PhysRegFile, i: usize) -> bool {
    let srcs = &p.inst(i).srcs;
    (0..2).all(|k| match srcs[k] {
        Some((_, OperandRef::Local(j))) => p.slots[j as usize].out.produced(),
        Some(_) => pregs.get(p.slots[i].srcs[k]).ready,
        None => true,
    })
}

/// Every physical register the simulator can still name (the roots listed
/// in [`crate::physreg`]; the zero register among them is harmless, the
/// file keeps it itself).
fn preg_roots<'a>(pes: &'a [Pe], maps: [&'a RenameMap; 2]) -> impl Iterator<Item = PhysRegId> + 'a {
    let pe_maps = pes.iter().flat_map(|p| p.map_before.iter().chain(&p.map_after)).copied();
    let slots = pes
        .iter()
        .filter(|p| p.occupied)
        .flat_map(|p| &p.slots)
        .flat_map(|s| s.srcs.into_iter().chain(s.global()));
    maps.into_iter().flatten().copied().chain(pe_maps).chain(slots)
}

impl WakeupIndex {
    fn new(num_pes: usize) -> WakeupIndex {
        WakeupIndex {
            ready: vec![0; num_pes],
            completions: CompletionWheel::default(),
            loads_by_word: FxHashMap::default(),
            spare_buckets: Vec::new(),
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
    /// slots to wake on the register's first production and to reissue
    /// when its value changes ([`WakeupIndex`] invariant 2; global sources
    /// only, a local value reaches its readers through its slot's consumer
    /// masks). Cleared when the register is freed: a re-dispatched
    /// slot keeps its generation, so a stale entry could otherwise become
    /// valid again against a recycled id.
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
    /// Loads a snoop reissues.
    scratch_refs: Vec<SlotRef>,
    scratch_order: Vec<usize>,
    /// Per-PE masks of the slots completing this cycle.
    scratch_due: Vec<u64>,
    scratch_grants: Vec<u32>,
    // Architectural state.
    arch_regs: [Word; Reg::COUNT],
    oracle: Option<Machine<'p>>,
    /// Static post-dominator re-convergence oracle ([`CheckLevel::Oracle`]).
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
    last_retire_cycle: u64,
    halted: bool,
    /// The PC following the last retired instruction — the architectural
    /// frontier a functional machine would resume from (checkpoint capture
    /// between sampled intervals).
    retired_next_pc: Pc,
    /// The architectural position booted from: resume PC and instructions
    /// retired before boot ([`TraceProcessor::boot_frontier`]).
    boot_frontier: (Pc, u64),
    /// Statistics, the misprediction outcome-attribution ledger, the
    /// bookkeeping work counters and the structured event bus
    /// ([`TraceProcessor::attach_event_sink`]), kept by one call per
    /// happening (the `books` module). Observation-only: the simulator
    /// reads back only the retired-instruction count, and every event is
    /// built only when a sink wants its category, so runs with and without
    /// sinks are cycle-identical. The unresolved CGCI attempt's costs wait
    /// here too until it closes.
    books: Books,
    /// Host wall-time profiler for the pipeline-stage modules
    /// ([`TraceProcessor::attach_stage_profiler`]). `None` (the default)
    /// costs one discriminant test per cycle; attached, each stage call
    /// is wrapped in a scoped timer. Host-side only — simulated behaviour
    /// is identical either way.
    profiler: Option<Box<StageProfiler>>,
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
            if w.ras.capacity() != RAS_DEPTH {
                return mismatch("ras", w.ras.capacity().to_string(), RAS_DEPTH.to_string());
            }
            if w.predictor.config() != cfg.predictor {
                return mismatch(
                    "next-trace predictor",
                    format!("{:?}", w.predictor.config()),
                    format!("{:?}", cfg.predictor),
                );
            }
            if w.tcache.geometry() != (cfg.tcache_sets, TCACHE_WAYS) {
                return mismatch(
                    "trace cache",
                    format!("{:?}", w.tcache.geometry()),
                    format!("{:?}", (cfg.tcache_sets, TCACHE_WAYS)),
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
        let WarmBoot { btb, ras, predictor, tcache, bit, icache, dcache, history: hist } =
            boot.warm.unwrap_or_else(|| WarmBoot::cold(&cfg));
        let pes = (0..cfg.num_pes).map(|_| Pe::empty(hist)).collect();
        // Committed memory is the program's data image (shared, not copied)
        // with the boot delta on top; the delta is not "committed since
        // boot", so it is unmarked.
        let mut mem = PagedMem::from_program(program);
        for &(word, value) in &boot.mem_delta {
            mem.set(word, value, false);
        }
        let checked = cfg.check >= CheckLevel::Oracle;
        let oracle = checked.then(|| {
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
            fetch_hist: hist,
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
            redispatch: None,
            cache_bus_queue: VecDeque::new(),
            result_bus_queue: VecDeque::new(),
            cache_bus_next_due: u64::MAX,
            result_bus_next_due: u64::MAX,
            wakeup: WakeupIndex::new(cfg.num_pes),
            load_count: 0,
            loads_gc_at: GC_FLOOR,
            scratch_refs: Vec::new(),
            scratch_order: Vec::new(),
            scratch_due: Vec::new(),
            scratch_grants: Vec::new(),
            arch_regs: boot.regs,
            oracle,
            reconv_oracle: checked.then(|| Box::new(CfgAnalysis::build(program))),
            reconv_oracle_violation: None,
            reconv_oracle_counts: [0; ReconvClass::ALL.len()],
            last_retire_cycle: 0,
            halted: boot.halted,
            retired_next_pc: boot.pc,
            boot_frontier: (boot.pc, boot.retired),
            books: Books::default(),
            profiler: None,
            cfg,
        }
    }

    /// Attaches a structured-event sink to the simulator's event bus.
    /// Sinks observe only: attaching one has zero effect on simulated
    /// behaviour (golden statistics rows stay byte-identical).
    pub fn attach_event_sink(&mut self, sink: Box<dyn EventSink>) {
        self.books.attach(sink);
    }

    /// Whether any event sink is currently attached.
    pub fn events_attached(&self) -> bool {
        self.books.attached()
    }

    /// Detaches and returns the event bus (with its sinks) so captured
    /// data can be rendered. Before handing it back, a synthetic
    /// `TraceSquashed { drained: true }` close is emitted for every trace
    /// still resident in a PE, so each `TraceDispatched` is matched by
    /// exactly one close even when the run ends mid-flight.
    pub fn release_event_bus(&mut self) -> EventBus {
        let pes = &self.pes;
        let resident = self.list.iter().filter(|&pe| pes[pe].occupied);
        self.books.release(resident.map(|pe| (pe, pes[pe].trace.id().start())))
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
        self.books.stats()
    }

    /// Bookkeeping work done so far: global registers allocated, reader
    /// list pushes, register-file sweeps. Deterministic (a function
    /// of the program and configuration, not of the host), and kept out of
    /// [`SimStats`] so the golden statistics rows do not depend on how the
    /// simulator does its bookkeeping.
    pub fn work_counters(&self) -> WorkCounters {
        self.books.work()
    }

    /// The misprediction outcome-attribution ledger accumulated so far.
    pub fn attribution(&self) -> &RecoveryAttribution {
        self.books.ledger()
    }

    /// Next-trace predictor statistics (component hits, index pollution).
    pub fn predictor_stats(&self) -> TracePredictorStats {
        self.predictor.stats()
    }

    /// CGCI re-convergence detections by static classification (all zero
    /// below [`CheckLevel::Oracle`]).
    pub fn cfg_oracle_counts(&self) -> [(ReconvClass, u64); ReconvClass::ALL.len()] {
        ReconvClass::ALL.map(|c| (c, self.reconv_oracle_counts[c.index()]))
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
        (self.retired_next_pc, self.books.stats().retired_instrs)
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

    /// Current cycle: the cycles elapsed before this one, the books' clock
    /// (`SimStats::cycles`), the only one the simulator keeps.
    #[inline]
    pub fn now(&self) -> u64 {
        self.books.stats().cycles
    }

    /// Runs until the program halts or `max_instrs` instructions retire.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if no instruction retires for the
    /// configured watchdog window, or [`SimError::OracleMismatch`] as
    /// [`TraceProcessor::step_cycle`] does.
    pub fn run(&mut self, max_instrs: u64) -> Result<RunResult, SimError> {
        while !self.halted && self.books.stats().retired_instrs < max_instrs {
            self.step_cycle()?;
            if self.now() - self.last_retire_cycle > self.cfg.deadlock_cycles {
                return Err(SimError::Deadlock { cycle: self.now(), detail: self.dump_window() });
            }
        }
        Ok(RunResult {
            halted: self.halted,
            stats: *self.books.stats(),
            attribution: self.books.ledger().clone(),
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
        let target = self.books.stats().retired_instrs.saturating_add(n);
        self.run(target)
    }

    /// Advances the simulation by one cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OracleMismatch`] when, at [`CheckLevel::Oracle`]
    /// or above, committed state diverges from the functional oracle or a
    /// CGCI re-convergence detection is one the static CFG cannot justify.
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
        {
            let _t = ScopedStageTimer::new(prof, Stage::Complete);
            self.complete_stage();
        }
        self.check_window("complete");
        {
            let _t = ScopedStageTimer::new(prof, Stage::Retire);
            self.retire_stage()?;
        }
        self.check_window("retire");
        {
            let _t = ScopedStageTimer::new(prof, Stage::Recovery);
            self.recovery_stage();
        }
        self.check_window("recovery");
        if let Some(detail) = self.reconv_oracle_violation.take() {
            return Err(SimError::OracleMismatch { cycle: self.now(), detail });
        }
        {
            let _t = ScopedStageTimer::new(prof, Stage::Fetch);
            self.fetch_stage();
        }
        self.check_window("fetch");
        self.dispatch_stage(prof);
        self.check_window("dispatch");
        {
            let _t = ScopedStageTimer::new(prof, Stage::Issue);
            self.issue_stage();
        }
        {
            let _t = ScopedStageTimer::new(prof, Stage::Buses);
            self.bus_stage();
        }
        self.books.cycle_ended(self.list.len(), self.fetch_queue.len());
        Ok(())
    }

    /// Window-wide rename invariant: a trace's `map_before` must never
    /// reference a physical register produced by that trace or any younger
    /// trace. Run only at [`CheckLevel::Full`] because it is O(window^2).
    /// Also cross-checks the wakeup index against a brute-force rescan
    /// after every stage, and checks that every register root names an
    /// allocated register (a missed root would otherwise alias a recycled
    /// register silently).
    fn check_window(&self, stage: &str) {
        if self.cfg.check != CheckLevel::Full {
            return;
        }
        self.assert_event_index_coherent();
        for preg in preg_roots(&self.pes, [&self.current_map, &self.retired_map]) {
            assert!(
                self.pregs.is_allocated(preg),
                "cycle {} after {stage}: root {preg:?} names a freed physical register\n{}",
                self.now(),
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
                && self.pes[pe].side(slot).store_performed
                && self.pes[pe].side(slot).mem_addr.map(|a| a >> 3) == Some(word);
            assert!(
                owner_ok,
                "cycle {} after {stage}: ARB version at word {word:#x} owned by pe{pe} slot \
                 {slot} has no live performed store\n{}",
                self.now(),
                self.dump_window()
            );
        }
        let order: Vec<usize> = self.list.iter().collect();
        for (qi, &q) in order.iter().enumerate() {
            for r in Reg::all().skip(1) {
                let preg = self.pes[q].map_before[r.index()];
                for &younger in &order[qi..] {
                    for (si, sl) in self.pes[younger].slots.iter().enumerate() {
                        if sl.global() == Some(preg) {
                            panic!(
                                "cycle {} after {stage}: pe{q} map_before[{r}] = {preg:?} \
                                 is produced by pe{younger} slot {si} (not older)\n{}",
                                self.now(),
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
    /// explicit success path in fetch re-convergence detection closes the
    /// pending CGCI attempt as failed in the books. Accounting only — the
    /// mode change itself is exactly `self.mode = mode`.
    fn set_mode(&mut self, mode: FetchMode) {
        if matches!(self.mode, FetchMode::CgciInsert { .. }) {
            self.books.cgci_closed(RecoveryOutcome::CgciFailed, 0, &mut self.pes);
        }
        self.mode = mode;
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
                    let vals: Vec<(String, Word, bool)> = (0..2)
                        .filter_map(|k| operand(p, i, k))
                        .map(|q| match q {
                            Src::Global(pp) => {
                                let r = self.pregs.get(pp);
                                (format!("p{}", pp.0), r.value, r.ready)
                            }
                            Src::Local(j) => {
                                let out = p.slots[j as usize].out;
                                (format!("s{j}"), out.value, out.produced())
                            }
                        })
                        .collect();
                    let _ = write!(
                        s,
                        "[slot {i} {:?} state={:?} pr={} nb={} iss={} srcs={vals:?}] ",
                        p.inst(i).inst,
                        sl.state,
                        sl.pending_reissue,
                        sl.not_before,
                        sl.issues
                    );
                }
            }
        }
        s
    }

    /// Where an operand pre-renamed as `oref` reads its value, in a trace
    /// whose live-ins rename through `map_before`.
    fn bind(oref: OperandRef, map_before: &RenameMap) -> Src {
        match oref {
            OperandRef::LiveIn(r) if r.is_zero() => Src::Global(PhysRegId::ZERO),
            OperandRef::LiveIn(r) => Src::Global(map_before[r.index()]),
            OperandRef::Local(j) => Src::Local(j),
        }
    }

    /// The rename map after `trace` (occupying `slots`): `map_before` with
    /// each live-out renamed to its last writer's global register.
    fn map_after(trace: &Trace, slots: &[Slot], map_before: RenameMap) -> RenameMap {
        let mut map = map_before;
        for r in trace.live_outs() {
            let w = trace.last_writer(*r).expect("live-out has a writer");
            map[r.index()] = slots[w].global().expect("a live-out has a global register");
        }
        map
    }

    /// Allocates a global register for a live-out of the trace in `pe`.
    fn alloc_global(&mut self, pe: usize) -> PhysRegId {
        self.books.global_reg_allocated();
        self.pregs.alloc(Some(pe as u8))
    }

    /// Registers slot `slot` of `pe` (under its current generation) as a
    /// reader of `preg`, to be woken by its first production and reissued
    /// on a value change (invariant 2). A push that finds the list at
    /// capacity first prunes it in place (and still grows it if that
    /// leaves it over half full), so a register that stays live for a
    /// whole run, such as an untouched `retired_map` entry, cannot collect
    /// dead wrong-path readers without bound. The pruned entries are
    /// exactly those both consumers of the list skip.
    fn register_reader(&mut self, preg: PhysRegId, pe: usize, slot: usize) {
        if preg == PhysRegId::ZERO {
            return;
        }
        self.books.reader_pushed();
        if self.readers.len() <= preg.index() {
            self.readers.resize_with(preg.index() + 1, Vec::new);
        }
        let pes = &self.pes;
        let list = &mut self.readers[preg.index()];
        if list.len() == list.capacity() {
            list.retain(|&r| reader_live(pes, r, preg));
            if list.len() > list.capacity() / 2 {
                list.reserve(list.len());
            }
        }
        list.push(SlotRef::new(pe, slot, pes[pe].gen));
    }

    /// Marks every consumer of slot `slot`'s changed result for selective
    /// reissue: the same-PE readers named by the slot's consumer masks,
    /// then the live readers of the slot's global register, if it has one.
    ///
    /// `value_change_marks` counts operands, not slots, as the readers'
    /// registrations always did (one per operand): a slot reading the
    /// producer in both operands sits in both masks and counts 2. The
    /// marking order does not matter: [`Self::mark_reissue_slot`] only
    /// raises the slot's `not_before` to a maximum and sets its own state
    /// flags, and the [`Self::index_enqueue`] it may trigger only sets or
    /// clears that slot's own ready bit. A slot marked twice (both masks,
    /// or a duplicate registration) is a no-op the second time.
    fn propagate_value_change(&mut self, pe: usize, slot: usize, not_before: u64) {
        let [first, second] = self.pes[pe].inst(slot).consumers;
        self.books.value_change_marked(u64::from(first.count_ones() + second.count_ones()));
        for i in bits(u64::from(first | second)) {
            self.mark_reissue_slot(pe, i, not_before);
        }
        let Some(preg) = self.pes[pe].slots[slot].global() else { return };
        let Some(list) = self.readers.get_mut(preg.index()) else { return };
        let pes = &self.pes;
        list.retain(|&r| reader_live(pes, r, preg));
        self.books.value_change_marked(list.len() as u64);
        // Marking only touches slot state and ready bits, never this
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
    /// since the ready bit of an already-`Waiting` slot reflects its old
    /// sources only. Slots left in flight (pending reissue) re-enqueue when
    /// their discarded completion arrives.
    fn rebind_reissue_slot(&mut self, pe: usize, slot: usize, not_before: u64) {
        self.books.rebind_marked();
        let _ = self.pes[pe].slots[slot].mark_reissue(not_before);
        if self.pes[pe].slots[slot].state == SlotState::Waiting {
            self.index_enqueue(pe, slot);
        }
    }

    /// Registers a `Waiting` slot with the wakeup index: sets its ready
    /// bit when every source has been produced and clears it otherwise
    /// (invariant 1). An unproduced source needs no subscription: the
    /// slot is already in its register's reader list (invariant 2) or its
    /// producer's consumer mask (invariant 7). Must be called on every
    /// transition into `Waiting` and after every source rebind of a
    /// `Waiting` slot.
    fn index_enqueue(&mut self, pe: usize, slot: usize) {
        if self.cfg.check == CheckLevel::Full {
            assert_eq!(self.pes[pe].slots[slot].state, SlotState::Waiting);
            assert!(slot < 64, "trace longer than the ready bitmask");
        }
        if all_produced(&self.pes[pe], &self.pregs, slot) {
            self.wakeup.ready[pe] |= 1 << slot;
        } else {
            // A rebind can move a previously all-produced slot onto an
            // unproduced source; the stale bit must not survive it.
            self.wakeup.ready[pe] &= !(1u64 << slot);
        }
    }

    /// Wakes the readers of a just-produced global register: every live
    /// `Waiting` reader whose sources are now all produced gets its ready
    /// bit set (invariant 2). Called once per register incarnation, on its
    /// first production (value *changes* go through selective reissue
    /// instead). The list is kept: the same readers are reissued if the
    /// value later changes.
    fn wake_readers(&mut self, preg: PhysRegId) {
        let Some(list) = self.readers.get(preg.index()) else { return };
        for &r in list {
            let Some(s) = r.live(&self.pes) else {
                continue; // stale: squashed or replaced
            };
            if s.state == SlotState::Waiting
                && all_produced(&self.pes[r.pe()], &self.pregs, r.slot())
            {
                self.wakeup.ready[r.pe()] |= 1 << r.slot();
            }
        }
    }

    /// The local counterpart of [`Self::wake_readers`], called once per
    /// slot occupancy on the slot's first publication: every `Waiting`
    /// consumer in its consumer masks whose sources are now all produced
    /// gets its ready bit set. Visiting consumers that were not
    /// waiting on this producer is harmless: a `Waiting` slot with all
    /// sources produced already has its bit (invariant 1).
    fn wake_local_consumers(&mut self, pe: usize, producer: usize) {
        let p = &self.pes[pe];
        let [first, second] = p.inst(producer).consumers;
        for i in bits(u64::from(first | second)) {
            if p.slots[i].state == SlotState::Waiting && all_produced(p, &self.pregs, i) {
                self.wakeup.ready[pe] |= 1 << i;
            }
        }
    }

    /// Schedules the completion event for a slot that just entered
    /// `Executing`/`MemAccess` with the given `done_at` (invariant 3).
    fn note_inflight(&mut self, pe: usize, slot: usize, done_at: u64) {
        let r = SlotRef::new(pe, slot, self.pes[pe].gen);
        self.wakeup.completions.push(self.now(), done_at, r);
    }

    /// Indexes a load that sampled memory at `addr` so store/undo snoops
    /// can find it without rescanning the window (invariant 4).
    fn note_load_sampled(&mut self, pe: usize, slot: usize, addr: Addr) {
        let r = SlotRef::new(pe, slot, self.pes[pe].gen);
        let word = addr >> 3;
        let bucket = self.wakeup.loads_by_word.entry(word).or_insert(LoadBucket::EMPTY);
        // A reissued load may sample the same word twice under one
        // generation; keep at most one entry so a snoop reissues (and
        // counts) it exactly once. Stale entries go too, so a word's
        // bucket holds only its live loads and rarely outgrows the inline
        // entries.
        let before = bucket.len();
        let (pes, list) = (&self.pes, &self.list);
        bucket.retain(|e| {
            !(e.pe() == pe && e.slot() == slot) && live_load(pes, list, e, word).is_some()
        });
        self.load_count -= before - bucket.len();
        bucket.push(r, &mut self.wakeup.spare_buckets);
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

    /// Makes room in the register file for renaming a trace with
    /// `live_outs` live-outs, sweeping when the file has reached its
    /// threshold (the policy of [`crate::physreg`]). Called before the
    /// rename starts, while every live register is rooted. Runs at
    /// [`CheckLevel::Full`] sweep before every rename, recycling registers
    /// as early as the roots allow, so a missed root surfaces in short runs
    /// too.
    fn reserve_pregs(&mut self, live_outs: usize) {
        if self.pregs.grow_for(live_outs) || self.cfg.check == CheckLevel::Full {
            self.sweep_pregs();
        }
    }

    /// Reclaims every physical register no root names (the roots of
    /// [`crate::physreg`]), clearing each freed register's reader list so
    /// a recycled id starts with none. Never called while a half-renamed
    /// trace's registers are unrooted.
    fn sweep_pregs(&mut self) {
        self.books.swept();
        let roots = preg_roots(&self.pes, [&self.current_map, &self.retired_map]);
        let readers = &mut self.readers;
        self.pregs.sweep(roots, |id| {
            if let Some(list) = readers.get_mut(id.index()) {
                list.clear();
            }
        });
    }

    /// Sweeps stale load-registry entries (dead generations and loads
    /// whose reissue moved them to another word).
    fn gc_loads(&mut self) {
        let pes = &self.pes;
        let list = &self.list;
        let spare = &mut self.wakeup.spare_buckets;
        self.wakeup.loads_by_word.retain(|&word, entries| {
            entries.retain(|r| live_load(pes, list, r, word).is_some());
            if !entries.is_empty() {
                return true;
            }
            std::mem::replace(entries, LoadBucket::EMPTY).recycle(spare);
            false
        });
        self.load_count = self.wakeup.loads_by_word.values().map(LoadBucket::len).sum();
        self.loads_gc_at = GC_FLOOR.max(self.load_count * 2);
    }

    /// Footprint of the wakeup index, for leak diagnostics and tests:
    /// `(completion events, load entries)`.
    #[doc(hidden)]
    pub fn index_footprint(&self) -> (usize, usize) {
        (
            self.wakeup.completions.len(),
            self.wakeup.loads_by_word.values().map(LoadBucket::len).sum(),
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
    /// adversarial runs and by [`CheckLevel::Full`] runs after every
    /// stage. Not part of the public API.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    #[doc(hidden)]
    pub fn assert_event_index_coherent(&self) {
        for (pe, p) in self.pes.iter().enumerate() {
            if !p.occupied {
                assert_eq!(
                    self.wakeup.ready[pe],
                    0,
                    "cycle {}: ready bits set on unoccupied pe{pe}",
                    self.now()
                );
                continue;
            }
            assert_eq!(
                p.faults(),
                p.scan_faults(),
                "cycle {}: pe{pe} fault mask disagrees with its slots",
                self.now()
            );
            self.assert_local_file_coherent(pe);
            for (i, s) in p.slots.iter().enumerate() {
                let this = SlotRef::new(pe, i, p.gen);
                for k in 0..2 {
                    let bound = match p.inst(i).srcs[k] {
                        Some((_, oref)) => Self::bind(oref, &p.map_before),
                        None => Src::Global(PhysRegId::ZERO),
                    };
                    let stored = match bound {
                        Src::Local(_) => PhysRegId::ZERO,
                        Src::Global(g) => g,
                    };
                    assert_eq!(
                        s.srcs[k],
                        stored,
                        "cycle {}: pe{pe} slot {i} operand {k} is not bound to its {bound:?}",
                        self.now()
                    );
                }
                // A local source needs no registration: its producer's
                // consumer mask names this slot.
                for k in 0..2 {
                    let Some(Src::Global(q)) = operand(p, i, k) else { continue };
                    assert!(
                        q == PhysRegId::ZERO
                            || self.readers.get(q.index()).is_some_and(|w| w.contains(&this)),
                        "cycle {}: pe{pe} slot {i} reads {q:?} but is not in its reader list",
                        self.now()
                    );
                }
                let bit = self.wakeup.ready[pe] >> i & 1 == 1;
                match s.state {
                    SlotState::Waiting => {
                        if all_produced(p, &self.pregs, i) {
                            assert!(
                                bit,
                                "cycle {}: pe{pe} slot {i} is issuable but not in the ready \
                                 index\n{}",
                                self.now(),
                                self.dump_window()
                            );
                        } else {
                            assert!(
                                !bit,
                                "cycle {}: pe{pe} slot {i} has unproduced sources but its \
                                 ready bit is set",
                                self.now()
                            );
                        }
                    }
                    SlotState::Executing { done_at } | SlotState::MemAccess { done_at } => {
                        assert!(
                            self.wakeup.completions.contains((done_at, this)),
                            "cycle {}: pe{pe} slot {i} in flight (done_at={done_at}) without \
                             a completion event",
                            self.now()
                        );
                        assert!(
                            !bit,
                            "cycle {}: in-flight pe{pe} slot {i} has a ready bit",
                            self.now()
                        );
                    }
                    _ => {
                        assert!(
                            !bit,
                            "cycle {}: pe{pe} slot {i} is {:?} with a ready bit set",
                            self.now(),
                            s.state
                        );
                    }
                }
                if matches!(p.inst(i).inst, tp_isa::Inst::Load { .. }) {
                    if let Some(a) = p.side(i).mem_addr {
                        assert!(
                            self.wakeup
                                .loads_by_word
                                .get(&(a >> 3))
                                .is_some_and(|w| w.as_slice().contains(&this)),
                            "cycle {}: pe{pe} slot {i} sampled word {:#x} but is not in the \
                             load snoop index",
                            self.now(),
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
                    next_due <= req.since || next_due <= self.now() + 1,
                    "cycle {}: queued bus request due at {} not covered by horizon {}",
                    self.now(),
                    req.since,
                    next_due
                );
            }
        }
    }

    /// The local half of the two-level register file of occupied PE `pe`
    /// against a rescan ([`WakeupIndex`] invariant 7): the slots against
    /// the trace's length, the trace's consumer masks and live-out slots
    /// against its pre-renames, each slot's published result against its
    /// state and its global register, if any, and the side entries holding
    /// data against the slots.
    fn assert_local_file_coherent(&self, pe: usize) {
        let p = &self.pes[pe];
        let now = self.now();
        let insts = p.trace.insts();
        assert_eq!(p.slots.len(), insts.len(), "cycle {now}: pe{pe} slots disagree with its trace");
        assert_eq!(
            p.side_valid() >> insts.len(),
            0,
            "cycle {now}: pe{pe} side entry past its slots"
        );
        let mut masks = vec![[0u32; 2]; insts.len()];
        for (i, ti) in insts.iter().enumerate() {
            for (k, q) in ti.srcs.iter().enumerate() {
                if let Some((_, OperandRef::Local(j))) = *q {
                    assert!((j as usize) < i, "cycle {now}: pe{pe} slot {i} reads younger {j}");
                    masks[j as usize][k] |= 1 << i;
                }
            }
        }
        for (j, s) in p.slots.iter().enumerate() {
            let ti = &insts[j];
            let is_liveout = ti.dest.is_some_and(|d| p.trace.last_writer(d) == Some(j));
            assert_eq!(
                (ti.consumers, p.trace.is_live_out(j)),
                (masks[j], is_liveout),
                "cycle {now}: pe{pe} slot {j}'s trace template disagrees with its operands"
            );
            let out = s.out;
            assert!(
                !out.produced() || out.ready_at <= now,
                "cycle {now}: pe{pe} slot {j} published {out:?}"
            );
            let has_dest = ti.dest.is_some();
            assert!(
                out.produced() || !has_dest || s.state != SlotState::Done,
                "cycle {now}: pe{pe} slot {j} completed without publishing"
            );
            assert!(
                has_dest || (!is_liveout && s.global().is_none() && masks[j] == [0, 0]),
                "cycle {now}: pe{pe} slot {j} has no destination but a register or readers"
            );
            assert!(
                !is_liveout || s.global().is_some(),
                "cycle {now}: pe{pe} live-out slot {j} has no global register"
            );
            if let Some(g) = s.global() {
                let r = self.pregs.get(g);
                assert!(
                    (r.ready, r.value, r.local_ready_at, r.producer_pe)
                        == (out.produced(), out.value, out.ready_at, Some(pe as u8)),
                    "cycle {now}: pe{pe} slot {j}'s global register {g:?} ({r:?}) disagrees \
                     with its published result {out:?}"
                );
            }
        }
    }

    /// The speculative fetch history after the trace in `pe`: its
    /// checkpointed history plus the trace itself, or the retirement-side
    /// history for `None` (the retired frontier). (Using the checkpoints
    /// keeps histories at full path depth — a history built from the
    /// surviving window alone would be shorter than the retirement-side
    /// training contexts, and the path-based predictor would tag-miss after
    /// every squash.)
    fn hist_after(&self, pe: Option<usize>) -> TraceHistory {
        match pe {
            Some(p) => {
                let mut h = self.pes[p].hist_before;
                h.push(self.pes[p].trace.id());
                h
            }
            None => self.retire_hist,
        }
    }

    /// The speculative fetch history as of the end of the current window.
    fn rebuild_history(&self) -> TraceHistory {
        self.hist_after(self.list.tail())
    }

    /// Restarts fetch after the window's tail (the retired frontier when
    /// the window is empty): fetch history, rename map and expectation.
    /// Not for a path where the rename map must survive: an in-flight
    /// re-dispatch pass or a CGCI insertion owns it.
    fn refetch_after_tail(&mut self) {
        let tail = self.list.tail();
        self.fetch_hist = self.hist_after(tail);
        self.current_map = match tail {
            Some(t) => self.pes[t].map_after,
            None => self.retired_map,
        };
        self.expected = self.expected_after_tail();
    }

    /// Whether `pe` still holds, in the window, the trace it held under
    /// generation `gen`.
    fn pe_live(&self, pe: usize, gen: u64) -> bool {
        let p = &self.pes[pe];
        p.occupied && p.gen == gen && self.list.contains(pe)
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
                    match self.pes[pe].side(last).indirect_target {
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
            .field("cycle", &self.now())
            .field("halted", &self.halted)
            .field("window", &self.list.len())
            .field("retired", &self.books.stats().retired_instrs)
            .finish()
    }
}
