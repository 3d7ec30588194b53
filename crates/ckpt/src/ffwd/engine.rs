//! The superblock fast-forward engine.
//!
//! The interpreter path of [`FastForward`](super::FastForward) pays, per
//! committed trace, a full trace selection (with its BIT probes and
//! per-branch machine stepping), a `Trace::assemble` allocation, and
//! per-instruction warming calls. This engine memoizes all of it.
//!
//! Trace selection is an *online-deterministic* function of the program
//! and the consumed branch-outcome prefix: with the FGCI region analysis
//! being pure and the BIT only caching it, two selections from the same
//! start PC that observe the same outcomes produce the same trace. The
//! memo table therefore keys candidate traces by start PC, and the set of
//! candidates from one start forms a prefix-free outcome tree. Each
//! candidate carries a *flat pre-decoded instruction image* of its trace,
//! assembled by walking (and chaining) cached [`Block`]s, plus every
//! warming update the trace implies, precomputed into replayable arrays.
//!
//! The hit path executes the set's most-recently-used candidate straight
//! off that flat image with a tight register-file loop. Control flow is
//! validated where it can actually diverge: every conditional branch's
//! outcome is compared against the image's outcome mask as it executes
//! (mid-trace indirects cannot occur — selection ends traces at them —
//! and direct transfers have fixed targets, so the per-instruction PC
//! check is a debug assertion only). When a branch resolves against the
//! candidate, the consumed outcome prefix picks the sibling that owns the
//! actual path (candidates sharing an outcome prefix share the
//! instruction path up to and past that branch) and execution resumes
//! mid-image without re-executing anything. Because candidate sets are
//! append-only and selection is deterministic, that flip's resolution —
//! which sibling, or that the trace terminates here — is a pure function
//! of the set contents once found, so each entry caches it per branch
//! position (`resolve`) and later flips at the same point skip the scan.
//! Only a genuinely new outcome path falls back to the real selector
//! (replaying the consumed prefix), which then memoizes the new variant.
//! Indirect-ended traces share one outcome path but differ by target, so
//! their variants are disambiguated by the machine's actual next PC after
//! the image completes. Each entry also learns its successor's memo slot
//! (`next_slot`): a trace's end determines the next start PC, so
//! back-to-back hits chase that pointer instead of hashing the start PC.
//!
//! Warming on a hit replays per-structure arrays in one pass. Data-cache
//! accesses warm inline during execution with a consecutive-same-line
//! skip, and two image-invariant dedupes drop repeated refills entirely:
//! a trace-cache fill identical to the immediately previous fill (same id
//! *and* same successor PC) is skipped, as is an icache line group
//! identical to the immediately previous group. Both skips only ever
//! elide re-touching the structure's most-recently-used content, which
//! cannot change residency or LRU capture order, so warm images stay
//! bit-identical to the interpreter path's.
//!
//! A third class of skip rests on the serialization contract: the BTB and
//! next-trace-predictor images capture *tables* (counters, targets, tags)
//! and explicitly exclude statistics. Replaying an entry's updates against
//! already-converged tables is therefore unobservable in any capture, and
//! each entry caches a proof of that — separately for the branch side
//! (every BTB counter saturated in its update's direction, indirect target
//! already recorded) and the predictor side (both components tag-match
//! with the right prediction at full confidence). A cached proof is valid
//! while its side's epoch counter (bumped by any mutating apply) still
//! matches, and on the predictor side while the trace-history contents,
//! which change the indexed slots, do too; failed probes back off
//! exponentially so genuinely oscillating workloads pay at most a periodic
//! probe. What must still advance always does: the trace history pushes,
//! the RAS walks, and the BIT replays its probes (its LRU ticks are
//! observable in `Debug` output).
//!
//! Store invalidation: every page (`pc >> 6`, under the checkpoint
//! format's identity word↔pc mapping) holding cached blocks or memoized
//! traces is registered in a page-user index; a store probes that index —
//! first against the last code page, so data stores cost one compare —
//! and queues the page, and queued pages are flushed between traces,
//! killing the blocks and dropping the memo entries decoded from them.
//! The [`Program`] image itself is immutable, so deferring the flush to
//! the trace boundary never changes executed semantics.

use std::sync::Arc;

use tp_cache::DCache;
use tp_core::WarmBoot;
use tp_isa::func::{Machine, PcOutOfRange, Step};
use tp_isa::fxhash::FxHashMap;
use tp_isa::{Inst, Pc, Program};
use tp_trace::{OutcomeSource, SelectionConfig, Selector, Trace, TraceId};

use super::apply_trace_warming;
use super::block::{BlockCache, BlockEnd, Edge};

/// Memoized trace variants kept per start PC; beyond this the slow path
/// still executes correctly, it just stops memoizing new variants.
const MAX_VARIANTS: usize = 256;

/// No cached resolution for this branch position yet.
const UNRESOLVED: u32 = u32::MAX;
/// Cached-resolution flag: the flip ends the trace on entry `r & !RES_HIT`
/// (clear: execution switches to that sibling and continues).
const RES_HIT: u32 = 0x8000_0000;
/// An entry with no learned successor slot / no valid saturation probe.
const NO_SLOT: u32 = u32::MAX;
/// Saturation-probe backoff cap: an entry whose updates keep mutating
/// tables is re-probed at most every `2^SAT_BACKOFF_MAX` applications.
const SAT_BACKOFF_MAX: u8 = 6;

/// Counters reported by [`FastForward::engine_stats`](super::FastForward::engine_stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Traces advanced entirely from the memo table.
    pub memo_hits: u64,
    /// Traces that fell back to live selection (then memoized).
    pub memo_misses: u64,
    /// Mid-image candidate switches on the hit path (a branch resolved
    /// against the speculated MRU candidate).
    pub lead_switches: u64,
    /// Hits whose predictor-table updates were skipped as proven no-ops
    /// (see [`Engine`]'s saturation cache).
    pub saturated_hits: u64,
    /// Superblocks decoded.
    pub blocks_built: u64,
    /// Code pages invalidated by stores.
    pub pages_invalidated: u64,
    /// Blocks killed by invalidation.
    pub blocks_invalidated: u64,
    /// Memoized starts dropped by invalidation.
    pub memos_invalidated: u64,
}

/// One memoized trace: a flat pre-decoded image of its instructions plus
/// every warming update it implies, precomputed so a hit executes one
/// tight loop and replays arrays instead of re-deriving anything.
#[derive(Debug)]
struct MemoEntry {
    /// Embedded conditional-branch count (outcome-tree depth).
    branches: u8,
    /// Outcome mask; bit `i` is the taken-ness of branch `i`.
    mask: u32,
    /// For indirect-ended traces, the observed target that disambiguates
    /// this variant from same-prefix siblings.
    indirect_target: Option<Pc>,
    /// The trace's instructions in order, flattened from cached blocks.
    code: Vec<(Pc, Inst)>,
    trace: Arc<Trace>,
    /// `(pc, taken)` per conditional branch, in trace order (BTB).
    branch_updates: Vec<(Pc, bool)>,
    /// RAS walk, in trace order.
    ras_ops: Vec<RasOp>,
    /// Contiguous fetch segments, in trace order (icache).
    icache_segs: Vec<(Pc, Pc)>,
    /// BIT consults the selection made, in selection order.
    bit_pcs: Vec<Pc>,
    /// Indirect-target training at the trace end, if any.
    indirect_train: Option<(Pc, Pc)>,
    /// Cached divergence resolutions, one per embedded branch: what the
    /// follow loop resolved to the first time actual control flow flipped
    /// that branch while running this image ([`UNRESOLVED`] until then).
    /// Deterministic once computed — see [`Engine::follow`].
    resolve: Vec<u32>,
    /// Learned memo slot of this entry's successor start PC ([`NO_SLOT`]
    /// until observed); every entry's successor is deterministic (direct
    /// ends have a fixed next PC, indirect variants embed their target).
    next_slot: u32,
    /// Saturation cache, branch side: the epoch under which this entry's
    /// BTB updates were proven no-ops ([`u64::MAX`] = no valid probe).
    sat_br_epoch: u64,
    /// Saturation cache, predictor side: the epoch and trace-history
    /// context under which this entry's predictor training was proven a
    /// no-op.
    sat_pred_epoch: u64,
    sat_hist: Vec<TraceId>,
    /// Failed-probe backoffs: applications to let pass before re-probing
    /// each side.
    sat_br_cooldown: u32,
    sat_br_backoff: u8,
    sat_pred_cooldown: u32,
    sat_pred_backoff: u8,
}

#[derive(Clone, Copy, Debug)]
enum RasOp {
    Push(Pc),
    Pop,
}

/// The candidate traces memoized for one start PC.
#[derive(Debug)]
struct MemoSet {
    /// The start PC (validates successor-slot hints; a cleared set keeps
    /// its start but its emptiness routes hints back to the hash).
    start: Pc,
    entries: Vec<MemoEntry>,
    /// Index of the last entry that hit: the speculation seed.
    mru: u32,
}

/// Blocks and memoized starts registered on one code page.
#[derive(Debug, Default)]
struct PageUsers {
    blocks: Vec<u32>,
    memos: Vec<Pc>,
}

/// Branch outcomes already consumed by a partial memo follow; the slow
/// path replays them to the selector instead of re-stepping the machine.
#[derive(Clone, Copy, Debug, Default)]
struct Prefix {
    mask: u32,
    branches: u8,
    /// Set when the followed path ran through a trace-ending indirect
    /// transfer (its target was consumed too).
    indirect: Option<Pc>,
}

/// Outcome of following the memo table through actual execution.
enum Follow {
    /// The executed path matched this `(set slot, entry)` of the memo.
    Hit(u32, usize),
    /// No memoized candidate matches; the machine sits exactly at the end
    /// of the consumed prefix.
    Miss(Prefix),
}

pub(crate) struct Engine {
    selector: Selector,
    blocks: BlockCache,
    /// Start PC → slot in `sets`.
    memo_index: FxHashMap<Pc, u32>,
    sets: Vec<MemoSet>,
    /// Page-user index for O(1) store probes.
    pages: FxHashMap<u64, PageUsers>,
    /// Pages dirtied by stores this trace, flushed at the trace boundary.
    pending: Vec<u64>,
    /// Last dcache line warmed inline (consecutive-access dedupe);
    /// `u64::MAX` after any fill outside the engine's tracking.
    last_dline: u64,
    /// The last trace-cache fill, by id and successor PC.
    last_tcache: Option<(TraceId, Option<Pc>)>,
    /// The last icache line group filled, and scratch for the next one.
    last_icache: Vec<u64>,
    cur_icache: Vec<u64>,
    /// The hit that advanced the previous trace (successor chaining).
    last_hit: Option<(u32, u32)>,
    /// Bumped whenever warming mutates the BTB tables (or they are
    /// replaced under the engine); branch-side saturation probes cached
    /// against an older epoch are invalid.
    br_epoch: u64,
    /// Same, for the next-trace predictor's component tables.
    pred_epoch: u64,
    stats: EngineStats,
}

impl Engine {
    pub fn new(selection: SelectionConfig) -> Engine {
        Engine {
            selector: Selector::new(selection),
            blocks: BlockCache::new(),
            memo_index: FxHashMap::default(),
            sets: Vec::new(),
            pages: FxHashMap::default(),
            pending: Vec::new(),
            last_dline: u64::MAX,
            last_tcache: None,
            last_icache: Vec::new(),
            cur_icache: Vec::new(),
            last_hit: None,
            br_epoch: 0,
            pred_epoch: 0,
            stats: EngineStats::default(),
        }
    }

    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        s.blocks_built = self.blocks.built;
        s
    }

    /// Forgets which lines/traces were filled last. Must be called when
    /// the warm structures are replaced or mutated outside the engine
    /// (e.g. [`FastForward::adopt`](super::FastForward::adopt)): the
    /// dedupe skips are only sound against the engine's own last fill.
    pub fn warm_reset(&mut self) {
        self.last_dline = u64::MAX;
        self.last_tcache = None;
        self.last_icache.clear();
        self.last_hit = None;
        // Replaced tables invalidate every cached saturation probe.
        self.br_epoch += 1;
        self.pred_epoch += 1;
    }

    /// Advances the machine by exactly one canonical trace, warming every
    /// structure bit-identically to the interpreter path.
    pub fn advance_trace(
        &mut self,
        program: &Program,
        machine: &mut Machine<'_>,
        warm: &mut WarmBoot,
    ) -> Result<(), PcOutOfRange> {
        let start = machine.pc();
        let before = machine.retired();
        // Every page-user key is a code page, so `> code_limit` screens
        // data stores off the hash probe with one compare.
        let code_limit = (program.len() as u64).saturating_sub(1) >> 6;
        match self.follow(machine, &mut warm.dcache, code_limit) {
            Follow::Hit(slot, idx) => {
                self.stats.memo_hits += 1;
                self.sets[slot as usize].mru = idx as u32;
                self.last_hit = Some((slot, idx as u32));
                self.apply_memo(program, warm, slot, idx);
            }
            Follow::Miss(prefix) => {
                self.stats.memo_misses += 1;
                self.last_hit = None;
                self.advance_slow(program, machine, warm, before, start, prefix)?;
            }
        }
        self.flush_pending();
        Ok(())
    }

    /// Follows actual execution through the memo table's outcome tree by
    /// running the MRU candidate's flat instruction image and re-picking
    /// the candidate whenever a branch resolves off the current image.
    ///
    /// Candidates sharing a consumed outcome prefix share the instruction
    /// path through it (selection determinism), so every instruction
    /// executed here is part of the trace the selector would pick and a
    /// miss leaves the machine exactly at the end of the consumed prefix.
    /// Mid-image control flow is conditional branches (checked by outcome
    /// the moment they resolve) and direct jumps/calls (fixed targets);
    /// indirect transfers always end traces, so an image cannot silently
    /// leave its path and the per-instruction PC check is debug-only.
    ///
    /// A flip of the branch at position `bk` while running entry `lead`
    /// determines the consumed prefix `(mask, k, i)`, so its resolution —
    /// the trace ends on a terminal sibling, or execution continues on a
    /// prefix-owning sibling — is a pure function of the set's (append-
    /// only) contents and is cached in `lead.resolve[bk]`. A cached result
    /// stays valid as new variants are memoized: selection determinism
    /// forbids a terminal and a continuation candidate for the same
    /// consumed prefix from coexisting, so only an unresolved miss is ever
    /// recomputed.
    fn follow(
        &mut self,
        machine: &mut Machine<'_>,
        dcache: &mut DCache,
        code_limit: u64,
    ) -> Follow {
        let Engine { memo_index, sets, pages, pending, last_dline, last_hit, stats, .. } = self;
        let start = machine.pc();
        // Successor chaining: the previous hit's entry leads here
        // deterministically, so its learned slot skips the hash lookup.
        let hint = last_hit.and_then(|(ps, pi)| {
            let h = sets[ps as usize].entries.get(pi as usize).map_or(NO_SLOT, |e| e.next_slot);
            (h != NO_SLOT
                && sets[h as usize].start == start
                && !sets[h as usize].entries.is_empty())
            .then_some(h)
        });
        let slot = match hint {
            Some(h) => h,
            None => {
                let Some(&s) = memo_index.get(&start) else {
                    return Follow::Miss(Prefix::default());
                };
                if let Some((ps, pi)) = *last_hit {
                    if let Some(e) = sets[ps as usize].entries.get_mut(pi as usize) {
                        e.next_slot = s;
                    }
                }
                s
            }
        };
        let sx = slot as usize;
        if sets[sx].entries.is_empty() {
            return Follow::Miss(Prefix::default());
        }
        let mut lead = (sets[sx].mru as usize).min(sets[sx].entries.len() - 1);
        let mut mask = 0u32;
        let mut k = 0u8;
        let mut i = 0usize;
        loop {
            let e = &sets[sx].entries[lead];
            let mut flipped = false;
            for &(pc, inst) in &e.code[i..] {
                debug_assert_eq!(machine.pc(), pc, "image diverged without a branch");
                let step = machine.exec_decoded(pc, inst);
                if let Some(ea) = step.ea {
                    let line = ea >> 6;
                    if line != *last_dline {
                        dcache.warm_access(ea);
                        *last_dline = line;
                    }
                    if matches!(inst, Inst::Store { .. }) {
                        // word index = ea >> 3, page = word >> 6.
                        let page = ea >> 9;
                        if page <= code_limit && pages.contains_key(&page) {
                            pending.push(page);
                        }
                    }
                }
                i += 1;
                if let Some(taken) = step.taken {
                    let expected = (e.mask >> k) & 1 == 1;
                    if taken {
                        mask |= 1 << k;
                    }
                    k += 1;
                    // Resolve a disagreeing outcome the moment the branch
                    // does: by outcome, not PC, since a branch whose two
                    // targets coincide diverges invisibly to a PC check.
                    if taken != expected {
                        flipped = true;
                        break;
                    }
                }
            }
            if !flipped {
                // Every branch agreed through the whole image, so the
                // consumed outcomes are exactly this entry's identity.
                debug_assert_eq!(k, e.branches);
                debug_assert_eq!(mask, e.mask);
                match e.indirect_target {
                    None => return Follow::Hit(slot, lead),
                    // The trace-ending transfer consumed its target too;
                    // same-prefix variants differ only by it.
                    Some(t) if t == machine.pc() => return Follow::Hit(slot, lead),
                    Some(_) => {
                        let target = machine.pc();
                        let entries = &sets[sx].entries;
                        for (j, s) in entries.iter().enumerate() {
                            if s.branches == k
                                && s.mask == mask
                                && s.indirect_target == Some(target)
                            {
                                return Follow::Hit(slot, j);
                            }
                        }
                        return Follow::Miss(Prefix { mask, branches: k, indirect: Some(target) });
                    }
                }
            }
            // The branch at position `k - 1` flipped: resolve from the
            // cache, or scan once — the trace either ends exactly here on
            // a terminal sibling's identity, or continues on the sibling
            // owning the consumed prefix.
            let bk = (k - 1) as usize;
            let mut r = sets[sx].entries[lead].resolve[bk];
            if r == UNRESOLVED {
                let entries = &sets[sx].entries;
                let terminal = entries.iter().position(|s| {
                    s.branches == k
                        && s.mask == mask
                        && s.code.len() == i
                        && s.indirect_target.is_none()
                });
                r = match terminal {
                    Some(j) => RES_HIT | j as u32,
                    None => match pick(entries, mask, k, i, machine.pc()) {
                        Some(l) => l as u32,
                        None => return Follow::Miss(Prefix { mask, branches: k, indirect: None }),
                    },
                };
                sets[sx].entries[lead].resolve[bk] = r;
            }
            if r & RES_HIT != 0 {
                return Follow::Hit(slot, (r & !RES_HIT) as usize);
            }
            stats.lead_switches += 1;
            lead = r as usize;
        }
    }

    /// Replays a memo hit's precomputed warming in one pass. Per-structure
    /// update sequences are identical to the interpreter path's (the
    /// dcache was warmed inline during the image run), except that table
    /// updates *proven to be no-ops* are elided:
    ///
    /// When the BTB counters this entry trains are all saturated in their
    /// update's direction, the trained indirect target already matches,
    /// and both predictor components already predict this trace at full
    /// confidence, replaying the updates would change nothing but
    /// unserialized statistics — checkpoint images carry tables, not
    /// stats. That proof is cached per entry against the engine epoch
    /// (bumped by any table-mutating apply), plus, on the predictor side,
    /// the exact trace-history context it was made under, so stable phases
    /// validate it with a few compares per trace. The serialized trace
    /// history and the BIT (whose consult ticks are observable) always
    /// advance.
    fn apply_memo(&mut self, program: &Program, warm: &mut WarmBoot, slot: u32, idx: usize) {
        let Engine {
            sets,
            selector,
            br_epoch,
            pred_epoch,
            last_tcache,
            last_icache,
            cur_icache,
            stats,
            ..
        } = self;
        let e = &mut sets[slot as usize].entries[idx];
        for &pc in &e.bit_pcs {
            selector.replay_bit(program, &mut warm.bit, pc);
        }
        // Branch side: BTB counters and the indirect target.
        let mut br_sat = e.sat_br_epoch == *br_epoch;
        if !br_sat {
            if e.sat_br_cooldown > 0 {
                e.sat_br_cooldown -= 1;
            } else if warm.btb.cond_run_saturated(&e.branch_updates)
                && e.indirect_train.is_none_or(|(pc, t)| warm.btb.indirect_is(pc, t))
            {
                br_sat = true;
                e.sat_br_epoch = *br_epoch;
                e.sat_br_backoff = 0;
            } else {
                e.sat_br_epoch = u64::MAX;
                e.sat_br_backoff = (e.sat_br_backoff + 1).min(SAT_BACKOFF_MAX);
                e.sat_br_cooldown = 1 << e.sat_br_backoff;
            }
        }
        if !br_sat {
            for &(pc, taken) in &e.branch_updates {
                warm.btb.update_cond(pc, taken);
            }
            if let Some((pc, target)) = e.indirect_train {
                warm.btb.update_indirect(pc, target);
            }
            if !e.branch_updates.is_empty() || e.indirect_train.is_some() {
                *br_epoch += 1;
            }
        }
        // Predictor side: both component tables.
        let mut pred_sat = e.sat_pred_epoch == *pred_epoch && warm.history.ids() == &e.sat_hist[..];
        if !pred_sat {
            if e.sat_pred_cooldown > 0 {
                e.sat_pred_cooldown -= 1;
            } else if warm.predictor.train_is_noop(&warm.history, e.trace.id()) {
                pred_sat = true;
                e.sat_pred_epoch = *pred_epoch;
                e.sat_hist.clear();
                e.sat_hist.extend_from_slice(warm.history.ids());
                e.sat_pred_backoff = 0;
            } else {
                e.sat_pred_epoch = u64::MAX;
                e.sat_pred_backoff = (e.sat_pred_backoff + 1).min(SAT_BACKOFF_MAX);
                e.sat_pred_cooldown = 1 << e.sat_pred_backoff;
            }
        }
        if pred_sat {
            stats.saturated_hits += 1;
        } else {
            warm.predictor.train(&warm.history, e.trace.id());
            *pred_epoch += 1;
        }
        for op in &e.ras_ops {
            match *op {
                RasOp::Push(ra) => warm.ras.push(ra),
                RasOp::Pop => {
                    let _ = warm.ras.pop();
                }
            }
        }
        // Skip the icache refill if it repeats the previous fill group
        // exactly: those lines are already the most-recently-used, so
        // re-touching them changes neither residency nor capture order.
        let li = warm.icache.line_insts() as u64;
        cur_icache.clear();
        for &(from, to) in &e.icache_segs {
            cur_icache.extend(from as u64 / li..=to as u64 / li);
        }
        if *cur_icache != *last_icache {
            for &(from, to) in &e.icache_segs {
                warm.icache.warm_range(from, to);
            }
            std::mem::swap(last_icache, cur_icache);
        }
        warm.history.push(e.trace.id());
        // Same dedupe for the trace cache: an identical consecutive fill
        // (same id *and* successor — indirect variants share ids) only
        // re-touches the MRU entry.
        let key = (e.trace.id(), e.trace.next_pc());
        if *last_tcache != Some(key) {
            warm.tcache.fill(Arc::clone(&e.trace));
            *last_tcache = Some(key);
        }
    }

    /// The miss path: run the real selector once, replaying the consumed
    /// outcome prefix, then memoize the selected trace.
    fn advance_slow(
        &mut self,
        program: &Program,
        machine: &mut Machine<'_>,
        warm: &mut WarmBoot,
        before: u64,
        start: Pc,
        prefix: Prefix,
    ) -> Result<(), PcOutOfRange> {
        let mut consults = Vec::new();
        let selection = {
            let mut outcomes = ReplayOutcomes {
                mask: prefix.mask,
                branches: prefix.branches,
                indirect: prefix.indirect,
                machine,
                dcache: &mut warm.dcache,
                pages: &self.pages,
                pending: &mut self.pending,
                err: None,
            };
            let sel = self.selector.select_bounded_recording(
                program,
                start,
                &mut warm.bit,
                &mut outcomes,
                None,
                &mut consults,
            );
            if let Some(e) = outcomes.err {
                return Err(e);
            }
            sel
        };
        let trace = Arc::new(selection.trace);
        while machine.retired() - before < trace.len() as u64 {
            step_store_checked(machine, &mut warm.dcache, &self.pages, &mut self.pending)?;
        }
        debug_assert_eq!(
            machine.retired() - before,
            trace.len() as u64,
            "machine and selection disagree on trace length at pc {start}"
        );
        let tcache_key = (trace.id(), trace.next_pc());
        apply_trace_warming(program, warm, &trace);
        self.memoize(program, start, trace, consults);
        // The slow path filled structures without the engine's dedupe
        // tracking; re-seed it from what it just filled, and invalidate
        // cached saturation probes (tables were mutated).
        self.br_epoch += 1;
        self.pred_epoch += 1;
        self.last_tcache = Some(tcache_key);
        self.last_icache.clear();
        self.last_dline = u64::MAX;
        Ok(())
    }

    /// Memoizes a freshly selected trace under its start PC.
    fn memoize(&mut self, program: &Program, start: Pc, trace: Arc<Trace>, bit_pcs: Vec<Pc>) {
        let insts = trace.insts();
        let Some(last) = insts.last() else { return };
        let end_indirect = last.inst.is_indirect();
        let indirect_target = if end_indirect { trace.next_pc() } else { None };
        if end_indirect && indirect_target.is_none() {
            // Without the target the variant cannot be disambiguated.
            return;
        }
        let id = trace.id();
        let slot = match self.memo_index.get(&start) {
            Some(&s) => s,
            None => {
                let s = self.sets.len() as u32;
                self.sets.push(MemoSet { start, entries: Vec::new(), mru: 0 });
                self.memo_index.insert(start, s);
                s
            }
        };
        {
            let set = &self.sets[slot as usize];
            if set.entries.len() >= MAX_VARIANTS {
                return;
            }
            if set.entries.iter().any(|e| {
                e.branches == id.branches()
                    && e.mask == id.mask()
                    && e.indirect_target == indirect_target
            }) {
                return;
            }
        }
        let Some(code) = build_code(&mut self.blocks, &mut self.pages, program, &trace) else {
            return;
        };
        let mut branch_updates = Vec::new();
        let mut ras_ops = Vec::new();
        for ti in insts {
            match ti.inst {
                Inst::Branch { .. } => branch_updates.push((
                    ti.pc,
                    ti.embedded_taken.expect("actual-outcome trace embeds outcomes"),
                )),
                Inst::Call { .. } | Inst::CallIndirect { .. } => {
                    ras_ops.push(RasOp::Push(ti.pc + 1));
                }
                Inst::Ret => ras_ops.push(RasOp::Pop),
                _ => {}
            }
        }
        let mut icache_segs = Vec::new();
        let mut seg_start = insts[0].pc;
        let mut prev = insts[0].pc;
        for ti in &insts[1..] {
            if ti.pc != prev + 1 {
                icache_segs.push((seg_start, prev));
                seg_start = ti.pc;
            }
            prev = ti.pc;
        }
        icache_segs.push((seg_start, prev));
        let indirect_train = match (end_indirect, trace.next_pc()) {
            (true, Some(t)) if program.contains(t) => Some((last.pc, t)),
            _ => None,
        };
        // Register every code page the trace spans so stores there drop it.
        let mut tpages: Vec<u64> = insts.iter().map(|ti| (ti.pc as u64) >> 6).collect();
        tpages.sort_unstable();
        tpages.dedup();
        for page in tpages {
            let users = self.pages.entry(page).or_default();
            if !users.memos.contains(&start) {
                users.memos.push(start);
            }
        }
        let set = &mut self.sets[slot as usize];
        set.mru = set.entries.len() as u32;
        set.entries.push(MemoEntry {
            branches: id.branches(),
            mask: id.mask(),
            indirect_target,
            code,
            trace,
            branch_updates,
            ras_ops,
            icache_segs,
            bit_pcs,
            indirect_train,
            resolve: vec![UNRESOLVED; id.branches() as usize],
            next_slot: NO_SLOT,
            sat_br_epoch: u64::MAX,
            sat_pred_epoch: u64::MAX,
            sat_hist: Vec::new(),
            sat_br_cooldown: 0,
            sat_br_backoff: 0,
            sat_pred_cooldown: 0,
            sat_pred_backoff: 0,
        });
    }

    /// Applies queued store invalidations: kills blocks and drops memoized
    /// starts on each dirtied page, then severs all chains.
    fn flush_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        // A cleared set invalidates any hit or successor hint into it.
        self.last_hit = None;
        while let Some(page) = self.pending.pop() {
            let Some(users) = self.pages.remove(&page) else { continue };
            self.stats.pages_invalidated += 1;
            for bid in users.blocks {
                if self.blocks.kill(bid) {
                    self.stats.blocks_invalidated += 1;
                }
            }
            for start in users.memos {
                if let Some(slot) = self.memo_index.remove(&start) {
                    self.sets[slot as usize].entries.clear();
                    self.stats.memos_invalidated += 1;
                }
            }
        }
        self.blocks.bump_epoch();
    }
}

/// The sibling of a memo set owning the consumed outcome prefix `(mask,
/// k)` and extending past instruction `i` at `pc` — the candidate to
/// resume flat execution on, if any.
///
/// Prefix-sharing candidates share their instruction path (selection
/// determinism), so the executed prefix `[0, i)` is also a prefix of the
/// returned entry's image; the `code[i]` PC check is defensive.
#[inline]
fn pick(entries: &[MemoEntry], mask: u32, k: u8, i: usize, pc: Pc) -> Option<usize> {
    let low = ((1u64 << k) - 1) as u32;
    entries.iter().position(|e| {
        e.code.len() > i
            && e.code[i].0 == pc
            && if e.branches <= k {
                e.branches == k && e.mask == mask
            } else {
                (e.mask & low) == mask
            }
    })
}

/// Flattens a trace's instructions by walking the block cache along its
/// path: blocks are looked up (or decoded and registered in the page-user
/// index) per control-flow boundary and chained by the trace's observed
/// successors, so overlapping traces share decoded blocks and later walks
/// follow chains instead of hashing.
fn build_code(
    blocks: &mut BlockCache,
    pages: &mut FxHashMap<u64, PageUsers>,
    program: &Program,
    trace: &Trace,
) -> Option<Vec<(Pc, Inst)>> {
    let insts = trace.insts();
    let mut code = Vec::with_capacity(insts.len());
    let mut link: Option<(u32, Edge)> = None;
    let mut i = 0;
    while i < insts.len() {
        let bid = next_block(blocks, pages, program, &mut link, insts[i].pc)?;
        let b = blocks.get(bid);
        let mut pc = b.start;
        let mut j = 0;
        while j < b.len() && i < insts.len() && insts[i].pc == pc {
            code.push((pc, b.insts[j]));
            i += 1;
            j += 1;
            pc += 1;
        }
        if i >= insts.len() {
            break;
        }
        if j < b.len() {
            // The trace left the block mid-body: inconsistent with the
            // block invariant (control transfers only at block ends).
            debug_assert!(false, "trace leaves a block mid-body at pc {pc}");
            return None;
        }
        link = match b.end {
            BlockEnd::Cond => {
                let taken = insts[i - 1].embedded_taken.expect("trace embeds branch outcomes");
                Some((bid, if taken { Edge::Taken } else { Edge::Seq }))
            }
            BlockEnd::Jump { .. } | BlockEnd::Cap => Some((bid, Edge::Seq)),
            BlockEnd::Indirect => Some((bid, Edge::Ind(insts[i].pc))),
            BlockEnd::Halt | BlockEnd::OutOfProgram => None,
        };
    }
    Some(code)
}

/// Resolves the block at `pc`: chained, indexed, or freshly decoded (newly
/// decoded blocks register their code pages; a pending `link` is chained to
/// the result so the next visit skips the hash lookup).
fn next_block(
    blocks: &mut BlockCache,
    pages: &mut FxHashMap<u64, PageUsers>,
    program: &Program,
    link: &mut Option<(u32, Edge)>,
    pc: Pc,
) -> Option<u32> {
    if let Some((from, edge)) = *link {
        if let Some(to) = blocks.follow_chain(from, edge) {
            debug_assert_eq!(blocks.get(to).start, pc, "chained block starts at the wrong pc");
            *link = None;
            return Some(to);
        }
    }
    let bid = match blocks.lookup(pc) {
        Some(id) => id,
        None => {
            let id = blocks.decode(program, pc)?;
            let b = blocks.get(id);
            let first = (b.start as u64) >> 6;
            let last = (b.start as u64 + b.len() as u64 - 1) >> 6;
            for page in first..=last {
                pages.entry(page).or_default().blocks.push(id);
            }
            id
        }
    };
    if let Some((from, edge)) = link.take() {
        blocks.chain(from, edge, bid);
    }
    Some(bid)
}

/// Steps the machine once, warming the dcache and probing the page-user
/// index on stores (the slow path's equivalent of the follow loop).
fn step_store_checked(
    machine: &mut Machine<'_>,
    dcache: &mut DCache,
    pages: &FxHashMap<u64, PageUsers>,
    pending: &mut Vec<u64>,
) -> Result<Step, PcOutOfRange> {
    let step = machine.step()?;
    if let Some(ea) = step.ea {
        dcache.warm_access(ea);
        if matches!(step.inst, Inst::Store { .. }) {
            let page = ea >> 9;
            if pages.contains_key(&page) {
                pending.push(page);
            }
        }
    }
    Ok(step)
}

/// An [`OutcomeSource`] that replays a consumed outcome prefix, then
/// answers from live execution exactly like the interpreter path's stream.
struct ReplayOutcomes<'a, 'm, 'p> {
    mask: u32,
    branches: u8,
    indirect: Option<Pc>,
    machine: &'m mut Machine<'p>,
    dcache: &'a mut DCache,
    pages: &'a FxHashMap<u64, PageUsers>,
    pending: &'a mut Vec<u64>,
    err: Option<PcOutOfRange>,
}

impl ReplayOutcomes<'_, '_, '_> {
    fn step_to(&mut self, pc: Pc) -> Option<Step> {
        for _ in 0..256 {
            let step = match step_store_checked(self.machine, self.dcache, self.pages, self.pending)
            {
                Ok(s) => s,
                Err(e) => {
                    self.err = Some(e);
                    return None;
                }
            };
            if step.pc == pc {
                return Some(step);
            }
        }
        panic!("fast-forward diverged from trace selection: never reached pc {pc}");
    }
}

impl OutcomeSource for ReplayOutcomes<'_, '_, '_> {
    fn cond_outcome(&mut self, index: u8, pc: Pc, _inst: Inst) -> bool {
        if index < self.branches {
            (self.mask >> index) & 1 == 1
        } else {
            self.step_to(pc).and_then(|s| s.taken).unwrap_or(false)
        }
    }

    fn indirect_target(&mut self, pc: Pc, _inst: Inst) -> Option<Pc> {
        if let Some(t) = self.indirect.take() {
            return Some(t);
        }
        self.step_to(pc).map(|s| s.next_pc)
    }
}
