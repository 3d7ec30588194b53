//! The simulator's **books**: one accounting call per happening.
//!
//! Everything the simulator records about itself is written here: the
//! [`SimStats`] counters, the misprediction outcome-attribution ledger
//! ([`RecoveryAttribution`]), the bookkeeping [`WorkCounters`], and the
//! structured events of the [`EventBus`]. [`Books`] has one method per
//! happening (a trace dispatched, a trace squashed, a recovery applied, a
//! CGCI attempt closed, ...), which updates the counters and the ledger
//! and reports the matching event. So the event stream, the ledger and
//! `SimStats` agree by construction: a happening cannot be counted without
//! being reported, or charged to the ledger without being counted.
//!
//! The fields are private to this module, so the pipeline stages can keep
//! the books only through these methods. Every method is `#[inline]` and
//! statically dispatched, and builds its event only when an attached sink
//! wants the event's category: an unattached run pays one mask test per
//! happening and never calls a sink.
//!
//! The books keep the simulator's only clock: `SimStats::cycles`, the
//! cycles elapsed before the current one, advanced once per cycle by
//! [`Books::cycle_ended`]. Events are stamped with it, and the stages read
//! it as `TraceProcessor::now`, so an event cannot be stamped off by a
//! cycle. Otherwise the books are observation-only: the simulator reads
//! back the clock and the retired-instruction count (run budgets, the
//! retired frontier, error messages), never anything that steers it.
//!
//! The books also hold the unresolved CGCI attempt. The attempt itself is
//! driven by the fetch mode; its costs, its close event and the migration
//! of its provisional retirement count are accounting.

use tp_events::{
    BusChannel, Category, Event, EventBus, EventSink, FetchPath, MispredictKind, RecoveryPlan,
    StallReason,
};
use tp_isa::Pc;
use tp_stats::attr::{AttrKey, Heuristic, RecoveryAttribution, RecoveryOutcome};
use tp_trace::{SelectionStats, Trace, TraceInst};

use crate::pe::{Pe, SlotSide};
use crate::pe_list::PeQueue;
use crate::stats::{SimStats, WorkCounters};

/// One dynamic conditional branch in the window. Generations are bumped by
/// every repair, but `(pe, dispatched_at)` identifies the trace *instance*,
/// so a freed-and-refilled PE holding the same trace shape is not taken
/// for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct BranchAt {
    pub pe: usize,
    pub slot: usize,
    pub pc: Pc,
    /// Dispatch cycle of the branch's trace.
    pub dispatched_at: u64,
}

/// The unresolved CGCI attempt. It closes as `CgciReconverged` when fetch
/// detects re-convergence, or as `CgciFailed` when the insertion mode is
/// torn down any other way (window pressure, preserved trace lost,
/// preemption by another recovery).
#[derive(Clone, Copy, Debug)]
struct CgciPending {
    /// Ledger coordinate; its outcome is provisional.
    key: AttrKey,
    /// The faulting branch, whose slot is back-annotated at the close.
    branch: BranchAt,
    started_at: u64,
    /// Start PC of the detected re-convergent trace.
    reconv_pc: Pc,
    /// Traces squashed on behalf of the attempt so far.
    squashed: u64,
    /// The faulting branch already retired under the provisional outcome;
    /// a close with another outcome migrates that count.
    retired_provisionally: bool,
}

/// The simulator's counters, ledger, work counters and event bus (see the
/// module docs).
#[derive(Default)]
pub(super) struct Books {
    stats: SimStats,
    ledger: RecoveryAttribution,
    work: WorkCounters,
    events: EventBus,
    cgci: Option<CgciPending>,
}

impl Books {
    #[inline]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    pub fn ledger(&self) -> &RecoveryAttribution {
        &self.ledger
    }

    pub fn work(&self) -> WorkCounters {
        self.work
    }

    pub fn attach(&mut self, sink: Box<dyn EventSink>) {
        self.events.attach(sink);
    }

    pub fn attached(&self) -> bool {
        self.events.is_attached()
    }

    /// Reports `event` when a sink wants `cat`; `event` is built only then.
    #[inline]
    fn report(&mut self, cat: Category, event: impl FnOnce() -> Event) {
        if self.events.wants(cat) {
            self.events.emit(self.stats.cycles, event());
        }
    }

    /// Hands the event bus out, first closing every still-resident trace
    /// (`(pe, start pc)`) with a synthetic `TraceSquashed { drained: true }`,
    /// so each dispatch is matched by exactly one close even when the run
    /// ends mid-flight. Counts nothing.
    pub fn release(&mut self, resident: impl Iterator<Item = (usize, Pc)>) -> EventBus {
        for (pe, pc) in resident {
            self.report(Category::Trace, || Event::TraceSquashed {
                pe: pe as u8,
                pc,
                drained: true,
            });
        }
        std::mem::take(&mut self.events)
    }

    /// Fetch obtained `trace` by `source`.
    #[inline]
    pub fn fetched(&mut self, trace: &Trace, source: FetchPath) {
        let (pc, len) = (trace.id().start(), trace.len().min(255) as u8);
        self.report(Category::Trace, || Event::TraceFetched { pc, len, source });
    }

    /// Fetch probed the trace cache for a predicted trace.
    #[inline]
    pub fn tcache_probed(&mut self, hit: bool) {
        self.stats.tcache_lookups += 1;
        self.stats.tcache_misses += u64::from(!hit);
    }

    /// A trace selection (construction or repair) took BIT misses.
    #[inline]
    pub fn bit_misses(&mut self, sel: SelectionStats) {
        self.stats.bit_miss_handlers += u64::from(sel.bit_misses);
        self.stats.bit_miss_cycles += u64::from(sel.bit_miss_cycles);
    }

    /// A trace of `len` slots entered `pe`, at the tail or, under CGCI
    /// insertion, in the middle of the window.
    #[inline]
    pub fn dispatched(&mut self, pe: usize, pc: Pc, len: usize, cgci_insert: bool) {
        self.stats.dispatched_traces += 1;
        let (pe, len) = (pe as u8, len.min(255) as u8);
        self.report(Category::Trace, || Event::TraceDispatched { pe, pc, len, cgci_insert });
    }

    /// The window head in `pe` could not retire this cycle.
    #[inline]
    pub fn head_stall(&mut self, pe: usize, reason: StallReason) {
        self.report(Category::Occupancy, || Event::HeadStall { pe: pe as u8, reason });
    }

    /// `n` stale live-in bindings of the head were re-grounded.
    #[inline]
    pub fn head_rebound(&mut self, n: u64) {
        self.stats.head_rebinds += n;
    }

    /// The conditional branch in slot `s`, at `branch`, retired. A
    /// mispredicted one counts in its slot's ledger cell, or as a plain full
    /// squash when no recovery attributed it; under its own pending CGCI
    /// attempt it counts under the provisional outcome, and the attempt's
    /// close migrates the count if needed.
    #[inline]
    pub fn branch_retired(&mut self, ti: &TraceInst, s: &SlotSide, branch: BranchAt) {
        self.stats.retired_cond_branches += 1;
        if !s.was_mispredicted {
            return;
        }
        self.stats.retired_cond_mispredicts += 1;
        let class = ti.ci_branch_class().expect("mispredicted slot is a cond branch");
        let key = s.attr.unwrap_or((class, Heuristic::None, RecoveryOutcome::FullSquash));
        // The per-cell `retired` counts sum to `retired_cond_mispredicts`.
        self.ledger.cell_mut(key).retired += 1;
        if let Some(p) = self.cgci.as_mut().filter(|p| p.branch == branch) {
            p.retired_provisionally = true;
        }
    }

    /// The head trace in `pe` committed. `repaired` says whether it was
    /// repaired in place (a trace misprediction).
    #[inline]
    pub fn retired_trace(&mut self, pe: usize, t: &Trace, source: FetchPath, repaired: bool) {
        self.stats.retired_traces += 1;
        self.stats.retired_instrs += t.len() as u64;
        self.stats.predicted_traces += u64::from(source != FetchPath::Fallback);
        self.stats.trace_mispredictions += u64::from(repaired);
        let (pe, pc, len) = (pe as u8, t.id().start(), t.len().min(255) as u8);
        self.report(Category::Trace, || Event::TraceRetired { pe, pc, len });
    }

    /// A retirement safety net squashed a stale or inconsistent window.
    #[inline]
    pub fn safety_squash(&mut self) {
        self.stats.full_squashes += 1;
    }

    /// Execution registered a fault on slot `slot` of `pe`.
    #[inline]
    pub fn mispredict_detected(&mut self, pe: usize, slot: usize, pc: Pc, kind: MispredictKind) {
        let (pe, slot) = (pe as u8, slot.min(255) as u8);
        self.report(Category::Recovery, || Event::MispredictDetected { pe, slot, pc, kind });
    }

    /// The predicted successor of an indirect transfer was wrong (a trace
    /// misprediction no repair counts).
    #[inline]
    pub fn successor_mispredicted(&mut self) {
        self.stats.trace_mispredictions += 1;
    }

    /// Recovery committed to `plan` for the fault at `branch_pc` in `pe`.
    #[inline]
    pub fn recovery_started(&mut self, pe: usize, branch_pc: Pc, plan: RecoveryPlan) {
        self.stats.full_squashes += u64::from(plan == RecoveryPlan::FullSquash);
        let pe = pe as u8;
        self.report(Category::Recovery, || Event::RecoveryStarted { pe, branch_pc, plan });
    }

    /// A conditional-branch full squash is charged to `key`: `squashed`
    /// traces and `cycles` of trace-repair occupancy.
    #[inline]
    pub fn full_squash_charged(&mut self, key: AttrKey, squashed: u64, cycles: u64) {
        let cell = self.ledger.cell_mut(key);
        cell.events += 1;
        cell.traces_squashed += squashed;
        cell.recovery_cycles += cycles;
    }

    /// A scheduled recovery in `pe` was abandoned: its fault went stale.
    #[inline]
    pub fn recovery_abandoned(&mut self, pe: usize) {
        self.report(Category::Recovery, || Event::RecoveryAbandoned { pe: pe as u8 });
    }

    /// A recovery's fault stood at its apply point: the embedded prediction
    /// of the branch in slot `slot` of PE `pe` (`p`) really was wrong, and
    /// its trace is repaired. The slot is marked mispredicted and tagged
    /// with its ledger cell `key` here, not at detection, so transient
    /// faults never count.
    #[inline]
    pub fn recovery_applied(&mut self, pe: usize, p: &mut Pe, slot: usize, key: AttrKey) {
        let side = p.side_mut(slot);
        (side.was_mispredicted, side.attr) = (true, Some(key));
        let (trace, source) = (&p.trace, p.source);
        let (pe, branch_pc) = (pe as u8, trace.insts()[slot].pc);
        self.report(Category::Recovery, || {
            let prefix = &trace.insts()[..slot];
            let branch_idx = prefix.iter().filter(|ti| ti.inst.is_cond_branch()).count() as u8;
            let id_branches = trace.id().branches();
            Event::RecoveryApplied { pe, branch_pc, branch_idx, id_branches, source }
        });
        self.report(Category::Trace, || Event::TraceRepaired { pe, branch_pc });
    }

    /// An FGCI repair charged to `key` completed after `cycles` of repair
    /// occupancy, preserving every younger trace (`kept`, in window order).
    #[inline]
    pub fn fgci_applied(&mut self, key: AttrKey, cycles: u64, kept: &PeQueue, pes: &[Pe]) {
        self.stats.fgci_recoveries += 1;
        self.preserved(kept, pes);
        let cell = self.ledger.cell_mut(key);
        cell.events += 1;
        cell.recovery_cycles += cycles;
        cell.traces_preserved += kept.len() as u64;
    }

    /// The control-independent traces in `kept` survived a recovery.
    #[inline]
    fn preserved(&mut self, kept: &PeQueue, pes: &[Pe]) {
        self.stats.preserved_traces += kept.len() as u64;
        for pe in kept.iter() {
            let pc = pes[pe].trace.id().start();
            self.report(Category::Trace, || Event::TracePreserved { pe: pe as u8, pc });
        }
    }

    /// A CGCI attempt opened for the mispredicted `branch`, charged to `key`
    /// (its outcome provisional): a heuristic located the re-convergent
    /// trace at `reconv_pc`, and `squashed` control-dependent traces were
    /// squashed. It is charged to the ledger when it closes
    /// ([`Books::cgci_closed`]).
    #[inline]
    pub fn cgci_opened(&mut self, key: AttrKey, branch: BranchAt, reconv_pc: Pc, squashed: u64) {
        self.stats.cgci_attempts += 1;
        self.cgci = Some(CgciPending {
            key,
            branch,
            started_at: self.stats.cycles,
            reconv_pc,
            squashed,
            retired_provisionally: false,
        });
        let (class, heuristic, branch_pc) = (key.0, key.1, branch.pc);
        self.report(Category::Cgci, || Event::CgciOpened {
            class,
            heuristic,
            branch_pc,
            reconv_pc,
        });
    }

    /// The pending CGCI insertion was abandoned because the window filled:
    /// `victims` preserved traces are reclaimed on its behalf.
    #[inline]
    pub fn insertion_abandoned(&mut self, victims: u64) {
        self.stats.tail_reclaims += victims;
        if let Some(p) = self.cgci.as_mut() {
            p.squashed += victims;
        }
    }

    /// Fetch detected re-convergence: the traces in `kept` (window order)
    /// are preserved, and the pending attempt closes as re-converged.
    #[inline]
    pub fn cgci_reconverged(&mut self, kept: &PeQueue, pes: &mut [Pe]) -> Option<AttrKey> {
        self.stats.cgci_reconverged += 1;
        self.preserved(kept, pes);
        self.cgci_closed(RecoveryOutcome::CgciReconverged, kept.len() as u64, pes)
    }

    /// Closes the pending CGCI attempt, if any, with `outcome`: its costs go
    /// to the `(class, heuristic, outcome)` cell, a provisional retirement
    /// count migrates there, and the close is reported, so closes per cell
    /// equal the cell's `events`. The faulting branch's slot is re-tagged
    /// with the cell when it is still identifiable (it may have been
    /// replaced or retired while the attempt ran). Returns the cell.
    #[inline]
    pub fn cgci_closed(
        &mut self,
        outcome: RecoveryOutcome,
        preserved: u64,
        pes: &mut [Pe],
    ) -> Option<AttrKey> {
        let p = self.cgci.take()?;
        let key = (p.key.0, p.key.1, outcome);
        if p.retired_provisionally && key != p.key {
            self.ledger.cell_mut(p.key).retired -= 1;
            self.ledger.cell_mut(key).retired += 1;
        }
        let cell = self.ledger.cell_mut(key);
        cell.events += 1;
        cell.traces_squashed += p.squashed;
        cell.traces_preserved += preserved;
        cell.recovery_cycles += self.stats.cycles.saturating_sub(p.started_at);
        self.report(Category::Cgci, || Event::CgciClosed {
            class: key.0,
            heuristic: key.1,
            outcome,
            squashed: p.squashed as u32,
            preserved: preserved as u32,
            branch_pc: p.branch.pc,
            reconv_pc: p.reconv_pc,
        });
        let (b, q) = (p.branch, &mut pes[p.branch.pe]);
        if q.occupied && q.dispatched_at == b.dispatched_at {
            let holds = b.slot < q.slots.len() && q.inst(b.slot).pc == b.pc;
            if holds && q.side(b.slot).was_mispredicted {
                q.side_mut(b.slot).attr = Some(key);
            }
        }
        Some(key)
    }

    /// The resident trace in `pe` was squashed.
    #[inline]
    pub fn squashed(&mut self, pe: usize, pc: Pc) {
        self.stats.squashed_traces += 1;
        self.report(Category::Trace, || Event::TraceSquashed { pe: pe as u8, pc, drained: false });
    }

    /// A re-dispatch pass walked the preserved trace in `pe`, charged to
    /// `key` when the pass has one.
    #[inline]
    pub fn redispatched(&mut self, pe: usize, pc: Pc, key: Option<AttrKey>) {
        self.stats.redispatched_traces += 1;
        if let Some(key) = key {
            self.ledger.cell_mut(key).traces_redispatched += 1;
        }
        self.report(Category::Trace, || Event::TraceRedispatched { pe: pe as u8, pc });
    }

    /// The issue stage issued `issued` instructions this cycle, `reissued`
    /// of them beyond their slot's first issue.
    #[inline]
    pub fn issued(&mut self, issued: u64, reissued: u64) {
        self.stats.issue_events += issued;
        self.stats.reissue_events += reissued;
        if issued > 0 {
            let (issued, reissued) = (issued.min(255) as u8, reissued.min(255) as u8);
            self.report(Category::Occupancy, || Event::IssueSample { issued, reissued });
        }
    }

    /// `n` operands were marked for reissue because their producer's value
    /// changed after they consumed it.
    #[inline]
    pub fn value_change_marked(&mut self, n: u64) {
        self.stats.value_change_marks += n;
    }

    /// A slot was marked for reissue because its source names were rebound.
    #[inline]
    pub fn rebind_marked(&mut self) {
        self.stats.rebind_marks += 1;
    }

    /// `n` loads were forced to reissue by ARB snooping.
    #[inline]
    pub fn load_snoop_reissued(&mut self, n: u64) {
        self.stats.load_snoop_reissues += n;
    }

    /// An arbiter pass over `bus` found `waiting` requests and granted
    /// `granted` of them.
    #[inline]
    pub fn bus_arbitrated(&mut self, bus: BusChannel, waiting: usize, granted: usize) {
        if waiting > 0 {
            let (waiting, granted) = (waiting.min(255) as u8, granted.min(255) as u8);
            self.report(Category::Bus, || Event::BusSample { bus, waiting, granted });
        }
    }

    /// The cycle ended with `occupied` PEs and `queued` fetched traces.
    #[inline]
    pub fn cycle_ended(&mut self, occupied: usize, queued: usize) {
        let (occupied, fetch_queue) = (occupied.min(255) as u8, queued.min(255) as u8);
        self.report(Category::Occupancy, || Event::WindowSample { occupied, fetch_queue });
        self.stats.cycles += 1;
    }

    /// A rename allocated a global register for a live-out.
    #[inline]
    pub fn global_reg_allocated(&mut self) {
        self.work.global_regs_allocated += 1;
    }

    /// A slot was pushed onto a global register's reader list.
    #[inline]
    pub fn reader_pushed(&mut self) {
        self.work.reader_pushes += 1;
    }

    /// The global register file was swept.
    #[inline]
    pub fn swept(&mut self) {
        self.work.sweeps += 1;
    }
}
