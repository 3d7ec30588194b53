//! Pipeline stage 5: **dispatch** — rename a fetched trace and allocate it
//! to a processing element.
//!
//! Implements trace dispatch (§2): one trace per cycle leaves the fetch
//! queue, its live-ins are renamed through the current speculative map, its
//! live-outs are allocated fresh global registers, and it is appended at
//! the tail of the PE list — or, during CGCI insertion (§4), linked into
//! the *middle* of the window immediately before the preserved
//! control-independent trace. When the window is full during insertion,
//! the most speculative tail PE is reclaimed (squashed) to make room. The
//! dispatch bus is shared with re-dispatch passes
//! ([`redispatch`](super::redispatch)), which take priority.
//!
//! The register file has two levels, as in the paper: values produced and
//! consumed inside the trace stay in the PE. A `Local(j)` operand is bound
//! to slot `j`'s published result, and only live-ins and live-outs touch
//! the global file. So only live-outs allocate a global register, and only
//! live-in operands register as readers; a reader list serves both the
//! register's first production and its value changes. Local producers
//! reach their consumers through per-slot consumer masks linked here from
//! the bound operands.
//!
//! **Mutates:** the fetch queue/mode, the target PE (slots, rename maps,
//! generation), the PE list, the speculative rename-map chain, reader
//! registrations, the global register file (allocations), and the books.

use super::*;
use crate::pe::Slot;

impl TraceProcessor<'_> {
    pub(super) fn dispatch_stage(&mut self, prof: Option<&StageProfiler>) {
        if self.halted {
            return;
        }
        // Re-dispatch passes own the dispatch bus (and their own timer:
        // re-dispatch is its own stage module, merely sharing the slot).
        if self.redispatch.is_some() {
            let _t = ScopedStageTimer::new(prof, Stage::Redispatch);
            self.redispatch_step();
            return;
        }
        let _t = ScopedStageTimer::new(prof, Stage::Dispatch);
        let Some(front_ready_at) = self.fetch_queue.front().map(|p| p.ready_at) else { return };
        if self.now() < front_ready_at {
            return;
        }
        // Pick the PE: insertion point (CGCI) or tail.
        let insert_before = match self.mode {
            FetchMode::CgciInsert { before, before_gen, .. } => {
                if !self.pe_live(before, before_gen) {
                    self.set_mode(FetchMode::Normal);
                    None
                } else {
                    Some(before)
                }
            }
            FetchMode::Normal => None,
        };
        // Consistency: the front trace must follow the current predecessor.
        let pred = match insert_before {
            Some(b) => self.list.prev(b),
            None => self.list.tail(),
        };
        if let Some(pred) = pred {
            let front_start = self.fetch_queue.front().expect("checked above").trace.id().start();
            if !self.successor_consistent(pred, front_start) {
                // The window changed under the queue (recovery): refetch.
                self.fetch_queue.clear();
                self.fetch_hist = self.rebuild_history();
                self.expected = self.expected_after_tail();
                return;
            }
        }
        // Find a free PE.
        let free = (0..self.cfg.num_pes).find(|&i| !self.pes[i].occupied);
        let Some(pe) = free else {
            match self.mode {
                FetchMode::CgciInsert { before, .. } => {
                    // The window filled before re-convergence: the
                    // correct control-dependent path needs more room
                    // than the squash freed, so the attempt cannot pay
                    // off. Abandon it outright — squash the preserved
                    // suffix and resume normal fetch — rather than
                    // reclaiming the suffix one tail per cycle, which
                    // made a failed attempt cost strictly more than
                    // the full squash it degenerates to.
                    let victims: Vec<usize> = {
                        let mut v = vec![before];
                        v.extend(self.list.iter_after(before));
                        v
                    };
                    self.books.insertion_abandoned(victims.len() as u64);
                    for v in victims {
                        self.squash_pe(v);
                    }
                    self.set_mode(FetchMode::Normal);
                    // The fetch queue holds correct-path (post-branch)
                    // traces and the fetch history tracks them; both
                    // stay — dispatch simply continues at the tail.
                    return; // dispatch resumes next cycle
                }
                FetchMode::Normal => return, // window full: stall
            }
        };
        let pending = self.fetch_queue.pop_front().expect("checked front");
        if let FetchMode::CgciInsert { ref mut inserted, .. } = self.mode {
            *inserted += 1;
        }
        self.dispatch_trace(pe, pending, insert_before);
    }

    /// Registers a just-dispatched trace's live-in operands as readers and
    /// seeds the wakeup index, in one pass over its slots: what
    /// [`Self::register_reader`] and [`Self::index_enqueue`] do slot by
    /// slot. Every slot starts `Waiting` and every local producer is fresh,
    /// so a slot with a local operand is not ready. Local operands touch no
    /// list: the consumer masks name their readers.
    fn seed_dispatched(&mut self, pe: usize) {
        let mut ready = 0u64;
        for i in 0..self.pes[pe].slots.len() {
            let mut all_produced = true;
            for q in self.pes[pe].slots[i].srcs.into_iter().flatten() {
                let Src::Global(p) = q else {
                    all_produced = false;
                    continue;
                };
                self.register_reader(p, pe, i);
                all_produced &= self.pregs.get(p).ready;
            }
            ready |= u64::from(all_produced) << i;
        }
        self.wakeup.ready[pe] = ready;
    }

    /// Whether a trace starting at `start` is a consistent successor of the
    /// trace in `pred`. (Also used by retirement's stale-boundary safety
    /// net.)
    pub(super) fn successor_consistent(&self, pred: usize, start: Pc) -> bool {
        let t = &self.pes[pred].trace;
        match t.end() {
            EndReason::MaxLen | EndReason::Ntb => t.next_pc() == Some(start),
            EndReason::Indirect => {
                let last = self.pes[pred].slots.len() - 1;
                let s = &self.pes[pred].slots[last];
                if s.state == SlotState::Done && !s.pending_reissue {
                    s.indirect_target == Some(start as Word)
                } else {
                    true // unresolved: dispatch speculatively
                }
            }
            EndReason::Halt | EndReason::OutOfProgram => false,
        }
    }

    pub(super) fn dispatch_trace(
        &mut self,
        pe: usize,
        pending: Pending,
        insert_before: Option<usize>,
    ) {
        let trace = pending.trace;
        self.reserve_pregs(trace.live_outs().len());
        let map_before = self.current_map;
        self.pes[pe].gen += 1;
        // Refill the PE's slot buffer in place, keeping its capacity.
        let mut slots = std::mem::take(&mut self.pes[pe].slots);
        slots.clear();
        for (i, ti) in trace.insts().iter().enumerate() {
            slots.push(Slot::new(*ti));
            let slot = slots.last_mut().expect("pushed above");
            for (k, &(_, oref)) in ti.srcs.iter().flatten().enumerate() {
                slot.srcs[k] = Some(Self::bind(oref, &map_before));
            }
            slot.is_liveout = ti.dest.is_some_and(|d| trace.last_writer(d) == Some(i));
            if slot.is_liveout {
                slot.global = Some(self.alloc_global(pe));
            }
        }
        link_local_consumers(&mut slots);
        let map_after = Self::map_after(&trace, &slots, map_before);
        let num_slots = slots.len();
        let now = self.now();
        let p = &mut self.pes[pe];
        p.occupied = true;
        p.trace = trace;
        p.slots = slots;
        p.recompute_faults();
        p.map_before = map_before;
        p.map_after = map_after;
        p.hist_before = pending.hist_before;
        p.source = pending.source;
        p.repairs = 0;
        p.dispatched_at = now;
        self.current_map = map_after;
        match insert_before {
            Some(b) => self.list.insert_before(pe, b),
            None => self.list.push_tail(pe),
        }
        self.seed_dispatched(pe);
        let pc = self.pes[pe].trace.id().start();
        self.books.dispatched(pe, pc, num_slots, insert_before.is_some());
    }
}
