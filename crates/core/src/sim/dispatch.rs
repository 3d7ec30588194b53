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
//! consumed inside the trace stay in the PE. A `Local(j)` operand reads
//! slot `j`'s published result, and only live-ins and live-outs touch the
//! global file. So only live-outs allocate a global register, and only
//! live-in operands register as readers; a reader list serves both the
//! register's first production and its value changes.
//!
//! As in the paper, the trace arrives pre-renamed: everything that depends
//! on the trace alone was built once, when the trace was assembled (its
//! local operands and per-instruction consumer masks, its live-out slots,
//! the positions of its live-in operands). Dispatch therefore fills the
//! PE with blank one-cache-line slots and then works per live-in operand
//! (bind, register as a reader, seed the ready mask) and per live-out
//! (allocate a global register), never per instruction.
//!
//! **Mutates:** the fetch queue/mode, the target PE (slots, rename maps,
//! generation), the PE list, the speculative rename-map chain, reader
//! registrations, the global register file (allocations), and the books.

use super::*;

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
                    let mut victims = PeQueue::EMPTY;
                    victims.push(before);
                    victims.extend(self.list.iter_after(before));
                    self.books.insertion_abandoned(victims.len() as u64);
                    for v in victims.iter() {
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
    /// seeds the wakeup index, walking only the live-in operands: what
    /// [`Self::register_reader`] and [`Self::index_enqueue`] do slot by
    /// slot. Every slot starts `Waiting` and every local producer is fresh,
    /// so a slot with a local operand is not ready, and one without is
    /// ready once its live-ins are. Local operands touch no list: the
    /// trace's consumer masks name their readers.
    fn seed_dispatched(&mut self, pe: usize) {
        let trace = Arc::clone(&self.pes[pe].trace);
        let all = u64::MAX >> (64 - trace.len());
        let mut ready = all & !u64::from(trace.local_readers());
        for (i, k, _) in trace.live_in_operands() {
            let p = self.pes[pe].slots[i].srcs[k];
            self.register_reader(p, pe, i);
            if !self.pregs.get(p).ready {
                ready &= !(1u64 << i);
            }
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
                    self.pes[pred].side(last).indirect_target == Some(start as Word)
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
        // Refill the PE's slot buffer in place, keeping its capacity, with
        // blank slots; then bind the live-ins and allocate the live-outs
        // (in slot order, so register ids follow program order).
        self.pes[pe].reset_slots(trace.len());
        for (i, k, r) in trace.live_in_operands() {
            self.pes[pe].slots[i].srcs[k] = map_before[r.index()];
        }
        let mut map_after = map_before;
        for i in bits(u64::from(trace.live_out_slots())) {
            let g = self.alloc_global(pe);
            self.pes[pe].slots[i].set_global(g);
            let dest = trace.insts()[i].dest.expect("a live-out slot has a destination");
            map_after[dest.index()] = g;
        }
        let num_slots = trace.len();
        let now = self.now();
        let p = &mut self.pes[pe];
        p.occupied = true;
        p.trace = trace;
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
