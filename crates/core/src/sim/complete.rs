//! Pipeline stage 1: **completion** — finish in-flight instructions and
//! verify control flow.
//!
//! Implements the execution/completion half of the paper's processing
//! elements (§2, "Trace processor microarchitecture"): slots whose
//! execution latency has elapsed publish their destination value in their
//! PE (and to their global register, if they have one), request a global
//! result bus when the value is a trace live-out, wake the consumers
//! waiting on a first publication (local ones through the slot's consumer
//! masks, global ones through its register's reader list), and — because
//! the simulator is execution-driven — re-trigger selective reissue of the
//! same consumers when a reissued producer's value actually changed (§5's
//! selective recovery model). Completing control instructions are
//! verified here: conditional branches against the outcome embedded in the
//! trace, and trace-ending indirect transfers against the successor trace
//! in the window, registering a [`Fault`](crate::pe::Fault) for the
//! recovery stage when they disagree.
//!
//! **Mutates:** slot state/values/published results, the global register
//! file, the result-bus request queue, the BTB (indirect target updates),
//! and — for a mispredicted *tail* indirect — the fetch
//! queue/history/expectation.

use super::*;
use crate::pe::{Fault, Published};
use tp_events::MispredictKind;

impl TraceProcessor<'_> {
    pub(super) fn complete_stage(&mut self) {
        let now = self.now();
        // Drain every completion event due this cycle from the timing
        // wheel instead of rescanning the window. Events are validated
        // (generation, state, exact `done_at`) so stale entries from
        // squashes/replacements/reissues fall out harmlessly, and the live
        // ones are completed in (pe, slot) order, the legacy physical scan
        // order. Validating them all before completing any is exact:
        // completing a slot never changes another slot's generation, state
        // or `done_at` (an in-flight slot it marks for reissue is only
        // flagged), and at most one event per slot is live.
        let mut due = std::mem::take(&mut self.scratch_due);
        due.clear();
        due.resize(self.pes.len(), 0);
        let pes = &self.pes;
        self.wakeup.completions.drain_due(now, |r, t| {
            let live = r.live(pes).is_some_and(|s| match s.state {
                SlotState::Executing { done_at } | SlotState::MemAccess { done_at } => done_at == t,
                _ => false,
            });
            if live {
                due[r.pe()] |= 1 << r.slot();
            }
        });
        for (pe, &mask) in due.iter().enumerate() {
            let mut mask = mask;
            while mask != 0 {
                let slot = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                self.complete_slot(pe, slot);
            }
        }
        self.scratch_due = due;
    }

    fn complete_slot(&mut self, pe: usize, slot: usize) {
        let now = self.now();
        {
            let s = &mut self.pes[pe].slots[slot];
            if s.pending_reissue {
                // A newer input arrived while in flight: discard and requeue.
                s.pending_reissue = false;
                s.state = SlotState::Waiting;
                self.index_enqueue(pe, slot);
                return;
            }
            s.state = SlotState::Done;
        }
        // Publish the destination value: in the PE for its local
        // consumers, and to the global register, if the slot has one.
        let p = &mut self.pes[pe];
        let ti = p.trace.insts()[slot];
        let is_liveout = p.trace.is_live_out(slot);
        let s = &mut p.slots[slot];
        if ti.dest.is_some() {
            let (value, global) = (s.value, s.global());
            let first_production = !s.out.produced();
            let value_changed = s.out.produced() && s.out.value != value;
            s.out = Published { value, ready_at: now };
            if let Some(g) = global {
                let r = self.pregs.get_mut(g);
                r.value = value;
                r.ready = true;
                r.local_ready_at = now;
                // Live-out values re-arm global visibility and (re)request a
                // result bus. A slot a repair demoted keeps its register, and
                // younger traces may still read it until re-dispatch
                // rebinds them, so its value is visible at once.
                r.global_ready_at = if is_liveout { u64::MAX } else { now };
            }
            if is_liveout {
                let gen = self.pes[pe].gen;
                self.push_result_req(BusReq { pe, gen, slot, since: now });
            }
            if first_production {
                // First production: wake the consumers waiting on it.
                self.wake_local_consumers(pe, slot);
                if let Some(g) = global {
                    self.wake_readers(g);
                }
            } else if value_changed {
                self.propagate_value_change(pe, slot, now + 1);
            }
        }
        // Verify control instructions.
        if ti.inst.is_cond_branch() {
            let (pc, fault) = {
                let s = &self.pes[pe].slots[slot];
                assert!(s.outcome.is_some(), "branch executed");
                (ti.pc, s.branch_fault(&ti))
            };
            self.pes[pe].set_fault(slot, fault);
            if fault.is_some() {
                self.books.mispredict_detected(pe, slot, pc, MispredictKind::CondBranch);
            }
        } else if ti.inst.is_indirect() {
            self.verify_indirect(pe, slot);
        }
    }

    /// Verifies a trace-ending indirect transfer against its successor.
    fn verify_indirect(&mut self, pe: usize, slot: usize) {
        let raw = self.pes[pe].side(slot).indirect_target.expect("indirect executed");
        let actual: Option<Pc> =
            if raw >= 0 && self.program.contains(raw as Pc) { Some(raw as Pc) } else { None };
        let pc = self.pes[pe].inst(slot).pc;
        if let Some(t) = actual {
            self.btb.update_indirect(pc, t);
        }
        if self.cfg.check == CheckLevel::Full {
            assert_eq!(slot, self.pes[pe].slots.len() - 1, "indirect must end its trace");
        }
        match self.list.next(pe) {
            Some(succ) => {
                let ok = Some(self.pes[succ].trace.id().start()) == actual;
                self.pes[pe].set_fault(slot, (!ok).then_some(Fault::Indirect { actual }));
                if !ok {
                    self.books.mispredict_detected(pe, slot, pc, MispredictKind::Indirect);
                }
            }
            None => {
                // This PE is the tail: redirect pending fetches if needed.
                self.pes[pe].set_fault(slot, None);
                let front_start = self.fetch_queue.front().map(|p| p.trace.id().start());
                if front_start.is_none() || front_start != actual {
                    if front_start.is_some() {
                        // Mispredicted successor still in the fetch queue.
                        self.books.successor_mispredicted();
                        self.fetch_queue.clear();
                        self.fetch_hist = self.rebuild_history();
                    }
                    self.expected = ExpectedNext::resolved(actual);
                }
            }
        }
    }
}
