//! Pipeline stage 1: **completion** — finish in-flight instructions and
//! verify control flow.
//!
//! Implements the execution/completion half of the paper's processing
//! elements (§2, "Trace processor microarchitecture"): slots whose
//! execution latency has elapsed publish their destination value to the
//! physical register file, request a global result bus when the value is a
//! trace live-out, and — because the simulator is execution-driven —
//! re-trigger selective reissue of consumers when a reissued producer's
//! value actually changed (§5's selective recovery model). Completing
//! control instructions are verified here: conditional branches against the
//! outcome embedded in the trace, and trace-ending indirect transfers
//! against the successor trace in the window, registering a
//! [`Fault`](crate::pe::Fault) for the recovery stage when they disagree.
//!
//! **Mutates:** slot state/values, the physical register file, the
//! result-bus request queue, the BTB (indirect target updates), and — for a
//! mispredicted *tail* indirect — the fetch queue/history/expectation.

use super::*;
use crate::pe::Fault;

impl TraceProcessor<'_> {
    pub(super) fn complete_stage(&mut self, ctx: &CycleCtx) {
        let now = ctx.now;
        // Drain every completion event due this cycle from the time-indexed
        // heap instead of rescanning the window. Events are validated at
        // processing time (generation, state, exact `done_at`) so stale
        // entries from squashes/replacements/reissues fall out harmlessly,
        // and are sorted by (pe, slot) to reproduce the legacy physical
        // scan order exactly.
        let mut due = std::mem::take(&mut self.scratch_due);
        due.clear();
        while let Some(&std::cmp::Reverse((t, r))) = self.wakeup.completions.peek() {
            if t > now {
                break;
            }
            self.wakeup.completions.pop();
            due.push((r, t));
        }
        // At most one entry per slot is live, so ordering by the whole
        // reference (pe, slot, gen) visits live entries in (pe, slot) order.
        due.sort_unstable();
        for &(r, t) in &due {
            let live = r.live(&self.pes).is_some_and(|s| match s.state {
                SlotState::Executing { done_at } | SlotState::MemAccess { done_at } => done_at == t,
                _ => false,
            });
            if live {
                self.complete_slot(r.pe(), r.slot());
            }
        }
        self.scratch_due = due;
    }

    fn complete_slot(&mut self, pe: usize, slot: usize) {
        let now = self.now;
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
        // Publish the destination value.
        let (dest, value, is_liveout) = {
            let s = &self.pes[pe].slots[slot];
            (s.dest, s.value, s.is_liveout)
        };
        if let Some(d) = dest {
            let (first_production, value_changed) = {
                let r = self.pregs.get_mut(d);
                let first = !r.ready;
                let changed = r.ready && r.value != value;
                r.value = value;
                r.ready = true;
                r.local_ready_at = now;
                // Live-out values re-arm global visibility and (re)request a
                // result bus; local values are never read by other PEs.
                r.global_ready_at = if is_liveout { u64::MAX } else { now };
                (first, changed)
            };
            if is_liveout {
                let gen = self.pes[pe].gen;
                self.push_result_req(BusReq { pe, gen, slot, since: now });
            }
            if first_production {
                // First production: wake consumers subscribed to this
                // register in the wakeup index.
                self.wake_waiters(d);
            } else if value_changed {
                self.propagate_value_change(d, now + 1);
            }
        }
        self.pes[pe].slots[slot].has_value = true;
        // Verify control instructions.
        let inst = self.pes[pe].slots[slot].ti.inst;
        if inst.is_cond_branch() {
            let (pc, fault) = {
                let s = &self.pes[pe].slots[slot];
                assert!(s.outcome.is_some(), "branch executed");
                (s.ti.pc, s.branch_fault())
            };
            self.pes[pe].set_fault(slot, fault);
            if fault.is_some() && self.events.wants(Category::Recovery) {
                self.events.emit(
                    now,
                    Event::MispredictDetected {
                        pe: pe as u8,
                        slot: slot.min(255) as u8,
                        pc,
                        kind: tp_events::MispredictKind::CondBranch,
                    },
                );
            }
        } else if inst.is_indirect() {
            self.verify_indirect(pe, slot);
        }
    }

    /// Verifies a trace-ending indirect transfer against its successor.
    fn verify_indirect(&mut self, pe: usize, slot: usize) {
        let raw = self.pes[pe].slots[slot].indirect_target.expect("indirect executed");
        let actual: Option<Pc> =
            if raw >= 0 && self.program.contains(raw as Pc) { Some(raw as Pc) } else { None };
        let pc = self.pes[pe].slots[slot].ti.pc;
        if let Some(t) = actual {
            self.btb.update_indirect(pc, t);
        }
        if self.paranoid {
            assert_eq!(slot, self.pes[pe].slots.len() - 1, "indirect must end its trace");
        }
        match self.list.next(pe) {
            Some(succ) => {
                let ok = Some(self.pes[succ].trace.id().start()) == actual;
                self.pes[pe].set_fault(slot, (!ok).then_some(Fault::Indirect { actual }));
                if !ok && self.events.wants(Category::Recovery) {
                    self.events.emit(
                        self.now,
                        Event::MispredictDetected {
                            pe: pe as u8,
                            slot: slot.min(255) as u8,
                            pc,
                            kind: tp_events::MispredictKind::Indirect,
                        },
                    );
                }
            }
            None => {
                // This PE is the tail: redirect pending fetches if needed.
                self.pes[pe].set_fault(slot, None);
                let front_start = self.fetch_queue.front().map(|p| p.trace.id().start());
                match (front_start, actual) {
                    (Some(f), Some(t)) if f == t => {}
                    (Some(_), t) => {
                        // Mispredicted successor still in the fetch queue.
                        self.stats.trace_mispredictions += 1;
                        self.fetch_queue.clear();
                        self.fetch_hist = self.rebuild_history();
                        self.expected = match t {
                            Some(t) => ExpectedNext::Known(t),
                            None => ExpectedNext::Stalled,
                        };
                    }
                    (None, Some(t)) => {
                        if self.expected != ExpectedNext::Known(t) {
                            self.expected = ExpectedNext::Known(t);
                        }
                    }
                    (None, None) => self.expected = ExpectedNext::Stalled,
                }
            }
        }
    }
}
