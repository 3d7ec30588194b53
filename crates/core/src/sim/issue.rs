//! Pipeline stage 6: **issue** — select ready instructions and execute
//! them.
//!
//! Implements the per-PE issue logic (§2): each PE independently selects up
//! to [`PE_ISSUE_WIDTH`] waiting instructions whose sources are readable (a
//! local source from its producer slot's published result, a live-in from
//! the global register file once it is visible: at once to its producing
//! PE, to the others after a result-bus broadcast) and begins execution.
//! Because the simulator is execution-driven, values are computed *here*,
//! with whatever operand values are currently visible — wrong-path and
//! stale-input execution happen for real and are corrected by selective
//! reissue. Memory operations perform address generation and then queue
//! for a shared cache bus ([`buses`](super::buses)) rather than completing
//! directly.
//!
//! Selection is event-driven: instead of rescanning every slot of every PE
//! each cycle, the stage walks only the candidate bits of the per-PE ready
//! masks (see [`WakeupIndex`](super::WakeupIndex)). The bits encode the
//! *dataflow* condition (all sources produced); the cheap *timing*
//! conditions (`not_before`, local/global visibility cycles) are re-polled
//! here because they move with bus grants. Candidates are visited in slot
//! order, PEs in logical window order — exactly the legacy scan order, so
//! cycle-level behaviour is unchanged.
//!
//! **Mutates:** slot state/values/outcomes, the cache-bus request queue,
//! the wakeup index (ready bits consumed, completion events scheduled),
//! and the issue/reissue counts in the books.

use super::*;
use crate::config::{AGEN_LATENCY, PE_ISSUE_WIDTH};
use tp_isa::func::effective_address;
use tp_isa::Inst;

impl TraceProcessor<'_> {
    pub(super) fn issue_stage(&mut self) {
        let now = self.now();
        let (mut issued_total, mut reissued_total) = (0, 0);
        let mut order = std::mem::take(&mut self.scratch_order);
        order.clear();
        order.extend(self.list.iter());
        for &pe in &order {
            let mut issued = 0;
            // Snapshot the candidate mask; bits are consumed from the live
            // mask as slots issue (issuing never adds candidates).
            let mut mask = self.wakeup.ready[pe];
            while mask != 0 && issued < PE_ISSUE_WIDTH {
                let slot = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let ready = {
                    let p = &self.pes[pe];
                    let s = &p.slots[slot];
                    let srcs = &p.inst(slot).srcs;
                    s.state == SlotState::Waiting
                        && s.not_before <= now
                        && (0..2).all(|k| match srcs[k] {
                            Some((_, OperandRef::Local(j))) => {
                                p.slots[j as usize].out.readable(now)
                            }
                            Some(_) => self.pregs.readable_by(s.srcs[k], pe as u8, now),
                            None => true,
                        })
                };
                if !ready {
                    // Time-gated (visibility or penalty): poll again next
                    // cycle; the dataflow condition already holds.
                    continue;
                }
                self.wakeup.ready[pe] &= !(1u64 << slot);
                reissued_total += u64::from(self.issue_slot(pe, slot));
                issued += 1;
            }
            issued_total += issued as u64;
        }
        self.scratch_order = order;
        self.books.issued(issued_total, reissued_total);
    }

    /// Issues one ready slot; returns whether this was a reissue (an issue
    /// beyond the slot's first).
    fn issue_slot(&mut self, pe: usize, slot: usize) -> bool {
        let now = self.now();
        let gen = self.pes[pe].gen;
        let (ti, a, b) = {
            let p = &self.pes[pe];
            let ti = *p.inst(slot);
            let value = |k: usize| match ti.srcs[k] {
                Some((_, OperandRef::Local(j))) => p.slots[j as usize].out.value,
                Some(_) => self.pregs.get(p.slots[slot].srcs[k]).value,
                None => 0,
            };
            (ti, value(0), value(1))
        };
        // `done_at` for directly-executing slots; memory operations go to
        // the cache-bus queue instead and complete after their grant.
        let mut done_at = None;
        let mut agen = false;
        // The indirect target, or a memory operation's effective address
        // staged for its bus grant (the slot's side entry).
        let mut target = None;
        {
            let s = &mut self.pes[pe].slots[slot];
            s.issues = s.issues.saturating_add(1);
            match ti.inst {
                Inst::Alu { op, .. } => {
                    s.value = op.apply(a, b);
                    done_at = Some(now + op.latency() as u64);
                }
                Inst::AluImm { op, imm, .. } => {
                    s.value = op.apply(a, imm as Word);
                    done_at = Some(now + op.latency() as u64);
                }
                Inst::Load { offset, .. } => {
                    s.value = 0;
                    s.state = SlotState::WaitingBus { since: now + AGEN_LATENCY };
                    target = Some(effective_address(a, offset) as Word);
                    agen = true;
                }
                Inst::Store { offset, .. } => {
                    // srcs order is [base, data].
                    s.value = b;
                    target = Some(effective_address(a, offset) as Word);
                    s.state = SlotState::WaitingBus { since: now + AGEN_LATENCY };
                    agen = true;
                }
                Inst::Branch { cond, .. } => {
                    s.outcome = Some(cond.eval(a, b));
                    done_at = Some(now + 1);
                }
                Inst::Jump { .. } | Inst::Nop | Inst::Halt => {
                    done_at = Some(now + 1);
                }
                Inst::Call { .. } => {
                    s.value = ti.pc as Word + 1;
                    done_at = Some(now + 1);
                }
                Inst::CallIndirect { .. } => {
                    s.value = ti.pc as Word + 1;
                    target = Some(a);
                    done_at = Some(now + 1);
                }
                Inst::JumpIndirect { .. } | Inst::Ret => {
                    target = Some(a);
                    done_at = Some(now + 1);
                }
            }
            if let Some(done_at) = done_at {
                s.state = SlotState::Executing { done_at };
            }
        }
        if target.is_some() {
            self.pes[pe].side_mut(slot).indirect_target = target;
        }
        if let Some(done_at) = done_at {
            self.note_inflight(pe, slot, done_at);
        }
        if agen {
            self.push_cache_req(BusReq { pe, gen, slot, since: now + AGEN_LATENCY });
        }
        self.pes[pe].slots[slot].issues > 1
    }
}
