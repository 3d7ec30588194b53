//! Processing elements and their instruction slots.

use std::sync::Arc;

use tp_events::FetchPath;
use tp_isa::{Addr, Pc, Word};
use tp_predict::TraceHistory;
use tp_stats::attr::AttrKey;
use tp_trace::{Trace, TraceInst};

use crate::physreg::{PhysRegId, RenameMap};

/// Execution state of one instruction slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotState {
    /// Not issued (or selectively reissued): waiting for operands and an
    /// issue port.
    Waiting,
    /// Issued; completes at the contained cycle.
    Executing {
        /// Cycle at which execution completes.
        done_at: u64,
    },
    /// Load/store after address generation, waiting for a cache bus.
    WaitingBus {
        /// Cycle at which the wait began (for occupancy accounting).
        since: u64,
    },
    /// Load/store granted a bus, accessing memory.
    MemAccess {
        /// Cycle at which the access completes.
        done_at: u64,
    },
    /// Completed (may still reissue if an input value changes).
    Done,
}

/// A misprediction discovered by executing a slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Conditional branch resolved against its embedded outcome.
    CondBranch {
        /// The actual outcome.
        actual: bool,
    },
    /// Trace-ending indirect transfer resolved to a different target than
    /// the dispatched/predicted successor.
    Indirect {
        /// The actual target (`None` when it leaves the program image —
        /// possible only on wrong paths).
        actual: Option<Pc>,
    },
}

/// A slot's result as its consumers see it: written at completion only
/// (`Slot::value` is overwritten at issue), kept across reissues, and
/// moved with the slot when a trace repair shifts it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Published {
    /// The value last published.
    pub value: Word,
    /// Cycle from which the slot's own PE may read the value; `u64::MAX`
    /// until a value is published.
    pub ready_at: u64,
}

impl Published {
    /// Nothing published yet.
    pub const NONE: Published = Published { value: 0, ready_at: u64::MAX };

    /// Whether a value has been published at all.
    #[inline]
    pub fn produced(&self) -> bool {
        self.ready_at != u64::MAX
    }

    /// Whether a consumer in the same PE may read the value at `now` (no
    /// cycle reaches `u64::MAX`, so an unpublished value is never readable).
    #[inline]
    pub fn readable(&self, now: u64) -> bool {
        now >= self.ready_at
    }
}

/// One instruction slot's execution state: one cache line. The instruction
/// is the PE trace's instruction at the same index, and what the trace
/// alone determines (local operands, consumers, live-out slots) stays in
/// the trace. What only memory operations, faulting branches and the books
/// need lives in the PE's [`SlotSide`] entries.
#[derive(Clone, Copy, Debug)]
pub struct Slot {
    /// Execution state.
    pub state: SlotState,
    /// The slot must not issue before this cycle (load snoop penalty).
    pub not_before: u64,
    /// Latest computed destination value.
    pub value: Word,
    /// The result published to consumers at the last completion.
    pub out: Published,
    /// The global register each source operand reads: the register a
    /// live-in operand is bound to, the zero register for any other
    /// operand (a local operand reads its producer slot's [`Slot::out`],
    /// named by the trace's pre-renames).
    pub srcs: [PhysRegId; 2],
    /// The slot's global register, [`PhysRegId::ZERO`] for none (the zero
    /// register is never a slot's own); see [`Slot::global`].
    global: PhysRegId,
    /// How many times the slot issued, saturating (statistics).
    pub issues: u16,
    /// Latest computed branch outcome.
    pub outcome: Option<bool>,
    /// A new input arrived while in flight / after completion: reissue.
    pub pending_reissue: bool,
}

const _: () = assert!(std::mem::size_of::<Slot>() <= 64);

impl Slot {
    /// A fresh slot (live-in operands bound later by rename).
    pub const EMPTY: Slot = Slot {
        state: SlotState::Waiting,
        not_before: 0,
        value: 0,
        out: Published::NONE,
        srcs: [PhysRegId::ZERO; 2],
        global: PhysRegId::ZERO,
        issues: 0,
        outcome: None,
        pending_reissue: false,
    };

    /// The slot's global register, if it has one. Allocated for a trace
    /// live-out (at dispatch, or when a repair promotes the slot) and kept
    /// for the rest of the slot's life, even if a later repair demotes it:
    /// younger traces may still name it until re-dispatch rebinds them.
    #[inline]
    pub fn global(&self) -> Option<PhysRegId> {
        (self.global != PhysRegId::ZERO).then_some(self.global)
    }

    /// Gives the slot its global register.
    pub fn set_global(&mut self, g: PhysRegId) {
        debug_assert_ne!(g, PhysRegId::ZERO, "the zero register is no slot's own");
        self.global = g;
    }

    /// The fault a completed conditional branch raises: its resolved
    /// outcome against the outcome embedded in the trace instruction `ti`
    /// it holds.
    pub fn branch_fault(&self, ti: &TraceInst) -> Option<Fault> {
        match self.outcome {
            Some(actual) if Some(actual) != ti.embedded_taken => Some(Fault::CondBranch { actual }),
            _ => None,
        }
    }

    /// Marks the slot for selective reissue: back to `Waiting` if it already
    /// completed, or flagged to requeue on completion if in flight.
    ///
    /// Returns `true` when this call *transitioned* the slot into
    /// `Waiting` — the core uses that as its lifecycle hook to re-enqueue
    /// the slot in the event-driven wakeup index (a slot that was already
    /// `Waiting` is already indexed; an in-flight slot is re-enqueued when
    /// its discarded completion arrives).
    #[must_use = "a transition into Waiting must be re-enqueued in the wakeup index"]
    pub fn mark_reissue(&mut self, not_before: u64) -> bool {
        self.not_before = self.not_before.max(not_before);
        match self.state {
            SlotState::Done => {
                self.state = SlotState::Waiting;
                self.pending_reissue = false;
                true
            }
            SlotState::Waiting => false,
            _ => {
                self.pending_reissue = true;
                false
            }
        }
    }
}

/// The state of a slot that only memory operations, trace-ending indirect
/// transfers, faulting branches and the books use, kept beside the slots
/// in [`Pe`] so a dispatched slot stays one cache line. An entry holds
/// data only while the PE's valid mask says so; dispatch resets the mask,
/// not the entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotSide {
    /// Latest computed indirect target, or the effective address staged
    /// for a memory operation's bus grant.
    pub indirect_target: Option<Word>,
    /// Effective address currently held in the ARB for a performed store, or
    /// the address the last load read from.
    pub mem_addr: Option<Addr>,
    /// For loads: the sequence handle of the store that supplied the data
    /// (`None` = architectural memory).
    pub load_src: Option<u64>,
    /// For stores: whether a version is currently in the ARB.
    pub store_performed: bool,
    /// Unresolved misprediction discovered by this slot. Written only
    /// through [`Pe::set_fault`], which keeps the PE's fault mask coherent.
    pub fault: Option<Fault>,
    /// Set when a repair replaced this slot's embedded outcome (the slot's
    /// original prediction was wrong); counted at retirement. Written by
    /// the simulator's books, like `attr`.
    pub was_mispredicted: bool,
    /// Attribution-ledger coordinate of the last recovery this slot's
    /// misprediction went through (class, heuristic, outcome); `None` until
    /// the slot faults. Observation-only.
    pub attr: Option<AttrKey>,
}

impl SlotSide {
    /// An entry holding nothing: what every slot reads until it writes.
    pub const NONE: SlotSide = SlotSide {
        indirect_target: None,
        mem_addr: None,
        load_src: None,
        store_performed: false,
        fault: None,
        was_mispredicted: false,
        attr: None,
    };
}

/// A processing element: holds one trace and its execution state.
#[derive(Clone, Debug)]
pub struct Pe {
    /// Whether a trace currently occupies the PE.
    pub occupied: bool,
    /// Generation counter, bumped on every (re)allocation; stale references
    /// (bus queues, reader lists) are validated against it.
    pub gen: u64,
    /// The trace (kept in sync with repairs): slot `i` holds instruction
    /// `trace.insts()[i]`.
    pub trace: Arc<Trace>,
    /// Instruction slots, one per trace instruction.
    pub slots: Vec<Slot>,
    /// The slots' side entries ([`SlotSide`]); entry `i` holds data iff bit
    /// `i` of `side_valid` is set. Sized for the longest trace on first
    /// write, never shrunk.
    side: Vec<SlotSide>,
    side_valid: u64,
    /// Fault mask: bit `i` is set iff slot `i`'s side entry holds a fault
    /// (traces are at most [`Trace::MAX_LEN`] slots long). Written only by
    /// [`Pe::set_fault`], [`Pe::recompute_faults`] and [`Pe::reset_slots`].
    faults: u64,
    /// Rename map checkpoint *before* this trace.
    pub map_before: RenameMap,
    /// Rename map *after* this trace (before = after of the previous PE).
    pub map_after: RenameMap,
    /// Speculative fetch history checkpoint taken before this trace was
    /// predicted (restored on recovery).
    pub hist_before: TraceHistory,
    /// How fetch obtained the trace.
    pub source: FetchPath,
    /// Times the trace was repaired in place (committed-path trace
    /// mispredictions when it retires).
    pub repairs: u32,
    /// Cycle the trace was dispatched.
    pub dispatched_at: u64,
}

impl Pe {
    /// Creates an empty PE (placeholder trace replaced at first dispatch).
    pub fn empty(hist: TraceHistory) -> Pe {
        use tp_isa::Inst;
        use tp_trace::{EndReason, TraceId};
        let dummy = Arc::new(Trace::assemble(
            TraceId::new(0, 0, 0),
            &[(0, Inst::Nop, None, false)],
            EndReason::MaxLen,
            Some(0),
        ));
        Pe {
            occupied: false,
            gen: 0,
            trace: dummy,
            slots: Vec::new(),
            side: Vec::new(),
            side_valid: 0,
            faults: 0,
            map_before: [PhysRegId::ZERO; tp_isa::Reg::COUNT],
            map_after: [PhysRegId::ZERO; tp_isa::Reg::COUNT],
            hist_before: hist,
            source: FetchPath::Fallback,
            repairs: 0,
            dispatched_at: 0,
        }
    }

    /// The instruction in slot `i`.
    #[inline]
    pub fn inst(&self, i: usize) -> &TraceInst {
        &self.trace.insts()[i]
    }

    /// Slot `i`'s side entry ([`SlotSide::NONE`] until the slot writes
    /// one).
    #[inline]
    pub fn side(&self, i: usize) -> &SlotSide {
        if self.side_valid >> i & 1 == 1 {
            &self.side[i]
        } else {
            &SlotSide::NONE
        }
    }

    /// Slot `i`'s side entry for writing: an entry that held no data starts
    /// as [`SlotSide::NONE`].
    pub fn side_mut(&mut self, i: usize) -> &mut SlotSide {
        if self.side_valid >> i & 1 == 0 {
            if self.side.len() <= i {
                self.side.resize(Trace::MAX_LEN.max(i + 1), SlotSide::NONE);
            }
            self.side[i] = SlotSide::NONE;
            self.side_valid |= 1 << i;
        }
        &mut self.side[i]
    }

    /// The side entries holding data, as a mask.
    pub fn side_valid(&self) -> u64 {
        self.side_valid
    }

    /// Installs `len` fresh slots (and no side data, so no faults) for a
    /// newly dispatched trace, reusing the slot buffer.
    pub fn reset_slots(&mut self, len: usize) {
        self.slots.clear();
        self.slots.resize(len, Slot::EMPTY);
        self.side_valid = 0;
        self.faults = 0;
    }

    /// Moves the side entries of a trace repair: entries of slots below
    /// `prefix_len` stay, those of the `common` suffix slots of an
    /// `old_len`-slot trace move to the end of a `new_len`-slot trace, and
    /// the rest are dropped. The fault mask is rebuilt.
    pub fn shift_side(&mut self, prefix_len: usize, old_len: usize, new_len: usize, common: usize) {
        let keep = self.side_valid & low_bits(prefix_len);
        let suffix = self.side_valid >> (old_len - common) & low_bits(common);
        if old_len != new_len && suffix != 0 {
            let mut moved = [SlotSide::NONE; Trace::MAX_LEN];
            for k in bits(suffix) {
                moved[k] = self.side[old_len - common + k];
            }
            self.side_valid = keep;
            for k in bits(suffix) {
                *self.side_mut(new_len - common + k) = moved[k];
            }
        } else {
            self.side_valid = keep | suffix << (new_len - common);
        }
        self.recompute_faults();
    }

    /// The fault mask: bit `i` is set iff slot `i` holds a fault.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Index of the oldest slot holding an unresolved fault.
    pub fn first_fault(&self) -> Option<usize> {
        (self.faults != 0).then(|| self.faults.trailing_zeros() as usize)
    }

    /// Records (or clears) the unresolved fault of `slot`, keeping the
    /// fault mask coherent. The only writer of [`SlotSide::fault`].
    pub fn set_fault(&mut self, slot: usize, fault: Option<Fault>) {
        if fault.is_some() {
            self.side_mut(slot).fault = fault;
            self.faults |= 1 << slot;
        } else {
            if self.side_valid >> slot & 1 == 1 {
                self.side[slot].fault = None;
            }
            self.faults &= !(1u64 << slot);
        }
    }

    /// The fault mask as a scan of the side entries finds it (what
    /// [`Pe::faults`] must always equal).
    pub fn scan_faults(&self) -> u64 {
        bits(self.side_valid).filter(|&i| self.side[i].fault.is_some()).fold(0, |m, i| m | 1 << i)
    }

    /// Rebuilds the fault mask from the side entries, after they were
    /// moved wholesale.
    pub fn recompute_faults(&mut self) {
        self.faults = self.scan_faults();
    }

    /// Whether every slot has completed with no reissue pending and no
    /// fault standing (trace is ready to retire, pending the logical-order
    /// checks done by the core).
    pub fn all_complete(&self) -> bool {
        self.faults == 0
            && self.slots.iter().all(|s| s.state == SlotState::Done && !s.pending_reissue)
    }
}

/// The low `n` bits set (`n` at most 64).
fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// The set bits of `mask`, lowest first.
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_isa::{Cond, Inst, Reg};
    use tp_trace::{EndReason, TraceId};

    #[test]
    fn fresh_slot_is_waiting() {
        let s = Slot::EMPTY;
        assert_eq!(s.state, SlotState::Waiting);
        assert_eq!(s.global(), None);
        assert!(!s.out.produced() && !s.out.readable(u64::MAX - 1));
    }

    #[test]
    fn mark_reissue_from_done_requeues() {
        let mut s = Slot::EMPTY;
        s.state = SlotState::Done;
        assert!(s.mark_reissue(5));
        assert_eq!(s.state, SlotState::Waiting);
        assert!(!s.pending_reissue);
        assert_eq!(s.not_before, 5);
    }

    #[test]
    fn mark_reissue_in_flight_sets_flag() {
        let mut s = Slot::EMPTY;
        s.state = SlotState::Executing { done_at: 9 };
        assert!(!s.mark_reissue(3));
        assert_eq!(s.state, SlotState::Executing { done_at: 9 });
        assert!(s.pending_reissue);
    }

    fn pe_with(insts: &[Inst]) -> Pe {
        let mut pe = Pe::empty(TraceHistory::new(4));
        let raw: Vec<_> =
            insts.iter().enumerate().map(|(i, &x)| (i as Pc, x, None, false)).collect();
        pe.trace = Arc::new(Trace::assemble(TraceId::new(0, 0, 0), &raw, EndReason::MaxLen, None));
        pe.reset_slots(insts.len());
        pe
    }

    #[test]
    fn completion_requires_no_fault_and_no_reissue() {
        let mut pe = pe_with(&[Inst::Nop, Inst::Nop]);
        for s in &mut pe.slots {
            s.state = SlotState::Done;
        }
        assert!(pe.all_complete());
        pe.set_fault(1, Some(Fault::CondBranch { actual: true }));
        assert!(!pe.all_complete());
        pe.set_fault(1, None);
        pe.slots[0].pending_reissue = true;
        assert!(!pe.all_complete());
    }

    #[test]
    fn pe_first_fault_finds_oldest() {
        let mut pe = pe_with(&[Inst::Nop; 3]);
        assert_eq!(pe.first_fault(), None);
        pe.set_fault(2, Some(Fault::CondBranch { actual: false }));
        pe.set_fault(1, Some(Fault::CondBranch { actual: true }));
        assert_eq!(pe.first_fault(), Some(1));
        assert_eq!(pe.faults(), 0b110);
        pe.set_fault(1, None);
        assert_eq!(pe.first_fault(), Some(2));
        assert!(pe.side(1).fault.is_none());
        pe.recompute_faults();
        assert_eq!(pe.faults(), 0b100);
        pe.set_fault(2, None);
        assert_eq!(pe.first_fault(), None);
        pe.reset_slots(3);
        assert_eq!((pe.side_valid(), pe.side(2)), (0, &SlotSide::NONE));
    }

    #[test]
    fn side_entries_move_with_a_shifted_suffix() {
        let mut pe = pe_with(&[Inst::Nop; 6]);
        for i in [0, 3, 5] {
            pe.side_mut(i).mem_addr = Some(i as Addr);
        }
        pe.set_fault(5, Some(Fault::Indirect { actual: None }));
        // Prefix of 2, a 2-slot middle replaced by 1 slot, a 2-slot suffix.
        pe.shift_side(2, 6, 5, 2);
        let held: Vec<_> = (0..5).map(|i| pe.side(i).mem_addr).collect();
        assert_eq!(held, [Some(0), None, None, None, Some(5)]);
        assert_eq!(pe.faults(), 0b10000);
    }

    /// A slot's instruction and its pre-renamed operands are read from the
    /// PE's trace at the slot's index.
    #[test]
    fn operand_ref_metadata_survives_in_slot() {
        use tp_isa::AluOp;
        use tp_trace::OperandRef;
        let r = Reg::new;
        let pe = pe_with(&[
            Inst::AluImm { op: AluOp::Add, rd: r(3), rs: r(2), imm: 1 },
            Inst::Alu { op: AluOp::Add, rd: r(1), rs: r(2), rt: r(3) },
        ]);
        assert_eq!(pe.inst(1).srcs[0], Some((r(2), OperandRef::LiveIn(r(2)))));
        assert_eq!(pe.inst(1).srcs[1], Some((r(3), OperandRef::Local(0))));
        assert_eq!(pe.inst(0).consumers, [0, 0b10]);
    }

    #[test]
    fn branch_fault_compares_outcome_with_embedded() {
        let br = Inst::Branch { cond: Cond::Eq, rs: Reg::new(1), rt: Reg::ZERO, target: 0 };
        let t = Trace::assemble(
            TraceId::new(0, 1, 1),
            &[(0, br, Some(true), false)],
            EndReason::MaxLen,
            None,
        );
        let mut s = Slot::EMPTY;
        assert_eq!(s.branch_fault(&t.insts()[0]), None, "unresolved");
        s.outcome = Some(true);
        assert_eq!(s.branch_fault(&t.insts()[0]), None);
        s.outcome = Some(false);
        assert_eq!(s.branch_fault(&t.insts()[0]), Some(Fault::CondBranch { actual: false }));
    }
}
