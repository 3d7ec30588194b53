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

/// Where a slot reads one source operand: the paper's two-level register
/// file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Src {
    /// A live-in: a register of the global file.
    Global(PhysRegId),
    /// A value produced inside the trace: the published result of this
    /// slot of the same PE (the PE's local register file).
    Local(u8),
}

/// A slot's result as its consumers see it: written at completion only
/// (`Slot::value` is overwritten at issue), kept across reissues, and
/// moved with the slot when a trace repair shifts it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Published {
    /// The value last published.
    pub value: Word,
    /// Whether a value has been published at all.
    pub produced: bool,
    /// Cycle from which the slot's own PE may read the value (`u64::MAX`
    /// until produced).
    pub ready_at: u64,
}

impl Published {
    /// Nothing published yet.
    pub const NONE: Published = Published { value: 0, produced: false, ready_at: u64::MAX };

    /// Whether a consumer in the same PE may read the value at `now`.
    #[inline]
    pub fn readable(&self, now: u64) -> bool {
        self.produced && now >= self.ready_at
    }
}

/// One instruction slot in a PE.
#[derive(Clone, Debug)]
pub struct Slot {
    /// The trace instruction occupying the slot.
    pub ti: TraceInst,
    /// Where each source operand is read from.
    pub srcs: [Option<Src>; 2],
    /// The slot's global register, if it has one. Allocated for a trace
    /// live-out (at dispatch, or when a repair promotes the slot) and kept
    /// for the rest of the slot's life, even if a later repair demotes it:
    /// younger traces may still name it until re-dispatch rebinds them.
    pub global: Option<PhysRegId>,
    /// Whether the destination is a trace live-out (its value crosses PEs
    /// via a global result bus).
    pub is_liveout: bool,
    /// The slot's consumers in its PE: bit `i` of element `k` is set iff
    /// slot `i`'s `k`-th operand is [`Src::Local`] of this slot. Set when
    /// the trace's operands are bound (dispatch, repair).
    pub consumers: [u64; 2],
    /// Execution state.
    pub state: SlotState,
    /// A new input arrived while in flight / after completion: reissue.
    pub pending_reissue: bool,
    /// The slot must not issue before this cycle (load snoop penalty).
    pub not_before: u64,
    /// Latest computed destination value.
    pub value: Word,
    /// The result published to consumers at the last completion.
    pub out: Published,
    /// Latest computed branch outcome.
    pub outcome: Option<bool>,
    /// Latest computed indirect target.
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
    /// How many times the slot issued (statistics).
    pub issues: u32,
    /// Set when a repair replaced this slot's embedded outcome (the slot's
    /// original prediction was wrong); counted at retirement. Written by
    /// the simulator's books, like `attr`.
    pub was_mispredicted: bool,
    /// Attribution-ledger coordinate of the last recovery this slot's
    /// misprediction went through (class, heuristic, outcome); `None` until
    /// the slot faults. Observation-only.
    pub attr: Option<AttrKey>,
}

impl Slot {
    /// Creates a fresh slot for `ti` (operands bound later by rename).
    pub fn new(ti: TraceInst) -> Slot {
        Slot {
            ti,
            srcs: [None; 2],
            global: None,
            is_liveout: false,
            consumers: [0; 2],
            state: SlotState::Waiting,
            pending_reissue: false,
            not_before: 0,
            value: 0,
            out: Published::NONE,
            outcome: None,
            indirect_target: None,
            mem_addr: None,
            load_src: None,
            store_performed: false,
            fault: None,
            issues: 0,
            was_mispredicted: false,
            attr: None,
        }
    }

    /// The fault a completed conditional branch raises: its resolved
    /// outcome against the outcome embedded in the trace.
    pub fn branch_fault(&self) -> Option<Fault> {
        match self.outcome {
            Some(actual) if Some(actual) != self.ti.embedded_taken => {
                Some(Fault::CondBranch { actual })
            }
            _ => None,
        }
    }

    /// Whether the slot has finished (and no reissue is pending).
    pub fn is_complete(&self) -> bool {
        self.state == SlotState::Done && !self.pending_reissue && self.fault.is_none()
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

/// A processing element: holds one trace and its execution state.
#[derive(Clone, Debug)]
pub struct Pe {
    /// Whether a trace currently occupies the PE.
    pub occupied: bool,
    /// Generation counter, bumped on every (re)allocation; stale references
    /// (bus queues, reader lists) are validated against it.
    pub gen: u64,
    /// The trace (kept in sync with repairs).
    pub trace: Arc<Trace>,
    /// Instruction slots, one per trace instruction.
    pub slots: Vec<Slot>,
    /// Fault mask: bit `i` is set iff `slots[i].fault` is `Some` (traces
    /// are at most 64 slots long, like the wakeup index's ready masks).
    /// Written only by [`Pe::set_fault`] and [`Pe::recompute_faults`].
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
            faults: 0,
            map_before: [PhysRegId::ZERO; tp_isa::Reg::COUNT],
            map_after: [PhysRegId::ZERO; tp_isa::Reg::COUNT],
            hist_before: hist,
            source: FetchPath::Fallback,
            repairs: 0,
            dispatched_at: 0,
        }
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
    /// fault mask coherent. The only writer of [`Slot::fault`].
    pub fn set_fault(&mut self, slot: usize, fault: Option<Fault>) {
        self.slots[slot].fault = fault;
        if fault.is_some() {
            self.faults |= 1 << slot;
        } else {
            self.faults &= !(1u64 << slot);
        }
    }

    /// The fault mask as a scan of the slots finds it (what
    /// [`Pe::faults`] must always equal).
    pub fn scan_faults(&self) -> u64 {
        let faulting = self.slots.iter().enumerate().filter(|(_, s)| s.fault.is_some());
        faulting.fold(0, |m, (i, _)| m | 1 << i)
    }

    /// Rebuilds the fault mask from the slots, after they were replaced,
    /// cleared or moved wholesale.
    pub fn recompute_faults(&mut self) {
        self.faults = self.scan_faults();
    }

    /// Whether every slot has completed (trace is ready to retire, pending
    /// the logical-order checks done by the core).
    pub fn all_complete(&self) -> bool {
        self.slots.iter().all(Slot::is_complete)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_isa::{AluOp, Inst, Reg};
    use tp_trace::OperandRef;

    fn ti(inst: Inst) -> TraceInst {
        TraceInst {
            pc: 0,
            inst,
            embedded_taken: None,
            srcs: [None, None],
            dest: inst.dest(),
            fgci_covered: false,
        }
    }

    #[test]
    fn fresh_slot_is_waiting() {
        let s = Slot::new(ti(Inst::Nop));
        assert_eq!(s.state, SlotState::Waiting);
        assert!(!s.is_complete());
    }

    #[test]
    fn mark_reissue_from_done_requeues() {
        let mut s = Slot::new(ti(Inst::Nop));
        s.state = SlotState::Done;
        assert!(s.mark_reissue(5));
        assert_eq!(s.state, SlotState::Waiting);
        assert!(!s.pending_reissue);
        assert_eq!(s.not_before, 5);
    }

    #[test]
    fn mark_reissue_in_flight_sets_flag() {
        let mut s = Slot::new(ti(Inst::Nop));
        s.state = SlotState::Executing { done_at: 9 };
        assert!(!s.mark_reissue(3));
        assert_eq!(s.state, SlotState::Executing { done_at: 9 });
        assert!(s.pending_reissue);
    }

    #[test]
    fn completion_requires_no_fault_and_no_reissue() {
        let mut s = Slot::new(ti(Inst::Nop));
        s.state = SlotState::Done;
        assert!(s.is_complete());
        s.fault = Some(Fault::CondBranch { actual: true });
        assert!(!s.is_complete());
        s.fault = None;
        s.pending_reissue = true;
        assert!(!s.is_complete());
    }

    #[test]
    fn pe_first_fault_finds_oldest() {
        let mut pe = Pe::empty(TraceHistory::new(4));
        pe.slots =
            vec![Slot::new(ti(Inst::Nop)), Slot::new(ti(Inst::Nop)), Slot::new(ti(Inst::Nop))];
        assert_eq!(pe.first_fault(), None);
        pe.set_fault(2, Some(Fault::CondBranch { actual: false }));
        pe.set_fault(1, Some(Fault::CondBranch { actual: true }));
        assert_eq!(pe.first_fault(), Some(1));
        assert_eq!(pe.faults(), 0b110);
        pe.set_fault(1, None);
        assert_eq!(pe.first_fault(), Some(2));
        assert!(pe.slots[1].fault.is_none());
        pe.recompute_faults();
        assert_eq!(pe.faults(), 0b100);
        pe.set_fault(2, None);
        assert_eq!(pe.first_fault(), None);
    }

    #[test]
    fn branch_fault_compares_outcome_with_embedded() {
        let br = Inst::Branch { cond: tp_isa::Cond::Eq, rs: Reg::new(1), rt: Reg::ZERO, target: 0 };
        let mut t = ti(br);
        t.embedded_taken = Some(true);
        let mut s = Slot::new(t);
        assert_eq!(s.branch_fault(), None, "unresolved");
        s.outcome = Some(true);
        assert_eq!(s.branch_fault(), None);
        s.outcome = Some(false);
        assert_eq!(s.branch_fault(), Some(Fault::CondBranch { actual: false }));
    }

    #[test]
    fn operand_ref_metadata_survives_in_slot() {
        let inst = Inst::Alu { op: AluOp::Add, rd: Reg::new(1), rs: Reg::new(2), rt: Reg::new(3) };
        let mut t = ti(inst);
        t.srcs = [
            Some((Reg::new(2), OperandRef::LiveIn(Reg::new(2)))),
            Some((Reg::new(3), OperandRef::Local(0))),
        ];
        let s = Slot::new(t);
        assert_eq!(s.ti.srcs[1], Some((Reg::new(3), OperandRef::Local(0))));
    }
}
