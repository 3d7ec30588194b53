//! The [`Trace`] type: the fundamental unit of control flow in a trace
//! processor.

use std::fmt;

use tp_isa::{Inst, Pc, Reg};
use tp_stats::attr::BranchClass;

/// Identifies a trace: its starting PC plus the embedded outcomes of its
/// conditional branches, in fetch order.
///
/// This is exactly the information a next-trace prediction carries in the
/// paper ("starting PC and branch outcomes"): it fully determines the
/// instruction sequence of the trace under a fixed selection algorithm.
///
/// # Example
///
/// ```
/// use tp_trace::TraceId;
/// let id = TraceId::new(64, 0b101, 3); // starts at 64, outcomes T,NT,T
/// assert_eq!(id.start(), 64);
/// assert_eq!(id.outcome(0), true);
/// assert_eq!(id.outcome(1), false);
/// assert_eq!(id.outcome(2), true);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId {
    start: Pc,
    mask: u32,
    branches: u8,
}

impl TraceId {
    /// Creates a trace id from a start PC, an outcome bitmask (bit `i` is the
    /// outcome of the `i`-th conditional branch) and the number of embedded
    /// conditional branches.
    ///
    /// # Panics
    ///
    /// Panics if `branches > 32`.
    pub fn new(start: Pc, mask: u32, branches: u8) -> TraceId {
        assert!(branches <= 32, "a trace embeds at most 32 conditional branches");
        let mask = if branches == 32 { mask } else { mask & ((1u32 << branches) - 1) };
        TraceId { start, mask, branches }
    }

    /// The trace's starting PC.
    pub fn start(self) -> Pc {
        self.start
    }

    /// The embedded-outcome bitmask.
    pub fn mask(self) -> u32 {
        self.mask
    }

    /// Number of embedded conditional branches.
    pub fn branches(self) -> u8 {
        self.branches
    }

    /// The embedded outcome of the `i`-th conditional branch.
    ///
    /// Branches beyond [`TraceId::branches`] report `false` (not taken),
    /// which lets predicted ids drive selection past their recorded depth.
    pub fn outcome(self, i: u8) -> bool {
        i < 32 && (self.mask >> i) & 1 == 1
    }

    /// A stable 64-bit hash of the id, used for predictor/cache indexing.
    pub fn hash64(self) -> u64 {
        // A small xorshift-multiply mix; determinism matters (same inputs on
        // every run), cryptographic quality does not.
        let mut x = (self.start as u64) << 40 ^ (self.mask as u64) << 8 ^ self.branches as u64;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^ (x >> 33)
    }
}

impl fmt::Debug for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T@{}", self.start)?;
        if self.branches > 0 {
            write!(f, ":")?;
            for i in 0..self.branches {
                write!(f, "{}", if self.outcome(i) { 'T' } else { 'N' })?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Where an instruction operand's value comes from, as pre-computed by trace
/// construction ("intra-trace values are pre-renamed in the trace cache").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OperandRef {
    /// The value is live-in to the trace: produced by an older trace (or
    /// architectural state) for the given architectural register.
    LiveIn(Reg),
    /// The value is produced inside the trace by the instruction at the
    /// given trace slot index.
    Local(u8),
}

/// One instruction within a trace, with its pre-renamed operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceInst {
    /// The instruction's PC.
    pub pc: Pc,
    /// The instruction itself.
    pub inst: Inst,
    /// For conditional branches, the embedded (predicted) outcome.
    pub embedded_taken: Option<bool>,
    /// Pre-renamed sources: `(architectural register, where its value comes
    /// from)`, in the order reported by [`Inst::sources`].
    pub srcs: [Option<(Reg, OperandRef)>; 2],
    /// Destination architectural register, if any.
    pub dest: Option<Reg>,
    /// Whether this instruction lies inside an active FGCI padding region
    /// (including the region-opening branch itself). Mispredictions of
    /// covered conditional branches are repairable with fine-grain control
    /// independence: the repaired trace is guaranteed to end at the same
    /// point.
    pub fgci_covered: bool,
    /// The instruction's readers inside the trace, built by
    /// [`Trace::assemble`]: bit `i` of element `k` is set iff instruction
    /// `i`'s `k`-th source is [`OperandRef::Local`] of this instruction.
    pub consumers: [u32; 2],
}

impl TraceInst {
    /// The attribution-ledger class of this instruction, if it is a
    /// conditional branch: backward (loop-type), forward inside an
    /// FGCI-embedded region, or other forward.
    pub fn ci_branch_class(&self) -> Option<BranchClass> {
        if !self.inst.is_cond_branch() {
            return None;
        }
        Some(if self.inst.is_backward_branch(self.pc) {
            BranchClass::Backward
        } else if self.fgci_covered {
            BranchClass::ForwardFgci
        } else {
            BranchClass::ForwardOther
        })
    }
}

/// Why trace selection terminated a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EndReason {
    /// Reached the maximum trace length.
    MaxLen,
    /// Ended at an indirect control transfer (jump indirect, call indirect,
    /// or return) — default selection.
    Indirect,
    /// Ended at a predicted not-taken backward branch — `ntb` selection,
    /// exposing a loop exit as a global re-convergent point.
    Ntb,
    /// Ended at a `Halt`.
    Halt,
    /// Ended because the next PC left the program image (wrong-path
    /// construction only).
    OutOfProgram,
}

/// A set of architectural registers in insertion order, held inline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RegList {
    regs: [Reg; Reg::COUNT],
    len: u8,
}

impl RegList {
    const EMPTY: RegList = RegList { regs: [Reg::ZERO; Reg::COUNT], len: 0 };

    fn push(&mut self, r: Reg) {
        self.regs[self.len as usize] = r;
        self.len += 1;
    }

    fn as_slice(&self) -> &[Reg] {
        &self.regs[..self.len as usize]
    }
}

/// A constructed trace: instructions plus the metadata the trace cache
/// stores (pre-renames, live-ins/live-outs, end reason, fall-out PC).
///
/// Besides the pre-renames, [`Trace::assemble`] builds everything the
/// processor derives from the trace alone when it dispatches it, so
/// dispatch works per live-in and live-out, not per instruction: each
/// instruction's local consumers ([`TraceInst::consumers`]), the live-out
/// slots ([`Trace::live_out_slots`]) and the positions of the live-in
/// operands ([`Trace::live_in_operands`]). All of it is a function of the
/// instructions, so equality is unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    id: TraceId,
    insts: Vec<TraceInst>,
    end: EndReason,
    next_pc: Option<Pc>,
    live_ins: RegList,
    live_outs: RegList,
    /// Slot of each architectural register's last writer.
    last_writer: [Option<u8>; Reg::COUNT],
    /// Bit `i` set iff slot `i` is the last writer of its destination.
    live_out_slots: u32,
    /// Bit `2i + k` set iff slot `i`'s `k`-th source is a live-in of a
    /// register other than `r0`.
    live_in_operands: u64,
    /// Bit `i` set iff slot `i` has a [`OperandRef::Local`] source.
    local_readers: u32,
}

impl Trace {
    /// The longest trace: selection never builds a longer one, and the
    /// per-trace slot masks have one bit per instruction.
    pub const MAX_LEN: usize = 32;

    /// Assembles a trace from raw per-instruction records, computing
    /// pre-renames, live-in/live-out sets and the dispatch template (local
    /// consumers, live-out slots, live-in operand positions).
    ///
    /// `raw` carries `(pc, inst, embedded_taken, fgci_covered)` per
    /// instruction; `next_pc` is the PC the trace falls out to.
    ///
    /// # Panics
    ///
    /// Panics if `raw` is empty or longer than [`Trace::MAX_LEN`].
    pub fn assemble(
        id: TraceId,
        raw: &[(Pc, Inst, Option<bool>, bool)],
        end: EndReason,
        next_pc: Option<Pc>,
    ) -> Trace {
        assert!(!raw.is_empty(), "a trace holds at least one instruction");
        assert!(raw.len() <= Trace::MAX_LEN, "trace too long");
        let mut last_writer: [Option<u8>; Reg::COUNT] = [None; Reg::COUNT];
        let mut live_ins = RegList::EMPTY;
        let mut live_in_set = 0u32;
        let (mut live_in_operands, mut local_readers) = (0u64, 0u32);
        let mut insts: Vec<TraceInst> = Vec::with_capacity(raw.len());
        for (slot, &(pc, inst, embedded_taken, fgci_covered)) in raw.iter().enumerate() {
            let mut srcs = [None; 2];
            for (k, r) in inst.sources().iter().enumerate() {
                let op = if r.is_zero() {
                    // r0 always reads zero: model as a live-in of r0, which
                    // renames to the constant-zero physical register.
                    OperandRef::LiveIn(Reg::ZERO)
                } else {
                    match last_writer[r.index()] {
                        Some(s) => {
                            let producer: &mut TraceInst = &mut insts[s as usize];
                            producer.consumers[k] |= 1 << slot;
                            local_readers |= 1 << slot;
                            OperandRef::Local(s)
                        }
                        None => {
                            if live_in_set >> r.index() & 1 == 0 {
                                live_in_set |= 1 << r.index();
                                live_ins.push(r);
                            }
                            live_in_operands |= 1 << (2 * slot + k);
                            OperandRef::LiveIn(r)
                        }
                    }
                };
                srcs[k] = Some((r, op));
            }
            let dest = inst.dest();
            if let Some(d) = dest {
                last_writer[d.index()] = Some(slot as u8);
            }
            let consumers = [0; 2];
            insts.push(TraceInst { pc, inst, embedded_taken, srcs, dest, fgci_covered, consumers });
        }
        let mut live_outs = RegList::EMPTY;
        let mut live_out_slots = 0u32;
        for r in Reg::all() {
            if let Some(w) = last_writer[r.index()] {
                live_outs.push(r);
                live_out_slots |= 1 << w;
            }
        }
        Trace {
            id,
            insts,
            end,
            next_pc,
            live_ins,
            live_outs,
            last_writer,
            live_out_slots,
            live_in_operands,
            local_readers,
        }
    }

    /// The trace's identifier.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// The trace's instructions, in fetch order.
    pub fn insts(&self) -> &[TraceInst] {
        &self.insts
    }

    /// Number of instructions in the trace.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the trace is empty (never true).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Why selection terminated the trace.
    pub fn end(&self) -> EndReason {
        self.end
    }

    /// The PC control falls out to after the trace, when known at
    /// construction time. `None` for halt-ending traces, traces that ran off
    /// the program image on a wrong path, and indirect-ending traces whose
    /// target could not be predicted.
    pub fn next_pc(&self) -> Option<Pc> {
        self.next_pc
    }

    /// Architectural registers read before being written inside the trace,
    /// in first-read order.
    pub fn live_ins(&self) -> &[Reg] {
        self.live_ins.as_slice()
    }

    /// Architectural registers written by the trace (each register's last
    /// writer defines the trace's live-out value), in register order.
    pub fn live_outs(&self) -> &[Reg] {
        self.live_outs.as_slice()
    }

    /// The live-out slots as a mask: bit `i` is set iff slot `i` is the
    /// last writer of its destination, so its value leaves the trace.
    pub fn live_out_slots(&self) -> u32 {
        self.live_out_slots
    }

    /// Whether slot `i` is the last writer of its destination.
    #[inline]
    pub fn is_live_out(&self, i: usize) -> bool {
        self.live_out_slots >> i & 1 == 1
    }

    /// The slots with at least one [`OperandRef::Local`] source, as a mask.
    pub fn local_readers(&self) -> u32 {
        self.local_readers
    }

    /// The live-in operands other than `r0` as `(slot, operand, register)`,
    /// in slot order and, within a slot, in operand order.
    pub fn live_in_operands(&self) -> impl Iterator<Item = (usize, usize, Reg)> + '_ {
        let mut mask = self.live_in_operands;
        std::iter::from_fn(move || {
            (mask != 0).then(|| {
                let bit = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let (i, k) = (bit / 2, bit % 2);
                let reg = self.insts[i].srcs[k].expect("a live-in operand exists").0;
                (i, k, reg)
            })
        })
    }

    /// Slot index of the last writer of `r` inside the trace, if any.
    pub fn last_writer(&self, r: Reg) -> Option<usize> {
        self.last_writer[r.index()].map(usize::from)
    }

    /// Whether the trace's final instruction is a return (needed by the RET
    /// CGCI heuristic).
    pub fn ends_in_return(&self) -> bool {
        self.insts.last().is_some_and(|ti| ti.inst.is_return())
    }

    /// The attribution-ledger class of the conditional branch in `slot`,
    /// if that slot holds one (see [`TraceInst::ci_branch_class`]).
    pub fn branch_class(&self, slot: usize) -> Option<BranchClass> {
        self.insts.get(slot).and_then(TraceInst::ci_branch_class)
    }

    /// The attribution-ledger class of the trace's endpoint, when the
    /// trace ends at a conditional branch (an `ntb`-terminated loop exit).
    pub fn endpoint_class(&self) -> Option<BranchClass> {
        self.insts.last().and_then(TraceInst::ci_branch_class)
    }

    /// Iterates over `(slot, &TraceInst)` for the trace's conditional
    /// branches.
    pub fn cond_branches(&self) -> impl Iterator<Item = (usize, &TraceInst)> {
        self.insts.iter().enumerate().filter(|(_, ti)| ti.inst.is_cond_branch())
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let next = match self.next_pc {
            Some(pc) => format!("@{pc}"),
            None => "?".to_string(),
        };
        writeln!(f, "trace {} ({} insts, end {:?}, next {next})", self.id, self.len(), self.end)?;
        for (i, ti) in self.insts.iter().enumerate() {
            let cover = if ti.fgci_covered { " [fg]" } else { "" };
            let emb = match ti.embedded_taken {
                Some(true) => " (T)",
                Some(false) => " (N)",
                None => "",
            };
            writeln!(f, "  {i:3} @{:5} {}{emb}{cover}", ti.pc, ti.inst)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_isa::{AluOp, Cond};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn trace_id_masks_extra_bits() {
        let id = TraceId::new(10, 0xff, 3);
        assert_eq!(id.mask(), 0b111);
        assert!(!id.outcome(3));
        assert!(!id.outcome(40));
    }

    #[test]
    fn trace_id_debug_format() {
        let id = TraceId::new(5, 0b01, 2);
        assert_eq!(format!("{id:?}"), "T@5:TN");
        assert_eq!(TraceId::new(5, 0, 0).to_string(), "T@5");
    }

    #[test]
    fn trace_id_hash_is_deterministic_and_spreads() {
        let a = TraceId::new(1, 0, 0).hash64();
        let b = TraceId::new(1, 0, 0).hash64();
        let c = TraceId::new(2, 0, 0).hash64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "at most 32")]
    fn trace_id_rejects_too_many_branches() {
        let _ = TraceId::new(0, 0, 33);
    }

    #[test]
    fn assemble_computes_pre_renames() {
        // slot0: r1 = r2 + 1   (r2 live-in)
        // slot1: r3 = r1 + r2  (r1 local from slot0, r2 live-in)
        // slot2: r1 = r3 + 2   (r3 local from slot1)
        let raw = vec![
            (0, Inst::AluImm { op: AluOp::Add, rd: r(1), rs: r(2), imm: 1 }, None, false),
            (1, Inst::Alu { op: AluOp::Add, rd: r(3), rs: r(1), rt: r(2) }, None, false),
            (2, Inst::AluImm { op: AluOp::Add, rd: r(1), rs: r(3), imm: 2 }, None, false),
        ];
        let t = Trace::assemble(TraceId::new(0, 0, 0), &raw, EndReason::MaxLen, Some(3));
        assert_eq!(t.live_ins(), &[r(2)]);
        assert_eq!(t.live_outs(), &[r(1), r(3)]);
        assert_eq!(t.insts()[0].srcs[0], Some((r(2), OperandRef::LiveIn(r(2)))));
        assert_eq!(t.insts()[1].srcs[0], Some((r(1), OperandRef::Local(0))));
        assert_eq!(t.insts()[1].srcs[1], Some((r(2), OperandRef::LiveIn(r(2)))));
        assert_eq!(t.insts()[2].srcs[0], Some((r(3), OperandRef::Local(1))));
        assert_eq!(t.last_writer(r(1)), Some(2));
        assert_eq!(t.last_writer(r(3)), Some(1));
        assert_eq!(t.last_writer(r(9)), None);
    }

    /// The table `assemble` stores must answer exactly like a reverse scan
    /// of the instructions, for every architectural register.
    fn assert_last_writer_matches_scan(t: &Trace) {
        for reg in Reg::all() {
            let scan = t.insts().iter().rposition(|ti| ti.dest == Some(reg));
            assert_eq!(t.last_writer(reg), scan, "{reg} in {t}");
        }
    }

    #[test]
    fn last_writer_table_matches_reverse_scan() {
        let traces = [
            // Repeated writers of r1 and r3, a read of r0, a writer of
            // nothing in between.
            vec![
                (0, Inst::AluImm { op: AluOp::Add, rd: r(1), rs: Reg::ZERO, imm: 1 }, None, false),
                (1, Inst::Alu { op: AluOp::Add, rd: r(3), rs: r(1), rt: r(1) }, None, false),
                (2, Inst::Nop, None, false),
                (3, Inst::AluImm { op: AluOp::Add, rd: r(1), rs: r(3), imm: 2 }, None, false),
                (4, Inst::Alu { op: AluOp::Sub, rd: r(3), rs: Reg::ZERO, rt: r(1) }, None, false),
                (5, Inst::AluImm { op: AluOp::Add, rd: r(1), rs: r(1), imm: 3 }, None, false),
            ],
            // No writer at all.
            vec![
                (0, Inst::Nop, None, false),
                (
                    1,
                    Inst::Branch { cond: Cond::Eq, rs: r(1), rt: Reg::ZERO, target: 0 },
                    Some(true),
                    false,
                ),
            ],
            // A single writer in the last slot.
            vec![
                (0, Inst::Nop, None, false),
                (1, Inst::AluImm { op: AluOp::Add, rd: r(31), rs: r(31), imm: 1 }, None, false),
            ],
        ];
        for raw in &traces {
            let t = Trace::assemble(TraceId::new(0, 0, 0), raw, EndReason::MaxLen, Some(9));
            assert_last_writer_matches_scan(&t);
        }
        let t = Trace::assemble(TraceId::new(0, 0, 0), &traces[0], EndReason::MaxLen, Some(9));
        assert_eq!(t.last_writer(r(1)), Some(5));
        assert_eq!(t.last_writer(r(3)), Some(4));
        assert_eq!(t.last_writer(Reg::ZERO), None);
        assert_eq!(t.last_writer(r(2)), None);
    }

    #[test]
    fn r0_sources_are_zero_live_ins() {
        let raw = vec![(
            0,
            Inst::AluImm { op: AluOp::Add, rd: r(1), rs: Reg::ZERO, imm: 7 },
            None,
            false,
        )];
        let t = Trace::assemble(TraceId::new(0, 0, 0), &raw, EndReason::Halt, None);
        assert_eq!(t.insts()[0].srcs[0], Some((Reg::ZERO, OperandRef::LiveIn(Reg::ZERO))));
        // r0 never appears in the live-in set proper.
        assert!(t.live_ins().is_empty());
    }

    #[test]
    fn ends_in_return_detects_ret() {
        let raw = vec![(0, Inst::Ret, None, false)];
        let t = Trace::assemble(TraceId::new(0, 0, 0), &raw, EndReason::Indirect, Some(0));
        assert!(t.ends_in_return());
    }

    #[test]
    fn cond_branches_iterates_branch_slots() {
        let raw = vec![
            (0, Inst::Nop, None, false),
            (1, Inst::Branch { cond: Cond::Eq, rs: r(1), rt: r(2), target: 5 }, Some(true), false),
            (2, Inst::Nop, None, false),
        ];
        let t = Trace::assemble(TraceId::new(0, 1, 1), &raw, EndReason::MaxLen, Some(3));
        let brs: Vec<usize> = t.cond_branches().map(|(i, _)| i).collect();
        assert_eq!(brs, vec![1]);
        assert_eq!(t.insts()[1].embedded_taken, Some(true));
    }

    #[test]
    fn branch_class_metadata() {
        let raw = vec![
            // Forward branch inside a padded region.
            (0, Inst::Branch { cond: Cond::Eq, rs: r(1), rt: r(2), target: 2 }, Some(false), true),
            (1, Inst::Nop, None, true),
            // Plain forward branch.
            (2, Inst::Branch { cond: Cond::Eq, rs: r(1), rt: r(2), target: 4 }, Some(false), false),
            (3, Inst::Nop, None, false),
            // Backward branch endpoint (an ntb-terminated loop exit).
            (4, Inst::Branch { cond: Cond::Gt, rs: r(1), rt: r(2), target: 0 }, Some(false), false),
        ];
        let t = Trace::assemble(TraceId::new(0, 0, 3), &raw, EndReason::Ntb, Some(5));
        assert_eq!(t.branch_class(0), Some(BranchClass::ForwardFgci));
        assert_eq!(t.branch_class(1), None);
        assert_eq!(t.branch_class(2), Some(BranchClass::ForwardOther));
        assert_eq!(t.branch_class(4), Some(BranchClass::Backward));
        assert_eq!(t.endpoint_class(), Some(BranchClass::Backward));
        assert_eq!(t.branch_class(99), None);
    }

    #[test]
    fn display_shows_coverage_and_outcomes() {
        let raw = vec![
            (0, Inst::Branch { cond: Cond::Eq, rs: r(1), rt: r(2), target: 2 }, Some(false), true),
            (1, Inst::Nop, None, true),
        ];
        let t = Trace::assemble(TraceId::new(0, 0, 1), &raw, EndReason::MaxLen, Some(2));
        let s = t.to_string();
        assert!(s.contains("[fg]"));
        assert!(s.contains("(N)"));
    }
}
