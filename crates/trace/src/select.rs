//! Trace selection: dividing the dynamic instruction stream into traces.
//!
//! Default selection terminates a trace at the maximum trace length or at
//! any indirect control transfer (jump indirect, call indirect, return).
//! Two additional, composable constraints implement the paper's control
//! independence support:
//!
//! * **`ntb`** terminates traces at predicted not-taken backward branches,
//!   exposing loop exits as global re-convergent points for CGCI;
//! * **`fg`** consults the [BIT](crate::Bit) at every forward conditional
//!   branch and *pads* the accrued trace length by the branch's dynamic
//!   region size, so that every path through an embeddable region ends the
//!   trace at the same instruction — trace-level re-convergence for FGCI.

use crate::bit::Bit;
use crate::fgci::analyze_region;
use crate::trace::{EndReason, Trace, TraceId};
use tp_isa::{Inst, Pc, Program};

/// Trace selection configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelectionConfig {
    /// Maximum trace length in instructions (the paper uses 32).
    pub max_len: u32,
    /// Terminate traces at predicted not-taken backward branches.
    pub ntb: bool,
    /// Apply FGCI region padding.
    pub fg: bool,
}

impl Default for SelectionConfig {
    fn default() -> SelectionConfig {
        SelectionConfig::base()
    }
}

impl SelectionConfig {
    /// Default selection only (`base` in the paper's experiments).
    pub fn base() -> SelectionConfig {
        SelectionConfig { max_len: 32, ntb: false, fg: false }
    }

    /// Default + `ntb` (`base(ntb)`).
    pub fn with_ntb() -> SelectionConfig {
        SelectionConfig { ntb: true, ..SelectionConfig::base() }
    }

    /// Default + `fg` (`base(fg)`).
    pub fn with_fg() -> SelectionConfig {
        SelectionConfig { fg: true, ..SelectionConfig::base() }
    }

    /// Default + `fg` + `ntb` (`base(fg,ntb)`).
    pub fn with_fg_ntb() -> SelectionConfig {
        SelectionConfig { fg: true, ntb: true, ..SelectionConfig::base() }
    }

    /// A short human-readable name matching the paper's notation.
    pub fn name(&self) -> &'static str {
        match (self.fg, self.ntb) {
            (false, false) => "base",
            (false, true) => "base(ntb)",
            (true, false) => "base(fg)",
            (true, true) => "base(fg,ntb)",
        }
    }
}

/// Supplies branch outcomes and indirect targets to the selector.
///
/// During trace construction in the frontend this is backed by the predicted
/// trace id plus the branch predictor; at retirement it is backed by the
/// actual executed outcomes.
pub trait OutcomeSource {
    /// The outcome of the `index`-th conditional branch of the trace under
    /// construction, located at `pc`.
    fn cond_outcome(&mut self, index: u8, pc: Pc, inst: Inst) -> bool;

    /// The target of a trace-ending indirect transfer at `pc`, or `None`
    /// when no prediction is available.
    fn indirect_target(&mut self, pc: Pc, inst: Inst) -> Option<Pc>;
}

/// An [`OutcomeSource`] built from two closures.
#[derive(Debug)]
pub struct ClosureOutcomes<F, G> {
    cond: F,
    indirect: G,
}

impl<F, G> ClosureOutcomes<F, G>
where
    F: FnMut(u8, Pc, Inst) -> bool,
    G: FnMut(Pc, Inst) -> Option<Pc>,
{
    /// Wraps closures for conditional outcomes and indirect targets.
    pub fn new(cond: F, indirect: G) -> ClosureOutcomes<F, G> {
        ClosureOutcomes { cond, indirect }
    }
}

impl<F, G> OutcomeSource for ClosureOutcomes<F, G>
where
    F: FnMut(u8, Pc, Inst) -> bool,
    G: FnMut(Pc, Inst) -> Option<Pc>,
{
    fn cond_outcome(&mut self, index: u8, pc: Pc, inst: Inst) -> bool {
        (self.cond)(index, pc, inst)
    }

    fn indirect_target(&mut self, pc: Pc, inst: Inst) -> Option<Pc> {
        (self.indirect)(pc, inst)
    }
}

/// An [`OutcomeSource`] that replays the outcomes embedded in a [`TraceId`]
/// (a next-trace prediction *is* a starting PC plus branch outcomes).
/// Branches beyond the id's depth and indirect targets fall back to
/// not-taken / unknown.
#[derive(Clone, Copy, Debug)]
pub struct IdOutcomes {
    id: TraceId,
}

impl IdOutcomes {
    /// Replays the outcomes of `id`.
    pub fn new(id: TraceId) -> IdOutcomes {
        IdOutcomes { id }
    }
}

impl OutcomeSource for IdOutcomes {
    fn cond_outcome(&mut self, index: u8, _pc: Pc, _inst: Inst) -> bool {
        self.id.outcome(index)
    }

    fn indirect_target(&mut self, _pc: Pc, _inst: Inst) -> Option<Pc> {
        None
    }
}

/// Per-selection bookkeeping returned alongside the trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelectionStats {
    /// Cycles spent in the BIT miss handler (the FGCI-algorithm scans one
    /// instruction per cycle); the frontend stalls trace construction for
    /// this long.
    pub bit_miss_cycles: u32,
    /// Number of BIT misses taken.
    pub bit_misses: u32,
    /// Number of embeddable regions padded into the trace.
    pub padded_regions: u32,
    /// Total padding added (dynamic region sizes minus actual path lengths).
    pub pad_instructions: u32,
}

/// The raw records of the trace being selected, held inline: selection
/// allocates nothing but the finished trace. A selected trace is at most
/// [`Trace::MAX_LEN`] long, since padding accrues a region's longest path
/// before any of its instructions are taken.
#[derive(Clone, Debug)]
struct RawTrace {
    records: [(Pc, Inst, Option<bool>, bool); Trace::MAX_LEN],
    len: usize,
}

impl RawTrace {
    fn new() -> RawTrace {
        RawTrace { records: [(0, Inst::Nop, None, false); Trace::MAX_LEN], len: 0 }
    }

    fn push(&mut self, record: (Pc, Inst, Option<bool>, bool)) {
        assert!(self.len < Trace::MAX_LEN, "trace too long");
        self.records[self.len] = record;
        self.len += 1;
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn as_slice(&self) -> &[(Pc, Inst, Option<bool>, bool)] {
        &self.records[..self.len]
    }
}

/// A selected trace plus its selection bookkeeping.
#[derive(Clone, Debug)]
pub struct Selection {
    /// The selected trace.
    pub trace: Trace,
    /// Selection bookkeeping (BIT miss stalls, padding counts).
    pub stats: SelectionStats,
}

impl From<Walk> for Selection {
    fn from(walk: Walk) -> Selection {
        Selection { trace: walk.assemble(), stats: walk.stats }
    }
}

/// A selected path before assembly ([`Selector::walk`]): the trace's id,
/// instructions, end and successor, plus the selection bookkeeping.
///
/// Under one [`SelectionConfig`] and one program, the id, the length, the
/// end and the successor fix the instructions: the id's outcomes choose
/// the path from its start, and the rest tell apart the traces that share
/// an id (a bounded CGCI construction cut short of the full trace, an
/// indirect-ending trace's predicted target). So a trace assembled
/// earlier from a walk that [`Walk::matches`] is the trace this walk
/// would assemble, and a caller may reuse it instead of assembling
/// another.
#[derive(Clone, Debug)]
pub struct Walk {
    id: TraceId,
    raw: RawTrace,
    end: EndReason,
    next_pc: Option<Pc>,
    /// Selection bookkeeping (BIT miss stalls, padding counts).
    pub stats: SelectionStats,
}

impl Walk {
    /// The selected trace's id.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// Whether `trace` is the trace this walk assembles: the same id,
    /// length, end and successor.
    pub fn matches(&self, trace: &Trace) -> bool {
        trace.id() == self.id
            && trace.len() == self.raw.len()
            && trace.end() == self.end
            && trace.next_pc() == self.next_pc
    }

    /// Assembles the selected trace ([`Trace::assemble`]).
    pub fn assemble(&self) -> Trace {
        Trace::assemble(self.id, self.raw.as_slice(), self.end, self.next_pc)
    }
}

/// The trace selector.
///
/// A selector is stateless apart from its configuration; the BIT is passed
/// in by the caller because it is a shared hardware structure with its own
/// timing.
///
/// Selection is a walk ([`Selector::walk`]) followed by assembly
/// ([`Walk::assemble`]). The trace processor's repair and construction
/// walk every trace, so outcome queries, BIT consults and
/// [`SelectionStats`] are those of a full selection, but they assemble
/// only when the trace cache holds no trace the walk [matches](Walk::matches):
/// the cache is where they find assembled traces.
///
/// # Example
///
/// ```
/// use tp_isa::{asm::Asm, Cond, Reg};
/// use tp_trace::{Bit, SelectionConfig, Selector};
///
/// let mut a = Asm::new("tiny");
/// a.li(Reg::new(1), 5);
/// a.label("top");
/// a.addi(Reg::new(1), Reg::new(1), -1);
/// a.branch(Cond::Gt, Reg::new(1), Reg::ZERO, "top");
/// a.halt();
/// let p = a.assemble()?;
///
/// let selector = Selector::new(SelectionConfig::base());
/// let mut bit = Bit::paper();
/// // Take both loop branches as taken: the trace revisits the loop body.
/// let sel = selector.select_with(&p, 0, &mut bit, |_, _, _| true, |_, _| None);
/// assert_eq!(sel.trace.id().start(), 0);
/// assert!(sel.trace.len() > 3);
/// # Ok::<(), tp_isa::asm::AsmError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Selector {
    config: SelectionConfig,
}

impl Selector {
    /// Creates a selector.
    ///
    /// # Panics
    ///
    /// Panics if `max_len` is 0 or exceeds 32 (a trace id records at most 32
    /// conditional-branch outcomes).
    pub fn new(config: SelectionConfig) -> Selector {
        assert!(config.max_len >= 1 && config.max_len <= 32, "max_len must be in 1..=32");
        Selector { config }
    }

    /// The selector's configuration.
    pub fn config(&self) -> SelectionConfig {
        self.config
    }

    /// Selects one trace starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a valid PC of `program`.
    pub fn select(
        &self,
        program: &Program,
        start: Pc,
        bit: &mut Bit,
        outcomes: &mut impl OutcomeSource,
    ) -> Selection {
        self.walk(program, start, bit, outcomes, None).into()
    }

    /// Walks the path [`Selector::select`] selects, with the same BIT
    /// consults and bookkeeping, but leaves assembling the trace to the
    /// caller ([`Walk::assemble`]), who may hold a matching trace already
    /// ([`Walk::matches`]).
    ///
    /// With `stop_before = Some((pc, min_len))` the trace ends just before
    /// `pc` whenever the path reaches it with at least `min_len`
    /// instructions already selected (`min_len` lets a caller skip over
    /// early encounters of a revisited PC). CGCI insertion bounds
    /// control-dependent traces this way at the known re-convergent PC
    /// (`min_len = 1`), so the next trace starts exactly there and
    /// re-convergence detection fires instead of the path overshooting it
    /// mid-trace.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a valid PC of `program`.
    pub fn walk(
        &self,
        program: &Program,
        start: Pc,
        bit: &mut Bit,
        outcomes: &mut impl OutcomeSource,
        stop_before: Option<(Pc, usize)>,
    ) -> Walk {
        self.walk_inner(program, start, bit, outcomes, stop_before, None)
    }

    /// Like [`Selector::walk`] followed by assembly, recording into
    /// `consults` the PC of every BIT query the selection makes, in query
    /// order.
    ///
    /// The consulted PCs are a function of the selected path alone (BIT
    /// contents change stats and LRU order, never the path), so a caller
    /// that memoizes a selection can later replay the exact BIT
    /// lookup/insert sequence with [`Selector::replay_bit`] instead of
    /// re-running selection.
    pub fn select_bounded_recording(
        &self,
        program: &Program,
        start: Pc,
        bit: &mut Bit,
        outcomes: &mut impl OutcomeSource,
        stop_before: Option<(Pc, usize)>,
        consults: &mut Vec<Pc>,
    ) -> Selection {
        self.walk_inner(program, start, bit, outcomes, stop_before, Some(consults)).into()
    }

    /// Replays one recorded BIT consult: an LRU-touching lookup, with the
    /// miss path re-running the (pure) FGCI region analysis and inserting
    /// the result — exactly the BIT state transition
    /// [`Selector::walk`] performs at a forward branch.
    pub fn replay_bit(&self, program: &Program, bit: &mut Bit, pc: Pc) {
        if bit.lookup(pc).is_none() {
            bit.insert(pc, analyze_region(program, pc, self.config.max_len));
        }
    }

    fn walk_inner(
        &self,
        program: &Program,
        start: Pc,
        bit: &mut Bit,
        outcomes: &mut impl OutcomeSource,
        stop_before: Option<(Pc, usize)>,
        mut consults: Option<&mut Vec<Pc>>,
    ) -> Walk {
        assert!(program.contains(start), "trace start pc {start} out of program");
        let cfg = self.config;
        let mut raw = RawTrace::new();
        let mut stats = SelectionStats::default();
        let mut accrued: u32 = 0;
        let mut region_end: Option<Pc> = None;
        let mut mask: u32 = 0;
        let mut branches: u8 = 0;
        let mut pc = start;

        let (end, next_pc) = loop {
            // Leaving an active padding region: accrual resumes at the
            // re-convergent instruction.
            if region_end == Some(pc) {
                region_end = None;
            }

            // Reached the caller's stop PC: end the trace right before it.
            // Never inside an active padding region — cutting a region in
            // half would emit `fgci_covered` slots whose embedded
            // alternate path is missing, breaking FGCI's same-successor
            // repair invariant (mirrors the max-len gating below).
            if region_end.is_none() {
                if let Some((sp, min_len)) = stop_before {
                    if sp == pc && raw.len() >= min_len.max(1) {
                        break (EndReason::MaxLen, Some(pc));
                    }
                }
            }

            // The accrued (padded) length is the trace's logical length;
            // selection stops the moment it reaches the maximum. Inside a
            // padded region this cannot trigger: region entry guaranteed the
            // whole region fits.
            if region_end.is_none() && accrued >= cfg.max_len {
                break (EndReason::MaxLen, Some(pc));
            }

            let Some(inst) = program.fetch(pc) else {
                break (EndReason::OutOfProgram, None);
            };

            // FGCI region padding: consult the BIT at forward conditional
            // branches outside any active region.
            if cfg.fg && region_end.is_none() && inst.is_forward_branch(pc) {
                if let Some(rec) = consults.as_deref_mut() {
                    rec.push(pc);
                }
                let info = match bit.lookup(pc) {
                    Some(info) => info,
                    None => {
                        let info = analyze_region(program, pc, cfg.max_len);
                        stats.bit_misses += 1;
                        stats.bit_miss_cycles += info.scan_cycles;
                        bit.insert(pc, info);
                        info
                    }
                };
                if info.embeddable {
                    if accrued + info.region_size <= cfg.max_len {
                        region_end = Some(info.reconv_pc);
                        accrued += info.region_size;
                        stats.padded_regions += 1;
                    } else {
                        // The region does not fit: terminate the trace
                        // *before* the branch so the next trace exposes the
                        // full region (Section 3.2). `raw` cannot be empty
                        // here: an embeddable region always fits an empty
                        // trace.
                        debug_assert!(!raw.is_empty());
                        break (EndReason::MaxLen, Some(pc));
                    }
                }
            }

            let covered = region_end.is_some();
            let in_region = region_end.is_some();

            // Execute the selection step.
            let mut embedded = None;
            let next = match inst {
                Inst::Branch { target, .. } => {
                    if branches == 32 {
                        // Cannot embed another outcome bit; end before the
                        // branch (only reachable with max_len == 32 and all
                        // slots branches).
                        break (EndReason::MaxLen, Some(pc));
                    }
                    let taken = outcomes.cond_outcome(branches, pc, inst);
                    if taken {
                        mask |= 1 << branches;
                    }
                    branches += 1;
                    embedded = Some(taken);
                    if taken {
                        target
                    } else {
                        pc + 1
                    }
                }
                Inst::Jump { target } | Inst::Call { target } => target,
                Inst::CallIndirect { .. } | Inst::JumpIndirect { .. } | Inst::Ret => {
                    raw.push((pc, inst, None, covered));
                    let target = outcomes.indirect_target(pc, inst);
                    break (EndReason::Indirect, target);
                }
                Inst::Halt => {
                    raw.push((pc, inst, None, covered));
                    break (EndReason::Halt, None);
                }
                _ => pc + 1,
            };
            raw.push((pc, inst, embedded, covered));

            // Instructions inside a padded region were pre-accounted by the
            // region's dynamic size at entry.
            if !in_region {
                accrued += 1;
            }

            // ntb: terminate at predicted not-taken backward branches.
            if cfg.ntb && embedded == Some(false) && inst.is_backward_branch(pc) {
                break (EndReason::Ntb, Some(pc + 1));
            }

            if !program.contains(next) {
                break (EndReason::OutOfProgram, None);
            }
            pc = next;
        };

        // Realized padding: the accrued length minus the physical length.
        stats.pad_instructions = accrued.saturating_sub(raw.len() as u32);

        Walk { id: TraceId::new(start, mask, branches), raw, end, next_pc, stats }
    }

    /// Convenience wrapper around [`Selector::select`] taking closures.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a valid PC of `program`.
    pub fn select_with(
        &self,
        program: &Program,
        start: Pc,
        bit: &mut Bit,
        cond: impl FnMut(u8, Pc, Inst) -> bool,
        indirect: impl FnMut(Pc, Inst) -> Option<Pc>,
    ) -> Selection {
        let mut outcomes = ClosureOutcomes::new(cond, indirect);
        self.select(program, start, bit, &mut outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_isa::{asm::Asm, Cond, Reg};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    /// if (r1) { 1 op } else { 3 ops }; then 4 more ops; halt.
    fn hammock_program() -> Program {
        let mut a = Asm::new("hammock");
        a.branch(Cond::Ne, r(1), Reg::ZERO, "else"); // pc 0
        a.addi(r(2), r(2), 1); // pc 1 (then)
        a.jump("end"); // pc 2
        a.label("else");
        a.addi(r(2), r(2), 2); // pc 3
        a.addi(r(2), r(2), 3); // pc 4
        a.addi(r(2), r(2), 4); // pc 5
        a.label("end");
        for _ in 0..4 {
            a.addi(r(3), r(3), 1); // pc 6..=9
        }
        a.halt(); // pc 10
        a.assemble().unwrap()
    }

    #[test]
    fn default_selection_stops_at_max_len() {
        let mut a = Asm::new("line");
        for _ in 0..100 {
            a.nop();
        }
        a.halt();
        let p = a.assemble().unwrap();
        let sel = Selector::new(SelectionConfig::base());
        let mut bit = Bit::paper();
        let s = sel.select_with(&p, 0, &mut bit, |_, _, _| false, |_, _| None);
        assert_eq!(s.trace.len(), 32);
        assert_eq!(s.trace.end(), EndReason::MaxLen);
        assert_eq!(s.trace.next_pc(), Some(32));
    }

    #[test]
    fn default_selection_stops_at_indirect() {
        let mut a = Asm::new("ret");
        a.nop();
        a.nop();
        a.ret();
        a.halt();
        let p = a.assemble().unwrap();
        let sel = Selector::new(SelectionConfig::base());
        let mut bit = Bit::paper();
        let s = sel.select_with(&p, 0, &mut bit, |_, _, _| false, |_, _| Some(3));
        assert_eq!(s.trace.len(), 3);
        assert_eq!(s.trace.end(), EndReason::Indirect);
        assert_eq!(s.trace.next_pc(), Some(3));
        assert!(s.trace.ends_in_return());

        // Unknown indirect target.
        let s = sel.select_with(&p, 0, &mut bit, |_, _, _| false, |_, _| None);
        assert_eq!(s.trace.next_pc(), None);
    }

    #[test]
    fn halt_terminates_trace() {
        let mut a = Asm::new("h");
        a.nop();
        a.halt();
        let p = a.assemble().unwrap();
        let sel = Selector::new(SelectionConfig::base());
        let mut bit = Bit::paper();
        let s = sel.select_with(&p, 0, &mut bit, |_, _, _| false, |_, _| None);
        assert_eq!(s.trace.end(), EndReason::Halt);
        assert_eq!(s.trace.next_pc(), None);
        assert_eq!(s.trace.len(), 2);
    }

    #[test]
    fn ntb_terminates_at_not_taken_backward_branch() {
        let mut a = Asm::new("loop");
        a.label("top");
        a.addi(r(1), r(1), -1);
        a.branch(Cond::Gt, r(1), Reg::ZERO, "top");
        a.addi(r(2), r(2), 1);
        a.halt();
        let p = a.assemble().unwrap();

        let mut bit = Bit::paper();
        // Predicted not taken: ntb stops the trace right after the branch.
        let s = Selector::new(SelectionConfig::with_ntb()).select_with(
            &p,
            0,
            &mut bit,
            |_, _, _| false,
            |_, _| None,
        );
        assert_eq!(s.trace.end(), EndReason::Ntb);
        assert_eq!(s.trace.len(), 2);
        assert_eq!(s.trace.next_pc(), Some(2));

        // Without ntb the trace continues through the fall-through path.
        let s = Selector::new(SelectionConfig::base()).select_with(
            &p,
            0,
            &mut bit,
            |_, _, _| false,
            |_, _| None,
        );
        assert_eq!(s.trace.end(), EndReason::Halt);

        // Predicted taken: ntb does not fire.
        let mut count = 0;
        let s = Selector::new(SelectionConfig::with_ntb()).select_with(
            &p,
            0,
            &mut bit,
            |_, _, _| {
                count += 1;
                count <= 2 // take twice, then fall out
            },
            |_, _| None,
        );
        assert!(s.trace.len() > 4);
        assert_eq!(s.trace.end(), EndReason::Ntb);
    }

    #[test]
    fn trace_id_mask_matches_outcomes() {
        let p = hammock_program();
        let sel = Selector::new(SelectionConfig::base());
        let mut bit = Bit::paper();
        let s = sel.select_with(&p, 0, &mut bit, |i, _, _| i == 0, |_, _| None);
        let id = s.trace.id();
        assert_eq!(id.branches(), 1);
        assert!(id.outcome(0));
    }

    #[test]
    fn fg_padding_synchronizes_trace_ends() {
        let p = hammock_program();
        let sel = Selector::new(Selector::fg_cfg(8));
        // Both paths through the hammock must end the trace at the same
        // instruction, despite different physical lengths.
        let mut bit = Bit::paper();
        let taken = sel.select_with(&p, 0, &mut bit, |_, _, _| true, |_, _| None);
        let not_taken = sel.select_with(&p, 0, &mut bit, |_, _, _| false, |_, _| None);
        assert_eq!(taken.trace.end(), EndReason::MaxLen);
        assert_eq!(not_taken.trace.end(), EndReason::MaxLen);
        assert_eq!(taken.trace.next_pc(), not_taken.trace.next_pc());
        // taken path: branch + 3 ops + 4 tail = 8 accrued at region size 4.
        // not-taken path: branch + 1 op + jump (3 physical) padded to 4.
        assert_eq!(
            taken.trace.insts().last().unwrap().pc,
            not_taken.trace.insts().last().unwrap().pc
        );
        assert!(not_taken.stats.pad_instructions > 0);
        assert_eq!(taken.stats.padded_regions, 1);
    }

    impl Selector {
        fn fg_cfg(max_len: u32) -> SelectionConfig {
            SelectionConfig { max_len, ntb: false, fg: true }
        }
    }

    #[test]
    fn fg_marks_covered_instructions() {
        let p = hammock_program();
        let sel = Selector::new(Selector::fg_cfg(8));
        let mut bit = Bit::paper();
        let s = sel.select_with(&p, 0, &mut bit, |_, _, _| false, |_, _| None);
        // Branch (pc 0) and hammock body are covered; tail ops are not.
        assert!(s.trace.insts()[0].fgci_covered);
        assert!(s.trace.insts()[1].fgci_covered);
        let last = s.trace.insts().last().unwrap();
        assert!(!last.fgci_covered);
    }

    #[test]
    fn fg_defers_region_that_does_not_fit() {
        let p = hammock_program();
        // max_len 5: after one leading op... build a trace starting at pc 0
        // is fine (region size 4 <= 5); instead start selection at a point
        // where accrued > 1 before reaching the branch.
        let mut a = Asm::new("prefix");
        a.addi(r(5), r(5), 1);
        a.addi(r(5), r(5), 2);
        a.addi(r(5), r(5), 3);
        a.branch(Cond::Ne, r(1), Reg::ZERO, "else");
        a.addi(r(2), r(2), 1);
        a.jump("end");
        a.label("else");
        a.addi(r(2), r(2), 2);
        a.addi(r(2), r(2), 3);
        a.addi(r(2), r(2), 4);
        a.label("end");
        a.halt();
        let p2 = a.assemble().unwrap();
        let _ = p;

        let sel = Selector::new(SelectionConfig { max_len: 5, ntb: false, fg: true });
        let mut bit = Bit::paper();
        let s = sel.select_with(&p2, 0, &mut bit, |_, _, _| false, |_, _| None);
        // 3 accrued + region 4 > 5: trace ends before the branch.
        assert_eq!(s.trace.len(), 3);
        assert_eq!(s.trace.end(), EndReason::MaxLen);
        assert_eq!(s.trace.next_pc(), Some(3));

        // The follow-on trace starts at the branch and pads the region.
        let s2 = sel.select_with(&p2, 3, &mut bit, |_, _, _| false, |_, _| None);
        assert!(s2.trace.insts()[0].fgci_covered);
    }

    #[test]
    fn bit_miss_cycles_accumulate_once() {
        let p = hammock_program();
        let sel = Selector::new(Selector::fg_cfg(16));
        let mut bit = Bit::paper();
        let s1 = sel.select_with(&p, 0, &mut bit, |_, _, _| false, |_, _| None);
        assert_eq!(s1.stats.bit_misses, 1);
        assert!(s1.stats.bit_miss_cycles > 0);
        let s2 = sel.select_with(&p, 0, &mut bit, |_, _, _| false, |_, _| None);
        assert_eq!(s2.stats.bit_misses, 0);
        assert_eq!(s2.stats.bit_miss_cycles, 0);
    }

    #[test]
    fn recorded_bit_consults_replay_to_equivalent_bit_state() {
        let p = hammock_program();
        let sel = Selector::new(SelectionConfig::with_fg());
        let mut bit_a = Bit::paper();
        let mut consults = Vec::new();
        let mut outcomes = ClosureOutcomes::new(|_, _, _| false, |_, _| None);
        let s1 =
            sel.select_bounded_recording(&p, 0, &mut bit_a, &mut outcomes, None, &mut consults);
        assert!(!consults.is_empty());
        assert_eq!(consults.len() as u32, s1.stats.bit_misses);

        // Replaying the consult list on a fresh BIT reproduces the lookup
        // and insert sequence: a re-selection afterwards misses nowhere on
        // either table and picks identical traces.
        let mut bit_b = Bit::paper();
        for &pc in &consults {
            sel.replay_bit(&p, &mut bit_b, pc);
        }
        let s_a = sel.select_with(&p, 0, &mut bit_a, |_, _, _| false, |_, _| None);
        let s_b = sel.select_with(&p, 0, &mut bit_b, |_, _, _| false, |_, _| None);
        assert_eq!(s_a.stats.bit_misses, 0);
        assert_eq!(s_b.stats.bit_misses, 0);
        assert_eq!(s_a.trace, s_b.trace);
    }

    #[test]
    fn id_outcomes_replays_mask() {
        let p = hammock_program();
        let sel = Selector::new(SelectionConfig::base());
        let mut bit = Bit::paper();
        let id = TraceId::new(0, 0b1, 1);
        let s = sel.select(&p, 0, &mut bit, &mut IdOutcomes::new(id));
        assert_eq!(s.trace.id(), id);
    }

    #[test]
    fn selection_is_deterministic() {
        let p = hammock_program();
        let sel = Selector::new(SelectionConfig::with_fg_ntb());
        let mut bit = Bit::paper();
        let a = sel.select_with(&p, 0, &mut bit, |_, _, _| true, |_, _| None);
        let b = sel.select_with(&p, 0, &mut bit, |_, _, _| true, |_, _| None);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    #[should_panic(expected = "out of program")]
    fn select_rejects_bad_start() {
        let p = hammock_program();
        let sel = Selector::new(SelectionConfig::base());
        let mut bit = Bit::paper();
        let _ = sel.select_with(&p, 999, &mut bit, |_, _, _| false, |_, _| None);
    }

    #[test]
    fn config_names_match_paper() {
        assert_eq!(SelectionConfig::base().name(), "base");
        assert_eq!(SelectionConfig::with_ntb().name(), "base(ntb)");
        assert_eq!(SelectionConfig::with_fg().name(), "base(fg)");
        assert_eq!(SelectionConfig::with_fg_ntb().name(), "base(fg,ntb)");
    }
}
