//! Functional fast-forward with predictor warming.
//!
//! [`FastForward`] drives the architectural simulator
//! ([`tp_isa::func::Machine`]) through the program far faster than the
//! detailed cycle model, while *functionally warming* the frontend
//! structures a detailed interval will boot with ([`WarmBoot`]): every
//! committed conditional branch trains the BTB, calls and returns walk the
//! return address stack, and the committed stream is cut
//! into canonical traces (by the same selection algorithm the detailed
//! frontend uses) that fill the trace cache and train the next-trace
//! predictor. A detailed measurement interval booted from a checkpoint
//! taken here, or from the warm set lent by [`FastForward::boot`],
//! therefore starts with the predictor state a long-running detailed
//! simulation would have accumulated — not cold.
//!
//! Trace segmentation reuses [`Selector`] verbatim rather than
//! re-implementing its rules: the machine itself is the selector's
//! [`OutcomeSource`], stepping forward to each conditional branch or
//! indirect transfer the selector asks about and answering with the
//! *actual* outcome. The selected path and the executed path coincide by
//! construction, so the traces are exactly the canonical actual-outcome
//! traces the detailed simulator trains with at retirement.
//!
//! Two execution engines produce that identical stream:
//!
//! - the **interpreter** path above (one selection plus per-instruction
//!   stepping and warming per trace), kept as the reference;
//! - the **superblock** path (`engine`): straight-line code is decoded
//!   once into chained blocks (`block`), whole traces are memoized by
//!   start PC and outcome path, and warming updates replay from
//!   precomputed per-trace arrays. It is the default; see
//!   [`FastForward::set_superblock`].

mod block;
mod engine;

use std::sync::Arc;

use engine::Engine;
pub use engine::EngineStats;
use tp_cache::DCache;
use tp_core::{BootImage, TraceProcessor, TraceProcessorConfig, WarmBoot};
use tp_isa::func::{Machine, MachineState, PcOutOfRange, Step};
use tp_isa::{Frontend, Inst, Pc, Program};
use tp_trace::{OutcomeSource, SelectionConfig, Selector, Trace};

use crate::checkpoint::{refill_bit, TraceLine};
use crate::CkptError;

/// The panic message of an operation that needs the warm set while it is
/// lent.
const LENT: &str = "the fast-forward's warm set is lent to a detailed boot \
                    (FastForward::boot); hand the interval back with adopt_interval first";

/// Summary of one [`FastForward::skip`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SkipSummary {
    /// Instructions retired by this call (whole traces; may overshoot the
    /// budget by up to one trace).
    pub retired: u64,
    /// Traces the committed stream was cut into.
    pub traces: u64,
    /// Whether the program halted during the skip.
    pub halted: bool,
}

/// An [`OutcomeSource`] that answers the selector from actual execution:
/// each query steps the machine forward to the queried instruction.
/// Every executed load/store warms the data cache on the way.
struct StreamOutcomes<'m, 'p> {
    machine: &'m mut Machine<'p>,
    dcache: &'m mut DCache,
    err: Option<PcOutOfRange>,
}

/// Steps `machine` once, warming `dcache` with any memory access.
fn step_warm(machine: &mut Machine<'_>, dcache: &mut DCache) -> Result<Step, PcOutOfRange> {
    let step = machine.step()?;
    if let Some(ea) = step.ea {
        dcache.warm_access(ea);
    }
    Ok(step)
}

impl StreamOutcomes<'_, '_> {
    /// Steps the machine until it has executed the instruction at `pc`,
    /// returning that step. The selector's path and the machine's path
    /// coincide (outcomes come from the machine), so `pc` is always within
    /// one trace's worth of instructions ahead.
    fn step_to(&mut self, pc: Pc) -> Option<Step> {
        for _ in 0..256 {
            let step = match step_warm(self.machine, self.dcache) {
                Ok(s) => s,
                Err(e) => {
                    self.err = Some(e);
                    return None;
                }
            };
            if step.pc == pc {
                return Some(step);
            }
        }
        panic!("fast-forward diverged from trace selection: never reached pc {pc}");
    }
}

impl OutcomeSource for StreamOutcomes<'_, '_> {
    fn cond_outcome(&mut self, _index: u8, pc: Pc, _inst: Inst) -> bool {
        self.step_to(pc).and_then(|s| s.taken).unwrap_or(false)
    }

    fn indirect_target(&mut self, pc: Pc, _inst: Inst) -> Option<Pc> {
        self.step_to(pc).map(|s| s.next_pc)
    }
}

/// The checkpointed fast-forward driver.
///
/// # Example
///
/// ```
/// use tp_ckpt::FastForward;
/// use tp_core::{CiModel, TraceProcessorConfig};
/// use tp_isa::{asm::Asm, Cond, Reg};
///
/// let mut a = Asm::new("count");
/// a.li(Reg::new(1), 100);
/// a.label("top");
/// a.addi(Reg::new(1), Reg::new(1), -1);
/// a.branch(Cond::Gt, Reg::new(1), Reg::ZERO, "top");
/// a.halt();
/// let program = a.assemble()?;
///
/// let cfg = TraceProcessorConfig::paper(CiModel::None);
/// let mut ff = FastForward::new(&program, &cfg);
/// let s = ff.skip(50).expect("stays in program");
/// assert!(s.retired >= 50);
/// let ckpt = ff.checkpoint();
/// assert_eq!(ckpt.retired, ff.retired());
/// # Ok::<(), tp_isa::asm::AsmError>(())
/// ```
pub struct FastForward<'p> {
    program: &'p Program,
    machine: Machine<'p>,
    /// Cuts the committed stream into traces; its selection must match the
    /// detailed configuration the warm state will boot.
    selector: Selector,
    /// The warm set; `None` while it is lent to a detailed boot
    /// ([`FastForward::boot`]) and not yet handed back.
    warm: Option<WarmBoot>,
    frontend: Frontend,
    /// `Some` = superblock engine (default), `None` = interpreter.
    engine: Option<Engine>,
}

impl<'p> FastForward<'p> {
    /// A fast-forward at the program entry with cold structures sized for
    /// `cfg`.
    pub fn new(program: &'p Program, cfg: &TraceProcessorConfig) -> FastForward<'p> {
        FastForward {
            program,
            machine: Machine::new(program),
            selector: Selector::new(cfg.selection),
            engine: Some(Engine::new(cfg.selection)),
            warm: Some(WarmBoot::cold(cfg)),
            frontend: Frontend::Synth,
        }
    }

    /// Selects the execution engine: `true` (the default) runs the
    /// superblock engine, `false` the reference interpreter. Both produce
    /// bit-identical machine state and warm images; the toggle exists for
    /// benchmarking and differential testing. Turning the engine off and
    /// back on drops its block cache and trace memos.
    pub fn set_superblock(&mut self, on: bool) {
        match (on, self.engine.is_some()) {
            (true, false) => self.engine = Some(Engine::new(self.selector.config())),
            (false, true) => self.engine = None,
            _ => {}
        }
    }

    /// Whether the superblock engine is active.
    pub fn superblock(&self) -> bool {
        self.engine.is_some()
    }

    /// Superblock-engine counters (memo hits/misses, blocks decoded,
    /// invalidations); `None` while the interpreter is selected.
    pub fn engine_stats(&self) -> Option<EngineStats> {
        self.engine.as_ref().map(Engine::stats)
    }

    /// Declares which frontend produced the program; recorded in every
    /// checkpoint this driver captures (default: [`Frontend::Synth`]).
    pub fn set_frontend(&mut self, frontend: Frontend) {
        self.frontend = frontend;
    }

    /// The frontend recorded in captured checkpoints.
    pub fn frontend(&self) -> Frontend {
        self.frontend
    }

    /// Adopts the architectural frontier and trained structures of a
    /// finished detailed interval, or any machine state and warm set (a
    /// decoded checkpoint's, say). A lent warm set is replaced.
    ///
    /// This rebuilds the machine from a full state, O(memory image);
    /// [`FastForward::adopt_interval`] is the O(interval) equivalent.
    pub fn adopt(&mut self, state: MachineState, warm: WarmBoot) {
        self.machine = Machine::from_state(self.program, state);
        self.adopt_warm(warm);
    }

    /// Adopts a finished detailed interval booted from this driver's
    /// current frontier ([`FastForward::boot`], or a checkpoint taken here,
    /// not skipped past since): its registers, retired frontier, halt flag
    /// and committed memory words are applied to the live machine in
    /// place, and its trained structures are taken as
    /// [`FastForward::adopt`] takes them, which ends a loan.
    /// The cost scales with the words the interval committed, not with
    /// the program's memory. The result is the state `adopt` would build
    /// from the interval's full committed image, so every later checkpoint
    /// is byte-identical.
    ///
    /// As with `adopt`, the interval's stores bypass the superblock
    /// engine's code-page invalidation.
    ///
    /// # Errors
    ///
    /// [`CkptError::StaleInterval`], naming both positions, when the
    /// processor did not boot from this driver's current frontier; the
    /// driver is left unchanged.
    pub fn adopt_interval(&mut self, sim: TraceProcessor<'_>) -> Result<(), CkptError> {
        let frontier = (self.machine.pc(), self.machine.retired());
        let booted = sim.boot_frontier();
        if booted != frontier {
            return Err(CkptError::StaleInterval { frontier, booted });
        }
        let (pc, retired) = sim.retired_frontier();
        self.machine.apply_delta(
            sim.arch_regs(),
            pc,
            frontier.1 + retired,
            sim.halted(),
            sim.committed_since_boot(),
        );
        self.adopt_warm(sim.into_warm());
        Ok(())
    }

    fn adopt_warm(&mut self, warm: WarmBoot) {
        // The adopted structures invalidate the engine's record of what it
        // filled last; its refill dedupes must start over.
        if let Some(engine) = &mut self.engine {
            engine.warm_reset();
        }
        self.warm = Some(warm);
    }

    /// Boots a detailed interval at the current frontier, lending it this
    /// driver's warm set by move: the image is what
    /// [`Checkpoint::boot_image`](crate::Checkpoint::boot_image) builds
    /// from this driver's encoded and decoded
    /// [`checkpoint`](FastForward::checkpoint), without the bytes. A byte
    /// round trip changes two things in the warm set, and the loan applies
    /// exactly those: the BIT is rebuilt by re-selecting every cached
    /// trace, least-recently-used first (the refill
    /// [`Checkpoint::warm_boot`](crate::Checkpoint::warm_boot) runs), and
    /// the next-trace predictor's statistics start at zero. Every other
    /// structure moves as it is, so a round costs no capture, encode,
    /// decode or table rebuild.
    ///
    /// Until the interval comes back through
    /// [`FastForward::adopt_interval`] (or a warm set through
    /// [`FastForward::adopt`]), the driver holds no warm set: `skip`,
    /// `checkpoint`, `warm` and `boot` panic.
    ///
    /// # Errors
    ///
    /// [`CkptError::SelectionMismatch`] when `cfg` cuts traces differently
    /// from this driver, and [`CkptError::TraceReconstruct`] if a cached
    /// trace does not re-select; the warm set stays here on error.
    pub fn boot(&mut self, cfg: &TraceProcessorConfig) -> Result<BootImage, CkptError> {
        let (stored, offered) = (self.selection(), cfg.selection);
        if stored != offered {
            return Err(CkptError::SelectionMismatch { stored, offered });
        }
        let lines = self.warm().tcache.lines_lru();
        let bit = refill_bit(self.program, cfg, lines.iter().map(|t| TraceLine::of(t)), drop)?;
        let mut warm = self.warm.take().expect("checked by warm()");
        warm.bit = bit;
        warm.predictor.reset_stats();
        Ok(BootImage {
            pc: self.machine.pc(),
            regs: self.machine.regs(),
            mem_delta: self.machine.mem_delta(),
            retired: self.machine.retired(),
            halted: self.machine.halted(),
            warm: Some(warm),
        })
    }

    /// The underlying functional machine.
    pub fn machine(&self) -> &Machine<'p> {
        &self.machine
    }

    /// The warm structures accumulated so far.
    ///
    /// # Panics
    ///
    /// While the warm set is lent ([`FastForward::boot`]).
    pub fn warm(&self) -> &WarmBoot {
        self.warm.as_ref().expect(LENT)
    }

    /// The trace selection the committed stream is cut with.
    pub(crate) fn selection(&self) -> SelectionConfig {
        self.selector.config()
    }

    /// Whether the program has halted.
    pub fn halted(&self) -> bool {
        self.machine.halted()
    }

    /// Total instructions retired by the machine (across resumes).
    pub fn retired(&self) -> u64 {
        self.machine.retired()
    }

    /// Fast-forwards at least `budget` instructions (whole traces; the
    /// last trace may overshoot), warming predictors along the way. A zero
    /// budget is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`PcOutOfRange`] if the committed path leaves the program
    /// image (a malformed program; validated workloads halt instead).
    ///
    /// # Panics
    ///
    /// While the warm set is lent ([`FastForward::boot`]).
    pub fn skip(&mut self, budget: u64) -> Result<SkipSummary, PcOutOfRange> {
        let start = self.machine.retired();
        let mut traces = 0;
        let warm = self.warm.as_mut().expect(LENT);
        while !self.machine.halted() && self.machine.retired() - start < budget {
            match &mut self.engine {
                Some(eng) => eng.advance_trace(self.program, &mut self.machine, warm)?,
                None => advance_trace(self.program, &self.selector, &mut self.machine, warm)?,
            }
            traces += 1;
        }
        Ok(SkipSummary {
            retired: self.machine.retired() - start,
            traces,
            halted: self.machine.halted(),
        })
    }
}

/// Executes exactly one canonical trace on the interpreter path: selects
/// it from the committed stream, catches the machine up past its tail, and
/// applies all warming updates in the order the detailed pipeline would
/// (BTB per branch, RAS per call/return, indirect targets at the trace
/// end, next-trace predictor and trace cache per trace).
fn advance_trace(
    program: &Program,
    selector: &Selector,
    machine: &mut Machine<'_>,
    warm: &mut WarmBoot,
) -> Result<(), PcOutOfRange> {
    let start = machine.pc();
    let before = machine.retired();
    let selection = {
        let mut outcomes = StreamOutcomes { machine, dcache: &mut warm.dcache, err: None };
        let sel = selector.select(program, start, &mut warm.bit, &mut outcomes);
        if let Some(e) = outcomes.err {
            return Err(e);
        }
        sel
    };
    let trace = Arc::new(selection.trace);
    // The selector only stepped the machine up to its last branch or
    // indirect query; execute the remaining tail of the trace.
    while machine.retired() - before < trace.len() as u64 {
        step_warm(machine, &mut warm.dcache)?;
    }
    debug_assert_eq!(
        machine.retired() - before,
        trace.len() as u64,
        "machine and selection disagree on trace length at pc {start}"
    );
    apply_trace_warming(program, warm, &trace);
    Ok(())
}

/// Applies every post-selection warming update one committed trace
/// implies, in the order the detailed pipeline would: BTB per branch, RAS
/// per call/return, icache per contiguous fetch segment,
/// indirect-target training at the trace end, then next-trace predictor
/// and trace cache. Shared by the interpreter path and the superblock
/// engine's miss path (the engine's hit path replays a precomputed image
/// of exactly these updates).
pub(crate) fn apply_trace_warming(program: &Program, warm: &mut WarmBoot, trace: &Arc<Trace>) {
    // Per-instruction warming, in commit order.
    for ti in trace.insts() {
        match ti.inst {
            Inst::Branch { .. } => {
                let taken = ti.embedded_taken.expect("actual-outcome trace embeds outcomes");
                warm.btb.update_cond(ti.pc, taken);
            }
            Inst::Call { .. } | Inst::CallIndirect { .. } => warm.ras.push(ti.pc + 1),
            Inst::Ret => {
                let _ = warm.ras.pop();
            }
            _ => {}
        }
    }
    // Instruction-cache warming: touch each contiguous fetch segment,
    // as trace construction through the instruction cache would.
    {
        let insts = trace.insts();
        let mut seg_start = insts[0].pc;
        let mut prev = insts[0].pc;
        for ti in &insts[1..] {
            if ti.pc != prev + 1 {
                warm.icache.warm_range(seg_start, prev);
                seg_start = ti.pc;
            }
            prev = ti.pc;
        }
        warm.icache.warm_range(seg_start, prev);
    }
    // Indirect-target training, as the detailed completion stage does.
    if let (Some(last), Some(target)) = (trace.insts().last(), trace.next_pc()) {
        if last.inst.is_indirect() && program.contains(target) {
            warm.btb.update_indirect(last.pc, target);
        }
    }
    // Trace-level warming, as the detailed retirement stage does.
    warm.predictor.train(&warm.history, trace.id());
    warm.history.push(trace.id());
    warm.tcache.fill(Arc::clone(trace));
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_core::CiModel;
    use tp_isa::asm::Asm;
    use tp_isa::{Cond, Reg};

    fn loop_program(iters: i32) -> Program {
        let mut a = Asm::new("loop");
        let r1 = Reg::new(1);
        a.li(r1, iters);
        a.label("top");
        a.addi(r1, r1, -1);
        a.branch(Cond::Gt, r1, Reg::ZERO, "top");
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn skip_matches_straight_functional_run() {
        let p = loop_program(200);
        let cfg = TraceProcessorConfig::small(CiModel::None);
        let mut ff = FastForward::new(&p, &cfg);
        let s = ff.skip(100).unwrap();
        assert!(s.retired >= 100 && s.traces > 0);
        let mut straight = Machine::new(&p);
        straight.run(s.retired).unwrap();
        assert_eq!(ff.machine().capture(), straight.capture());
    }

    #[test]
    fn skip_to_halt_covers_whole_program() {
        let p = loop_program(50);
        let cfg = TraceProcessorConfig::small(CiModel::None);
        let mut ff = FastForward::new(&p, &cfg);
        let s = ff.skip(u64::MAX).unwrap();
        assert!(s.halted);
        let mut straight = Machine::new(&p);
        straight.run(u64::MAX).unwrap();
        assert_eq!(s.retired, straight.retired());
        assert_eq!(ff.machine().arch_state(), straight.arch_state());
        // Warming happened: the loop branch trained toward taken, traces
        // were cached, the predictor saw the stream.
        assert!(ff.warm().btb.predict_cond(2));
        assert!(!ff.warm().tcache.lines_lru().is_empty());
        assert!(ff.warm().predictor.stats().updates > 0);
    }

    /// A kernel with data-dependent hammocks, two call sites into one
    /// helper (its `Ret` trace ends at two different targets), and
    /// store/load churn — every path class the superblock engine
    /// specializes.
    fn branchy_program(iters: i32) -> Program {
        let mut a = Asm::new("branchy");
        let (s, i, m, t, sc) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4), Reg::new(5));
        a.li64(m, 0x5DEE_CE66_D601);
        a.li64(s, 0x1234_5678_9ABC);
        a.li(i, iters);
        a.label("top");
        a.alu(tp_isa::AluOp::Mul, s, s, m);
        a.addi(s, s, 0xB);
        a.alui(tp_isa::AluOp::And, t, s, 1);
        a.branch(Cond::Eq, t, Reg::ZERO, "even");
        a.call("helper");
        a.jump("join");
        a.label("even");
        a.alui(tp_isa::AluOp::Xor, s, s, 0x55);
        a.alui(tp_isa::AluOp::And, t, s, 2);
        a.branch(Cond::Eq, t, Reg::ZERO, "join");
        a.call("helper");
        a.label("join");
        a.alui(tp_isa::AluOp::And, t, s, 0xFF8);
        a.addi(t, t, tp_isa::DATA_BASE as i32);
        a.store(s, t, 0);
        a.load(sc, t, 0);
        a.alu(tp_isa::AluOp::Add, s, s, sc);
        a.addi(i, i, -1);
        a.branch(Cond::Gt, i, Reg::ZERO, "top");
        a.halt();
        a.label("helper");
        a.alui(tp_isa::AluOp::Shr, sc, s, 3);
        a.alu(tp_isa::AluOp::Add, s, s, sc);
        a.ret();
        a.assemble().unwrap()
    }

    #[test]
    fn superblock_matches_interpreter_exactly() {
        let p = branchy_program(300);
        let cfg = TraceProcessorConfig::small(CiModel::FgMlbRet);
        let mut fast = FastForward::new(&p, &cfg);
        let mut slow = FastForward::new(&p, &cfg);
        slow.set_superblock(false);
        assert!(fast.superblock() && !slow.superblock());
        for chunk in [137u64, 64, 333, 1000, u64::MAX] {
            let a = fast.skip(chunk).unwrap();
            let b = slow.skip(chunk).unwrap();
            assert_eq!(a, b, "skip summaries diverge at chunk {chunk}");
            assert_eq!(fast.machine().capture(), slow.machine().capture());
            assert_eq!(
                fast.checkpoint().encode(),
                slow.checkpoint().encode(),
                "checkpoint bytes diverge at chunk {chunk}"
            );
            assert_eq!(
                format!("{:?}", fast.warm().bit),
                format!("{:?}", slow.warm().bit),
                "BIT state diverges at chunk {chunk}"
            );
        }
        assert!(fast.halted() && slow.halted());
        let stats = fast.engine_stats().unwrap();
        assert!(stats.memo_hits > stats.memo_misses, "hot loop should hit the memo: {stats:?}");
        assert!(stats.blocks_built > 0);
        assert_eq!(stats.pages_invalidated, 0, "no stores touch code pages: {stats:?}");
    }

    /// While the warm set is lent to a detailed boot there is nothing to
    /// warm: a skip before the hand-back is a bug, and the panic says so.
    #[test]
    #[should_panic(expected = "warm set is lent")]
    fn skip_while_lent_panics() {
        let p = loop_program(200);
        let cfg = TraceProcessorConfig::small(CiModel::None);
        let mut ff = FastForward::new(&p, &cfg);
        ff.skip(50).unwrap();
        let _boot = ff.boot(&cfg).unwrap();
        let _ = ff.skip(50);
    }

    #[test]
    fn interpreter_toggle_round_trips() {
        let p = loop_program(100);
        let cfg = TraceProcessorConfig::small(CiModel::None);
        let mut ff = FastForward::new(&p, &cfg);
        ff.skip(30).unwrap();
        ff.set_superblock(false);
        assert!(ff.engine_stats().is_none());
        ff.skip(30).unwrap();
        ff.set_superblock(true);
        ff.skip(u64::MAX).unwrap();
        let mut straight = Machine::new(&p);
        straight.run(u64::MAX).unwrap();
        assert_eq!(ff.machine().capture(), straight.capture());
    }

    #[test]
    fn ntb_selection_cuts_at_loop_exits() {
        let p = loop_program(40);
        let cfg = TraceProcessorConfig::small(CiModel::MlbRet);
        let mut ff = FastForward::new(&p, &cfg);
        let s = ff.skip(u64::MAX).unwrap();
        assert!(s.halted);
        // With ntb selection, every cached trace respects the constraint:
        // a not-taken backward branch only ever ends a trace.
        for t in ff.warm().tcache.lines_lru() {
            for (slot, ti) in t.cond_branches() {
                if ti.embedded_taken == Some(false) && ti.inst.is_backward_branch(ti.pc) {
                    assert_eq!(slot, t.len() - 1, "ntb violation in {}", t.id());
                }
            }
        }
    }
}
