//! Pipeline stage 4: **fetch** — trace prediction, the trace cache, and
//! the construction engine.
//!
//! Implements the trace-processor frontend (§2): the path-based next-trace
//! predictor proposes a trace id, the trace cache is probed for it, and on
//! a miss the trace is constructed through the instruction cache (one basic
//! block per cycle, modelled by `construction_cycles`) using the predicted
//! outcomes — or the BTB/RAS alone when the predictor has no opinion.
//! Statically-certain successor PCs override contradicting predictions.
//! During CGCI insertion (§4) this stage also performs re-convergence
//! detection: when the next predicted trace matches the preserved
//! control-independent trace, insertion ends and the re-dispatch pass over
//! the preserved suffix begins.
//!
//! **Mutates:** the fetch queue/history/expectation/mode, the RAS
//! (speculative call/return walk), the trace cache and BIT (construction
//! fills), the construction-engine busy horizon, and — at re-convergence —
//! the re-dispatch pass and rename-map chain.

use super::*;
use crate::config::FRONTEND_LATENCY;
use tp_isa::Inst;
use tp_trace::{OutcomeSource, TraceId};

impl TraceProcessor<'_> {
    pub(super) fn fetch_stage(&mut self) {
        // Fetch stalls only while a recovery redirect is in flight; a
        // re-dispatch pass owns the dispatch bus, not the frontend (fetch
        // state is restored eagerly when the pass starts).
        if self.halted || self.recovery.is_some() {
            return;
        }
        if self.fetch_queue.len() >= self.cfg.num_pes {
            return;
        }
        // Validate CGCI insertion mode.
        if let FetchMode::CgciInsert { before, before_gen, .. } = self.mode {
            if !self.pe_live(before, before_gen) {
                self.set_mode(FetchMode::Normal);
                self.fetch_hist = self.rebuild_history();
                self.expected = self.expected_after_tail();
            }
        }
        // A stalled fetch re-derives its expectation from the window every
        // cycle: an indirect transfer at the effective tail may have
        // resolved since the stall began (this also lets CGCI re-convergence
        // be detected when the last control-dependent trace ends in an
        // indirect transfer).
        if self.expected == ExpectedNext::Stalled && self.fetch_queue.is_empty() {
            let effective_tail = match self.mode {
                FetchMode::CgciInsert { before, .. } => self.list.prev(before),
                FetchMode::Normal => self.list.tail(),
            };
            match effective_tail {
                Some(t) => self.expected = self.expected_after_pe(t),
                // The effective predecessor window is empty: everything
                // upstream committed (during insertion, the whole
                // control-dependent path can retire before its final
                // indirect resolves to fetch). The committed frontier is
                // the next fetch PC — without this the stall never clears
                // and the processor deadlocks with the preserved trace
                // pinned at the head (the behaviour `inject_cgci_stall_bug`
                // re-introduces for the shrinker self-test).
                None if !self.cfg.inject_cgci_stall_bug => {
                    self.expected = ExpectedNext::Known(self.retired_next_pc);
                }
                None => {}
            }
        }
        // Resolve the expected PC.
        let (expected_pc, expected_certain) = match self.expected {
            ExpectedNext::Known(pc) => (Some(pc), true),
            ExpectedNext::Predicted(pc) => (Some(pc), false),
            ExpectedNext::Stalled => (None, false),
        };
        let hist_before = self.fetch_hist.clone();
        let prediction = self.predictor.predict(&self.fetch_hist);
        // Enforce statically-certain boundaries: a prediction contradicting
        // the known fall-through PC is discarded in favour of sequencing.
        // After an unresolved indirect the next-trace predictor wins.
        let prediction = match (prediction, expected_pc) {
            (Some(id), Some(e)) if expected_certain && id.start() != e => None,
            (p, _) => p,
        };
        let start = match prediction.map(TraceId::start).or(expected_pc) {
            Some(s) if self.program.contains(s) => s,
            _ => return, // fetch stalled
        };
        // CGCI re-convergence detection: the next trace prediction matches
        // the preserved control-independent trace.
        if let FetchMode::CgciInsert { before, reconv_start, .. } = self.mode {
            if start == reconv_start {
                let preserved: Vec<usize> = {
                    let mut v = vec![before];
                    v.extend(self.list.iter_after(before));
                    v
                };
                // Close the pending attempt as re-converged *before*
                // leaving insertion mode (set_mode treats any still-pending
                // teardown as a failure).
                let attr = self.books.cgci_reconverged(&preserved, &mut self.pes);
                // The predecessor is usually the repaired faulting trace,
                // but the entire control-dependent path may already have
                // retired — then the pass chains from retired state.
                self.begin_redispatch(self.list.prev(before), preserved, attr);
                self.set_mode(FetchMode::Normal);
                return;
            }
        }
        // During CGCI insertion the frontend knows the re-convergent PC;
        // control-dependent traces end just before it so the path cannot
        // overshoot the preserved trace mid-trace (which would make
        // re-convergence detection miss and the attempt fail).
        let stop = match self.mode {
            FetchMode::CgciInsert { reconv_start, .. } => Some(reconv_start),
            FetchMode::Normal => None,
        };
        // Obtain the trace: trace cache, or construction.
        let now = self.now();
        let (trace, ready_at, source) = match prediction {
            Some(id) => {
                let looked = self.tcache.lookup(id);
                self.books.tcache_probed(looked.is_some());
                // A cached trace that crosses the re-convergent PC
                // mid-trace is unusable during insertion: construct a
                // bounded one instead.
                let usable = looked.filter(|t| match stop {
                    None => true,
                    Some(sp) => !t.insts()[1..].iter().any(|ti| ti.pc == sp),
                });
                match usable {
                    Some(t) => (t, now + FRONTEND_LATENCY, FetchPath::PredictedHit),
                    None => {
                        let (t, cycles) = self.construct_trace(start, Some(id), stop);
                        let ready = now.max(self.construction_busy_until)
                            + cycles as u64
                            + FRONTEND_LATENCY;
                        self.construction_busy_until = ready;
                        (t, ready, FetchPath::PredictedMiss)
                    }
                }
            }
            None => {
                let (t, cycles) = self.construct_trace(start, None, stop);
                let ready =
                    now.max(self.construction_busy_until) + cycles as u64 + FRONTEND_LATENCY;
                self.construction_busy_until = ready;
                (t, ready, FetchPath::Fallback)
            }
        };
        self.books.fetched(&trace, source);
        // Speculatively maintain the RAS and compute the next expected PC.
        self.expected = self.advance_ras_and_expected(&trace);
        self.fetch_hist.push(trace.id());
        self.fetch_queue.push_back(Pending { trace, ready_at, hist_before, source });
    }

    /// Constructs a trace at `start` through the instruction cache, driven
    /// by the predicted id's outcomes (falling back to the BTB) or by the
    /// BTB alone; `stop_before` bounds the trace at a re-convergent PC
    /// during CGCI insertion. Returns the trace and the construction
    /// latency.
    fn construct_trace(
        &mut self,
        start: Pc,
        id: Option<TraceId>,
        stop_before: Option<Pc>,
    ) -> (Arc<Trace>, u32) {
        struct ConstructOutcomes<'a> {
            id: Option<TraceId>,
            btb: &'a Btb,
            ras_top: Option<Pc>,
            ntb: bool,
        }
        impl OutcomeSource for ConstructOutcomes<'_> {
            fn cond_outcome(&mut self, index: u8, pc: Pc, inst: Inst) -> bool {
                match self.id {
                    Some(id) if index < id.branches() => id.outcome(index),
                    // Beyond the prediction's depth.
                    _ => btb_cond_guess(self.btb, self.ntb, pc, inst),
                }
            }
            fn indirect_target(&mut self, pc: Pc, inst: Inst) -> Option<Pc> {
                if inst.is_return() {
                    self.ras_top
                } else {
                    self.btb.predict_indirect(pc)
                }
            }
        }
        let selector = self.selector;
        let (program, bit, btb) = (self.program, &mut self.bit, &self.btb);
        let ntb = self.cfg.selection.ntb;
        let mut outcomes = ConstructOutcomes { id, btb, ras_top: self.ras.top(), ntb };
        let sel = selector.select_bounded(
            program,
            start,
            bit,
            &mut outcomes,
            stop_before.map(|p| (p, 1)),
        );
        self.books.bit_misses(sel.stats);
        let trace = Arc::new(sel.trace);
        let cycles = self.construction_cycles(&trace, 0, trace.len()) + sel.stats.bit_miss_cycles;
        // Bounded (insertion-mode) constructions are not cached: a trace
        // truncated at the re-convergent PC can share its id with the
        // full-length trace normal selection would build from the same
        // start, and serving the truncated one outside insertion would
        // permanently fragment that path.
        if stop_before.is_none() {
            self.tcache.fill(trace.clone());
        }
        (trace, cycles)
    }

    /// Construction-engine latency to (re)build `trace` from `from_slot` up
    /// to `end_slot` (exclusive): one cycle per basic block plus
    /// instruction cache miss penalties. (Also used by recovery to time
    /// trace repair, which charges only the slots it actually refetches —
    /// a preserved common suffix costs nothing to rebuild.)
    pub(super) fn construction_cycles(
        &mut self,
        trace: &Trace,
        from_slot: usize,
        end_slot: usize,
    ) -> u32 {
        let end = end_slot.min(trace.len());
        let insts = &trace.insts()[from_slot.min(end.saturating_sub(1))..end];
        if insts.is_empty() {
            return 1;
        }
        let mut cycles = 0u32;
        let mut seg_start = insts[0].pc;
        let mut prev = insts[0].pc;
        for ti in &insts[1..] {
            if ti.pc != prev + 1 {
                cycles += 1 + self.icache.access_range(seg_start, prev);
                seg_start = ti.pc;
            }
            prev = ti.pc;
        }
        cycles += 1 + self.icache.access_range(seg_start, prev);
        cycles
    }

    /// Walks a fetched trace's calls/returns through the RAS and returns the
    /// expected next fetch PC.
    fn advance_ras_and_expected(&mut self, trace: &Trace) -> ExpectedNext {
        let mut ret_target = None;
        for ti in trace.insts() {
            match ti.inst {
                Inst::Call { .. } | Inst::CallIndirect { .. } => self.ras.push(ti.pc + 1),
                Inst::Ret => ret_target = self.ras.pop(),
                _ => {}
            }
        }
        match trace.end() {
            EndReason::MaxLen | EndReason::Ntb => {
                ExpectedNext::Known(trace.next_pc().expect("static end has next"))
            }
            EndReason::Indirect => {
                let last = trace.insts().last().expect("non-empty");
                let target = if last.inst.is_return() { ret_target } else { trace.next_pc() };
                match target {
                    Some(t) if self.program.contains(t) => ExpectedNext::Predicted(t),
                    _ => ExpectedNext::Stalled,
                }
            }
            EndReason::Halt | EndReason::OutOfProgram => ExpectedNext::Stalled,
        }
    }
}

/// The BTB's guess for a conditional branch that trace construction or
/// repair has no better outcome for. Under `ntb` selection a loop-exit
/// counter hovers between its weak states (it is retrained on every
/// exit), making its guesses near coin flips that both terminate traces
/// spuriously and embed wrong exits; static backward-taken beats a
/// hovering counter, while a *saturated* counter is trusted (the
/// next-trace predictor, when it has an opinion, still decides the exits).
pub(super) fn btb_cond_guess(btb: &Btb, ntb: bool, pc: Pc, inst: Inst) -> bool {
    (ntb && inst.is_backward_branch(pc) && btb.cond_is_weak(pc)) || btb.predict_cond(pc)
}
