//! Pipeline stage 3: **misprediction recovery** — FGCI/CGCI repair and
//! squashing.
//!
//! Implements the paper's selective recovery machinery: fine-grain control
//! independence (§3, FGCI — the mispredicted branch's alternate path is
//! already embedded in the trace, so repair happens entirely within one PE
//! and *all* younger traces are preserved) and coarse-grain control
//! independence (§4, CGCI — the `RET`/`MLB-RET` heuristics locate a
//! re-convergent trace in the window; control-dependent traces between the
//! branch and that trace are squashed and re-fetched while the
//! control-independent suffix is preserved). Recovery is always oldest
//! fault first; an older fault preempts an in-flight repair. Trace repair
//! re-selects the faulting trace with the branch's actual outcome and
//! models the construction-engine latency of refetching the new suffix.
//! Data-side repair (undoing speculative stores, selective reissue of
//! rebound consumers) rides along via `replace_trace`/`squash_pe`.
//!
//! **Mutates:** the in-flight [`Recovery`], PE slots/traces/rename maps of
//! the repaired PE, squashed PEs and the PE list, the ARB (store undo), the
//! BIT (re-selection), the fetch queue/history/mode/expectation, reader
//! registrations, the global register file (fresh live-outs of a repaired
//! trace), bus request queues, and the books.

use super::*;
use crate::config::{CiModel, CGCI_MAX_DEPENDENT};
use crate::pe::{Fault, Slot};
use tp_isa::Inst;
use tp_stats::attr::{BranchClass, Heuristic};
use tp_trace::{OperandRef, OutcomeSource, TraceId};

impl TraceProcessor<'_> {
    /// Whether a control-independence model (FGCI or CGCI) is enabled: its
    /// recoveries preserve work, so faults are debounced, repairs reuse the
    /// suffix's outcomes and keep its common instructions.
    fn ci_model(&self) -> bool {
        self.cfg.model != CiModel::None
    }

    /// `(a_pe, a_slot)` strictly older than `(b_pe, b_slot)` in program
    /// order?
    fn older(&self, a: (usize, usize), b: (usize, usize)) -> bool {
        if a.0 == b.0 {
            return a.1 < b.1;
        }
        self.list.logical(a.0) < self.list.logical(b.0)
    }

    /// The oldest *actionable* fault in the window.
    ///
    /// Under a CI model, recovery preserves completed work near the
    /// mispredicted branch, so value changes ripple through preserved
    /// slots and can make a branch resolve transiently wrong on
    /// mixed stale/fresh operands. Acting on such a fault starts a bogus
    /// repair (occupying the construction engine) and counts a phantom
    /// misprediction. The debounce: a fault is actionable only once the
    /// branch and its transitive *intra-trace* producers have settled
    /// (completed with no pending reissue) — i.e. the outcome was computed
    /// from its final local inputs. The base machine squashes everything
    /// younger than a fault, has no preserved-value ripple, and keeps the
    /// paper's act-at-detection behaviour.
    fn oldest_fault(&self) -> Option<(usize, usize)> {
        let debounce = self.ci_model();
        for pe in self.list.iter() {
            if let Some(slot) = self.pes[pe].first_fault() {
                if !debounce || self.fault_inputs_settled(pe, slot) {
                    return Some((pe, slot));
                }
                // Not settled: skip this PE's fault for now (it re-raises
                // or clears when the ripple finishes) but keep scanning —
                // an already-settled younger fault must not starve.
            }
        }
        None
    }

    /// Whether a faulting slot and every intra-trace producer it
    /// (transitively) reads have settled: completed, with no reissue
    /// pending. `OperandRef::Local` references point strictly backward, so
    /// one reverse pass over a slot-index bitmask closes the set.
    fn fault_inputs_settled(&self, pe: usize, slot: usize) -> bool {
        let slots = &self.pes[pe].slots;
        let settled = |s: &Slot| s.state == SlotState::Done && !s.pending_reissue;
        if !settled(&slots[slot]) {
            return false;
        }
        let locals = |s: &Slot| {
            s.ti.srcs
                .iter()
                .flatten()
                .filter_map(
                    |&(_, oref)| {
                        if let OperandRef::Local(j) = oref {
                            Some(j as u64)
                        } else {
                            None
                        }
                    },
                )
                .fold(0u64, |m, j| m | 1 << j)
        };
        let mut need = locals(&slots[slot]);
        for i in (0..slot).rev() {
            if need >> i & 1 == 1 {
                if !settled(&slots[i]) {
                    return false;
                }
                need |= locals(&slots[i]);
            }
        }
        true
    }

    pub(super) fn recovery_stage(&mut self) {
        // Validate the active recovery (its PE may have been squashed by an
        // older recovery preempting it).
        if let Some(rec) = &self.recovery {
            if !self.pe_live(rec.pe, rec.gen) {
                self.recovery = None;
            }
        }
        let oldest = self.oldest_fault();
        match (&self.recovery, oldest) {
            (Some(rec), Some(f)) if self.older(f, (rec.pe, rec.slot)) => {
                // An older fault preempts the in-flight recovery.
                self.recovery = None;
                self.start_recovery(f.0, f.1);
            }
            (Some(_), _) => {
                let rec = self.recovery.clone().expect("checked above");
                if self.now() >= rec.ready_at {
                    self.recovery = None;
                    self.apply_recovery(rec);
                }
            }
            (None, Some(f)) => self.start_recovery(f.0, f.1),
            (None, None) => {}
        }
    }

    fn start_recovery(&mut self, pe: usize, slot: usize) {
        let fault = self.pes[pe].slots[slot].fault.expect("fault present");
        match fault {
            Fault::Indirect { actual } => {
                // The trace itself is correct; its successors are not.
                // Squash everything younger and redirect fetch.
                self.books.successor_mispredicted();
                let branch_pc = self.pes[pe].slots[slot].ti.pc;
                self.books.recovery_started(pe, branch_pc, RecoveryPlan::FullSquash);
                self.squash_after(Some(pe), None);
                self.set_mode(FetchMode::Normal);
                self.pes[pe].set_fault(slot, None);
                self.restart_fetch_after(pe, ExpectedNext::resolved(actual));
            }
            Fault::CondBranch { actual } => {
                let ti = self.pes[pe].slots[slot].ti;
                let class = ti.ci_branch_class().expect("cond-branch fault classifies");
                let repaired = self.repair_trace(pe, slot, actual);
                // Construction timing: refetch the repaired *middle*
                // through the instruction cache, one basic block per
                // cycle. A common suffix preserved by a CI model's repair
                // (see `replace_trace`) is never rebuilt, so it is not
                // charged.
                let prefix_len = (slot + 1).min(repaired.len());
                let suffix = self.common_suffix_len(pe, prefix_len, &repaired);
                let cycles = self.construction_cycles(&repaired, slot, repaired.len() - suffix);
                let ready_at = self.now().max(self.construction_busy_until) + cycles as u64;
                self.construction_busy_until = ready_at;
                // Decide the recovery plan now; squash at detection.
                let covered = self.cfg.model.fgci() && ti.fgci_covered;
                let (plan, attr) = if covered {
                    // Event and occupancy are recorded at apply time, when
                    // the fault is confirmed still standing (a transient
                    // fault's abandoned repair is not an FGCI recovery).
                    let key = (class, Heuristic::Fgci, RecoveryOutcome::FgciRepair);
                    (RecoveryPlan::Fgci, key)
                } else if let Some((reconv, matched)) = self.viable_reconv(pe, slot) {
                    self.check_reconv_oracle(ti.pc, matched, self.pes[reconv].trace.id().start());
                    // Squash strictly between the faulting PE and the first
                    // control independent trace.
                    let squashed = self.squash_after(Some(pe), Some(reconv));
                    self.redispatch = None;
                    let gen = self.pes[reconv].gen;
                    let reconv_pc = self.pes[reconv].trace.id().start();
                    self.set_mode(FetchMode::CgciInsert {
                        before: reconv,
                        before_gen: gen,
                        reconv_start: reconv_pc,
                        inserted: 0,
                    });
                    // The attempt's outcome is provisional until fetch
                    // detects re-convergence or the insertion is torn down;
                    // the books charge it when it closes.
                    let key = (class, matched, RecoveryOutcome::CgciReconverged);
                    let dispatched_at = self.pes[pe].dispatched_at;
                    let branch = BranchAt { pe, slot, pc: ti.pc, dispatched_at };
                    self.books.cgci_opened(key, branch, reconv_pc, squashed);
                    (RecoveryPlan::Cgci, key)
                } else {
                    let key = (class, self.consulted_heuristic(class), RecoveryOutcome::FullSquash);
                    let squashed = self.squash_after(Some(pe), None);
                    self.books.full_squash_charged(key, squashed, ready_at - self.now());
                    self.redispatch = None;
                    self.set_mode(FetchMode::Normal);
                    (RecoveryPlan::FullSquash, key)
                };
                if plan == RecoveryPlan::Fgci {
                    // FGCI leaves the window untouched, but pending fetches
                    // were predicted under a stale history.
                    self.fetch_queue.clear();
                }
                self.books.recovery_started(pe, ti.pc, plan);
                let gen = self.pes[pe].gen;
                let started_at = self.now();
                self.recovery =
                    Some(Recovery { pe, gen, slot, repaired, ready_at, plan, attr, started_at });
            }
        }
    }

    /// The CGCI heuristic primarily consulted for a misprediction of
    /// `class` under the current configuration (ledger labelling for
    /// recoveries where no re-convergent trace was found).
    fn consulted_heuristic(&self, class: BranchClass) -> Heuristic {
        match self.cfg.model {
            m if !m.cgci() => Heuristic::None,
            m if m.mlb() && class == BranchClass::Backward => Heuristic::Mlb,
            _ => Heuristic::Ret,
        }
    }

    /// Checks one CGCI re-convergence detection against the static
    /// post-dominator oracle (no-op unless
    /// [`TraceProcessorConfig::cfg_oracle`] is on). Every detection must
    /// land in a classified bucket of [`ReconvClass`]; the first
    /// unclassifiable one is recorded and surfaced from `step_cycle` as
    /// [`SimError::OracleMismatch`]. Observation-only: the attempt
    /// proceeds unchanged either way, so enabling the oracle can never
    /// alter simulated behaviour.
    fn check_reconv_oracle(&mut self, branch_pc: Pc, matched: Heuristic, detected: Pc) {
        let Some(oracle) = &self.reconv_oracle else { return };
        let class = oracle.classify(branch_pc, detected);
        self.reconv_oracle_counts[class.index()] += 1;
        if class == ReconvClass::Unclassified && self.reconv_oracle_violation.is_none() {
            self.reconv_oracle_violation = Some(format!(
                "cfg-oracle: CGCI attempt at branch pc {branch_pc} ({} heuristic) detected \
                 re-convergence at pc {detected}, which the static CFG cannot justify \
                 (static ipdom: {:?})",
                matched.label(),
                oracle.reconv_point(branch_pc),
            ));
        }
    }

    /// [`Self::find_reconv`] plus the attempt's profitability bound: the
    /// control-dependent traces between `pe` and the re-convergent trace,
    /// which the attempt squashes, must not outnumber
    /// [`CGCI_MAX_DEPENDENT`] (a full squash instead).
    fn viable_reconv(&self, pe: usize, slot: usize) -> Option<(usize, Heuristic)> {
        let (reconv, matched) = self.find_reconv(pe, slot)?;
        let dependent = self.list.iter_after(pe).take_while(|&q| q != reconv).count();
        (dependent <= CGCI_MAX_DEPENDENT).then_some((reconv, matched))
    }

    /// Locates the first assumed control-independent trace after `pe` using
    /// the configured CGCI heuristic, reporting which heuristic matched.
    fn find_reconv(&self, pe: usize, slot: usize) -> Option<(usize, Heuristic)> {
        if !self.cfg.model.cgci() {
            return None;
        }
        let ti = &self.pes[pe].slots[slot].ti;
        if self.cfg.model.mlb() && ti.inst.is_backward_branch(ti.pc) {
            // MLB: nearest trace starting at the branch's not-taken target.
            let target = ti.pc + 1;
            if let Some(q) =
                self.list.iter_after(pe).find(|&q| self.pes[q].trace.id().start() == target)
            {
                return Some((q, Heuristic::Mlb));
            }
        }
        // RET: the trace following the nearest return-ending trace.
        let ret_pe = self.list.iter_after(pe).find(|&q| self.pes[q].trace.ends_in_return())?;
        self.list.next(ret_pe).map(|q| (q, Heuristic::Ret))
    }

    /// Re-selects the faulting trace with the branch's actual outcome
    /// (prefix outcomes embedded, suffix outcomes from the BTB).
    ///
    /// Under a control-independence model the suffix does better than the
    /// BTB: the selective-recovery hardware (§5) still holds the faulting
    /// trace's suffix slots, so branches the old trace already *resolved*
    /// reuse their resolved outcomes and unresolved ones keep their
    /// original (trace-predictor) embedded predictions. Re-predicting them
    /// with the BTB — as the base machine must, since a full squash
    /// discards the slots — manufactures fresh mispredictions on exactly
    /// the paths control independence is trying to preserve. Outcomes are
    /// matched to the re-selected path by PC with a forward cursor, so
    /// reuse survives the control-flow divergence between the old and new
    /// suffix (e.g. extra loop iterations after a loop-exit flip).
    fn repair_trace(&mut self, pe: usize, slot: usize, actual: bool) -> Arc<Trace> {
        let trace = self.pes[pe].trace.clone();
        let fault_branch_idx =
            trace.insts()[..slot].iter().filter(|ti| ti.inst.is_cond_branch()).count() as u8;
        let id = trace.id();
        let suffix_outcomes: Vec<(Pc, bool)> = if self.ci_model() {
            self.pes[pe].slots[slot + 1..]
                .iter()
                .filter_map(|s| {
                    if !s.ti.inst.is_cond_branch() {
                        return None;
                    }
                    match (s.state == SlotState::Done, s.outcome, s.ti.embedded_taken) {
                        (true, Some(resolved), _) => Some((s.ti.pc, resolved)),
                        (_, _, Some(embedded)) => Some((s.ti.pc, embedded)),
                        _ => None,
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        struct RepairOutcomes<'a> {
            id: TraceId,
            fault_idx: u8,
            actual: bool,
            btb: &'a Btb,
            suffix: &'a [(Pc, bool)],
            cursor: usize,
            ntb: bool,
        }
        impl OutcomeSource for RepairOutcomes<'_> {
            fn cond_outcome(&mut self, index: u8, pc: Pc, inst: Inst) -> bool {
                match index.cmp(&self.fault_idx) {
                    std::cmp::Ordering::Less => self.id.outcome(index),
                    std::cmp::Ordering::Equal => self.actual,
                    std::cmp::Ordering::Greater => {
                        if let Some(hit) =
                            self.suffix[self.cursor..].iter().position(|&(p, _)| p == pc)
                        {
                            let (_, outcome) = self.suffix[self.cursor + hit];
                            self.cursor += hit + 1;
                            outcome
                        } else {
                            fetch::btb_cond_guess(self.btb, self.ntb, pc, inst)
                        }
                    }
                }
            }
            fn indirect_target(&mut self, pc: Pc, _inst: Inst) -> Option<Pc> {
                self.btb.predict_indirect(pc)
            }
        }
        // Split field borrows: the selector reads the BTB while mutating
        // the BIT.
        let selector = self.selector;
        let (program, bit, btb) = (self.program, &mut self.bit, &self.btb);
        let mut outcomes = RepairOutcomes {
            id,
            fault_idx: fault_branch_idx,
            actual,
            btb,
            suffix: &suffix_outcomes,
            cursor: 0,
            ntb: self.cfg.selection.ntb,
        };
        let sel = selector.select(program, id.start(), bit, &mut outcomes);
        self.books.bit_misses(sel.stats);
        Arc::new(sel.trace)
    }

    fn apply_recovery(&mut self, rec: Recovery) {
        let pe = rec.pe;
        // Abandon if the fault has vanished (outcome flipped back by a
        // selective reissue before the repair finished) or — under a CI
        // model — if the faulting slot went back in flight (its inputs
        // changed, so the repair was built from a transient outcome):
        // re-verification at the slot's next completion decides what
        // happens next. The squashes performed at detection stand — refetch
        // proceeds normally.
        let debounce = self.ci_model();
        let stale = self.pes[pe].slots.get(rec.slot).is_none_or(|s| {
            s.fault.is_none() || (debounce && (s.state != SlotState::Done || s.pending_reissue))
        });
        if stale {
            self.books.recovery_abandoned(pe);
            self.set_mode(FetchMode::Normal);
            // An in-flight re-dispatch pass owns the map/history chain; it
            // restores fetch state itself when it completes.
            if self.redispatch.is_none() {
                self.refetch_after_tail();
            }
            return;
        }
        // The fault stands: the branch's embedded prediction really was
        // wrong, and the books record the misprediction now.
        self.books.recovery_applied(pe, &mut self.pes[pe], rec.slot, rec.attr);
        // Replace the faulting PE's trace with the repaired one (prefix
        // slots keep their state; suffix slots are squashed and replaced).
        self.pes[pe].repairs += 1;
        self.replace_trace(pe, rec.slot, rec.repaired.clone());
        match rec.plan {
            RecoveryPlan::Fgci => {
                let preserved: Vec<usize> = self.list.iter_after(pe).collect();
                let cycles = rec.ready_at - rec.started_at;
                self.books.fgci_applied(rec.attr, cycles, &preserved, &self.pes);
                self.begin_redispatch(Some(pe), preserved, Some(rec.attr));
                self.set_mode(FetchMode::Normal);
            }
            RecoveryPlan::Cgci | RecoveryPlan::FullSquash => {
                // Under CGCI, fetch will insert correct control-dependent
                // traces before the preserved trace (re-dispatch happens at
                // re-convergence); under a full squash nothing younger
                // survives. Either way the fetch frontier restarts after
                // the repaired trace.
                self.restart_fetch_after(pe, self.expected_after_pe(pe));
            }
        }
    }

    /// Restarts fetch after the trace in `pe`, expecting `expected` next.
    /// An in-flight re-dispatch pass may still owe rename walks to
    /// surviving traces at or before `pe`; that debt is carried, not
    /// dropped (a preempted walk leaves committed-path live-ins renamed
    /// through a stale map chain; see `resume_walk_debt`). Otherwise the
    /// pass is dropped and renaming restarts after `pe`.
    fn restart_fetch_after(&mut self, pe: usize, expected: ExpectedNext) {
        self.fetch_hist = self.hist_after(Some(pe));
        self.expected = expected;
        if !self.resume_walk_debt(pe, Vec::new(), None) {
            self.redispatch = None;
            self.current_map = self.pes[pe].map_after;
        }
    }

    /// Length of the common instruction suffix shared by the live trace in
    /// `pe` (beyond its preserved prefix of `prefix_len` slots) and the
    /// `repaired` trace — the intra-trace control-independent tail that a
    /// CI model's repair preserves in place. Always 0 when neither CI model
    /// is enabled: the base machine squashes the whole suffix.
    pub(super) fn common_suffix_len(
        &self,
        pe: usize,
        prefix_len: usize,
        repaired: &Trace,
    ) -> usize {
        if !self.ci_model() {
            return 0;
        }
        let old = &self.pes[pe].slots;
        let new = repaired.insts();
        let max = old.len().saturating_sub(prefix_len).min(new.len().saturating_sub(prefix_len));
        let mut common = 0;
        while common < max {
            let o = &old[old.len() - 1 - common].ti;
            let n = &new[new.len() - 1 - common];
            if o.pc == n.pc && o.inst == n.inst {
                common += 1;
            } else {
                break;
            }
        }
        common
    }

    /// Replaces the trace in `pe` from `keep_upto` (inclusive prefix bound)
    /// with `repaired`: prefix slots keep state, squashed middle slots are
    /// freshly renamed, and — under a CI model — the common instruction
    /// suffix after the re-convergent point keeps its execution state too
    /// (§3's fine-grain repair: only the incorrect control-dependent
    /// instructions are replaced). Re-registers readers under a new
    /// generation.
    pub(super) fn replace_trace(&mut self, pe: usize, fault_slot: usize, repaired: Arc<Trace>) {
        // Middle live-outs and promoted slots together need at most one
        // global register per live-out.
        self.reserve_pregs(repaired.live_outs().len());
        let old_len = self.pes[pe].slots.len();
        let new_len = repaired.len();
        let prefix_len = (fault_slot + 1).min(new_len);
        if self.paranoid {
            assert!(fault_slot < old_len);
        }
        let common = self.common_suffix_len(pe, prefix_len, &repaired);
        let middle_end = new_len - common;
        let reissue_at = self.now() + 1;
        // Undo stores in the squashed middle. Unlike a full-suffix squash,
        // the preserved common suffix survives in the same PE and may hold
        // loads fed by these dying stores, so the undo snoop must not skip
        // same-PE victims.
        for slot in prefix_len..old_len - common {
            self.undo_store_snooping(pe, slot, usize::MAX);
        }
        // Preserved suffix slots shift indices when the repaired middle has
        // a different physical length. Sequence handles encode the slot
        // index, so a performed store cannot keep its ARB version across
        // the move: undo it under the *old* handle (reissuing every load
        // that sourced it, same-PE included) and let the store re-perform
        // under its new handle.
        let shift = old_len != new_len;
        if shift {
            for slot in old_len - common..old_len {
                if self.undo_store_snooping(pe, slot, usize::MAX) {
                    let _ = self.pes[pe].slots[slot].mark_reissue(reissue_at);
                }
            }
        }
        self.pes[pe].gen += 1;
        let map_before = self.pes[pe].map_before;
        let mut slots = std::mem::take(&mut self.pes[pe].slots);
        let mut suffix = std::mem::take(&mut self.scratch_slots);
        suffix.clear();
        suffix.extend(slots.drain(old_len - common..));
        slots.truncate(prefix_len);
        // Refresh prefix metadata from the repaired trace (same
        // instructions; embedded outcomes/coverage may differ). The (former)
        // fault branch re-verifies against its new embedded outcome below.
        for (i, s) in slots.iter_mut().enumerate() {
            let new_ti = repaired.insts()[i];
            if self.paranoid {
                assert_eq!(s.ti.inst, new_ti.inst, "repair changed a prefix instruction");
            }
            s.ti = new_ti;
        }
        // Fresh middle slots.
        for i in prefix_len..middle_end {
            slots.push(Slot::new(repaired.insts()[i]));
        }
        // Preserved suffix slots: keep execution state and refresh
        // metadata. Branch re-verification happens below, once source
        // rebinding has decided which slots reissue — a resolved outcome is
        // only meaningful while the slot's inputs still stand.
        for (k, mut s) in suffix.drain(..).enumerate() {
            let new_ti = repaired.insts()[middle_end + k];
            if self.paranoid {
                assert_eq!(s.ti.inst, new_ti.inst, "suffix match changed an instruction");
            }
            s.ti = new_ti;
            slots.push(s);
        }
        self.scratch_slots = suffix;
        // Preserved suffix slots whose operands moved (bit per slot).
        let mut rebound = 0u64;
        // Where an old operand's producer sits in the repaired trace: a
        // live-in names a global register, which cannot equal a local
        // producer (the rename invariant forbids a trace reading its own
        // live-outs through its map). A prefix producer keeps its index, a
        // suffix producer moves by the length change `new_len - old_len`,
        // and an old middle producer is gone (`None`: any operand that
        // read it changed).
        let moved = |old: Src| match old {
            Src::Local(j) if (j as usize) < prefix_len => Some(old),
            Src::Local(j) if (j as usize) >= old_len - common => {
                Some(Src::Local((j as usize + new_len - old_len) as u8))
            }
            Src::Local(_) => None,
            Src::Global(_) => Some(old),
        };
        // Rebind all sources and allocate fresh middle live-outs; prefix
        // and preserved suffix keep their published results and global
        // registers.
        for (i, slot) in slots.iter_mut().enumerate() {
            let ti = slot.ti;
            let old_srcs = slot.srcs;
            let mut srcs = [None; 2];
            for (k, &(_, oref)) in ti.srcs.iter().flatten().enumerate() {
                srcs[k] = Some(Self::bind(oref, &map_before));
            }
            slot.srcs = srcs;
            // A preserved suffix slot whose operands moved (a value now
            // comes from the repaired middle, or from a different producer)
            // selectively reissues — the same rule the re-dispatch pass
            // applies across traces. A fresh middle producer always counts
            // as a change: no old operand maps into the middle.
            let changed = |(old, new): (&Option<Src>, &Option<Src>)| old.and_then(moved) != *new;
            if i >= middle_end && old_srcs.iter().zip(&srcs).any(changed) {
                rebound |= 1 << i;
                let _ = slot.mark_reissue(reissue_at);
            }
            let is_liveout = ti.dest.is_some_and(|d| repaired.last_writer(d) == Some(i));
            let was_liveout = slot.is_liveout;
            slot.is_liveout = is_liveout;
            // A live-out without a global register is a fresh middle slot
            // or a preserved slot promoted to live-out. (A demoted slot
            // keeps its register: younger traces may still name it.) The
            // promoted slot's register starts as the one it would have had
            // all along: its published result, visible to every PE from
            // when it was published, as a value that was never a live-out
            // never waited for a result bus.
            if is_liveout && slot.global.is_none() {
                let g = self.alloc_global(pe);
                slot.global = Some(g);
                let out = slot.out;
                let r = self.pregs.get_mut(g);
                (r.value, r.ready) = (out.value, out.produced);
                (r.local_ready_at, r.global_ready_at) = (out.ready_at, out.ready_at);
            }
            // A preserved slot promoted to live-out after completion must
            // still broadcast its value to other PEs.
            if (i < prefix_len || i >= middle_end)
                && is_liveout
                && !was_liveout
                && slot.state == SlotState::Done
            {
                let g = slot.global.expect("allocated above");
                self.pregs.get_mut(g).global_ready_at = u64::MAX;
            }
        }
        // The middle's length may have changed, shifting the suffix: relink
        // every local consumer.
        link_local_consumers(&mut slots);
        self.pes[pe].slots = slots;
        self.pes[pe].trace = repaired.clone();
        // Faults: the suffix carried its own and may have shifted, so the
        // mask is rebuilt once. A rebound suffix slot's stale outcome proves
        // nothing, so its fault is dropped (re-execution re-verifies at
        // completion); every other resolved branch of the prefix and suffix
        // re-verifies against the repaired trace's embedded outcome.
        let p = &mut self.pes[pe];
        p.recompute_faults();
        for i in (0..prefix_len).chain(middle_end..new_len) {
            if rebound >> i & 1 == 1 {
                p.set_fault(i, None);
            } else if p.slots[i].ti.inst.is_cond_branch() && p.slots[i].state == SlotState::Done {
                let fault = p.slots[i].branch_fault();
                p.set_fault(i, fault);
            }
        }
        self.pes[pe].map_after = Self::map_after(&repaired, &self.pes[pe].slots, map_before);
        // Re-register readers and re-request buses under the new generation.
        for i in 0..self.pes[pe].slots.len() {
            for q in self.pes[pe].slots[i].srcs.into_iter().flatten() {
                if let Src::Global(preg) = q {
                    self.register_reader(preg, pe, i);
                }
            }
            let s = &self.pes[pe].slots[i];
            if s.is_liveout && s.state == SlotState::Done {
                let g = s.global.expect("a live-out has a global register");
                if self.pregs.get(g).global_ready_at == u64::MAX {
                    let gen = self.pes[pe].gen;
                    self.push_result_req(BusReq { pe, gen, slot: i, since: self.now() });
                }
            }
        }
        // In-flight preserved mem operations (prefix and common suffix)
        // keep their bus requests (now stale-generation): requeue any that
        // were pending, under their possibly-shifted indices. Fresh middle
        // slots are `Waiting` and cannot be in `WaitingBus`.
        for i in 0..self.pes[pe].slots.len() {
            if let SlotState::WaitingBus { since } = self.pes[pe].slots[i].state {
                let gen = self.pes[pe].gen;
                self.push_cache_req(BusReq { pe, gen, slot: i, since });
            }
        }
        // Reindex the PE in the wakeup index under the bumped generation:
        // the gen bump invalidated every entry the old trace held, but the
        // surviving prefix keeps live state the index must still cover —
        // waiting slots re-enqueue, in-flight slots reschedule their
        // completions, and sampled loads re-enter the snoop registry.
        self.index_reset_pe(pe);
        for i in 0..self.pes[pe].slots.len() {
            match self.pes[pe].slots[i].state {
                SlotState::Waiting => self.index_enqueue(pe, i),
                SlotState::Executing { done_at } | SlotState::MemAccess { done_at } => {
                    self.note_inflight(pe, i, done_at);
                }
                _ => {}
            }
            if matches!(self.pes[pe].slots[i].ti.inst, Inst::Load { .. }) {
                if let Some(a) = self.pes[pe].slots[i].mem_addr {
                    self.note_load_sampled(pe, i, a);
                }
            }
        }
        // Fill the (possibly wrong-path) repaired trace into the trace cache
        // speculatively, as trace buffers do.
        self.tcache.fill(repaired);
    }

    /// Undoes the slot's ARB store version, if one was performed, snooping
    /// victim loads except those in `snoop_skip` (`usize::MAX` skips
    /// nothing — required whenever same-PE slots survive the undo, e.g.
    /// the preserved common suffix of a trace repair). Returns whether a
    /// version was undone.
    fn undo_store_snooping(&mut self, pe: usize, slot: usize, snoop_skip: usize) -> bool {
        let (performed, addr) = {
            let s = &self.pes[pe].slots[slot];
            (s.store_performed, s.mem_addr)
        };
        if !performed {
            return false;
        }
        let addr = addr.expect("performed store has an address");
        let h = Self::handle(pe, slot);
        self.arb.undo(addr, h);
        self.pes[pe].slots[slot].store_performed = false;
        self.snoop_undo(addr, h, snoop_skip);
        true
    }

    /// Squashes every trace after `pe` (from the window head for `None`)
    /// up to, not including, `until` (to the tail for `None`), oldest
    /// first, and clears the fetch queue, whose traces were fetched after
    /// the squashed ones. Returns the number of traces squashed. When
    /// `until` is `None`, `pe` is the tail afterwards (the window is empty
    /// for `None`).
    pub(super) fn squash_after(&mut self, pe: Option<usize>, until: Option<usize>) -> u64 {
        let mut squashed = 0;
        loop {
            let next = match pe {
                Some(p) => self.list.next(p),
                None => self.list.head(),
            };
            let Some(v) = next.filter(|&v| Some(v) != until) else { break };
            self.squash_pe(v);
            squashed += 1;
        }
        self.fetch_queue.clear();
        squashed
    }

    pub(super) fn squash_pe(&mut self, pe: usize) {
        self.books.squashed(pe, self.pes[pe].trace.id().start());
        // Every same-PE slot dies with the store: same-PE loads need no
        // snoop.
        for slot in 0..self.pes[pe].slots.len() {
            self.undo_store_snooping(pe, slot, pe);
        }
        self.pes[pe].occupied = false;
        self.pes[pe].gen += 1;
        self.pes[pe].slots.clear();
        self.pes[pe].recompute_faults();
        // The gen bump invalidates the PE's reader/completion/load-registry
        // entries; the ready bits are positional and must clear eagerly.
        self.index_reset_pe(pe);
        self.list.remove(pe);
    }
}
