//! Pipeline stage 2: **retirement** — commit the head trace.
//!
//! Implements trace-at-a-time commit (§2): when every slot of the head
//! trace has completed, its register results are written to architectural
//! state, its stores are committed through the ARB, the conditional-branch
//! predictor is trained, and the trace-level predictor/trace cache are
//! updated with the *actual* trace. At [`CheckLevel::Oracle`] and above
//! every retiring instruction is checked against the functional oracle —
//! per-instruction PC, committed store address/value against the oracle's
//! memory, and per-trace register state. The stage also contains the
//! repair safety nets for recovery corner cases (§3/§4): re-grounding the
//! head's live-ins to retired state, squashing a head that does not
//! continue the committed frontier, and squashing an inconsistent tail left
//! behind by an abandoned CGCI insertion.
//!
//! **Mutates:** architectural registers and the retired rename map, the
//! ARB (store commit), predictors and trace cache (training/fill), the PE
//! list and the freed PE, the books, and — through the safety nets — the
//! fetch queue/history/mode and slot rename state.

use super::*;
use tp_events::StallReason;
use tp_isa::Inst;

impl TraceProcessor<'_> {
    pub(super) fn retire_stage(&mut self) -> Result<(), SimError> {
        let Some(head) = self.list.head() else { return Ok(()) };
        self.reground_head(head);
        let p = &self.pes[head];
        if !p.occupied {
            return Ok(());
        }
        if !p.all_complete() {
            self.books.head_stall(head, StallReason::Incomplete);
            return Ok(());
        }
        // A head targeted by an in-flight recovery cannot retire.
        if let Some(rec) = &self.recovery {
            if rec.pe == head {
                self.books.head_stall(head, StallReason::Recovery);
                return Ok(());
            }
        }
        // A head awaiting a re-dispatch pass cannot retire.
        if let Some(pass) = &self.redispatch {
            if pass.queue.contains(head) {
                self.books.head_stall(head, StallReason::Redispatch);
                return Ok(());
            }
        }
        // The preserved CI trace cannot retire while CGCI insertion is
        // still placing control-dependent traces before it.
        if let FetchMode::CgciInsert { before, .. } = self.mode {
            if before == head {
                self.books.head_stall(head, StallReason::CgciInsert);
                return Ok(());
            }
        }
        // Safety nets. The head must continue the committed path: a
        // recovery-corner sequence (e.g. an indirect fault whose correct
        // successor was later squashed by an abandoned CGCI attempt) can
        // promote stale wrong-path residue to the head position; its
        // predecessors retired, so no successor check upstream can see it
        // any more. Committing it would teleport the architectural
        // frontier — squash the whole window and refetch from the frontier
        // instead. And the head must be followed by a consistent successor:
        // an abandoned CGCI insertion (e.g. preempted by a younger
        // recovery) can leave a stale boundary in the window; discovering
        // it here squashes the inconsistent tail and refetches. Either way
        // any in-flight recovery targeted a squashed trace.
        let stale_head = !self.halted && self.pes[head].trace.id().start() != self.retired_next_pc;
        let stale_next = self.list.next(head).is_some_and(|next| {
            !self.successor_consistent(head, self.pes[next].trace.id().start())
        });
        if stale_head || stale_next {
            self.books.safety_squash();
            self.squash_after((!stale_head).then_some(head), None);
            self.redispatch = None;
            self.recovery = None;
            self.set_mode(FetchMode::Normal);
            self.refetch_after_tail();
            return Ok(());
        }
        self.retire_pe(head)
    }

    /// The head trace has nothing older than retired state: every live-in
    /// must be bound to the retired architectural registers. Recovery corner
    /// cases (e.g. a CGCI insertion abandoned after its control-dependent
    /// traces were squashed) can leave stale bindings; re-grounding the head
    /// restores them and selectively reissues affected instructions —
    /// without it the head could wait forever on a squashed producer.
    ///
    /// Under the binding invariant (every live-in operand is bound to its
    /// PE's `map_before`; see [`WakeupIndex`]) a head whose `map_before`
    /// already agrees with retired state on every live-in has nothing to
    /// rebind, so the slot walk is skipped, and one that disagrees has at
    /// least one operand to move (a live-in is read before it is written).
    fn reground_head(&mut self, head: usize) {
        let p = &self.pes[head];
        if !p.occupied
            || p.trace
                .live_ins()
                .iter()
                .all(|r| p.map_before[r.index()] == self.retired_map[r.index()])
        {
            return;
        }
        // The map chain after the head starts from its corrected map, so
        // later re-dispatch passes chain correctly.
        let mut map_before = p.map_before;
        for r in p.trace.live_ins() {
            map_before[r.index()] = self.retired_map[r.index()];
        }
        let moved = self.rebind_live_ins(head, map_before);
        if self.cfg.check == CheckLevel::Full {
            assert!(moved > 0, "cycle {}: re-ground of pe{head} moved no operand", self.now());
        }
        self.books.head_rebound(moved);
    }

    fn retire_pe(&mut self, pe: usize) -> Result<(), SimError> {
        let trace = self.pes[pe].trace.clone();
        let dispatched_at = self.pes[pe].dispatched_at;
        let now = self.now();
        // Commit in slot order: registers then stores.
        for slot in 0..self.pes[pe].slots.len() {
            let ti = trace.insts()[slot];
            let (dest_arch, pc, inst) = (ti.dest, ti.pc, ti.inst);
            let is_store = matches!(inst, Inst::Store { .. });
            let (value, outcome) =
                (self.pes[pe].slots[slot].value, self.pes[pe].slots[slot].outcome);
            let addr = self.pes[pe].side(slot).mem_addr;
            if let Some(r) = dest_arch {
                self.arch_regs[r.index()] = value;
                // Slot order leaves each register's last writer, a live-out
                // (so it has a global register), in the map; an earlier
                // writer can hold a global register only if a repair
                // demoted it.
                if let Some(g) = self.pes[pe].slots[slot].global() {
                    self.retired_map[r.index()] = g;
                }
            }
            if is_store {
                let addr = addr.expect("completed store has an address");
                let h = Self::handle(pe, slot);
                self.arb.commit(addr, h);
                self.demote_committed_source(addr, h);
            }
            if inst.is_cond_branch() {
                let taken = outcome.expect("completed branch has an outcome");
                self.btb.update_cond(pc, taken);
                let at = BranchAt { pe, slot, pc, dispatched_at };
                self.books.branch_retired(&ti, self.pes[pe].side(slot), at);
            }
            // Oracle verification, one instruction at a time.
            if let Some(oracle) = &mut self.oracle {
                let step = oracle.step().map_err(|e| SimError::OracleMismatch {
                    cycle: now,
                    detail: format!("oracle left program: {e}"),
                })?;
                if step.pc != pc {
                    return Err(SimError::OracleMismatch {
                        cycle: now,
                        detail: format!(
                            "retired pc {pc} but oracle executed pc {} (trace {})",
                            step.pc,
                            trace.id()
                        ),
                    });
                }
                // Memory commits are verified here, store by store — a
                // wrong committed store would otherwise stay silent until
                // an arbitrarily-later load reads it back (the per-trace
                // register check cannot see it).
                if is_store {
                    let committed = addr.expect("completed store has an address");
                    let oracle_ea = step.ea.unwrap_or(u64::MAX);
                    if committed >> 3 != oracle_ea >> 3 {
                        return Err(SimError::OracleMismatch {
                            cycle: now,
                            detail: format!(
                                "store at pc {pc} committed word {:#x} but oracle wrote {:#x} \
                                 (trace {})",
                                committed >> 3,
                                oracle_ea >> 3,
                                trace.id()
                            ),
                        });
                    }
                    let oracle_val = oracle.mem_word(oracle_ea);
                    if oracle_val != value {
                        return Err(SimError::OracleMismatch {
                            cycle: now,
                            detail: format!(
                                "store at pc {pc} committed value {value} but oracle wrote \
                                 {oracle_val} (trace {})",
                                trace.id()
                            ),
                        });
                    }
                }
            }
        }
        if let Some(oracle) = &self.oracle {
            for r in Reg::all() {
                if oracle.reg(r) != self.arch_regs[r.index()] {
                    return Err(SimError::OracleMismatch {
                        cycle: now,
                        detail: format!(
                            "after trace {}: {r} committed {} but oracle has {} (oracle retired \
                             {} halted {}, sim retired {})",
                            trace.id(),
                            self.arch_regs[r.index()],
                            oracle.reg(r),
                            oracle.retired(),
                            oracle.halted(),
                            self.books.stats().retired_instrs
                        ),
                    });
                }
            }
        }
        // Advance the retired architectural frontier — the PC a functional
        // machine resuming after this trace would fetch next. Retired
        // traces are on the committed path, so an indirect ending has a
        // resolved target and a static ending a known fall-out PC
        // (`OutOfProgram` traces exist only on wrong paths and never
        // retire).
        self.retired_next_pc = match trace.end() {
            EndReason::Halt => self.retired_next_pc,
            EndReason::Indirect => {
                let last = self.pes[pe].side(trace.len() - 1);
                last.indirect_target.expect("retired indirect transfer has a target") as Pc
            }
            _ => trace.next_pc().expect("static end has next"),
        };
        // Train the trace-level predictor with the canonical (actual) trace.
        self.predictor.train(&self.retire_hist, trace.id());
        self.retire_hist.push(trace.id());
        self.tcache.fill(trace.clone());
        let p = &self.pes[pe];
        self.books.retired_trace(pe, &trace, p.source, p.repairs > 0);
        self.last_retire_cycle = now;
        if trace.end() == EndReason::Halt {
            self.halted = true;
        }
        // Retirement writes values back to the global register file: they
        // become visible to every PE even if a result-bus grant was still
        // pending (the grant request dies with the generation bump below).
        for slot in 0..self.pes[pe].slots.len() {
            if let Some(d) = self.pes[pe].slots[slot].global() {
                let r = self.pregs.get_mut(d);
                r.global_ready_at = r.global_ready_at.min(now);
                r.local_ready_at = r.local_ready_at.min(now);
            }
        }
        // Free the PE. The gen bump invalidates its wakeup-index entries;
        // a fully-complete trace holds no ready bits to clear, but reset
        // defensively to keep the positional mask invariant unconditional.
        if self.cfg.check == CheckLevel::Full {
            assert_eq!(self.wakeup.ready[pe], 0, "retiring pe{pe} with ready bits set");
        }
        self.index_reset_pe(pe);
        self.list.remove(pe);
        self.pes[pe].occupied = false;
        self.pes[pe].gen += 1;
        Ok(())
    }
}
