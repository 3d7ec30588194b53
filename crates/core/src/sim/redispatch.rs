//! The **re-dispatch pass** over preserved control-independent traces,
//! and the live-in rebind walk it shares with the head re-ground.
//!
//! Implements the register-dependence repair half of control independence
//! (§3/§4): after an FGCI repair, or after CGCI insertion re-converges,
//! the preserved traces' live-in renames are walked forward through the
//! corrected rename-map chain — one trace per cycle, sharing the dispatch
//! bus with normal dispatch ([`dispatch`](super::dispatch)). Both models
//! start the pass through one entry point, `begin_redispatch`, from the
//! map after the trace preceding the preserved ones, or from retired
//! state when none is left. Each step is one `rebind_live_ins` walk: only
//! instructions whose source names actually changed are marked for
//! selective reissue (the paper's key cost saving: preserved instructions
//! with unchanged names keep their results). Live-outs keep their physical
//! registers, so the chained map can only ever bind strictly older
//! producers. Retirement runs the same walk to re-ground a stale head on
//! the retired rename map.
//!
//! The pass owns the *dispatch bus* only: fetch keeps running while it
//! drains. The speculative fetch history and expectation are restored
//! eagerly at pass start (the preserved traces' ids are already known), so
//! the frontend predicts and constructs the post-window stream concurrently
//! with the register repair instead of stalling for one cycle per preserved
//! trace — fetched traces simply queue until the pass releases the bus.
//!
//! **Mutates:** the active [`RedispatchPass`], preserved PEs' slot sources
//! and rename maps, the speculative rename-map chain and fetch
//! history/expectation (at pass start), reader registrations, and the
//! books.

use super::*;

impl TraceProcessor<'_> {
    /// Carries what an in-flight re-dispatch pass still owes when a new
    /// recovery at `pivot` replaces it: the pending PEs at or before
    /// `pivot` in logical order, walked from the old pass's position (its
    /// rolling history; `self.current_map` *is* the walk map there). A
    /// replacement pass that walked only from `pivot` forward would
    /// silently drop these — the older traces would commit live-in values
    /// renamed through a map chain that a previous repair already
    /// invalidated.
    ///
    /// If anything is owed, installs a replacement pass that resumes from
    /// the old walk position and covers the debt, then `pivot` itself, then
    /// `suffix` — and returns `true`. `self.current_map` is left untouched
    /// in that case: the pass owns it while in flight, so the chain
    /// re-derives every map from the old position, including `pivot`'s own
    /// (whose `map_before` predates the older repair). Returns `false` when
    /// nothing is owed (plain replacement is safe); the caller then starts
    /// its walk fresh from `pivot`'s map.
    pub(super) fn resume_walk_debt(
        &mut self,
        pivot: usize,
        suffix: &PeQueue,
        attr: Option<AttrKey>,
    ) -> bool {
        let Some(old) = &self.redispatch else { return false };
        let pl = self.list.logical(pivot);
        let owed = |&pe: &usize| {
            self.list.contains(pe) && self.pes[pe].occupied && self.list.logical(pe) <= pl
        };
        let mut queue: PeQueue = old.queue.iter().filter(owed).collect();
        if queue.is_empty() {
            return false;
        }
        let rolling = old.rolling;
        if queue.last() != Some(pivot) {
            queue.push(pivot);
        }
        queue.extend(suffix.iter());
        self.redispatch = Some(RedispatchPass { queue, rolling, attr });
        true
    }

    /// Starts a re-dispatch pass over the `preserved` traces (in logical
    /// order), which re-renames their live-ins one trace per cycle from the
    /// map after `pred`: the repaired trace (FGCI), the last inserted
    /// control-dependent trace or the repaired trace (CGCI), or *retired*
    /// state when the whole control-dependent path committed before
    /// re-convergence was observed (`pred == None`: the preserved traces
    /// are then the whole window, so no older walk can be owed). Replaces
    /// any pass already in flight, but never drops its debt: if the old
    /// pass still had pending traces at or before `pred`, the new pass
    /// resumes from the old walk position and covers them (and `pred`
    /// itself) before the preserved suffix. Fetch history and expectation
    /// are restored to the end of the preserved suffix at once.
    pub(super) fn begin_redispatch(
        &mut self,
        pred: Option<usize>,
        preserved: PeQueue,
        attr: Option<AttrKey>,
    ) {
        if let Some(p) = pred {
            if self.resume_walk_debt(p, &preserved, attr) {
                let pass = self.redispatch.as_ref().expect("installed above");
                let (rolling, queue) = (pass.rolling, pass.queue);
                self.restore_fetch_past(&rolling, &queue);
                return;
            }
        }
        let rolling = self.hist_after(pred);
        self.current_map = match pred {
            Some(p) => self.pes[p].map_after,
            None => self.retired_map,
        };
        self.restore_fetch_past(&rolling, &preserved);
        self.redispatch =
            (!preserved.is_empty()).then_some(RedispatchPass { queue: preserved, rolling, attr });
    }

    /// Restores the speculative fetch history and expectation to the end of
    /// the preserved suffix so fetch can run concurrently with the pass:
    /// `rolling` is the history up to (excluding) the first preserved
    /// trace; the preserved ids extend it to the window tail.
    fn restore_fetch_past(&mut self, rolling: &TraceHistory, preserved: &PeQueue) {
        let mut h = *rolling;
        for pe in preserved.iter() {
            h.push(self.pes[pe].trace.id());
        }
        self.fetch_hist = h;
        self.expected = self.expected_after_tail();
    }

    /// The live-in rebind walk, shared by the re-dispatch pass and the
    /// head re-ground: installs `map_before` as the rename map before the
    /// trace in `pe`, binds every live-in operand to it, and recomputes the
    /// map after the trace (live-outs keep their global registers). Each
    /// moved operand registers its slot as a reader of the new register,
    /// and each slot with a moved operand selectively reissues; nothing
    /// else in the PE moved. Returns the number of moved operands.
    pub(super) fn rebind_live_ins(&mut self, pe: usize, map_before: RenameMap) -> u64 {
        // Bit `2i + k` set: operand `k` of slot `i` moved.
        let mut moved = 0u64;
        let p = &mut self.pes[pe];
        for (i, k, r) in p.trace.live_in_operands() {
            let preg = map_before[r.index()];
            let slot = &mut p.slots[i];
            // Never a slot's own destination: live-outs keep their
            // mappings, so a map before the trace can only hold strictly
            // older registers.
            assert!(
                slot.global() != Some(preg),
                "rebind bound slot {i} of pe {pe} to its own destination"
            );
            if slot.srcs[k] != preg {
                slot.srcs[k] = preg;
                moved |= 1 << (2 * i + k);
            }
        }
        for bit in bits(moved) {
            let (i, k) = (bit / 2, bit % 2);
            self.register_reader(self.pes[pe].slots[i].srcs[k], pe, i);
        }
        let reissue_at = self.now() + 1;
        let mut last = None;
        for bit in bits(moved) {
            let i = bit / 2;
            if last != Some(i) {
                self.rebind_reissue_slot(pe, i, reissue_at);
                last = Some(i);
            }
        }
        let p = &mut self.pes[pe];
        p.map_before = map_before;
        p.map_after = Self::map_after(&p.trace, &p.slots, map_before);
        u64::from(moved.count_ones())
    }

    /// One step of a re-dispatch pass: update one preserved trace's live-in
    /// renames; only instructions with changed source names reissue.
    pub(super) fn redispatch_step(&mut self) {
        let (pe, empty_after, attr) = {
            let Some(pass) = &mut self.redispatch else { return };
            let Some(pe) = pass.queue.pop_front() else {
                self.redispatch = None;
                return;
            };
            (pe, pass.queue.is_empty(), pass.attr)
        };
        if !self.pes[pe].occupied || !self.list.contains(pe) {
            // Squashed while queued (e.g. tail reclamation): skip.
            if empty_after {
                self.redispatch = None;
            }
            return;
        }
        self.rebind_live_ins(pe, self.current_map);
        self.current_map = self.pes[pe].map_after;
        let id = self.pes[pe].trace.id();
        let pass = self.redispatch.as_mut().expect("the pass is still running");
        self.pes[pe].hist_before = pass.rolling;
        pass.rolling.push(id);
        self.books.redispatched(pe, id.start(), attr);
        if empty_after {
            // Fetch state was restored at pass start (and fetch may have
            // advanced past it since); the pass just releases the bus.
            self.redispatch = None;
        }
    }
}
