//! The **re-dispatch pass** over preserved control-independent traces.
//!
//! Implements the register-dependence repair half of control independence
//! (§3/§4): after an FGCI repair, or after CGCI insertion re-converges,
//! the preserved traces' live-in renames are walked forward through the
//! corrected rename-map chain — one trace per cycle, sharing the dispatch
//! bus with normal dispatch ([`dispatch`](super::dispatch)). Only
//! instructions whose source names actually changed are marked for
//! selective reissue (the paper's key cost saving: preserved instructions
//! with unchanged names keep their results). Live-outs keep their physical
//! registers, so the chained map can only ever bind strictly older
//! producers.
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
use tp_trace::OperandRef;

impl TraceProcessor<'_> {
    /// What an in-flight re-dispatch pass still owes when a new recovery at
    /// `pivot` wants to replace it: the pending PEs at or before `pivot` in
    /// logical order, plus the old pass's walk position (its rolling
    /// history; `self.current_map` *is* the walk map at that position).
    ///
    /// A replacement pass that walks only from `pivot` forward would
    /// silently drop these — the older traces would commit live-in values
    /// renamed through a map chain that a previous repair already
    /// invalidated. `None` means the old pass (if any) owes nothing older:
    /// plain replacement is safe.
    pub(super) fn stale_walk_prefix(&self, pivot: usize) -> Option<(TraceHistory, Vec<usize>)> {
        let old = self.redispatch.as_ref()?;
        let pl = self.list.logical(pivot);
        let prefix: Vec<usize> = old
            .queue
            .iter()
            .copied()
            .filter(|&pe| {
                self.list.contains(pe) && self.pes[pe].occupied && self.list.logical(pe) <= pl
            })
            .collect();
        if prefix.is_empty() {
            return None;
        }
        Some((old.rolling.clone(), prefix))
    }

    /// If an in-flight pass owes rename walks at or before `pivot`
    /// ([`Self::stale_walk_prefix`]), installs a replacement pass that
    /// resumes from the old walk position and covers the debt, then
    /// `pivot` itself, then `suffix` — and returns `true`.
    /// `self.current_map` is left untouched in that case: the pass owns it
    /// while in flight, so the chain re-derives every map from the old
    /// position, including `pivot`'s own (whose `map_before` predates the
    /// older repair). Returns `false` when nothing is owed; the caller
    /// then starts its walk fresh from `pivot`'s map.
    pub(super) fn resume_walk_debt(
        &mut self,
        pivot: usize,
        suffix: Vec<usize>,
        origin: &'static str,
        attr: Option<AttrKey>,
    ) -> bool {
        let Some((rolling, mut queue)) = self.stale_walk_prefix(pivot) else { return false };
        if queue.last() != Some(&pivot) {
            queue.push(pivot);
        }
        queue.extend(suffix);
        self.redispatch = Some(RedispatchPass { queue: queue.into(), rolling, origin, attr });
        true
    }

    /// Restores the speculative fetch past to cover everything the active
    /// pass will walk (its rolling history plus every queued trace).
    fn restore_fetch_from_pass(&mut self) {
        let Some(pass) = &self.redispatch else { return };
        let rolling = pass.rolling.clone();
        let queue: Vec<usize> = pass.queue.iter().copied().collect();
        self.restore_fetch_past(&rolling, &queue);
    }

    /// Starts a re-dispatch pass over the given preserved traces (in logical
    /// order), which updates their live-in renames one trace per cycle.
    /// Replaces any pass already in flight, but never drops its debt: if
    /// the old pass still had pending traces at or before the repair
    /// point, the new pass resumes from the old walk position and covers
    /// them (and the repaired trace itself) before the preserved suffix.
    pub(super) fn begin_redispatch(
        &mut self,
        repaired_pe: usize,
        preserved: Vec<usize>,
        attr: Option<AttrKey>,
    ) {
        if self.resume_walk_debt(repaired_pe, preserved.clone(), "fgci", attr) {
            self.restore_fetch_from_pass();
            self.set_mode(FetchMode::Normal);
            return;
        }
        let mut rolling = self.pes[repaired_pe].hist_before.clone();
        rolling.push(self.pes[repaired_pe].trace.id());
        self.current_map = self.pes[repaired_pe].map_after;
        if preserved.is_empty() {
            self.redispatch = None;
            self.fetch_hist = rolling;
            self.expected = self.expected_after_pe(repaired_pe);
            self.set_mode(FetchMode::Normal);
            return;
        }
        self.restore_fetch_past(&rolling, &preserved);
        self.redispatch =
            Some(RedispatchPass { queue: preserved.into(), rolling, origin: "fgci", attr });
        self.set_mode(FetchMode::Normal);
    }

    /// Starts the CGCI re-dispatch pass: `preserved` traces re-rename from
    /// the map after `pred` (the last inserted control-dependent trace or
    /// the repaired trace itself), or from *retired* state when the whole
    /// control-dependent path committed before re-convergence was observed
    /// (`pred == None` — the preserved trace is then the window head).
    /// Like [`begin_redispatch`], an in-flight pass's pending older traces
    /// are carried over, not dropped.
    pub(super) fn begin_redispatch_from_map(
        &mut self,
        preserved: Vec<usize>,
        pred: Option<usize>,
        attr: Option<AttrKey>,
    ) {
        let Some(pred) = pred else {
            // No live predecessor: the pass chains from the committed
            // frontier. The preserved list spans the entire remaining
            // window, so any in-flight pass's unwalked traces are re-walked
            // from scratch here — no debt can be dropped.
            let rolling = self.retire_hist.clone();
            self.current_map = self.retired_map;
            self.restore_fetch_past(&rolling, &preserved);
            self.redispatch =
                Some(RedispatchPass { queue: preserved.into(), rolling, origin: "cgci", attr });
            return;
        };
        if self.resume_walk_debt(pred, preserved.clone(), "cgci", attr) {
            self.restore_fetch_from_pass();
            return;
        }
        let mut rolling = self.pes[pred].hist_before.clone();
        rolling.push(self.pes[pred].trace.id());
        self.current_map = self.pes[pred].map_after;
        self.restore_fetch_past(&rolling, &preserved);
        self.redispatch =
            Some(RedispatchPass { queue: preserved.into(), rolling, origin: "cgci", attr });
    }

    /// Restores the speculative fetch history and expectation to the end of
    /// the preserved suffix so fetch can run concurrently with the pass:
    /// `rolling` is the history up to (excluding) the first preserved
    /// trace; the preserved ids extend it to the window tail.
    fn restore_fetch_past(&mut self, rolling: &TraceHistory, preserved: &[usize]) {
        let mut h = rolling.clone();
        for &pe in preserved {
            h.push(self.pes[pe].trace.id());
        }
        self.fetch_hist = h;
        self.expected = self.expected_after_tail();
    }

    /// One step of a re-dispatch pass: update one preserved trace's live-in
    /// renames; only instructions with changed source names reissue.
    pub(super) fn redispatch_step(&mut self, ctx: &CycleCtx) {
        let (pe, mut rolling, empty_after, origin, attr) = {
            let Some(pass) = &mut self.redispatch else { return };
            let Some(pe) = pass.queue.pop_front() else {
                self.redispatch = None;
                return;
            };
            (pe, pass.rolling.clone(), pass.queue.is_empty(), pass.origin, pass.attr)
        };
        if !self.pes[pe].occupied || !self.list.contains(pe) {
            // Squashed while queued (e.g. tail reclamation): skip.
            if empty_after {
                self.redispatch = None;
            }
            return;
        }
        let map_before = self.current_map;
        let now = ctx.now;
        let trace = self.pes[pe].trace.clone();
        let mut new_readers: Vec<(PhysRegId, usize)> = Vec::new();
        let mut requeue: Vec<usize> = Vec::new();
        {
            let slots = &mut self.pes[pe].slots;
            for (i, slot) in slots.iter_mut().enumerate() {
                let mut changed = false;
                for (k, &(_, oref)) in slot.ti.srcs.iter().flatten().enumerate() {
                    if let OperandRef::LiveIn(r) = oref {
                        if r.is_zero() {
                            continue;
                        }
                        let new_preg = map_before[r.index()];
                        // A re-dispatch must never bind a slot to its own
                        // destination: live-outs keep their mappings, so the
                        // chain map can only hold strictly older registers.
                        assert!(
                            slot.global != Some(new_preg),
                            "redispatch({origin}) bound slot {i} of pe {pe} to its own destination"
                        );
                        if slot.srcs[k] != Some(Src::Global(new_preg)) {
                            slot.srcs[k] = Some(Src::Global(new_preg));
                            changed = true;
                            new_readers.push((new_preg, i));
                        }
                    }
                }
                if changed {
                    requeue.push(i);
                }
            }
        }
        for (preg, i) in new_readers {
            self.register_reader(preg, pe, i);
        }
        // Selective reissue re-enqueues exactly the re-dispatched consumers
        // whose source names changed — nothing else moved in this PE.
        for i in requeue {
            self.rebind_reissue_slot(pe, i, now + 1);
        }
        // Live-outs keep their global registers; the map is re-asserted.
        self.pes[pe].map_before = map_before;
        let map_after = Self::map_after(&trace, &self.pes[pe].slots, map_before);
        self.pes[pe].map_after = map_after;
        self.current_map = map_after;
        self.pes[pe].hist_before = rolling.clone();
        rolling.push(trace.id());
        self.books.redispatched(pe, trace.id().start(), attr);
        if empty_after {
            // Fetch state was restored at pass start (and fetch may have
            // advanced past it since); the pass just releases the bus.
            self.redispatch = None;
        } else if let Some(pass) = self.redispatch.as_mut() {
            pass.rolling = rolling;
        }
    }
}
