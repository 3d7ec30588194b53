//! Pipeline stage 7: **buses** — shared cache buses, the ARB, and global
//! result buses.
//!
//! Implements the shared interconnect (§2) and the data-speculation side of
//! selective recovery (§5): cache-bus grants perform the actual memory
//! accesses — loads read the youngest older version from the address
//! resolution buffer (using the PE list's physical-to-logical translation
//! for memory ordering), stores insert speculative versions and *snoop*
//! every live load on the same word so that memory-order violations trigger
//! selective reissue rather than a squash. Result-bus grants make live-out
//! values globally visible to other PEs after the bypass latency. Both
//! arbiters are bounded per cycle and per PE, preserving request order.
//!
//! Both arbiters are event-driven: each queue carries a `next_due` horizon
//! (the earliest cycle anything in it could be granted), so idle cycles
//! skip the pass entirely, and a granting pass is a single in-place
//! `retain` sweep instead of a drain-and-requeue of the whole queue.
//! Store/undo snooping consults the wakeup index's per-word load registry
//! ([`WakeupIndex`](super::WakeupIndex) invariant 4) instead of rescanning
//! every slot of every PE.
//!
//! **Mutates:** the bus request queues and their horizons, slot state and
//! values, the ARB and data cache, physical-register global visibility,
//! the wakeup index (completion events, load registry, reissue wakeups),
//! and the snoop-reissue count in the books.

use super::*;
use crate::config::{
    BYPASS_LATENCY, CACHE_BUSES, CACHE_BUSES_PER_PE, LOAD_REISSUE_PENALTY, RESULT_BUSES,
    RESULT_BUSES_PER_PE,
};
use tp_events::BusChannel;
use tp_isa::{Addr, Inst};

impl TraceProcessor<'_> {
    pub(super) fn bus_stage(&mut self) {
        self.grant_buses(BusChannel::Cache);
        self.grant_buses(BusChannel::Result);
    }

    /// One arbiter pass over the ARB/data-cache buses, whose grants perform
    /// the memory access, or the global result buses, whose grants make a
    /// live-out globally visible. The two share this grant skeleton; only
    /// the limits, the request-validity predicate, and the grant action
    /// differ. The pass is a single in-place `retain` sweep over the queue,
    /// granting in request order up to the total and per-PE limits,
    /// dropping requests whose generation died, and recomputing the
    /// `next_due` horizon that lets idle cycles skip the pass entirely
    /// (`now + 1` whenever a grantable request was blocked by a limit).
    fn grant_buses(&mut self, kind: BusChannel) {
        let now = self.now();
        let horizon = match kind {
            BusChannel::Cache => self.cache_bus_next_due,
            BusChannel::Result => self.result_bus_next_due,
        };
        if horizon > now {
            return; // nothing could be granted this cycle
        }
        let (total_limit, per_pe_limit) = match kind {
            BusChannel::Cache => (CACHE_BUSES, CACHE_BUSES_PER_PE),
            BusChannel::Result => (RESULT_BUSES, RESULT_BUSES_PER_PE),
        };
        let mut granted_total = 0;
        let mut granted_per_pe = std::mem::take(&mut self.scratch_grants);
        granted_per_pe.clear();
        granted_per_pe.resize(self.cfg.num_pes, 0);
        let mut queue = match kind {
            BusChannel::Cache => std::mem::take(&mut self.cache_bus_queue),
            BusChannel::Result => std::mem::take(&mut self.result_bus_queue),
        };
        let waiting_at_start = queue.len();
        // Grant actions may (now or in the future) push *new* requests via
        // push_cache_req/push_result_req while the queue is taken out;
        // resetting the live horizon here and merging it back below keeps
        // such pushes — and their horizon updates — from being lost when
        // the swept queue is restored.
        match kind {
            BusChannel::Cache => self.cache_bus_next_due = u64::MAX,
            BusChannel::Result => self.result_bus_next_due = u64::MAX,
        }
        let mut next_due = u64::MAX;
        queue.retain(|&req| {
            if granted_total >= total_limit {
                // Buses exhausted: keep the tail untouched, retry next cycle.
                next_due = next_due.min(now + 1);
                return true;
            }
            let valid = {
                let p = &self.pes[req.pe];
                let live = p.occupied && p.gen == req.gen && req.slot < p.slots.len();
                live && match kind {
                    BusChannel::Cache => {
                        matches!(p.slots[req.slot].state, SlotState::WaitingBus { .. })
                            && self.list.contains(req.pe)
                    }
                    BusChannel::Result => p.trace.is_live_out(req.slot),
                }
            };
            if !valid {
                return false; // dropped (squashed or replaced)
            }
            if req.since > now {
                next_due = next_due.min(req.since);
                return true;
            }
            if granted_per_pe[req.pe] >= per_pe_limit as u32 {
                next_due = next_due.min(now + 1);
                return true;
            }
            granted_total += 1;
            granted_per_pe[req.pe] += 1;
            match kind {
                BusChannel::Cache => self.perform_mem_access(req.pe, req.slot),
                BusChannel::Result => {
                    let slot = &self.pes[req.pe].slots[req.slot];
                    let dest = slot.global().expect("a live-out has a global register");
                    let r = self.pregs.get_mut(dest);
                    if r.ready && r.global_ready_at == u64::MAX {
                        r.global_ready_at = now + BYPASS_LATENCY;
                    }
                }
            }
            false
        });
        match kind {
            BusChannel::Cache => {
                queue.append(&mut self.cache_bus_queue); // mid-pass pushes, if any
                self.cache_bus_queue = queue;
                self.cache_bus_next_due = self.cache_bus_next_due.min(next_due);
            }
            BusChannel::Result => {
                queue.append(&mut self.result_bus_queue);
                self.result_bus_queue = queue;
                self.result_bus_next_due = self.result_bus_next_due.min(next_due);
            }
        }
        self.scratch_grants = granted_per_pe;
        self.books.bus_arbitrated(kind, waiting_at_start, granted_total);
    }

    fn perform_mem_access(&mut self, pe: usize, slot: usize) {
        let now = self.now();
        let h = Self::handle(pe, slot);
        let (inst, ea, data) = {
            let p = &self.pes[pe];
            let ea = p.side(slot).indirect_target.expect("agen ran") as Addr;
            (p.inst(slot).inst, ea, p.slots[slot].value)
        };
        match inst {
            Inst::Load { .. } => {
                let latency = self.dcache.access(ea);
                // Split field borrows: the ARB is mutated while the logical
                // order comes from the PE list.
                let list = &self.list;
                let result = self.arb.load(ea, h, |sh: SeqHandle| {
                    let pe = (sh.0 >> 8) as usize;
                    if !list.contains(pe) {
                        // A version whose owner left the window cannot be
                        // architectural (commit removes versions), so it
                        // must never win forwarding: rank it younger than
                        // every live access. The `Full` ARB sweep proves
                        // this is unreachable; keep it safe, not oldest.
                        return u64::MAX;
                    }
                    ((list.logical(pe) + 1) << 8) | (sh.0 & 0xff)
                });
                let done_at = now + latency as u64;
                {
                    let p = &mut self.pes[pe];
                    let side = p.side_mut(slot);
                    side.load_src = result.source.map(|sh| sh.0);
                    side.mem_addr = Some(ea);
                    let s = &mut p.slots[slot];
                    s.value = result.value;
                    s.state = SlotState::MemAccess { done_at };
                }
                self.note_inflight(pe, slot, done_at);
                self.note_load_sampled(pe, slot, ea);
            }
            Inst::Store { .. } => {
                let _ = self.dcache.access(ea);
                let (old_performed, old_addr) = {
                    let side = self.pes[pe].side(slot);
                    (side.store_performed, side.mem_addr)
                };
                // A reissued store that moved must undo its old version.
                // The undo snoop must NOT skip this store's own PE: the PE
                // is alive, and a program-order-later load in the same
                // trace may have forwarded from the dying version (same-PE
                // skipping is only sound on squash paths, where every
                // same-PE slot dies with the store).
                if old_performed {
                    if let Some(old) = old_addr {
                        if old >> 3 != ea >> 3 {
                            self.arb.undo(old, h);
                            self.snoop_undo(old, h, usize::MAX);
                        }
                    }
                }
                self.arb.store(ea, h, data);
                let done_at = now + 1;
                {
                    let p = &mut self.pes[pe];
                    let side = p.side_mut(slot);
                    side.store_performed = true;
                    side.mem_addr = Some(ea);
                    p.slots[slot].state = SlotState::MemAccess { done_at };
                }
                self.note_inflight(pe, slot, done_at);
                self.snoop_store(ea, h);
            }
            _ => unreachable!("only memory ops use cache buses"),
        }
    }

    /// A committed store *is* architectural memory: every live load that
    /// recorded it as its forwarding source must stop naming it. The
    /// sequence handle encodes only `(pe, slot)`, so once the store's PE is
    /// recycled by a younger trace the handle starts ranking as *young* in
    /// `seq_key` — and a later snoop by a genuinely-older store would
    /// conclude the load's source is younger and wrongly skip the reissue
    /// (committed-path loads then retire stale forwarded values).
    pub(super) fn demote_committed_source(&mut self, addr: Addr, store_h: SeqHandle) {
        let word = addr >> 3;
        let Some(entries) = self.wakeup.loads_by_word.get(&word) else { return };
        let pes = &mut self.pes;
        for r in entries.as_slice() {
            if r.live(pes).is_some() && pes[r.pe()].side(r.slot()).load_src == Some(store_h.0) {
                pes[r.pe()].side_mut(r.slot()).load_src = None;
            }
        }
    }

    /// Loads snoop store traffic: a load must reissue if the store is
    /// program-order earlier than the load but later than the load's data
    /// source, or if it *is* the load's data source (the ARB has already
    /// been updated; the value it supplied may differ, so conservatively
    /// reissue). Only loads that already sampled memory can be victims.
    fn snoop_store(&mut self, addr: Addr, store_h: SeqHandle) {
        let store_key = self.seq_key(store_h);
        self.snoop(addr, |sim, r, s| {
            if !matches!(s.state, SlotState::MemAccess { .. } | SlotState::Done)
                || store_key >= sim.seq_key(Self::handle(r.pe(), r.slot()))
            {
                return false; // not yet sampled, or the store is later
            }
            match sim.pes[r.pe()].side(r.slot()).load_src {
                Some(src) if src == store_h.0 => true,
                Some(src) => sim.seq_key(SeqHandle(src)) < store_key,
                None => true, // loaded from architectural memory
            }
        });
    }

    /// Loads snoop store-undo traffic: any load whose data came from the
    /// undone store must reissue, except those in `skip_pe`.
    pub(super) fn snoop_undo(&mut self, addr: Addr, store_h: SeqHandle, skip_pe: usize) {
        self.snoop(addr, |sim, r, _| {
            r.pe() != skip_pe && sim.pes[r.pe()].side(r.slot()).load_src == Some(store_h.0)
        });
    }

    /// The snoop walk: visits every live load registered on `addr`'s word
    /// (the per-word load registry, not a window rescan), drops the stale
    /// entries, and reissues each load `victim` picks.
    fn snoop(&mut self, addr: Addr, mut victim: impl FnMut(&Self, SlotRef, &Slot) -> bool) {
        let word = addr >> 3;
        let Some(mut entries) = self.wakeup.loads_by_word.remove(&word) else { return };
        let mut reissues = std::mem::take(&mut self.scratch_refs);
        reissues.clear();
        let before = entries.len();
        entries.retain(|r| {
            let Some(s) = live_load(&self.pes, &self.list, r, word) else { return false };
            if victim(self, r, s) {
                reissues.push(r);
            }
            true
        });
        self.load_count -= before - entries.len();
        if entries.is_empty() {
            entries.recycle(&mut self.wakeup.spare_buckets);
        } else {
            self.wakeup.loads_by_word.insert(word, entries);
        }
        self.books.load_snoop_reissued(reissues.len() as u64);
        let at = self.now() + LOAD_REISSUE_PENALTY;
        for &r in &reissues {
            self.mark_reissue_slot(r.pe(), r.slot(), at);
        }
        self.scratch_refs = reissues;
    }
}
