//! The trace cache.

use std::sync::Arc;

use tp_trace::{Trace, TraceId};

/// Hit/miss statistics for the trace cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Fills performed (including replacing an existing line).
    pub fills: u64,
}

#[derive(Clone, Debug)]
struct Line {
    id: TraceId,
    trace: Arc<Trace>,
    lru: u64,
}

/// The trace cache: low-latency, high-bandwidth storage of pre-renamed
/// traces, indexed and tagged by full [`TraceId`] (starting PC plus embedded
/// branch outcomes — path associativity).
///
/// The paper's configuration is 128 kB, 4-way, LRU, with 32-instruction
/// lines: 1024 trace lines as 256 sets of 4.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use tp_cache::TraceCache;
/// use tp_trace::{EndReason, Trace, TraceId};
/// use tp_isa::Inst;
///
/// let id = TraceId::new(0, 0, 0);
/// let trace = Arc::new(Trace::assemble(id, &[(0, Inst::Halt, None, false)], EndReason::Halt, None));
/// let mut tc = TraceCache::new(256, 4);
/// assert!(tc.lookup(id).is_none());
/// tc.fill(trace.clone());
/// assert!(tc.lookup(id).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct TraceCache {
    sets: Vec<Vec<Line>>,
    ways: usize,
    tick: u64,
    stats: TraceCacheStats,
}

impl TraceCache {
    /// Creates a trace cache with `sets` sets (power of two) of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> TraceCache {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways > 0, "associativity must be non-zero");
        TraceCache {
            sets: vec![Vec::new(); sets],
            ways,
            tick: 0,
            stats: TraceCacheStats::default(),
        }
    }

    fn set_index(&self, id: TraceId) -> usize {
        (id.hash64() & (self.sets.len() as u64 - 1)) as usize
    }

    /// Looks up a trace by id, updating LRU and statistics.
    pub fn lookup(&mut self, id: TraceId) -> Option<Arc<Trace>> {
        self.tick += 1;
        self.stats.lookups += 1;
        let tick = self.tick;
        let set = self.set_index(id);
        if let Some(line) = self.sets[set].iter_mut().find(|l| l.id == id) {
            line.lru = tick;
            return Some(line.trace.clone());
        }
        self.stats.misses += 1;
        None
    }

    /// The cached trace with this id, if any, without updating LRU or
    /// statistics. Trace repair and trace construction look here for the
    /// trace their selection walk chose ([`tp_trace::Walk::matches`]), and
    /// assemble a new one only when the cache holds none: every repaired
    /// and every constructed trace is filled here, so the cache is where
    /// they find the traces already assembled.
    pub fn peek(&self, id: TraceId) -> Option<&Arc<Trace>> {
        let set = self.set_index(id);
        self.sets[set].iter().find(|l| l.id == id).map(|l| &l.trace)
    }

    /// Fills a trace, evicting the set's LRU line when full. Re-filling an
    /// existing id replaces its trace in place.
    pub fn fill(&mut self, trace: Arc<Trace>) {
        self.tick += 1;
        self.stats.fills += 1;
        let tick = self.tick;
        let ways = self.ways;
        let id = trace.id();
        let set = self.set_index(id);
        let set = &mut self.sets[set];
        if let Some(line) = set.iter_mut().find(|l| l.id == id) {
            line.trace = trace;
            line.lru = tick;
            return;
        }
        if set.len() >= ways {
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .map(|(i, _)| i)
                .expect("set non-empty");
            set.swap_remove(victim);
        }
        set.push(Line { id, trace, lru: tick });
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TraceCacheStats {
        self.stats
    }

    /// The cache geometry as `(sets, ways)`.
    pub fn geometry(&self) -> (usize, usize) {
        (self.sets.len(), self.ways)
    }

    /// Every cached trace in global least-recently-used-first order
    /// (checkpoint capture: re-filling a fresh cache in this order
    /// reproduces the relative LRU ranking within every set).
    pub fn lines_lru(&self) -> Vec<Arc<Trace>> {
        let mut lines: Vec<(&Line, u64)> = self.sets.iter().flatten().map(|l| (l, l.lru)).collect();
        lines.sort_by_key(|&(_, lru)| lru);
        lines.into_iter().map(|(l, _)| l.trace.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_isa::Inst;
    use tp_trace::EndReason;

    fn trace(start: u32, mask: u32, branches: u8) -> Arc<Trace> {
        let id = TraceId::new(start, mask, branches);
        Arc::new(Trace::assemble(
            id,
            &[(start, Inst::Nop, None, false)],
            EndReason::MaxLen,
            Some(start + 1),
        ))
    }

    #[test]
    fn miss_fill_hit() {
        let mut tc = TraceCache::new(8, 2);
        let t = trace(5, 0, 0);
        assert!(tc.lookup(t.id()).is_none());
        tc.fill(t.clone());
        let got = tc.lookup(t.id()).unwrap();
        assert_eq!(got.id(), t.id());
        assert_eq!(tc.stats().lookups, 2);
        assert_eq!(tc.stats().misses, 1);
        assert_eq!(tc.stats().fills, 1);
    }

    #[test]
    fn path_associativity_distinguishes_same_start() {
        // Two traces with the same start PC but different branch outcomes
        // coexist (path associativity).
        let mut tc = TraceCache::new(256, 4);
        let a = trace(10, 0b0, 1);
        let b = trace(10, 0b1, 1);
        tc.fill(a.clone());
        tc.fill(b.clone());
        assert!(tc.lookup(a.id()).is_some());
        assert!(tc.lookup(b.id()).is_some());
    }

    #[test]
    fn refill_replaces_in_place() {
        let mut tc = TraceCache::new(8, 2);
        let t1 = trace(3, 0, 0);
        tc.fill(t1.clone());
        tc.fill(t1.clone());
        assert_eq!(tc.stats().fills, 2);
        assert!(tc.lookup(t1.id()).is_some());
    }

    #[test]
    fn peek_is_side_effect_free() {
        let mut tc = TraceCache::new(1, 2);
        let (a, b) = (trace(1, 0, 0), trace(2, 0, 0));
        tc.fill(a.clone());
        tc.fill(b.clone());
        let before = tc.stats();
        assert!(Arc::ptr_eq(tc.peek(a.id()).unwrap(), &a));
        assert!(tc.peek(TraceId::new(3, 0, 0)).is_none());
        assert_eq!(tc.stats(), before);
        // Peeking at `a` did not make it most recently used: it is still
        // the victim.
        tc.fill(trace(3, 0, 0));
        assert!(tc.peek(a.id()).is_none());
        assert!(tc.peek(b.id()).is_some());
    }

    /// Re-filling a fresh cache from `lines_lru` order reproduces the
    /// source cache's eviction behaviour: the same victim goes first.
    #[test]
    fn lines_lru_roundtrip_preserves_replacement_order() {
        let mut tc = TraceCache::new(1, 2);
        let (a, b) = (trace(1, 0, 0), trace(2, 0, 0));
        tc.fill(a.clone());
        tc.fill(b.clone());
        let _ = tc.lookup(a.id()); // b becomes LRU
        let lines = tc.lines_lru();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].id(), b.id(), "LRU line first");
        let mut warm = TraceCache::new(1, 2);
        for t in lines {
            warm.fill(t);
        }
        warm.fill(trace(3, 0, 0)); // evicts the same victim (b)
        assert!(warm.peek(a.id()).is_some());
        assert!(warm.peek(b.id()).is_none());
        assert_eq!(warm.geometry(), (1, 2));
    }

    #[test]
    fn eviction_prefers_lru() {
        // Force traces into one set by brute-force search for colliding ids.
        let mut tc = TraceCache::new(1, 2); // single set: everything collides
        let a = trace(1, 0, 0);
        let b = trace(2, 0, 0);
        let c = trace(3, 0, 0);
        tc.fill(a.clone());
        tc.fill(b.clone());
        assert!(tc.lookup(a.id()).is_some()); // b becomes LRU
        tc.fill(c.clone());
        assert!(tc.peek(a.id()).is_some());
        assert!(tc.peek(b.id()).is_none());
        assert!(tc.peek(c.id()).is_some());
    }
}
