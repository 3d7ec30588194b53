//! A gshare-style two-level branch predictor.
//!
//! Used by the Table 5 profiling harness: the paper measured its branch
//! statistics with real history-based predictors (trace predictions embed
//! implicit branch history), and a plain per-PC 2-bit table grossly
//! overstates mispredictions for periodic branch patterns. Gshare XORs a
//! global outcome history into the table index, capturing exactly those
//! patterns.

use tp_isa::Pc;

/// A gshare predictor: 2-bit counters indexed by `pc XOR global history`.
///
/// # Example
///
/// ```
/// use tp_predict::Gshare;
/// let mut g = Gshare::new(1 << 14, 12);
/// // An alternating branch becomes perfectly predictable with history.
/// for i in 0..64 {
///     g.update(10, i % 2 == 0);
/// }
/// let p1 = g.predict(10);
/// g.update(10, p1); // keep the pattern going
/// ```
#[derive(Clone, Debug)]
pub struct Gshare {
    counters: Vec<u8>,
    mask: u64,
    history: u64,
    history_mask: u64,
}

impl Gshare {
    /// Creates a predictor with `entries` 2-bit counters (power of two) and
    /// `history_bits` bits of global history.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `history_bits > 32`.
    pub fn new(entries: usize, history_bits: u32) -> Gshare {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        assert!(history_bits <= 32, "history too deep");
        Gshare {
            counters: vec![2; entries],
            mask: entries as u64 - 1,
            history: 0,
            history_mask: (1u64 << history_bits) - 1,
        }
    }

    /// A 16K-entry, 12-bit-history configuration comparable to the paper's
    /// predictor budget.
    pub fn paper() -> Gshare {
        Gshare::new(16 * 1024, 12)
    }

    #[inline]
    fn index(&self, pc: Pc) -> usize {
        ((pc as u64 ^ (self.history & self.history_mask)) & self.mask) as usize
    }

    /// Predicts the branch at `pc` under the current global history.
    #[inline]
    pub fn predict(&self, pc: Pc) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// Trains with the actual outcome and shifts the global history.
    pub fn update(&mut self, pc: Pc, taken: bool) {
        let i = self.index(pc);
        let c = &mut self.counters[i];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.history = (self.history << 1) | taken as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_periodic_patterns() {
        let mut g = Gshare::new(1 << 14, 12);
        // Period-16 pattern a 2-bit table cannot learn.
        let pattern = [
            true, true, false, true, false, false, true, true, false, true, true, true, false,
            false, true, false,
        ];
        let mut misp = 0;
        for i in 0..3200 {
            let t = pattern[i % 16];
            if g.predict(100) != t && i > 320 {
                misp += 1;
            }
            g.update(100, t);
        }
        assert!(misp < 100, "gshare failed to learn the pattern: {misp}");
    }

    #[test]
    fn random_branches_stay_hard() {
        let mut g = Gshare::paper();
        let mut x: u64 = 12345;
        let mut misp = 0;
        for _ in 0..4000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let t = (x >> 40) & 1 == 1;
            if g.predict(7) != t {
                misp += 1;
            }
            g.update(7, t);
        }
        assert!(misp > 1200, "random branches should stay near 50%: {misp}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = Gshare::new(100, 8);
    }

    /// Two PCs that collide modulo the table size share a counter when the
    /// global history is identical — gshare is deliberately tagless, and
    /// destructive aliasing is part of the model.
    #[test]
    fn index_aliasing_shares_counters() {
        let entries = 16;
        let mut g = Gshare::new(entries, 4);
        // Saturate "not taken" at pc 3 with an all-zero history (train an
        // aliasing pc in lockstep so the history stays identical: updates
        // shift in the outcome regardless of pc).
        for _ in 0..4 {
            g.update(3, false);
            g.update(3 + entries as u32, false);
        }
        // Same (all-false) history, aliasing pc: same counter, same
        // prediction.
        assert_eq!(g.predict(3), g.predict(3 + entries as u32));
        assert!(!g.predict(3 + entries as u32), "alias must see the trained counter");
        // A pc with a different low index is unaffected (fresh counter
        // starts weakly taken).
        assert!(g.predict(4));
    }

    /// Outcomes older than `history_bits` fall off the register: after any
    /// prehistory, feeding the same `history_bits`-long tail of outcomes
    /// yields the same table index as a fresh predictor that saw only the
    /// tail — prehistory can never influence the indexed counter.
    #[test]
    fn history_wraps_beyond_configured_bits() {
        let bits = 6u32;
        let mut seen_prehistory = Gshare::new(1 << 10, bits);
        // Divergent prehistory, much longer than the 6-bit register.
        for i in 0..64 {
            seen_prehistory.update(500, i % 3 == 0);
        }
        let mut fresh = Gshare::new(1 << 10, bits);
        // Identical tail, exactly filling the masked history window.
        let tail = [true, false, false, true, true, true];
        assert_eq!(tail.len(), bits as usize);
        for &t in &tail {
            seen_prehistory.update(500, t);
            fresh.update(500, t);
        }
        for pc in [0u32, 7, 500, 1023] {
            assert_eq!(
                seen_prehistory.index(pc),
                fresh.index(pc),
                "pc {pc}: index depends on outcomes older than {bits} bits"
            );
        }
        // The register does shift: one more outcome changes the index of a
        // pc whose low bits it flips.
        let before = fresh.index(500);
        fresh.update(500, true);
        assert_ne!(before, fresh.index(500), "history register does not shift");
    }
}
