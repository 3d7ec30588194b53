//! The simple branch predictor: a tagless BTB with 2-bit counters.

use tp_isa::Pc;

/// A tagless branch target buffer with 2-bit saturating counters for
/// conditional branches and last-target storage for indirect branches.
///
/// The paper's configuration is 16K entries. Taglessness means distinct
/// branches may alias — a deliberate part of the model.
///
/// # Example
///
/// ```
/// use tp_predict::Btb;
/// let mut btb = Btb::new(16 * 1024);
/// // Counters start weakly taken.
/// assert!(btb.predict_cond(100));
/// btb.update_cond(100, false);
/// btb.update_cond(100, false);
/// assert!(!btb.predict_cond(100));
/// ```
#[derive(Clone, Debug)]
pub struct Btb {
    counters: Vec<u8>,
    targets: Vec<Option<Pc>>,
    mask: usize,
    stats: BtbStats,
}

/// A plain-data image of a BTB's trained state, for checkpointing.
///
/// Counters are stored densely (they are small and mostly non-default after
/// warming); indirect targets sparsely as `(index, target)` pairs. Produced
/// by [`Btb::image`], consumed by [`Btb::from_image`]; statistics are not
/// part of the image (a resumed run starts its own counts).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BtbImage {
    /// The 2-bit counter array, one byte per entry.
    pub counters: Vec<u8>,
    /// Trained indirect targets as `(entry index, target)` pairs.
    pub targets: Vec<(u32, Pc)>,
}

/// Prediction/update statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BtbStats {
    /// Conditional-branch outcome updates performed.
    pub cond_updates: u64,
    /// Conditional-branch updates where the counter had predicted wrongly.
    pub cond_mispredicts: u64,
}

impl Btb {
    /// Creates a BTB with `entries` entries (must be a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Btb {
        assert!(entries.is_power_of_two(), "BTB entries must be a power of two");
        Btb {
            counters: vec![2; entries], // weakly taken
            targets: vec![None; entries],
            mask: entries - 1,
            stats: BtbStats::default(),
        }
    }

    #[inline]
    fn index(&self, pc: Pc) -> usize {
        pc as usize & self.mask
    }

    /// Predicts the outcome of the conditional branch at `pc`.
    #[inline]
    pub fn predict_cond(&self, pc: Pc) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// Whether the counter for `pc` is in a *weak* (hovering) state.
    /// Loop-heavy consumers (`ntb` trace selection) treat a weak counter
    /// as uninformative: a loop-exit counter is retrained on every exit,
    /// so it hovers between the weak states and predicts near coin flips,
    /// while a saturated counter reflects a genuinely biased branch.
    #[inline]
    pub fn cond_is_weak(&self, pc: Pc) -> bool {
        matches!(self.counters[self.index(pc)], 1 | 2)
    }

    /// Trains the 2-bit counter for the branch at `pc` with the actual
    /// outcome.
    pub fn update_cond(&mut self, pc: Pc, taken: bool) {
        self.stats.cond_updates += 1;
        if self.predict_cond(pc) != taken {
            self.stats.cond_mispredicts += 1;
        }
        let c = &mut self.counters[pc as usize & self.mask];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Predicts the target of the indirect branch at `pc` (last target
    /// seen), or `None` if never trained.
    #[inline]
    pub fn predict_indirect(&self, pc: Pc) -> Option<Pc> {
        self.targets[self.index(pc)]
    }

    /// Records the actual target of the indirect branch at `pc`.
    pub fn update_indirect(&mut self, pc: Pc, target: Pc) {
        let i = self.index(pc);
        self.targets[i] = Some(target);
    }

    /// Whether replaying `updates` through [`Btb::update_cond`] would leave
    /// every counter unchanged: each update's counter already saturated in
    /// the update's direction. Checkpoint images carry counters but not
    /// statistics, so a saturated run is unobservable in captured state.
    pub fn cond_run_saturated(&self, updates: &[(Pc, bool)]) -> bool {
        updates
            .iter()
            .all(|&(pc, taken)| self.counters[self.index(pc)] == if taken { 3 } else { 0 })
    }

    /// Whether the indirect target trained for `pc` is already `target`
    /// (an [`Btb::update_indirect`] with it would be a no-op).
    pub fn indirect_is(&self, pc: Pc, target: Pc) -> bool {
        self.targets[self.index(pc)] == Some(target)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BtbStats {
        self.stats
    }

    /// Number of entries.
    pub fn entries(&self) -> usize {
        self.counters.len()
    }

    /// Captures the trained state as a plain-data [`BtbImage`].
    pub fn image(&self) -> BtbImage {
        BtbImage {
            counters: self.counters.clone(),
            targets: self
                .targets
                .iter()
                .enumerate()
                .filter_map(|(i, t)| t.map(|pc| (i as u32, pc)))
                .collect(),
        }
    }

    /// Creates a warmed BTB from an image (statistics start at zero).
    ///
    /// # Panics
    ///
    /// Panics if the image's entry count is not a power of two or a target
    /// index is out of range.
    pub fn from_image(image: &BtbImage) -> Btb {
        let mut btb = Btb::new(image.counters.len());
        btb.counters.copy_from_slice(&image.counters);
        for &(i, pc) in &image.targets {
            btb.targets[i as usize] = Some(pc);
        }
        btb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_saturate_both_directions() {
        let mut btb = Btb::new(16);
        for _ in 0..10 {
            btb.update_cond(3, true);
        }
        assert!(btb.predict_cond(3));
        for _ in 0..2 {
            btb.update_cond(3, false);
        }
        // From saturated taken (3), two not-taken updates reach 1: predict
        // not taken — classic 2-bit hysteresis.
        assert!(!btb.predict_cond(3));
        btb.update_cond(3, true);
        assert!(btb.predict_cond(3));
    }

    #[test]
    fn tagless_aliasing_shares_counters() {
        let mut btb = Btb::new(16);
        for _ in 0..4 {
            btb.update_cond(1, false);
        }
        // pc 17 aliases pc 1 in a 16-entry table.
        assert!(!btb.predict_cond(17));
    }

    #[test]
    fn indirect_targets_remember_last() {
        let mut btb = Btb::new(16);
        assert_eq!(btb.predict_indirect(5), None);
        btb.update_indirect(5, 100);
        assert_eq!(btb.predict_indirect(5), Some(100));
        btb.update_indirect(5, 200);
        assert_eq!(btb.predict_indirect(5), Some(200));
    }

    #[test]
    fn stats_count_mispredicts() {
        let mut btb = Btb::new(16);
        btb.update_cond(0, true); // initial weakly-taken: correct
        btb.update_cond(0, false); // predicted taken: mispredict
        assert_eq!(btb.stats().cond_updates, 2);
        assert_eq!(btb.stats().cond_mispredicts, 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Btb::new(12);
    }

    /// Tagless replacement of indirect targets: an aliasing branch
    /// overwrites the entry outright (last-writer-wins, no tag check), and
    /// the victim observes the alias's target afterwards.
    #[test]
    fn indirect_alias_replaces_target() {
        let mut btb = Btb::new(16);
        btb.update_indirect(2, 100);
        assert_eq!(btb.predict_indirect(2), Some(100));
        // pc 18 aliases pc 2 in a 16-entry table: replacement evicts the
        // old target for *both* PCs.
        btb.update_indirect(18, 200);
        assert_eq!(btb.predict_indirect(18), Some(200));
        assert_eq!(btb.predict_indirect(2), Some(200), "victim must see the replaced target");
        // Re-training the original pc replaces it back.
        btb.update_indirect(2, 100);
        assert_eq!(btb.predict_indirect(18), Some(100));
    }

    /// An image round-trip reproduces every prediction the source BTB would
    /// make, with statistics reset.
    #[test]
    fn image_roundtrip_preserves_predictions() {
        let mut btb = Btb::new(32);
        for _ in 0..3 {
            btb.update_cond(5, true);
            btb.update_cond(9, false);
        }
        btb.update_indirect(7, 123);
        let warm = Btb::from_image(&btb.image());
        for pc in 0..64u32 {
            assert_eq!(warm.predict_cond(pc), btb.predict_cond(pc), "pc {pc}");
            assert_eq!(warm.predict_indirect(pc), btb.predict_indirect(pc), "pc {pc}");
        }
        assert_eq!(warm.stats(), BtbStats::default());
        assert_eq!(warm.entries(), 32);
    }

    /// Conditional counters are replaced (retrained) by aliasing branches
    /// rather than duplicated: opposing-bias aliases fight over one
    /// counter, so neither can saturate.
    #[test]
    fn cond_alias_retrains_shared_counter() {
        let mut btb = Btb::new(8);
        // Saturate taken at pc 5.
        for _ in 0..4 {
            btb.update_cond(5, true);
        }
        assert!(btb.predict_cond(5));
        // Alias pc 13 trains strongly not-taken: the shared counter moves.
        for _ in 0..4 {
            btb.update_cond(13, false);
        }
        assert!(!btb.predict_cond(5), "alias retrained the shared counter");
        // Non-aliasing entries are untouched by the fight.
        assert!(btb.predict_cond(6), "fresh counters stay weakly taken");
    }
}
