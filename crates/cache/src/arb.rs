//! The address resolution buffer (ARB) — speculative memory versions.
//!
//! A variant of Franklin & Sohi's ARB sits in front of the data cache and
//! keeps *speculative versions* per memory word, ordered by sequence number
//! (program order). Loads issue speculatively — possibly before earlier
//! stores — and receive the latest program-order-earlier version together
//! with its sequence number, so the core can later detect that a load read
//! the wrong version (by snooping store traffic) and selectively reissue it.
//!
//! Ordering is *dynamic* in a trace processor with CGCI: the logical order
//! of processing elements changes as traces are inserted and removed from
//! the middle of the window, so the ARB never interprets sequence handles
//! itself — every query supplies a key function that maps a handle to its
//! current logical position (the paper consults the linked-list control
//! structure for exactly this translation).

use std::collections::BTreeMap;

use tp_isa::fxhash::FxHashMap;
use tp_isa::mem::PagedMem;
use tp_isa::{Addr, Word};

/// An opaque sequence handle identifying one memory instruction in the
/// window (the core encodes processing element and trace slot).
///
/// Handles compare *by identity*; their program order is defined only by
/// the key function supplied to [`Arb::load`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SeqHandle(pub u64);

/// The value a load received and where it came from, returned by
/// [`Arb::load`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadResult {
    /// The loaded value.
    pub value: Word,
    /// The sequence handle of the store that produced the value, or `None`
    /// when the value came from architectural (committed) memory.
    pub source: Option<SeqHandle>,
}

#[derive(Clone, Copy, Debug)]
struct Version {
    handle: SeqHandle,
    value: Word,
}

/// The address resolution buffer plus the architectural memory backing it.
///
/// The backing is a [`PagedMem`] whose marks record every word committed
/// since the ARB was created ([`Arb::committed_since_boot`]) — the delta a
/// detailed interval hands back to a functional machine. A processor's
/// backing shares its program's data image copy-on-write, so it holds only
/// the pages the boot delta and the commits wrote.
///
/// # Example
///
/// ```
/// use tp_cache::{Arb, SeqHandle};
///
/// let mut arb = Arb::new([(0x100, 7)]);
/// // A store at sequence 5 creates a speculative version.
/// arb.store(0x100, SeqHandle(5), 42);
/// // A later load (sequence 9) sees the speculative version...
/// let r = arb.load(0x100, SeqHandle(9), |h| h.0);
/// assert_eq!((r.value, r.source), (42, Some(SeqHandle(5))));
/// // ...but an earlier load (sequence 3) sees architectural memory.
/// let r = arb.load(0x100, SeqHandle(3), |h| h.0);
/// assert_eq!((r.value, r.source), (7, None));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Arb {
    versions: FxHashMap<u64, Vec<Version>>,
    /// Emptied version lists, reused for the next newly written word so a
    /// warm ARB stops allocating. Each list keeps its versions' order, so
    /// recycling is invisible to readers.
    spare: Vec<Vec<Version>>,
    backing: PagedMem,
}

impl Arb {
    /// Creates an ARB whose architectural memory is initialized from
    /// `(byte address, word)` pairs.
    pub fn new(data: impl IntoIterator<Item = (Addr, Word)>) -> Arb {
        let mut backing = PagedMem::default();
        for (addr, w) in data {
            backing.set(addr >> 3, w, false);
        }
        Arb::with_backing(backing)
    }

    /// Creates an ARB over an already-built architectural memory (its
    /// marks, normally none, count as committed since boot).
    pub fn with_backing(backing: PagedMem) -> Arb {
        Arb { versions: FxHashMap::default(), spare: Vec::new(), backing }
    }

    /// Inserts (or, for a reissued store, replaces) the speculative version
    /// written by `handle` at `addr`.
    pub fn store(&mut self, addr: Addr, handle: SeqHandle, value: Word) {
        let spare = &mut self.spare;
        let list =
            self.versions.entry(addr >> 3).or_insert_with(|| spare.pop().unwrap_or_default());
        if let Some(v) = list.iter_mut().find(|v| v.handle == handle) {
            v.value = value;
        } else {
            list.push(Version { handle, value });
        }
    }

    /// Removes the speculative version written by `handle` at `addr`
    /// (store undo). A no-op if the version does not exist.
    pub fn undo(&mut self, addr: Addr, handle: SeqHandle) {
        if let Some(list) = self.versions.get_mut(&(addr >> 3)) {
            list.retain(|v| v.handle != handle);
            if list.is_empty() {
                self.retire_list(addr >> 3);
            }
        }
    }

    /// Performs a speculative load for `handle` at `addr`.
    ///
    /// `key` maps a handle to its current logical position; the load
    /// receives the version with the greatest key strictly less than its
    /// own, falling back to architectural memory.
    pub fn load(
        &mut self,
        addr: Addr,
        handle: SeqHandle,
        key: impl Fn(SeqHandle) -> u64,
    ) -> LoadResult {
        let my_key = key(handle);
        let best = self
            .versions
            .get(&(addr >> 3))
            .into_iter()
            .flatten()
            .filter(|v| key(v.handle) < my_key)
            .max_by_key(|v| key(v.handle));
        match best {
            Some(v) => LoadResult { value: v.value, source: Some(v.handle) },
            None => LoadResult { value: self.backing.load(addr >> 3), source: None },
        }
    }

    /// Commits the speculative version written by `handle` at `addr` to
    /// architectural memory and removes it from the speculative buffer.
    ///
    /// # Panics
    ///
    /// Panics if the version does not exist (retirement must only commit
    /// stores that performed).
    pub fn commit(&mut self, addr: Addr, handle: SeqHandle) {
        let word = addr >> 3;
        let list = self.versions.get_mut(&word).expect("commit of unknown store address");
        let idx =
            list.iter().position(|v| v.handle == handle).expect("commit of unknown store version");
        let v = list.swap_remove(idx);
        if list.is_empty() {
            self.retire_list(word);
        }
        self.backing.set(word, v.value, true);
    }

    /// Removes `word`'s emptied version list, keeping its storage.
    fn retire_list(&mut self, word: u64) {
        if let Some(list) = self.versions.remove(&word) {
            self.spare.push(list);
        }
    }

    /// Reads architectural memory (committed state only).
    pub fn backing_word(&self, addr: Addr) -> Word {
        self.backing.peek(addr >> 3)
    }

    /// Normalized snapshot of architectural memory: non-zero words keyed by
    /// word index, comparable with
    /// [`ArchState::mem`](tp_isa::func::ArchState).
    pub fn arch_mem(&self) -> BTreeMap<u64, Word> {
        self.backing.touched().filter(|&(_, w)| w != 0).collect()
    }

    /// The full committed memory image as `(word index, value)` pairs,
    /// *including* words holding zero. Checkpoint capture must use this,
    /// not [`Arb::arch_mem`]: a committed store of zero over non-zero
    /// initial data is real state that normalization would hide, and a
    /// resume built from the normalized view would resurrect the initial
    /// value.
    pub fn backing_words(&self) -> impl Iterator<Item = (u64, Word)> + '_ {
        self.backing.touched()
    }

    /// Every word committed since the ARB was created, once each with its
    /// last committed value, as ascending `(word index, value)` pairs.
    /// Words committed back to their boot value are included: this is the
    /// set of words written, not the set that changed.
    pub fn committed_since_boot(&self) -> impl Iterator<Item = (u64, Word)> + '_ {
        self.backing.marked()
    }

    /// Number of speculative versions currently buffered (all addresses).
    pub fn speculative_versions(&self) -> usize {
        self.versions.values().map(Vec::len).sum()
    }

    /// Iterates over the handles of all speculative versions at `addr`.
    pub fn versions_at(&self, addr: Addr) -> impl Iterator<Item = SeqHandle> + '_ {
        self.versions.get(&(addr >> 3)).into_iter().flatten().map(|v| v.handle)
    }

    /// Iterates over every speculative version as `(word index, handle)` —
    /// the coherence checker walks this to prove no version outlives its
    /// window slot.
    pub fn all_versions(&self) -> impl Iterator<Item = (u64, SeqHandle)> + '_ {
        self.versions.iter().flat_map(|(&w, list)| list.iter().map(move |v| (w, v.handle)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(h: SeqHandle) -> u64 {
        h.0
    }

    #[test]
    fn load_sees_latest_earlier_version() {
        let mut arb = Arb::new([]);
        arb.store(0x80, SeqHandle(2), 20);
        arb.store(0x80, SeqHandle(6), 60);
        arb.store(0x80, SeqHandle(9), 90);
        let r = arb.load(0x80, SeqHandle(7), k);
        assert_eq!(r, LoadResult { value: 60, source: Some(SeqHandle(6)) });
        let r = arb.load(0x80, SeqHandle(100), k);
        assert_eq!(r.value, 90);
        let r = arb.load(0x80, SeqHandle(1), k);
        assert_eq!(r, LoadResult { value: 0, source: None });
    }

    #[test]
    fn store_undo_restores_previous_view() {
        let mut arb = Arb::new([(0x40, 5)]);
        arb.store(0x40, SeqHandle(3), 33);
        assert_eq!(arb.load(0x40, SeqHandle(10), k).value, 33);
        arb.undo(0x40, SeqHandle(3));
        assert_eq!(arb.load(0x40, SeqHandle(10), k).value, 5);
        // Undo of a non-existent version is a no-op.
        arb.undo(0x40, SeqHandle(3));
        assert_eq!(arb.speculative_versions(), 0);
    }

    #[test]
    fn reissued_store_replaces_value_in_place() {
        let mut arb = Arb::new([]);
        arb.store(0x10, SeqHandle(4), 1);
        arb.store(0x10, SeqHandle(4), 2);
        assert_eq!(arb.speculative_versions(), 1);
        assert_eq!(arb.load(0x10, SeqHandle(9), k).value, 2);
    }

    #[test]
    fn commit_moves_value_to_backing() {
        let mut arb = Arb::new([]);
        arb.store(0x20, SeqHandle(1), 11);
        arb.commit(0x20, SeqHandle(1));
        assert_eq!(arb.speculative_versions(), 0);
        assert_eq!(arb.backing_word(0x20), 11);
        // An early load now sees committed state.
        assert_eq!(arb.load(0x20, SeqHandle(0), k).value, 11);
    }

    #[test]
    #[should_panic(expected = "commit of unknown store")]
    fn commit_of_missing_version_panics() {
        let mut arb = Arb::new([]);
        arb.commit(0x20, SeqHandle(1));
    }

    #[test]
    fn dynamic_reordering_respects_key_function() {
        // Two versions whose *handle* order and *logical* order differ —
        // as happens after CGCI inserts traces in the middle of the window.
        let mut arb = Arb::new([]);
        arb.store(0x8, SeqHandle(100), 1); // logically late
        arb.store(0x8, SeqHandle(200), 2); // logically early
        let order = |h: SeqHandle| if h.0 == 100 { 50u64 } else { 10u64 };
        let r = arb.load(0x8, SeqHandle(300), |h| if h.0 == 300 { 40 } else { order(h) });
        // With the custom order, version 200 (key 10) is the only one
        // earlier than the load (key 40)... version 100 has key 50 > 40.
        assert_eq!(r, LoadResult { value: 2, source: Some(SeqHandle(200)) });
    }

    #[test]
    fn unaligned_addresses_share_words() {
        let mut arb = Arb::new([]);
        arb.store(0x101, SeqHandle(1), 9);
        assert_eq!(arb.load(0x107, SeqHandle(2), k).value, 9);
        assert_eq!(arb.load(0x108, SeqHandle(2), k).value, 0);
    }

    #[test]
    fn arch_mem_omits_zero_words() {
        let mut arb = Arb::new([(0x0, 3)]);
        arb.store(0x0, SeqHandle(1), 0);
        arb.commit(0x0, SeqHandle(1));
        assert!(arb.arch_mem().is_empty());
    }

    /// A committed zero over non-zero boot data: `arch_mem` drops the word,
    /// `backing_words` keeps it (with its zero), and a never-written zero
    /// boot word stays in `backing_words` but is not committed.
    #[test]
    fn backing_words_keep_zero_words_that_arch_mem_drops() {
        let mut arb = Arb::new([(0x0, 3), (0x8, 0), (0x10, 5)]);
        arb.store(0x0, SeqHandle(1), 0);
        arb.commit(0x0, SeqHandle(1));
        let mut words: Vec<_> = arb.backing_words().collect();
        words.sort_unstable();
        assert_eq!(words, vec![(0, 0), (1, 0), (2, 5)]);
        assert_eq!(arb.arch_mem().into_iter().collect::<Vec<_>>(), vec![(2, 5)]);
        assert_eq!(arb.committed_since_boot().collect::<Vec<_>>(), vec![(0, 0)]);
    }

    /// Commits onto pages the boot image never touched (below, between
    /// and far above it) create pages on demand; every committed word is
    /// reported once, ascending, with its last value.
    #[test]
    fn commits_onto_pages_absent_from_the_boot_image() {
        let mut arb = Arb::new([(0x1000, 1)]);
        let far = 0xFFFF_FFFF_FFFF_FFF8;
        for (h, addr, v) in [(1, far, 7), (2, 0x8, 2), (3, 0x2008, 4), (4, 0x8, 9)] {
            arb.store(addr, SeqHandle(h), v);
            arb.commit(addr, SeqHandle(h));
        }
        assert_eq!(arb.backing_word(0x1000), 1);
        assert_eq!(arb.backing_word(far), 7);
        assert_eq!(arb.load(0x2008, SeqHandle(9), k), LoadResult { value: 4, source: None });
        assert_eq!(arb.backing_word(0x2010), 0, "untouched word on a new page reads zero");
        assert_eq!(
            arb.committed_since_boot().collect::<Vec<_>>(),
            vec![(1, 9), (0x2008 >> 3, 4), (far >> 3, 7)]
        );
        assert_eq!(arb.backing_words().count(), 4);
    }

    #[test]
    fn versions_at_lists_handles() {
        let mut arb = Arb::new([]);
        arb.store(0x8, SeqHandle(1), 1);
        arb.store(0x8, SeqHandle(2), 2);
        let mut hs: Vec<u64> = arb.versions_at(0x8).map(|h| h.0).collect();
        hs.sort_unstable();
        assert_eq!(hs, vec![1, 2]);
    }

    /// Bus-contention ordering: with bounded cache buses, stores can reach
    /// the ARB in *grant* order rather than program order. The version a
    /// load receives must depend only on sequence keys, never on the
    /// arrival interleaving.
    #[test]
    fn out_of_order_arrival_is_ordered_by_key() {
        // Program order: store#2, store#4, store#6, load#5.
        // Grant order (bus contention): #6 first, then #2, then #4.
        let mut arb = Arb::new([(0x80, -1)]);
        arb.store(0x80, SeqHandle(6), 66);
        arb.store(0x80, SeqHandle(2), 22);
        arb.store(0x80, SeqHandle(4), 44);
        let r = arb.load(0x80, SeqHandle(5), k);
        assert_eq!(
            r,
            LoadResult { value: 44, source: Some(SeqHandle(4)) },
            "load must see the youngest program-order-earlier store, not the latest arrival"
        );
        // A load older than every store still falls back to memory.
        assert_eq!(arb.load(0x80, SeqHandle(1), k), LoadResult { value: -1, source: None });
    }

    /// Miss-under-miss: several speculative versions of the same word are
    /// outstanding at once (none committed). Each undo peels exactly one
    /// version, re-exposing the next-older one to younger loads.
    #[test]
    fn stacked_outstanding_versions_unwind_one_by_one() {
        let mut arb = Arb::new([(0x40, 7)]);
        arb.store(0x40, SeqHandle(1), 10);
        arb.store(0x40, SeqHandle(3), 30);
        arb.store(0x40, SeqHandle(5), 50);
        assert_eq!(arb.speculative_versions(), 3);
        assert_eq!(arb.load(0x40, SeqHandle(9), k).value, 50);
        // Squash the youngest store (e.g. a mispredicted tail).
        arb.undo(0x40, SeqHandle(5));
        assert_eq!(
            arb.load(0x40, SeqHandle(9), k),
            LoadResult { value: 30, source: Some(SeqHandle(3)) }
        );
        // Squash the *middle*-aged store next (CGCI mid-window squash).
        arb.undo(0x40, SeqHandle(3));
        assert_eq!(
            arb.load(0x40, SeqHandle(9), k),
            LoadResult { value: 10, source: Some(SeqHandle(1)) }
        );
        arb.undo(0x40, SeqHandle(1));
        assert_eq!(arb.load(0x40, SeqHandle(9), k), LoadResult { value: 7, source: None });
        assert_eq!(arb.speculative_versions(), 0);
    }

    /// Commit under speculation: the oldest version retires while younger
    /// speculative versions of the same word are still outstanding.
    /// Between-aged loads now read committed memory; younger loads keep
    /// reading the speculative versions.
    #[test]
    fn commit_under_outstanding_speculation() {
        let mut arb = Arb::new([]);
        arb.store(0x20, SeqHandle(1), 11);
        arb.store(0x20, SeqHandle(8), 88);
        arb.commit(0x20, SeqHandle(1));
        assert_eq!(arb.speculative_versions(), 1, "younger version stays speculative");
        assert_eq!(arb.backing_word(0x20), 11);
        // A load between the two stores sees the committed value.
        assert_eq!(arb.load(0x20, SeqHandle(4), k), LoadResult { value: 11, source: None });
        // A load after the younger store still sees the speculative one.
        assert_eq!(
            arb.load(0x20, SeqHandle(9), k),
            LoadResult { value: 88, source: Some(SeqHandle(8)) }
        );
    }

    /// A reissued store that migrated to a different word (address was
    /// recomputed from a changed base) leaves no residue on the old word
    /// once undone, while contending traffic on both words stays ordered.
    #[test]
    fn store_migration_across_words_under_contention() {
        let mut arb = Arb::new([(0x100, 1), (0x108, 2)]);
        arb.store(0x100, SeqHandle(4), 40); // first (stale-input) execution
        arb.store(0x108, SeqHandle(6), 60); // unrelated store, other word
                                            // The store reissues with a corrected address: core undoes then
                                            // re-stores (the bus stage's migration protocol).
        arb.undo(0x100, SeqHandle(4));
        arb.store(0x108, SeqHandle(4), 41);
        assert_eq!(arb.load(0x100, SeqHandle(9), k), LoadResult { value: 1, source: None });
        assert_eq!(
            arb.load(0x108, SeqHandle(5), k),
            LoadResult { value: 41, source: Some(SeqHandle(4)) }
        );
        assert_eq!(
            arb.load(0x108, SeqHandle(7), k),
            LoadResult { value: 60, source: Some(SeqHandle(6)) }
        );
    }
}
