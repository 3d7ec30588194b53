//! Paged word memory: the one page layout shared by program data images
//! ([`DataImage`], held by [`Program`]) and by the memories that run them
//! ([`PagedMem`]: the functional machine's memory and the trace
//! processor's committed memory, the ARB backing).
//!
//! A page holds 64 words keyed by `word index >> 6` (the same granularity
//! as the checkpoint format's dirty-page delta) and two word-granular
//! masks:
//!
//! - `present`: which words hold a value, an explicit zero included.
//!   Absent words read as zero. A memory's present words are the set
//!   [`PagedMem::touched`] reproduces: the loaded image plus every written
//!   word;
//! - `marked`: the words a [`PagedMem`] wrote with `mark = true` (always
//!   empty in a data image). The functional machine marks its stores (only
//!   those can diverge from the data image, so a checkpoint delta never
//!   scans the rest); the ARB marks its commits (the words a detailed
//!   interval hands back).
//!
//! A data image keeps its pages in ascending page order. A [`Program`]
//! freezes its image once, behind an `Arc`, and every [`PagedMem`] booted
//! from the program shares those pages copy-on-write: reads fall through
//! to them, and the first write to an image page copies that one page. A
//! boot therefore copies nothing, and a memory's own pages are the ones
//! its run wrote.
//!
//! Marks are bits, not a log, so memory stays flat however long a run is.

use std::ops::{Bound, RangeBounds};
use std::sync::{Arc, OnceLock};

use crate::fxhash::FxHashMap;
use crate::{Addr, Program, Word};

/// Words per memory page (page index = word index >> 6).
pub const PAGE_WORDS: usize = 64;

/// One 64-word page: its number, its words and their two masks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Page {
    /// Page number (`word index >> 6`).
    no: u64,
    words: [Word; PAGE_WORDS],
    /// Bit `i` set: word `i` holds a value (absent words are zero).
    present: u64,
    /// Bit `i` set: word `i` was written with `mark = true`.
    marked: u64,
}

impl Page {
    fn empty(no: u64) -> Page {
        Page { no, words: [0; PAGE_WORDS], present: 0, marked: 0 }
    }

    /// The words whose bit is set in `mask`, as ascending
    /// `(word index, word)` pairs.
    fn words_in(&self, mask: u64) -> impl Iterator<Item = (u64, Word)> + '_ {
        let mut bits = mask;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(((self.no << 6) | i as u64, self.words[i]))
        })
    }

    /// The present words as ascending `(byte address, word)` pairs. A data
    /// image holds byte addresses only, so its page numbers stay below
    /// 2^55 and the shift loses nothing.
    fn entries(&self) -> impl Iterator<Item = (Addr, Word)> + '_ {
        self.words_in(self.present).map(|(word, w)| (word << 3, w))
    }
}

/// A frozen image's page number → slot table: open addressing over a
/// power-of-two array, at most half full, probed linearly from the page
/// number's Fibonacci hash. A bucket holds only the slot; a probe confirms
/// the number against the page itself, so the table costs 4 bytes per
/// bucket.
#[derive(Clone, Debug, Default)]
struct PageIndex {
    buckets: Vec<u32>,
    /// `64 - log2(buckets.len())`: the hash's top bits pick the bucket.
    shift: u32,
}

/// An empty [`PageIndex`] bucket.
const NO_SLOT: u32 = u32::MAX;

impl PageIndex {
    fn new(pages: &[Page]) -> PageIndex {
        if pages.is_empty() {
            return PageIndex::default();
        }
        let len = (2 * pages.len()).next_power_of_two();
        let mut index = PageIndex { buckets: vec![NO_SLOT; len], shift: 64 - len.trailing_zeros() };
        for (slot, page) in pages.iter().enumerate() {
            let mut b = index.bucket(page.no);
            while index.buckets[b] != NO_SLOT {
                b = (b + 1) & (len - 1);
            }
            index.buckets[b] = slot as u32;
        }
        index
    }

    #[inline]
    fn bucket(&self, no: u64) -> usize {
        (no.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// Slot of page `no` among `pages` (the pages the index was built on).
    #[inline]
    fn find(&self, pages: &[Page], no: u64) -> Option<u32> {
        if self.buckets.is_empty() {
            return None;
        }
        let mut b = self.bucket(no);
        loop {
            match self.buckets[b] {
                NO_SLOT => return None,
                slot if pages[slot as usize].no == no => return Some(slot),
                _ => b = (b + 1) & (self.buckets.len() - 1),
            }
        }
    }
}

/// A program's initial data image: 64-word pages in ascending page order.
///
/// Writes find their page through the slot the previous write used, so an
/// ascending build never searches; any other order binary-searches and
/// inserts in place. A repeated address keeps its last value. Writes to
/// an address that is not 8-byte aligned store nothing; the lowest such
/// address is kept for [`Program`] validation to report.
///
/// [`Program`] freezes the finished image (spare capacity released, a page
/// index built) and shares it, never copies it: every [`PagedMem`] booted
/// from the program reads these pages in place. A frozen image costs about
/// 8.5 bytes per data word when its pages are full.
///
/// # Example
///
/// ```
/// use tp_isa::mem::DataImage;
/// // Any order; the last write of an address wins; a zero is present.
/// let image: DataImage = [(0x208, 3), (0x1f8, 1), (0x200, 2), (0x200, 0)].into_iter().collect();
/// assert_eq!(image.iter().collect::<Vec<_>>(), vec![(0x1f8, 1), (0x200, 0), (0x208, 3)]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DataImage {
    /// Ascending by page number, each holding at least one present word.
    pages: Vec<Page>,
    /// Slot of the page the last write landed in.
    last: usize,
    /// The lowest unaligned address written.
    unaligned: Option<Addr>,
    /// Built once by [`DataImage::freeze`]; empty while the image is built.
    index: PageIndex,
}

/// Equality is over the contents; the write cursor and the index are
/// ignored.
impl PartialEq for DataImage {
    fn eq(&self, other: &DataImage) -> bool {
        self.pages == other.pages && self.unaligned == other.unaligned
    }
}

impl Eq for DataImage {}

impl DataImage {
    /// Slot of page `no`, inserted in order if absent.
    fn slot(&mut self, no: u64) -> usize {
        if self.pages.get(self.last).is_some_and(|p| p.no == no) {
            return self.last;
        }
        self.last = match self.pages.last() {
            Some(p) if p.no >= no => match self.pages.binary_search_by_key(&no, |p| p.no) {
                Ok(slot) => slot,
                Err(slot) => {
                    self.pages.insert(slot, Page::empty(no));
                    slot
                }
            },
            _ => {
                self.pages.push(Page::empty(no));
                self.pages.len() - 1
            }
        };
        self.last
    }

    fn note_unaligned(&mut self, addr: Addr) {
        self.unaligned = Some(self.unaligned.map_or(addr, |u| u.min(addr)));
    }

    /// Places `value` at byte address `addr`.
    pub(crate) fn write(&mut self, addr: Addr, value: Word) {
        if !addr.is_multiple_of(8) {
            self.note_unaligned(addr);
            return;
        }
        let word = addr >> 3;
        let slot = self.slot(word >> 6);
        let page = &mut self.pages[slot];
        page.words[(word & 63) as usize] = value;
        page.present |= 1 << (word & 63);
    }

    /// Places `len` consecutive words from byte address `base`, a page at
    /// a time: `fill` writes each page's run of words in order. Pages
    /// appended past the current end are reserved exactly, so a bulk array
    /// costs no spare capacity.
    fn write_run(&mut self, base: Addr, len: usize, mut fill: impl FnMut(&mut [Word])) {
        if len == 0 {
            return;
        }
        if !base.is_multiple_of(8) {
            self.note_unaligned(base);
            return;
        }
        let mut word = base >> 3;
        let end_page = (word + len as u64 - 1) >> 6;
        let next_new = self.pages.last().map_or(word >> 6, |p| (p.no + 1).max(word >> 6));
        if end_page >= next_new {
            self.pages.reserve_exact((end_page - next_new + 1) as usize);
        }
        let mut rest = len;
        while rest > 0 {
            let slot = self.slot(word >> 6);
            let off = (word & 63) as usize;
            let n = rest.min(PAGE_WORDS - off);
            let page = &mut self.pages[slot];
            fill(&mut page.words[off..off + n]);
            page.present |= (u64::MAX >> (PAGE_WORDS - n)) << off;
            word += n as u64;
            rest -= n;
        }
    }

    /// Places `values` at consecutive words from byte address `base`.
    pub(crate) fn write_words(&mut self, base: Addr, values: &[Word]) {
        let mut rest = values;
        self.write_run(base, values.len(), |run| {
            let (head, tail) = rest.split_at(run.len());
            run.copy_from_slice(head);
            rest = tail;
        });
    }

    /// Places `values.len()` words, taken from `values` in order, at
    /// consecutive words from byte address `base`, straight into the pages
    /// (a generated array needs no staging copy).
    pub(crate) fn write_iter(
        &mut self,
        base: Addr,
        mut values: impl ExactSizeIterator<Item = Word>,
    ) {
        self.write_run(base, values.len(), |run| {
            for (dst, v) in run.iter_mut().zip(&mut values) {
                *dst = v;
            }
        });
    }

    /// The word at byte address `addr`, or `None` when the image does not
    /// hold one there.
    pub(crate) fn get(&self, addr: Addr) -> Option<Word> {
        if !addr.is_multiple_of(8) {
            return None;
        }
        let word = addr >> 3;
        let slot = self.pages.binary_search_by_key(&(word >> 6), |p| p.no).ok()?;
        let page = &self.pages[slot];
        (page.present >> (word & 63) & 1 == 1).then_some(page.words[(word & 63) as usize])
    }

    /// Every word as ascending `(byte address, word)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, Word)> + '_ {
        self.pages.iter().flat_map(Page::entries)
    }

    /// The words whose byte addresses fall in `addrs`, as ascending
    /// `(byte address, word)` pairs. Only the pages the bounds span are
    /// visited.
    pub(crate) fn range(
        &self,
        addrs: impl RangeBounds<Addr>,
    ) -> impl Iterator<Item = (Addr, Word)> + '_ {
        let lo = match addrs.start_bound() {
            Bound::Included(&a) => Some(a),
            Bound::Excluded(&a) => a.checked_add(1),
            Bound::Unbounded => Some(0),
        };
        let hi = match addrs.end_bound() {
            Bound::Included(&a) => Some(a),
            Bound::Excluded(&a) => a.checked_sub(1),
            Bound::Unbounded => Some(Addr::MAX),
        };
        // An empty range becomes lo > hi, which the filter rejects.
        let (lo, hi) = match (lo, hi) {
            (Some(lo), Some(hi)) => (lo, hi),
            _ => (1, 0),
        };
        let first = self.pages.partition_point(|p| p.no < lo >> 9);
        let end = self.pages.partition_point(|p| p.no <= hi >> 9).max(first);
        self.pages[first..end]
            .iter()
            .flat_map(Page::entries)
            .filter(move |&(a, _)| a >= lo && a <= hi)
    }

    /// Heap bytes the pages and the page index occupy (capacity included).
    pub fn heap_bytes(&self) -> usize {
        self.pages.capacity() * std::mem::size_of::<Page>()
            + self.index.buckets.capacity() * std::mem::size_of::<u32>()
    }

    /// The lowest unaligned byte address written, if any.
    pub(crate) fn first_unaligned(&self) -> Option<Addr> {
        self.unaligned
    }

    /// Finishes the image: releases spare page capacity and builds the
    /// page index the memories sharing it look pages up through.
    pub(crate) fn freeze(&mut self) {
        self.pages.shrink_to_fit();
        self.index = PageIndex::new(&self.pages);
    }

    /// Slot of page `no` (a frozen image).
    #[inline]
    fn find(&self, no: u64) -> Option<u32> {
        self.index.find(&self.pages, no)
    }
}

/// Collects `(byte address, word)` pairs in any order; the last value of a
/// repeated address wins.
impl FromIterator<(Addr, Word)> for DataImage {
    fn from_iter<I: IntoIterator<Item = (Addr, Word)>>(pairs: I) -> DataImage {
        let mut image = DataImage::default();
        for (addr, value) in pairs {
            image.write(addr, value);
        }
        image
    }
}

/// Tag of a [`PagedMem`] slot naming a page of the shared image rather
/// than one of the memory's own pages.
const SHARED: u32 = 1 << 31;

/// Sparse paged memory: 64-word zero-initialized pages keyed by
/// `word index >> 6`, laid copy-on-write over a shared [`DataImage`].
///
/// A memory booted by [`PagedMem::from_program`] owns no pages: reads
/// fall through to the program's frozen image, and the first write to one
/// of its pages copies that page into the memory's own vector (as does
/// the first write to a page the image lacks, onto a zero page). Booting
/// costs no copy, and a run's memory grows only by the pages it writes.
///
/// Own pages live in a flat vector behind a hash index; image pages are
/// found through the image's own index, built once when the program froze
/// it. Both are consulted only when the one-entry lookup cache (the last
/// page touched) misses, so a hot access loop pays one compare plus one
/// array index per access. A 64-bit filter of the own pages' numbers lets
/// a miss on an unwritten image page skip the own-page probe.
///
/// # Example
///
/// ```
/// use tp_isa::mem::PagedMem;
/// let mut mem = PagedMem::default();
/// mem.set(5, 0, false); // a touched zero word
/// mem.set(70, 9, true); // a marked word on the next page
/// assert_eq!(mem.load(70), 9);
/// assert_eq!(mem.load(6), 0); // untouched words read as zero
/// assert_eq!(mem.marked().collect::<Vec<_>>(), vec![(70, 9)]);
/// assert_eq!(mem.touched().count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct PagedMem {
    /// The image this memory started from; never written.
    image: Arc<DataImage>,
    /// The memory's own pages: image pages copied on their first write,
    /// and pages the image lacks.
    pages: Vec<Page>,
    index: FxHashMap<u64, u32>,
    /// Bit `no & 63` set for the number `no` of every own page.
    own_filter: u64,
    /// Page number of the cached slot; `u64::MAX` when nothing is cached.
    last_page: u64,
    /// The cached slot, tagged [`SHARED`] for an image page.
    last_slot: u32,
}

impl Default for PagedMem {
    fn default() -> PagedMem {
        static EMPTY: OnceLock<Arc<DataImage>> = OnceLock::new();
        PagedMem::over(Arc::clone(EMPTY.get_or_init(Arc::default)))
    }
}

impl PagedMem {
    /// A memory holding exactly `image` (frozen), touched and unmarked.
    fn over(image: Arc<DataImage>) -> PagedMem {
        PagedMem {
            image,
            pages: Vec::new(),
            index: FxHashMap::default(),
            own_filter: 0,
            last_page: u64::MAX,
            last_slot: 0,
        }
    }

    /// The program's initial data image, touched and unmarked. The image's
    /// pages are shared, not copied: booting allocates nothing.
    pub fn from_program(program: &Program) -> PagedMem {
        PagedMem::over(Arc::clone(program.image()))
    }

    /// Slot of page `no` among the memory's own pages.
    #[inline]
    fn own_slot(&self, no: u64) -> Option<u32> {
        if self.own_filter >> (no & 63) & 1 == 0 {
            return None;
        }
        self.index.get(&no).copied()
    }

    /// Slot of page `no`, tagged [`SHARED`] for an unwritten image page;
    /// `None` if neither holds it. Leaves the lookup cache alone.
    #[inline]
    fn find(&self, no: u64) -> Option<u32> {
        self.own_slot(no).or_else(|| self.image.find(no).map(|slot| slot | SHARED))
    }

    /// Slot of `page_no` if the page exists, refreshing the lookup cache.
    #[inline]
    fn slot_of(&mut self, page_no: u64) -> Option<u32> {
        if self.last_page == page_no {
            return Some(self.last_slot);
        }
        let slot = self.find(page_no)?;
        self.last_page = page_no;
        self.last_slot = slot;
        Some(slot)
    }

    #[inline]
    fn page(&self, slot: u32) -> &Page {
        if slot & SHARED == 0 {
            &self.pages[slot as usize]
        } else {
            &self.image.pages[(slot & !SHARED) as usize]
        }
    }

    /// Reads a word (0 if untouched). Never allocates.
    #[inline]
    pub fn load(&mut self, word: u64) -> Word {
        match self.slot_of(word >> 6) {
            Some(s) => self.page(s).words[(word & 63) as usize],
            None => 0,
        }
    }

    /// Reads a word without refreshing the lookup cache (shared-reference
    /// inspection paths).
    pub fn peek(&self, word: u64) -> Word {
        let page_no = word >> 6;
        let slot =
            if self.last_page == page_no { Some(self.last_slot) } else { self.find(page_no) };
        match slot {
            Some(s) => self.page(s).words[(word & 63) as usize],
            None => 0,
        }
    }

    /// Writes a word, marking it touched and (when `mark`) marked.
    #[inline]
    pub fn set(&mut self, word: u64, value: Word, mark: bool) {
        let page_no = word >> 6;
        let slot = match self.slot_of(page_no) {
            Some(s) if s & SHARED == 0 => s,
            shared => self.own(page_no, shared),
        };
        let page = &mut self.pages[slot as usize];
        let bit = 1u64 << (word & 63);
        page.words[(word & 63) as usize] = value;
        page.present |= bit;
        if mark {
            page.marked |= bit;
        }
    }

    /// Makes page `no` one of the memory's own: a copy of the image page
    /// at `shared`, or a zero page. Returns (and caches) its slot.
    #[cold]
    fn own(&mut self, no: u64, shared: Option<u32>) -> u32 {
        let page = shared.map_or_else(|| Page::empty(no), |s| *self.page(s));
        let slot = self.pages.len() as u32;
        self.pages.push(page);
        self.index.insert(no, slot);
        self.own_filter |= 1 << (no & 63);
        self.last_page = no;
        self.last_slot = slot;
        slot
    }

    /// Whether `word` is touched.
    pub fn is_touched(&self, word: u64) -> bool {
        self.find(word >> 6).is_some_and(|s| self.page(s).present >> (word & 63) & 1 == 1)
    }

    /// Every touched word as `(word index, value)`, unordered.
    pub fn touched(&self) -> impl Iterator<Item = (u64, Word)> + '_ {
        let unwritten = self.image.pages.iter().filter(|p| self.own_slot(p.no).is_none());
        unwritten.chain(&self.pages).flat_map(|p| p.words_in(p.present))
    }

    /// Every marked word as `(word index, value)`, ascending. Only the
    /// memory's own pages can hold a mark, and only those holding one are
    /// visited, so the cost scales with the marked working set, not with
    /// the image.
    pub fn marked(&self) -> impl Iterator<Item = (u64, Word)> + '_ {
        let mut pages: Vec<&Page> = self.pages.iter().filter(|p| p.marked != 0).collect();
        pages.sort_unstable_by_key(|p| p.no);
        pages.into_iter().flat_map(|p| p.words_in(p.marked))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;

    #[test]
    fn program_image_is_touched_and_unmarked() {
        let mut a = Asm::new("t");
        a.halt();
        a.data_word(0x100, 7);
        a.data_word(0x108, 0);
        a.data_word(0x4000, -3);
        let p = a.assemble().unwrap();
        let mut mem = PagedMem::from_program(&p);
        assert_eq!(mem.load(0x100 >> 3), 7);
        assert_eq!(mem.peek(0x4000 >> 3), -3);
        assert!(mem.is_touched(0x108 >> 3), "a zero data word is still touched");
        assert!(!mem.is_touched(0x110 >> 3));
        assert_eq!(mem.marked().count(), 0);
        let mut touched: Vec<_> = mem.touched().collect();
        touched.sort_unstable();
        assert_eq!(touched, p.data().map(|(a, w)| (a >> 3, w)).collect::<Vec<_>>());
    }

    /// What a memory must hold: its touched words with their values, and
    /// which of them were ever written with a mark.
    type Reference = (std::collections::BTreeMap<u64, Word>, std::collections::BTreeSet<u64>);

    /// Every read of `mem` agrees with `want`: `touched` and `marked` in
    /// full, `load`, `peek` and `is_touched` at each probe.
    fn assert_holds(mem: &mut PagedMem, want: &Reference, probes: &[u64], ctx: &str) {
        let (words, marks) = want;
        let mut touched: Vec<_> = mem.touched().collect();
        touched.sort_unstable();
        assert_eq!(touched, words.iter().map(|(&w, &v)| (w, v)).collect::<Vec<_>>(), "{ctx}");
        let marked: Vec<_> = marks.iter().map(|&w| (w, words[&w])).collect();
        assert_eq!(mem.marked().collect::<Vec<_>>(), marked, "{ctx}");
        for &word in probes {
            let value = words.get(&word).copied().unwrap_or(0);
            assert_eq!(mem.peek(word), value, "{ctx}: peek {word}");
            assert_eq!(mem.load(word), value, "{ctx}: load {word}");
            assert_eq!(mem.is_touched(word), words.contains_key(&word), "{ctx}: word {word}");
        }
    }

    /// Two memories booted from one program share its image copy-on-write:
    /// random stores to either (zeros over non-zero image words, words on
    /// pages outside the image, re-stores of written words, marked or not)
    /// never show in the other memory or in the program's image, and every
    /// read of each agrees with an ordered-map reference of the image plus
    /// that memory's own stores.
    #[test]
    fn memories_booted_from_one_program_never_see_each_others_stores() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xc0_1d);
        for round in 0..24 {
            let mut a = Asm::new("t");
            a.halt();
            for _ in 0..rng.gen_range(1..300usize) {
                let value = if rng.gen_range(0..5) == 0 { 0 } else { rng.gen_range(1..99i64) };
                a.data_word(8 * rng.gen_range(0..2_000u64), value);
            }
            let p = a.assemble().unwrap();
            let image: Vec<_> = p.image().iter().collect();
            let initial: Reference =
                (p.data().map(|(a, w)| (a >> 3, w)).collect(), Default::default());
            let image_words: Vec<u64> = initial.0.keys().copied().collect();
            let mut mems = [PagedMem::from_program(&p), PagedMem::from_program(&p)];
            let mut want = [initial.clone(), initial.clone()];
            for step in 0..600 {
                let m = rng.gen_range(0..2usize);
                let written: Vec<u64> = want[m].0.keys().copied().collect();
                let word = match rng.gen_range(0..4) {
                    0 => image_words[rng.gen_range(0..image_words.len())],
                    1 => written[rng.gen_range(0..written.len())],
                    2 => rng.gen_range(0..2_100u64),
                    _ => (1 << 40) + rng.gen_range(0..200u64),
                };
                let value = if rng.gen_range(0..2) == 0 { 0 } else { rng.gen_range(-50..50i64) };
                let mark = rng.gen_range(0..2) == 0;
                mems[m].set(word, value, mark);
                want[m].0.insert(word, value);
                if mark {
                    want[m].1.insert(word);
                }
                if step % 60 == 59 {
                    let mut probes: Vec<u64> =
                        (0..40).map(|_| rng.gen_range(0..2_200u64)).collect();
                    probes.extend(written.iter().step_by(7));
                    probes.extend([1 << 40, (1 << 40) + 63, u64::MAX]);
                    for (mem, want) in mems.iter_mut().zip(&want) {
                        assert_holds(mem, want, &probes, &format!("round {round} step {step}"));
                    }
                }
            }
            assert_eq!(p.image().iter().collect::<Vec<_>>(), image, "round {round}: image moved");
            // A memory booted after the stores still sees only the image.
            assert_holds(&mut PagedMem::from_program(&p), &initial, &image_words, "fresh boot");
        }
    }

    #[test]
    fn marked_words_ascend_once_each_with_last_value() {
        let mut mem = PagedMem::default();
        for (word, value) in [(200, 1), (3, 2), (200, 5), (64, 0), (3, 9)] {
            mem.set(word, value, true);
        }
        mem.set(4, 11, false);
        assert_eq!(mem.marked().collect::<Vec<_>>(), vec![(3, 9), (64, 0), (200, 5)]);
        assert_eq!(mem.touched().count(), 4);
    }
}
