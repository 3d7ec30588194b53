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
//! A data image keeps its pages in ascending page order; a [`PagedMem`]
//! starts as a copy of them, so booting a machine or a processor copies
//! pages instead of walking words.
//!
//! Marks are bits, not a log, so memory stays flat however long a run is.

use std::ops::{Bound, RangeBounds};

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

/// A program's initial data image: 64-word pages in ascending page order.
///
/// Writes find their page through the slot the previous write used, so an
/// ascending build never searches; any other order binary-searches and
/// inserts in place. A repeated address keeps its last value. Writes to
/// an address that is not 8-byte aligned store nothing; the lowest such
/// address is kept for [`Program`] validation to report. The image costs
/// about 8.4 bytes per data word when its pages are full.
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
}

/// Equality is over the contents; the write cursor is ignored.
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

    /// Places `values` at consecutive words from byte address `base`, a
    /// page at a time. Pages appended past the current end are reserved
    /// exactly, so a bulk array costs no spare capacity.
    pub(crate) fn write_words(&mut self, base: Addr, values: &[Word]) {
        if values.is_empty() {
            return;
        }
        if !base.is_multiple_of(8) {
            self.note_unaligned(base);
            return;
        }
        let mut word = base >> 3;
        let end_page = (word + values.len() as u64 - 1) >> 6;
        let next_new = self.pages.last().map_or(word >> 6, |p| (p.no + 1).max(word >> 6));
        if end_page >= next_new {
            self.pages.reserve_exact((end_page - next_new + 1) as usize);
        }
        let mut rest = values;
        while !rest.is_empty() {
            let slot = self.slot(word >> 6);
            let off = (word & 63) as usize;
            let n = rest.len().min(PAGE_WORDS - off);
            let page = &mut self.pages[slot];
            page.words[off..off + n].copy_from_slice(&rest[..n]);
            page.present |= (u64::MAX >> (PAGE_WORDS - n)) << off;
            word += n as u64;
            rest = &rest[n..];
        }
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

    /// Heap bytes the pages occupy (capacity included).
    pub fn heap_bytes(&self) -> usize {
        self.pages.capacity() * std::mem::size_of::<Page>()
    }

    /// The lowest unaligned byte address written, if any.
    pub(crate) fn first_unaligned(&self) -> Option<Addr> {
        self.unaligned
    }

    /// Releases spare page capacity (once the image is complete).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.pages.shrink_to_fit();
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
        image.shrink_to_fit();
        image
    }
}

/// Sparse paged memory: 64-word zero-initialized pages keyed by
/// `word index >> 6`.
///
/// Pages live in a flat vector; the hash index maps page number → slot and
/// is consulted only when the one-entry lookup cache (the last page
/// touched) misses, so a hot access loop pays one compare plus one array
/// index per access instead of a hash probe.
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
    pages: Vec<Page>,
    index: FxHashMap<u64, u32>,
    /// Page number of the cached slot; `u64::MAX` when nothing is cached.
    last_page: u64,
    last_slot: u32,
}

impl Default for PagedMem {
    fn default() -> PagedMem {
        PagedMem {
            pages: Vec::new(),
            index: FxHashMap::default(),
            last_page: u64::MAX,
            last_slot: 0,
        }
    }
}

/// Pages of room a booted memory reserves past its image, so the pages a
/// run adds (stack, output) do not re-copy every image page into a
/// doubled vector. On the benchmark's three workloads a boot adds at most
/// 5 pages (median 1-2), and 24 of the 55 boots of the 2 MB strhash and
/// fsm images add one or two.
const BOOT_SPARE_PAGES: usize = 8;

impl PagedMem {
    /// The program's initial data image, touched and unmarked: a copy of
    /// the image's pages (no per-word work).
    pub fn from_program(program: &Program) -> PagedMem {
        let image = &program.image().pages;
        let mut pages = Vec::with_capacity(image.len() + BOOT_SPARE_PAGES);
        pages.extend_from_slice(image);
        let index = image.iter().enumerate().map(|(slot, p)| (p.no, slot as u32)).collect();
        PagedMem { pages, index, ..PagedMem::default() }
    }

    /// Slot of `page_no` if the page exists, refreshing the lookup cache.
    #[inline]
    fn slot_of(&mut self, page_no: u64) -> Option<u32> {
        if self.last_page == page_no {
            return Some(self.last_slot);
        }
        let slot = *self.index.get(&page_no)?;
        self.last_page = page_no;
        self.last_slot = slot;
        Some(slot)
    }

    /// Reads a word (0 if untouched). Never allocates.
    #[inline]
    pub fn load(&mut self, word: u64) -> Word {
        match self.slot_of(word >> 6) {
            Some(s) => self.pages[s as usize].words[(word & 63) as usize],
            None => 0,
        }
    }

    /// Reads a word without refreshing the lookup cache (shared-reference
    /// inspection paths).
    pub fn peek(&self, word: u64) -> Word {
        let page_no = word >> 6;
        let slot = if self.last_page == page_no {
            Some(self.last_slot)
        } else {
            self.index.get(&page_no).copied()
        };
        match slot {
            Some(s) => self.pages[s as usize].words[(word & 63) as usize],
            None => 0,
        }
    }

    /// Writes a word, marking it touched and (when `mark`) marked.
    #[inline]
    pub fn set(&mut self, word: u64, value: Word, mark: bool) {
        let page_no = word >> 6;
        let slot = match self.slot_of(page_no) {
            Some(s) => s,
            None => {
                let s = self.pages.len() as u32;
                self.pages.push(Page::empty(page_no));
                self.index.insert(page_no, s);
                self.last_page = page_no;
                self.last_slot = s;
                s
            }
        };
        let page = &mut self.pages[slot as usize];
        let bit = 1u64 << (word & 63);
        page.words[(word & 63) as usize] = value;
        page.present |= bit;
        if mark {
            page.marked |= bit;
        }
    }

    /// Whether `word` is touched.
    pub fn is_touched(&self, word: u64) -> bool {
        self.index
            .get(&(word >> 6))
            .is_some_and(|&s| self.pages[s as usize].present >> (word & 63) & 1 == 1)
    }

    /// Every touched word as `(word index, value)`, unordered.
    pub fn touched(&self) -> impl Iterator<Item = (u64, Word)> + '_ {
        self.pages.iter().flat_map(|p| p.words_in(p.present))
    }

    /// Every marked word as `(word index, value)`, ascending. Only pages
    /// holding a mark are visited, so the cost scales with the marked
    /// working set, not with the whole memory.
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

    /// Copying the image's pages builds the same memory as setting its
    /// words one at a time, before and after a run's stores.
    #[test]
    fn page_copy_equals_a_word_by_word_build() {
        let mut a = Asm::new("t");
        a.halt();
        a.data_words(0x1f0, &[5, 0, -1, 7]); // crosses a page, holds a zero
        a.data_word(0x9000, 3);
        a.data_word(0x100, 2); // out of order: a page before the others
        let p = a.assemble().unwrap();
        let mut copied = PagedMem::from_program(&p);
        let mut by_word = PagedMem::default();
        for (addr, value) in p.data() {
            by_word.set(addr >> 3, value, false);
        }
        for mem in [&mut copied, &mut by_word] {
            mem.set(0x1f8 >> 3, 9, true);
            mem.set(0x5000 >> 3, 4, true);
            mem.set(0x108 >> 3, 1, false);
        }
        let sorted = |mem: &PagedMem| {
            let mut words: Vec<_> = mem.touched().collect();
            words.sort_unstable();
            words
        };
        assert_eq!(sorted(&copied), sorted(&by_word));
        assert_eq!(copied.marked().collect::<Vec<_>>(), by_word.marked().collect::<Vec<_>>());
        for word in (0..0x9100 >> 3).step_by(3) {
            assert_eq!(copied.load(word), by_word.load(word), "word {word}");
            assert_eq!(copied.is_touched(word), by_word.is_touched(word), "word {word}");
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
