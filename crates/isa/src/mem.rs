//! Sparse paged word memory, shared by the functional machine and the
//! trace processor's committed memory (the ARB backing).
//!
//! Memory is kept in 64-word zero-initialized pages keyed by
//! `word index >> 6` — the same granularity as the checkpoint format's
//! dirty-page delta. Each page carries two word-granular bitmaps:
//!
//! - `touched` marks every word the memory knows about (loaded image plus
//!   every written word): the set [`PagedMem::touched`] reproduces;
//! - `marked` marks words written with `mark = true`. The functional
//!   machine marks its stores (only those can diverge from the data
//!   image, so a checkpoint delta never scans the rest); the ARB marks its
//!   commits (the words a detailed interval hands back).
//!
//! Marks are bits, not a log, so memory stays flat however long a run is.

use crate::fxhash::FxHashMap;
use crate::{Program, Word};

/// Words per memory page (page index = word index >> 6).
pub const PAGE_WORDS: usize = 64;

#[derive(Clone, Debug)]
struct Page {
    /// Page number (`word index >> 6`).
    no: u64,
    words: [Word; PAGE_WORDS],
    touched: u64,
    marked: u64,
}

impl Page {
    fn empty(no: u64) -> Page {
        Page { no, words: [0; PAGE_WORDS], touched: 0, marked: 0 }
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

impl PagedMem {
    /// The program's initial data image, touched and unmarked, built in one
    /// sequential pass (the image ascends, so each page is created once and
    /// filled in place — no per-word hashing).
    pub fn from_program(program: &Program) -> PagedMem {
        let mut mem = PagedMem::default();
        for (addr, value) in program.data() {
            let word = addr >> 3;
            if mem.pages.last().is_none_or(|p| p.no != word >> 6) {
                mem.index.insert(word >> 6, mem.pages.len() as u32);
                mem.pages.push(Page::empty(word >> 6));
            }
            let page = mem.pages.last_mut().expect("page pushed above");
            page.words[(word & 63) as usize] = value;
            page.touched |= 1 << (word & 63);
        }
        mem
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
        page.touched |= bit;
        if mark {
            page.marked |= bit;
        }
    }

    /// Whether `word` is touched.
    pub fn is_touched(&self, word: u64) -> bool {
        self.index
            .get(&(word >> 6))
            .is_some_and(|&s| self.pages[s as usize].touched >> (word & 63) & 1 == 1)
    }

    /// Every touched word as `(word index, value)`, unordered.
    pub fn touched(&self) -> impl Iterator<Item = (u64, Word)> + '_ {
        self.pages.iter().flat_map(|p| {
            (0..PAGE_WORDS)
                .filter(move |&i| p.touched >> i & 1 == 1)
                .map(move |i| ((p.no << 6) | i as u64, p.words[i]))
        })
    }

    /// Every marked word as `(word index, value)`, ascending. Only pages
    /// holding a mark are visited, so the cost scales with the marked
    /// working set, not with the whole memory.
    pub fn marked(&self) -> impl Iterator<Item = (u64, Word)> + '_ {
        let mut pages: Vec<&Page> = self.pages.iter().filter(|p| p.marked != 0).collect();
        pages.sort_unstable_by_key(|p| p.no);
        pages.into_iter().flat_map(|p| {
            let mut bits = p.marked;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(((p.no << 6) | i as u64, p.words[i]))
            })
        })
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
