//! Linked-list management of processing elements.
//!
//! With coarse-grain control independence, the logical (program) order of
//! PEs can no longer be inferred from head/tail pointers and physical
//! order: traces are inserted and removed from the *middle* of the window.
//! The paper's control structure is "a small table indexed by physical PE
//! number, with each entry containing three fields: logical PE number and
//! pointers to the previous and next PEs", plus head/tail pointers — which
//! is exactly what this module implements. The logical-number field exists
//! solely to translate physical sequence numbers for memory disambiguation.

use std::fmt;

use crate::config::MAX_PES;

/// A list of PE indices in window order held inline, so building and
/// draining one allocates nothing: the traces a recovery preserves and a
/// re-dispatch pass's queue. Pushed at the back, popped at the front; a
/// list never holds more entries than there are PEs.
#[derive(Clone, Copy)]
pub struct PeQueue {
    pes: [u8; MAX_PES],
    start: u16,
    end: u16,
}

impl PeQueue {
    /// The empty list.
    pub const EMPTY: PeQueue = PeQueue { pes: [0; MAX_PES], start: 0, end: 0 };

    /// Appends `pe`.
    ///
    /// # Panics
    ///
    /// Panics if the list has had [`MAX_PES`] entries pushed.
    pub fn push(&mut self, pe: usize) {
        assert!((self.end as usize) < MAX_PES, "a PE list holds at most {MAX_PES} entries");
        self.pes[self.end as usize] = pe as u8;
        self.end += 1;
    }

    /// Removes and returns the first entry.
    pub fn pop_front(&mut self) -> Option<usize> {
        (self.start < self.end).then(|| {
            self.start += 1;
            usize::from(self.pes[self.start as usize - 1])
        })
    }

    /// The number of entries.
    pub fn len(&self) -> usize {
        usize::from(self.end - self.start)
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The last entry.
    pub fn last(&self) -> Option<usize> {
        self.iter().last()
    }

    /// Whether `pe` is listed.
    pub fn contains(&self, pe: usize) -> bool {
        self.iter().any(|q| q == pe)
    }

    /// The entries, first to last.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.pes[self.start as usize..self.end as usize].iter().map(|&pe| usize::from(pe))
    }
}

impl Extend<usize> for PeQueue {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for pe in iter {
            self.push(pe);
        }
    }
}

impl FromIterator<usize> for PeQueue {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> PeQueue {
        let mut q = PeQueue::EMPTY;
        q.extend(iter);
        q
    }
}

impl fmt::Debug for PeQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The PE linked-list control structure.
#[derive(Clone, Debug)]
pub struct PeList {
    next: Vec<Option<usize>>,
    prev: Vec<Option<usize>>,
    logical: Vec<u64>,
    in_list: Vec<bool>,
    head: Option<usize>,
    tail: Option<usize>,
    len: usize,
}

impl PeList {
    /// Creates an empty list over `num_pes` physical PEs.
    pub fn new(num_pes: usize) -> PeList {
        PeList {
            next: vec![None; num_pes],
            prev: vec![None; num_pes],
            logical: vec![0; num_pes],
            in_list: vec![false; num_pes],
            head: None,
            tail: None,
            len: 0,
        }
    }

    /// The oldest PE.
    pub fn head(&self) -> Option<usize> {
        self.head
    }

    /// The youngest (most speculative) PE.
    pub fn tail(&self) -> Option<usize> {
        self.tail
    }

    /// Number of PEs currently in the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `pe` is currently in the list.
    pub fn contains(&self, pe: usize) -> bool {
        self.in_list[pe]
    }

    /// The PE after `pe` in logical order.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is not in the list.
    pub fn next(&self, pe: usize) -> Option<usize> {
        assert!(self.in_list[pe], "PE {pe} not in list");
        self.next[pe]
    }

    /// The PE before `pe` in logical order.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is not in the list.
    pub fn prev(&self, pe: usize) -> Option<usize> {
        assert!(self.in_list[pe], "PE {pe} not in list");
        self.prev[pe]
    }

    /// The logical number of `pe` — its position in program order. Used to
    /// translate physical sequence numbers for the ARB.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is not in the list.
    pub fn logical(&self, pe: usize) -> u64 {
        assert!(self.in_list[pe], "PE {pe} not in list");
        self.logical[pe]
    }

    /// Appends `pe` at the tail (normal dispatch).
    ///
    /// # Panics
    ///
    /// Panics if `pe` is already in the list.
    pub fn push_tail(&mut self, pe: usize) {
        assert!(!self.in_list[pe], "PE {pe} already in list");
        self.prev[pe] = self.tail;
        self.next[pe] = None;
        if let Some(t) = self.tail {
            self.next[t] = Some(pe);
        } else {
            self.head = Some(pe);
        }
        self.tail = Some(pe);
        self.in_list[pe] = true;
        self.len += 1;
        self.renumber();
    }

    /// Inserts `pe` immediately before `before` (CGCI insertion of a
    /// control-dependent trace in the middle of the window).
    ///
    /// # Panics
    ///
    /// Panics if `pe` is already in the list or `before` is not.
    pub fn insert_before(&mut self, pe: usize, before: usize) {
        assert!(!self.in_list[pe], "PE {pe} already in list");
        assert!(self.in_list[before], "PE {before} not in list");
        let p = self.prev[before];
        self.prev[pe] = p;
        self.next[pe] = Some(before);
        self.prev[before] = Some(pe);
        match p {
            Some(p) => self.next[p] = Some(pe),
            None => self.head = Some(pe),
        }
        self.in_list[pe] = true;
        self.len += 1;
        self.renumber();
    }

    /// Removes `pe` (retirement at the head, or a squash anywhere).
    ///
    /// # Panics
    ///
    /// Panics if `pe` is not in the list.
    pub fn remove(&mut self, pe: usize) {
        assert!(self.in_list[pe], "PE {pe} not in list");
        let (p, n) = (self.prev[pe], self.next[pe]);
        match p {
            Some(p) => self.next[p] = n,
            None => self.head = n,
        }
        match n {
            Some(n) => self.prev[n] = p,
            None => self.tail = p,
        }
        self.in_list[pe] = false;
        self.prev[pe] = None;
        self.next[pe] = None;
        self.len -= 1;
        self.renumber();
    }

    /// PEs in logical (program) order, oldest first.
    pub fn iter(&self) -> PeListIter<'_> {
        PeListIter { list: self, cur: self.head }
    }

    /// PEs strictly after `pe`, in logical order.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is not in the list.
    pub fn iter_after(&self, pe: usize) -> PeListIter<'_> {
        assert!(self.in_list[pe], "PE {pe} not in list");
        PeListIter { list: self, cur: self.next[pe] }
    }

    fn renumber(&mut self) {
        let mut n = 0;
        let mut cur = self.head;
        while let Some(pe) = cur {
            self.logical[pe] = n;
            n += 1;
            cur = self.next[pe];
        }
    }
}

/// Iterator over PEs in logical order (see [`PeList::iter`]).
#[derive(Clone, Debug)]
pub struct PeListIter<'a> {
    list: &'a PeList,
    cur: Option<usize>,
}

impl Iterator for PeListIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let pe = self.cur?;
        self.cur = self.list.next[pe];
        Some(pe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(list: &PeList) -> Vec<usize> {
        list.iter().collect()
    }

    #[test]
    fn push_and_remove_fifo() {
        let mut l = PeList::new(4);
        assert!(l.is_empty());
        l.push_tail(2);
        l.push_tail(0);
        l.push_tail(3);
        assert_eq!(order(&l), vec![2, 0, 3]);
        assert_eq!(l.head(), Some(2));
        assert_eq!(l.tail(), Some(3));
        assert_eq!(l.logical(0), 1);
        l.remove(2); // retire head
        assert_eq!(order(&l), vec![0, 3]);
        assert_eq!(l.logical(0), 0);
        assert_eq!(l.logical(3), 1);
    }

    #[test]
    fn insert_before_middle_and_head() {
        let mut l = PeList::new(5);
        l.push_tail(0);
        l.push_tail(1);
        l.insert_before(2, 1);
        assert_eq!(order(&l), vec![0, 2, 1]);
        l.insert_before(3, 0);
        assert_eq!(order(&l), vec![3, 0, 2, 1]);
        assert_eq!(l.head(), Some(3));
        assert_eq!(l.logical(1), 3);
    }

    #[test]
    fn remove_middle_relinks() {
        let mut l = PeList::new(4);
        l.push_tail(0);
        l.push_tail(1);
        l.push_tail(2);
        l.remove(1);
        assert_eq!(order(&l), vec![0, 2]);
        assert_eq!(l.next(0), Some(2));
        assert_eq!(l.prev(2), Some(0));
        assert!(!l.contains(1));
    }

    #[test]
    fn remove_tail_updates_tail() {
        let mut l = PeList::new(3);
        l.push_tail(0);
        l.push_tail(1);
        l.remove(1);
        assert_eq!(l.tail(), Some(0));
        l.push_tail(2);
        assert_eq!(order(&l), vec![0, 2]);
    }

    #[test]
    fn iter_after_skips_older() {
        let mut l = PeList::new(4);
        for pe in [3, 1, 0, 2] {
            l.push_tail(pe);
        }
        let after: Vec<usize> = l.iter_after(1).collect();
        assert_eq!(after, vec![0, 2]);
    }

    #[test]
    fn logical_numbers_track_insertions() {
        let mut l = PeList::new(4);
        l.push_tail(0);
        l.push_tail(1);
        // Insert 2 between them: sequence numbers must re-translate.
        l.insert_before(2, 1);
        assert_eq!(l.logical(0), 0);
        assert_eq!(l.logical(2), 1);
        assert_eq!(l.logical(1), 2);
    }

    /// Checks every structural invariant of the list: forward/backward link
    /// agreement, head/tail endpoints, membership flags, length, and dense
    /// logical numbering in walk order.
    fn assert_invariants(l: &PeList, expected_order: &[usize]) {
        assert_eq!(order(l), expected_order, "forward walk order");
        assert_eq!(l.len(), expected_order.len());
        assert_eq!(l.is_empty(), expected_order.is_empty());
        assert_eq!(l.head(), expected_order.first().copied(), "head pointer");
        assert_eq!(l.tail(), expected_order.last().copied(), "tail pointer");
        // Backward walk from the tail must visit the same PEs reversed.
        let mut back = Vec::new();
        let mut cur = l.tail();
        while let Some(pe) = cur {
            back.push(pe);
            cur = l.prev(pe);
        }
        back.reverse();
        assert_eq!(back, expected_order, "backward walk order");
        for (i, &pe) in expected_order.iter().enumerate() {
            assert!(l.contains(pe));
            assert_eq!(l.logical(pe), i as u64, "logical number of PE {pe}");
            assert_eq!(l.prev(pe), (i > 0).then(|| expected_order[i - 1]));
            assert_eq!(l.next(pe), expected_order.get(i + 1).copied());
        }
    }

    /// CGCI recovery inserts control-dependent traces in the *middle* of the
    /// window, between the repaired branch trace and the preserved
    /// control-independent trace. The links on both sides, the endpoints,
    /// and the logical numbering must all survive repeated insertion.
    #[test]
    fn cgci_mid_window_insertion_preserves_invariants() {
        let mut l = PeList::new(6);
        // Window: [0] (faulting branch trace) -> [1, 2] (preserved CI).
        l.push_tail(0);
        l.push_tail(1);
        l.push_tail(2);
        assert_invariants(&l, &[0, 1, 2]);
        // Insert two control-dependent traces before the preserved trace 1,
        // i.e. between two traces that both stay in the window.
        l.insert_before(3, 1);
        assert_invariants(&l, &[0, 3, 1, 2]);
        l.insert_before(4, 1);
        assert_invariants(&l, &[0, 3, 4, 1, 2]);
        // The preserved suffix keeps its relative order, renumbered.
        assert_eq!(l.logical(1), 3);
        assert_eq!(l.logical(2), 4);
        // Retiring the head (oldest) leaves the inserted traces intact.
        l.remove(0);
        assert_invariants(&l, &[3, 4, 1, 2]);
    }

    /// A full squash after a mispredicted branch removes every PE younger
    /// than the branch (mid-window *and* tail removals), leaving the branch
    /// as the new tail with links and numbering intact — including when the
    /// squash victims were themselves CGCI mid-window insertions.
    #[test]
    fn squash_to_branch_preserves_invariants() {
        let mut l = PeList::new(6);
        for pe in [0, 1, 2, 3] {
            l.push_tail(pe);
        }
        // A CGCI insertion that will be caught in the squash shadow.
        l.insert_before(4, 2);
        assert_invariants(&l, &[0, 1, 4, 2, 3]);
        // Branch in PE 1 mispredicts without a re-convergent point: squash
        // everything younger (the simulator removes them in logical order).
        let victims: Vec<usize> = l.iter_after(1).collect();
        assert_eq!(victims, vec![4, 2, 3]);
        for v in victims {
            l.remove(v);
        }
        assert_invariants(&l, &[0, 1]);
        assert_eq!(l.tail(), Some(1), "branch PE becomes the tail");
        // The freed PEs are immediately reusable at any position.
        l.push_tail(2);
        l.insert_before(3, 2);
        assert_invariants(&l, &[0, 1, 3, 2]);
    }

    /// Alternating insertion and squash cycles (the steady state of CGCI
    /// recovery under pressure) never corrupt the structure.
    #[test]
    fn repeated_insert_squash_cycles_stay_consistent() {
        let mut l = PeList::new(4);
        l.push_tail(0);
        l.push_tail(1);
        let mut expected = vec![0, 1];
        for round in 0..50usize {
            // Insert a "control-dependent" trace before the youngest
            // preserved PE, using whichever PE index is free.
            let free = (0..4).find(|&pe| !l.contains(pe)).expect("a PE is free");
            let before = *expected.last().expect("non-empty");
            l.insert_before(free, before);
            expected.insert(expected.len() - 1, free);
            assert_invariants(&l, &expected);
            // Every other round, squash the tail (reclamation) or the
            // inserted PE (abandoned insertion).
            let victim = if round % 2 == 0 { *expected.last().expect("non-empty") } else { free };
            l.remove(victim);
            expected.retain(|&pe| pe != victim);
            assert_invariants(&l, &expected);
        }
    }

    #[test]
    #[should_panic(expected = "already in list")]
    fn double_insert_panics() {
        let mut l = PeList::new(2);
        l.push_tail(0);
        l.push_tail(0);
    }

    #[test]
    #[should_panic(expected = "not in list")]
    fn remove_absent_panics() {
        let mut l = PeList::new(2);
        l.remove(0);
    }
}
