//! Physical registers and the global register file.
//!
//! The register file has two levels, as in the paper. A value produced and
//! consumed inside one trace stays in its PE: the producing slot publishes
//! it ([`crate::pe::Published`]) and its consumers read it through their
//! [`tp_trace::OperandRef::Local`] operands. Only trace live-outs are renamed into
//! this global file: a dispatched instruction allocates a global register
//! only when it is a live-out, and a trace repair allocates one for a
//! preserved slot it promotes to live-out. Registers are recycled by
//! mark-sweep, so the file's size is bounded by the window rather than by
//! run length.
//!
//! **Roots.** A register stays allocated while any of these names it:
//! - every PE's `map_before`/`map_after` (unoccupied PEs included: it is
//!   cheap and conservative);
//! - the speculative `current_map` and the committed `retired_map`;
//! - every occupied PE's global source operands and the slots' global
//!   registers (a slot keeps its register for its whole life, even when a
//!   repair demotes it);
//! - [`PhysRegId::ZERO`].
//!
//! Nothing else can ever name a register again: every rename reads one of
//! these maps, and selective reissue or a control-independent trace only
//! reads registers its slots already hold. A wrong-path live-out of a
//! squashed trace, or a value every map has moved past, is garbage.
//!
//! **Sweep policy.** [`PhysRegFile::alloc`] pops the free list. Before
//! renaming a trace, the simulator reserves room for its live-outs
//! ([`PhysRegFile::grow_for`]): while the free list is too short, the file
//! grows up to its sweep threshold, `max(SWEEP_FLOOR, 2 × live after the
//! last sweep)`; at the threshold the simulator sweeps once, and the file
//! grows past it only if the sweep freed too little. Renaming a trace (at
//! dispatch or repair) is the only allocation site, and every live register
//! is rooted there (a half-renamed trace's registers would not be, so no
//! sweep runs mid-trace). A sweep at a file of `n` registers is paid for by at least `n / 2`
//! allocations since the last one: amortized O(1) per allocation. Because
//! growth stops exactly at the threshold, a window whose live set stays
//! under half the floor keeps a file of exactly `SWEEP_FLOOR` registers
//! however long the run.
//!
//! A recycled register restarts in exactly the state of a fresh
//! allocation, and the simulator clears a freed register's reader list
//! (the only per-register list it keeps), so reuse is invisible to
//! simulated behaviour: no statistic depends on register numbering. Freed registers are marked, and
//! [`PhysRegFile::get`]/[`PhysRegFile::get_mut`] debug-assert that the id is
//! allocated, so a missed root fails loudly instead of silently aliasing.

use tp_isa::Word;

/// File size below which no sweep runs. Only live-outs hold global
/// registers, so a 16-PE window roots well under half of it (at most 240
/// registers on any `full` workload under any model), each sweep frees
/// hundreds of registers, and the file stays at exactly this size.
const SWEEP_FLOOR: usize = 1024;

/// Identifies a physical register.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysRegId(pub u32);

impl PhysRegId {
    /// The constant-zero register: always ready, value 0, visible to every
    /// PE at every cycle (architectural `r0` renames here).
    pub const ZERO: PhysRegId = PhysRegId(0);

    /// The id as an index into dense per-register tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One physical register's state.
#[derive(Clone, Copy, Debug)]
pub struct PhysReg {
    /// Current value (meaningful once `ready`).
    pub value: Word,
    /// Whether a value has been produced at all.
    pub ready: bool,
    /// Cycle from which the producing PE may consume the value.
    pub local_ready_at: u64,
    /// Cycle from which other PEs may consume the value (set when a global
    /// result bus was granted, plus the extra bypass latency).
    pub global_ready_at: u64,
    /// The PE that produced (or will produce) the value.
    pub producer_pe: Option<u8>,
}

impl PhysReg {
    /// A register holding `value`, ready and globally visible from cycle 0.
    fn ready(value: Word) -> PhysReg {
        PhysReg { value, ready: true, local_ready_at: 0, global_ready_at: 0, producer_pe: None }
    }

    /// A freshly allocated, not-yet-produced register.
    fn pending(producer_pe: Option<u8>) -> PhysReg {
        PhysReg {
            value: 0,
            ready: false,
            local_ready_at: u64::MAX,
            global_ready_at: u64::MAX,
            producer_pe,
        }
    }
}

/// A rename map: architectural register index to physical register.
pub type RenameMap = [PhysRegId; tp_isa::Reg::COUNT];

/// The mark-sweep recycled physical register file.
#[derive(Clone, Debug)]
pub struct PhysRegFile {
    regs: Vec<PhysReg>,
    /// `allocated[i]`: register `i` is live (not on the free list).
    allocated: Vec<bool>,
    /// Free registers, popped by `alloc` (lowest id last, so it pops first).
    free: Vec<PhysRegId>,
    /// The largest live set any sweep has found.
    live_high_water: usize,
    /// File size at which growth stops and a short free list calls for a
    /// sweep.
    sweep_at: usize,
    /// Sweep mark bits (kept to avoid reallocating them every sweep).
    marked: Vec<bool>,
}

impl PhysRegFile {
    /// Creates the file containing only the constant-zero register.
    pub fn new() -> PhysRegFile {
        PhysRegFile {
            regs: vec![PhysReg::ready(0)],
            allocated: vec![true],
            free: Vec::new(),
            live_high_water: 0,
            sweep_at: SWEEP_FLOOR,
            marked: Vec::new(),
        }
    }

    /// Adds one free register to the file.
    fn grow(&mut self) {
        self.free.push(PhysRegId(self.regs.len() as u32));
        self.regs.push(PhysReg::ready(0));
        self.allocated.push(false);
    }

    fn alloc_with(&mut self, reg: PhysReg) -> PhysRegId {
        if self.free.is_empty() {
            self.grow();
        }
        let id = self.free.pop().expect("grown above");
        self.regs[id.index()] = reg;
        self.allocated[id.index()] = true;
        id
    }

    /// Allocates a not-yet-ready register owned by `producer_pe`.
    pub fn alloc(&mut self, producer_pe: Option<u8>) -> PhysRegId {
        self.alloc_with(PhysReg::pending(producer_pe))
    }

    /// Allocates a register that is immediately ready with `value` and
    /// globally visible (used for initial architectural state).
    pub fn alloc_ready(&mut self, value: Word) -> PhysRegId {
        self.alloc_with(PhysReg::ready(value))
    }

    /// Immutable access.
    #[inline]
    pub fn get(&self, id: PhysRegId) -> &PhysReg {
        debug_assert!(self.is_allocated(id), "read of freed physical register {id:?}");
        &self.regs[id.index()]
    }

    /// Mutable access.
    ///
    /// # Panics
    ///
    /// Panics when attempting to mutate the constant-zero register.
    #[inline]
    pub fn get_mut(&mut self, id: PhysRegId) -> &mut PhysReg {
        assert!(id != PhysRegId::ZERO, "the zero register is immutable");
        debug_assert!(self.is_allocated(id), "write of freed physical register {id:?}");
        &mut self.regs[id.index()]
    }

    /// Whether `id` names an allocated (not freed) register.
    pub fn is_allocated(&self, id: PhysRegId) -> bool {
        self.allocated.get(id.index()).copied().unwrap_or(false)
    }

    /// Whether `id`'s value may be consumed by `reader_pe` at cycle `now`.
    #[inline]
    pub fn readable_by(&self, id: PhysRegId, reader_pe: u8, now: u64) -> bool {
        let r = self.get(id);
        if !r.ready {
            return false;
        }
        if r.producer_pe == Some(reader_pe) {
            now >= r.local_ready_at
        } else {
            now >= r.global_ready_at
        }
    }

    /// Makes room for `n` allocations without sweeping, growing the file
    /// up to (never past) its sweep threshold. Returns `true` when the free
    /// list is still too short: the caller should sweep, after which
    /// [`PhysRegFile::alloc`] grows past the threshold only if the sweep
    /// freed too little.
    pub fn grow_for(&mut self, n: usize) -> bool {
        while self.free.len() < n && self.regs.len() < self.sweep_at {
            self.grow();
        }
        self.free.len() < n
    }

    /// Frees every register not named by `roots` (the zero register is
    /// always kept), calling `on_free` once per register this sweep frees,
    /// and resets the sweep threshold from the surviving live count.
    pub fn sweep(
        &mut self,
        roots: impl IntoIterator<Item = PhysRegId>,
        mut on_free: impl FnMut(PhysRegId),
    ) {
        self.marked.clear();
        self.marked.resize(self.regs.len(), false);
        self.marked[PhysRegId::ZERO.index()] = true;
        for id in roots {
            self.marked[id.index()] = true;
        }
        self.free.clear();
        for i in (0..self.regs.len()).rev() {
            if self.marked[i] {
                continue;
            }
            let id = PhysRegId(i as u32);
            if self.allocated[i] {
                self.allocated[i] = false;
                on_free(id);
            }
            self.free.push(id);
        }
        let live = self.regs.len() - self.free.len();
        self.live_high_water = self.live_high_water.max(live);
        self.sweep_at = SWEEP_FLOOR.max(2 * live);
    }

    /// Registers the file holds, live or free (its capacity).
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// Never empty (the zero register always exists).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The largest live set any sweep has found (0 before the first sweep).
    pub fn live_high_water(&self) -> usize {
        self.live_high_water
    }
}

impl Default for PhysRegFile {
    fn default() -> PhysRegFile {
        PhysRegFile::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_is_always_readable() {
        let f = PhysRegFile::new();
        assert!(f.readable_by(PhysRegId::ZERO, 0, 0));
        assert!(f.readable_by(PhysRegId::ZERO, 7, 123456));
        assert_eq!(f.get(PhysRegId::ZERO).value, 0);
    }

    #[test]
    #[should_panic(expected = "immutable")]
    fn zero_register_cannot_be_written() {
        let mut f = PhysRegFile::new();
        f.get_mut(PhysRegId::ZERO).value = 5;
    }

    #[test]
    fn fresh_registers_are_not_ready() {
        let mut f = PhysRegFile::new();
        let p = f.alloc(Some(2));
        assert!(!f.readable_by(p, 2, 100));
    }

    #[test]
    fn local_vs_global_visibility() {
        let mut f = PhysRegFile::new();
        let p = f.alloc(Some(1));
        {
            let r = f.get_mut(p);
            r.value = 9;
            r.ready = true;
            r.local_ready_at = 10;
            r.global_ready_at = 12;
        }
        // Producer PE 1 sees it from cycle 10; PE 2 only from cycle 12.
        assert!(!f.readable_by(p, 1, 9));
        assert!(f.readable_by(p, 1, 10));
        assert!(!f.readable_by(p, 2, 11));
        assert!(f.readable_by(p, 2, 12));
    }

    #[test]
    fn alloc_ready_is_globally_visible() {
        let mut f = PhysRegFile::new();
        let p = f.alloc_ready(-3);
        assert!(f.readable_by(p, 5, 0));
        assert_eq!(f.get(p).value, -3);
    }

    #[test]
    fn sweep_frees_unrooted_registers_and_reuse_starts_fresh() {
        let mut f = PhysRegFile::new();
        let kept = f.alloc(Some(1));
        let dead = f.alloc(Some(2));
        {
            let r = f.get_mut(dead);
            r.value = 7;
            r.ready = true;
            r.local_ready_at = 3;
            r.global_ready_at = 4;
        }
        let mut freed = Vec::new();
        f.sweep([kept], |id| freed.push(id));
        assert_eq!(freed, vec![dead]);
        assert!(f.is_allocated(kept) && !f.is_allocated(dead));
        assert!(f.is_allocated(PhysRegId::ZERO), "the zero register is never freed");
        let reused = f.alloc(Some(5));
        assert_eq!(reused, dead, "the free list is reused before the file grows");
        assert_eq!(f.len(), 3);
        let r = f.get(reused);
        assert_eq!(
            (r.value, r.ready, r.local_ready_at, r.global_ready_at, r.producer_pe),
            (0, false, u64::MAX, u64::MAX, Some(5))
        );
        assert_eq!(f.live_high_water(), 2, "the zero register and `kept`");
    }

    #[test]
    fn growth_stops_at_the_threshold_which_tracks_twice_the_live_set() {
        let mut f = PhysRegFile::new();
        assert!(!f.grow_for(32));
        assert_eq!(f.len(), 33, "below the floor the file grows on demand");
        let live: Vec<PhysRegId> = (1..SWEEP_FLOOR).map(|_| f.alloc(None)).collect();
        assert_eq!(f.len(), SWEEP_FLOOR);
        assert!(f.grow_for(1), "at the floor with an empty free list: sweep");
        assert_eq!(f.len(), SWEEP_FLOOR, "never grown past the threshold");
        f.sweep(live.iter().copied(), |_| panic!("every register is rooted"));
        assert!(!f.grow_for(SWEEP_FLOOR), "the threshold doubled to the live set");
        assert_eq!(f.len(), 2 * SWEEP_FLOOR);
        assert!(f.grow_for(SWEEP_FLOOR + 1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "freed physical register")]
    fn reading_a_freed_register_fails_loudly() {
        let mut f = PhysRegFile::new();
        let p = f.alloc(None);
        f.sweep([], |_| {});
        let _ = f.get(p);
    }
}
