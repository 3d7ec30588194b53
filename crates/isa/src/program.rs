//! Programs: instruction images plus initial data.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::RangeBounds;
use std::sync::{Arc, OnceLock};

use crate::mem::DataImage;
use crate::{Addr, Inst, Pc, Word};

/// A complete executable program: an instruction image, an entry point and an
/// initial data image.
///
/// The data image is a [`DataImage`]: ascending 64-word pages in the one
/// page layout of [`tp_isa::mem`](crate::mem), which the assemblers write
/// straight into. The program freezes it once and holds it behind an
/// `Arc`: every [`PagedMem`](crate::mem::PagedMem) booted from the program
/// shares its pages copy-on-write, and cloning the program shares them
/// too.
///
/// Programs are produced by the [`asm::Asm`](crate::asm::Asm) assembler (or
/// the [`synth`](crate::synth) generator) and consumed by both the functional
/// simulator and the trace processor. `Program::validate` checks the static
/// well-formedness invariants that the rest of the system relies on.
#[derive(Clone, Debug)]
pub struct Program {
    name: String,
    insts: Vec<Inst>,
    entry: Pc,
    data: Arc<DataImage>,
    /// Data-image addresses whose words are known to hold code pointers
    /// (instruction PCs): jump-table slots and function-pointer slots. Pure
    /// metadata for static analysis — execution and checkpoint fingerprints
    /// ignore it.
    code_ptrs: BTreeSet<Addr>,
    /// [`Program::fingerprint`], computed on first use: hashing a large
    /// data image is not free, and most programs are never checkpointed.
    fingerprint: OnceLock<u64>,
}

/// Equality is over the program's contents; the fingerprint cache is
/// derived from them and ignored.
impl PartialEq for Program {
    fn eq(&self, other: &Program) -> bool {
        self.name == other.name
            && self.insts == other.insts
            && self.entry == other.entry
            && self.data == other.data
            && self.code_ptrs == other.code_ptrs
    }
}

impl Eq for Program {}

/// Error returned when a [`Program`] fails validation.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variant docs name every field
pub enum ProgramError {
    /// The program contains no instructions.
    Empty,
    /// The entry point is out of range.
    EntryOutOfRange { entry: Pc, len: usize },
    /// A direct control transfer targets a PC outside the program.
    TargetOutOfRange { pc: Pc, target: Pc, len: usize },
    /// The program exceeds the maximum supported size (2^24 instructions).
    TooLarge { len: usize },
    /// A data-image address is not 8-byte aligned (the lowest one is
    /// named).
    UnalignedData { addr: Addr },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ProgramError::Empty => write!(f, "program has no instructions"),
            ProgramError::EntryOutOfRange { entry, len } => {
                write!(f, "entry point {entry} out of range for program of {len} instructions")
            }
            ProgramError::TargetOutOfRange { pc, target, len } => {
                write!(
                    f,
                    "instruction at {pc} targets {target}, out of range for {len} instructions"
                )
            }
            ProgramError::TooLarge { len } => {
                write!(f, "program of {len} instructions is too large")
            }
            ProgramError::UnalignedData { addr } => {
                write!(f, "data image address {addr:#x} is not 8-byte aligned")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Maximum supported program size in instructions.
    pub const MAX_LEN: usize = 1 << 24;

    /// Creates and validates a program.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if the program is empty, too large, has an
    /// out-of-range entry point or direct branch target, or has an unaligned
    /// data-image address.
    pub fn new(
        name: impl Into<String>,
        insts: Vec<Inst>,
        entry: Pc,
        data: impl IntoIterator<Item = (Addr, Word)>,
    ) -> Result<Program, ProgramError> {
        Program::from_image(name, insts, entry, data.into_iter().collect())
    }

    /// Creates and validates a program around a built data image (the
    /// assemblers' path: the pages move in, nothing is copied). The image
    /// is frozen here, once: spare capacity released and its page index
    /// built.
    ///
    /// # Errors
    ///
    /// As [`Program::new`].
    pub fn from_image(
        name: impl Into<String>,
        insts: Vec<Inst>,
        entry: Pc,
        mut data: DataImage,
    ) -> Result<Program, ProgramError> {
        data.freeze();
        let program = Program {
            name: name.into(),
            insts,
            entry,
            data: Arc::new(data),
            code_ptrs: BTreeSet::new(),
            fingerprint: OnceLock::new(),
        };
        program.validate()?;
        Ok(program)
    }

    /// Attaches code-pointer metadata: the data-image addresses whose words
    /// are resolved instruction PCs (jump-table and function-pointer slots).
    ///
    /// Both assemblers record these automatically (synth `data_label`, RV64
    /// `.wordpc`); static analysis uses them to bound indirect-transfer
    /// targets. Addresses must name existing data words.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::UnalignedData`] if an address is not 8-byte
    /// aligned or does not name a word present in the data image.
    pub fn with_code_ptrs(
        mut self,
        addrs: impl IntoIterator<Item = Addr>,
    ) -> Result<Program, ProgramError> {
        for addr in addrs {
            if self.data.get(addr).is_none() {
                return Err(ProgramError::UnalignedData { addr });
            }
            self.code_ptrs.insert(addr);
        }
        Ok(self)
    }

    fn validate(&self) -> Result<(), ProgramError> {
        let len = self.insts.len();
        if len == 0 {
            return Err(ProgramError::Empty);
        }
        if len > Program::MAX_LEN {
            return Err(ProgramError::TooLarge { len });
        }
        if self.entry as usize >= len {
            return Err(ProgramError::EntryOutOfRange { entry: self.entry, len });
        }
        for (pc, inst) in self.insts.iter().enumerate() {
            let (Inst::Branch { target, .. } | Inst::Jump { target } | Inst::Call { target }) =
                *inst
            else {
                continue;
            };
            if target as usize >= len {
                return Err(ProgramError::TargetOutOfRange { pc: pc as Pc, target, len });
            }
        }
        match self.data.first_unaligned() {
            Some(addr) => Err(ProgramError::UnalignedData { addr }),
            None => Ok(()),
        }
    }

    /// The program's name (used in reports and error messages).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction image.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions (never true for a validated
    /// program).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The entry point.
    pub fn entry(&self) -> Pc {
        self.entry
    }

    /// The initial data image as ascending `(byte address, word)` pairs.
    pub fn data(&self) -> impl Iterator<Item = (Addr, Word)> + '_ {
        self.data.iter()
    }

    /// The initial data word at byte address `addr`, or `None` when the
    /// image holds none there.
    pub fn data_word(&self, addr: Addr) -> Option<Word> {
        self.data.get(addr)
    }

    /// The initial data image's pages, frozen and shared: the memories
    /// booted from this program read them in place and copy a page only
    /// when they first write it, so the image never changes after
    /// [`Program::from_image`].
    pub fn image(&self) -> &Arc<DataImage> {
        &self.data
    }

    /// The initial data words whose byte addresses fall in `addrs`, as
    /// ascending `(byte address, word)` pairs.
    pub fn data_range(
        &self,
        addrs: impl RangeBounds<Addr>,
    ) -> impl Iterator<Item = (Addr, Word)> + '_ {
        self.data.range(addrs)
    }

    /// A stable FNV-1a fingerprint of the program: name, entry point,
    /// instruction image and initial data (not the code-pointer metadata).
    /// Checkpoints record it and verify it at load, since a checkpoint is
    /// meaningless against any other program. Computed once, on first use.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let mut mix_bytes = |bytes: &[u8]| {
                for &b in bytes {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x1000_0000_01b3);
                }
            };
            mix_bytes(self.name.as_bytes());
            mix_bytes(&(self.entry as u64).to_le_bytes());
            mix_bytes(&(self.len() as u64).to_le_bytes());
            for inst in &self.insts {
                mix_bytes(format!("{inst}").as_bytes());
            }
            for (addr, word) in self.data() {
                mix_bytes(&addr.to_le_bytes());
                mix_bytes(&word.to_le_bytes());
            }
            h
        })
    }

    /// Data-image addresses known to hold code pointers (see
    /// [`Program::with_code_ptrs`]), in ascending order.
    pub fn code_ptrs(&self) -> impl Iterator<Item = Addr> + '_ {
        self.code_ptrs.iter().copied()
    }

    /// Fetches the instruction at `pc`, or `None` when out of range.
    ///
    /// The timing simulator treats out-of-range fetches (which can only occur
    /// on mispredicted paths through indirect jumps) as fetch stalls.
    #[inline]
    pub fn fetch(&self, pc: Pc) -> Option<Inst> {
        self.insts.get(pc as usize).copied()
    }

    /// Whether `pc` is a valid instruction address.
    #[inline]
    pub fn contains(&self, pc: Pc) -> bool {
        (pc as usize) < self.insts.len()
    }

    /// Counts the static conditional branches in the program.
    pub fn static_cond_branches(&self) -> usize {
        self.insts.iter().filter(|i| i.is_cond_branch()).count()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {} (entry @{}, {} instructions)", self.name, self.entry, self.len())?;
        for (pc, inst) in self.insts.iter().enumerate() {
            writeln!(f, "{pc:6}: {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AluOp, Cond, Reg};

    fn nop_program(n: usize) -> Vec<Inst> {
        let mut v = vec![Inst::Nop; n];
        if n > 0 {
            v[n - 1] = Inst::Halt;
        }
        v
    }

    #[test]
    fn empty_program_is_rejected() {
        assert_eq!(Program::new("t", vec![], 0, []), Err(ProgramError::Empty));
    }

    #[test]
    fn entry_out_of_range_is_rejected() {
        let err = Program::new("t", nop_program(3), 3, []).unwrap_err();
        assert!(matches!(err, ProgramError::EntryOutOfRange { entry: 3, len: 3 }));
    }

    #[test]
    fn branch_target_out_of_range_is_rejected() {
        let insts = vec![
            Inst::Branch { cond: Cond::Eq, rs: Reg::ZERO, rt: Reg::ZERO, target: 9 },
            Inst::Halt,
        ];
        let err = Program::new("t", insts, 0, []).unwrap_err();
        assert!(matches!(err, ProgramError::TargetOutOfRange { pc: 0, target: 9, .. }));
    }

    #[test]
    fn unaligned_data_is_rejected() {
        let err = Program::new("t", nop_program(1), 0, [(3u64, 7i64)]).unwrap_err();
        assert!(matches!(err, ProgramError::UnalignedData { addr: 3 }));
    }

    #[test]
    fn valid_program_roundtrips_accessors() {
        let insts = vec![
            Inst::AluImm { op: AluOp::Add, rd: Reg::new(1), rs: Reg::ZERO, imm: 7 },
            Inst::Halt,
        ];
        let p = Program::new("t", insts.clone(), 0, [(8u64, 42i64)]).unwrap();
        assert_eq!(p.name(), "t");
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.entry(), 0);
        assert_eq!(p.insts(), &insts[..]);
        assert_eq!(p.fetch(0), Some(insts[0]));
        assert_eq!(p.fetch(2), None);
        assert!(p.contains(1));
        assert!(!p.contains(2));
        assert_eq!(p.data().collect::<Vec<_>>(), vec![(8, 42)]);
        assert_eq!(p.static_cond_branches(), 0);
    }

    #[test]
    fn code_ptrs_must_name_existing_aligned_words() {
        let p = Program::new("t", nop_program(2), 0, [(8u64, 1i64), (16u64, 0i64)]).unwrap();
        assert_eq!(p.code_ptrs().count(), 0);
        let p = p.with_code_ptrs([16u64, 8u64]).unwrap();
        assert_eq!(p.code_ptrs().collect::<Vec<_>>(), vec![8, 16]);
        // An address with no backing data word is rejected.
        let p2 = Program::new("t", nop_program(2), 0, [(8u64, 1i64)]).unwrap();
        assert!(p2.with_code_ptrs([24u64]).is_err());
    }

    #[test]
    fn display_lists_instructions() {
        let p = Program::new("t", nop_program(2), 0, []).unwrap();
        let s = p.to_string();
        assert!(s.contains("program t"));
        assert!(s.contains("halt"));
    }

    #[test]
    fn error_display_messages() {
        assert!(ProgramError::Empty.to_string().contains("no instructions"));
        assert!(ProgramError::UnalignedData { addr: 3 }.to_string().contains("aligned"));
    }

    /// The page image answers every data query exactly as an ordered map
    /// of the same writes does: random order, repeated addresses (the last
    /// write wins), explicit zeros, and ranges whose bounds fall inside,
    /// on and across page boundaries.
    #[test]
    fn page_image_matches_an_ordered_map_reference() {
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;
        use std::ops::Bound;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1a9e);
        for round in 0..40 {
            // Words over a few pages, some far apart, a quarter of them zero.
            let spread = [40u64, 200, 5_000][round % 3];
            let mut writes = Vec::new();
            for _ in 0..rng.gen_range(0..300usize) {
                let word = rng.gen_range(0..spread) + [0, 1 << 20][rng.gen_range(0..2usize)];
                let value = if rng.gen_range(0..4) == 0 { 0 } else { rng.gen_range(-99..99i64) };
                writes.push((8 * word, value));
            }
            let reference: BTreeMap<Addr, Word> = writes.iter().copied().collect();
            let p = Program::new("t", nop_program(1), 0, writes.iter().copied()).unwrap();
            let want = Program::new("t", nop_program(1), 0, reference.clone()).unwrap();
            assert_eq!(p.data().collect::<BTreeMap<_, _>>(), reference, "round {round}");
            assert!(p.data().map(|(a, _)| a).is_sorted(), "data() ascends");
            assert_eq!(p.fingerprint(), want.fingerprint(), "write order must not matter");
            assert_eq!(p, want);
            for _ in 0..20 {
                let addr =
                    8 * rng.gen_range(0..spread + 70) + [0, 1 << 23][rng.gen_range(0..2usize)];
                let probe = addr + [0, 0, 3][rng.gen_range(0..3usize)];
                assert_eq!(p.data_word(probe), reference.get(&probe).copied(), "word {probe:#x}");
                // Bounds on, inside and across 512-byte pages.
                let lo = addr - addr % 512 + [0, 8, 504, 5][rng.gen_range(0..4usize)];
                let hi = lo + rng.gen_range(1..2_000u64);
                let bounds = [
                    (Bound::Included(lo), Bound::Included(hi)),
                    (Bound::Excluded(lo), Bound::Excluded(hi)),
                    (Bound::Unbounded, Bound::Excluded(hi)),
                    (Bound::Included(lo), Bound::Unbounded),
                ];
                for b in bounds {
                    let got: Vec<_> = p.data_range(b).collect();
                    let want: Vec<_> = reference.range(b).map(|(&a, &w)| (a, w)).collect();
                    assert_eq!(got, want, "range {b:?}");
                }
            }
        }
        let empty = Program::new("t", nop_program(1), 0, [(8u64, 1i64)]).unwrap();
        assert_eq!(empty.data_range(8..8).count(), 0);
        assert_eq!(empty.data_range((Bound::Excluded(u64::MAX), Bound::Unbounded)).count(), 0);
    }

    /// An unaligned address is named whatever the write order, and it is
    /// the lowest one, as an ordered scan of the image would find.
    #[test]
    fn unaligned_data_names_the_lowest_unaligned_address() {
        let writes = [(0x40u64, 1i64), (0x31, 2), (0x100, 3), (0x13, 4), (0x2000, 5)];
        for rotation in 0..writes.len() {
            let mut order = writes.to_vec();
            order.rotate_left(rotation);
            let err = Program::new("t", nop_program(1), 0, order).unwrap_err();
            assert_eq!(err, ProgramError::UnalignedData { addr: 0x13 });
        }
        let mut a = crate::asm::Asm::new("t");
        a.halt();
        a.data_words(0x205, &[1, 2]);
        a.data_word(0x300, 0);
        let err = a.assemble().unwrap_err();
        assert_eq!(err, crate::asm::AsmError::Program(ProgramError::UnalignedData { addr: 0x205 }));
    }

    /// The fingerprint is pinned (checkpoint files record it), and the
    /// lazily filled cache plays no part in equality.
    #[test]
    fn fingerprint_is_stable_and_ignored_by_eq() {
        let mut a = crate::asm::Asm::new("fpr");
        a.li(Reg::new(1), 5);
        a.store(Reg::new(1), Reg::ZERO, 0x108);
        a.halt();
        a.data_word(0x100, -7);
        a.data_word(0x4000, 99);
        let p = a.assemble().unwrap();
        let fresh = p.clone();
        assert_eq!(p.fingerprint(), 0x2a28_84f9_e381_6d84);
        assert_eq!(p, fresh, "a filled cache must not break equality");
        assert_eq!(fresh.fingerprint(), p.fingerprint());
    }
}
