//! Programs: instruction images plus initial data.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::RangeBounds;
use std::sync::OnceLock;

use crate::{Addr, Inst, Pc, Word};

/// A complete executable program: an instruction image, an entry point and an
/// initial data image.
///
/// Programs are produced by the [`asm::Asm`](crate::asm::Asm) assembler (or
/// the [`synth`](crate::synth) generator) and consumed by both the functional
/// simulator and the trace processor. [`Program::validate`] checks the static
/// well-formedness invariants that the rest of the system relies on.
#[derive(Clone, Debug)]
pub struct Program {
    name: String,
    insts: Vec<Inst>,
    entry: Pc,
    data: BTreeMap<Addr, Word>,
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
    /// A data-image address is not 8-byte aligned.
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
        let program = Program {
            name: name.into(),
            insts,
            entry,
            data: data.into_iter().collect(),
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
            if addr % 8 != 0 || !self.data.contains_key(&addr) {
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
        for &addr in self.data.keys() {
            if addr % 8 != 0 {
                return Err(ProgramError::UnalignedData { addr });
            }
        }
        Ok(())
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

    /// The initial data image as `(byte address, word)` pairs.
    pub fn data(&self) -> impl Iterator<Item = (Addr, Word)> + '_ {
        self.data.iter().map(|(&a, &w)| (a, w))
    }

    /// The initial data words whose byte addresses fall in `addrs`, as
    /// ascending `(byte address, word)` pairs.
    pub fn data_range(
        &self,
        addrs: impl RangeBounds<Addr>,
    ) -> impl Iterator<Item = (Addr, Word)> + '_ {
        self.data.range(addrs).map(|(&a, &w)| (a, w))
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
