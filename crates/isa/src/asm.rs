//! A small assembler with labels.
//!
//! [`Asm`] is the builder used throughout the repository (workloads, tests,
//! examples) to write programs: it resolves forward label references, places
//! data words, and can embed resolved instruction addresses into the data
//! image (for jump tables). [`PendingData`] is the data side, shared with
//! the RV64 assembler.

use std::collections::HashMap;
use std::fmt;

use crate::mem::DataImage;
use crate::{Addr, AluOp, Cond, Inst, Pc, Program, ProgramError, Reg, Word};

/// A branch/jump target: either an already-resolved PC or a named label.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Target {
    /// Kept for future use by programmatic builders; labels are the common case.
    #[allow(dead_code)]
    Pc(Pc),
    Label(String),
}

#[derive(Clone, Debug)]
enum Pending {
    Ready(Inst),
    Branch { cond: Cond, rs: Reg, rt: Reg, target: Target },
    Jump { target: Target },
    Call { target: Target },
}

/// A data image under assembly: value words go straight into its pages;
/// label slots (words that will hold a label's resolved PC) wait in a
/// small side list until [`PendingData::resolve`].
///
/// Writes keep program order: when a value word and a label slot share an
/// address, the later one supplies the word. Every label slot is a code
/// pointer, whether or not a later value overwrote it.
#[derive(Clone, Debug, Default)]
pub struct PendingData {
    image: DataImage,
    slots: Vec<LabelSlot>,
}

#[derive(Clone, Debug)]
struct LabelSlot {
    addr: Addr,
    label: String,
    /// False once a later value word landed on `addr`.
    live: bool,
}

impl PendingData {
    /// Places `value` at byte address `addr`.
    pub fn word(&mut self, addr: Addr, value: Word) {
        self.image.write(addr, value);
        self.supersede(addr, addr);
    }

    /// Places `values` at consecutive words from byte address `base`.
    pub fn words(&mut self, base: Addr, values: &[Word]) {
        self.image.write_words(base, values);
        self.supersede_run(base, values.len());
    }

    /// Places `values.len()` words, taken from `values` in order, at
    /// consecutive words from byte address `base`: a generated array goes
    /// straight into the pages, with no staging copy.
    pub fn words_iter(&mut self, base: Addr, values: impl ExactSizeIterator<Item = Word>) {
        let len = values.len();
        self.image.write_iter(base, values);
        self.supersede_run(base, len);
    }

    /// Places the resolved PC of `label` at byte address `addr`. The
    /// slot's page is claimed now (the word reads zero until
    /// [`PendingData::resolve`]), so resolving it never inserts a page in
    /// front of a bulk array placed later.
    pub fn label(&mut self, addr: Addr, label: String) {
        self.image.write(addr, 0);
        self.slots.push(LabelSlot { addr, label, live: true });
    }

    /// [`PendingData::supersede`] over the `len` words from `base`.
    fn supersede_run(&mut self, base: Addr, len: usize) {
        if let Some(last) = len.checked_sub(1) {
            self.supersede(base, base.saturating_add(8 * last as Addr));
        }
    }

    /// Retires the label slots in `lo..=hi`: a value word written there
    /// later wins.
    fn supersede(&mut self, lo: Addr, hi: Addr) {
        for slot in self.slots.iter_mut().filter(|s| (lo..=hi).contains(&s.addr)) {
            slot.live = false;
        }
    }

    /// Resolves every label slot through `pc_of` (an unknown label fails
    /// even where a later value overwrote the slot) and returns the
    /// finished image with the code-pointer addresses.
    ///
    /// # Errors
    ///
    /// The first error `pc_of` returns.
    pub fn resolve<E>(
        self,
        mut pc_of: impl FnMut(&str) -> Result<Pc, E>,
    ) -> Result<(DataImage, Vec<Addr>), E> {
        let mut image = self.image;
        let mut code_ptrs = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let pc = pc_of(&slot.label)?;
            if slot.live {
                image.write(slot.addr, pc as Word);
            }
            code_ptrs.push(slot.addr);
        }
        Ok((image, code_ptrs))
    }
}

/// Error produced by [`Asm::assemble`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsmError {
    /// A label was defined more than once.
    DuplicateLabel(String),
    /// A referenced label was never defined.
    UnknownLabel(String),
    /// The resolved program failed [`Program`] validation.
    Program(ProgramError),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::DuplicateLabel(l) => write!(f, "label `{l}` defined twice"),
            AsmError::UnknownLabel(l) => write!(f, "label `{l}` referenced but never defined"),
            AsmError::Program(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for AsmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AsmError::Program(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProgramError> for AsmError {
    fn from(e: ProgramError) -> AsmError {
        AsmError::Program(e)
    }
}

/// An assembler for [`Program`]s.
///
/// # Example
///
/// ```
/// use tp_isa::{asm::Asm, Cond, Reg};
///
/// let mut a = Asm::new("count");
/// let r1 = Reg::new(1);
/// a.li(r1, 3);
/// a.label("top");
/// a.addi(r1, r1, -1);
/// a.branch(Cond::Gt, r1, Reg::ZERO, "top");
/// a.halt();
/// let program = a.assemble()?;
/// assert_eq!(program.len(), 4);
/// # Ok::<(), tp_isa::asm::AsmError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Asm {
    name: String,
    insts: Vec<Pending>,
    labels: HashMap<String, Pc>,
    duplicate: Option<String>,
    data: PendingData,
    entry: Option<Target>,
    fresh: u64,
}

impl Asm {
    /// Creates an empty assembler for a program called `name`.
    pub fn new(name: impl Into<String>) -> Asm {
        Asm { name: name.into(), ..Asm::default() }
    }

    /// The PC of the next instruction to be emitted.
    pub fn here(&self) -> Pc {
        self.insts.len() as Pc
    }

    /// Defines `label` at the current position.
    ///
    /// Duplicate definitions are reported by [`Asm::assemble`].
    pub fn label(&mut self, label: impl Into<String>) {
        let label = label.into();
        let here = self.here();
        if self.labels.insert(label.clone(), here).is_some() && self.duplicate.is_none() {
            self.duplicate = Some(label);
        }
    }

    /// Returns a new unique label with the given prefix.
    pub fn fresh_label(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}${}", self.fresh)
    }

    /// The PC a defined label resolves to, or `None` if the label has not
    /// been defined (yet). Useful for exporting ground-truth metadata about
    /// an emitted program after all labels have been placed.
    pub fn resolve_label(&self, label: &str) -> Option<Pc> {
        self.labels.get(label).copied()
    }

    /// Sets the program entry point to `label` (defaults to PC 0).
    pub fn set_entry(&mut self, label: impl Into<String>) {
        self.entry = Some(Target::Label(label.into()));
    }

    /// Emits a raw instruction.
    pub fn inst(&mut self, inst: Inst) {
        self.insts.push(Pending::Ready(inst));
    }

    /// Emits `rd = op(rs, rt)`.
    pub fn alu(&mut self, op: AluOp, rd: Reg, rs: Reg, rt: Reg) {
        self.inst(Inst::Alu { op, rd, rs, rt });
    }

    /// Emits `rd = op(rs, imm)`.
    pub fn alui(&mut self, op: AluOp, rd: Reg, rs: Reg, imm: i32) {
        self.inst(Inst::AluImm { op, rd, rs, imm });
    }

    /// Emits `rd = rs + rt`.
    pub fn add(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.alu(AluOp::Add, rd, rs, rt);
    }

    /// Emits `rd = rs + imm`.
    pub fn addi(&mut self, rd: Reg, rs: Reg, imm: i32) {
        self.alui(AluOp::Add, rd, rs, imm);
    }

    /// Emits `rd = imm` (load immediate).
    pub fn li(&mut self, rd: Reg, imm: i32) {
        self.alui(AluOp::Add, rd, Reg::ZERO, imm);
    }

    /// Emits a 64-bit load immediate (up to three instructions).
    pub fn li64(&mut self, rd: Reg, value: Word) {
        if let Ok(imm) = i32::try_from(value) {
            self.li(rd, imm);
            return;
        }
        // Build the value 16 bits at a time: OR immediates stay positive and
        // below 2^16, so sign extension of the immediate can never corrupt
        // already-placed high bits.
        let hi = (value >> 32) as i32;
        let lo_hi = ((value >> 16) & 0xffff) as i32;
        let lo_lo = (value & 0xffff) as i32;
        self.li(rd, hi);
        self.alui(AluOp::Shl, rd, rd, 16);
        if lo_hi != 0 {
            self.alui(AluOp::Or, rd, rd, lo_hi);
        }
        self.alui(AluOp::Shl, rd, rd, 16);
        if lo_lo != 0 {
            self.alui(AluOp::Or, rd, rd, lo_lo);
        }
    }

    /// Emits `rd = rs` (register move).
    pub fn mv(&mut self, rd: Reg, rs: Reg) {
        self.alu(AluOp::Add, rd, rs, Reg::ZERO);
    }

    /// Emits `rd = mem[base + offset]`.
    pub fn load(&mut self, rd: Reg, base: Reg, offset: i32) {
        self.inst(Inst::Load { rd, base, offset });
    }

    /// Emits `mem[base + offset] = rs`.
    pub fn store(&mut self, rs: Reg, base: Reg, offset: i32) {
        self.inst(Inst::Store { rs, base, offset });
    }

    /// Emits a conditional branch to `label`.
    pub fn branch(&mut self, cond: Cond, rs: Reg, rt: Reg, label: impl Into<String>) {
        self.insts.push(Pending::Branch { cond, rs, rt, target: Target::Label(label.into()) });
    }

    /// Emits an unconditional jump to `label`.
    pub fn jump(&mut self, label: impl Into<String>) {
        self.insts.push(Pending::Jump { target: Target::Label(label.into()) });
    }

    /// Emits a direct call to `label`.
    pub fn call(&mut self, label: impl Into<String>) {
        self.insts.push(Pending::Call { target: Target::Label(label.into()) });
    }

    /// Emits an indirect jump through `rs`.
    pub fn jump_indirect(&mut self, rs: Reg) {
        self.inst(Inst::JumpIndirect { rs });
    }

    /// Emits an indirect call through `rs`.
    pub fn call_indirect(&mut self, rs: Reg) {
        self.inst(Inst::CallIndirect { rs });
    }

    /// Emits a return.
    pub fn ret(&mut self) {
        self.inst(Inst::Ret);
    }

    /// Emits a halt.
    pub fn halt(&mut self) {
        self.inst(Inst::Halt);
    }

    /// Emits a no-op.
    pub fn nop(&mut self) {
        self.inst(Inst::Nop);
    }

    /// Places `value` at byte address `addr` in the initial data image.
    pub fn data_word(&mut self, addr: Addr, value: Word) {
        self.data.word(addr, value);
    }

    /// Places `values` at consecutive words from byte address `base` in the
    /// initial data image (one bulk write for a whole array).
    pub fn data_words(&mut self, base: Addr, values: &[Word]) {
        self.data.words(base, values);
    }

    /// Places the resolved PC of `label` (as a plain integer) at byte address
    /// `addr` in the data image. Used to build jump tables for
    /// [`Inst::JumpIndirect`].
    pub fn data_label(&mut self, addr: Addr, label: impl Into<String>) {
        self.data.label(addr, label.into());
    }

    /// Resolves all labels and produces a validated [`Program`].
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] for duplicate/unknown labels or if the
    /// resolved program fails validation.
    pub fn assemble(self) -> Result<Program, AsmError> {
        if let Some(dup) = self.duplicate {
            return Err(AsmError::DuplicateLabel(dup));
        }
        let resolve = |t: &Target| -> Result<Pc, AsmError> {
            match t {
                Target::Pc(pc) => Ok(*pc),
                Target::Label(l) => {
                    self.labels.get(l).copied().ok_or_else(|| AsmError::UnknownLabel(l.clone()))
                }
            }
        };
        let mut insts = Vec::with_capacity(self.insts.len());
        for p in &self.insts {
            let inst = match p {
                Pending::Ready(i) => *i,
                Pending::Branch { cond, rs, rt, target } => {
                    Inst::Branch { cond: *cond, rs: *rs, rt: *rt, target: resolve(target)? }
                }
                Pending::Jump { target } => Inst::Jump { target: resolve(target)? },
                Pending::Call { target } => Inst::Call { target: resolve(target)? },
            };
            insts.push(inst);
        }
        let entry = match &self.entry {
            None => 0,
            Some(t) => resolve(t)?,
        };
        // Slots placed via `data_label` hold resolved instruction PCs; they
        // become code-pointer metadata so static analysis can bound the
        // targets of indirect jumps and calls.
        let labels = &self.labels;
        let (data, code_ptrs) = self.data.resolve(|l| {
            labels.get(l).copied().ok_or_else(|| AsmError::UnknownLabel(l.to_string()))
        })?;
        Ok(Program::from_image(self.name, insts, entry, data)?.with_code_ptrs(code_ptrs)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::Machine;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut a = Asm::new("t");
        let r1 = Reg::new(1);
        a.li(r1, 2);
        a.label("top");
        a.branch(Cond::Eq, r1, Reg::ZERO, "done"); // forward reference
        a.addi(r1, r1, -1);
        a.jump("top"); // backward reference
        a.label("done");
        a.halt();
        let p = a.assemble().unwrap();
        assert!(matches!(p.insts()[1], Inst::Branch { target: 4, .. }));
        assert!(matches!(p.insts()[3], Inst::Jump { target: 1 }));
    }

    #[test]
    fn duplicate_label_is_reported() {
        let mut a = Asm::new("t");
        a.label("x");
        a.nop();
        a.label("x");
        a.halt();
        assert_eq!(a.assemble().unwrap_err(), AsmError::DuplicateLabel("x".into()));
    }

    #[test]
    fn unknown_label_is_reported() {
        let mut a = Asm::new("t");
        a.jump("nowhere");
        a.halt();
        assert_eq!(a.assemble().unwrap_err(), AsmError::UnknownLabel("nowhere".into()));
    }

    #[test]
    fn entry_label_is_used() {
        let mut a = Asm::new("t");
        a.nop();
        a.label("main");
        a.halt();
        a.set_entry("main");
        let p = a.assemble().unwrap();
        assert_eq!(p.entry(), 1);
    }

    #[test]
    fn data_label_embeds_pc() {
        let mut a = Asm::new("t");
        a.nop();
        a.label("tgt");
        a.halt();
        a.data_label(0x100, "tgt");
        a.data_word(0x108, -9);
        let p = a.assemble().unwrap();
        let data: Vec<_> = p.data().collect();
        assert_eq!(data, vec![(0x100, 1), (0x108, -9)]);
        // The jump-table slot is recorded as code-pointer metadata; the plain
        // data word is not.
        assert_eq!(p.code_ptrs().collect::<Vec<_>>(), vec![0x100]);
    }

    /// A value word and a label slot on one address: the later write
    /// supplies the word, and the slot stays a code pointer either way.
    #[test]
    fn label_and_value_slots_sharing_an_address_keep_program_order() {
        let mut a = Asm::new("t");
        a.nop();
        a.label("tgt");
        a.halt();
        a.data_label(0x100, "tgt");
        a.data_word(0x100, -5); // value after label: the value wins
        a.data_word(0x108, 7);
        a.data_label(0x108, "tgt"); // label after value: the PC wins
        a.data_label(0x110, "tgt");
        a.data_words(0x0f8, &[1, 2, 3, 4]); // bulk over two slots
        a.data_label(0x118, "tgt"); // relabels the bulk word
        let p = a.assemble().unwrap();
        assert_eq!(
            p.data().collect::<Vec<_>>(),
            vec![(0xf8, 1), (0x100, 2), (0x108, 3), (0x110, 4), (0x118, 1)]
        );
        assert_eq!(p.code_ptrs().collect::<Vec<_>>(), vec![0x100, 0x108, 0x110, 0x118]);
        // An overwritten slot's label must still resolve.
        let mut a = Asm::new("t");
        a.halt();
        a.data_label(0x100, "missing");
        a.data_word(0x100, 1);
        assert_eq!(a.assemble().unwrap_err(), AsmError::UnknownLabel("missing".into()));
    }

    #[test]
    fn resolve_label_reads_the_symbol_table() {
        let mut a = Asm::new("t");
        a.nop();
        a.label("tgt");
        a.halt();
        assert_eq!(a.resolve_label("tgt"), Some(1));
        assert_eq!(a.resolve_label("missing"), None);
    }

    #[test]
    fn fresh_labels_are_unique() {
        let mut a = Asm::new("t");
        let l1 = a.fresh_label("x");
        let l2 = a.fresh_label("x");
        assert_ne!(l1, l2);
    }

    #[test]
    fn li64_materializes_large_constants() {
        for value in [0i64, -1, 1, i64::MAX, i64::MIN, 0x1234_5678_9abc_def0, -48] {
            let mut a = Asm::new("t");
            let r1 = Reg::new(1);
            a.li64(r1, value);
            a.halt();
            let p = a.assemble().unwrap();
            let mut m = Machine::new(&p);
            m.run(10).unwrap();
            assert_eq!(m.reg(r1), value, "li64 of {value:#x}");
        }
    }

    #[test]
    fn error_display() {
        assert!(AsmError::DuplicateLabel("a".into()).to_string().contains("twice"));
        assert!(AsmError::UnknownLabel("b".into()).to_string().contains("never defined"));
    }
}
