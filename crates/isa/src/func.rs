//! The functional (architectural) simulator.
//!
//! [`Machine`] executes a [`Program`] one instruction at a time with exact
//! architectural semantics. It is the golden reference: the trace processor
//! in `tp-core` must commit exactly the state this machine produces, no
//! matter how much misspeculation and selective reissue happened along the
//! way. It is also used by the Table 5 profiling harness, which replays the
//! dynamic instruction stream through a branch predictor.

use std::collections::BTreeMap;
use std::fmt;

use crate::mem::{PagedMem, PAGE_WORDS};
use crate::{Addr, Inst, Pc, Program, Reg, Word};

/// Error produced when execution leaves the program image.
///
/// This can only happen through a dynamically-computed control transfer
/// (indirect jump/call or return) whose register operand does not hold a
/// valid instruction address, or by falling through the last instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PcOutOfRange {
    /// The invalid program counter.
    pub pc: Pc,
}

impl fmt::Display for PcOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "execution reached invalid pc {}", self.pc)
    }
}

impl std::error::Error for PcOutOfRange {}

/// The record of one executed instruction, as returned by [`Machine::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// PC of the executed instruction.
    pub pc: Pc,
    /// The executed instruction.
    pub inst: Inst,
    /// PC of the next instruction (equal to `pc` for `Halt`).
    pub next_pc: Pc,
    /// For conditional branches, whether the branch was taken.
    pub taken: Option<bool>,
    /// For loads and stores, the effective byte address.
    pub ea: Option<Addr>,
    /// Whether the machine halted on this step.
    pub halted: bool,
}

/// Summary of a [`Machine::run`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunSummary {
    /// Number of instructions retired by this call.
    pub retired: u64,
    /// Whether the program reached `Halt`.
    pub halted: bool,
}

/// A normalized snapshot of architectural state.
///
/// Zero-valued memory words are omitted so that sparse representations from
/// different simulators compare equal (uninitialized memory reads as zero,
/// which makes a stored zero indistinguishable from an untouched word).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArchState {
    /// Register file contents.
    pub regs: [Word; Reg::COUNT],
    /// Non-zero memory words, keyed by word index (`addr >> 3`).
    pub mem: BTreeMap<u64, Word>,
}

/// A complete, resumable machine state, as captured by [`Machine::capture`].
///
/// Unlike [`ArchState`] (a *normalized* snapshot for equality comparison),
/// this is an exact image: the memory map carries every word the machine has
/// touched, including words a store set back to zero. A machine restored
/// from it with [`Machine::from_state`] continues the run bit-exactly —
/// the checkpoint/fast-forward subsystem is built on this guarantee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineState {
    /// Register file contents.
    pub regs: [Word; Reg::COUNT],
    /// Every touched memory word, keyed by word index (`addr >> 3`).
    pub mem: BTreeMap<u64, Word>,
    /// Program counter to resume at.
    pub pc: Pc,
    /// Whether the machine has executed a `Halt`.
    pub halted: bool,
    /// Instructions retired so far.
    pub retired: u64,
}

/// The functional simulator.
///
/// # Example
///
/// ```
/// use tp_isa::{asm::Asm, func::Machine, Reg};
/// let mut a = Asm::new("store42");
/// a.li(Reg::new(1), 42);
/// a.li(Reg::new(2), 0x100);
/// a.store(Reg::new(1), Reg::new(2), 0);
/// a.halt();
/// let p = a.assemble()?;
/// let mut m = Machine::new(&p);
/// let summary = m.run(100).expect("in range");
/// assert!(summary.halted);
/// assert_eq!(m.mem_word(0x100), 42);
/// # Ok::<(), tp_isa::asm::AsmError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Machine<'p> {
    program: &'p Program,
    regs: [Word; Reg::COUNT],
    /// Memory; marked words are the ones a store wrote (or a resume or
    /// hand-back set): only those can differ from the program's data
    /// image, so [`Machine::mem_delta`] never scans the rest.
    mem: PagedMem,
    pc: Pc,
    halted: bool,
    retired: u64,
}

impl<'p> Machine<'p> {
    /// Creates a machine at the program's entry point with the initial data
    /// image loaded.
    pub fn new(program: &'p Program) -> Machine<'p> {
        Machine {
            program,
            regs: [0; Reg::COUNT],
            mem: PagedMem::from_program(program),
            pc: program.entry(),
            halted: false,
            retired: 0,
        }
    }

    /// Creates a machine resuming from a captured [`MachineState`].
    ///
    /// The state must have been captured from a machine running the same
    /// program (the caller is responsible for that pairing; the checkpoint
    /// format records a program fingerprint for exactly this check).
    pub fn from_state(program: &'p Program, state: MachineState) -> Machine<'p> {
        let mut mem = PagedMem::default();
        // Both maps ascend by word, so one merge pass finds each word's
        // initial value. Words still holding it cannot contribute to a
        // dirty delta; only resumed words that already diverged are marked.
        let mut initial = program.data().map(|(addr, w)| (addr >> 3, w)).peekable();
        for (&word, &value) in &state.mem {
            while initial.next_if(|&(w, _)| w < word).is_some() {}
            let init = initial.next_if(|&(w, _)| w == word).map_or(0, |(_, v)| v);
            mem.set(word, value, init != value);
        }
        Machine {
            program,
            regs: state.regs,
            mem,
            pc: state.pc,
            halted: state.halted,
            retired: state.retired,
        }
    }

    /// Moves the machine to a later point of the same run, reached by
    /// another executor from this machine's current state: a detailed
    /// interval booted from it, or a checkpoint's dirty delta applied to a
    /// fresh machine. `stores` are the `(word index, value)` pairs written
    /// on the way; they go through the same marking path as this machine's
    /// own stores, so [`Machine::mem_delta`] stays exact. Registers, PC,
    /// retired count and halt flag are replaced. The cost is
    /// O(`stores`), independent of the memory image's size.
    pub fn apply_delta(
        &mut self,
        regs: [Word; Reg::COUNT],
        pc: Pc,
        retired: u64,
        halted: bool,
        stores: impl IntoIterator<Item = (u64, Word)>,
    ) {
        for (word, value) in stores {
            self.mem.set(word, value, true);
        }
        self.regs = regs;
        self.pc = pc;
        self.retired = retired;
        self.halted = halted;
    }

    /// Captures the complete machine state for later [`Machine::from_state`].
    pub fn capture(&self) -> MachineState {
        MachineState {
            regs: self.regs,
            mem: self.mem.touched().collect(),
            pc: self.pc,
            halted: self.halted,
            retired: self.retired,
        }
    }

    /// Iterates every touched memory word as `(word index, value)`,
    /// including words holding zero (unlike [`Machine::arch_state`]).
    pub fn mem_words(&self) -> impl Iterator<Item = (u64, Word)> + '_ {
        self.mem.touched()
    }

    /// The dirty memory delta against the program's initial data image, as
    /// ascending `(word index, value)` pairs — exactly the word set a
    /// checkpoint records.
    ///
    /// Computed incrementally: only pages holding at least one stored word
    /// are visited, so the cost scales with the store working set, not
    /// with every word the machine has ever touched.
    pub fn mem_delta(&self) -> Vec<(u64, Word)> {
        let mut delta = Vec::new();
        // The current page's initial words, refilled from one ordered
        // range query per page.
        let mut page = u64::MAX;
        let mut initial = [0 as Word; PAGE_WORDS];
        for (word, value) in self.mem.marked() {
            if word >> 6 != page {
                page = word >> 6;
                initial = [0; PAGE_WORDS];
                // A page past every byte address has no image words.
                if let Some(base) = page.checked_mul(8 * PAGE_WORDS as Addr) {
                    for (addr, w) in
                        self.program.data_range(base..=base + 8 * PAGE_WORDS as Addr - 1)
                    {
                        initial[(addr >> 3) as usize & 63] = w;
                    }
                }
            }
            if initial[(word & 63) as usize] != value {
                delta.push((word, value));
            }
        }
        delta
    }

    /// The program being executed.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Current program counter.
    pub fn pc(&self) -> Pc {
        self.pc
    }

    /// Whether the machine has executed a `Halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Total instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Reads an architectural register.
    pub fn reg(&self, r: Reg) -> Word {
        self.regs[r.index()]
    }

    /// The full register file (a cheap copy; no memory materialization).
    pub fn regs(&self) -> [Word; Reg::COUNT] {
        self.regs
    }

    /// Reads the memory word containing byte address `addr` (0 if untouched).
    pub fn mem_word(&self, addr: Addr) -> Word {
        self.mem.peek(addr >> 3)
    }

    /// Takes a normalized snapshot of the architectural state.
    pub fn arch_state(&self) -> ArchState {
        ArchState { regs: self.regs, mem: self.mem.touched().filter(|&(_, w)| w != 0).collect() }
    }

    /// Executes one instruction.
    ///
    /// Stepping a halted machine returns the same `Halt` record again without
    /// retiring anything.
    ///
    /// # Errors
    ///
    /// Returns [`PcOutOfRange`] if the current PC is outside the program.
    pub fn step(&mut self) -> Result<Step, PcOutOfRange> {
        let pc = self.pc;
        let inst = self.program.fetch(pc).ok_or(PcOutOfRange { pc })?;
        if self.halted {
            return Ok(Step { pc, inst, next_pc: pc, taken: None, ea: None, halted: true });
        }
        Ok(self.exec_decoded(pc, inst))
    }

    /// Executes one *pre-decoded* instruction without re-fetching it from
    /// the program image — the fast path for block-cached execution
    /// engines, with semantics identical to [`Machine::step`].
    ///
    /// The caller owns the fetch contract: `inst` must be the instruction
    /// at `pc`, `pc` must be the machine's current PC, and the machine must
    /// not be halted (all debug-asserted).
    #[inline]
    pub fn exec_decoded(&mut self, pc: Pc, inst: Inst) -> Step {
        debug_assert_eq!(pc, self.pc, "exec_decoded pc diverged from machine pc");
        debug_assert_eq!(self.program.fetch(pc), Some(inst), "exec_decoded inst mismatch");
        debug_assert!(!self.halted, "exec_decoded on a halted machine");
        self.retired += 1;
        let mut taken = None;
        let mut ea = None;
        let mut next_pc = pc.wrapping_add(1);
        match inst {
            Inst::Alu { op, rd, rs, rt } => {
                let v = op.apply(self.read(rs), self.read(rt));
                self.write(rd, v);
            }
            Inst::AluImm { op, rd, rs, imm } => {
                let v = op.apply(self.read(rs), imm as Word);
                self.write(rd, v);
            }
            Inst::Load { rd, base, offset } => {
                let addr = effective_address(self.read(base), offset);
                ea = Some(addr);
                let v = self.mem.load(addr >> 3);
                self.write(rd, v);
            }
            Inst::Store { rs, base, offset } => {
                let addr = effective_address(self.read(base), offset);
                ea = Some(addr);
                let v = self.read(rs);
                self.mem.set(addr >> 3, v, true);
            }
            Inst::Branch { cond, rs, rt, target } => {
                let t = cond.eval(self.read(rs), self.read(rt));
                taken = Some(t);
                if t {
                    next_pc = target;
                }
            }
            Inst::Jump { target } => next_pc = target,
            Inst::Call { target } => {
                self.write(Reg::RA, pc as Word + 1);
                next_pc = target;
            }
            Inst::CallIndirect { rs } => {
                let t = self.read(rs);
                self.write(Reg::RA, pc as Word + 1);
                next_pc = t as Pc;
            }
            Inst::JumpIndirect { rs } => next_pc = self.read(rs) as Pc,
            Inst::Ret => next_pc = self.read(Reg::RA) as Pc,
            Inst::Halt => {
                self.halted = true;
                next_pc = pc;
            }
            Inst::Nop => {}
        }
        self.pc = next_pc;
        Step { pc, inst, next_pc, taken, ea, halted: self.halted }
    }

    /// Runs for at most `budget` instructions or until `Halt`.
    ///
    /// # Errors
    ///
    /// Returns [`PcOutOfRange`] if execution leaves the program image.
    pub fn run(&mut self, budget: u64) -> Result<RunSummary, PcOutOfRange> {
        let start = self.retired;
        while !self.halted && self.retired - start < budget {
            self.step()?;
        }
        Ok(RunSummary { retired: self.retired - start, halted: self.halted })
    }

    #[inline]
    fn read(&self, r: Reg) -> Word {
        self.regs[r.index()]
    }

    #[inline]
    fn write(&mut self, r: Reg, v: Word) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }
}

/// Computes the effective byte address of a memory access.
///
/// Address arithmetic wraps, keeping wrong-path execution total.
#[inline]
pub fn effective_address(base: Word, offset: i32) -> Addr {
    base.wrapping_add(offset as Word) as Addr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::{AluOp, Cond};

    fn run_program(build: impl FnOnce(&mut Asm)) -> Machine<'static> {
        let mut a = Asm::new("t");
        build(&mut a);
        let p = Box::leak(Box::new(a.assemble().unwrap()));
        let mut m = Machine::new(p);
        m.run(100_000).unwrap();
        m
    }

    #[test]
    fn r0_reads_zero_and_ignores_writes() {
        let m = run_program(|a| {
            a.li(Reg::ZERO, 55);
            a.alui(AluOp::Add, Reg::new(1), Reg::ZERO, 7);
            a.halt();
        });
        assert_eq!(m.reg(Reg::ZERO), 0);
        assert_eq!(m.reg(Reg::new(1)), 7);
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let m = run_program(|a| {
            a.li(Reg::new(1), 0x200);
            a.li(Reg::new(2), -77);
            a.store(Reg::new(2), Reg::new(1), 8);
            a.load(Reg::new(3), Reg::new(1), 8);
            a.halt();
        });
        assert_eq!(m.reg(Reg::new(3)), -77);
        assert_eq!(m.mem_word(0x208), -77);
    }

    #[test]
    fn unaligned_access_hits_containing_word() {
        let m = run_program(|a| {
            a.li(Reg::new(1), 0x203); // not 8-aligned
            a.li(Reg::new(2), 5);
            a.store(Reg::new(2), Reg::new(1), 0);
            a.load(Reg::new(3), Reg::ZERO, 0x200);
            a.halt();
        });
        assert_eq!(m.reg(Reg::new(3)), 5);
    }

    #[test]
    fn call_and_ret() {
        let m = run_program(|a| {
            a.call("f");
            a.li(Reg::new(2), 2);
            a.halt();
            a.label("f");
            a.li(Reg::new(1), 1);
            a.ret();
        });
        assert_eq!(m.reg(Reg::new(1)), 1);
        assert_eq!(m.reg(Reg::new(2)), 2);
    }

    #[test]
    fn indirect_jump_through_data_table() {
        let m = run_program(|a| {
            a.load(Reg::new(1), Reg::ZERO, 0x100);
            a.jump_indirect(Reg::new(1));
            a.li(Reg::new(2), 111); // skipped
            a.label("tgt");
            a.li(Reg::new(3), 7);
            a.halt();
            a.data_label(0x100, "tgt");
        });
        assert_eq!(m.reg(Reg::new(2)), 0);
        assert_eq!(m.reg(Reg::new(3)), 7);
    }

    #[test]
    fn branch_taken_and_not_taken_steps() {
        let mut a = Asm::new("t");
        a.li(Reg::new(1), 1);
        a.branch(Cond::Eq, Reg::new(1), Reg::ZERO, "skip"); // not taken
        a.branch(Cond::Ne, Reg::new(1), Reg::ZERO, "skip"); // taken
        a.nop();
        a.label("skip");
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p);
        m.step().unwrap();
        let s1 = m.step().unwrap();
        assert_eq!(s1.taken, Some(false));
        assert_eq!(s1.next_pc, 2);
        let s2 = m.step().unwrap();
        assert_eq!(s2.taken, Some(true));
        assert_eq!(s2.next_pc, 4);
    }

    #[test]
    fn halt_is_sticky() {
        let mut a = Asm::new("t");
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p);
        let s = m.step().unwrap();
        assert!(s.halted);
        assert_eq!(m.retired(), 1);
        let s2 = m.step().unwrap();
        assert!(s2.halted);
        assert_eq!(m.retired(), 1); // no further retirement
    }

    #[test]
    fn run_budget_stops_infinite_loop() {
        let mut a = Asm::new("t");
        a.label("top");
        a.jump("top");
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p);
        let summary = m.run(500).unwrap();
        assert_eq!(summary.retired, 500);
        assert!(!summary.halted);
    }

    #[test]
    fn bad_indirect_target_reports_out_of_range() {
        let mut a = Asm::new("t");
        a.li(Reg::new(1), 999);
        a.jump_indirect(Reg::new(1));
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p);
        m.step().unwrap();
        m.step().unwrap();
        assert_eq!(m.step(), Err(PcOutOfRange { pc: 999 }));
    }

    #[test]
    fn arch_state_omits_zero_words() {
        let m = run_program(|a| {
            a.li(Reg::new(1), 0x300);
            a.store(Reg::ZERO, Reg::new(1), 0); // stores zero
            a.li(Reg::new(2), 9);
            a.store(Reg::new(2), Reg::new(1), 8);
            a.halt();
        });
        let st = m.arch_state();
        assert!(!st.mem.contains_key(&(0x300 >> 3)));
        assert_eq!(st.mem.get(&(0x308 >> 3)), Some(&9));
    }

    /// Capture mid-run, resume, and the resumed machine finishes in exactly
    /// the state of an uninterrupted run — including a word stored back to
    /// zero, which `arch_state` normalization would hide but `capture` must
    /// preserve.
    #[test]
    fn capture_and_resume_is_bit_exact() {
        let mut a = Asm::new("t");
        a.li(Reg::new(1), 0x200);
        a.li(Reg::new(2), 7);
        a.store(Reg::new(2), Reg::new(1), 0); // mem[0x200] = 7
        a.store(Reg::ZERO, Reg::new(1), 0); // mem[0x200] = 0 (still "touched")
        a.li(Reg::new(3), 11);
        a.store(Reg::new(3), Reg::new(1), 8);
        a.halt();
        a.data_word(0x200, 99); // overwritten by the zero store
        let p = a.assemble().unwrap();

        let mut straight = Machine::new(&p);
        straight.run(u64::MAX).unwrap();

        let mut first = Machine::new(&p);
        first.run(4).unwrap(); // stop right after the zero store
        let state = state_roundtrip(first.capture());
        assert_eq!(state.mem.get(&(0x200 >> 3)), Some(&0), "zeroed word must be captured");
        let mut resumed = Machine::from_state(&p, state);
        assert_eq!(resumed.retired(), 4);
        resumed.run(u64::MAX).unwrap();

        assert_eq!(resumed.arch_state(), straight.arch_state());
        assert_eq!(resumed.pc(), straight.pc());
        assert_eq!(resumed.retired(), straight.retired());
        assert_eq!(resumed.capture(), straight.capture());
    }

    fn state_roundtrip(s: MachineState) -> MachineState {
        // Clone through the public fields to mimic an external serializer.
        MachineState { mem: s.mem.iter().map(|(&a, &w)| (a, w)).collect(), ..s }
    }

    #[test]
    fn mem_words_includes_zeroed_words() {
        let m = run_program(|a| {
            a.li(Reg::new(1), 0x300);
            a.store(Reg::ZERO, Reg::new(1), 0);
            a.halt();
        });
        assert!(m.mem_words().any(|(w, v)| w == 0x300 >> 3 && v == 0));
    }

    #[test]
    fn exec_decoded_matches_step_in_lockstep() {
        let mut a = Asm::new("t");
        a.li(Reg::new(1), 0x200);
        a.li(Reg::new(2), 3);
        a.label("top");
        a.store(Reg::new(2), Reg::new(1), 0);
        a.load(Reg::new(3), Reg::new(1), 0);
        a.addi(Reg::new(2), Reg::new(2), -1);
        a.branch(Cond::Gt, Reg::new(2), Reg::ZERO, "top");
        a.call("f");
        a.halt();
        a.label("f");
        a.ret();
        let p = a.assemble().unwrap();
        let mut by_step = Machine::new(&p);
        let mut by_decoded = Machine::new(&p);
        while !by_step.halted() {
            let pc = by_decoded.pc();
            let inst = p.fetch(pc).unwrap();
            let a = by_step.step().unwrap();
            let b = by_decoded.exec_decoded(pc, inst);
            assert_eq!(a, b);
        }
        assert_eq!(by_step.capture(), by_decoded.capture());
    }

    #[test]
    fn mem_delta_matches_brute_force_recompute() {
        let mut a = Asm::new("t");
        a.li(Reg::new(1), 0x200);
        a.li(Reg::new(2), 7);
        a.store(Reg::new(2), Reg::new(1), 0); // fresh dirty word
        a.store(Reg::ZERO, Reg::new(1), 8); // touched, equals untouched 0: no delta
        a.li(Reg::new(3), 99);
        a.store(Reg::new(3), Reg::ZERO, 0x100); // store initial value back: no delta
        a.li(Reg::new(4), 5);
        a.store(Reg::new(4), Reg::ZERO, 0x108); // overwrite initial data
        a.halt();
        a.data_word(0x100, 99);
        a.data_word(0x108, 1);
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p);
        m.run(u64::MAX).unwrap();

        let initial: BTreeMap<u64, Word> = p.data().map(|(a, w)| (a >> 3, w)).collect();
        let brute: Vec<(u64, Word)> = m
            .capture()
            .mem
            .iter()
            .filter(|(w, v)| initial.get(w).copied().unwrap_or(0) != **v)
            .map(|(&w, &v)| (w, v))
            .collect();
        assert_eq!(m.mem_delta(), brute);
        assert_eq!(m.mem_delta(), vec![(0x108 >> 3, 5), (0x200 >> 3, 7)]);

        // A resume round-trips the delta computation too.
        let resumed = Machine::from_state(&p, m.capture());
        assert_eq!(resumed.mem_delta(), m.mem_delta());
        assert_eq!(resumed.capture(), m.capture());
    }

    #[test]
    fn initial_data_image_is_loaded() {
        let mut a = Asm::new("t");
        a.load(Reg::new(1), Reg::ZERO, 0x100);
        a.halt();
        a.data_word(0x100, 1234);
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p);
        m.run(10).unwrap();
        assert_eq!(m.reg(Reg::new(1)), 1234);
    }
}
