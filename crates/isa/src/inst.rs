//! Instruction definitions and static classification helpers.

use std::fmt;

use crate::{Pc, Reg, Word};

/// An integer ALU operation.
///
/// All operations are total: division and remainder by zero produce 0, and
/// shift amounts are masked to the low 6 bits, so wrong-path execution in the
/// timing simulator can never fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (complex op: 6-cycle latency).
    Mul,
    /// Division; `x / 0 == 0` (complex op: 35-cycle latency).
    Div,
    /// Remainder; `x % 0 == 0` (complex op: 35-cycle latency).
    Rem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left by `rhs & 63`.
    Shl,
    /// Arithmetic shift right by `rhs & 63`.
    Shr,
    /// Set-if-less-than (signed): `(lhs < rhs) as i64`.
    Slt,
    /// Set-if-less-than (unsigned): `((lhs as u64) < (rhs as u64)) as i64`.
    /// Decoded from RV64 `sltu`/`sltiu`; the synthetic workloads never emit
    /// it.
    Sltu,
    /// Logical shift right by `rhs & 63` (zero-filling). Decoded from RV64
    /// `srl`/`srli`; [`AluOp::Shr`] stays arithmetic.
    Shru,
}

impl AluOp {
    /// Applies the operation to two operand values.
    ///
    /// # Example
    ///
    /// ```
    /// use tp_isa::AluOp;
    /// assert_eq!(AluOp::Add.apply(2, 3), 5);
    /// assert_eq!(AluOp::Div.apply(7, 0), 0); // division by zero is defined
    /// assert_eq!(AluOp::Slt.apply(-1, 0), 1);
    /// ```
    #[inline]
    pub fn apply(self, lhs: Word, rhs: Word) -> Word {
        match self {
            AluOp::Add => lhs.wrapping_add(rhs),
            AluOp::Sub => lhs.wrapping_sub(rhs),
            AluOp::Mul => lhs.wrapping_mul(rhs),
            AluOp::Div => {
                if rhs == 0 {
                    0
                } else {
                    lhs.wrapping_div(rhs)
                }
            }
            AluOp::Rem => {
                if rhs == 0 {
                    0
                } else {
                    lhs.wrapping_rem(rhs)
                }
            }
            AluOp::And => lhs & rhs,
            AluOp::Or => lhs | rhs,
            AluOp::Xor => lhs ^ rhs,
            AluOp::Shl => lhs.wrapping_shl((rhs & 63) as u32),
            AluOp::Shr => lhs.wrapping_shr((rhs & 63) as u32),
            AluOp::Slt => (lhs < rhs) as Word,
            AluOp::Sltu => ((lhs as u64) < (rhs as u64)) as Word,
            AluOp::Shru => ((lhs as u64).wrapping_shr((rhs & 63) as u32)) as Word,
        }
    }

    /// Execution latency in cycles (MIPS R10000 values for complex ops, as in
    /// the paper's Table 1 configuration).
    #[inline]
    pub fn latency(self) -> u32 {
        match self {
            AluOp::Mul => 6,
            AluOp::Div | AluOp::Rem => 35,
            _ => 1,
        }
    }
}

/// A conditional branch condition comparing two register values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Unsigned less-than. Decoded from RV64 `bltu`; the synthetic
    /// workloads never emit it.
    Ltu,
    /// Unsigned greater-or-equal. Decoded from RV64 `bgeu`.
    Geu,
}

impl Cond {
    /// Evaluates the condition on two operand values.
    ///
    /// # Example
    ///
    /// ```
    /// use tp_isa::Cond;
    /// assert!(Cond::Lt.eval(1, 2));
    /// assert!(!Cond::Eq.eval(1, 2));
    /// ```
    #[inline]
    pub fn eval(self, lhs: Word, rhs: Word) -> bool {
        match self {
            Cond::Eq => lhs == rhs,
            Cond::Ne => lhs != rhs,
            Cond::Lt => lhs < rhs,
            Cond::Ge => lhs >= rhs,
            Cond::Le => lhs <= rhs,
            Cond::Gt => lhs > rhs,
            Cond::Ltu => (lhs as u64) < (rhs as u64),
            Cond::Geu => (lhs as u64) >= (rhs as u64),
        }
    }

    /// The condition that is true exactly when `self` is false.
    #[inline]
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Ge => Cond::Lt,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ltu => Cond::Geu,
            Cond::Geu => Cond::Ltu,
        }
    }
}

/// A single instruction.
///
/// The ISA is deliberately regular: at most two register sources, at most one
/// register destination, and control transfers that map one-to-one onto the
/// classes the paper's trace selection cares about (conditional branches,
/// direct jumps/calls, and the indirect class `jump indirect` / `call
/// indirect` / `return` at which default trace selection terminates traces).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant docs name every operand field
pub enum Inst {
    /// Three-register ALU operation: `rd = op(rs, rt)`.
    Alu { op: AluOp, rd: Reg, rs: Reg, rt: Reg },
    /// Register-immediate ALU operation: `rd = op(rs, imm)`.
    AluImm { op: AluOp, rd: Reg, rs: Reg, imm: i32 },
    /// Load: `rd = mem[rs + offset]` (aligned word).
    Load { rd: Reg, base: Reg, offset: i32 },
    /// Store: `mem[base + offset] = rs` (aligned word).
    Store { rs: Reg, base: Reg, offset: i32 },
    /// Conditional direct branch: `if cond(rs, rt) pc = target else pc += 1`.
    Branch { cond: Cond, rs: Reg, rt: Reg, target: Pc },
    /// Unconditional direct jump.
    Jump { target: Pc },
    /// Direct call: `r31 = pc + 1; pc = target`.
    Call { target: Pc },
    /// Indirect call: `r31 = pc + 1; pc = rs`.
    CallIndirect { rs: Reg },
    /// Indirect jump: `pc = rs` (e.g. a switch through a jump table).
    JumpIndirect { rs: Reg },
    /// Return: `pc = r31`.
    Ret,
    /// Stops the program.
    Halt,
    /// No operation.
    Nop,
}

impl Inst {
    /// Destination register written by this instruction, if any.
    ///
    /// Writes to `r0` are reported as `None` (they are architecturally
    /// discarded).
    pub fn dest(self) -> Option<Reg> {
        let d = match self {
            Inst::Alu { rd, .. } | Inst::AluImm { rd, .. } | Inst::Load { rd, .. } => rd,
            Inst::Call { .. } | Inst::CallIndirect { .. } => Reg::RA,
            _ => return None,
        };
        if d.is_zero() {
            None
        } else {
            Some(d)
        }
    }

    /// Source registers read by this instruction (up to two).
    ///
    /// Reads of `r0` are included; they always observe the value 0.
    pub fn sources(self) -> SourceRegs {
        match self {
            Inst::Alu { rs, rt, .. } => SourceRegs::two(rs, rt),
            Inst::AluImm { rs, .. } => SourceRegs::one(rs),
            Inst::Load { base, .. } => SourceRegs::one(base),
            Inst::Store { rs, base, .. } => SourceRegs::two(base, rs),
            Inst::Branch { rs, rt, .. } => SourceRegs::two(rs, rt),
            Inst::CallIndirect { rs } | Inst::JumpIndirect { rs } => SourceRegs::one(rs),
            Inst::Ret => SourceRegs::one(Reg::RA),
            _ => SourceRegs::none(),
        }
    }

    /// Whether this is a conditional branch.
    #[inline]
    pub fn is_cond_branch(self) -> bool {
        matches!(self, Inst::Branch { .. })
    }

    /// Whether this is a *backward* conditional branch at `pc` (target at or
    /// before the branch), i.e. a loop-type branch in the paper's taxonomy.
    #[inline]
    pub fn is_backward_branch(self, pc: Pc) -> bool {
        matches!(self, Inst::Branch { target, .. } if target <= pc)
    }

    /// Whether this is a *forward* conditional branch at `pc`.
    #[inline]
    pub fn is_forward_branch(self, pc: Pc) -> bool {
        matches!(self, Inst::Branch { target, .. } if target > pc)
    }

    /// Whether this is in the indirect class at which default trace selection
    /// terminates traces: jump indirect, call indirect, or return.
    #[inline]
    pub fn is_indirect(self) -> bool {
        matches!(self, Inst::JumpIndirect { .. } | Inst::CallIndirect { .. } | Inst::Ret)
    }

    /// Whether this is a return instruction.
    #[inline]
    pub fn is_return(self) -> bool {
        matches!(self, Inst::Ret)
    }

    /// Whether this instruction unconditionally redirects control flow
    /// (no fall-through to `pc + 1`).
    #[inline]
    pub fn is_unconditional_transfer(self) -> bool {
        matches!(
            self,
            Inst::Jump { .. }
                | Inst::Call { .. }
                | Inst::CallIndirect { .. }
                | Inst::JumpIndirect { .. }
                | Inst::Ret
                | Inst::Halt
        )
    }

    /// Whether this instruction may redirect control flow at all.
    #[inline]
    pub fn is_control(self) -> bool {
        self.is_cond_branch() || self.is_unconditional_transfer()
    }

    /// Execution latency in cycles once issued (excluding address generation
    /// and memory access for loads/stores, which the timing model adds
    /// separately).
    pub fn latency(self) -> u32 {
        match self {
            Inst::Alu { op, .. } | Inst::AluImm { op, .. } => op.latency(),
            _ => 1,
        }
    }
}

/// The source registers of an instruction, as returned by [`Inst::sources`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SourceRegs {
    regs: [Option<Reg>; 2],
}

impl SourceRegs {
    fn none() -> SourceRegs {
        SourceRegs { regs: [None, None] }
    }

    fn one(r: Reg) -> SourceRegs {
        SourceRegs { regs: [Some(r), None] }
    }

    fn two(a: Reg, b: Reg) -> SourceRegs {
        SourceRegs { regs: [Some(a), Some(b)] }
    }

    /// Iterates over the source registers.
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        self.regs.into_iter().flatten()
    }

    /// Number of register sources (0..=2).
    pub fn len(self) -> usize {
        self.regs.iter().flatten().count()
    }

    /// Whether the instruction reads no registers.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }
}

impl IntoIterator for SourceRegs {
    type Item = Reg;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<Reg>, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.regs.into_iter().flatten()
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Alu { op, rd, rs, rt } => write!(f, "{op:?} {rd}, {rs}, {rt}"),
            Inst::AluImm { op, rd, rs, imm } => write!(f, "{op:?}i {rd}, {rs}, {imm}"),
            Inst::Load { rd, base, offset } => write!(f, "ld {rd}, {offset}({base})"),
            Inst::Store { rs, base, offset } => write!(f, "st {rs}, {offset}({base})"),
            Inst::Branch { cond, rs, rt, target } => {
                write!(f, "b{cond:?} {rs}, {rt}, @{target}")
            }
            Inst::Jump { target } => write!(f, "j @{target}"),
            Inst::Call { target } => write!(f, "call @{target}"),
            Inst::CallIndirect { rs } => write!(f, "callr {rs}"),
            Inst::JumpIndirect { rs } => write!(f, "jr {rs}"),
            Inst::Ret => write!(f, "ret"),
            Inst::Halt => write!(f, "halt"),
            Inst::Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_ops_are_total() {
        assert_eq!(AluOp::Div.apply(5, 0), 0);
        assert_eq!(AluOp::Rem.apply(5, 0), 0);
        assert_eq!(AluOp::Shl.apply(1, 200), 1 << (200 & 63));
        assert_eq!(AluOp::Add.apply(i64::MAX, 1), i64::MIN);
        assert_eq!(AluOp::Shru.apply(-1, 63), 1);
        assert_eq!(AluOp::Shr.apply(-8, 1), -4);
        assert_eq!(AluOp::Shru.apply(-8, 1), (u64::MAX / 2 - 3) as i64);
    }

    #[test]
    fn unsigned_compares_treat_negative_as_large() {
        assert_eq!(AluOp::Sltu.apply(-1, 1), 0); // -1 is u64::MAX
        assert_eq!(AluOp::Sltu.apply(1, -1), 1);
        assert!(Cond::Geu.eval(-1, 1));
        assert!(Cond::Ltu.eval(1, -1));
        assert!(!Cond::Ltu.eval(5, 5));
        assert!(Cond::Geu.eval(5, 5));
    }

    #[test]
    fn div_min_by_minus_one_does_not_panic() {
        // i64::MIN / -1 overflows in Rust; wrapping_div must make it total.
        assert_eq!(AluOp::Div.apply(i64::MIN, -1), i64::MIN);
        assert_eq!(AluOp::Rem.apply(i64::MIN, -1), 0);
    }

    #[test]
    fn cond_negation_is_involutive_and_complementary() {
        let conds =
            [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Le, Cond::Gt, Cond::Ltu, Cond::Geu];
        for c in conds {
            assert_eq!(c.negate().negate(), c);
            for (a, b) in [(0, 0), (1, 2), (2, 1), (-5, 5)] {
                assert_ne!(c.eval(a, b), c.negate().eval(a, b));
            }
        }
    }

    #[test]
    fn dest_hides_writes_to_r0() {
        let i = Inst::AluImm { op: AluOp::Add, rd: Reg::ZERO, rs: Reg::ZERO, imm: 1 };
        assert_eq!(i.dest(), None);
        let i = Inst::AluImm { op: AluOp::Add, rd: Reg::new(4), rs: Reg::ZERO, imm: 1 };
        assert_eq!(i.dest(), Some(Reg::new(4)));
    }

    #[test]
    fn calls_write_link_register() {
        assert_eq!(Inst::Call { target: 3 }.dest(), Some(Reg::RA));
        assert_eq!(Inst::CallIndirect { rs: Reg::new(2) }.dest(), Some(Reg::RA));
    }

    #[test]
    fn ret_reads_link_register() {
        let srcs: Vec<Reg> = Inst::Ret.sources().iter().collect();
        assert_eq!(srcs, vec![Reg::RA]);
    }

    #[test]
    fn branch_direction_classification() {
        let b = Inst::Branch { cond: Cond::Eq, rs: Reg::ZERO, rt: Reg::ZERO, target: 10 };
        assert!(b.is_forward_branch(5));
        assert!(!b.is_backward_branch(5));
        assert!(b.is_backward_branch(10)); // self-loop counts as backward
        assert!(b.is_backward_branch(15));
    }

    #[test]
    fn indirect_class_matches_paper_definition() {
        assert!(Inst::Ret.is_indirect());
        assert!(Inst::JumpIndirect { rs: Reg::new(1) }.is_indirect());
        assert!(Inst::CallIndirect { rs: Reg::new(1) }.is_indirect());
        assert!(!Inst::Jump { target: 0 }.is_indirect());
        assert!(!Inst::Call { target: 0 }.is_indirect());
    }

    #[test]
    fn complex_op_latencies_match_r10000() {
        assert_eq!(
            Inst::Alu { op: AluOp::Mul, rd: Reg::new(1), rs: Reg::new(2), rt: Reg::new(3) }
                .latency(),
            6
        );
        assert_eq!(
            Inst::AluImm { op: AluOp::Div, rd: Reg::new(1), rs: Reg::new(2), imm: 3 }.latency(),
            35
        );
        assert_eq!(Inst::Nop.latency(), 1);
    }

    #[test]
    fn source_regs_iteration() {
        let st = Inst::Store { rs: Reg::new(2), base: Reg::new(3), offset: 8 };
        let srcs: Vec<Reg> = st.sources().into_iter().collect();
        assert_eq!(srcs, vec![Reg::new(3), Reg::new(2)]);
        assert_eq!(st.sources().len(), 2);
        assert!(!st.sources().is_empty());
        assert!(Inst::Nop.sources().is_empty());
    }

    #[test]
    fn display_is_nonempty_for_all_shapes() {
        let insts = [
            Inst::Alu { op: AluOp::Add, rd: Reg::new(1), rs: Reg::new(2), rt: Reg::new(3) },
            Inst::AluImm { op: AluOp::Xor, rd: Reg::new(1), rs: Reg::new(2), imm: -4 },
            Inst::Load { rd: Reg::new(1), base: Reg::new(2), offset: 16 },
            Inst::Store { rs: Reg::new(1), base: Reg::new(2), offset: 16 },
            Inst::Branch { cond: Cond::Ne, rs: Reg::new(1), rt: Reg::new(2), target: 7 },
            Inst::Jump { target: 9 },
            Inst::Call { target: 2 },
            Inst::CallIndirect { rs: Reg::new(5) },
            Inst::JumpIndirect { rs: Reg::new(5) },
            Inst::Ret,
            Inst::Halt,
            Inst::Nop,
        ];
        for i in insts {
            assert!(!i.to_string().is_empty());
        }
    }
}
