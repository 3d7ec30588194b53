//! Static resolution of indirect-transfer targets.
//!
//! Jump tables in both frontends follow the classic dispatch shape —
//! mask an index, scale it by the word size, add a table base held in a
//! single-assignment register, and load the target PC from the data image:
//!
//! ```text
//! and  t, v, MASK        ; t in [0, MASK]
//! shl  t, t, 3
//! add  t, t, TABLE_BASE  ; TABLE_BASE: register written once, by an li
//! ld   t, off(t)
//! jr   t
//! ```
//!
//! [`resolve_indirect`] recovers the exact target set for this family by a
//! backward slice inside the basic block of the indirect transfer,
//! evaluated over a tiny abstract domain (constants, strided index sets,
//! explicit value sets). The slice never crosses a block leader or a call
//! (calls clobber arbitrary registers), so a successful resolution is
//! sound: the run-time target is always a member of the returned set.
//! Anything that doesn't fit the domain returns `None`, and the caller
//! falls back to the conservative set of all code-pointer slots.

use tp_isa::{AluOp, Inst, Pc, Program};

/// Largest `and` mask accepted as an index bound (table index sets beyond
/// this are treated as unresolved rather than enumerated).
const MAX_MASK: i64 = 0xFFFF;
/// Largest strided set the loader will enumerate.
const MAX_COUNT: u32 = 4096;
/// Backward-slice recursion bound (operand chains are short in practice).
const MAX_DEPTH: u32 = 24;

/// An abstract register value.
#[derive(Clone, Debug, PartialEq, Eq)]
enum AbsVal {
    /// The arithmetic progression `{base + k * stride : 0 <= k < count}`.
    /// A constant is `count == 1`.
    Strided { base: i64, stride: i64, count: u32 },
    /// An explicit small set (the result of loading a table slice).
    Values(Vec<i64>),
    /// Unknown.
    Top,
}

impl AbsVal {
    fn constant(c: i64) -> AbsVal {
        AbsVal::Strided { base: c, stride: 0, count: 1 }
    }

    fn as_const(&self) -> Option<i64> {
        match *self {
            AbsVal::Strided { base, count: 1, .. } => Some(base),
            _ => None,
        }
    }

    fn add_const(self, c: i64) -> AbsVal {
        match self {
            AbsVal::Strided { base, stride, count } => {
                AbsVal::Strided { base: base.wrapping_add(c), stride, count }
            }
            AbsVal::Values(vs) => {
                AbsVal::Values(vs.into_iter().map(|v| v.wrapping_add(c)).collect())
            }
            AbsVal::Top => AbsVal::Top,
        }
    }

    fn shl(self, s: i64) -> AbsVal {
        let s = (s & 63) as u32;
        match self {
            AbsVal::Strided { base, stride, count } => AbsVal::Strided {
                base: base.wrapping_shl(s),
                stride: stride.wrapping_shl(s),
                count,
            },
            AbsVal::Values(vs) => {
                AbsVal::Values(vs.into_iter().map(|x| x.wrapping_shl(s)).collect())
            }
            AbsVal::Top => AbsVal::Top,
        }
    }

    fn and(self, m: i64) -> AbsVal {
        if let Some(c) = self.as_const() {
            return AbsVal::constant(c & m);
        }
        if let AbsVal::Values(vs) = self {
            return AbsVal::Values(vs.into_iter().map(|x| x & m).collect());
        }
        // Whatever the operand was, `and` with a small non-negative mask
        // bounds the result to [0, m]. Only exact for all-ones masks
        // (others would leave holes), which is what index masking uses.
        if (0..=MAX_MASK).contains(&m) && (m as u64).wrapping_add(1).is_power_of_two() {
            AbsVal::Strided { base: 0, stride: 1, count: m as u32 + 1 }
        } else {
            AbsVal::Top
        }
    }
}

/// Positions at which control can enter a block from elsewhere: the entry,
/// every direct-transfer target, and every recorded code-pointer value.
/// The backward slice must not scan past one.
pub(crate) fn leaders(program: &Program) -> Vec<bool> {
    let n = program.len();
    let mut l = vec![false; n];
    l[program.entry() as usize] = true;
    for inst in program.insts() {
        if let Inst::Branch { target, .. } | Inst::Jump { target } | Inst::Call { target } = *inst {
            l[target as usize] = true;
        }
    }
    for v in code_ptr_values(program) {
        l[v as usize] = true;
    }
    l
}

/// The values stored in code-pointer data slots, filtered to valid PCs.
pub(crate) fn code_ptr_values(program: &Program) -> Vec<Pc> {
    let mut out: Vec<Pc> = program
        .code_ptrs()
        .filter_map(|addr| program.data_word(addr))
        .filter(|&w| w >= 0 && program.contains(w as Pc))
        .map(|w| w as Pc)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Registers that are written exactly once in the whole program, by a
/// plain load-immediate. Their value holds at every use reached after the
/// write — the single-assignment table-base registers both frontends'
/// prologues set up.
pub(crate) fn global_consts(program: &Program) -> [Option<i64>; 32] {
    let mut writes = [0u32; 32];
    let mut value = [None; 32];
    for inst in program.insts() {
        if let Some(rd) = inst.dest() {
            writes[rd.index()] += 1;
            value[rd.index()] = match *inst {
                Inst::AluImm { op: AluOp::Add, rs, imm, .. } if rs.is_zero() => Some(imm as i64),
                _ => None,
            };
        }
    }
    let mut out = [None; 32];
    for r in 0..32 {
        if writes[r] == 1 {
            out[r] = value[r];
        }
    }
    out
}

struct Slicer<'a> {
    program: &'a Program,
    leaders: &'a [bool],
    consts: &'a [Option<i64>; 32],
    /// The program's code-pointer slots (the only trusted data words).
    slots: std::collections::BTreeSet<u64>,
}

impl Slicer<'_> {
    /// The most recent in-block definition of `reg` strictly before `at`,
    /// or `None` if the slice hits a block leader, a call (arbitrary
    /// clobbers), or the start of the program first.
    fn find_def(&self, mut at: usize, reg: tp_isa::Reg) -> Option<usize> {
        while at > 0 {
            if self.leaders[at] {
                return None;
            }
            let i = at - 1;
            let inst = self.program.insts()[i];
            if matches!(inst, Inst::Call { .. } | Inst::CallIndirect { .. })
                || inst.is_unconditional_transfer()
            {
                return None;
            }
            if inst.dest() == Some(reg) {
                return Some(i);
            }
            at = i;
        }
        None
    }

    /// Abstract value of `reg` at position `at` (before `at` executes).
    fn eval(&self, at: usize, reg: tp_isa::Reg, depth: u32) -> AbsVal {
        if reg.is_zero() {
            return AbsVal::constant(0);
        }
        if depth >= MAX_DEPTH {
            return AbsVal::Top;
        }
        let Some(def) = self.find_def(at, reg) else {
            // No in-block definition: a single-assignment constant still
            // holds (its one write is in the prologue, before any use).
            return match self.consts[reg.index()] {
                Some(c) => AbsVal::constant(c),
                None => AbsVal::Top,
            };
        };
        match self.program.insts()[def] {
            Inst::AluImm { op: AluOp::Add, rs, imm, .. } => {
                self.eval(def, rs, depth + 1).add_const(imm as i64)
            }
            Inst::AluImm { op: AluOp::And, rs, imm, .. } => {
                self.eval(def, rs, depth + 1).and(imm as i64)
            }
            Inst::AluImm { op: AluOp::Shl, rs, imm, .. } => {
                self.eval(def, rs, depth + 1).shl(imm as i64)
            }
            Inst::AluImm { op: AluOp::Or, rs, imm, .. } => {
                // li64 materialization chains OR constants into a register.
                match self.eval(def, rs, depth + 1).as_const() {
                    Some(c) => AbsVal::constant(c | imm as i64),
                    None => AbsVal::Top,
                }
            }
            Inst::Alu { op: AluOp::Add, rs, rt, .. } => {
                let a = self.eval(def, rs, depth + 1);
                let b = self.eval(def, rt, depth + 1);
                match (a.as_const(), b.as_const()) {
                    (Some(c), _) => b.add_const(c),
                    (_, Some(c)) => a.add_const(c),
                    _ => AbsVal::Top,
                }
            }
            Inst::Load { base, offset, .. } => {
                self.load(self.eval(def, base, depth + 1), offset as i64)
            }
            _ => AbsVal::Top,
        }
    }

    /// The set of words a load could observe: every address in the strided
    /// set must name a *code-pointer slot* of the initial data image. Only
    /// those slots may be trusted to keep their initial value — ordinary
    /// data words are run-time mutable (stores would silently invalidate a
    /// "resolution" read from their initial contents), so loads from them
    /// evaluate to `Top`. Programs that write their own tables at run time
    /// are outside the supported family.
    fn load(&self, addr: AbsVal, offset: i64) -> AbsVal {
        let addrs: Vec<i64> = match addr.add_const(offset) {
            AbsVal::Strided { base, stride, count } if count <= MAX_COUNT => {
                (0..count as i64).map(|k| base.wrapping_add(k * stride)).collect()
            }
            AbsVal::Values(vs) if vs.len() <= MAX_COUNT as usize => vs,
            _ => return AbsVal::Top,
        };
        let mut words = Vec::with_capacity(addrs.len());
        for a in addrs {
            let Ok(a) = u64::try_from(a) else { return AbsVal::Top };
            match self.program.data_word(a).filter(|_| self.slots.contains(&a)) {
                Some(w) => words.push(w),
                None => return AbsVal::Top,
            }
        }
        AbsVal::Values(words)
    }
}

/// Statically resolves the target set of the indirect transfer at `pc`
/// (a [`Inst::JumpIndirect`] or [`Inst::CallIndirect`]).
///
/// Returns the exact set of possible target PCs, or `None` when the
/// dispatch does not fit the supported pattern family (the caller should
/// fall back to all code-pointer values). A resolved set may legitimately
/// contain out-of-range PCs — the lint pass reports those.
pub fn resolve_indirect(
    program: &Program,
    leaders: &[bool],
    consts: &[Option<i64>; 32],
    pc: Pc,
) -> Option<Vec<Pc>> {
    let Some(Inst::JumpIndirect { rs } | Inst::CallIndirect { rs }) = program.fetch(pc) else {
        return None;
    };
    let slots = program.code_ptrs().collect();
    let slicer = Slicer { program, leaders, consts, slots };
    match slicer.eval(pc as usize, rs, 0) {
        AbsVal::Values(vs) => {
            let mut out: Vec<Pc> =
                vs.into_iter().map(|w| Pc::try_from(w).unwrap_or(Pc::MAX)).collect();
            out.sort_unstable();
            out.dedup();
            Some(out)
        }
        // A constant register target (computed without a table load).
        v => v.as_const().map(|c| vec![Pc::try_from(c).unwrap_or(Pc::MAX)]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_isa::asm::Asm;
    use tp_isa::{Cond, Reg};

    /// The canonical masked dispatch resolves to exactly the table slice.
    #[test]
    fn masked_dispatch_resolves_to_table_slice() {
        let mut a = Asm::new("t");
        let (idx, t, base) = (Reg::new(1), Reg::new(2), Reg::new(17));
        a.li(base, 0x1000);
        a.load(idx, Reg::new(16), 0); // unknown data
        a.alui(AluOp::And, t, idx, 3);
        a.alui(AluOp::Shl, t, t, 3);
        a.alu(AluOp::Add, t, t, base);
        a.load(t, t, 8); // table slice starts one word in
        a.jump_indirect(t);
        for l in ["a0", "a1", "a2", "a3"] {
            a.label(l);
            a.nop();
        }
        a.halt();
        a.data_word(0x1000, -1); // not part of the slice
        for (i, l) in ["a0", "a1", "a2", "a3"].iter().enumerate() {
            a.data_label(0x1008 + 8 * i as u64, *l);
        }
        let p = a.assemble().unwrap();
        let jr = p.insts().iter().position(|i| matches!(i, Inst::JumpIndirect { .. })).unwrap();
        let l = leaders(&p);
        let c = global_consts(&p);
        let targets = resolve_indirect(&p, &l, &c, jr as Pc).unwrap();
        assert_eq!(targets, vec![7, 8, 9, 10]);
    }

    /// A single-slot load (function-pointer call) resolves to one target.
    #[test]
    fn single_slot_call_resolves() {
        let mut a = Asm::new("t");
        let (t, base) = (Reg::new(2), Reg::new(17));
        a.li(base, 0x1000);
        a.mv(t, base);
        a.load(t, t, 16);
        a.call_indirect(t);
        a.halt();
        a.label("f");
        a.ret();
        a.data_label(0x1010, "f");
        let p = a.assemble().unwrap();
        let ci = p.insts().iter().position(|i| matches!(i, Inst::CallIndirect { .. })).unwrap();
        let targets = resolve_indirect(&p, &leaders(&p), &global_consts(&p), ci as Pc).unwrap();
        assert_eq!(targets, vec![5]);
    }

    /// The slice refuses to cross a call (arbitrary register clobbers).
    #[test]
    fn slice_stops_at_calls_and_leaders() {
        let mut a = Asm::new("t");
        let t = Reg::new(2);
        a.li(t, 5);
        a.call("f");
        a.jump_indirect(t); // value of t is NOT the li above: f clobbers it
        a.label("f");
        a.li(t, 3); // second writer also defeats the global-const fallback
        a.ret();
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(resolve_indirect(&p, &leaders(&p), &global_consts(&p), 2), None);

        // Crossing a join (leader) is refused too.
        let mut a = Asm::new("t");
        a.li(t, 4);
        a.branch(Cond::Eq, Reg::ZERO, Reg::ZERO, "j");
        a.li(t, 5);
        a.label("j");
        a.jump_indirect(t);
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(resolve_indirect(&p, &leaders(&p), &global_consts(&p), 3), None);
    }

    /// Non-power-of-two masks do not bound an unknown index exactly.
    #[test]
    fn non_power_of_two_mask_is_unresolved() {
        let mut a = Asm::new("t");
        let (idx, t) = (Reg::new(1), Reg::new(2));
        a.load(idx, Reg::new(16), 0);
        a.alui(AluOp::And, t, idx, 5); // holes: {0,1,4,5}
        a.alui(AluOp::Shl, t, t, 3);
        a.jump_indirect(t);
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(resolve_indirect(&p, &leaders(&p), &global_consts(&p), 2), None);
    }

    #[test]
    fn global_consts_require_a_single_li_write() {
        let mut a = Asm::new("t");
        let (once, twice) = (Reg::new(7), Reg::new(8));
        a.li(once, 42);
        a.li(twice, 1);
        a.li(twice, 2);
        a.halt();
        let p = a.assemble().unwrap();
        let c = global_consts(&p);
        assert_eq!(c[7], Some(42));
        assert_eq!(c[8], None);
        assert_eq!(c[0], None); // r0 is never a tracked constant
    }
}
