//! Workload lint pass: structural defects the CFG makes visible.
//!
//! Three checks, all zero-cost once the [`CfgAnalysis`] exists:
//!
//! * **Unreachable code** — instructions no interprocedural path from the
//!   entry can execute (dead arms, orphaned functions, padding that was
//!   meant to be data).
//! * **Fall-through off the end** — a reachable final instruction whose
//!   fall-through successor would be past the program (an execution
//!   fault waiting for the right input).
//! * **Escaping code pointers** — jump-table slots whose value is not a
//!   valid PC, and resolved indirect targets outside the program.
//!
//! Clean corpora keep these at zero; the golden fixture in the repo's
//! integration tests pins that.

use tp_isa::{Addr, Pc, Program, Word};

use crate::analysis::CfgAnalysis;

/// One lint violation, with enough context to locate it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LintFinding {
    /// Instructions `start..=end` are unreachable from the entry.
    Unreachable {
        /// First PC of the unreachable run.
        start: Pc,
        /// Last PC of the unreachable run (inclusive).
        end: Pc,
    },
    /// The instruction at `pc` (the last in the program) can fall
    /// through past the end.
    FallthroughOffEnd {
        /// The offending PC.
        pc: Pc,
    },
    /// The code-pointer data slot at `addr` holds `value`, which is not
    /// a valid PC.
    EscapingCodePtr {
        /// Data address of the slot.
        addr: Addr,
        /// The out-of-range value it holds.
        value: Word,
    },
    /// The resolved indirect transfer at `pc` can target `target`,
    /// which is outside the program.
    EscapingIndirectTarget {
        /// The indirect-transfer site.
        pc: Pc,
        /// The out-of-range target.
        target: Pc,
    },
}

impl std::fmt::Display for LintFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintFinding::Unreachable { start, end } => {
                write!(f, "unreachable: pcs {start}..={end}")
            }
            LintFinding::FallthroughOffEnd { pc } => {
                write!(f, "fall-through off the end at pc {pc}")
            }
            LintFinding::EscapingCodePtr { addr, value } => {
                write!(f, "code pointer at {addr:#x} escapes the program: {value}")
            }
            LintFinding::EscapingIndirectTarget { pc, target } => {
                write!(f, "indirect transfer at pc {pc} targets {target}, outside the program")
            }
        }
    }
}

/// Runs all lint checks over `program`.
pub fn lint(program: &Program, analysis: &CfgAnalysis) -> Vec<LintFinding> {
    let n = program.len();
    let mut out = Vec::new();

    // Unreachable instructions, coalesced into runs.
    let mut run: Option<(Pc, Pc)> = None;
    for pc in 0..n as Pc {
        if !analysis.is_reachable(pc) {
            run = Some(match run {
                None => (pc, pc),
                Some((s, _)) => (s, pc),
            });
        } else if let Some((s, e)) = run.take() {
            out.push(LintFinding::Unreachable { start: s, end: e });
        }
    }
    if let Some((s, e)) = run {
        out.push(LintFinding::Unreachable { start: s, end: e });
    }

    // Fall-through off the end: the last instruction has a fall-through
    // successor. (A conditional branch falls through on not-taken; a call
    // falls through on return; anything non-transfer always does.)
    if n > 0 {
        let last = (n - 1) as Pc;
        let inst = program.insts()[n - 1];
        // A conditional branch falls through on not-taken; a call's
        // returning callee resumes past the end; anything non-transfer
        // always falls through.
        let falls = inst.is_cond_branch()
            || matches!(inst, tp_isa::Inst::Call { .. } | tp_isa::Inst::CallIndirect { .. })
            || !inst.is_unconditional_transfer();
        if falls && analysis.is_reachable(last) {
            out.push(LintFinding::FallthroughOffEnd { pc: last });
        }
    }

    // Escaping code pointers: declared slots whose value is not a PC.
    for addr in program.code_ptrs() {
        let value = program.data_word(addr).unwrap_or(0);
        if value < 0 || value >= n as Word {
            out.push(LintFinding::EscapingCodePtr { addr, value });
        }
    }

    // Escaping resolved indirect targets.
    for (pc, resolved) in analysis.indirect_sites() {
        if resolved {
            for &t in analysis.resolved_indirect_targets(pc).unwrap_or(&[]) {
                if t as usize >= n {
                    out.push(LintFinding::EscapingIndirectTarget { pc, target: t });
                }
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_isa::asm::Asm;
    use tp_isa::{Cond, Reg};

    #[test]
    fn clean_program_has_no_findings() {
        let mut a = Asm::new("t");
        a.li(Reg::new(1), 1);
        a.halt();
        let p = a.assemble().unwrap();
        let c = CfgAnalysis::build(&p);
        assert!(lint(&p, &c).is_empty());
    }

    #[test]
    fn unreachable_runs_are_coalesced() {
        let mut a = Asm::new("t");
        a.halt(); // pc 0
        a.nop(); // pc 1: dead
        a.nop(); // pc 2: dead
        a.label("f");
        a.jump("f"); // pc 3: dead (never called)
        let p = a.assemble().unwrap();
        let c = CfgAnalysis::build(&p);
        assert_eq!(lint(&p, &c), vec![LintFinding::Unreachable { start: 1, end: 3 }]);
    }

    #[test]
    fn fallthrough_off_the_end_is_flagged() {
        let mut a = Asm::new("t");
        let r = Reg::new(1);
        a.branch(Cond::Eq, r, Reg::ZERO, "done"); // pc 0
        a.label("done");
        a.nop(); // pc 1: falls off the end
        let p = a.assemble().unwrap();
        let c = CfgAnalysis::build(&p);
        assert_eq!(lint(&p, &c), vec![LintFinding::FallthroughOffEnd { pc: 1 }]);
    }

    #[test]
    fn escaping_code_pointer_is_flagged() {
        let mut a = Asm::new("t");
        let r = Reg::new(1);
        a.li(r, 0x100);
        a.load(r, r, 0);
        a.jump_indirect(r); // resolves to the single slot value
        a.label("arm");
        a.halt();
        a.data_label(0x100, "arm");
        let p = a.assemble().unwrap();
        // Corrupt the table out-of-band: re-build the program with a raw
        // out-of-range word in the slot instead of the label.
        let p = Program::new(
            p.name().to_string(),
            p.insts().to_vec(),
            p.entry(),
            p.data().map(|(a, _)| (a, 99_i64)),
        )
        .unwrap()
        .with_code_ptrs(p.code_ptrs())
        .unwrap();
        let c = CfgAnalysis::build(&p);
        let findings = lint(&p, &c);
        assert!(
            findings.contains(&LintFinding::EscapingCodePtr { addr: 0x100, value: 99 }),
            "{findings:?}"
        );
    }
}
