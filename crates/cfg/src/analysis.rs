//! Whole-program CFG recovery and re-convergence analysis.
//!
//! [`CfgAnalysis::build`] recovers an instruction-level control-flow graph
//! from a decoded [`Program`] (either frontend — both lower to the same
//! [`Inst`] stream), resolves indirect transfers through their jump tables
//! (`resolve`), summarizes calls (so a branch's re-convergence is
//! computed *within its function*, with callees collapsed to their
//! can-return / can-halt behaviour), and computes dominator and
//! post-dominator trees over the result.
//!
//! The paper's *re-convergent point* of a conditional branch is exactly
//! the branch's immediate post-dominator in this graph; the
//! [`CfgAnalysis::classify`] taxonomy maps every PC the simulator's
//! dynamic heuristics can detect onto the static tree (exact ipdom, a
//! higher post-dominator, a loop's not-taken target, a return
//! continuation, or a known indirect target) — anything else is a
//! heuristic bug.

use std::collections::{BTreeMap, BTreeSet};

use tp_isa::{Inst, Pc, Program};

use crate::dom::DomTree;
use crate::graph::Graph;
use crate::resolve::{code_ptr_values, global_consts, leaders, resolve_indirect};

/// How a dynamically detected re-convergent PC relates to the static CFG.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReconvClass {
    /// Exactly the branch's immediate post-dominator.
    Exact,
    /// A (non-immediate) post-dominator of the branch: later than the
    /// earliest re-convergent point, but statically guaranteed to be on
    /// every path — trace boundaries quantize detection to trace starts.
    PostDominator,
    /// The not-taken successor of a backward branch: the MLB heuristic's
    /// assumption. For multi-exit loops this is inside the
    /// control-dependent region rather than a post-dominator.
    LoopNotTaken,
    /// The continuation of some call site: the RET heuristic re-converges
    /// where the enclosing function returns, which is a caller-side PC the
    /// intra-function post-dominator tree cannot name.
    ReturnContinuation,
    /// A known indirect-transfer target (jump-table arm or function
    /// entry).
    IndirectTarget,
    /// Interprocedurally reachable from *both* outcomes of the branch —
    /// the necessary condition for fetch to re-converge there — but none
    /// of the stronger classes above. The RET heuristic matches against
    /// *predicted* downstream traces, so wrong-path trace history can
    /// place its claimed re-convergence at any dynamic join (e.g. inside
    /// the body of a callee invoked on both paths, at a trace boundary
    /// that fell mid-function).
    ReachableJoin,
    /// None of the above — a re-convergence detection the static CFG
    /// cannot justify: the claimed PC is unreachable from at least one
    /// outcome of the branch, so fetch could never re-converge there.
    Unclassified,
}

impl ReconvClass {
    /// All classes, in reporting order.
    pub const ALL: [ReconvClass; 7] = [
        ReconvClass::Exact,
        ReconvClass::PostDominator,
        ReconvClass::LoopNotTaken,
        ReconvClass::ReturnContinuation,
        ReconvClass::IndirectTarget,
        ReconvClass::ReachableJoin,
        ReconvClass::Unclassified,
    ];

    /// Position in [`ReconvClass::ALL`] (for dense counter arrays).
    pub fn index(self) -> usize {
        ReconvClass::ALL.iter().position(|&c| c == self).expect("ALL is exhaustive")
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ReconvClass::Exact => "exact",
            ReconvClass::PostDominator => "post-dominator",
            ReconvClass::LoopNotTaken => "loop-not-taken",
            ReconvClass::ReturnContinuation => "return-continuation",
            ReconvClass::IndirectTarget => "indirect-target",
            ReconvClass::ReachableJoin => "reachable-join",
            ReconvClass::Unclassified => "unclassified",
        }
    }
}

/// Call-behaviour summary of one function (reachable code from its entry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct FnSummary {
    /// Some path from the entry reaches a `ret`.
    can_return: bool,
    /// Some path reaches a `halt` (directly or through a callee), or runs
    /// off the end of the program.
    can_halt: bool,
}

/// Static control-flow analysis of one program.
///
/// See the [module docs](self) for the graph construction. All queries are
/// O(dominator-tree depth) or better.
#[derive(Clone, Debug)]
pub struct CfgAnalysis {
    insts: Vec<Inst>,
    entry: Pc,
    /// Virtual exit node (index `len`): targets of `ret`/`halt` edges.
    vexit: u32,
    flow: Graph,
    pdom: DomTree,
    fn_entries: Vec<Pc>,
    summaries: BTreeMap<Pc, FnSummary>,
    /// Per-site resolved indirect targets (`None` = fell back to the
    /// conservative all-code-pointers set).
    indirect: BTreeMap<Pc, Option<Vec<Pc>>>,
    /// All PCs any indirect transfer could target (resolved ∪ fallback).
    indirect_target_set: BTreeSet<Pc>,
    return_continuations: BTreeSet<Pc>,
    code_ptr_pcs: Vec<Pc>,
    /// Interprocedurally reachable instructions (from the program entry).
    reachable: Vec<bool>,
    /// Per conditional branch: instructions interprocedurally reachable
    /// from *both* its outcomes (the candidate dynamic-join set).
    join_reach: BTreeMap<Pc, Vec<bool>>,
    /// Natural-loop nesting depth per instruction.
    loop_depth: Vec<u32>,
    /// Distinct natural-loop headers.
    loop_headers: Vec<Pc>,
}

impl CfgAnalysis {
    /// Builds the analysis for `program`.
    pub fn build(program: &Program) -> CfgAnalysis {
        let n = program.len();
        let vexit = n as u32;
        let ventry = n as u32 + 1;
        let insts: Vec<Inst> = program.insts().to_vec();

        // Per-site indirect-target resolution, with the conservative
        // fallback of every recorded code-pointer slot value.
        let lead = leaders(program);
        let consts = global_consts(program);
        let code_ptr_pcs = code_ptr_values(program);
        let mut indirect: BTreeMap<Pc, Option<Vec<Pc>>> = BTreeMap::new();
        let mut indirect_target_set: BTreeSet<Pc> = BTreeSet::new();
        for (pc, inst) in insts.iter().enumerate() {
            if matches!(inst, Inst::JumpIndirect { .. } | Inst::CallIndirect { .. }) {
                let r = resolve_indirect(program, &lead, &consts, pc as Pc);
                match &r {
                    Some(ts) => indirect_target_set.extend(ts.iter().copied()),
                    None => indirect_target_set.extend(code_ptr_pcs.iter().copied()),
                }
                indirect.insert(pc as Pc, r);
            }
        }

        // Function entries: the program entry plus every (resolved or
        // conservative) call target.
        let mut fn_entries: BTreeSet<Pc> = BTreeSet::new();
        fn_entries.insert(program.entry());
        for (pc, inst) in insts.iter().enumerate() {
            match inst {
                Inst::Call { target } => {
                    fn_entries.insert(*target);
                }
                Inst::CallIndirect { .. } => {
                    for t in Self::site_targets(&indirect, &code_ptr_pcs, pc as Pc) {
                        if (t as usize) < n {
                            fn_entries.insert(t);
                        }
                    }
                }
                _ => {}
            }
        }
        let fn_entries: Vec<Pc> = fn_entries.into_iter().collect();

        // Can-return / can-halt summaries to a fixed point (monotone
        // booleans, so this terminates quickly).
        let mut summaries: BTreeMap<Pc, FnSummary> =
            fn_entries.iter().map(|&f| (f, FnSummary::default())).collect();
        loop {
            let mut changed = false;
            for &f in &fn_entries {
                let s = Self::scan_function(&insts, &indirect, &code_ptr_pcs, &summaries, f);
                if summaries[&f] != s {
                    summaries.insert(f, s);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // The re-convergence flow graph: calls summarized, `ret` and
        // `halt` edged to the virtual exit, the virtual entry fanning out
        // to every function entry so dominators are defined per function.
        let mut flow = Graph::new(n + 2);
        for (pc, inst) in insts.iter().enumerate() {
            let pc32 = pc as u32;
            let fall = |g: &mut Graph| {
                g.add_edge(pc32, if pc + 1 < n { pc32 + 1 } else { vexit });
            };
            match *inst {
                Inst::Branch { target, .. } => {
                    flow.add_edge(pc32, target);
                    fall(&mut flow);
                }
                Inst::Jump { target } => flow.add_edge(pc32, target),
                Inst::Call { target } => {
                    let s = summaries[&target];
                    if s.can_return {
                        fall(&mut flow);
                    }
                    if s.can_halt {
                        flow.add_edge(pc32, vexit);
                    }
                }
                Inst::CallIndirect { .. } => {
                    let mut any_return = false;
                    let mut any_halt = false;
                    for t in Self::site_targets(&indirect, &code_ptr_pcs, pc32) {
                        if let Some(s) = summaries.get(&t) {
                            any_return |= s.can_return;
                            any_halt |= s.can_halt;
                        }
                    }
                    if any_return {
                        fall(&mut flow);
                    }
                    if any_halt {
                        flow.add_edge(pc32, vexit);
                    }
                }
                Inst::JumpIndirect { .. } => {
                    for t in Self::site_targets(&indirect, &code_ptr_pcs, pc32) {
                        flow.add_edge(pc32, if (t as usize) < n { t } else { vexit });
                    }
                }
                Inst::Ret | Inst::Halt => flow.add_edge(pc32, vexit),
                _ => fall(&mut flow),
            }
        }
        for &f in &fn_entries {
            flow.add_edge(ventry, f);
        }

        let dom = DomTree::build(&flow, ventry);
        let pdom = DomTree::build(&flow.reversed(), vexit);

        // Natural loops: back edge u -> v with v dominating u; the loop
        // body is the backward closure of u up to v. Loops sharing a
        // header are merged (standard), and nesting depth counts the
        // distinct headers containing each instruction.
        let mut loops: BTreeMap<Pc, BTreeSet<u32>> = BTreeMap::new();
        for u in 0..n as u32 {
            for &v in flow.succs(u) {
                if v < n as u32 && dom.dominates(v, u) {
                    let body = loops.entry(v).or_default();
                    body.insert(v);
                    let mut stack = vec![u];
                    while let Some(x) = stack.pop() {
                        if body.insert(x) {
                            for &p in flow.preds(x) {
                                if p < n as u32 && p != v && dom.is_reachable(p) {
                                    stack.push(p);
                                }
                            }
                        }
                    }
                }
            }
        }
        let mut loop_depth = vec![0u32; n];
        for body in loops.values() {
            for &x in body {
                loop_depth[x as usize] += 1;
            }
        }
        let loop_headers: Vec<Pc> = loops.keys().copied().collect();

        let return_continuations: BTreeSet<Pc> = insts
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, Inst::Call { .. } | Inst::CallIndirect { .. }))
            .map(|(pc, _)| pc as Pc + 1)
            .filter(|&c| (c as usize) < n)
            .collect();

        let reachable = Self::interproc_reachable(
            &insts,
            &indirect,
            &code_ptr_pcs,
            &summaries,
            program.entry(),
        );

        // Candidate dynamic joins per branch: a PC unreachable from either
        // outcome can never be a re-convergence point, however the
        // heuristics arrived at it.
        let mut join_reach: BTreeMap<Pc, Vec<bool>> = BTreeMap::new();
        for (pc, inst) in insts.iter().enumerate() {
            let Inst::Branch { target, .. } = *inst else { continue };
            let reach = |from: Pc| {
                Self::interproc_reachable(&insts, &indirect, &code_ptr_pcs, &summaries, from)
            };
            let taken = reach(target);
            let joint = if pc + 1 < n {
                let fall = reach(pc as Pc + 1);
                taken.iter().zip(&fall).map(|(&a, &b)| a && b).collect()
            } else {
                vec![false; n] // fall-through off the end: no join exists
            };
            join_reach.insert(pc as Pc, joint);
        }

        CfgAnalysis {
            insts,
            entry: program.entry(),
            vexit,
            flow,
            pdom,
            fn_entries,
            summaries,
            indirect,
            indirect_target_set,
            return_continuations,
            code_ptr_pcs,
            reachable,
            join_reach,
            loop_depth,
            loop_headers,
        }
    }

    /// The (resolved or fallback) target set of the indirect site at `pc`.
    fn site_targets<'a>(
        indirect: &'a BTreeMap<Pc, Option<Vec<Pc>>>,
        code_ptr_pcs: &'a [Pc],
        pc: Pc,
    ) -> impl Iterator<Item = Pc> + 'a {
        let (resolved, fallback) = match indirect.get(&pc) {
            Some(Some(ts)) => (Some(ts.as_slice()), None),
            _ => (None, Some(code_ptr_pcs)),
        };
        resolved.into_iter().flatten().chain(fallback.into_iter().flatten()).copied()
    }

    /// One function's can-return / can-halt bits, given current summaries
    /// of every callee (intraprocedural reachability from `f`).
    fn scan_function(
        insts: &[Inst],
        indirect: &BTreeMap<Pc, Option<Vec<Pc>>>,
        code_ptr_pcs: &[Pc],
        summaries: &BTreeMap<Pc, FnSummary>,
        f: Pc,
    ) -> FnSummary {
        let n = insts.len();
        let mut out = FnSummary::default();
        let mut seen = vec![false; n];
        let mut stack = vec![f];
        seen[f as usize] = true;
        let push = |pc: usize, seen: &mut Vec<bool>, stack: &mut Vec<Pc>| {
            if pc < n && !seen[pc] {
                seen[pc] = true;
                stack.push(pc as Pc);
            }
        };
        while let Some(pc) = stack.pop() {
            let i = pc as usize;
            match insts[i] {
                Inst::Branch { target, .. } => {
                    push(target as usize, &mut seen, &mut stack);
                    if i + 1 < n {
                        push(i + 1, &mut seen, &mut stack);
                    } else {
                        out.can_halt = true; // off the end
                    }
                }
                Inst::Jump { target } => push(target as usize, &mut seen, &mut stack),
                Inst::Call { target } => {
                    let s = summaries.get(&target).copied().unwrap_or_default();
                    out.can_halt |= s.can_halt;
                    if s.can_return {
                        push(i + 1, &mut seen, &mut stack);
                    }
                }
                Inst::CallIndirect { .. } => {
                    let mut any_return = false;
                    for t in Self::site_targets(indirect, code_ptr_pcs, pc) {
                        if let Some(s) = summaries.get(&t) {
                            any_return |= s.can_return;
                            out.can_halt |= s.can_halt;
                        }
                    }
                    if any_return {
                        push(i + 1, &mut seen, &mut stack);
                    }
                }
                Inst::JumpIndirect { .. } => {
                    for t in Self::site_targets(indirect, code_ptr_pcs, pc) {
                        push(t as usize, &mut seen, &mut stack);
                    }
                }
                Inst::Ret => out.can_return = true,
                Inst::Halt => out.can_halt = true,
                _ => {
                    if i + 1 < n {
                        push(i + 1, &mut seen, &mut stack);
                    } else {
                        out.can_halt = true; // off the end
                    }
                }
            }
        }
        out
    }

    /// Interprocedural reachability from `entry` (the program entry, or
    /// any PC for per-branch join sets): calls descend into the callee
    /// *and* continue past the site when the callee can return. Returns
    /// stop the walk (the caller is unknown without context), so this
    /// under-approximates across the end of the enclosing function — the
    /// caller-side continuation classes cover those PCs instead.
    fn interproc_reachable(
        insts: &[Inst],
        indirect: &BTreeMap<Pc, Option<Vec<Pc>>>,
        code_ptr_pcs: &[Pc],
        summaries: &BTreeMap<Pc, FnSummary>,
        entry: Pc,
    ) -> Vec<bool> {
        let n = insts.len();
        let mut seen = vec![false; n];
        let mut stack = vec![entry];
        seen[entry as usize] = true;
        let push = |pc: usize, seen: &mut Vec<bool>, stack: &mut Vec<Pc>| {
            if pc < n && !seen[pc] {
                seen[pc] = true;
                stack.push(pc as Pc);
            }
        };
        while let Some(pc) = stack.pop() {
            let i = pc as usize;
            match insts[i] {
                Inst::Branch { target, .. } => {
                    push(target as usize, &mut seen, &mut stack);
                    push(i + 1, &mut seen, &mut stack);
                }
                Inst::Jump { target } => push(target as usize, &mut seen, &mut stack),
                Inst::Call { target } => {
                    push(target as usize, &mut seen, &mut stack);
                    if summaries.get(&target).is_some_and(|s| s.can_return) {
                        push(i + 1, &mut seen, &mut stack);
                    }
                }
                Inst::CallIndirect { .. } => {
                    let mut any_return = false;
                    for t in Self::site_targets(indirect, code_ptr_pcs, pc) {
                        push(t as usize, &mut seen, &mut stack);
                        any_return |= summaries.get(&t).is_some_and(|s| s.can_return);
                    }
                    if any_return {
                        push(i + 1, &mut seen, &mut stack);
                    }
                }
                Inst::JumpIndirect { .. } => {
                    for t in Self::site_targets(indirect, code_ptr_pcs, pc) {
                        push(t as usize, &mut seen, &mut stack);
                    }
                }
                Inst::Ret | Inst::Halt => {}
                _ => push(i + 1, &mut seen, &mut stack),
            }
        }
        seen
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty (never true for a validated program).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The program entry PC.
    pub fn entry(&self) -> Pc {
        self.entry
    }

    /// Function entries: the program entry plus every call target.
    pub fn function_entries(&self) -> &[Pc] {
        &self.fn_entries
    }

    /// Whether `pc` is reachable from the entry (interprocedurally).
    pub fn is_reachable(&self, pc: Pc) -> bool {
        self.reachable.get(pc as usize).copied().unwrap_or(false)
    }

    /// Natural-loop nesting depth of `pc` (0 = not in any loop).
    pub fn loop_depth(&self, pc: Pc) -> u32 {
        self.loop_depth.get(pc as usize).copied().unwrap_or(0)
    }

    /// Distinct natural-loop headers.
    pub fn loop_headers(&self) -> &[Pc] {
        &self.loop_headers
    }

    /// The statically resolved target set of the indirect transfer at
    /// `pc`: `Some(targets)` when the dispatch pattern was recovered
    /// exactly, `None` when the site exists but fell back to the
    /// conservative all-code-pointers set (query
    /// [`CfgAnalysis::indirect_fallback_targets`] for that), and `None`
    /// for non-indirect PCs.
    pub fn resolved_indirect_targets(&self, pc: Pc) -> Option<&[Pc]> {
        self.indirect.get(&pc).and_then(|r| r.as_deref())
    }

    /// The conservative indirect-target set: every valid PC recorded in a
    /// code-pointer data slot.
    pub fn indirect_fallback_targets(&self) -> &[Pc] {
        &self.code_ptr_pcs
    }

    /// Indirect-transfer sites, with whether each was exactly resolved.
    pub fn indirect_sites(&self) -> impl Iterator<Item = (Pc, bool)> + '_ {
        self.indirect.iter().map(|(&pc, r)| (pc, r.is_some()))
    }

    /// The branch's static re-convergent point: its immediate
    /// post-dominator. `None` when the branch re-converges only at the
    /// function exit (the RET class) or post-dominance is undefined.
    pub fn reconv_point(&self, branch_pc: Pc) -> Option<Pc> {
        if !matches!(self.insts.get(branch_pc as usize), Some(i) if i.is_cond_branch()) {
            return None;
        }
        match self.pdom.idom(branch_pc) {
            Some(d) if d != self.vexit => Some(d),
            _ => None,
        }
    }

    /// Whether `a` post-dominates `b` in the re-convergence flow graph.
    pub fn post_dominates(&self, a: Pc, b: Pc) -> bool {
        a != self.vexit && b != self.vexit && self.pdom.dominates(a, b)
    }

    /// Classifies a dynamically detected re-convergent PC for the
    /// conditional branch at `branch_pc` (see [`ReconvClass`]).
    pub fn classify(&self, branch_pc: Pc, detected: Pc) -> ReconvClass {
        if self.reconv_point(branch_pc) == Some(detected) {
            return ReconvClass::Exact;
        }
        if detected != branch_pc && self.post_dominates(detected, branch_pc) {
            return ReconvClass::PostDominator;
        }
        let backward =
            self.insts.get(branch_pc as usize).is_some_and(|i| i.is_backward_branch(branch_pc));
        if backward && detected == branch_pc + 1 {
            return ReconvClass::LoopNotTaken;
        }
        if self.return_continuations.contains(&detected) {
            return ReconvClass::ReturnContinuation;
        }
        if self.indirect_target_set.contains(&detected) {
            return ReconvClass::IndirectTarget;
        }
        let joinable = self
            .join_reach
            .get(&branch_pc)
            .is_some_and(|r| r.get(detected as usize).copied().unwrap_or(false));
        if joinable {
            return ReconvClass::ReachableJoin;
        }
        ReconvClass::Unclassified
    }

    /// The size of the branch's control-dependent region: instructions on
    /// paths between the branch and its re-convergent point (exclusive of
    /// both). `None` when the branch has no intra-function re-convergent
    /// point.
    pub fn region_size(&self, branch_pc: Pc) -> Option<usize> {
        let reconv = self.reconv_point(branch_pc)?;
        let mut seen = BTreeSet::new();
        let mut stack: Vec<u32> = self
            .flow
            .succs(branch_pc)
            .iter()
            .copied()
            .filter(|&s| s != reconv && s != self.vexit)
            .collect();
        for &s in &stack {
            seen.insert(s);
        }
        while let Some(v) = stack.pop() {
            for &s in self.flow.succs(v) {
                if s != reconv && s != self.vexit && seen.insert(s) {
                    stack.push(s);
                }
            }
        }
        Some(seen.len())
    }

    /// Whether the function containing nothing but a scan from `f` can
    /// return (used by tests; `f` must be a function entry).
    #[doc(hidden)]
    pub fn fn_can_return(&self, f: Pc) -> Option<bool> {
        self.summaries.get(&f).map(|s| s.can_return)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_isa::asm::Asm;
    use tp_isa::{Cond, Reg};

    fn asm() -> Asm {
        Asm::new("t")
    }

    /// A simple hammock: the branch re-converges exactly at the join.
    #[test]
    fn hammock_reconverges_at_join() {
        let mut a = asm();
        let r = Reg::new(1);
        a.load(r, Reg::new(16), 0);
        a.branch(Cond::Eq, r, Reg::ZERO, "else"); // pc 1
        a.addi(r, r, 1);
        a.jump("end");
        a.label("else");
        a.addi(r, r, 2);
        a.label("end"); // pc 5
        a.halt();
        let c = CfgAnalysis::build(&a.assemble().unwrap());
        assert_eq!(c.reconv_point(1), Some(5));
        assert_eq!(c.classify(1, 5), ReconvClass::Exact);
        assert_eq!(c.region_size(1), Some(3)); // pcs 2, 3, 4
        assert_eq!(c.classify(1, 0), ReconvClass::Unclassified);
    }

    /// A single-exit loop: the backward branch re-converges at its
    /// not-taken successor.
    #[test]
    fn loop_backedge_reconverges_at_exit() {
        let mut a = asm();
        let r = Reg::new(1);
        a.li(r, 5);
        a.label("top");
        a.addi(r, r, -1);
        a.branch(Cond::Gt, r, Reg::ZERO, "top"); // pc 2, backward
        a.halt(); // pc 3
        let c = CfgAnalysis::build(&a.assemble().unwrap());
        assert_eq!(c.reconv_point(2), Some(3));
        assert_eq!(c.classify(2, 3), ReconvClass::Exact);
        assert_eq!(c.loop_depth(1), 1);
        assert_eq!(c.loop_depth(0), 0);
        assert_eq!(c.loop_headers(), &[1]);
    }

    /// A multi-exit loop: the break and the back edge join *after* the
    /// not-taken successor, so MLB's assumption is the LoopNotTaken
    /// exception, not the exact ipdom.
    #[test]
    fn multi_exit_loop_classifies_mlb_as_loop_not_taken() {
        let mut a = asm();
        let (r, s) = (Reg::new(1), Reg::new(2));
        a.li(r, 5);
        a.label("top");
        a.branch(Cond::Eq, s, Reg::ZERO, "out"); // break
        a.addi(r, r, -1);
        a.branch(Cond::Gt, r, Reg::ZERO, "top"); // pc 3, backward
        a.nop(); // pc 4: only on the fall-through path
        a.label("out");
        a.halt(); // pc 5
        let c = CfgAnalysis::build(&a.assemble().unwrap());
        assert_eq!(c.reconv_point(3), Some(5)); // join of break and exit
        assert_eq!(c.classify(3, 4), ReconvClass::LoopNotTaken);
        assert_eq!(c.classify(3, 5), ReconvClass::Exact);
    }

    /// A branch whose arms both return: no intra-function re-convergent
    /// point; the call continuation is the RET class.
    #[test]
    fn function_exit_branch_classifies_return_continuation() {
        let mut a = asm();
        let r = Reg::new(1);
        a.call("f"); // pc 0
        a.halt(); // pc 1: the continuation
        a.label("f");
        a.branch(Cond::Eq, r, Reg::ZERO, "f_else"); // pc 2
        a.ret();
        a.label("f_else");
        a.ret();
        let c = CfgAnalysis::build(&a.assemble().unwrap());
        assert_eq!(c.reconv_point(2), None);
        assert_eq!(c.classify(2, 1), ReconvClass::ReturnContinuation);
        assert_eq!(c.fn_can_return(2), Some(true));
    }

    /// A PC inside a callee invoked on both paths of a branch is a
    /// legitimate (if weak) dynamic join — the RET heuristic lands on such
    /// PCs when wrong-path trace predictions put a mid-function trace
    /// boundary after a return-ending trace. A PC reachable from only one
    /// outcome stays unclassified.
    #[test]
    fn callee_body_classifies_reachable_join() {
        let mut a = asm();
        let r = Reg::new(1);
        a.label("top");
        a.call("f"); // pc 0
        a.addi(r, r, -1);
        a.branch(Cond::Gt, r, Reg::ZERO, "top"); // pc 2, backward
        a.halt(); // pc 3: loop exit
        a.nop(); // pc 4: dead — reachable from neither outcome
        a.label("f");
        a.nop(); // pc 5: inside the callee, reached from both outcomes?
        a.ret(); // (taken re-enters the loop and calls f; fall-through halts)
        let c = CfgAnalysis::build(&a.assemble().unwrap());
        // Fall-through halts without calling f again, so pc 5 is NOT a
        // join of this branch.
        assert_eq!(c.classify(2, 5), ReconvClass::Unclassified);
        assert_eq!(c.classify(2, 4), ReconvClass::Unclassified);

        // Same loop, but the exit path calls f once more before halting:
        // now the callee body is reachable from both outcomes.
        let mut a = asm();
        a.label("top");
        a.call("f"); // pc 0
        a.addi(r, r, -1);
        a.branch(Cond::Gt, r, Reg::ZERO, "top"); // pc 2, backward
        a.call("f");
        a.halt();
        a.label("f");
        a.nop(); // pc 5
        a.ret();
        let c = CfgAnalysis::build(&a.assemble().unwrap());
        assert_eq!(c.classify(2, 5), ReconvClass::ReachableJoin);
    }

    /// Calls are summarized: a branch over a call still re-converges
    /// after it, and a callee that can halt breaks post-dominance.
    #[test]
    fn call_summarization_keeps_reconvergence() {
        let mut a = asm();
        let r = Reg::new(1);
        a.branch(Cond::Eq, r, Reg::ZERO, "end"); // pc 0
        a.call("f");
        a.label("end");
        a.halt(); // pc 2
        a.label("f");
        a.ret();
        let c = CfgAnalysis::build(&a.assemble().unwrap());
        assert_eq!(c.reconv_point(0), Some(2));

        // Same shape, but the callee can halt: the call might never fall
        // through, so the branch's ipdom is pushed to the exit.
        let mut a = asm();
        a.branch(Cond::Eq, r, Reg::ZERO, "end");
        a.call("f");
        a.label("end");
        a.halt();
        a.label("f");
        a.branch(Cond::Eq, r, Reg::ZERO, "h");
        a.ret();
        a.label("h");
        a.halt();
        let c = CfgAnalysis::build(&a.assemble().unwrap());
        assert_eq!(c.reconv_point(0), None);
    }

    /// Resolved switch dispatch: arms re-join, and the hammock branch
    /// over the whole switch still finds its join exactly.
    #[test]
    fn switch_arms_rejoin_through_resolved_dispatch() {
        let mut a = asm();
        let (idx, t, base) = (Reg::new(1), Reg::new(2), Reg::new(17));
        a.li(base, 0x1000);
        a.load(idx, Reg::new(16), 0);
        a.branch(Cond::Eq, idx, Reg::ZERO, "swend"); // pc 2: hammock over switch
        a.alui(tp_isa::AluOp::And, t, idx, 1);
        a.alui(tp_isa::AluOp::Shl, t, t, 3);
        a.alu(tp_isa::AluOp::Add, t, t, base);
        a.load(t, t, 0);
        a.jump_indirect(t); // pc 7
        a.label("arm0");
        a.jump("swend");
        a.label("arm1");
        a.nop();
        a.label("swend");
        a.halt(); // pc 10
        a.data_label(0x1000, "arm0");
        a.data_label(0x1008, "arm1");
        let p = a.assemble().unwrap();
        let c = CfgAnalysis::build(&p);
        assert_eq!(c.resolved_indirect_targets(7), Some(&[8, 9][..]));
        assert_eq!(c.reconv_point(2), Some(10));
        assert_eq!(c.classify(2, 8), ReconvClass::IndirectTarget);
    }

    /// Unreachable code is detected interprocedurally.
    #[test]
    fn reachability_descends_into_callees() {
        let mut a = asm();
        a.call("f");
        a.halt();
        a.label("dead");
        a.nop(); // pc 2: unreachable
        a.label("f");
        a.ret(); // pc 3: reachable through the call
        let c = CfgAnalysis::build(&a.assemble().unwrap());
        assert!(c.is_reachable(0));
        assert!(!c.is_reachable(2));
        assert!(c.is_reachable(3));
        assert_eq!(c.function_entries(), &[0, 3]);
    }
}
