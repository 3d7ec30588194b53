//! Emission of a [`FuzzAst`] to both frontends.
//!
//! [`emit_synth`] assembles the AST through the internal [`Asm`];
//! [`emit_rv`] renders RV64 assembly text and assembles it with the
//! `tp-rv` assembler, so the resulting program travels the full
//! assemble → encode → decode → lower path — every fuzz run is also an
//! encoder/decoder round trip.
//!
//! Both emitters use the *same* architectural registers (the scratch set
//! `x4..x11`/`r4..r11` and the helper registers below are fixed points of
//! the rv↔internal register involution), the same data layout, and the
//! same structured lowering, so a divergence reproduces on whichever
//! frontend it was found under.
//!
//! Register conventions (shared by both emissions):
//!
//! | register | role |
//! |---|---|
//! | `r4..r11` | scratch computation (`NUM_SCRATCH`) |
//! | `r13` | memory-sourced branch operands |
//! | `r14`, `r15` | jump-table address / target |
//! | `r16` | data-region base pointer |
//! | `r17` | table-region base pointer |
//! | `r20+d` | loop counter at loop depth `d` |
//! | `sp`, `ra` | stack / link (per-ISA conventional registers) |

use tp_isa::asm::Asm;
use tp_isa::{AluOp, Cond, Pc, Program, Reg, Word, DATA_BASE, STACK_BASE};
use tp_rv::{RvAsm, RvError};

use crate::ast::{CondSpec, CondSrc, FuzzAst, Op, Stmt, Trip};

/// Structural re-convergence ground truth, recorded *during* emission:
/// the emitters know exactly where every hammock joins, every loop
/// exits, and every jump table points, because they placed the labels.
/// This is what the static analysis (`tp-cfg`) must recover from the
/// decoded instruction stream alone — per branch, the exact immediate
/// post-dominator, with no classified-exception slack.
#[derive(Clone, Debug, Default)]
pub struct ReconvTruth {
    /// `(conditional branch PC, its re-convergent point)`: the hammock's
    /// join label, or the loop's exit label for back-edge and break
    /// branches.
    pub branches: Vec<(Pc, Pc)>,
    /// `(indirect transfer PC, exact target set)`: the switch's arm
    /// labels, or the indirectly called function's entry (sorted).
    pub indirects: Vec<(Pc, Vec<Pc>)>,
}

/// Byte base address of the jump-table region. Disjoint from the data
/// words (at [`DATA_BASE`]) so stores can never clobber a code address,
/// and from the stack (at [`STACK_BASE`]).
pub const TABLE_BASE: u64 = 0x4_0000;

/// Number of loop-counter registers (`r20..r20+NUM_COUNTERS`). These are
/// *callee-saved*: every function pushes and restores them, because a
/// callee's loop exiting early (via `break`) would otherwise leave a
/// caller's counter register re-armed to a positive value each iteration —
/// an infinite loop. The generator clamps nesting depth to this bound.
pub const NUM_COUNTERS: u8 = 6;

const SCRATCH_BASE: u8 = 4;
const COND_TMP: u8 = 13;
const TBL_ADDR: u8 = 14;
const TBL_TGT: u8 = 15;
const DATA_PTR: u8 = 16;
const TABLE_PTR: u8 = 17;
const LOOP_BASE: u8 = 20;

/// Emits the AST as an internal-ISA [`Program`].
pub fn emit_synth(ast: &FuzzAst, name: &str) -> Program {
    emit_synth_with_truth(ast, name).0
}

/// [`emit_synth`], also returning the emission's [`ReconvTruth`].
pub fn emit_synth_with_truth(ast: &FuzzAst, name: &str) -> (Program, ReconvTruth) {
    let mut e = SynthEmit {
        a: Asm::new(name),
        tables: Vec::new(),
        branch_truth: Vec::new(),
        indirect_truth: Vec::new(),
    };
    e.a.li64(Reg::SP, STACK_BASE as i64);
    e.a.li64(Reg::new(DATA_PTR), DATA_BASE as i64);
    e.a.li64(Reg::new(TABLE_PTR), TABLE_BASE as i64);
    for (k, &v) in ast.scratch_init.iter().enumerate() {
        e.a.li(Reg::new(SCRATCH_BASE + k as u8), v);
    }
    e.a.call("f0");
    e.a.halt();
    let frame = 8 * (1 + NUM_COUNTERS as i32);
    for (i, f) in ast.funcs.iter().enumerate() {
        e.a.label(format!("f{i}"));
        e.a.addi(Reg::SP, Reg::SP, -frame);
        e.a.store(Reg::RA, Reg::SP, 0);
        for c in 0..NUM_COUNTERS {
            e.a.store(Reg::new(LOOP_BASE + c), Reg::SP, 8 * (1 + c as i32));
        }
        e.stmts(&f.body, 0);
        for c in 0..NUM_COUNTERS {
            e.a.load(Reg::new(LOOP_BASE + c), Reg::SP, 8 * (1 + c as i32));
        }
        e.a.load(Reg::RA, Reg::SP, 0);
        e.a.addi(Reg::SP, Reg::SP, frame);
        e.a.ret();
    }
    e.a.data_words(DATA_BASE, &ast.data);
    for (i, label) in e.tables.iter().enumerate() {
        e.a.data_label(TABLE_BASE + 8 * i as u64, label.clone());
    }
    // Resolve the recorded truth labels before assembly consumes the
    // symbol table. Every label was defined by the emission above.
    let resolve = |l: &str| e.a.resolve_label(l).expect("truth label is defined");
    let truth = ReconvTruth {
        branches: e.branch_truth.iter().map(|&(pc, ref l)| (pc, resolve(l))).collect(),
        indirects: e
            .indirect_truth
            .iter()
            .map(|&(pc, ref ls)| {
                let mut ts: Vec<Pc> = ls.iter().map(|l| resolve(l)).collect();
                ts.sort_unstable();
                ts.dedup();
                (pc, ts)
            })
            .collect(),
    };
    (e.a.assemble().expect("emitted program is always valid"), truth)
}

struct SynthEmit {
    a: Asm,
    /// Jump-table entries (labels), in allocation order.
    tables: Vec<String>,
    /// `(branch PC, re-convergence label)` recorded at each branch.
    branch_truth: Vec<(Pc, String)>,
    /// `(indirect site PC, target labels)` recorded at each site.
    indirect_truth: Vec<(Pc, Vec<String>)>,
}

impl SynthEmit {
    fn stmts(&mut self, list: &[Stmt], depth: usize) {
        for s in list {
            self.stmt(s, depth);
        }
    }

    /// Evaluates a condition's operands, returning `(lhs, rhs)` registers.
    fn cond_operands(&mut self, c: &CondSpec) -> (Reg, Reg) {
        let lhs = match c.lhs {
            CondSrc::Reg(k) => Reg::new(SCRATCH_BASE + k),
            CondSrc::Mem(w) => {
                self.a.load(Reg::new(COND_TMP), Reg::new(DATA_PTR), 8 * w as i32);
                Reg::new(COND_TMP)
            }
        };
        let rhs = match c.rhs {
            None => Reg::ZERO,
            Some(k) => Reg::new(SCRATCH_BASE + k),
        };
        (lhs, rhs)
    }

    fn stmt(&mut self, s: &Stmt, depth: usize) {
        match s {
            Stmt::Ops(ops) => {
                for op in ops {
                    self.op(op);
                }
            }
            Stmt::Hammock { cond, then_b, else_b } => {
                let end = self.a.fresh_label("end");
                let (lhs, rhs) = self.cond_operands(cond);
                self.branch_truth.push((self.a.here(), end.clone()));
                if else_b.is_empty() {
                    self.a.branch(cond.cond, lhs, rhs, end.clone());
                    self.stmts(then_b, depth);
                } else {
                    let els = self.a.fresh_label("else");
                    self.a.branch(cond.cond, lhs, rhs, els.clone());
                    self.stmts(then_b, depth);
                    self.a.jump(end.clone());
                    self.a.label(els);
                    self.stmts(else_b, depth);
                }
                self.a.label(end);
            }
            Stmt::Loop { trip, body, brk } => {
                let counter = Reg::new(LOOP_BASE + depth as u8);
                let top = self.a.fresh_label("loop");
                let out = self.a.fresh_label("brk");
                match *trip {
                    Trip::Const(n) => self.a.li(counter, n as i32),
                    Trip::Data { word, mask } => {
                        self.a.load(counter, Reg::new(DATA_PTR), 8 * word as i32);
                        self.a.alui(AluOp::And, counter, counter, mask as i32);
                        self.a.addi(counter, counter, 1);
                    }
                }
                self.a.label(top.clone());
                for (i, s) in body.iter().enumerate() {
                    if let Some((c, pos)) = brk {
                        if *pos == i {
                            let (lhs, rhs) = self.cond_operands(c);
                            self.branch_truth.push((self.a.here(), out.clone()));
                            self.a.branch(c.cond, lhs, rhs, out.clone());
                        }
                    }
                    self.stmt(s, depth + 1);
                }
                if let Some((c, pos)) = brk {
                    if *pos >= body.len() {
                        let (lhs, rhs) = self.cond_operands(c);
                        self.branch_truth.push((self.a.here(), out.clone()));
                        self.a.branch(c.cond, lhs, rhs, out.clone());
                    }
                }
                self.a.addi(counter, counter, -1);
                self.branch_truth.push((self.a.here(), out.clone()));
                self.a.branch(Cond::Gt, counter, Reg::ZERO, top);
                self.a.label(out);
            }
            Stmt::Switch { word, mask, arms } => {
                let base = self.tables.len();
                let end = self.a.fresh_label("swend");
                let labels: Vec<String> =
                    (0..arms.len()).map(|_| self.a.fresh_label("arm")).collect();
                for l in &labels {
                    self.tables.push(l.clone());
                }
                let (t1, t2) = (Reg::new(TBL_ADDR), Reg::new(TBL_TGT));
                self.a.load(t1, Reg::new(DATA_PTR), 8 * *word as i32);
                self.a.alui(AluOp::And, t1, t1, *mask as i32);
                self.a.alui(AluOp::Shl, t1, t1, 3);
                self.a.alu(AluOp::Add, t1, Reg::new(TABLE_PTR), t1);
                self.a.load(t2, t1, 8 * base as i32);
                self.indirect_truth.push((self.a.here(), labels.clone()));
                self.a.jump_indirect(t2);
                for (arm, l) in arms.iter().zip(&labels) {
                    self.a.label(l.clone());
                    self.stmts(arm, depth);
                    self.a.jump(end.clone());
                }
                self.a.label(end);
            }
            Stmt::Call { callee } => self.a.call(format!("f{callee}")),
            Stmt::CallIndirect { callee } => {
                let slot = self.tables.len();
                self.tables.push(format!("f{callee}"));
                let t2 = Reg::new(TBL_TGT);
                self.a.load(t2, Reg::new(TABLE_PTR), 8 * slot as i32);
                self.indirect_truth.push((self.a.here(), vec![format!("f{callee}")]));
                self.a.call_indirect(t2);
            }
        }
    }

    fn op(&mut self, op: &Op) {
        let r = |k: u8| Reg::new(SCRATCH_BASE + k);
        match *op {
            Op::Alu { op, rd, rs, rt } => self.a.alu(op, r(rd), r(rs), r(rt)),
            Op::AluImm { op, rd, rs, imm } => self.a.alui(op, r(rd), r(rs), imm),
            Op::Load { rd, word } => self.a.load(r(rd), Reg::new(DATA_PTR), 8 * word as i32),
            Op::Store { rs, word } => self.a.store(r(rs), Reg::new(DATA_PTR), 8 * word as i32),
        }
    }
}

/// Renders the AST as RV64 assembly source (the input to [`emit_rv`]).
pub fn emit_rv_source(ast: &FuzzAst) -> String {
    emit_rv_render(ast).out
}

/// Renders the AST, keeping the emitter (and so its recorded truth
/// labels) alive for [`emit_rv_with_truth`] to resolve after assembly.
fn emit_rv_render(ast: &FuzzAst) -> RvEmit {
    let mut e = RvEmit {
        out: String::new(),
        tables: Vec::new(),
        fresh: 0,
        branch_truth: Vec::new(),
        indirect_truth: Vec::new(),
    };
    let line = |e: &mut RvEmit, s: &str| {
        e.out.push_str(s);
        e.out.push('\n');
    };
    line(&mut e, &format!("    li sp, {STACK_BASE:#x}"));
    line(&mut e, &format!("    li x{DATA_PTR}, {DATA_BASE:#x}"));
    line(&mut e, &format!("    li x{TABLE_PTR}, {TABLE_BASE:#x}"));
    for (k, &v) in ast.scratch_init.iter().enumerate() {
        line(&mut e, &format!("    li x{}, {v}", SCRATCH_BASE + k as u8));
    }
    line(&mut e, "    call f0");
    line(&mut e, "    ecall");
    let frame = 8 * (1 + NUM_COUNTERS as i32);
    for (i, f) in ast.funcs.iter().enumerate() {
        line(&mut e, &format!("f{i}:"));
        line(&mut e, &format!("    addi sp, sp, -{frame}"));
        line(&mut e, "    sd ra, (sp)");
        for c in 0..NUM_COUNTERS {
            line(&mut e, &format!("    sd x{}, {}(sp)", LOOP_BASE + c, 8 * (1 + c as i32)));
        }
        e.stmts(&f.body, 0);
        for c in 0..NUM_COUNTERS {
            line(&mut e, &format!("    ld x{}, {}(sp)", LOOP_BASE + c, 8 * (1 + c as i32)));
        }
        line(&mut e, "    ld ra, (sp)");
        line(&mut e, &format!("    addi sp, sp, {frame}"));
        line(&mut e, "    ret");
    }
    line(&mut e, &format!("    .org {DATA_BASE:#x}"));
    for &v in &ast.data {
        line(&mut e, &format!("    .word {v}"));
    }
    line(&mut e, &format!("    .org {TABLE_BASE:#x}"));
    for label in &e.tables.clone() {
        line(&mut e, &format!("    .wordpc {label}"));
    }
    e
}

/// Emits the AST through the RV64 frontend: renders assembly text,
/// assembles it to 32-bit encodings, and decodes + lowers those into a
/// [`Program`] (the only path to the simulator, as for the rv corpus).
///
/// # Errors
///
/// Propagates assembler/decoder/lowering failures; the emitter is
/// expected to always produce valid source, so callers treat an error as
/// a bug in the emitter (or the assembler/decoder under test).
pub fn emit_rv(ast: &FuzzAst, name: &str) -> Result<Program, RvError> {
    tp_rv::assemble_program(name, &emit_rv_source(ast))
}

/// [`emit_rv`], also returning the emission's [`ReconvTruth`]. Branch
/// sites are marked with fresh labels in the rendered source (zero-size;
/// the encoded words are identical), then resolved to PCs through the
/// assembled module's symbol table.
///
/// # Errors
///
/// As [`emit_rv`].
pub fn emit_rv_with_truth(ast: &FuzzAst, name: &str) -> Result<(Program, ReconvTruth), RvError> {
    let e = emit_rv_render(ast);
    let mut a = RvAsm::new(name);
    a.source(&e.out)?;
    // Labels resolve at parse time, so they can be read out before
    // `assemble` consumes the assembler.
    let resolve = |l: &str| a.label_pc(l).expect("truth label is defined");
    let truth = ReconvTruth {
        branches: e.branch_truth.iter().map(|(s, l)| (resolve(s), resolve(l))).collect(),
        indirects: e
            .indirect_truth
            .iter()
            .map(|(s, ls)| {
                let mut ts: Vec<Pc> = ls.iter().map(|l| resolve(l)).collect();
                ts.sort_unstable();
                ts.dedup();
                (resolve(s), ts)
            })
            .collect(),
    };
    let program = tp_rv::module_to_program(a.assemble()?)?;
    Ok((program, truth))
}

struct RvEmit {
    out: String,
    tables: Vec<String>,
    fresh: u32,
    /// `(branch site label, re-convergence label)` per branch.
    branch_truth: Vec<(String, String)>,
    /// `(indirect site label, target labels)` per site.
    indirect_truth: Vec<(String, Vec<String>)>,
}

impl RvEmit {
    fn fresh(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}_{}", self.fresh)
    }

    fn line(&mut self, s: impl AsRef<str>) {
        self.out.push_str(s.as_ref());
        self.out.push('\n');
    }

    fn stmts(&mut self, list: &[Stmt], depth: usize) {
        for s in list {
            self.stmt(s, depth);
        }
    }

    /// Evaluates a condition's operands, returning `(lhs, rhs)` register
    /// names.
    fn cond_operands(&mut self, c: &CondSpec) -> (String, String) {
        let lhs = match c.lhs {
            CondSrc::Reg(k) => format!("x{}", SCRATCH_BASE + k),
            CondSrc::Mem(w) => {
                self.line(format!("    ld x{COND_TMP}, {}(x{DATA_PTR})", 8 * w as i32));
                format!("x{COND_TMP}")
            }
        };
        let rhs = match c.rhs {
            None => "zero".to_string(),
            Some(k) => format!("x{}", SCRATCH_BASE + k),
        };
        (lhs, rhs)
    }

    /// Emits a fresh zero-size label naming the *next* instruction as a
    /// truth site (the encodings are unchanged; only the symbol table
    /// grows).
    fn site(&mut self) -> String {
        let site = self.fresh("brsite");
        self.line(format!("{site}:"));
        site
    }

    /// Emits a conditional branch to `label` taken when `c` holds,
    /// returning the label of the branch instruction itself.
    fn branch(&mut self, c: &CondSpec, label: &str) -> String {
        let (lhs, rhs) = self.cond_operands(c);
        let site = self.site();
        // `ble`/`bgt`/`bleu`/`bgtu` are the assembler's operand-swapping
        // pseudos for the conditions RV lacks natively.
        let mnemonic = match c.cond {
            Cond::Eq => "beq",
            Cond::Ne => "bne",
            Cond::Lt => "blt",
            Cond::Ge => "bge",
            Cond::Le => "ble",
            Cond::Gt => "bgt",
            Cond::Ltu => "bltu",
            Cond::Geu => "bgeu",
        };
        self.line(format!("    {mnemonic} {lhs}, {rhs}, {label}"));
        site
    }

    fn stmt(&mut self, s: &Stmt, depth: usize) {
        match s {
            Stmt::Ops(ops) => {
                for op in ops {
                    self.op(op);
                }
            }
            Stmt::Hammock { cond, then_b, else_b } => {
                let end = self.fresh("end");
                if else_b.is_empty() {
                    let site = self.branch(cond, &end);
                    self.branch_truth.push((site, end.clone()));
                    self.stmts(then_b, depth);
                } else {
                    let els = self.fresh("else");
                    let site = self.branch(cond, &els);
                    self.branch_truth.push((site, end.clone()));
                    self.stmts(then_b, depth);
                    self.line(format!("    j {end}"));
                    self.line(format!("{els}:"));
                    self.stmts(else_b, depth);
                }
                self.line(format!("{end}:"));
            }
            Stmt::Loop { trip, body, brk } => {
                let counter = format!("x{}", LOOP_BASE + depth as u8);
                let top = self.fresh("loop");
                let out = self.fresh("brk");
                match *trip {
                    Trip::Const(n) => self.line(format!("    li {counter}, {n}")),
                    Trip::Data { word, mask } => {
                        self.line(format!("    ld {counter}, {}(x{DATA_PTR})", 8 * word as i32));
                        self.line(format!("    andi {counter}, {counter}, {mask}"));
                        self.line(format!("    addi {counter}, {counter}, 1"));
                    }
                }
                self.line(format!("{top}:"));
                for (i, s) in body.iter().enumerate() {
                    if let Some((c, pos)) = brk {
                        if *pos == i {
                            let site = self.branch(c, &out);
                            self.branch_truth.push((site, out.clone()));
                        }
                    }
                    self.stmt(s, depth + 1);
                }
                if let Some((c, pos)) = brk {
                    if *pos >= body.len() {
                        let site = self.branch(c, &out);
                        self.branch_truth.push((site, out.clone()));
                    }
                }
                self.line(format!("    addi {counter}, {counter}, -1"));
                let site = self.site();
                self.line(format!("    bgt {counter}, zero, {top}"));
                self.branch_truth.push((site, out.clone()));
                self.line(format!("{out}:"));
            }
            Stmt::Switch { word, mask, arms } => {
                let base = self.tables.len();
                let end = self.fresh("swend");
                let labels: Vec<String> = (0..arms.len()).map(|_| self.fresh("arm")).collect();
                for l in &labels {
                    self.tables.push(l.clone());
                }
                self.line(format!("    ld x{TBL_ADDR}, {}(x{DATA_PTR})", 8 * *word as i32));
                self.line(format!("    andi x{TBL_ADDR}, x{TBL_ADDR}, {mask}"));
                self.line(format!("    slli x{TBL_ADDR}, x{TBL_ADDR}, 3"));
                self.line(format!("    add x{TBL_ADDR}, x{TABLE_PTR}, x{TBL_ADDR}"));
                self.table_load(8 * base as i64);
                let site = self.site();
                self.line(format!("    jr x{TBL_TGT}"));
                self.indirect_truth.push((site, labels.clone()));
                for (arm, l) in arms.iter().zip(&labels) {
                    self.line(format!("{l}:"));
                    self.stmts(arm, depth);
                    self.line(format!("    j {end}"));
                }
                self.line(format!("{end}:"));
            }
            Stmt::Call { callee } => self.line(format!("    call f{callee}")),
            Stmt::CallIndirect { callee } => {
                let slot = self.tables.len();
                self.tables.push(format!("f{callee}"));
                self.line(format!("    mv x{TBL_ADDR}, x{TABLE_PTR}"));
                self.table_load(8 * slot as i64);
                let site = self.site();
                self.line(format!("    jalr x{TBL_TGT}"));
                self.indirect_truth.push((site, vec![format!("f{callee}")]));
            }
        }
    }

    /// Loads table entry at byte offset `off` from `x14` into `x15`,
    /// materializing offsets that exceed the 12-bit load displacement.
    fn table_load(&mut self, off: i64) {
        if off <= 2047 {
            self.line(format!("    ld x{TBL_TGT}, {off}(x{TBL_ADDR})"));
        } else {
            self.line(format!("    li x{TBL_TGT}, {off}"));
            self.line(format!("    add x{TBL_ADDR}, x{TBL_ADDR}, x{TBL_TGT}"));
            self.line(format!("    ld x{TBL_TGT}, (x{TBL_ADDR})"));
        }
    }

    fn op(&mut self, op: &Op) {
        let r = |k: u8| format!("x{}", SCRATCH_BASE + k);
        match *op {
            Op::Alu { op, rd, rs, rt } => {
                let m = match op {
                    AluOp::Add => "add",
                    AluOp::Sub => "sub",
                    AluOp::Mul => "mul",
                    AluOp::Div => "div",
                    AluOp::Rem => "rem",
                    AluOp::And => "and",
                    AluOp::Or => "or",
                    AluOp::Xor => "xor",
                    AluOp::Shl => "sll",
                    AluOp::Shr => "sra",
                    AluOp::Shru => "srl",
                    AluOp::Slt => "slt",
                    AluOp::Sltu => "sltu",
                };
                self.line(format!("    {m} {}, {}, {}", r(rd), r(rs), r(rt)));
            }
            Op::AluImm { op, rd, rs, imm } => match op {
                // RV has I-forms only for the logical/compare/add class;
                // shifts take the shamt form and the rest go through a
                // materialized operand in the condition temporary.
                AluOp::Add => self.line(format!("    addi {}, {}, {imm}", r(rd), r(rs))),
                AluOp::And => self.line(format!("    andi {}, {}, {imm}", r(rd), r(rs))),
                AluOp::Or => self.line(format!("    ori {}, {}, {imm}", r(rd), r(rs))),
                AluOp::Xor => self.line(format!("    xori {}, {}, {imm}", r(rd), r(rs))),
                AluOp::Slt => self.line(format!("    slti {}, {}, {imm}", r(rd), r(rs))),
                AluOp::Sltu => self.line(format!("    sltiu {}, {}, {imm}", r(rd), r(rs))),
                AluOp::Shl => {
                    self.line(format!("    slli {}, {}, {}", r(rd), r(rs), imm.rem_euclid(64)));
                }
                AluOp::Shr => {
                    self.line(format!("    srai {}, {}, {}", r(rd), r(rs), imm.rem_euclid(64)));
                }
                AluOp::Shru => {
                    self.line(format!("    srli {}, {}, {}", r(rd), r(rs), imm.rem_euclid(64)));
                }
                AluOp::Sub | AluOp::Mul | AluOp::Div | AluOp::Rem => {
                    let m = match op {
                        AluOp::Sub => "sub",
                        AluOp::Mul => "mul",
                        AluOp::Div => "div",
                        _ => "rem",
                    };
                    self.line(format!("    li x{COND_TMP}, {imm}"));
                    self.line(format!("    {m} {}, {}, x{COND_TMP}", r(rd), r(rs)));
                }
            },
            Op::Load { rd, word } => {
                self.line(format!("    ld {}, {}(x{DATA_PTR})", r(rd), 8 * word as i32));
            }
            Op::Store { rs, word } => {
                self.line(format!("    sd {}, {}(x{DATA_PTR})", r(rs), 8 * word as i32));
            }
        }
    }
}

/// The shared word type for data emission (re-exported for the harness).
pub type DataWord = Word;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, FuzzConfig};
    use tp_isa::func::Machine;

    /// Every generated AST emits to both frontends, and both programs run
    /// to halt on the functional machine within the generator's dynamic
    /// cost bound (`max_fn_cost` plus estimation slack).
    #[test]
    fn both_emissions_halt_for_many_seeds() {
        let cfg = FuzzConfig::default();
        let budget = 4 * cfg.max_fn_cost;
        for seed in 0..50 {
            let ast = generate(&cfg, seed);
            let ps = emit_synth(&ast, "t");
            let mut m = Machine::new(&ps);
            let s = m.run(budget).unwrap_or_else(|e| panic!("seed {seed} synth: {e}"));
            assert!(s.halted, "seed {seed} synth did not halt");

            let pr = emit_rv(&ast, "t").unwrap_or_else(|e| panic!("seed {seed} rv: {e}"));
            let mut m = Machine::new(&pr);
            let s = m.run(budget).unwrap_or_else(|e| panic!("seed {seed} rv: {e}"));
            assert!(s.halted, "seed {seed} rv did not halt");
        }
    }

    /// The two emissions compute the same thing: identical final scratch
    /// registers and identical data-region words. (The emitters share
    /// registers and layout precisely to make this comparable.)
    #[test]
    fn synth_and_rv_emissions_agree_architecturally() {
        let cfg = FuzzConfig::default();
        for seed in 0..20 {
            let ast = generate(&cfg, seed);
            let ps = emit_synth(&ast, "t");
            let pr = emit_rv(&ast, "t").unwrap();
            let mut ms = Machine::new(&ps);
            ms.run(3_000_000).unwrap();
            let mut mr = Machine::new(&pr);
            mr.run(3_000_000).unwrap();
            for k in 0..crate::ast::NUM_SCRATCH {
                let r = Reg::new(SCRATCH_BASE + k);
                assert_eq!(ms.reg(r), mr.reg(r), "seed {seed} scratch {r}");
            }
            for w in 0..ast.data.len() as u64 {
                let addr = DATA_BASE + 8 * w;
                assert_eq!(ms.mem_word(addr), mr.mem_word(addr), "seed {seed} word {w}");
            }
        }
    }
}
