//! A small embedded RV64 assembler.
//!
//! The container has no RISC-V cross-compiler, so the corpus programs are
//! written as assembly text and assembled here into genuine 32-bit RV64
//! encodings. The assembler → decoder round trip doubles as the frontend's
//! self-test: the simulator only ever sees the *decoded* words, never the
//! assembler's internal instruction list.
//!
//! # Syntax
//!
//! One instruction, label or directive per line; `#` starts a comment.
//! Registers accept both `x0`..`x31` and ABI names. Operands follow the
//! standard forms (`addi a0, a1, -4`, `ld a0, 8(sp)`, `beq a0, a1, label`).
//!
//! Directives:
//!
//! * `.entry LABEL` — program entry point (default: first instruction).
//! * `.org ADDR` — set the data cursor (byte address, 8-aligned).
//! * `.word VALUE` — place a 64-bit word at the cursor, advance by 8.
//! * `.wordpc LABEL` — place the label's *instruction index* at the cursor
//!   (the frontend's jump-table convention; see [`mod@crate::lower`]).
//!
//! Pseudo-instructions: `li`, `mv`, `nop`, `j`, `jr`, `call`, `ret`,
//! `beqz`, `bnez`, `bltz`, `bgez`, `ble`, `bgt`, `bleu`, `bgtu`, `seqz`,
//! `snez`, `neg`, `not`. Each expands to one or two real instructions at
//! parse time, so labels always resolve to exact instruction indices.

use std::collections::HashMap;
use std::fmt;

use tp_isa::{Addr, Pc, Word};

use crate::inst::{parse_reg, RvCond, RvIOp, RvInst, RvOp, RvReg, RvShift};

/// Error produced by [`RvAsm`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RvAsmError {
    /// A line failed to parse; the message names line and cause.
    Parse {
        /// 1-based source line.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A label was defined more than once.
    DuplicateLabel(String),
    /// A referenced label was never defined.
    UnknownLabel(String),
    /// A resolved branch/jump offset exceeds its encoding's range.
    OffsetOutOfRange {
        /// 1-based source line of the branch.
        line: usize,
        /// The target label.
        label: String,
        /// The resolved byte offset.
        offset: i64,
    },
}

impl fmt::Display for RvAsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RvAsmError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            RvAsmError::DuplicateLabel(l) => write!(f, "label `{l}` defined twice"),
            RvAsmError::UnknownLabel(l) => write!(f, "label `{l}` referenced but never defined"),
            RvAsmError::OffsetOutOfRange { line, label, offset } => {
                write!(f, "line {line}: offset {offset} to `{label}` exceeds the encoding range")
            }
        }
    }
}

impl std::error::Error for RvAsmError {}

/// An instruction awaiting label resolution.
#[derive(Clone, Debug)]
enum Pending {
    Ready(RvInst),
    Branch { cond: RvCond, rs1: RvReg, rs2: RvReg, label: String, line: usize },
    Jal { rd: RvReg, label: String, line: usize },
}

#[derive(Clone, Debug)]
enum DataVal {
    Value(Word),
    LabelPc(String),
}

/// An assembled module: encodings plus data image, ready to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RvModule {
    /// Program name.
    pub name: String,
    /// The 32-bit instruction encodings, one per word-indexed PC.
    pub words: Vec<u32>,
    /// Entry point (word index).
    pub entry: Pc,
    /// Initial data image as `(byte address, word)` pairs.
    pub data: Vec<(Addr, Word)>,
    /// Data addresses placed via `.wordpc` — their words are resolved
    /// instruction PCs (jump-table / function-pointer slots). Carried into
    /// [`Program`](tp_isa::Program) code-pointer metadata for static
    /// analysis; execution ignores it.
    pub code_ptrs: Vec<Addr>,
}

/// The assembler.
#[derive(Clone, Debug)]
pub struct RvAsm {
    name: String,
    insts: Vec<Pending>,
    labels: HashMap<String, Pc>,
    duplicate: Option<String>,
    data: Vec<(Addr, DataVal)>,
    data_cursor: Addr,
    entry: Option<String>,
    line: usize,
}

impl RvAsm {
    /// An empty assembler for a program called `name`.
    pub fn new(name: impl Into<String>) -> RvAsm {
        RvAsm {
            name: name.into(),
            insts: Vec::new(),
            labels: HashMap::new(),
            duplicate: None,
            data: Vec::new(),
            data_cursor: 0,
            entry: None,
            line: 0,
        }
    }

    /// Parses and appends a block of assembly source.
    ///
    /// # Errors
    ///
    /// [`RvAsmError::Parse`] naming the offending line.
    pub fn source(&mut self, src: &str) -> Result<(), RvAsmError> {
        for raw in src.lines() {
            self.line += 1;
            let line = self.line;
            let mut text = raw.split('#').next().unwrap_or("").trim();
            // Leading `label:` definitions (possibly several).
            while let Some(colon) = text.find(':') {
                let (head, rest) = text.split_at(colon);
                let head = head.trim();
                if head.is_empty() || !head.chars().all(|c| c.is_alphanumeric() || c == '_') {
                    return Err(RvAsmError::Parse { line, msg: format!("bad label `{head}`") });
                }
                self.define_label(head);
                text = rest[1..].trim();
            }
            if text.is_empty() {
                continue;
            }
            if let Some(directive) = text.strip_prefix('.') {
                self.directive(directive, line)?;
            } else {
                self.instruction(text, line)?;
            }
        }
        Ok(())
    }

    /// Places `value` at byte address `addr` in the data image.
    pub fn data_word(&mut self, addr: Addr, value: Word) {
        self.data.push((addr, DataVal::Value(value)));
    }

    /// The word-indexed PC a defined label resolves to, or `None` if the
    /// label has not been defined. Labels resolve at parse time, so this is
    /// exact once the defining source block has been fed to [`RvAsm::source`].
    pub fn label_pc(&self, label: &str) -> Option<Pc> {
        self.labels.get(label).copied()
    }

    fn define_label(&mut self, label: &str) {
        let here = self.insts.len() as Pc;
        if self.labels.insert(label.to_string(), here).is_some() && self.duplicate.is_none() {
            self.duplicate = Some(label.to_string());
        }
    }

    fn directive(&mut self, d: &str, line: usize) -> Result<(), RvAsmError> {
        let mut parts = d.split_whitespace();
        let name = parts.next().unwrap_or("");
        let arg = parts.next();
        let perr = |msg: String| RvAsmError::Parse { line, msg };
        match name {
            "entry" => {
                let l = arg.ok_or_else(|| perr(".entry needs a label".into()))?;
                self.entry = Some(l.to_string());
            }
            "org" => {
                let a = arg.ok_or_else(|| perr(".org needs an address".into()))?;
                let addr = parse_imm(a).filter(|&v| v >= 0 && v % 8 == 0).ok_or_else(|| {
                    perr(format!("bad address `{a}` (need a non-negative 8-aligned byte address)"))
                })?;
                self.data_cursor = addr as Addr;
            }
            "word" => {
                let a = arg.ok_or_else(|| perr(".word needs a value".into()))?;
                let v = parse_imm(a).ok_or_else(|| perr(format!("bad value `{a}`")))?;
                self.data.push((self.data_cursor, DataVal::Value(v)));
                self.data_cursor += 8;
            }
            "wordpc" => {
                let l = arg.ok_or_else(|| perr(".wordpc needs a label".into()))?;
                self.data.push((self.data_cursor, DataVal::LabelPc(l.to_string())));
                self.data_cursor += 8;
            }
            other => return Err(perr(format!("unknown directive `.{other}`"))),
        }
        Ok(())
    }

    fn instruction(&mut self, text: &str, line: usize) -> Result<(), RvAsmError> {
        let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
            Some((m, r)) => (m, r.trim()),
            None => (text, ""),
        };
        let ops: Vec<&str> = rest.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
        let perr = |msg: String| RvAsmError::Parse { line, msg };
        let reg = |s: &str| parse_reg(s).ok_or_else(|| perr(format!("bad register `{s}`")));
        let imm12 = |s: &str| {
            parse_imm(s)
                .filter(|v| (-2048..=2047).contains(v))
                .ok_or_else(|| perr(format!("bad 12-bit immediate `{s}`")))
                .map(|v| v as i32)
        };
        let nops = |want: usize| {
            if ops.len() == want {
                Ok(())
            } else {
                Err(perr(format!("{mnemonic} takes {want} operands, got {}", ops.len())))
            }
        };
        // `imm(base)` memory operand.
        let mem = |s: &str| -> Result<(i32, RvReg), RvAsmError> {
            let open = s.find('(').ok_or_else(|| perr(format!("bad memory operand `{s}`")))?;
            let close = s.rfind(')').ok_or_else(|| perr(format!("bad memory operand `{s}`")))?;
            let imm_part = s[..open].trim();
            let imm = if imm_part.is_empty() { 0 } else { imm12(imm_part)? };
            Ok((imm, reg(s[open + 1..close].trim())?))
        };

        if let Some(op) = RvOp::ALL.iter().find(|o| o.mnemonic() == mnemonic) {
            nops(3)?;
            let i = RvInst::Op { op: *op, rd: reg(ops[0])?, rs1: reg(ops[1])?, rs2: reg(ops[2])? };
            self.insts.push(Pending::Ready(i));
            return Ok(());
        }
        if let Some(op) = RvIOp::ALL.iter().find(|o| o.mnemonic() == mnemonic) {
            nops(3)?;
            let i =
                RvInst::OpImm { op: *op, rd: reg(ops[0])?, rs1: reg(ops[1])?, imm: imm12(ops[2])? };
            self.insts.push(Pending::Ready(i));
            return Ok(());
        }
        if let Some(op) = RvShift::ALL.iter().find(|o| o.mnemonic() == mnemonic) {
            nops(3)?;
            let shamt = parse_imm(ops[2])
                .filter(|v| (0..64).contains(v))
                .ok_or_else(|| perr(format!("bad shift amount `{}`", ops[2])))?;
            let i = RvInst::ShiftImm {
                op: *op,
                rd: reg(ops[0])?,
                rs1: reg(ops[1])?,
                shamt: shamt as u8,
            };
            self.insts.push(Pending::Ready(i));
            return Ok(());
        }
        if let Some(cond) = RvCond::ALL.iter().find(|c| c.mnemonic() == mnemonic) {
            nops(3)?;
            self.insts.push(Pending::Branch {
                cond: *cond,
                rs1: reg(ops[0])?,
                rs2: reg(ops[1])?,
                label: ops[2].to_string(),
                line,
            });
            return Ok(());
        }
        match mnemonic {
            "lui" => {
                nops(2)?;
                let v = parse_imm(ops[1])
                    .filter(|v| (-(1 << 19)..(1 << 19)).contains(v))
                    .ok_or_else(|| perr(format!("bad 20-bit immediate `{}`", ops[1])))?;
                self.insts.push(Pending::Ready(RvInst::Lui { rd: reg(ops[0])?, imm20: v as i32 }));
            }
            "jal" => match ops.len() {
                1 => self.insts.push(Pending::Jal { rd: 1, label: ops[0].to_string(), line }),
                2 => self.insts.push(Pending::Jal {
                    rd: reg(ops[0])?,
                    label: ops[1].to_string(),
                    line,
                }),
                n => return Err(perr(format!("jal takes 1 or 2 operands, got {n}"))),
            },
            "jalr" => match ops.len() {
                1 => self.insts.push(Pending::Ready(RvInst::Jalr {
                    rd: 1,
                    rs1: reg(ops[0])?,
                    imm: 0,
                })),
                3 => self.insts.push(Pending::Ready(RvInst::Jalr {
                    rd: reg(ops[0])?,
                    rs1: reg(ops[1])?,
                    imm: imm12(ops[2])?,
                })),
                n => return Err(perr(format!("jalr takes 1 or 3 operands, got {n}"))),
            },
            "ld" => {
                nops(2)?;
                let (imm, rs1) = mem(ops[1])?;
                self.insts.push(Pending::Ready(RvInst::Ld { rd: reg(ops[0])?, rs1, imm }));
            }
            "sd" => {
                nops(2)?;
                let (imm, rs1) = mem(ops[1])?;
                self.insts.push(Pending::Ready(RvInst::Sd { rs2: reg(ops[0])?, rs1, imm }));
            }
            "ecall" => {
                nops(0)?;
                self.insts.push(Pending::Ready(RvInst::Ecall));
            }
            // --- pseudo-instructions ---
            "li" => {
                nops(2)?;
                let v =
                    parse_imm(ops[1]).ok_or_else(|| perr(format!("bad immediate `{}`", ops[1])))?;
                let rd = reg(ops[0])?;
                for i in expand_li(rd, v).map_err(&perr)? {
                    self.insts.push(Pending::Ready(i));
                }
            }
            "mv" => {
                nops(2)?;
                self.insts.push(Pending::Ready(RvInst::OpImm {
                    op: RvIOp::Addi,
                    rd: reg(ops[0])?,
                    rs1: reg(ops[1])?,
                    imm: 0,
                }));
            }
            "nop" => {
                nops(0)?;
                self.insts.push(Pending::Ready(RvInst::OpImm {
                    op: RvIOp::Addi,
                    rd: 0,
                    rs1: 0,
                    imm: 0,
                }));
            }
            "j" => {
                nops(1)?;
                self.insts.push(Pending::Jal { rd: 0, label: ops[0].to_string(), line });
            }
            "jr" => {
                nops(1)?;
                self.insts.push(Pending::Ready(RvInst::Jalr { rd: 0, rs1: reg(ops[0])?, imm: 0 }));
            }
            "call" => {
                nops(1)?;
                self.insts.push(Pending::Jal { rd: 1, label: ops[0].to_string(), line });
            }
            "ret" => {
                nops(0)?;
                self.insts.push(Pending::Ready(RvInst::Jalr { rd: 0, rs1: 1, imm: 0 }));
            }
            "beqz" | "bnez" | "bltz" | "bgez" => {
                nops(2)?;
                let cond = match mnemonic {
                    "beqz" => RvCond::Beq,
                    "bnez" => RvCond::Bne,
                    "bltz" => RvCond::Blt,
                    _ => RvCond::Bge,
                };
                self.insts.push(Pending::Branch {
                    cond,
                    rs1: reg(ops[0])?,
                    rs2: 0,
                    label: ops[1].to_string(),
                    line,
                });
            }
            "ble" | "bgt" | "bleu" | "bgtu" => {
                nops(3)?;
                // `ble a, b` is `bge b, a` — operands swap.
                let cond = match mnemonic {
                    "ble" => RvCond::Bge,
                    "bgt" => RvCond::Blt,
                    "bleu" => RvCond::Bgeu,
                    _ => RvCond::Bltu,
                };
                self.insts.push(Pending::Branch {
                    cond,
                    rs1: reg(ops[1])?,
                    rs2: reg(ops[0])?,
                    label: ops[2].to_string(),
                    line,
                });
            }
            "seqz" => {
                nops(2)?;
                self.insts.push(Pending::Ready(RvInst::OpImm {
                    op: RvIOp::Sltiu,
                    rd: reg(ops[0])?,
                    rs1: reg(ops[1])?,
                    imm: 1,
                }));
            }
            "snez" => {
                nops(2)?;
                self.insts.push(Pending::Ready(RvInst::Op {
                    op: RvOp::Sltu,
                    rd: reg(ops[0])?,
                    rs1: 0,
                    rs2: reg(ops[1])?,
                }));
            }
            "neg" => {
                nops(2)?;
                self.insts.push(Pending::Ready(RvInst::Op {
                    op: RvOp::Sub,
                    rd: reg(ops[0])?,
                    rs1: 0,
                    rs2: reg(ops[1])?,
                }));
            }
            "not" => {
                nops(2)?;
                self.insts.push(Pending::Ready(RvInst::OpImm {
                    op: RvIOp::Xori,
                    rd: reg(ops[0])?,
                    rs1: reg(ops[1])?,
                    imm: -1,
                }));
            }
            other => return Err(perr(format!("unknown mnemonic `{other}`"))),
        }
        Ok(())
    }

    /// Resolves labels and encodes every instruction.
    ///
    /// # Errors
    ///
    /// Duplicate/unknown labels and out-of-range resolved offsets.
    pub fn assemble(self) -> Result<RvModule, RvAsmError> {
        if let Some(dup) = self.duplicate {
            return Err(RvAsmError::DuplicateLabel(dup));
        }
        let resolve = |label: &str| -> Result<Pc, RvAsmError> {
            self.labels.get(label).copied().ok_or_else(|| RvAsmError::UnknownLabel(label.into()))
        };
        let mut words = Vec::with_capacity(self.insts.len());
        for (idx, p) in self.insts.iter().enumerate() {
            let inst = match p {
                Pending::Ready(i) => *i,
                Pending::Branch { cond, rs1, rs2, label, line } => {
                    let offset = (resolve(label)? as i64 - idx as i64) * 4;
                    if !(-4096..4096).contains(&offset) {
                        return Err(RvAsmError::OffsetOutOfRange {
                            line: *line,
                            label: label.clone(),
                            offset,
                        });
                    }
                    RvInst::Branch { cond: *cond, rs1: *rs1, rs2: *rs2, offset: offset as i32 }
                }
                Pending::Jal { rd, label, line } => {
                    let offset = (resolve(label)? as i64 - idx as i64) * 4;
                    if !(-(1 << 20)..(1 << 20)).contains(&offset) {
                        return Err(RvAsmError::OffsetOutOfRange {
                            line: *line,
                            label: label.clone(),
                            offset,
                        });
                    }
                    RvInst::Jal { rd: *rd, offset: offset as i32 }
                }
            };
            words.push(inst.encode());
        }
        let entry = match &self.entry {
            None => 0,
            Some(l) => resolve(l)?,
        };
        let mut data = Vec::with_capacity(self.data.len());
        for (addr, v) in &self.data {
            let value = match v {
                DataVal::Value(w) => *w,
                DataVal::LabelPc(l) => resolve(l)? as Word,
            };
            data.push((*addr, value));
        }
        let code_ptrs = self
            .data
            .iter()
            .filter(|(_, v)| matches!(v, DataVal::LabelPc(_)))
            .map(|(addr, _)| *addr)
            .collect();
        Ok(RvModule { name: self.name, words, entry, data, code_ptrs })
    }
}

/// Parses a decimal or `0x` hexadecimal immediate (optionally negative).
/// Values outside the 64-bit range are rejected (`None`), never wrapped —
/// with one deliberate exception: a *positive* hex literal is a bit
/// pattern and may use the full unsigned range (`.word
/// 0xcbf29ce484222325`).
fn parse_imm(s: &str) -> Option<i64> {
    let t = s.replace('_', "");
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        return i64::from_str_radix(hex, 16)
            .ok()
            .or_else(|| u64::from_str_radix(hex, 16).ok().map(|u| u as i64));
    }
    if let Some(hex) = t.strip_prefix("-0x").or_else(|| t.strip_prefix("-0X")) {
        // Negative hex goes through signed parsing so overflow is an
        // error, not a silent wrap.
        return i64::from_str_radix(&format!("-{hex}"), 16).ok();
    }
    t.parse::<i64>().ok()
}

/// Expands `li rd, v` into `addi` or `lui [+ addi]`.
fn expand_li(rd: RvReg, v: i64) -> Result<Vec<RvInst>, String> {
    if (-2048..=2047).contains(&v) {
        return Ok(vec![RvInst::OpImm { op: RvIOp::Addi, rd, rs1: 0, imm: v as i32 }]);
    }
    let too_big = || format!("li immediate {v:#x} does not fit lui+addi");
    let hi = v.checked_add(0x800).ok_or_else(too_big)? >> 12;
    if !(-(1i64 << 19)..(1i64 << 19)).contains(&hi) {
        return Err(too_big());
    }
    let lo = (v - (hi << 12)) as i32;
    debug_assert_eq!((hi << 12) + lo as i64, v);
    let mut out = vec![RvInst::Lui { rd, imm20: hi as i32 }];
    if lo != 0 {
        out.push(RvInst::OpImm { op: RvIOp::Addi, rd, rs1: rd, imm: lo });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;

    fn assemble(src: &str) -> RvModule {
        let mut a = RvAsm::new("t");
        a.source(src).unwrap();
        a.assemble().unwrap()
    }

    #[test]
    fn labels_and_branches_resolve_by_word() {
        let m = assemble(
            "top:\n  addi a0, a0, -1\n  bnez a0, top\n  beq a0, zero, done\n  nop\ndone:\n  ecall\n",
        );
        assert_eq!(m.words.len(), 5);
        let insts: Vec<RvInst> = m.words.iter().map(|&w| decode(w).unwrap()).collect();
        assert_eq!(insts[1], RvInst::Branch { cond: RvCond::Bne, rs1: 10, rs2: 0, offset: -4 });
        assert_eq!(insts[2], RvInst::Branch { cond: RvCond::Beq, rs1: 10, rs2: 0, offset: 8 });
    }

    #[test]
    fn li_expansion_covers_the_i32_range() {
        use tp_isa::func::Machine;
        for v in [0i64, 1, -1, 2047, -2048, 2048, 0x10000, 0x7ffff000, -0x8000_0000, 0x1234_5678] {
            let m = assemble(&format!("li a0, {v}\n ecall\n"));
            let p = crate::module_to_program(&m).unwrap();
            let mut mach = Machine::new(&p);
            mach.run(10).unwrap();
            assert_eq!(mach.reg(crate::lower::map_reg(10)), v, "li {v:#x}");
        }
    }

    #[test]
    fn li_out_of_range_is_reported() {
        let mut a = RvAsm::new("t");
        let e = a.source("li a0, 0x7fffffff9\n").unwrap_err();
        assert!(e.to_string().contains("lui+addi"), "{e}");
    }

    #[test]
    fn extreme_immediates_error_instead_of_panicking_or_wrapping() {
        // Each of these once panicked in debug builds (add/negate
        // overflow) or silently wrapped in release; all must be named
        // assembly errors now.
        for src in [
            "li a0, 0x7fffffffffffffff",
            "li a0, -0x8000000000000001",
            "li a0, -0xffffffffffffffff",
        ] {
            let mut a = RvAsm::new("t");
            assert!(a.source(src).is_err(), "{src} must be rejected");
        }
        // The i64 boundary values still parse where they fit the consumer.
        assert_eq!(parse_imm("-0x8000000000000000"), Some(i64::MIN));
        assert_eq!(parse_imm("0xffffffffffffffff"), Some(-1)); // bit pattern
        assert_eq!(parse_imm("-9223372036854775808"), Some(i64::MIN));
        assert_eq!(parse_imm("9223372036854775808"), None);
    }

    #[test]
    fn org_requires_aligned_nonnegative_addresses() {
        for bad in [".org 0x104\n", ".org -8\n"] {
            let mut a = RvAsm::new("t");
            let e = a.source(bad).unwrap_err();
            assert!(e.to_string().contains("8-aligned"), "{bad}: {e}");
        }
    }

    #[test]
    fn memory_operands_parse() {
        let m = assemble("ld a0, 8(sp)\n sd a0, -16(s0)\n ld a1, (a2)\n ecall\n");
        assert_eq!(decode(m.words[0]).unwrap(), RvInst::Ld { rd: 10, rs1: 2, imm: 8 });
        assert_eq!(decode(m.words[1]).unwrap(), RvInst::Sd { rs2: 10, rs1: 8, imm: -16 });
        assert_eq!(decode(m.words[2]).unwrap(), RvInst::Ld { rd: 11, rs1: 12, imm: 0 });
    }

    #[test]
    fn data_directives_place_words_and_pcs() {
        let m = assemble(
            ".org 0x100\n.word 42\n.wordpc handler\n  nop\nhandler:\n  ecall\n.entry handler\n",
        );
        assert_eq!(m.data, vec![(0x100, 42), (0x108, 1)]);
        assert_eq!(m.entry, 1);
        // Only the `.wordpc` slot is recorded as a code pointer.
        assert_eq!(m.code_ptrs, vec![0x108]);
    }

    #[test]
    fn swapped_compare_pseudos() {
        let m = assemble("loop:\n ble a0, a1, loop\n bgtu a2, a3, loop\n ecall\n");
        assert_eq!(
            decode(m.words[0]).unwrap(),
            RvInst::Branch { cond: RvCond::Bge, rs1: 11, rs2: 10, offset: 0 }
        );
        assert_eq!(
            decode(m.words[1]).unwrap(),
            RvInst::Branch { cond: RvCond::Bltu, rs1: 13, rs2: 12, offset: -4 }
        );
    }

    #[test]
    fn errors_name_line_and_cause() {
        let mut a = RvAsm::new("t");
        let e = a.source("addi a0, a1\n").unwrap_err();
        assert_eq!(e.to_string(), "line 1: addi takes 3 operands, got 2");
        let mut a = RvAsm::new("t");
        let e = a.source("frobnicate a0\n").unwrap_err();
        assert!(e.to_string().contains("unknown mnemonic"));
        let mut a = RvAsm::new("t");
        a.source("j nowhere\n").unwrap();
        assert_eq!(a.assemble().unwrap_err(), RvAsmError::UnknownLabel("nowhere".into()));
        let mut a = RvAsm::new("t");
        a.source("x: nop\nx: nop\n").unwrap();
        assert_eq!(a.assemble().unwrap_err(), RvAsmError::DuplicateLabel("x".into()));
    }

    #[test]
    fn branch_range_is_enforced() {
        let mut a = RvAsm::new("t");
        a.source("beq a0, a1, far\n").unwrap();
        for _ in 0..1100 {
            a.source("nop\n").unwrap();
        }
        a.source("far: ecall\n").unwrap();
        assert!(matches!(a.assemble(), Err(RvAsmError::OffsetOutOfRange { .. })));
    }
}
