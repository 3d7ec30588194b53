//! The versioned binary checkpoint format.
//!
//! A checkpoint records everything needed to resume a program mid-run:
//! the architectural state (PC, registers, and the *dirty-page memory
//! delta* against the program's initial data image) plus, optionally,
//! images of the functionally warmed structures a detailed boot takes
//! ([`WarmBoot`]), accumulated by [`FastForward`].
//!
//! # Wire layout
//!
//! All scalars little-endian; see [`crate::wire`] for the codec.
//!
//! ```text
//! magic      b"TPCK"
//! version    u32 (= 4; older versions are rejected)
//! name       str          program name
//! fpr        u64          program fingerprint (FNV-1a; see below)
//! frontend   u8           frontend/ISA kind (0 = synth, 1 = rv64 —
//!            [`tp_isa::Frontend::code`])
//! pc         u32          resume PC
//! retired    u64          instructions retired before the checkpoint
//! halted     u8           0 | 1
//! regs       u32 count, count x i64
//! mem        u32 pages, per page: u64 page index, u64 bitmap,
//!            popcount(bitmap) x i64   -- dirty words vs. the initial
//!            image, 64 words per page (page = word index >> 6, bit =
//!            word index & 63)
//! warm       u8 flag (0 = none), then:
//!   btb      u32 entries, entries x u8 counters,
//!            u32 targets, targets x (u32 index, u32 pc)
//!   ras      u32 capacity, u32 depth, depth x u32
//!   ntp      u32 index bits, u32 path depth, u8 confidence threshold,
//!            2 x (u32 entries, entries x (u32 index, u16 tag,
//!                 trace id, u8 confidence))          -- path, simple
//!   tcache   u32 sets, u32 ways, u32 lines, lines x
//!            (trace id, u32 next pc | u32::MAX, u8 len)   -- LRU-first
//!   icache   u32 lines, lines x u64 line id               -- LRU-first
//!   dcache   u32 lines, lines x u64 line id               -- LRU-first
//!   history  u32 depth, u32 len, len x trace id
//!   selection u32 max len, u8 ntb, u8 fg
//! checksum   u64          FNV-1a over every preceding byte (verified
//!            before the body is decoded, so any corruption — bit flip,
//!            truncation, appended garbage — is reported as a checksum
//!            mismatch rather than a field-level symptom)
//! ```
//!
//! Version 4 dropped the gshare image versions 1–3 carried (nothing booted
//! from it); version 3 added the checksum and version 2 the frontend
//! byte.
//!
//! A trace id is `u32 start, u32 mask, u8 branches`.
//!
//! The trace cache stores *ids*, not instructions: under a fixed selection
//! algorithm a trace id (start PC + embedded branch outcomes) fully
//! determines the instruction sequence, so lines are re-selected from the
//! program image at load time (each carries its fall-out PC and length so
//! CGCI-truncated lines rebuild bounded, exactly as they were built). The
//! program fingerprint guards this: a checkpoint only ever boots against
//! the program it was captured from.

use std::sync::Arc;

use tp_cache::{DCache, ICache, TraceCache};
use tp_core::{BootImage, TraceProcessorConfig, WarmBoot};
use tp_isa::func::{Machine, MachineState};
use tp_isa::{Frontend, Pc, Program, Reg, Word};
use tp_predict::trace_pred::ImageEntry;
use tp_predict::{
    Btb, BtbImage, NextTracePredictor, Ras, TraceHistory, TracePredictorConfig, TracePredictorImage,
};
use tp_trace::{Bit, ClosureOutcomes, SelectionConfig, Selector, Trace, TraceId};

use crate::ffwd::FastForward;
use crate::wire::{Reader, WireError, Writer};
use std::fmt;

const MAGIC: &[u8; 4] = b"TPCK";
const VERSION: u32 = 4;

/// FNV-1a over a byte slice (the same hash the program fingerprint uses).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Errors producing or consuming a checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CkptError {
    /// Low-level decode failure (truncation, impossible value).
    Wire(WireError),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is not supported.
    UnsupportedVersion(u32),
    /// The checkpoint was captured through a different frontend than the
    /// workload it is being matched against — e.g. an rv64 checkpoint
    /// offered a synthetic workload's program.
    FrontendMismatch {
        /// Program name recorded in the checkpoint.
        name: String,
        /// Frontend recorded in the checkpoint.
        stored: Frontend,
        /// Frontend of the workload offered at load.
        offered: Frontend,
    },
    /// The checkpoint was captured from a different program.
    ProgramMismatch {
        /// Program name recorded in the checkpoint.
        name: String,
        /// Fingerprint recorded in the checkpoint.
        stored: u64,
        /// Fingerprint of the program offered at load.
        offered: u64,
    },
    /// The checkpoint's trace selection differs from the boot
    /// configuration's, so its warm trace image cannot be reused.
    SelectionMismatch {
        /// Selection recorded in the checkpoint.
        stored: SelectionConfig,
        /// Selection of the offered configuration.
        offered: SelectionConfig,
    },
    /// Re-selecting a cached trace did not reproduce the recorded line
    /// (impossible for a checkpoint captured from this program).
    TraceReconstruct {
        /// The trace id that failed to rebuild.
        id: TraceId,
    },
    /// The trailing integrity checksum does not match the stream contents:
    /// the file was corrupted after capture.
    ChecksumMismatch {
        /// Checksum recorded in the stream.
        stored: u64,
        /// Checksum computed over the stream contents.
        computed: u64,
    },
    /// A detailed interval offered to
    /// [`FastForward::adopt_interval`] did not boot from the fast-forward's
    /// current frontier, so its memory delta does not apply there.
    StaleInterval {
        /// The fast-forward's frontier: resume PC and instructions retired.
        frontier: (Pc, u64),
        /// The position the interval booted from.
        booted: (Pc, u64),
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Wire(e) => write!(f, "{e}"),
            CkptError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CkptError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (this build reads {VERSION})")
            }
            CkptError::FrontendMismatch { name, stored, offered } => write!(
                f,
                "checkpoint for `{name}` was captured through the {stored} frontend, \
                 but the offered workload is {offered} — wrong ISA"
            ),
            CkptError::ProgramMismatch { name, stored, offered } => write!(
                f,
                "checkpoint was captured from program `{name}` (fingerprint {stored:016x}), \
                 not the offered program (fingerprint {offered:016x})"
            ),
            CkptError::SelectionMismatch { stored, offered } => write!(
                f,
                "checkpoint warmed with selection {}, boot configured with {}",
                stored.name(),
                offered.name()
            ),
            CkptError::TraceReconstruct { id } => {
                write!(f, "cached trace {id} did not rebuild from the program image")
            }
            CkptError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:016x}, \
                 contents hash to {computed:016x} — the file is corrupt"
            ),
            CkptError::StaleInterval { frontier, booted } => write!(
                f,
                "detailed interval booted at pc {} after {} instructions, but the \
                 fast-forward stands at pc {} after {} — its delta does not apply",
                booted.0, booted.1, frontier.0, frontier.1
            ),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<WireError> for CkptError {
    fn from(e: WireError) -> CkptError {
        CkptError::Wire(e)
    }
}

/// One warm trace-cache line: the id plus the metadata needed to rebuild
/// the exact trace (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceLine {
    /// The trace id (start PC + embedded outcomes).
    pub id: TraceId,
    /// The trace's fall-out PC, when known at construction.
    pub next_pc: Option<Pc>,
    /// Physical instruction count.
    pub len: u8,
}

impl TraceLine {
    /// The line recording a cached trace.
    pub(crate) fn of(trace: &Trace) -> TraceLine {
        debug_assert!(trace.len() <= u8::MAX as usize);
        TraceLine { id: trace.id(), next_pc: trace.next_pc(), len: trace.len() as u8 }
    }
}

/// Re-selects cached trace-cache lines, least-recently-used first, from
/// the program image into a fresh BIT sized for `cfg`, handing each
/// rebuilt trace to `fill`. This is the BIT every detailed boot starts
/// with: [`Checkpoint::warm_boot`] refills its trace cache through `fill`,
/// and [`FastForward::boot`] keeps the lent trace cache and takes only the
/// BIT, so both boots see the same BIT state.
///
/// # Errors
///
/// [`CkptError::TraceReconstruct`] when a line does not rebuild to its
/// recorded id and length (only possible against a mismatched program).
pub(crate) fn refill_bit(
    program: &Program,
    cfg: &TraceProcessorConfig,
    lines: impl IntoIterator<Item = TraceLine>,
    mut fill: impl FnMut(Trace),
) -> Result<Bit, CkptError> {
    let selector = Selector::new(cfg.selection);
    let mut bit = Bit::paper();
    for line in lines {
        let mut outcomes = ClosureOutcomes::new(|i, _, _| line.id.outcome(i), |_, _| line.next_pc);
        let stop = line.next_pc.map(|p| (p, line.len as usize));
        let trace =
            selector.walk(program, line.id.start(), &mut bit, &mut outcomes, stop).assemble();
        if trace.id() != line.id || trace.len() != line.len as usize {
            return Err(CkptError::TraceReconstruct { id: line.id });
        }
        fill(trace);
    }
    Ok(bit)
}

/// The warmed predictor images of a checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WarmImages {
    /// BTB counters and indirect targets.
    pub btb: BtbImage,
    /// RAS capacity.
    pub ras_capacity: u32,
    /// RAS contents, oldest first.
    pub ras: Vec<Pc>,
    /// Next-trace predictor entries.
    pub predictor: TracePredictorImage,
    /// Trace cache sets.
    pub tcache_sets: u32,
    /// Trace cache ways.
    pub tcache_ways: u32,
    /// Trace cache lines, least-recently-used first.
    pub tcache: Vec<TraceLine>,
    /// Instruction-cache resident line ids, least-recently-used first.
    pub icache_lines: Vec<u64>,
    /// Data-cache resident line ids, least-recently-used first.
    pub dcache_lines: Vec<u64>,
    /// Trace history depth.
    pub history_depth: u32,
    /// Trace history contents, oldest first.
    pub history: Vec<TraceId>,
    /// The selection the warm traces were cut with.
    pub selection: SelectionConfig,
}

/// A decoded (or freshly captured) checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Name of the source program.
    pub program_name: String,
    /// Fingerprint of the source program ([`Program::fingerprint`]).
    pub program_fingerprint: u64,
    /// The frontend (source ISA) the program came from. Part of the
    /// program's identity: workload lookup is per-frontend, so a capture
    /// can never silently boot against the other ISA's suite.
    pub frontend: Frontend,
    /// Resume PC.
    pub pc: Pc,
    /// Instructions retired before the checkpoint.
    pub retired: u64,
    /// Whether the program had halted.
    pub halted: bool,
    /// Architectural register values.
    pub regs: [Word; Reg::COUNT],
    /// Dirty memory words vs. the program's initial data image, as
    /// `(word index, value)` pairs in ascending order.
    pub mem_delta: Vec<(u64, Word)>,
    /// Warmed predictor images, if captured.
    pub warm: Option<WarmImages>,
}

impl Checkpoint {
    /// Captures a checkpoint from a machine state and an optional warm set
    /// with the selection its traces were cut with. (Most callers use
    /// [`FastForward::checkpoint`].)
    pub fn capture(
        program: &Program,
        frontend: Frontend,
        state: &MachineState,
        warm: Option<(&WarmBoot, SelectionConfig)>,
    ) -> Checkpoint {
        let mem_delta: Vec<(u64, Word)> = state
            .mem
            .iter()
            // A word index past every byte address has no image word.
            .filter(|(&w, &v)| {
                w.checked_mul(8).and_then(|a| program.data_word(a)).unwrap_or(0) != v
            })
            .map(|(&w, &v)| (w, v))
            .collect();
        Checkpoint {
            program_name: program.name().to_string(),
            program_fingerprint: program.fingerprint(),
            frontend,
            pc: state.pc,
            retired: state.retired,
            halted: state.halted,
            regs: state.regs,
            mem_delta,
            warm: warm.map(|(w, selection)| WarmImages::capture(w, selection)),
        }
    }

    /// Captures a checkpoint straight from a live machine, using its
    /// incrementally tracked dirty pages ([`Machine::mem_delta`]) instead
    /// of rescanning every touched memory word against the initial image
    /// — the cost scales with the store working set, so multi-round
    /// sampled runs stop paying O(mem) per capture. Produces bytes
    /// identical to [`Checkpoint::capture`] of the same machine's
    /// [`Machine::capture`] state.
    pub fn capture_machine(
        machine: &Machine<'_>,
        frontend: Frontend,
        warm: Option<(&WarmBoot, SelectionConfig)>,
    ) -> Checkpoint {
        let program = machine.program();
        Checkpoint {
            program_name: program.name().to_string(),
            program_fingerprint: program.fingerprint(),
            frontend,
            pc: machine.pc(),
            retired: machine.retired(),
            halted: machine.halted(),
            regs: machine.regs(),
            mem_delta: machine.mem_delta(),
            warm: warm.map(|(w, selection)| WarmImages::capture(w, selection)),
        }
    }

    /// Verifies this checkpoint was captured from `program`.
    ///
    /// # Errors
    ///
    /// [`CkptError::ProgramMismatch`] when the fingerprints differ.
    pub fn verify_program(&self, program: &Program) -> Result<(), CkptError> {
        let offered = program.fingerprint();
        if offered != self.program_fingerprint {
            return Err(CkptError::ProgramMismatch {
                name: self.program_name.clone(),
                stored: self.program_fingerprint,
                offered,
            });
        }
        Ok(())
    }

    /// Verifies this checkpoint was captured through the `offered`
    /// frontend.
    ///
    /// # Errors
    ///
    /// [`CkptError::FrontendMismatch`] naming both kinds when they
    /// differ.
    pub fn verify_frontend(&self, offered: Frontend) -> Result<(), CkptError> {
        if offered != self.frontend {
            return Err(CkptError::FrontendMismatch {
                name: self.program_name.clone(),
                stored: self.frontend,
                offered,
            });
        }
        Ok(())
    }

    /// Resumes a functional machine at the checkpoint.
    ///
    /// # Errors
    ///
    /// [`CkptError::ProgramMismatch`] when `program` is not the source
    /// program.
    pub fn machine<'p>(&self, program: &'p Program) -> Result<Machine<'p>, CkptError> {
        self.verify_program(program)?;
        let mut machine = Machine::new(program);
        let delta = self.mem_delta.iter().copied();
        machine.apply_delta(self.regs, self.pc, self.retired, self.halted, delta);
        Ok(machine)
    }

    /// Rebuilds the warm structures for a detailed boot under `cfg`,
    /// re-selecting every cached trace from the program image.
    ///
    /// # Errors
    ///
    /// [`CkptError::SelectionMismatch`] when `cfg` uses a different trace
    /// selection than the checkpoint was warmed with, and
    /// [`CkptError::TraceReconstruct`] if a line fails to rebuild (only
    /// possible against a mismatched program, which
    /// [`Checkpoint::boot_image`] rejects first).
    pub fn warm_boot(
        &self,
        program: &Program,
        cfg: &TraceProcessorConfig,
    ) -> Result<Option<WarmBoot>, CkptError> {
        let Some(images) = &self.warm else { return Ok(None) };
        if images.selection != cfg.selection {
            return Err(CkptError::SelectionMismatch {
                stored: images.selection,
                offered: cfg.selection,
            });
        }
        let mut tcache = TraceCache::new(images.tcache_sets as usize, images.tcache_ways as usize);
        let bit =
            refill_bit(program, cfg, images.tcache.iter().copied(), |t| tcache.fill(Arc::new(t)))?;
        let mut history = TraceHistory::new(images.history_depth as usize);
        for &id in &images.history {
            history.push(id);
        }
        let mut icache = ICache::paper();
        icache.warm_fill(&images.icache_lines);
        let mut dcache = DCache::paper();
        dcache.warm_fill(&images.dcache_lines);
        Ok(Some(WarmBoot {
            btb: Btb::from_image(&images.btb),
            ras: Ras::from_entries(images.ras_capacity as usize, &images.ras),
            predictor: NextTracePredictor::from_image(&images.predictor),
            tcache,
            bit,
            icache,
            dcache,
            history,
        }))
    }

    /// Produces the boot image for
    /// [`TraceProcessor::from_checkpoint`](tp_core::TraceProcessor::from_checkpoint).
    ///
    /// # Errors
    ///
    /// Program-fingerprint, selection and reconstruction failures as in
    /// [`Checkpoint::verify_program`] and [`Checkpoint::warm_boot`].
    pub fn boot_image(
        &self,
        program: &Program,
        cfg: &TraceProcessorConfig,
    ) -> Result<BootImage, CkptError> {
        self.verify_program(program)?;
        Ok(BootImage {
            pc: self.pc,
            regs: self.regs,
            mem_delta: self.mem_delta.clone(),
            retired: self.retired,
            halted: self.halted,
            warm: self.warm_boot(program, cfg)?,
        })
    }

    /// Encodes the checkpoint into the version-4 wire format (trailing
    /// FNV-1a checksum over everything before it).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(MAGIC);
        w.u32(VERSION);
        w.str(&self.program_name);
        w.u64(self.program_fingerprint);
        w.u8(self.frontend.code());
        w.u32(self.pc);
        w.u64(self.retired);
        w.u8(self.halted as u8);
        w.u32(Reg::COUNT as u32);
        for &r in &self.regs {
            w.i64(r);
        }
        // Dirty-page memory delta. The page bitmap is decoded in ascending
        // bit order with one value per set bit, so each word must appear
        // once and in order — normalize here rather than trusting
        // `mem_delta` (the fields are public; capture sorts, a hand-built
        // checkpoint might not). A repeated word keeps its last value.
        let mut delta = self.mem_delta.clone();
        delta.sort_by_key(|&(word, _)| word);
        delta.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        let pages: Vec<&[(u64, Word)]> = delta.chunk_by(|a, b| a.0 >> 6 == b.0 >> 6).collect();
        w.u32(pages.len() as u32);
        for words in pages {
            w.u64(words[0].0 >> 6);
            w.u64(words.iter().fold(0u64, |bitmap, &(word, _)| bitmap | 1 << (word & 63)));
            for &(_, v) in words {
                w.i64(v);
            }
        }
        match &self.warm {
            None => w.u8(0),
            Some(images) => {
                w.u8(1);
                encode_warm(&mut w, images);
            }
        }
        let mut bytes = w.into_bytes();
        let sum = fnv1a(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// Decodes a version-4 checkpoint.
    ///
    /// # Errors
    ///
    /// [`CkptError::BadMagic`], [`CkptError::UnsupportedVersion`],
    /// [`CkptError::ChecksumMismatch`] when the stream contents do not
    /// hash to the trailing checksum, or a [`CkptError::Wire`] naming the
    /// field that was truncated or corrupt. Decoding never panics and
    /// never silently misloads: a stream that decodes `Ok` is, up to the
    /// checked invariants, exactly what was encoded.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CkptError> {
        let mut r = Reader::new(bytes);
        if r.bytes(4, "magic").map_err(CkptError::Wire)? != MAGIC {
            return Err(CkptError::BadMagic);
        }
        let version = r.u32("version").map_err(CkptError::Wire)?;
        if version != VERSION {
            return Err(CkptError::UnsupportedVersion(version));
        }
        // Verify the trailing checksum before touching the body: any
        // corruption — bit flips, truncation, appended bytes — fails here
        // with one uniform error instead of whatever field-level symptom
        // it happens to produce.
        let Some(body_end) = bytes.len().checked_sub(8).filter(|&s| s >= 8) else {
            return Err(CkptError::Wire(WireError::Truncated { field: "checksum" }));
        };
        let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("length checked"));
        let computed = fnv1a(&bytes[..body_end]);
        if stored != computed {
            return Err(CkptError::ChecksumMismatch { stored, computed });
        }
        let mut r = Reader::new(&bytes[8..body_end]);
        let ckpt = decode_body(&mut r).map_err(CkptError::Wire)?;
        if r.remaining() != 0 {
            return Err(CkptError::Wire(WireError::Corrupt(format!(
                "{} trailing bytes after checkpoint body",
                r.remaining()
            ))));
        }
        Ok(ckpt)
    }
}

fn decode_body(r: &mut Reader<'_>) -> Result<Checkpoint, WireError> {
    let program_name = r.str("program name")?;
    let program_fingerprint = r.u64("program fingerprint")?;
    let code = r.u8("frontend")?;
    let frontend = Frontend::from_code(code)
        .ok_or_else(|| WireError::Corrupt(format!("frontend: unknown kind {code}")))?;
    let pc = r.u32("pc")?;
    let retired = r.u64("retired")?;
    let halted = r.u8("halted")? != 0;
    let reg_count = r.u32("reg count")? as usize;
    if reg_count != Reg::COUNT {
        return Err(WireError::Corrupt(format!("reg count: {reg_count}, expected {}", Reg::COUNT)));
    }
    let mut regs = [0 as Word; Reg::COUNT];
    for reg in &mut regs {
        *reg = r.i64("regs")?;
    }
    let pages = r.len("mem pages")?;
    let mut mem_delta = Vec::new();
    let mut prev_page = None;
    for _ in 0..pages {
        let page = r.u64("mem page index")?;
        if prev_page.is_some_and(|p| page <= p) {
            return Err(WireError::Corrupt(format!("mem page {page}: pages must ascend")));
        }
        prev_page = Some(page);
        let bitmap = r.u64("mem page bitmap")?;
        for bit in 0..64 {
            if bitmap >> bit & 1 == 1 {
                mem_delta.push(((page << 6) | bit, r.i64("mem word")?));
            }
        }
    }
    let warm = match r.u8("warm flag")? {
        0 => None,
        1 => Some(decode_warm(r)?),
        other => return Err(WireError::Corrupt(format!("warm flag: {other}"))),
    };
    Ok(Checkpoint {
        program_name,
        program_fingerprint,
        frontend,
        pc,
        retired,
        halted,
        regs,
        mem_delta,
        warm,
    })
}

fn encode_trace_id(w: &mut Writer, id: TraceId) {
    w.u32(id.start());
    w.u32(id.mask());
    w.u8(id.branches());
}

fn decode_trace_id(r: &mut Reader<'_>) -> Result<TraceId, WireError> {
    let start = r.u32("trace id start")?;
    let mask = r.u32("trace id mask")?;
    let branches = r.u8("trace id branches")?;
    if branches > 32 {
        return Err(WireError::Corrupt(format!("trace id branches: {branches} > 32")));
    }
    Ok(TraceId::new(start, mask, branches))
}

fn encode_warm(w: &mut Writer, images: &WarmImages) {
    w.u32(images.btb.counters.len() as u32);
    w.bytes(&images.btb.counters);
    w.u32(images.btb.targets.len() as u32);
    for &(i, pc) in &images.btb.targets {
        w.u32(i);
        w.u32(pc);
    }
    w.u32(images.ras_capacity);
    w.u32(images.ras.len() as u32);
    for &pc in &images.ras {
        w.u32(pc);
    }
    w.u32(images.predictor.config.index_bits);
    w.u32(images.predictor.config.path_depth as u32);
    w.u8(images.predictor.config.confidence_threshold);
    for entries in [&images.predictor.path, &images.predictor.simple] {
        w.u32(entries.len() as u32);
        for e in entries {
            w.u32(e.index);
            w.u16(e.tag);
            encode_trace_id(w, e.pred);
            w.u8(e.confidence);
        }
    }
    w.u32(images.tcache_sets);
    w.u32(images.tcache_ways);
    w.u32(images.tcache.len() as u32);
    for line in &images.tcache {
        encode_trace_id(w, line.id);
        w.u32(line.next_pc.unwrap_or(u32::MAX));
        w.u8(line.len);
    }
    for lines in [&images.icache_lines, &images.dcache_lines] {
        w.u32(lines.len() as u32);
        for &l in lines {
            w.u64(l);
        }
    }
    w.u32(images.history_depth);
    w.u32(images.history.len() as u32);
    for &id in &images.history {
        encode_trace_id(w, id);
    }
    w.u32(images.selection.max_len);
    w.u8(images.selection.ntb as u8);
    w.u8(images.selection.fg as u8);
}

fn decode_warm(r: &mut Reader<'_>) -> Result<WarmImages, WireError> {
    // Geometry fields are validated here so a corrupt stream reports a
    // named error instead of tripping a constructor assert (the warm
    // images feed `Btb::new`/`Ras::new`/`TraceCache::new`,
    // all of which panic on impossible geometry).
    let n = r.len("btb counters")?;
    if !n.is_power_of_two() {
        return Err(WireError::Corrupt(format!("btb counters: {n} not a power of two")));
    }
    let btb_counters = r.bytes(n, "btb counters")?.to_vec();
    let entries = n;
    let n = r.len("btb targets")?;
    let mut btb_targets = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let idx = r.u32("btb target index")?;
        if idx as usize >= entries {
            return Err(WireError::Corrupt(format!("btb target index: {idx} out of table")));
        }
        btb_targets.push((idx, r.u32("btb target pc")?));
    }
    let ras_capacity = r.u32("ras capacity")?;
    if ras_capacity == 0 {
        return Err(WireError::Corrupt("ras capacity: 0".to_string()));
    }
    let n = r.len("ras depth")?;
    let mut ras = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        ras.push(r.u32("ras entry")?);
    }
    let index_bits = r.u32("predictor index bits")?;
    let path_depth = r.u32("predictor path depth")? as usize;
    let confidence_threshold = r.u8("predictor confidence threshold")?;
    if index_bits > 24 || !(1..=TraceHistory::MAX_DEPTH).contains(&path_depth) {
        return Err(WireError::Corrupt(format!(
            "predictor geometry: index_bits {index_bits}, path_depth {path_depth}"
        )));
    }
    let mut components = Vec::with_capacity(2);
    for which in ["predictor path entries", "predictor simple entries"] {
        let n = r.len("predictor entries")?;
        let mut entries = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let index = r.u32("predictor entry index")?;
            if index >= 1 << index_bits {
                return Err(WireError::Corrupt(format!("{which}: index {index} out of table")));
            }
            let tag = r.u16("predictor entry tag")?;
            let pred = decode_trace_id(r)?;
            let confidence = r.u8("predictor entry confidence")?;
            if confidence > NextTracePredictor::MAX_CONFIDENCE {
                return Err(WireError::Corrupt(format!("{which}: confidence {confidence}")));
            }
            entries.push(ImageEntry { index, tag, pred, confidence });
        }
        components.push(entries);
    }
    let simple = components.pop().expect("two components");
    let path = components.pop().expect("two components");
    let tcache_sets = r.u32("tcache sets")?;
    let tcache_ways = r.u32("tcache ways")?;
    if !(tcache_sets as usize).is_power_of_two() || tcache_ways == 0 {
        return Err(WireError::Corrupt(format!(
            "tcache geometry: {tcache_sets} sets x {tcache_ways} ways"
        )));
    }
    let n = r.len("tcache lines")?;
    let mut tcache = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let id = decode_trace_id(r)?;
        let raw = r.u32("tcache line next pc")?;
        let next_pc = (raw != u32::MAX).then_some(raw);
        let len = r.u8("tcache line len")?;
        if len == 0 {
            return Err(WireError::Corrupt("tcache line len: 0".to_string()));
        }
        tcache.push(TraceLine { id, next_pc, len });
    }
    let n = r.len("icache lines")?;
    let mut icache_lines = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        icache_lines.push(r.u64("icache line")?);
    }
    let n = r.len("dcache lines")?;
    let mut dcache_lines = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        dcache_lines.push(r.u64("dcache line")?);
    }
    let history_depth = r.u32("history depth")?;
    if !(1..=TraceHistory::MAX_DEPTH as u32).contains(&history_depth) {
        return Err(WireError::Corrupt(format!("history depth: {history_depth}")));
    }
    let n = r.len("history len")?;
    let mut history = Vec::with_capacity(n.min(1 << 8));
    for _ in 0..n {
        history.push(decode_trace_id(r)?);
    }
    let max_len = r.u32("selection max len")?;
    if !(1..=32).contains(&max_len) {
        return Err(WireError::Corrupt(format!("selection max len: {max_len}")));
    }
    let ntb = r.u8("selection ntb")? != 0;
    let fg = r.u8("selection fg")? != 0;
    Ok(WarmImages {
        btb: BtbImage { counters: btb_counters, targets: btb_targets },
        ras_capacity,
        ras,
        predictor: TracePredictorImage {
            config: TracePredictorConfig { index_bits, path_depth, confidence_threshold },
            path,
            simple,
        },
        tcache_sets,
        tcache_ways,
        tcache,
        icache_lines,
        dcache_lines,
        history_depth,
        history,
        selection: SelectionConfig { max_len, ntb, fg },
    })
}

impl WarmImages {
    /// Captures a warm set whose traces were cut with `selection` as
    /// serializable images.
    pub fn capture(warm: &WarmBoot, selection: SelectionConfig) -> WarmImages {
        WarmImages {
            btb: warm.btb.image(),
            ras_capacity: warm.ras.capacity() as u32,
            ras: warm.ras.entries().to_vec(),
            predictor: warm.predictor.image(),
            tcache_sets: warm.tcache.geometry().0 as u32,
            tcache_ways: warm.tcache.geometry().1 as u32,
            tcache: warm.tcache.lines_lru().into_iter().map(|t| TraceLine::of(&t)).collect(),
            icache_lines: warm.icache.warm_lines(),
            dcache_lines: warm.dcache.warm_lines(),
            history_depth: warm.history.depth() as u32,
            history: warm.history.ids().to_vec(),
            selection,
        }
    }
}

impl FastForward<'_> {
    /// Captures a checkpoint of the current machine state and warm set
    /// (via the incremental dirty-page path; see
    /// [`Checkpoint::capture_machine`]).
    ///
    /// # Panics
    ///
    /// While the warm set is lent ([`FastForward::boot`]).
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint::capture_machine(
            self.machine(),
            self.frontend(),
            Some((self.warm(), self.selection())),
        )
    }
}
