//! Checkpointed fast-forward for sampled trace-processor simulation.
//!
//! The detailed cycle model in `tp-core` simulates a few hundred thousand
//! instructions per second; the functional machine in `tp-isa` runs orders
//! of magnitude faster. This crate connects them into a *sampled
//! simulation* pipeline:
//!
//! 1. [`FastForward`] executes the program functionally with **functional
//!    warming** of the structures a detailed boot takes
//!    ([`WarmBoot`](tp_core::WarmBoot)): branch outcomes train the BTB,
//!    calls and returns walk the RAS, and the committed stream is cut into
//!    canonical traces (using the detailed frontend's own
//!    [`Selector`](tp_trace::Selector)) that fill the trace cache and train
//!    the next-trace predictor.
//! 2. [`Checkpoint`] freezes the architectural state (PC, registers, a
//!    dirty-page memory delta) plus the warmed predictor images into a
//!    compact versioned binary format, and rebuilds a
//!    [`BootImage`](tp_core::BootImage) from it.
//! 3. [`tp_core::TraceProcessor::from_checkpoint`] boots the detailed
//!    model for a measurement interval. A sampled round does not
//!    serialize: [`FastForward::boot`] lends the fast-forward's own warm
//!    structures by move, after applying exactly what a byte round trip
//!    through [`Checkpoint`] would (a re-selected BIT, zeroed next-trace
//!    predictor statistics). The interval's trained structures,
//!    architectural frontier and committed memory words then flow back
//!    into the next fast-forward leg as a delta
//!    ([`FastForward::adopt_interval`]), which ends the loan, so warming
//!    is continuous across the whole run and a round costs O(interval),
//!    not O(memory) or O(warm tables).
//!
//! The sampled *runner* that alternates these legs and aggregates
//! per-interval IPC with error bounds lives in `tp-bench`
//! (`tp_bench::sampled`); the `ckpt` binary creates, inspects, and
//! verifies checkpoint files.

pub mod checkpoint;
pub mod ffwd;
pub mod wire;

pub use checkpoint::{Checkpoint, CkptError, TraceLine, WarmImages};
pub use ffwd::{EngineStats, FastForward, SkipSummary};
pub use wire::WireError;

#[cfg(test)]
mod tests {
    use super::*;
    use tp_core::{CheckLevel, CiModel, TraceProcessor, TraceProcessorConfig};
    use tp_isa::func::Machine;
    use tp_isa::Program;
    use tp_workloads::{by_name, Size};

    fn mem_digest(m: &Machine<'_>) -> u64 {
        let st = m.arch_state();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (a, w) in &st.mem {
            for b in a.to_le_bytes().into_iter().chain((*w as u64).to_le_bytes()) {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }

    /// The round-trip law: fast-forward `n`, checkpoint through bytes,
    /// resume, run `m` more — equals a straight functional run of `n + m`
    /// (PC, registers, memory digest, retirement count). Checked across a
    /// grid of programs and split points, proptest-style.
    #[test]
    fn roundtrip_equals_straight_run() {
        let programs: Vec<(&str, Program)> = vec![
            ("compress", by_name("compress", Size::Tiny).unwrap().program),
            ("gcc", by_name("gcc", Size::Tiny).unwrap().program),
            ("li", by_name("li", Size::Tiny).unwrap().program),
            ("synth", tp_isa::synth::generate(&tp_isa::synth::SynthConfig::small(), 11)),
        ];
        let cfg = TraceProcessorConfig::paper(CiModel::None);
        for (name, p) in &programs {
            for split in [1u64, 63, 500, 1777] {
                let mut ff = FastForward::new(p, &cfg);
                ff.skip(split).unwrap();
                let n = ff.retired();
                let bytes = ff.checkpoint().encode();
                let ckpt = Checkpoint::decode(&bytes).unwrap();
                assert_eq!(ckpt.retired, n, "{name} split {split}");
                let mut resumed = ckpt.machine(p).unwrap();
                resumed.run(1000).unwrap();

                let mut straight = Machine::new(p);
                straight.run(resumed.retired()).unwrap();
                assert_eq!(resumed.pc(), straight.pc(), "{name} split {split}: pc");
                assert_eq!(
                    resumed.arch_state().regs,
                    straight.arch_state().regs,
                    "{name} split {split}: registers"
                );
                assert_eq!(
                    mem_digest(&resumed),
                    mem_digest(&straight),
                    "{name} split {split}: memory digest"
                );
                assert_eq!(resumed.retired(), straight.retired(), "{name} split {split}");
            }
        }
    }

    /// The incremental dirty-page capture ([`Checkpoint::capture_machine`],
    /// what [`FastForward::checkpoint`] uses) equals the full-rescan
    /// capture byte for byte — at every split point, and across a
    /// `from_state` resume boundary (where resumed-but-unchanged words
    /// must not re-enter the delta).
    #[test]
    fn incremental_capture_equals_full_rescan() {
        let w = by_name("vortex", Size::Tiny).unwrap().program;
        let cfg = TraceProcessorConfig::paper(CiModel::FgMlbRet);
        let mut ff = FastForward::new(&w, &cfg);
        for split in [1u64, 63, 500, 1777] {
            ff.skip(split).unwrap();
            let fast = ff.checkpoint();
            let warm = Some((ff.warm(), ff.selection()));
            let slow = Checkpoint::capture(&w, ff.frontend(), &ff.machine().capture(), warm);
            assert_eq!(fast, slow, "split {split}");
            assert_eq!(fast.encode(), slow.encode(), "split {split}");
        }
        // Resume from a captured state and keep running both drivers in
        // lockstep: the rebuilt machine's stored-word classification must
        // keep its deltas identical to the continuously tracked one's.
        let mut resumed = FastForward::new(&w, &cfg);
        resumed.adopt(ff.machine().capture(), ff.warm().clone());
        resumed.skip(500).unwrap();
        ff.skip(500).unwrap();
        assert_eq!(resumed.checkpoint().encode(), ff.checkpoint().encode());
    }

    /// Encode/decode is the identity on the checkpoint value, including
    /// every warm image.
    #[test]
    fn encode_decode_is_identity() {
        let w = by_name("go", Size::Tiny).unwrap().program;
        for model in [CiModel::None, CiModel::MlbRet, CiModel::FgMlbRet] {
            let cfg = TraceProcessorConfig::paper(model);
            let mut ff = FastForward::new(&w, &cfg);
            ff.skip(800).unwrap();
            let ckpt = ff.checkpoint();
            assert!(ckpt.warm.is_some());
            let decoded = Checkpoint::decode(&ckpt.encode()).unwrap();
            assert_eq!(decoded, ckpt, "{model:?}");
        }
    }

    /// The warm trace-cache image rebuilds bit-exactly: every line
    /// re-selected from the program matches the trace that was cached
    /// during warming (id, instruction sequence, renames, end metadata).
    #[test]
    fn warm_traces_rebuild_exactly() {
        let w = by_name("jpeg", Size::Tiny).unwrap().program;
        let cfg = TraceProcessorConfig::paper(CiModel::FgMlbRet);
        let mut ff = FastForward::new(&w, &cfg);
        ff.skip(u64::MAX).unwrap();
        let live: Vec<_> = ff.warm().tcache.lines_lru();
        assert!(!live.is_empty());
        let ckpt = ff.checkpoint();
        let boot = ckpt.boot_image(&w, &cfg).unwrap();
        let warm = boot.warm.expect("warm state present");
        let rebuilt = warm.tcache.lines_lru();
        assert_eq!(rebuilt.len(), live.len());
        for (a, b) in live.iter().zip(&rebuilt) {
            assert_eq!(**a, **b, "trace {} did not rebuild identically", a.id());
        }
    }

    /// A detailed interval booted from a checkpoint commits exactly the
    /// functional machine's architectural state (oracle-verified run).
    #[test]
    fn detailed_interval_from_checkpoint_is_oracle_exact() {
        let w = by_name("compress", Size::Tiny).unwrap().program;
        let cfg = TraceProcessorConfig::paper(CiModel::MlbRet).with_check(CheckLevel::Oracle);
        let mut ff = FastForward::new(&w, &cfg);
        ff.skip(1200).unwrap();
        assert!(!ff.halted());
        let ckpt = Checkpoint::decode(&ff.checkpoint().encode()).unwrap();
        let boot = ckpt.boot_image(&w, &cfg).unwrap();
        let mut sim = TraceProcessor::from_checkpoint(&w, cfg, boot).unwrap();
        let r = sim.run_interval(1000).unwrap();
        assert!(r.stats.retired_instrs >= 1000 || r.halted);
        // The oracle inside the run already verified every retired
        // instruction; additionally check the final frontier.
        let (pc, retired) = sim.retired_frontier();
        let mut straight = Machine::new(&w);
        straight.run(ckpt.retired + retired).unwrap();
        assert_eq!(pc, straight.pc());
        assert_eq!(sim.arch_state(), straight.arch_state());
    }

    /// Checkpoints refuse to boot against a different program.
    #[test]
    fn program_mismatch_is_rejected() {
        let a = by_name("compress", Size::Tiny).unwrap().program;
        let b = by_name("li", Size::Tiny).unwrap().program;
        let cfg = TraceProcessorConfig::paper(CiModel::None);
        let mut ff = FastForward::new(&a, &cfg);
        ff.skip(100).unwrap();
        let ckpt = ff.checkpoint();
        assert!(matches!(ckpt.machine(&b), Err(CkptError::ProgramMismatch { .. })));
        assert!(matches!(ckpt.boot_image(&b, &cfg), Err(CkptError::ProgramMismatch { .. })));
    }

    /// A selection mismatch between checkpoint and boot config is caught.
    #[test]
    fn selection_mismatch_is_rejected() {
        let w = by_name("compress", Size::Tiny).unwrap().program;
        let warm_cfg = TraceProcessorConfig::paper(CiModel::MlbRet);
        let mut ff = FastForward::new(&w, &warm_cfg);
        ff.skip(100).unwrap();
        let ckpt = ff.checkpoint();
        let other = TraceProcessorConfig::paper(CiModel::None);
        assert!(matches!(ckpt.boot_image(&w, &other), Err(CkptError::SelectionMismatch { .. })));
        // A lent boot fails the same way and keeps the warm set.
        assert!(matches!(ff.boot(&other), Err(CkptError::SelectionMismatch { .. })));
        assert_eq!(ff.checkpoint(), ckpt);
    }

    /// The frontend kind round-trips through the wire format, and a
    /// frontend mismatch is reported by name.
    #[test]
    fn frontend_kind_roundtrips_and_mismatch_is_named() {
        use tp_isa::Frontend;
        let w = by_name("compress", Size::Tiny).unwrap().program;
        let cfg = TraceProcessorConfig::paper(CiModel::None);
        let mut ff = FastForward::new(&w, &cfg);
        ff.set_frontend(Frontend::Rv64);
        assert_eq!(ff.frontend(), Frontend::Rv64);
        ff.skip(50).unwrap();
        let ckpt = Checkpoint::decode(&ff.checkpoint().encode()).unwrap();
        assert_eq!(ckpt.frontend, Frontend::Rv64);
        assert!(ckpt.verify_frontend(Frontend::Rv64).is_ok());
        let err = ckpt.verify_frontend(Frontend::Synth).unwrap_err();
        assert!(matches!(
            err,
            CkptError::FrontendMismatch { stored: Frontend::Rv64, offered: Frontend::Synth, .. }
        ));
        let msg = err.to_string();
        assert!(
            msg.contains("rv64") && msg.contains("synth") && msg.contains("wrong ISA"),
            "{msg}"
        );
    }

    /// Truncated and corrupted streams produce named errors, not panics.
    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Checkpoint::decode(b"nope"), Err(CkptError::BadMagic));
        let w = by_name("compress", Size::Tiny).unwrap().program;
        let cfg = TraceProcessorConfig::paper(CiModel::None);
        let mut ff = FastForward::new(&w, &cfg);
        ff.skip(50).unwrap();
        let bytes = ff.checkpoint().encode();
        for cut in [3, 9, 30, bytes.len() / 2, bytes.len() - 1] {
            assert!(Checkpoint::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Unknown versions, including v3 (which carried a gshare image),
        // are rejected before the body is read.
        for version in [3, 9] {
            let mut versioned = bytes.clone();
            versioned[4] = version; // version little-endian low byte
            let err = Checkpoint::decode(&versioned);
            assert_eq!(err, Err(CkptError::UnsupportedVersion(version.into())));
        }
    }

    /// A path or history depth deeper than a trace history holds decodes
    /// to a named error, not a panic at boot.
    #[test]
    fn decode_rejects_history_deeper_than_its_capacity() {
        let w = by_name("compress", Size::Tiny).unwrap().program;
        let cfg = TraceProcessorConfig::paper(CiModel::None);
        let mut ff = FastForward::new(&w, &cfg);
        ff.skip(50).unwrap();
        let deep = tp_predict::TraceHistory::MAX_DEPTH + 1;
        let deepen: [fn(&mut WarmImages, usize); 2] = [
            |warm, depth| warm.history_depth = depth as u32,
            |warm, depth| warm.predictor.config.path_depth = depth,
        ];
        for (i, deepen) in deepen.iter().enumerate() {
            let mut ckpt = ff.checkpoint();
            deepen(ckpt.warm.as_mut().unwrap(), deep);
            let err = Checkpoint::decode(&ckpt.encode()).unwrap_err();
            assert!(err.to_string().contains(&deep.to_string()), "case {i}: {err}");
        }
    }
}
