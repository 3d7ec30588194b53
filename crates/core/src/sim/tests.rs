//! Behavioural tests for the whole simulator: oracle-verified runs across
//! every control-independence model on programs engineered to exercise
//! FGCI (hammocks), MLB (unpredictable loop exits), and RET (calls).

use super::*;
use crate::config::CiModel;
use tp_isa::asm::Asm;
use tp_isa::func::Machine;
use tp_isa::synth::{self, SynthConfig};
use tp_isa::{AluOp, Cond};
use tp_stats::attr::Heuristic;
use tp_trace::TraceInst;

fn run_verified(program: &Program, model: CiModel) -> RunResult {
    let cfg = TraceProcessorConfig::paper(model).with_check(CheckLevel::Oracle);
    let mut sim = TraceProcessor::new(program, cfg);
    let result = sim.run(5_000_000).unwrap_or_else(|e| panic!("{}: {e}", program.name()));
    assert!(result.halted, "{} did not halt under {model:?}", program.name());
    // Cross-check final architectural state against the oracle.
    let mut oracle = Machine::new(program);
    oracle.run(u64::MAX).expect("oracle runs");
    assert_eq!(sim.arch_state(), oracle.arch_state(), "{} state mismatch", program.name());
    assert_eq!(
        result.stats.retired_instrs,
        oracle.retired(),
        "{} retired-count mismatch",
        program.name()
    );
    result
}

fn straightline_program() -> Program {
    let mut a = Asm::new("straight");
    let (r1, r2, r3) = (Reg::new(1), Reg::new(2), Reg::new(3));
    a.li(r1, 5);
    a.li(r2, 7);
    a.alu(AluOp::Mul, r3, r1, r2);
    a.li(r1, 0x200);
    a.store(r3, r1, 0);
    a.load(r2, r1, 0);
    a.addi(r2, r2, 1);
    a.halt();
    a.assemble().unwrap()
}

fn counted_loop_program(n: i32) -> Program {
    let mut a = Asm::new("loop");
    let (r1, r2) = (Reg::new(1), Reg::new(2));
    a.li(r1, n);
    a.li(r2, 0);
    a.label("top");
    a.addi(r2, r2, 3);
    a.addi(r1, r1, -1);
    a.branch(Cond::Gt, r1, Reg::ZERO, "top");
    a.halt();
    a.assemble().unwrap()
}

/// Data-dependent hammocks inside a loop: heavy FGCI territory.
fn hammock_loop_program() -> Program {
    hammock_loop_program_n(200)
}

/// [`hammock_loop_program`] with `n` loop iterations.
fn hammock_loop_program_n(n: i32) -> Program {
    let mut a = Asm::new("hammocks");
    let (r1, r2, r3, r4, r5) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4), Reg::new(5));
    a.li64(r5, tp_isa::DATA_BASE as i64);
    a.li(r1, n); // iterations
    a.li(r2, 0);
    a.label("top");
    // Load pseudo-random word and branch on it.
    a.alui(AluOp::And, r3, r1, 63);
    a.alui(AluOp::Shl, r3, r3, 3);
    a.add(r3, r3, r5);
    a.load(r4, r3, 0);
    a.branch(Cond::Lt, r4, Reg::ZERO, "else");
    a.addi(r2, r2, 1);
    a.jump("join");
    a.label("else");
    a.addi(r2, r2, 2);
    a.addi(r2, r2, 3);
    a.label("join");
    a.addi(r1, r1, -1);
    a.branch(Cond::Gt, r1, Reg::ZERO, "top");
    a.store(r2, r5, 0);
    a.halt();
    // Pseudo-random data.
    let mut x: i64 = 0x1234_5678;
    for i in 0..64u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        a.data_word(tp_isa::DATA_BASE + 8 * i, x >> 13);
    }
    a.assemble().unwrap()
}

/// Short loops with data-dependent trip counts inside an outer loop:
/// heavy MLB territory.
fn unpredictable_loops_program() -> Program {
    let mut a = Asm::new("mlb");
    let (r1, r2, r3, r4, r5) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4), Reg::new(5));
    a.li64(r5, tp_isa::DATA_BASE as i64);
    a.li(r1, 150);
    a.li(r2, 0);
    a.label("outer");
    a.alui(AluOp::And, r3, r1, 31);
    a.alui(AluOp::Shl, r3, r3, 3);
    a.add(r3, r3, r5);
    a.load(r4, r3, 0);
    a.alui(AluOp::And, r4, r4, 3);
    a.addi(r4, r4, 1); // inner trip 1..=4
    a.label("inner");
    a.addi(r2, r2, 1);
    a.addi(r4, r4, -1);
    a.branch(Cond::Gt, r4, Reg::ZERO, "inner");
    // Control independent work after the loop exit.
    a.addi(r2, r2, 10);
    a.alui(AluOp::Xor, r2, r2, 5);
    a.addi(r1, r1, -1);
    a.branch(Cond::Gt, r1, Reg::ZERO, "outer");
    a.store(r2, r5, 8);
    a.halt();
    let mut x: i64 = 99;
    for i in 0..32u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        a.data_word(tp_isa::DATA_BASE + 8 * i, (x >> 7).abs());
    }
    a.assemble().unwrap()
}

/// Function calls with a data-dependent branch inside the caller: RET
/// territory (re-convergence at the return target).
fn call_heavy_program() -> Program {
    let mut a = Asm::new("calls");
    let (r1, r2, r3, r4, r5) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4), Reg::new(5));
    a.li64(Reg::SP, tp_isa::STACK_BASE as i64);
    a.li64(r5, tp_isa::DATA_BASE as i64);
    a.li(r1, 120);
    a.li(r2, 0);
    a.label("top");
    a.alui(AluOp::And, r3, r1, 15);
    a.alui(AluOp::Shl, r3, r3, 3);
    a.add(r3, r3, r5);
    a.load(r4, r3, 0);
    a.call("f");
    a.addi(r2, r2, 1);
    a.addi(r1, r1, -1);
    a.branch(Cond::Gt, r1, Reg::ZERO, "top");
    a.store(r2, r5, 16);
    a.halt();
    a.label("f");
    // Unpredictable branch inside the function; both paths return.
    a.branch(Cond::Lt, r4, Reg::ZERO, "neg");
    a.addi(r2, r2, 2);
    a.ret();
    a.label("neg");
    a.addi(r2, r2, 5);
    a.addi(r2, r2, 7);
    a.ret();
    let mut x: i64 = 7;
    for i in 0..16u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        a.data_word(tp_isa::DATA_BASE + 8 * i, x >> 3);
    }
    a.assemble().unwrap()
}

#[test]
fn straightline_commits_correctly() {
    for model in CiModel::ALL {
        let r = run_verified(&straightline_program(), model);
        assert_eq!(r.stats.retired_instrs, 8);
    }
}

#[test]
fn counted_loop_all_models() {
    for model in CiModel::ALL {
        let r = run_verified(&counted_loop_program(300), model);
        assert!(r.stats.ipc() > 0.3, "{model:?} ipc {}", r.stats.ipc());
    }
}

#[test]
fn hammock_loop_all_models() {
    for model in CiModel::ALL {
        run_verified(&hammock_loop_program(), model);
    }
}

#[test]
fn fgci_recoveries_trigger_on_hammocks() {
    let p = hammock_loop_program();
    let cfg = TraceProcessorConfig::paper(CiModel::Fg).with_check(CheckLevel::Oracle);
    let mut sim = TraceProcessor::new(&p, cfg);
    sim.run(5_000_000).unwrap();
    assert!(sim.stats().fgci_recoveries > 0, "expected FGCI recoveries: {:?}", sim.stats());
}

#[test]
fn mlb_recoveries_trigger_on_unpredictable_loops() {
    let p = unpredictable_loops_program();
    let cfg = TraceProcessorConfig::paper(CiModel::MlbRet).with_check(CheckLevel::Oracle);
    let mut sim = TraceProcessor::new(&p, cfg);
    sim.run(5_000_000).unwrap();
    assert!(sim.stats().cgci_attempts > 0, "expected CGCI attempts: {:?}", sim.stats());
    assert!(sim.stats().cgci_reconverged > 0, "expected reconvergence: {:?}", sim.stats());
}

#[test]
fn unpredictable_loops_all_models() {
    for model in CiModel::ALL {
        run_verified(&unpredictable_loops_program(), model);
    }
}

#[test]
fn ret_recoveries_trigger_on_calls() {
    let p = call_heavy_program();
    let cfg = TraceProcessorConfig::paper(CiModel::Ret).with_check(CheckLevel::Oracle);
    let mut sim = TraceProcessor::new(&p, cfg);
    sim.run(5_000_000).unwrap();
    assert!(sim.stats().cgci_attempts > 0, "expected CGCI attempts: {:?}", sim.stats());
}

#[test]
fn call_heavy_all_models() {
    for model in CiModel::ALL {
        run_verified(&call_heavy_program(), model);
    }
}

#[test]
fn synthetic_programs_match_oracle_small() {
    let cfg = SynthConfig::small();
    for seed in 0..6 {
        let p = synth::generate(&cfg, seed);
        for model in CiModel::ALL {
            run_verified(&p, model);
        }
    }
}

#[test]
fn synthetic_programs_match_oracle_default() {
    let cfg = SynthConfig::default();
    for seed in 100..104 {
        let p = synth::generate(&cfg, seed);
        for model in CiModel::ALL {
            run_verified(&p, model);
        }
    }
}

#[test]
fn stats_are_consistent() {
    let p = hammock_loop_program();
    let cfg = TraceProcessorConfig::paper(CiModel::FgMlbRet);
    let mut sim = TraceProcessor::new(&p, cfg);
    let r = sim.run(5_000_000).unwrap();
    let s = r.stats;
    assert!(s.retired_traces > 0);
    assert!(s.avg_trace_len() > 1.0);
    assert!(s.dispatched_traces >= s.retired_traces);
    assert!(s.issue_events >= s.retired_instrs);
    assert!(s.cycles > 0);
    assert!(s.retired_cond_branches > 0);
}

#[test]
fn small_config_works() {
    for model in CiModel::ALL {
        let cfg = TraceProcessorConfig::small(model).with_check(CheckLevel::Oracle);
        let p = counted_loop_program(50);
        let mut sim = TraceProcessor::new(&p, cfg);
        let r = sim.run(1_000_000).unwrap();
        assert!(r.halted);
    }
}

/// The wakeup index must agree with a brute-force window rescan after
/// *every* cycle of mispredict-heavy runs — the strongest possible
/// coherence guarantee for the event-driven issue path. Uses the
/// adversarial kernels (hammocks, unpredictable loop exits, calls) plus a
/// synthetic program, under every control-independence model, so squash,
/// FGCI repair, CGCI insertion, selective reissue, and snooping all hit
/// the checker.
#[test]
fn wakeup_index_matches_rescan_every_cycle() {
    let programs = [
        hammock_loop_program(),
        unpredictable_loops_program(),
        call_heavy_program(),
        synth::generate(&SynthConfig::small(), 11),
    ];
    for p in &programs {
        for model in CiModel::ALL {
            let cfg = TraceProcessorConfig::paper(model).with_check(CheckLevel::Oracle);
            let mut sim = TraceProcessor::new(p, cfg);
            let mut cycles = 0u64;
            while !sim.halted() && cycles < 200_000 {
                sim.step_cycle().unwrap_or_else(|e| panic!("{} {model:?}: {e}", p.name()));
                sim.assert_event_index_coherent();
                cycles += 1;
            }
            assert!(sim.halted(), "{} {model:?} did not halt", p.name());
        }
    }
}

/// A load bucket keeps its entries in registration order across the
/// inline-to-spilled boundary, and an emptied spilled bucket gives its list
/// back for the next word that spills.
#[test]
fn load_buckets_spill_in_order_and_recycle_their_lists() {
    let refs: Vec<SlotRef> = (0..5).map(|i| SlotRef::new(i, i, 1)).collect();
    let mut spare = Vec::new();
    let mut bucket = LoadBucket::EMPTY;
    for (n, &r) in refs.iter().enumerate() {
        bucket.push(r, &mut spare);
        assert_eq!(bucket.as_slice(), &refs[..=n]);
        assert_eq!(matches!(bucket, LoadBucket::Spilled(_)), n >= LoadBucket::INLINE);
    }
    bucket.retain(|r| r.pe() % 2 == 0);
    assert_eq!(bucket.as_slice(), [refs[0], refs[2], refs[4]]);
    bucket.retain(|_| false);
    assert!(bucket.is_empty());
    bucket.recycle(&mut spare);
    assert!(spare.len() == 1 && spare[0].is_empty() && spare[0].capacity() > 0);
    let mut next = LoadBucket::EMPTY;
    for &r in &refs {
        next.push(r, &mut spare);
    }
    assert!(spare.is_empty(), "the spilling word took the spare list");
    LoadBucket::EMPTY.recycle(&mut spare);
    assert!(spare.is_empty(), "an inline bucket has no list to give back");
}

/// The load-registry entry counter drives its amortized sweep; if it
/// drifts from the true size, collection either thrashes or never fires.
/// After a run heavy enough to trigger the sweep, the counter must equal a
/// recount.
#[test]
fn index_footprint_counters_stay_exact() {
    let p = unpredictable_loops_program();
    for model in [CiModel::None, CiModel::FgMlbRet] {
        let cfg = TraceProcessorConfig::paper(model);
        let mut sim = TraceProcessor::new(&p, cfg);
        sim.run(5_000_000).unwrap();
        let (_, loads) = sim.index_footprint();
        assert_eq!(loads, sim.load_count, "{model:?} load count drifted");
    }
}

/// Register recycling and load-registry collection must not change
/// behaviour: a run that sweeps the register file (and the load registry)
/// before *every* cycle, with the oracle on and the wakeup index checked
/// after every cycle, must match a default run's statistics and final
/// architectural state. Forcing a sweep each cycle recycles registers as
/// early as the roots allow, so a missed root shows up as an oracle
/// mismatch, a use-after-free assertion or a statistics diff.
#[test]
fn register_sweeps_are_behaviour_invisible() {
    let programs = [hammock_loop_program(), unpredictable_loops_program(), call_heavy_program()];
    for p in &programs {
        for model in CiModel::ALL {
            let cfg = TraceProcessorConfig::paper(model).with_check(CheckLevel::Oracle);
            let mut base = TraceProcessor::new(p, cfg.clone());
            let base_r = base.run(5_000_000).unwrap();
            let mut swept = TraceProcessor::new(p, cfg);
            while !swept.halted() {
                swept.sweep_pregs();
                swept.loads_gc_at = 0;
                swept.step_cycle().unwrap_or_else(|e| panic!("{} {model:?}: {e}", p.name()));
                swept.assert_event_index_coherent();
                assert!(swept.now() < 200_000, "{} {model:?} did not halt", p.name());
            }
            let label = format!("{} {model:?}", p.name());
            assert_eq!(base_r.stats, *swept.stats(), "{label}: sweeps changed statistics");
            assert_eq!(base.arch_state(), swept.arch_state(), "{label}: sweeps changed state");
        }
    }
}

/// The register file's size is bounded by the window, not by run length: a
/// mispredict-heavy kernel run 8x longer ends with exactly the same file
/// capacity, below a bound derived from the machine (every PE's slots
/// several times over, plus the architectural registers).
#[test]
fn register_file_footprint_is_flat_in_run_length() {
    let footprint = |n: i32| {
        let p = hammock_loop_program_n(n);
        // The production sweep policy: `Full` sweeps before every rename
        // and so sizes the file differently.
        let cfg = TraceProcessorConfig::paper(CiModel::FgMlbRet).with_check(CheckLevel::Off);
        let bound = cfg.num_pes * 32 * 4 + Reg::COUNT;
        let mut sim = TraceProcessor::new(&p, cfg);
        let r = sim.run(50_000_000).unwrap();
        assert!(r.halted);
        let (capacity, high_water) = sim.preg_footprint();
        assert!(high_water > 0, "{n}: the run never recycled a register");
        assert!(high_water <= capacity && capacity <= bound, "{n}: {capacity} > {bound}");
        (capacity, r.stats.dispatched_traces)
    };
    let (short, short_dispatched) = footprint(3200);
    let (long, long_dispatched) = footprint(25600);
    assert!(long_dispatched > 7 * short_dispatched, "the long run must dispatch ~8x more");
    assert_eq!(short, long, "register file capacity grew with run length");
}

/// At `Oracle` a CGCI re-convergence detection the static CFG cannot
/// justify ends the run at the next cycle with a `cfg-oracle:` mismatch
/// naming the branch; at `Off` the same detection goes unchecked.
#[test]
fn unjustifiable_reconvergence_fails_the_run_only_when_checked() {
    let p = hammock_loop_program();
    // The hammock's forward branch. Pc 0, the loop set-up, is neither on
    // its paths nor after them, so nothing in the CFG justifies it.
    let insts = p.insts().iter().enumerate();
    let branch = insts
        .filter(|&(pc, i)| i.is_cond_branch() && !i.is_backward_branch(pc as Pc))
        .map(|(pc, _)| pc as Pc)
        .next()
        .expect("the kernel has a hammock");
    for check in [CheckLevel::Off, CheckLevel::Oracle] {
        let cfg = TraceProcessorConfig::paper(CiModel::Ret).with_check(check);
        let mut sim = TraceProcessor::new(&p, cfg);
        sim.check_reconv_oracle(branch, Heuristic::Ret, 0);
        let unclassified = sim.cfg_oracle_counts()[ReconvClass::Unclassified.index()].1;
        match sim.step_cycle() {
            Ok(()) => assert_eq!((check, unclassified), (CheckLevel::Off, 0)),
            Err(SimError::OracleMismatch { detail, .. }) => {
                assert_eq!((check, unclassified), (CheckLevel::Oracle, 1));
                assert!(detail.starts_with("cfg-oracle:"), "{detail}");
                assert!(detail.contains(&format!("branch pc {branch} ")), "{detail}");
            }
            Err(e) => panic!("{check:?}: {e}"),
        }
    }
}

/// A packed window reference must round-trip its fields at their limits
/// and order exactly like the `(pe, slot, gen)` tuple it replaced.
#[test]
fn slot_ref_round_trips_and_orders_like_its_tuple() {
    let max_gen = (1u64 << 48) - 1;
    for (pe, slot, gen) in [(0, 0, 0), (255, 255, max_gen), (255, 0, 1), (1, 255, max_gen - 1)] {
        let r = SlotRef::new(pe, slot, gen);
        assert_eq!((r.pe(), r.slot(), r.gen()), (pe, slot, gen));
    }
    let tuples = [(0, 0, 5), (0, 1, 0), (3, 2, max_gen), (3, 3, 0), (255, 255, 1), (2, 200, 7)];
    for a in tuples {
        for b in tuples {
            let (ra, rb) = (SlotRef::new(a.0, a.1, a.2), SlotRef::new(b.0, b.1, b.2));
            assert_eq!(ra.cmp(&rb), a.cmp(&b), "{a:?} vs {b:?}");
        }
    }
}

/// Every `SimStats` counter, in declaration order: the numbers of its
/// `Debug` form (no field name holds a digit).
fn stats_fields(s: &SimStats) -> Vec<u64> {
    let debug = format!("{s:?}");
    let numbers = debug.split(|c: char| !c.is_ascii_digit()).filter(|n| !n.is_empty());
    numbers.map(|n| n.parse().expect("a run of digits")).collect()
}

/// A store whose address resolves late (behind a divide) writes the word an
/// independent younger load already read: the snoop reissues the load, its
/// value changes, and the one consumer reading it in *both* operands is
/// marked. `value_change_marks` counts operands, so the run adds exactly 2.
fn double_read_reissue_program() -> Program {
    let mut a = Asm::new("double-read");
    let (r1, r3, r5, r6, r7) = (Reg::new(1), Reg::new(3), Reg::new(5), Reg::new(6), Reg::new(7));
    a.li64(r5, tp_isa::DATA_BASE as i64);
    a.li(r7, 42);
    a.alui(AluOp::Div, r6, r5, 1); // r6 = r5, 35 cycles late
    a.store(r7, r6, 0);
    a.load(r1, r5, 0); // reads 0 before the store performs
    a.add(r3, r1, r1); // both operands: the load, a local producer
    a.halt();
    a.assemble().unwrap()
}

/// A loop body holding a hammock whose arms differ in length, so an FGCI
/// repair changes the repaired trace's physical length and shifts the
/// preserved common suffix. The suffix reads a local producer from the
/// prefix (in both operands), one from the suffix itself, and one from the
/// repaired middle.
fn shifting_hammock_program() -> Program {
    let mut a = Asm::new("shift-hammock");
    let r = Reg::new;
    let (r1, r2, r3, r4, r5, r6, r7, r8) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(8));
    a.li64(r5, tp_isa::DATA_BASE as i64);
    a.li(r1, 160);
    a.li(r2, 0);
    a.label("top");
    a.alui(AluOp::And, r3, r1, 63);
    a.alui(AluOp::Shl, r3, r3, 3);
    a.add(r3, r3, r5);
    a.load(r4, r3, 0);
    a.addi(r6, r1, 7); // prefix producer read by the suffix
    a.branch(Cond::Lt, r4, Reg::ZERO, "else");
    a.addi(r2, r2, 1);
    a.jump("join");
    a.label("else");
    a.addi(r2, r2, 2);
    a.alu(AluOp::Xor, r7, r2, r6);
    a.addi(r2, r7, 3);
    a.label("join");
    a.add(r7, r6, r6); // both operands: the prefix producer
    a.add(r8, r7, r2); // a suffix producer and a middle producer
    a.alui(AluOp::And, r2, r8, 0xffff);
    a.addi(r1, r1, -1);
    a.branch(Cond::Gt, r1, Reg::ZERO, "top");
    a.store(r2, r5, 0);
    a.halt();
    let mut x: i64 = 0x5eed;
    for i in 0..64u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        a.data_word(tp_isa::DATA_BASE + 8 * i, x >> 11);
    }
    a.assemble().unwrap()
}

/// Whether repairing `old` into `new` (of a different length) keeps a
/// common suffix with a slot reading one prefix producer (same index and
/// instruction in both traces, before the suffix) in both operands, and a
/// slot reading a producer inside the suffix.
fn shifted_suffix_reads_locals(old: &Trace, new: &Trace) -> bool {
    let (o, n) = (old.insts(), new.insts());
    let same = |a: &TraceInst, b: &TraceInst| a.pc == b.pc && a.inst == b.inst;
    let common = o.iter().rev().zip(n.iter().rev()).take_while(|(a, b)| same(a, b)).count();
    let start = n.len() - common;
    let local = |ti: &TraceInst, k: usize| match ti.srcs[k] {
        Some((_, OperandRef::Local(j))) => Some(j as usize),
        _ => None,
    };
    let suffix = &n[start..];
    let prefix_pair = suffix.iter().any(|ti| {
        local(ti, 0).is_some_and(|j| j < start && local(ti, 1) == Some(j) && same(&o[j], &n[j]))
    });
    let inner = suffix.iter().any(|ti| (0..2).any(|k| local(ti, k).is_some_and(|j| j >= start)));
    prefix_pair && inner
}

/// Two-level registers: a dispatched trace allocates global registers for
/// its live-outs only, and only its live-in operands enter the global
/// reader lists; local operands are reached through the trace's consumer
/// masks.
#[test]
fn dispatch_allocates_globals_for_live_outs_only() {
    use tp_isa::Inst;
    use tp_trace::TraceId;
    let r = Reg::new;
    let addi = |rd, rs, imm| Inst::AluImm { op: AluOp::Add, rd: r(rd), rs: r(rs), imm };
    let add = |rd, rs, rt| Inst::Alu { op: AluOp::Add, rd: r(rd), rs: r(rs), rt: r(rt) };
    // Five destinations, three live-outs (the last writers of r1, r2 and
    // r3), four local operands and three live-in operands (all r4, which
    // architectural state has produced).
    let first = [addi(1, 0, 5), addi(1, 1, 1), add(2, 1, 1), add(2, 2, 4), add(3, 4, 4)];
    // Live-ins r1 and r2 are `first`'s unproduced live-outs; r5 and r6 are
    // read locally (r5 in both operands). Three live-outs: r5, r6, r1.
    let second = [add(5, 1, 2), add(6, 5, 5), addi(1, 6, 1)];
    let program = straightline_program();
    let mut sim = TraceProcessor::new(&program, TraceProcessorConfig::paper(CiModel::None));
    let dispatch = |sim: &mut TraceProcessor, pe: usize, insts: &[Inst]| {
        let raw: Vec<_> =
            insts.iter().enumerate().map(|(i, &x)| (i as Pc, x, None, false)).collect();
        let next = Some(raw.len() as Pc);
        let trace = Arc::new(Trace::assemble(TraceId::new(0, 0, 0), &raw, EndReason::MaxLen, next));
        let hist_before = sim.fetch_hist;
        let pending = Pending { trace, ready_at: 0, hist_before, source: FetchPath::Fallback };
        let before = sim.work_counters();
        sim.dispatch_trace(pe, pending, None);
        let after = sim.work_counters();
        (
            after.global_regs_allocated - before.global_regs_allocated,
            after.reader_pushes - before.reader_pushes,
        )
    };
    assert_eq!(dispatch(&mut sim, 0, &first), (3, 3), "(allocated, readers)");
    assert_eq!(dispatch(&mut sim, 1, &second), (3, 2), "(allocated, readers)");
    for pe in [0, 1] {
        let p = &sim.pes[pe];
        for (i, s) in p.slots.iter().enumerate() {
            assert_eq!(s.global().is_some(), p.trace.is_live_out(i), "pe{pe} slot {i}");
        }
    }
    let consumers: Vec<[u32; 2]> = sim.pes[0].trace.insts().iter().map(|ti| ti.consumers).collect();
    assert_eq!(consumers, [[0b10, 0], [0b100, 0b100], [0b1000, 0], [0, 0], [0, 0]]);
    for (id, list) in sim.readers.iter().enumerate() {
        for e in list {
            let p = &sim.pes[e.pe()];
            let want = Some(Src::Global(PhysRegId(id as u32)));
            let ops = [0, 1].map(|k| operand(p, e.slot(), k));
            assert!(ops.contains(&want), "reader entry {e:?} on p{id}: {ops:?}");
        }
    }
    sim.assert_event_index_coherent();
}

/// A changed local value marks its consumers once per operand: the one
/// consumer reading the reissued load in both operands adds 2 to
/// `value_change_marks`, as when each operand registered as a reader.
#[test]
fn a_double_local_read_counts_two_value_change_marks() {
    let p = double_read_reissue_program();
    for model in CiModel::ALL {
        let r = run_verified(&p, model);
        assert!(r.stats.load_snoop_reissues > 0, "{model:?}: the load never reissued");
        assert_eq!(r.stats.value_change_marks, 2, "{model:?}");
    }
}

/// The hard parts of a trace repair under two-level registers: an FGCI
/// repair whose middle changes length shifts the preserved suffix, whose
/// local operands read producers in the prefix, in the suffix itself and
/// in the repaired middle. Run with the oracle on and the wakeup index and
/// local register files checked after every cycle, every model must
/// reproduce the statistics pinned from the everything-global register
/// file this design replaced.
#[test]
fn shifted_suffix_repairs_match_the_pinned_statistics() {
    #[rustfmt::skip]
    let pinned: [(CiModel, [u64; 26]); 5] = [
        (CiModel::None, [2400, 2144, 67, 320, 59, 334, 25, 43, 610, 0, 0, 0, 0, 0, 0, 61, 267,
            0, 0, 3772, 0, 0, 0, 0, 0, 0]),
        (CiModel::Ret, [2437, 2144, 67, 320, 60, 331, 25, 43, 601, 0, 0, 0, 0, 0, 0, 61, 264,
            0, 0, 3761, 5, 0, 2, 0, 0, 0]),
        (CiModel::MlbRet, [2437, 2144, 68, 320, 60, 332, 25, 43, 601, 0, 0, 0, 0, 0, 0, 61, 264,
            0, 0, 3761, 5, 0, 2, 0, 0, 0]),
        (CiModel::Fg, [1602, 2144, 72, 320, 69, 72, 44, 52, 475, 0, 1, 7, 68, 0, 0, 1, 0, 121,
            78, 3086, 783, 0, 757, 3, 0, 0]),
        (CiModel::FgMlbRet, [1602, 2144, 73, 320, 69, 73, 44, 52, 475, 0, 1, 7, 68, 0, 0, 1, 0,
            121, 78, 3086, 783, 0, 757, 3, 0, 0]),
    ];
    let p = shifting_hammock_program();
    for (model, want) in pinned {
        let cfg = TraceProcessorConfig::paper(model).with_check(CheckLevel::Oracle);
        let mut sim = TraceProcessor::new(&p, cfg);
        // Repairs that changed a trace's length in place (same dispatch, new
        // length) and kept a common suffix reading one prefix producer in
        // both operands and another producer inside the suffix.
        let mut seen: Vec<Option<(u64, Arc<Trace>)>> = vec![None; sim.pes.len()];
        let mut shifted = 0;
        while !sim.halted() {
            sim.step_cycle().unwrap_or_else(|e| panic!("{model:?}: {e}"));
            sim.assert_event_index_coherent();
            assert!(sim.now() < 200_000, "{model:?} did not halt");
            for (i, pe) in sim.pes.iter().enumerate().filter(|(_, pe)| pe.occupied) {
                if let Some((at, old)) = &seen[i] {
                    if *at == pe.dispatched_at && old.len() != pe.trace.len() {
                        shifted += usize::from(shifted_suffix_reads_locals(old, &pe.trace));
                    }
                }
                seen[i] = Some((pe.dispatched_at, pe.trace.clone()));
            }
        }
        if matches!(model, CiModel::Fg | CiModel::FgMlbRet) {
            assert!(sim.stats().fgci_recoveries > 0, "{model:?}: no FGCI repair");
            assert!(shifted > 0, "{model:?}: no repair shifted a suffix reading locals");
        }
        assert_eq!(stats_fields(sim.stats()), want, "{model:?}: {:?}", sim.stats());
    }
}

/// The completion wheel hands every event to the completion stage exactly
/// in its due cycle: near events through the buckets, far, due-now and
/// overdue ones through the overflow heap. No bucket exists before the
/// first near event.
#[test]
fn completion_wheel_drains_each_event_in_its_cycle() {
    let mut wheel = CompletionWheel::default();
    let r = |slot| SlotRef::new(1, slot, 7);
    for (done_at, slot) in [(10, 0), (5, 1), (74, 2), (200, 3)] {
        wheel.push(10, done_at, r(slot));
    }
    assert!(wheel.buckets.is_empty(), "no near event yet");
    for (done_at, slot) in [(11, 4), (73, 5), (11, 6)] {
        wheel.push(10, done_at, r(slot));
    }
    assert_eq!(wheel.len(), 7);
    assert!(wheel.contains((74, r(2))) && wheel.contains((73, r(5))));
    assert!(!wheel.contains((73, r(2))));
    let mut drained = Vec::new();
    for now in 10..=200 {
        let mut due = Vec::new();
        wheel.drain_due(now, |slot, done_at| due.push((now, done_at, slot.slot())));
        due.sort_unstable_by_key(|&(_, _, slot)| slot);
        drained.extend(due);
    }
    let want = [(10, 10, 0), (10, 5, 1), (11, 11, 4), (11, 11, 6), (73, 73, 5), (74, 74, 2)];
    assert_eq!(drained[..6], want);
    assert_eq!(drained[6..], [(200, 200, 3)]);
    assert_eq!(wheel.len(), 0);
}

/// A loop whose hammock writes `r7` on one arm only: on the else path the
/// iteration's first instruction (`addi r7, r7, 1`) is the trace's last
/// `r7` writer, on the then path the arm's `addi r7, r7, 5` is. The else
/// arm writes `r8`, which the join overwrites, so neither arm leaves any
/// other live-out.
fn one_arm_writer_program(n: i32) -> Program {
    let mut a = Asm::new("one-arm-writer");
    let (r1, r3, r7, r8) = (Reg::new(1), Reg::new(3), Reg::new(7), Reg::new(8));
    a.li(r1, n);
    a.li(r7, 0);
    a.label("top");
    a.addi(r7, r7, 1);
    a.alui(AluOp::And, r3, r1, 1);
    a.branch(Cond::Eq, r3, Reg::ZERO, "else");
    a.addi(r7, r7, 5);
    a.jump("join");
    a.label("else");
    a.addi(r8, r1, 3);
    a.jump("join");
    a.label("join");
    a.alui(AluOp::And, r8, r1, 7);
    a.addi(r1, r1, -1);
    a.branch(Cond::Gt, r1, Reg::ZERO, "top");
    a.halt();
    a.assemble().unwrap()
}

/// A demoted slot keeps its global register, so promoting it again must
/// not allocate one. Mid-run, one trace is repaired twice at the same
/// branch: first onto the arm that writes `r7` after a completed live-out
/// writer of `r7` (demoting it), then back onto the arm that does not
/// (promoting it again). The second repair allocates nothing and hands the
/// slot its old register, so the trace's live-out map is restored and the
/// run, continued with the oracle on and the wakeup index checked every
/// cycle, completes correctly.
#[test]
fn a_repromoted_slot_keeps_its_global_register() {
    use tp_isa::Inst;
    let p = one_arm_writer_program(64);
    let pc_of = |want: Inst| p.insts().iter().position(|&i| i == want).unwrap() as Pc;
    let r = Reg::new;
    let x_pc = pc_of(Inst::AluImm { op: AluOp::Add, rd: r(7), rs: r(7), imm: 1 });
    let w_pc = pc_of(Inst::AluImm { op: AluOp::Add, rd: r(7), rs: r(7), imm: 5 });
    let b_pc = x_pc + 2;
    let cfg = TraceProcessorConfig::paper(CiModel::Fg).with_check(CheckLevel::Oracle);
    let mut sim = TraceProcessor::new(&p, cfg);
    let mut repaired = false;
    while !sim.halted() {
        sim.step_cycle().unwrap();
        sim.assert_event_index_coherent();
        assert!(sim.now() < 100_000, "did not halt");
        if repaired || sim.recovery.is_some() || sim.redispatch.is_some() {
            continue;
        }
        // A trace whose completed live-out `r7` writer is followed by the
        // hammock's branch on its else path, with the join in the trace.
        let found = sim.list.iter().find_map(|pe| {
            let p = &sim.pes[pe];
            let insts = p.trace.insts();
            let x = (0..insts.len()).position(|i| {
                insts[i].pc == x_pc && p.trace.is_live_out(i) && p.slots[i].state == SlotState::Done
            })?;
            let k = (x..insts.len()).find(|&k| insts[k].pc == b_pc)?;
            (insts[k].embedded_taken == Some(true) && k + 3 < insts.len()).then_some((pe, x, k))
        });
        let Some((pe, x, k)) = found else { continue };
        let t0 = sim.pes[pe].trace.clone();
        let (g, map_after) = (sim.pes[pe].slots[x].global(), sim.pes[pe].map_after);
        assert!(g.is_some(), "a live-out has a global register");
        // The same trace with the hammock's branch flipped onto the then
        // arm (same length: both arms are two instructions).
        let flip = t0.insts()[..k].iter().filter(|ti| ti.inst.is_cond_branch()).count() as u8;
        let id = t0.id();
        let mut outcomes =
            tp_trace::ClosureOutcomes::new(|i, _, _| id.outcome(i) != (i == flip), |_, _| None);
        let mut bit = sim.bit.clone();
        let t1 = Arc::new(sim.selector.select(&p, id.start(), &mut bit, &mut outcomes).trace);
        assert_eq!((t1.len(), t1.insts()[k + 1].pc), (t0.len(), w_pc));
        let allocated = |sim: &TraceProcessor| sim.work_counters().global_regs_allocated;

        let before = allocated(&sim);
        sim.replace_trace(pe, k, t1);
        let (slot, trace) = (&sim.pes[pe].slots[x], &sim.pes[pe].trace);
        assert!(!trace.is_live_out(x) && slot.global() == g, "the new writer demotes the slot");
        assert_eq!(allocated(&sim) - before, 1, "the then arm's writer allocates");

        let before = allocated(&sim);
        sim.replace_trace(pe, k, t0);
        let (slot, trace) = (&sim.pes[pe].slots[x], &sim.pes[pe].trace);
        assert!(trace.is_live_out(x) && slot.global() == g, "the promoted slot keeps its register");
        assert_eq!(allocated(&sim) - before, 0, "promotion again allocates nothing");
        assert_eq!(sim.pes[pe].map_after, map_after);
        sim.assert_event_index_coherent();
        repaired = true;
    }
    assert!(repaired, "no trace had a completed r7 writer before an else-path hammock");
    let mut oracle = Machine::new(&p);
    oracle.run(u64::MAX).unwrap();
    assert_eq!(sim.arch_state(), oracle.arch_state());
}

#[test]
fn from_checkpoint_rejects_a_mismatched_warm_geometry() {
    use crate::config::{RAS_DEPTH, TCACHE_WAYS};
    let p = straightline_program();
    let cfg = TraceProcessorConfig::paper(CiModel::None);
    let cold = WarmBoot::cold(&cfg);
    let boot = |warm: WarmBoot| {
        let image = BootImage { warm: Some(warm), ..BootImage::fresh(&p) };
        TraceProcessor::from_checkpoint(&p, cfg.clone(), image).err()
    };
    assert_eq!(boot(cold.clone()), None);
    let tiny = NextTracePredictor::new(tp_predict::TracePredictorConfig::tiny());
    let depth = cfg.predictor.path_depth;
    let cases = [
        ("btb", WarmBoot { btb: Btb::new(cfg.btb_entries / 2), ..cold.clone() }),
        ("ras", WarmBoot { ras: Ras::new(RAS_DEPTH + 1), ..cold.clone() }),
        ("next-trace predictor", WarmBoot { predictor: tiny, ..cold.clone() }),
        ("trace cache", WarmBoot { tcache: TraceCache::new(256, TCACHE_WAYS * 2), ..cold.clone() }),
        ("trace history", WarmBoot { history: TraceHistory::new(depth + 1), ..cold }),
    ];
    for (what, warm) in cases {
        let err = boot(warm);
        let Some(BootError::WarmGeometry(msg)) = &err else { panic!("{what}: got {err:?}") };
        assert!(msg.starts_with(&format!("{what}: checkpoint ")), "{what}: {msg}");
    }
}
