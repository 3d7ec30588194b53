//! Differential property test: the superblock fast-forward engine must be
//! bit-exact against the reference interpreter — same `MachineState`
//! capture, same warm images (via TPCK checkpoint bytes), same BIT state —
//! under randomized interleavings of `skip` boundaries and `adopt`
//! resumes, across both frontends (synthetic and RV64 suites), and under
//! stores that hit cached code pages (forced block invalidation).

use tp_ckpt::FastForward;
use tp_core::{CiModel, TraceProcessorConfig};
use tp_isa::asm::Asm;
use tp_isa::{Cond, Program, Reg};
use tp_workloads::{all_workloads, Size};

/// Deterministic xorshift64* stream (the property test must replay).
fn next(rng: &mut u64) -> u64 {
    let mut x = *rng;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *rng = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn assert_lockstep(name: &str, fast: &FastForward<'_>, slow: &FastForward<'_>, at: &str) {
    assert_eq!(
        fast.machine().capture(),
        slow.machine().capture(),
        "{name}: machine state diverges {at}"
    );
    assert_eq!(
        fast.checkpoint().encode(),
        slow.checkpoint().encode(),
        "{name}: TPCK bytes diverge {at}"
    );
    assert_eq!(
        format!("{:?}", fast.warm().bit),
        format!("{:?}", slow.warm().bit),
        "{name}: BIT state diverges {at}"
    );
}

/// Random `skip` chunk sizes with interleaved `adopt` resumes, both
/// frontends, all 14 workloads: every boundary must agree bit-exactly.
#[test]
fn superblock_is_bit_exact_under_random_interleavings() {
    for w in all_workloads(Size::Tiny) {
        // fg+ntb is the heaviest selection (BIT consults, region padding,
        // ntb cuts) — the hardest mode to replay exactly.
        let cfg = TraceProcessorConfig::paper(CiModel::FgMlbRet);
        let mut fast = FastForward::new(&w.program, &cfg);
        fast.set_frontend(w.frontend);
        let mut slow = FastForward::new(&w.program, &cfg);
        slow.set_frontend(w.frontend);
        slow.set_superblock(false);

        let mut rng =
            0x9E37_79B9_7F4A_7C15u64 ^ w.name.len() as u64 ^ (w.name.as_bytes()[0] as u64) << 32;
        let mut boundary = 0u64;
        while !fast.halted() {
            let r = next(&mut rng);
            let chunk = 1 + r % 700;
            let a = fast.skip(chunk).unwrap();
            let b = slow.skip(chunk).unwrap();
            assert_eq!(a, b, "{}: skip summaries diverge at boundary {boundary}", w.name);
            assert_lockstep(w.name, &fast, &slow, &format!("at boundary {boundary}"));
            if r.is_multiple_of(5) {
                // Simulate the sampled runner's detailed-interval handoff:
                // rebuild the machine and warm set through adopt. The
                // engine's block cache and memos survive (the program is
                // immutable) and must stay coherent with the fresh state.
                let state = fast.machine().capture();
                fast.adopt(state, fast.warm().clone());
                let state = slow.machine().capture();
                slow.adopt(state, slow.warm().clone());
                assert_lockstep(w.name, &fast, &slow, &format!("after adopt {boundary}"));
            }
            boundary += 1;
        }
        assert!(slow.halted(), "{}: engines disagree on halt", w.name);
        let stats = fast.engine_stats().unwrap();
        assert!(stats.memo_hits > 0, "{}: engine never hit its memo: {stats:?}", w.name);
    }
}

/// A kernel whose stores land inside the program's own PC span (under the
/// checkpoint format's identity word↔PC page mapping): every 64th
/// iteration dirties a cached code page, so the engine builds blocks and
/// memoizes traces, takes hits on them, then must throw them away — and
/// still match the interpreter bit for bit.
fn self_modifying_program(iters: i32) -> Program {
    let mut a = Asm::new("selfmod");
    let (i, addr, v, t) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
    a.li(i, iters);
    a.li(addr, 8); // byte address 8 = word 1 = page 0, the first code page
    a.label("top");
    // Dirty the code page only every 64th iteration, so the engine gets
    // to build blocks and take memo hits in between — and must then throw
    // that state away.
    a.alui(tp_isa::AluOp::And, t, i, 63);
    a.branch(Cond::Ne, t, Reg::ZERO, "skip");
    a.load(v, addr, 0);
    a.addi(v, v, 1);
    a.store(v, addr, 0);
    a.label("skip");
    a.addi(i, i, -1);
    a.branch(Cond::Gt, i, Reg::ZERO, "top");
    a.halt();
    a.assemble().unwrap()
}

#[test]
fn code_page_stores_force_invalidation_and_stay_exact() {
    let p = self_modifying_program(400);
    let cfg = TraceProcessorConfig::paper(CiModel::MlbRet);
    let mut fast = FastForward::new(&p, &cfg);
    let mut slow = FastForward::new(&p, &cfg);
    slow.set_superblock(false);
    let mut boundary = 0;
    while !fast.halted() {
        let a = fast.skip(97).unwrap();
        let b = slow.skip(97).unwrap();
        assert_eq!(a, b, "skip summaries diverge at boundary {boundary}");
        assert_lockstep("selfmod", &fast, &slow, &format!("at boundary {boundary}"));
        boundary += 1;
    }
    let stats = fast.engine_stats().unwrap();
    assert!(stats.memo_hits > 0, "engine must get hits between dirtying stores: {stats:?}");
    assert!(stats.blocks_built > 0, "engine must decode blocks between stores: {stats:?}");
    assert!(stats.pages_invalidated > 0, "stores to code pages must invalidate: {stats:?}");
    assert!(stats.blocks_invalidated > 0, "cached blocks on the dirty page must die: {stats:?}");
    assert!(stats.memos_invalidated > 0, "memoized traces on the dirty page must die: {stats:?}");
    // Each invalidation forces the engine back through live selection.
    assert!(stats.memo_misses > 1, "{stats:?}");
}
