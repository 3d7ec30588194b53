//! The dispatch template [`Trace::assemble`] builds must equal what the
//! processor derived from the pre-renamed operands when it dispatched a
//! trace slot by slot:
//!
//! * consumer masks: bit `i` of instruction `j`'s mask `k` is set iff
//!   instruction `i`'s `k`-th source is `Local(j)`;
//! * live-out slots: slot `i` is a live-out iff it is the last writer of
//!   its destination;
//! * live-in operands: the `LiveIn` operands other than `r0`, in slot
//!   order and, within a slot, operand order.
//!
//! Checked on every trace selection builds from every instruction of the
//! tiny and small programs of both frontends (the synthetic and the rv
//! suite), under every selection configuration and three branch-outcome
//! policies.

use tp_isa::Pc;
use tp_trace::{Bit, OperandRef, SelectionConfig, Selector, Trace};
use tp_workloads::{all_workloads, Size};

fn assert_template_law(t: &Trace) {
    let insts = t.insts();
    let mut consumers = vec![[0u32; 2]; insts.len()];
    let mut live_ins = Vec::new();
    for (i, ti) in insts.iter().enumerate() {
        for (k, src) in ti.srcs.iter().enumerate() {
            match *src {
                Some((_, OperandRef::Local(j))) => consumers[j as usize][k] |= 1 << i,
                Some((r, OperandRef::LiveIn(_))) if !r.is_zero() => live_ins.push((i, k, r)),
                _ => {}
            }
        }
    }
    for (i, ti) in insts.iter().enumerate() {
        assert_eq!(ti.consumers, consumers[i], "consumers of slot {i} in {t}");
        let live_out = ti.dest.is_some_and(|d| t.last_writer(d) == Some(i));
        assert_eq!(t.is_live_out(i), live_out, "live-out slot {i} in {t}");
        let local = ti.srcs.iter().flatten().any(|(_, o)| matches!(o, OperandRef::Local(_)));
        assert_eq!(t.local_readers() >> i & 1 == 1, local, "local reader {i} in {t}");
    }
    let listed: Vec<_> = t.live_in_operands().collect();
    assert_eq!(listed, live_ins, "live-in operands of {t}");
    assert_eq!(t.live_out_slots().count_ones() as usize, t.live_outs().len(), "{t}");
}

#[test]
fn every_selected_trace_obeys_the_template_law() {
    let configs = [
        SelectionConfig::base(),
        SelectionConfig::with_ntb(),
        SelectionConfig::with_fg(),
        SelectionConfig::with_fg_ntb(),
    ];
    let mut traces = 0;
    for size in [Size::Tiny, Size::Small] {
        for w in all_workloads(size) {
            let program = &w.program;
            for config in configs {
                let selector = Selector::new(config);
                let mut bit = Bit::new(64, 4);
                for start in 0..program.len() as Pc {
                    for policy in 0..3 {
                        let cond = |i: u8, pc: Pc, _| match policy {
                            0 => true,
                            1 => false,
                            _ => (pc ^ u32::from(i)) & 1 == 1,
                        };
                        let s = selector.select_with(program, start, &mut bit, cond, |_, _| None);
                        assert_template_law(&s.trace);
                        traces += 1;
                    }
                }
            }
        }
    }
    assert!(traces > 10_000, "only {traces} traces checked");
}
