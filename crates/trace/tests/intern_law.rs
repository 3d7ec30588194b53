//! The interning law: under one selection configuration and one program, a
//! trace's id, length, end and successor fix its instructions. So a trace
//! assembled earlier from a walk that [`Walk::matches`] equals the trace
//! the walk assembles, and the trace processor's repair and construction
//! may reuse the trace cache's copy instead of assembling another.
//!
//! Checked on every walk from every instruction of the tiny and small
//! programs of both frontends (the synthetic and the rv suite), under every
//! selection configuration, three branch-outcome policies and three
//! indirect-target policies; each walk runs unbounded and bounded before
//! each later instruction of the unbounded trace, the way CGCI insertion
//! bounds a construction at the re-convergent PC. Bounded walks share ids
//! with longer traces (and, when an indirect jump's target is on the
//! trace's own path, successors too), and indirect-ending walks share ids
//! across targets, so dropping the length and end or the successor from
//! the match fails here.

use std::collections::HashMap;

use tp_isa::Pc;
use tp_trace::{Bit, ClosureOutcomes, SelectionConfig, Selector, Trace, TraceId, Walk};
use tp_workloads::{all_workloads, Size};

#[test]
fn a_matching_earlier_trace_equals_a_fresh_assembly() {
    let configs = [
        SelectionConfig::base(),
        SelectionConfig::with_ntb(),
        SelectionConfig::with_fg(),
        SelectionConfig::with_fg_ntb(),
    ];
    let (mut walks, mut reused) = (0, 0);
    for size in [Size::Tiny, Size::Small] {
        for w in all_workloads(size) {
            let program = &w.program;
            for config in configs {
                let selector = Selector::new(config);
                let mut bit = Bit::new(64, 4);
                // Every distinct trace assembled so far, by id.
                let mut assembled: HashMap<TraceId, Vec<Trace>> = HashMap::new();
                let mut check = |walk: Walk| {
                    let fresh = walk.assemble();
                    let earlier = assembled.entry(walk.id()).or_default();
                    for t in earlier.iter().filter(|t| walk.matches(t)) {
                        assert_eq!(*t, fresh, "{}: reusing {t} for {fresh}", w.name);
                        reused += 1;
                    }
                    if !earlier.contains(&fresh) {
                        earlier.push(fresh);
                    }
                    walks += 1;
                };
                for start in 0..program.len() as Pc {
                    for policy in 0..3 {
                        let cond = move |i: u8, pc: Pc, _| match policy {
                            0 => true,
                            1 => false,
                            _ => (pc ^ u32::from(i)) & 1 == 1,
                        };
                        // The third policy sends an indirect jump back to
                        // itself: the trace then shares its id and successor
                        // with its own prefix bounded at the jump.
                        let indirect = move |pc: Pc, _| match policy {
                            0 => None,
                            1 => Some(pc + 1),
                            _ => Some(pc),
                        };
                        let mut outcomes = ClosureOutcomes::new(cond, indirect);
                        let walk = selector.walk(program, start, &mut bit, &mut outcomes, None);
                        let later: Vec<Pc> =
                            walk.assemble().insts()[1..].iter().map(|ti| ti.pc).collect();
                        check(walk);
                        for stop in later {
                            let mut outcomes = ClosureOutcomes::new(cond, indirect);
                            let stop = Some((stop, 1));
                            check(selector.walk(program, start, &mut bit, &mut outcomes, stop));
                        }
                    }
                }
            }
        }
    }
    assert!(walks > 100_000, "only {walks} walks checked");
    assert!(reused > 10_000, "only {reused} reuses checked");
}
