//! The `tp-metrics` layer, from the outside:
//!
//! * **Zero behavioral effect** — the tiny suite under all five models
//!   with a full-interest `MetricsSink` *and* the host stage profiler
//!   attached reproduces the golden `simstats.txt` rows byte for byte.
//! * **Histogram algebra** — merge is associative and commutative,
//!   percentiles are monotone in `q`, and bucket quantization never
//!   understates a percentile by more than 2x (exact below the low-bucket
//!   ceiling).
//! * **RingSink edges** — the drop counter accounts for every event
//!   beyond capacity, and `take::<T>` after `release_event_bus` yields
//!   each sink exactly once.
//! * **CGCI reconvergence-distance battery** — on the paper machine, every
//!   CGCI detection lands in the distance histogram or the unmapped
//!   counter, and their sum equals the attribution ledger's CGCI event
//!   count exactly.
//! * **Counter conservation** — on every cell of the tiny battery (both
//!   suites x 5 models), on the paper and the small machine: the trace
//!   counts the `MetricsSink` derives from the event stream, the
//!   attribution ledger and the simulator's own `SimStats` agree. The
//!   simulator's books write all three from one call per happening, so
//!   they agree by construction; these laws pin it. Every CGCI close also
//!   lands in the reconvergence-distance histogram or its unmapped
//!   counter, and runs cut short close every dispatched trace exactly once.

use std::collections::HashMap;

use tp_bench::corpus::simstats_rows;
use tp_bench::metrics::ipdom_map;
use tp_bench::run_cell;
use trace_processor::tp_core::{CheckLevel, CiModel, TraceProcessor, TraceProcessorConfig};
use trace_processor::tp_events::{Category, CategoryMask, Event, RingSink};
use trace_processor::tp_metrics::{Histogram, MetricsSink, EXACT_BUCKETS};
use trace_processor::tp_stats::{AttrKey, BranchClass, Heuristic, RecoveryOutcome};
use trace_processor::tp_workloads::{all_workloads, by_name, suite, Size};

/// Attaching the metrics sink (ipdom-joined) and enabling the stage
/// profiler must not move a single simulated counter: same fixture, same
/// bytes, as the bare golden run.
#[test]
fn metrics_sink_and_profiler_leave_golden_simstats_rows_byte_identical() {
    let actual = simstats_rows(&suite(Size::Tiny), CheckLevel::Off, |w, sim| {
        sim.attach_event_sink(Box::new(MetricsSink::new().with_ipdom(ipdom_map(&w.program))));
        sim.attach_stage_profiler();
    });
    assert_eq!(
        include_str!("golden/simstats.txt"),
        actual,
        "metrics observation changed simulator behaviour — the sink and profiler must be \
         observation-only"
    );
}

fn pseudo_values(seed: u64, n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| {
        let h = (seed ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        // Mix small exact-bucket values with large log-bucket values.
        if h.is_multiple_of(3) {
            h % EXACT_BUCKETS as u64
        } else {
            (h >> 32) % 1_000_000
        }
    })
}

fn hist_of(seed: u64, n: u64) -> Histogram {
    let mut h = Histogram::new();
    for v in pseudo_values(seed, n) {
        h.record(v);
    }
    h
}

#[test]
fn histogram_merge_is_associative_and_commutative() {
    let (a, b, c) = (hist_of(1, 500), hist_of(2, 300), hist_of(3, 700));
    let mut ab_c = a.clone();
    ab_c.merge(&b);
    ab_c.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut a_bc = a.clone();
    a_bc.merge(&bc);
    let mut cba = c.clone();
    cba.merge(&b);
    cba.merge(&a);
    for h in [&a_bc, &cba] {
        assert_eq!(ab_c.count(), h.count());
        assert_eq!(ab_c.sum(), h.sum());
        assert_eq!(ab_c.min(), h.min());
        assert_eq!(ab_c.max(), h.max());
        assert_eq!(ab_c.buckets(), h.buckets());
        for q in [1.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(ab_c.percentile(q), h.percentile(q), "q={q}");
        }
    }
    // Merging is also recording: (a merged b) == recording both streams.
    let mut direct = Histogram::new();
    for v in pseudo_values(1, 500).chain(pseudo_values(2, 300)) {
        direct.record(v);
    }
    let mut ab = a.clone();
    ab.merge(&b);
    assert_eq!(ab.buckets(), direct.buckets());
}

#[test]
fn percentiles_are_monotone_with_bounded_bucket_error() {
    let h = hist_of(7, 2_000);
    let mut last = 0;
    for q in 1..=100 {
        let p = h.percentile(f64::from(q));
        assert!(p >= last, "percentile must be monotone in q: p{q}={p} < {last}");
        last = p;
    }
    // Exact below the low-bucket ceiling: a histogram of only small values
    // reports exact percentiles.
    let mut small = Histogram::new();
    for v in 0..EXACT_BUCKETS as u64 {
        small.record(v);
    }
    assert_eq!(small.p50(), EXACT_BUCKETS as u64 / 2 - 1);
    assert_eq!(small.percentile(100.0), EXACT_BUCKETS as u64 - 1);
    // Log-bucketed above: the reported value is a lower bound and never
    // understates the true value by 2x or more.
    let mut big = Histogram::new();
    for v in [100u64, 1_000, 10_000, 1_000_000] {
        big.record(v);
        let p = big.percentile(100.0);
        assert!(p <= v, "reported {p} must lower-bound the true max {v}");
        assert!(p > v / 2, "reported {p} must be within 2x of the true max {v}");
    }
}

/// A ring at capacity counts every further event instead of silently
/// wedging or overwriting, and the books still balance:
/// `kept + dropped == emitted`.
#[test]
fn ring_sink_drop_counter_accounts_for_capacity_overflow() {
    let w = by_name("go", Size::Tiny).unwrap();
    let cfg = TraceProcessorConfig::paper(CiModel::FgMlbRet);

    // Reference: a ring large enough to keep everything.
    let mut sim = TraceProcessor::new(&w.program, cfg.clone());
    sim.attach_event_sink(Box::new(RingSink::new(1 << 22)));
    run_cell(&mut sim, w.name, "FG+MLB-RET");
    let mut bus = sim.release_event_bus();
    let full = bus.take::<RingSink>().expect("attached above");
    assert_eq!(full.dropped(), 0, "reference ring must not overflow");
    let emitted = full.events().len();

    // A tiny ring sees the same stream and drops the excess, counted.
    let mut sim = TraceProcessor::new(&w.program, cfg);
    sim.attach_event_sink(Box::new(RingSink::new(64)));
    run_cell(&mut sim, w.name, "FG+MLB-RET");
    let mut bus = sim.release_event_bus();
    let tiny = bus.take::<RingSink>().expect("attached above");
    assert_eq!(tiny.events().len(), 64, "ring keeps exactly its capacity");
    assert_eq!(
        tiny.events().len() + tiny.dropped() as usize,
        emitted,
        "kept + dropped must equal the emitted event count"
    );
    assert!(tiny.dropped() > 0, "the go/FG+MLB-RET cell emits far more than 64 events");
}

/// `take::<T>` after `release_event_bus` yields each sink exactly once,
/// by concrete type, regardless of attach order.
#[test]
fn take_after_release_yields_each_sink_once() {
    let w = by_name("compress", Size::Tiny).unwrap();
    let cfg = TraceProcessorConfig::paper(CiModel::MlbRet);
    let mut sim = TraceProcessor::new(&w.program, cfg);
    sim.attach_event_sink(Box::new(RingSink::new(1 << 16)));
    sim.attach_event_sink(Box::new(MetricsSink::new()));
    run_cell(&mut sim, w.name, "MLB-RET");
    let mut bus = sim.release_event_bus();
    let metrics = bus.take::<MetricsSink>().expect("metrics sink attached");
    assert!(metrics.metrics().traces_retired.get() > 0);
    assert!(bus.take::<MetricsSink>().is_none(), "a sink can be taken once");
    let ring = bus.take::<RingSink>().expect("ring sink still attachable by type");
    assert!(!ring.events().is_empty());
    assert!(bus.take::<RingSink>().is_none());
}

/// The paper-scale battery: all 14 workloads under all 5 models. Every
/// CGCI detection must land in the reconvergence-distance histogram or
/// the unmapped counter, and their sum must equal both the sink's close
/// count and the attribution ledger's CGCI event total — exactly.
#[test]
fn cgci_battery_distance_histogram_matches_ledger_exactly() {
    let mut total_detections = 0u64;
    for w in all_workloads(Size::Tiny) {
        let ipdom = ipdom_map(&w.program);
        for model in CiModel::ALL {
            let cfg = TraceProcessorConfig::paper(model);
            let mut sim = TraceProcessor::new(&w.program, cfg);
            sim.attach_event_sink(Box::new(MetricsSink::new().with_ipdom(ipdom.clone())));
            let r = run_cell(&mut sim, w.name, model.name()).result;
            let mut bus = sim.release_event_bus();
            let m = bus.take::<MetricsSink>().expect("attached above").into_metrics();
            let mut ledger_cgci = 0;
            for class in BranchClass::ALL {
                for heuristic in Heuristic::ALL {
                    for outcome in [RecoveryOutcome::CgciReconverged, RecoveryOutcome::CgciFailed] {
                        ledger_cgci += r.attribution.cell((class, heuristic, outcome)).events;
                    }
                }
            }
            let bucketed = m.reconv_distance.count() + m.reconv_unmapped.get();
            assert_eq!(
                bucketed,
                m.cgci_closed.get(),
                "{} {model:?}: every close must be bucketed or counted unmapped",
                w.name
            );
            assert_eq!(
                bucketed, ledger_cgci,
                "{} {model:?}: distance accounting disagrees with the attribution ledger",
                w.name
            );
            total_detections += ledger_cgci;
        }
    }
    assert!(total_detections > 0, "the battery must exercise CGCI detections");
}

/// The event stream, the attribution ledger and `SimStats` count the same
/// happenings, on the paper machine and on the small one (which saturates
/// its 4-PE window and takes other recovery paths). The books write all
/// three from one call per happening; these laws pin that, on every cell
/// of the tiny battery:
///
/// * the sink's dispatch/retire/squash/preserve/re-dispatch counters equal
///   the simulator's, every CGCI attempt opens one window, and every
///   `CgciClosed` is one `events` of its own `(class, heuristic, outcome)`
///   ledger cell and lands in the reconvergence-distance histogram
///   (joined against tp-cfg's static ipdoms) or its unmapped counter;
/// * `fgci_recoveries` is the ledger's `FgciRepair` event count,
///   `cgci_reconverged` its `CgciReconverged` count, `cgci_attempts` its
///   `CgciReconverged` plus `CgciFailed` counts, `preserved_traces` its
///   `traces_preserved`, and `retired_cond_mispredicts` its `retired`
///   total (and the sum of its per-class `retired` counts);
/// * the ledger's `traces_redispatched` never exceeds
///   `redispatched_traces` (a pass resuming a preempted pass's walk debt
///   charges no cell for the owed walks; see `AttrCell`);
/// * a run cut short at 1500 instructions closes every dispatched trace
///   exactly once: retired, squashed, or drained when the bus is released.
///
/// (Mispredicts and recovery starts are not equated with the ledger:
/// transient faults and indirect full squashes legitimately differ.)
#[test]
fn counter_conservation_event_counts_match_simstats() {
    let mut detections = 0;
    let paper: fn(CiModel) -> TraceProcessorConfig = TraceProcessorConfig::paper;
    let machines = [("paper", paper), ("small", TraceProcessorConfig::small)];
    for (machine, config) in machines {
        for w in all_workloads(Size::Tiny) {
            let ipdom = ipdom_map(&w.program);
            for model in CiModel::ALL {
                let cell = format!("{} {} {machine}", w.name, model.name());
                let mut sim = TraceProcessor::new(&w.program, config(model));
                sim.attach_event_sink(Box::new(MetricsSink::new().with_ipdom(ipdom.clone())));
                let cgci = CategoryMask::of(&[Category::Cgci]);
                sim.attach_event_sink(Box::new(RingSink::with_interests(usize::MAX, cgci)));
                let r = run_cell(&mut sim, w.name, model.name()).result;
                let (s, a) = (r.stats, &r.attribution);
                let mut bus = sim.release_event_bus();
                let m = bus.take::<MetricsSink>().expect("attached").into_metrics();
                // Every `CgciClosed` is one `events` of its own ledger cell.
                let mut closes: HashMap<AttrKey, u64> = HashMap::new();
                for &(_, e) in bus.take::<RingSink>().expect("attached").events() {
                    if let Event::CgciClosed { class, heuristic, outcome, .. } = e {
                        *closes.entry((class, heuristic, outcome)).or_default() += 1;
                    }
                }
                let cgci_cell = |k: &AttrKey| {
                    matches!(k.2, RecoveryOutcome::CgciReconverged | RecoveryOutcome::CgciFailed)
                };
                for (key, c) in a.nonzero().filter(|(k, _)| cgci_cell(k)) {
                    let n = closes.remove(&key).unwrap_or(0);
                    assert_eq!(n, c.events, "{cell}: CgciClosed vs ledger cell {key:?}");
                }
                assert!(closes.is_empty(), "{cell}: closes with no ledger cell: {closes:?}");
                let ledger = |outcome: RecoveryOutcome| -> u64 {
                    a.nonzero().filter(|(k, _)| k.2 == outcome).map(|(_, c)| c.events).sum()
                };
                let cgci_closed =
                    ledger(RecoveryOutcome::CgciReconverged) + ledger(RecoveryOutcome::CgciFailed);
                let bucketed = m.reconv_distance.count() + m.reconv_unmapped.get();
                let preserved = a.nonzero().map(|(_, c)| c.traces_preserved).sum();
                let by_class = a.retired_by_class().iter().sum();
                for (what, got, want) in [
                    ("dispatched events", m.traces_dispatched.get(), s.dispatched_traces),
                    ("retired events", m.traces_retired.get(), s.retired_traces),
                    ("squashed events", m.traces_squashed.get(), s.squashed_traces),
                    ("preserved events", m.traces_preserved.get(), s.preserved_traces),
                    ("redispatched events", m.traces_redispatched.get(), s.redispatched_traces),
                    ("cgci opened events", m.cgci_opened.get(), s.cgci_attempts),
                    ("cgci closed events vs ledger", m.cgci_closed.get(), cgci_closed),
                    ("cgci closes bucketed", bucketed, cgci_closed),
                    ("fgci ledger", ledger(RecoveryOutcome::FgciRepair), s.fgci_recoveries),
                    ("cgci ledger", ledger(RecoveryOutcome::CgciReconverged), s.cgci_reconverged),
                    ("cgci attempts ledger", cgci_closed, s.cgci_attempts),
                    ("preserved ledger", preserved, s.preserved_traces),
                    ("retired ledger", a.retired_total(), s.retired_cond_mispredicts),
                    ("retired by class", by_class, s.retired_cond_mispredicts),
                ] {
                    assert_eq!(got, want, "{cell}: {what}");
                }
                let walked: u64 = a.nonzero().map(|(_, c)| c.traces_redispatched).sum();
                assert!(walked <= s.redispatched_traces, "{cell}: ledger walks more traces");
                detections += cgci_closed;

                let mut sim = TraceProcessor::new(&w.program, config(model));
                sim.attach_event_sink(Box::new(RingSink::with_interests(
                    1 << 16,
                    CategoryMask::of(&[Category::Trace]),
                )));
                let s = sim.run(1500).unwrap_or_else(|e| panic!("{cell} cut: {e}")).stats;
                let ring = sim.release_event_bus().take::<RingSink>().expect("attached");
                assert_eq!(ring.dropped(), 0, "{cell} cut: ring overflowed");
                let drained = ring
                    .events()
                    .iter()
                    .filter(|(_, e)| matches!(e, Event::TraceSquashed { drained: true, .. }))
                    .count() as u64;
                assert_eq!(
                    s.dispatched_traces,
                    s.retired_traces + s.squashed_traces + drained,
                    "{cell} cut: dispatched traces vs retired + squashed + drained"
                );
            }
        }
    }
    assert!(detections > 0, "the battery must exercise CGCI detections");
}
