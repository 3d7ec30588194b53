//! The `tp-events` bus contract, from the outside:
//!
//! * **Zero behavioral effect** — running the whole tiny suite under all
//!   five models with a full-interest sink attached reproduces the golden
//!   `simstats.txt` rows byte for byte. The bus observes; it never
//!   perturbs.
//! * **The Chrome trace document is schema-valid** — it parses as JSON
//!   (tp-bench's own JSON reader; the build is offline), every `traceEvents`
//!   element carries the required `ph`/`ts`/`pid`/`tid` fields, `B`/`E`
//!   spans are stack-balanced per track, and timestamps are monotone
//!   per track.
//!
//! Residency spans (every `TraceDispatched` closed by exactly one
//! `TraceRetired` or `TraceSquashed`, run-end residents as `drained`
//! squashes) are checked on every tiny-battery cell by
//! `tests/golden_stats.rs::event_stream_matches_golden`, next to the pinned
//! stream; `tests/metrics.rs` checks that events, the ledger and `SimStats`
//! count the same happenings, cut runs included.

use std::collections::HashMap;

use tp_bench::corpus::simstats_rows;
use tp_bench::json::{parse, Json};
use trace_processor::tp_core::{CheckLevel, CiModel, TraceProcessorConfig};
use trace_processor::tp_events::RingSink;
use trace_processor::tp_workloads::{by_name, suite, Size};

/// Attaching a sink must not move a single counter: the tiny suite under
/// all five models, with a full-interest ring attached, must match the
/// golden `simstats.txt` fixture byte for byte.
#[test]
fn attached_bus_leaves_golden_simstats_rows_byte_identical() {
    let actual = simstats_rows(&suite(Size::Tiny), CheckLevel::Off, |_, sim| {
        sim.attach_event_sink(Box::new(RingSink::new(4_096)));
        assert!(sim.events_attached());
    });
    assert_eq!(
        include_str!("golden/simstats.txt"),
        actual,
        "attaching an event sink changed simulator behaviour — the bus must be observation-only"
    );
}

/// The Chrome trace-event document parses as JSON and satisfies the
/// trace-event schema: required fields on every row, stack-balanced
/// `B`/`E` spans, and monotone timestamps per (pid, tid) track.
#[test]
fn chrome_trace_document_is_schema_valid() {
    let w = by_name("go", Size::Tiny).unwrap();
    let cfg = TraceProcessorConfig::paper(CiModel::MlbRet);
    let cap = tp_bench::capture_program(&w.program, cfg, 20_000);
    assert!(cap.error.is_none(), "{:?}", cap.error);

    let doc = parse(&cap.chrome_json).expect("the capture is valid JSON");
    let rows = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
    assert!(rows.len() > 100, "suspiciously small capture: {} rows", rows.len());

    // (pid, tid) -> (open B count, last ts seen on the track).
    let mut tracks: HashMap<(u64, u64), (u64, f64)> = HashMap::new();
    for (i, row) in rows.iter().enumerate() {
        let ph = row.get("ph").and_then(Json::as_str).unwrap_or_else(|| panic!("row {i}: ph"));
        let ts = row.get("ts").and_then(Json::as_f64).unwrap_or_else(|| panic!("row {i}: ts"));
        let pid = row.get("pid").and_then(Json::as_u64).unwrap_or_else(|| panic!("row {i}: pid"));
        let tid = row.get("tid").and_then(Json::as_u64).unwrap_or_else(|| panic!("row {i}: tid"));
        assert!(ts >= 0.0, "row {i}: negative ts");
        assert!(
            matches!(ph, "M" | "B" | "E" | "i" | "C"),
            "row {i}: unexpected phase {ph:?} (pid {pid})"
        );
        // Instants must carry a scope; named phases must carry a name.
        if ph == "i" {
            assert_eq!(row.get("s").and_then(Json::as_str), Some("t"), "row {i}: instant scope");
        }
        if ph != "E" {
            assert!(row.get("name").and_then(Json::as_str).is_some(), "row {i}: missing name");
        }
        if ph == "M" {
            continue; // metadata rows sit at ts 0, outside the timeline.
        }
        let (depth, last_ts) = tracks.entry((pid, tid)).or_insert((0, 0.0));
        assert!(
            ts >= *last_ts,
            "row {i}: ts {ts} < {last_ts} on track (pid {pid}, tid {tid}) — not monotone"
        );
        *last_ts = ts;
        match ph {
            "B" => *depth += 1,
            "E" => {
                assert!(*depth > 0, "row {i}: E without open B on track (pid {pid}, tid {tid})");
                *depth -= 1;
            }
            _ => {}
        }
    }
    for ((pid, tid), (depth, _)) in tracks {
        assert_eq!(depth, 0, "unbalanced B/E spans left open on track (pid {pid}, tid {tid})");
    }
}
