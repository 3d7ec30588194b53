//! Chrome trace-event JSON sink: loads directly in perfetto or
//! `chrome://tracing`.
//!
//! Mapping (JSON hand-rolled; the build is offline):
//!
//! * one *pid* per processing element (pid = PE index + 1), named
//!   `PE <n>` via process-name metadata;
//! * trace residency as `B`/`E` duration events on the PE's track,
//!   opened by `TraceDispatched` and closed by `TraceRetired` /
//!   `TraceSquashed`;
//! * squash / repair / mispredict / recovery / stall moments as `i`
//!   instant events on the owning PE's track;
//! * CGCI attempts as `B`/`E` spans on a dedicated `cgci` pid;
//! * fetch activity as instants on a dedicated `fetch` pid;
//! * window pressure, issue activity, and bus contention as `C` counter
//!   tracks on a dedicated `counters` pid.
//!
//! Timestamps are simulated cycles reported as microseconds (1 cycle =
//! 1us), so perfetto's time axis reads directly as cycles.

use std::any::Any;

use crate::bus::EventSink;
use crate::event::{CategoryMask, Event};

/// pid hosting fetch-activity instants.
const FETCH_PID: u64 = 100;
/// pid hosting CGCI attempt spans.
const CGCI_PID: u64 = 101;
/// pid hosting the counter tracks.
const COUNTER_PID: u64 = 102;
/// pid hosting sampling-phase markers (detailed-interval stamps).
const SAMPLE_PID: u64 = 103;

/// The Chrome trace-event sink. Collects pre-rendered event objects;
/// [`ChromeTraceSink::to_json`] wraps them into the final document.
#[derive(Debug, Default)]
pub struct ChromeTraceSink {
    events: Vec<String>,
    /// Per-PE open residency span: (start cycle, trace start PC).
    open: Vec<Option<(u64, u32)>>,
    /// The open CGCI attempt span, if any (at most one attempt pends).
    cgci_open: bool,
    /// Offset added to every timestamp ([`ChromeTraceSink::set_base`]).
    base: u64,
    /// Whether any interval marker was stamped (adds the sampling pid's
    /// metadata row).
    sampled: bool,
}

impl ChromeTraceSink {
    /// A fresh sink (subscribes to every category).
    pub fn new() -> ChromeTraceSink {
        ChromeTraceSink::default()
    }

    /// Number of trace-event objects collected so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Sets the timeline base: every subsequent timestamp (event cycles
    /// and interval markers) is reported as `base + cycle`. A sampled run
    /// reuses one sink across detailed intervals, each of which restarts
    /// its simulator at cycle 0; advancing the base between intervals
    /// lays them out on one coherent global timeline instead of
    /// overlapping at t=0.
    pub fn set_base(&mut self, base: u64) {
        self.base = base;
    }

    /// The current timeline base.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Stamps a detailed-interval marker at the current base: an instant
    /// on a dedicated `sampling` track carrying the interval index and
    /// the retired-instruction offset where the interval started.
    pub fn mark_interval(&mut self, index: u64, start_retired: u64) {
        self.sampled = true;
        let ts = self.base;
        self.instant(
            ts,
            SAMPLE_PID,
            &format!("interval {index}"),
            &format!("\"interval\":{index},\"start_retired\":{start_retired}"),
        );
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn push(&mut self, obj: String) {
        self.events.push(obj);
    }

    fn span_begin(&mut self, ts: u64, pid: u64, name: &str, args: &str) {
        self.push(format!(
            "{{\"name\":\"{name}\",\"ph\":\"B\",\"ts\":{ts},\"pid\":{pid},\"tid\":0,\
             \"args\":{{{args}}}}}"
        ));
    }

    fn span_end(&mut self, ts: u64, pid: u64, args: &str) {
        self.push(format!(
            "{{\"ph\":\"E\",\"ts\":{ts},\"pid\":{pid},\"tid\":0,\"args\":{{{args}}}}}"
        ));
    }

    fn instant(&mut self, ts: u64, pid: u64, name: &str, args: &str) {
        self.push(format!(
            "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{pid},\
             \"tid\":0,\"args\":{{{args}}}}}"
        ));
    }

    fn counter(&mut self, ts: u64, name: &str, args: &str) {
        self.push(format!(
            "{{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{COUNTER_PID},\"tid\":0,\
             \"args\":{{{args}}}}}"
        ));
    }

    fn pe_pid(pe: u8) -> u64 {
        pe as u64 + 1
    }

    fn open_slot(&mut self, pe: u8) -> &mut Option<(u64, u32)> {
        let i = pe as usize;
        if self.open.len() <= i {
            self.open.resize(i + 1, None);
        }
        &mut self.open[i]
    }

    /// Renders the collected events as a complete Chrome trace-event
    /// JSON document (object form, `traceEvents` array). Process-name
    /// metadata rows lead the array so every pid is labelled.
    pub fn to_json(&self) -> String {
        let mut rows: Vec<String> = Vec::with_capacity(self.events.len() + self.open.len() + 3);
        let meta = |pid: u64, name: &str| {
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            )
        };
        for pe in 0..self.open.len() {
            rows.push(meta(Self::pe_pid(pe as u8), &format!("PE {pe}")));
        }
        rows.push(meta(FETCH_PID, "fetch"));
        rows.push(meta(CGCI_PID, "cgci"));
        rows.push(meta(COUNTER_PID, "counters"));
        if self.sampled {
            rows.push(meta(SAMPLE_PID, "sampling"));
        }
        rows.extend(self.events.iter().cloned());
        let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, row) in rows.iter().enumerate() {
            s.push_str(row);
            s.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
        }
        s.push_str("]}\n");
        s
    }
}

impl EventSink for ChromeTraceSink {
    fn interests(&self) -> CategoryMask {
        CategoryMask::ALL
    }

    fn record(&mut self, cycle: u64, event: &Event) {
        // All timestamps are offset by the timeline base (zero unless a
        // sampled capture laid intervals end to end).
        let cycle = self.base + cycle;
        match *event {
            Event::TraceFetched { pc, len, source } => {
                let name = format!("fetch {}", source.label());
                self.instant(cycle, FETCH_PID, &name, &format!("\"pc\":{pc},\"len\":{len}"));
            }
            Event::TraceDispatched { pe, pc, len, cgci_insert } => {
                if self.open_slot(pe).take().is_some() {
                    // A dangling span means a missed close upstream; end
                    // it so the B/E stream stays balanced regardless.
                    self.span_end(cycle, Self::pe_pid(pe), "");
                }
                *self.open_slot(pe) = Some((cycle, pc));
                self.span_begin(
                    cycle,
                    Self::pe_pid(pe),
                    &format!("trace@{pc}"),
                    &format!("\"pc\":{pc},\"len\":{len},\"cgci_insert\":{cgci_insert}"),
                );
            }
            Event::TraceRetired { pe, pc, len } => {
                if self.open_slot(pe).take().is_some() {
                    self.span_end(
                        cycle,
                        Self::pe_pid(pe),
                        &format!("\"end\":\"retired\",\"pc\":{pc},\"len\":{len}"),
                    );
                }
            }
            Event::TraceSquashed { pe, pc, drained } => {
                if self.open_slot(pe).take().is_some() {
                    let kind = if drained { "drained" } else { "squashed" };
                    self.span_end(
                        cycle,
                        Self::pe_pid(pe),
                        &format!("\"end\":\"{kind}\",\"pc\":{pc}"),
                    );
                }
                if !drained {
                    self.instant(cycle, Self::pe_pid(pe), "squash", &format!("\"pc\":{pc}"));
                }
            }
            Event::TraceRepaired { pe, branch_pc } => {
                self.instant(
                    cycle,
                    Self::pe_pid(pe),
                    "repair",
                    &format!("\"branch_pc\":{branch_pc}"),
                );
            }
            Event::TracePreserved { pe, pc } => {
                self.instant(cycle, Self::pe_pid(pe), "preserved", &format!("\"pc\":{pc}"));
            }
            Event::TraceRedispatched { pe, pc } => {
                self.instant(cycle, Self::pe_pid(pe), "redispatch", &format!("\"pc\":{pc}"));
            }
            Event::MispredictDetected { pe, slot, pc, kind } => {
                let name = format!("mispredict {}", kind.label());
                self.instant(
                    cycle,
                    Self::pe_pid(pe),
                    &name,
                    &format!("\"pc\":{pc},\"slot\":{slot}"),
                );
            }
            Event::RecoveryStarted { pe, branch_pc, plan } => {
                let name = format!("recovery {}", plan.label());
                self.instant(cycle, Self::pe_pid(pe), &name, &format!("\"branch_pc\":{branch_pc}"));
            }
            Event::RecoveryApplied { pe, branch_pc } => {
                self.instant(
                    cycle,
                    Self::pe_pid(pe),
                    "recovery apply",
                    &format!("\"branch_pc\":{branch_pc}"),
                );
            }
            Event::RecoveryAbandoned { pe } => {
                self.instant(cycle, Self::pe_pid(pe), "recovery abandoned", "");
            }
            Event::CgciOpened { class, heuristic, branch_pc, reconv_pc } => {
                if self.cgci_open {
                    self.span_end(cycle, CGCI_PID, "");
                }
                self.cgci_open = true;
                let name = format!("cgci {}/{}", class.label(), heuristic.label());
                self.span_begin(
                    cycle,
                    CGCI_PID,
                    &name,
                    &format!("\"branch_pc\":{branch_pc},\"reconv_pc\":{reconv_pc}"),
                );
            }
            Event::CgciClosed { outcome, squashed, preserved, .. } => {
                if self.cgci_open {
                    self.cgci_open = false;
                    self.span_end(
                        cycle,
                        CGCI_PID,
                        &format!(
                            "\"outcome\":\"{}\",\"squashed\":{squashed},\
                             \"preserved\":{preserved}",
                            outcome.label()
                        ),
                    );
                }
            }
            Event::HeadStall { pe, reason } => {
                let name = format!("stall {}", reason.label());
                self.instant(cycle, Self::pe_pid(pe), &name, "");
            }
            Event::WindowSample { occupied, fetch_queue } => {
                self.counter(
                    cycle,
                    "window",
                    &format!("\"occupied\":{occupied},\"fetch_queue\":{fetch_queue}"),
                );
            }
            Event::IssueSample { issued, reissued } => {
                self.counter(
                    cycle,
                    "issue",
                    &format!("\"issued\":{issued},\"reissued\":{reissued}"),
                );
            }
            Event::BusSample { bus, waiting, granted } => {
                let name = format!("bus-{}", bus.label());
                self.counter(cycle, &name, &format!("\"waiting\":{waiting},\"granted\":{granted}"));
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FetchPath;

    #[test]
    fn spans_balance_and_document_is_wellformed() {
        let mut sink = ChromeTraceSink::new();
        sink.record(1, &Event::TraceFetched { pc: 4, len: 6, source: FetchPath::PredictedHit });
        sink.record(2, &Event::TraceDispatched { pe: 0, pc: 4, len: 6, cgci_insert: false });
        sink.record(5, &Event::TraceRetired { pe: 0, pc: 4, len: 6 });
        sink.record(6, &Event::TraceDispatched { pe: 1, pc: 10, len: 3, cgci_insert: true });
        sink.record(9, &Event::TraceSquashed { pe: 1, pc: 10, drained: false });
        sink.record(9, &Event::WindowSample { occupied: 2, fetch_queue: 1 });
        let json = sink.to_json();
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        tp_stats::json::parse(&json).expect("valid JSON");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"PE 1\""));
        assert!(json.contains("\"end\":\"retired\""));
        assert!(json.contains("\"name\":\"squash\""));
        assert!(json.contains("\"name\":\"window\""));
    }

    #[test]
    fn retire_without_open_span_is_dropped_not_unbalanced() {
        let mut sink = ChromeTraceSink::new();
        sink.record(3, &Event::TraceRetired { pe: 2, pc: 8, len: 2 });
        let json = sink.to_json();
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 0);
    }

    #[test]
    fn base_offsets_timestamps_and_interval_marks() {
        let mut sink = ChromeTraceSink::new();
        sink.mark_interval(0, 0);
        sink.record(2, &Event::TraceDispatched { pe: 0, pc: 4, len: 6, cgci_insert: false });
        sink.record(5, &Event::TraceRetired { pe: 0, pc: 4, len: 6 });
        sink.set_base(1_000);
        sink.mark_interval(1, 5_000);
        sink.record(2, &Event::TraceDispatched { pe: 0, pc: 4, len: 6, cgci_insert: false });
        let json = sink.to_json();
        // Second interval's dispatch lands at base + cycle, not back at 2.
        assert!(json.contains("\"ts\":1002"));
        assert!(json.contains("\"interval\":1,\"start_retired\":5000"));
        assert!(json.contains("\"name\":\"sampling\""));
    }
}
