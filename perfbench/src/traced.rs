//! The traced run: per-layer metrics.
//!
//! Every cell runs once, and the calls into each crate are wrapped in
//! spans kept in memory: `workloads.*` (program builders), `core.*`
//! (`TraceProcessor`), `ckpt.*` (`Checkpoint`/`FastForward`), `isa.*`
//! (the functional check) and the benchmark's own `bench.cell` /
//! `sampled.cell`. The stage profiler is attached to every simulator, and
//! the counting allocator (installed by the traced binary) counts each
//! span's allocations. At exit the spans are written as a Chrome
//! trace-event file that perfetto loads, with each layer's self time.
//!
//! The sampled cells run the benchmark's own copy of
//! `tp_bench::sampled::run_sampled_as`'s round loop, so every leg gets a
//! span. Its intervals are checked against the reference table, which was
//! made with `run_sampled_as` itself: the copy cannot drift unnoticed.

use std::fmt::Write as _;
use std::time::Instant;

use tp_bench::sampled::{Interval, SampleConfig, SampledRun};
use tp_ckpt::{Checkpoint, FastForward};
use tp_core::{SimStats, TraceProcessor};
use tp_isa::func::MachineState;
use tp_metrics::{Stage, StageProfiler};
use tp_predict::TracePredictorStats;
use tp_stats::RecoveryAttribution;

use crate::check::{self, DetailedOut, SampledOut};
use crate::host::{self, HostProbe, Stopwatch, Stretch};
use crate::measure::CHUNK_INSTRS;
use crate::reference::{self, intervals_digest};
use crate::workload::{Setup, Workload};
use crate::{alloc, guarded, ratio, Metric, Report, CELL_BUDGET};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.what`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index into [`Tracer::cells`] (0 = outside any cell).
    pub cell: usize,
    /// Allocator calls inside the span (counted at start, then the delta).
    pub allocs: u64,
    /// Bytes allocated inside the span.
    pub bytes: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end - self.start
    }

    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cell: usize,
    /// Cell labels; index 0 is the set-up/check context.
    pub cells: Vec<String>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            // Reserved up front so recording a span does not allocate
            // inside another span's count.
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(16),
            cell: 0,
            cells: vec!["setup".to_string()],
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Attributes the following spans to a new cell.
    pub fn enter_cell(&mut self, label: String) {
        self.cells.push(label);
        self.cell = self.cells.len() - 1;
    }

    /// Records `f` as span `name`, nested in the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let (allocs, bytes) = alloc::counts();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, cell: self.cell, allocs, bytes });
        self.open.push(id);
        let r = f(self);
        self.close();
        r
    }

    fn close(&mut self) {
        let id = self.open.pop().expect("an open span");
        let (allocs, bytes) = alloc::counts();
        let end = self.now();
        let s = &mut self.spans[id];
        s.end = end;
        s.allocs = allocs - s.allocs;
        s.bytes = bytes - s.bytes;
    }

    /// Open spans (see [`Tracer::unwind_to`]).
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes the spans a panic left open above `depth`.
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.close();
        }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total ns in spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::ns).sum()
    }

    /// Mean µs per span named `name`.
    pub fn mean_us(&self, name: &str) -> f64 {
        ratio(self.total_ns(name) as f64, self.named(name).count() as f64) / 1e3
    }

    /// `(allocator calls, bytes)` inside spans named any of `names`.
    pub fn allocs_in(&self, names: &[&str]) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .fold((0, 0), |(a, b), s| (a + s.allocs, b + s.bytes))
    }

    /// Self time per layer in ms: each span's duration minus its direct
    /// children's, summed by the name's `layer.` prefix.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let ms = s.ns().saturating_sub(*c) as f64 / 1e6;
            match out.iter_mut().find(|(l, _)| *l == s.layer()) {
                Some(e) => e.1 += ms,
                None => out.push((s.layer(), ms)),
            }
        }
        out
    }

    /// The spans as a Chrome trace-event document (complete `X` events,
    /// µs timestamps), with the per-layer self times under `otherData`.
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{}{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \
                 \"cell\": \"{}\", \"allocs\": {}, \"bytes\": {}}}}}",
                if i == 0 { "" } else { ",\n" },
                sp.name,
                sp.layer(),
                sp.start as f64 / 1e3,
                sp.ns() as f64 / 1e3,
                self.cells[sp.cell],
                sp.allocs,
                sp.bytes
            );
        }
        let selfs: Vec<String> =
            self.self_times().iter().map(|(l, ms)| format!("\"{l}\": {ms:.3}")).collect();
        let _ = write!(s, "\n], \"otherData\": {{\"self_ms\": {{{}}}}}}}\n", selfs.join(", "));
        s
    }
}

/// Exact work counts and stage time summed over the detailed-model legs.
#[derive(Debug, Default)]
struct Counts {
    stats: SimStats,
    predictions: u64,
    path_hits: u64,
    no_prediction: u64,
    stage_ns: [u64; 8],
    stage_calls: [u64; 8],
    peak_heap: u64,
    rounds: u64,
    ckpt_bytes: u64,
    skipped: u64,
    memo_hits: u64,
    memo_misses: u64,
    saturated_hits: u64,
    ipc_err_pct: Vec<f64>,
}

impl Counts {
    /// Folds in one simulator leg: its statistics since boot, the
    /// predictor counters' growth over the leg, and its stage profile.
    fn add_leg(
        &mut self,
        s: &SimStats,
        before: TracePredictorStats,
        after: TracePredictorStats,
        prof: Option<&StageProfiler>,
    ) {
        let t = &mut self.stats;
        t.retired_instrs += s.retired_instrs;
        t.retired_traces += s.retired_traces;
        t.dispatched_traces += s.dispatched_traces;
        t.squashed_traces += s.squashed_traces;
        t.preserved_traces += s.preserved_traces;
        t.issue_events += s.issue_events;
        t.reissue_events += s.reissue_events;
        t.cgci_attempts += s.cgci_attempts;
        t.cgci_reconverged += s.cgci_reconverged;
        t.tcache_lookups += s.tcache_lookups;
        t.tcache_misses += s.tcache_misses;
        self.predictions += after.predictions - before.predictions;
        self.path_hits += after.path_hits - before.path_hits;
        self.no_prediction += after.no_prediction - before.no_prediction;
        if let Some(p) = prof {
            for (i, st) in Stage::ALL.into_iter().enumerate() {
                self.stage_ns[i] += p.nanos(st);
                self.stage_calls[i] += p.calls(st);
            }
        }
        self.peak_heap = self.peak_heap.max(alloc::peak_bytes());
    }
}

/// One traced detailed cell, probed between `run_interval` chunks like
/// the untraced run.
fn detailed_cell(
    tr: &mut Tracer,
    counts: &mut Counts,
    setup: &Setup,
    i: usize,
    probe: &mut HostProbe,
) -> Result<(Vec<Stretch>, DetailedOut), String> {
    let cell = setup.cells[i];
    let program = &setup.programs[cell.prog].program;
    alloc::reset_peak();
    tr.span("bench.cell", |tr| {
        let mut sw = Stopwatch::new(probe);
        let mut sim = sw.time(|| {
            tr.span("core.boot", |_| TraceProcessor::new(program, setup.config(cell).clone()))
        });
        sim.attach_stage_profiler();
        let before = sim.predictor_stats();
        let r = loop {
            let left = CELL_BUDGET - sim.stats().retired_instrs;
            let r = sw.time(|| tr.span("core.run", |_| sim.run_interval(CHUNK_INSTRS.min(left))));
            let r = r.map_err(|e| format!("{}: {e}", setup.label(cell)))?;
            sw.cut();
            if r.halted || r.stats.retired_instrs >= CELL_BUDGET {
                break r;
            }
        };
        let prof = sim.take_stage_profiler();
        counts.add_leg(&r.stats, before, sim.predictor_stats(), prof.as_deref());
        let out = DetailedOut { halted: r.halted, stats: r.stats, state: sim.arch_state() };
        sw.time(|| tr.span("core.drop", |_| drop(sim)));
        Ok((sw.finish(), out))
    })
}

/// One traced sampled cell: `run_sampled_as`'s round loop, leg by leg.
fn sampled_cell(
    tr: &mut Tracer,
    counts: &mut Counts,
    setup: &Setup,
    i: usize,
    probe: &mut HostProbe,
) -> Result<(Vec<Stretch>, SampledOut), String> {
    let cell = setup.cells[i];
    let b = &setup.programs[cell.prog];
    let (program, cfg, sample) = (&b.program, setup.config(cell), SampleConfig::sparse());
    let name = b.name;
    alloc::reset_peak();
    let mut sw = Stopwatch::new(probe);
    let out = sw.time(|| {
        tr.span("sampled.cell", |tr| {
            let mut ff = tr.span("ckpt.init", |_| {
                let mut ff = FastForward::new(program, cfg);
                ff.set_frontend(b.frontend);
                ff
            });
            let mut intervals = Vec::new();
            let mut attribution = RecoveryAttribution::new();
            let (mut warmup_instrs, mut detailed_instrs) = (0, 0);
            let mut halted = false;
            let mut round = 0u64;
            while !halted && !ff.halted() {
                counts.rounds += 1;
                let bytes = tr.span("ckpt.encode", |_| ff.checkpoint().encode());
                counts.ckpt_bytes += bytes.len() as u64;
                let ckpt = tr
                    .span("ckpt.decode", |_| Checkpoint::decode(&bytes))
                    .map_err(|e| format!("{name}: checkpoint round-trip failed: {e}"))?;
                let mut sim = tr.span("core.boot", |_| {
                    let boot = ckpt
                        .boot_image(program, cfg)
                        .map_err(|e| format!("{name}: checkpoint boot failed: {e}"))?;
                    TraceProcessor::from_checkpoint(program, cfg.clone(), boot)
                        .map_err(|e| format!("{name}: boot rejected: {e}"))
                })?;
                sim.attach_stage_profiler();
                let before = sim.predictor_stats();
                let this_warmup = if round == 0 { 0 } else { sample.warmup };
                round += 1;
                tr.span("core.run", |_| sim.run_interval(this_warmup))
                    .map_err(|e| format!("{name} warmup: {e}"))?;
                let (w_instrs, w_cycles) = (sim.stats().retired_instrs, sim.stats().cycles);
                let w_attr = sim.attribution().clone();
                warmup_instrs += w_instrs;
                let r = tr
                    .span("core.run", |_| sim.run_interval(sample.interval))
                    .map_err(|e| format!("{name}: {e}"))?;
                let instrs = r.stats.retired_instrs - w_instrs;
                let cycles = r.stats.cycles - w_cycles;
                if instrs > 0 {
                    intervals.push(Interval {
                        start_retired: ckpt.retired + w_instrs,
                        instrs,
                        cycles,
                    });
                    attribution.merge(&r.attribution.since(&w_attr));
                    detailed_instrs += instrs;
                }
                halted = r.halted;
                let prof = sim.take_stage_profiler();
                counts.add_leg(&r.stats, before, sim.predictor_stats(), prof.as_deref());
                tr.span("ckpt.handback", |_| {
                    let (pc, retired_delta) = sim.retired_frontier();
                    let regs = sim.arch_state().regs;
                    let state = MachineState {
                        regs,
                        mem: sim.committed_mem_words().into_iter().collect(),
                        pc,
                        halted,
                        retired: ckpt.retired + retired_delta,
                    };
                    let warm = sim.into_warm();
                    ff.adopt(state, warm);
                });
                if halted {
                    break;
                }
                // `run_sampled_as`'s deterministic skip jitter, verbatim.
                let jittered = if sample.skip == 0 {
                    0
                } else {
                    let h = round.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33;
                    sample.skip / 2 + h % sample.skip
                };
                let s = tr
                    .span("ckpt.skip", |_| ff.skip(jittered))
                    .map_err(|e| format!("{name}: fast-forward left the program: {e}"))?;
                counts.skipped += s.retired;
                halted = s.halted;
            }
            if let Some(e) = ff.engine_stats() {
                counts.memo_hits += e.memo_hits;
                counts.memo_misses += e.memo_misses;
                counts.saturated_hits += e.saturated_hits;
            }
            let run = SampledRun {
                intervals,
                total_instrs: ff.retired(),
                detailed_instrs,
                warmup_instrs,
                ffwd_instrs: ff.retired() - detailed_instrs - warmup_instrs,
                halted: true,
                wall_seconds: 0.0,
                ffwd_wall_seconds: 0.0,
                attribution,
            };
            Ok::<_, String>(SampledOut {
                halted: run.halted,
                total_instrs: run.total_instrs,
                digest: intervals_digest(&run.intervals, run.total_instrs),
                ipc_estimate: run.ipc_estimate(),
            })
        })
    })?;
    Ok((sw.finish(), out))
}

/// Runs `f` under [`guarded`], closing whatever spans a panic left open.
fn guarded_cell<T>(
    tr: &mut Tracer,
    f: impl FnOnce(&mut Tracer) -> Result<T, String>,
) -> Result<T, String> {
    let depth = tr.depth();
    let r = guarded(|| f(tr));
    tr.unwind_to(depth);
    r
}

/// The traced run: every cell of `setup` once. Returns the report and the
/// tracer holding the spans.
pub fn run(workload: Workload, seed: u64) -> (Report, Tracer) {
    let mut tr = Tracer::new();
    let mut probe = HostProbe::new();
    let setup = tr.span("workloads.setup", |_| Setup::build(workload, seed, &mut probe));
    let mut counts = Counts::default();
    let mut report = Report::default();
    // (instructions, stretches) of every cell that passed.
    let mut passed: Vec<(u64, Vec<Stretch>)> = Vec::new();
    let mut fail = |e: String| {
        eprintln!("perfbench-traced: FAILED {e}");
        report.failed += 1;
    };
    if workload.is_sampled() {
        let table = reference::embedded();
        for i in 0..setup.cells.len() {
            let cell = setup.cells[i];
            tr.enter_cell(setup.label(cell));
            let r =
                guarded_cell(&mut tr, |tr| sampled_cell(tr, &mut counts, &setup, i, &mut probe));
            let checked = r.and_then(|(st, out)| {
                check::sampled(&setup, cell, &out, &table).map(|entry| (st, out, entry))
            });
            match checked {
                Ok((st, out, entry)) => {
                    let full = entry.full_ipc();
                    counts.ipc_err_pct.push(100.0 * (out.ipc_estimate - full).abs() / full);
                    passed.push((out.total_instrs, st));
                }
                Err(e) => fail(e),
            }
        }
    } else {
        let mut outs = Vec::new();
        for i in 0..setup.cells.len() {
            tr.enter_cell(setup.label(setup.cells[i]));
            let r =
                guarded_cell(&mut tr, |tr| detailed_cell(tr, &mut counts, &setup, i, &mut probe));
            outs.push(r);
        }
        tr.cell = 0;
        let oracles = tr.span("isa.check", |_| check::oracles(&setup));
        match check::anchors() {
            Ok(anchors) => {
                for (i, out) in outs.into_iter().enumerate() {
                    let cell = setup.cells[i];
                    let checked = out.and_then(|(st, o)| {
                        check::detailed(&setup, cell, &o, &oracles[cell.prog], &anchors, seed)
                            .map(|()| (o.stats.retired_instrs, st))
                    });
                    match checked {
                        Ok(p) => passed.push(p),
                        Err(e) => fail(e),
                    }
                }
            }
            Err(e) => (0..outs.len()).for_each(|_| fail(e.clone())),
        }
    }
    report.attempted = setup.cells.len() as u64;
    let quiet = probe.quiet();
    let (instrs, secs) =
        passed.iter().fold((0u64, 0.0), |(n, t), (i, st)| (n + i, t + host::total(st, quiet).1));
    let mut m = vec![
        Metric::new("workloads.build_ms", 1e3 * setup.setup_secs(quiet), "ms"),
        Metric::new("trace.host_mips", ratio(instrs as f64, secs) / 1e6, "Minstr/s"),
    ];
    m.extend(metrics(&tr, &counts));
    report.metrics = m;
    (report, tr)
}

/// The per-layer metrics, every one on every workload (0 where a layer
/// does no work, e.g. `ckpt.*` on the detailed workloads).
fn metrics(tr: &Tracer, c: &Counts) -> Vec<Metric> {
    let s = &c.stats;
    let retired = s.retired_instrs as f64;
    let per_k = |n: u64| 1e3 * ratio(n as f64, retired);
    let (core_allocs, core_bytes) = tr.allocs_in(&["core.boot", "core.run", "core.drop"]);
    let (ckpt_allocs, _) =
        tr.allocs_in(&["ckpt.encode", "ckpt.decode", "ckpt.handback", "ckpt.skip"]);
    let stage_total: u64 = c.stage_ns.iter().sum();
    let mut m = vec![
        Metric::new(
            "core.run_ns_per_instr",
            ratio(tr.total_ns("core.run") as f64, retired),
            "ns/instr",
        ),
        Metric::new("core.boot_us", tr.mean_us("core.boot"), "us"),
    ];
    for (i, st) in Stage::ALL.into_iter().enumerate() {
        let share = 100.0 * ratio(c.stage_ns[i] as f64, stage_total as f64);
        let per_call = ratio(c.stage_ns[i] as f64, c.stage_calls[i] as f64);
        m.push(Metric::new(format!("core.stage.{}.share_pct", st.label()), share, "%"));
        m.push(Metric::new(format!("core.stage.{}.ns_per_call", st.label()), per_call, "ns"));
    }
    m.extend([
        Metric::new("core.allocs_per_kinstr", per_k(core_allocs), "1/kinstr"),
        Metric::new("core.alloc_bytes_per_instr", ratio(core_bytes as f64, retired), "B/instr"),
        Metric::new("core.peak_heap_mb", c.peak_heap as f64 / (1 << 20) as f64, "MiB"),
        Metric::new("core.dispatched_per_kinstr", per_k(s.dispatched_traces), "1/kinstr"),
        Metric::new(
            "core.useful_dispatch_ratio",
            ratio(s.retired_traces as f64, s.dispatched_traces as f64),
            "ratio",
        ),
        Metric::new("core.squashed_per_kinstr", per_k(s.squashed_traces), "1/kinstr"),
        Metric::new("core.issue_per_instr", ratio(s.issue_events as f64, retired), "1/instr"),
        Metric::new("core.reissue_per_kinstr", per_k(s.reissue_events), "1/kinstr"),
        Metric::new("core.preserved_per_kinstr", per_k(s.preserved_traces), "1/kinstr"),
        Metric::new(
            "core.cgci_reconverge_ratio",
            ratio(s.cgci_reconverged as f64, s.cgci_attempts as f64),
            "ratio",
        ),
        Metric::new(
            "cache.tcache_miss_ratio",
            ratio(s.tcache_misses as f64, s.tcache_lookups as f64),
            "ratio",
        ),
        Metric::new(
            "predict.path_hit_ratio",
            ratio(c.path_hits as f64, c.predictions as f64),
            "ratio",
        ),
        Metric::new(
            "predict.no_prediction_ratio",
            ratio(c.no_prediction as f64, c.predictions as f64),
            "ratio",
        ),
        Metric::new(
            "ckpt.skip_ns_per_instr",
            ratio(tr.total_ns("ckpt.skip") as f64, c.skipped as f64),
            "ns/instr",
        ),
        Metric::new(
            "ckpt.ffwd_mips",
            1e3 * ratio(c.skipped as f64, tr.total_ns("ckpt.skip") as f64),
            "Minstr/s",
        ),
        Metric::new(
            "ckpt.memo_hit_ratio",
            ratio(c.memo_hits as f64, (c.memo_hits + c.memo_misses) as f64),
            "ratio",
        ),
        Metric::new(
            "ckpt.saturated_hit_ratio",
            ratio(c.saturated_hits as f64, c.memo_hits as f64),
            "ratio",
        ),
        Metric::new("ckpt.encode_us", tr.mean_us("ckpt.encode"), "us"),
        Metric::new("ckpt.decode_us", tr.mean_us("ckpt.decode"), "us"),
        Metric::new("ckpt.bytes_per_ckpt", ratio(c.ckpt_bytes as f64, c.rounds as f64), "B"),
        Metric::new("ckpt.handback_us", tr.mean_us("ckpt.handback"), "us"),
        Metric::new("ckpt.allocs_per_round", ratio(ckpt_allocs as f64, c.rounds as f64), "count"),
        Metric::new(
            "sampled.detailed_wall_share",
            ratio(
                (tr.total_ns("core.boot") + tr.total_ns("core.run")) as f64,
                tr.total_ns("sampled.cell") as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "sampled.ipc_err_pct",
            ratio(c.ipc_err_pct.iter().sum(), c.ipc_err_pct.len() as f64),
            "%",
        ),
    ]);
    m
}
