//! The repository benchmark.
//!
//! Three workloads ([`workload::Workload`]) run on one thread, cell after
//! cell. The untraced run ([`measure`]) times the calls users make and
//! prints the end-to-end metrics; the traced run ([`traced`]) wraps the
//! same calls in spans, counts allocations and stage time, and prints the
//! per-layer metrics. Both check every cell's output ([`check`]) outside
//! the timed region; a cell that panics, errors or fails a check counts as
//! failed and adds nothing to throughput. `perfbench/README.md` lists the
//! metrics and what each should move.

pub mod alloc;
pub mod check;
pub mod host;
pub mod measure;
pub mod reference;
pub mod traced;
pub mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Instruction budget of one detailed cell (far above every program).
pub const CELL_BUDGET: u64 = 100_000_000;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Registered name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// A run's result: the last line the benchmark prints.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Cell executions attempted.
    pub attempted: u64,
    /// Cell executions that panicked, errored or failed a check.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// Non-finite values print as 0 so the line stays valid JSON.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median (mean of the middle two for an even count; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Geometric mean (0 when empty).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs `f`, turning a panic into an error message so one bad cell cannot
/// abort the run.
///
/// # Errors
///
/// `f`'s own error, or the panic message.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .map_or_else(|| "panicked".to_string(), |m| format!("panicked: {m}"))),
    }
}

/// Command-line options shared by both binaries.
#[derive(Clone, Debug)]
pub struct Args {
    /// `--workload`.
    pub workload: workload::Workload,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: length of the timed region.
    pub seconds: f64,
}

impl Args {
    /// Parses `--workload W --seed N [--seconds S]`.
    ///
    /// # Errors
    ///
    /// A usage message.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = workload::CANONICAL_SEED;
        let mut seconds = 10.0;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{val}` for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(workload::Workload::parse(val).ok_or_else(bad)?);
                }
                "--seed" => seed = val.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = val.parse().map_err(|_| bad())?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err(bad());
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let names: Vec<&str> = workload::Workload::ALL.iter().map(|w| w.name()).collect();
        let workload =
            workload.ok_or_else(|| format!("--workload is required ({})", names.join(", ")))?;
        Ok(Args { workload, seed, seconds })
    }
}
