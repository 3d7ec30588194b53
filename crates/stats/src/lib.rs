//! Statistics utilities shared by the simulator and the experiment
//! harnesses: rate helpers, means, a fixed-width table printer that the
//! benches use to reproduce the paper's tables, and the misprediction
//! outcome-attribution ledger ([`attr`]), and the one JSON layer every
//! harness document is built and read through ([`json`]).

pub mod attr;
pub mod json;
pub mod table;

pub use attr::{AttrCell, AttrKey, BranchClass, Heuristic, RecoveryAttribution, RecoveryOutcome};
pub use table::Table;

/// Harmonic mean of a sequence of values (the paper summarizes IPC across
/// benchmarks with a harmonic mean).
///
/// Returns 0.0 for an empty input.
///
/// # Panics
///
/// Panics if any value is not strictly positive.
///
/// # Example
///
/// ```
/// use tp_stats::harmonic_mean;
/// let hm = harmonic_mean([2.0, 6.0]);
/// assert!((hm - 3.0).abs() < 1e-12);
/// ```
pub fn harmonic_mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut n = 0usize;
    let mut sum_inv = 0.0;
    for v in values {
        assert!(v > 0.0, "harmonic mean requires positive values, got {v}");
        n += 1;
        sum_inv += 1.0 / v;
    }
    if n == 0 {
        0.0
    } else {
        n as f64 / sum_inv
    }
}

/// Arithmetic mean; 0.0 for an empty input.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut n = 0usize;
    let mut sum = 0.0;
    for v in values {
        n += 1;
        sum += v;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// `part / whole` as a percentage; 0.0 when `whole` is zero.
///
/// # Example
///
/// ```
/// assert_eq!(tp_stats::pct(1.0, 4.0), 25.0);
/// assert_eq!(tp_stats::pct(1.0, 0.0), 0.0);
/// ```
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// Events per 1000 instructions; 0.0 when `instructions` is zero.
///
/// The paper reports trace mispredictions, trace cache misses and branch
/// mispredictions in this unit.
pub fn per_kilo(events: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        1000.0 * events as f64 / instructions as f64
    }
}

/// Relative improvement of `new` over `base`, in percent (positive means
/// `new` is better), as plotted in the paper's Figures 9 and 10.
pub fn improvement_pct(new: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        100.0 * (new - base) / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_mean_basics() {
        assert_eq!(harmonic_mean([]), 0.0);
        assert!((harmonic_mean([4.0]) - 4.0).abs() < 1e-12);
        // HM of 1 and 3 is 1.5.
        assert!((harmonic_mean([1.0, 3.0]) - 1.5).abs() < 1e-12);
        // HM is dominated by small values.
        assert!(harmonic_mean([1.0, 100.0]) < 2.1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn harmonic_mean_rejects_zero() {
        let _ = harmonic_mean([0.0]);
    }

    #[test]
    fn mean_basics() {
        assert_eq!(mean([]), 0.0);
        assert!((mean([1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pct_and_per_kilo() {
        assert_eq!(pct(3.0, 12.0), 25.0);
        assert_eq!(per_kilo(5, 1000), 5.0);
        assert_eq!(per_kilo(5, 0), 0.0);
    }

    #[test]
    fn improvement_sign_convention() {
        assert!((improvement_pct(1.1, 1.0) - 10.0).abs() < 1e-9);
        assert!(improvement_pct(0.9, 1.0) < 0.0);
        assert_eq!(improvement_pct(1.0, 0.0), 0.0);
    }
}
