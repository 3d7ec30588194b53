//! Per-interval time-series recorder: a metric observed over fixed-width
//! cycle windows, for trend plots and phase comparison (cold vs steady vs
//! fast-forward legs of a sampled run).

use tp_stats::json::Json;

/// One window of a [`SeriesRecorder`]: the mean of the samples that fell
/// inside it, plus the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesPoint {
    /// Window index (`cycle / window_cycles`).
    pub index: u64,
    /// Arithmetic mean of the samples in the window.
    pub mean: f64,
    /// Number of samples in the window.
    pub count: u64,
}

/// Accumulates `(cycle, value)` observations into fixed-width windows.
///
/// Windows with no samples are skipped in the output (sampled runs leave
/// holes where fast-forward legs ran), so each point carries its index.
#[derive(Clone, Debug)]
pub struct SeriesRecorder {
    window_cycles: u64,
    // (window index, sum, count) for the window currently filling.
    open: Option<(u64, u128, u64)>,
    points: Vec<SeriesPoint>,
}

impl SeriesRecorder {
    /// A recorder with the given window width in cycles (minimum 1).
    pub fn new(window_cycles: u64) -> SeriesRecorder {
        SeriesRecorder { window_cycles: window_cycles.max(1), open: None, points: Vec::new() }
    }

    /// Records one observation. Cycles must be non-decreasing; an
    /// observation for an already-flushed window is folded into the
    /// current one rather than lost.
    pub fn record(&mut self, cycle: u64, value: u64) {
        let idx = cycle / self.window_cycles;
        match &mut self.open {
            Some((open_idx, sum, count)) if *open_idx >= idx => {
                *sum += value as u128;
                *count += 1;
            }
            Some(_) => {
                self.flush();
                self.open = Some((idx, value as u128, 1));
            }
            None => self.open = Some((idx, value as u128, 1)),
        }
    }

    fn flush(&mut self) {
        if let Some((index, sum, count)) = self.open.take() {
            self.points.push(SeriesPoint { index, mean: sum as f64 / count as f64, count });
        }
    }

    /// All completed windows plus the one still filling, in order.
    pub fn points(&self) -> Vec<SeriesPoint> {
        let mut out = self.points.clone();
        if let Some((index, sum, count)) = self.open {
            out.push(SeriesPoint { index, mean: sum as f64 / count as f64, count });
        }
        out
    }

    /// Window width in cycles.
    pub fn window_cycles(&self) -> u64 {
        self.window_cycles
    }

    /// The series as a JSON array of `{index, mean, count}` objects.
    pub fn to_json(&self) -> Json {
        let point = |p: SeriesPoint| {
            Json::obj([
                ("index", p.index.into()),
                ("mean", p.mean.into()),
                ("count", p.count.into()),
            ])
        };
        Json::Arr(self.points().into_iter().map(point).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_partition_samples() {
        let mut s = SeriesRecorder::new(10);
        s.record(0, 4);
        s.record(9, 6);
        s.record(10, 8);
        let p = s.points();
        assert_eq!(p.len(), 2);
        assert_eq!(p[0], SeriesPoint { index: 0, mean: 5.0, count: 2 });
        assert_eq!(p[1], SeriesPoint { index: 1, mean: 8.0, count: 1 });
    }

    #[test]
    fn empty_windows_are_skipped() {
        let mut s = SeriesRecorder::new(10);
        s.record(5, 1);
        s.record(95, 3);
        let p = s.points();
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].index, 0);
        assert_eq!(p[1].index, 9);
    }

    #[test]
    fn zero_width_window_is_clamped() {
        let s = SeriesRecorder::new(0);
        assert_eq!(s.window_cycles(), 1);
    }
}
