//! Host-interference correction for the timed regions.
//!
//! On a shared host the same work can take 1.5× longer while a neighbour
//! loads the core, in bursts from a fraction of a second to tens of
//! seconds. Every timed stretch is therefore bracketed by a fixed probe
//! kernel; a stretch's corrected time is its measured time scaled by the
//! run's quiet probe time (the 5th percentile of all its probes) over the
//! probes around it, and never scaled up. Only the host's speed at that
//! moment is taken out: both probe times come from the same binary, so a
//! faster or slower program moves its corrected time as much as its raw
//! time. The raw times are reported on stderr.

use std::hint::black_box;
use std::time::Instant;

/// Host speed probe: a fixed kernel of ALU work, unpredictable branches
/// and L1 traffic taking about 0.2 ms.
pub struct HostProbe {
    table: Box<[u64; 1024]>,
    samples: Vec<f64>,
}

impl Default for HostProbe {
    fn default() -> Self {
        HostProbe::new()
    }
}

impl HostProbe {
    /// A probe that has not run yet.
    pub fn new() -> HostProbe {
        HostProbe { table: Box::new([0; 1024]), samples: Vec::new() }
    }

    /// Runs the kernel once and returns its seconds.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc = 0u64;
        for _ in 0..40_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x & 4 == 0 {
                acc = acc.wrapping_add(self.table[(x as usize) & 1023]);
            } else {
                acc ^= x.rotate_left(9);
            }
            self.table[(acc as usize) & 1023] = acc ^ x;
        }
        black_box(acc);
        let secs = t.elapsed().as_secs_f64();
        self.samples.push(secs);
        secs
    }

    /// The 5th percentile of the samples so far: the host at its quiet
    /// speed, robust to a single lucky sample.
    pub fn quiet(&self) -> f64 {
        let mut v = self.samples.clone();
        v.sort_by(f64::total_cmp);
        v.get(v.len() / 20).copied().unwrap_or(0.0)
    }
}

/// A timed stretch and the mean of the probes before and after it.
#[derive(Clone, Copy, Debug)]
pub struct Stretch {
    /// Measured host seconds.
    pub secs: f64,
    /// Mean probe seconds around the stretch.
    pub probe: f64,
}

/// Raw and corrected seconds of `stretches`, given the run's
/// [`HostProbe::quiet`] probe time.
pub fn total(stretches: &[Stretch], quiet: f64) -> (f64, f64) {
    stretches
        .iter()
        .fold((0.0, 0.0), |(raw, cor), s| (raw + s.secs, cor + s.secs * (quiet / s.probe).min(1.0)))
}

/// Accumulates timed calls into stretches, probing at each cut.
pub struct Stopwatch<'a> {
    probe: &'a mut HostProbe,
    before: f64,
    secs: f64,
    stretches: Vec<Stretch>,
}

impl<'a> Stopwatch<'a> {
    /// Starts with a probe.
    pub fn new(probe: &'a mut HostProbe) -> Stopwatch<'a> {
        let before = probe.sample();
        Stopwatch { probe, before, secs: 0.0, stretches: Vec::new() }
    }

    /// Runs `f`, adding its host time to the open stretch.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.secs += t.elapsed().as_secs_f64();
        r
    }

    /// Probes and closes the open stretch.
    pub fn cut(&mut self) {
        let after = self.probe.sample();
        self.stretches.push(Stretch { secs: self.secs, probe: 0.5 * (self.before + after) });
        self.before = after;
        self.secs = 0.0;
    }

    /// Closes the open stretch, if any time went into it, and returns all.
    pub fn finish(mut self) -> Vec<Stretch> {
        if self.secs > 0.0 {
            self.cut();
        }
        self.stretches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_only_removes_slowdown() {
        let s = [Stretch { secs: 2.0, probe: 2.0 }, Stretch { secs: 1.0, probe: 1.0 }];
        assert_eq!(total(&s, 1.0), (3.0, 2.0));
        // A probe faster than the quiet time never inflates a stretch.
        assert_eq!(total(&s, 4.0), (3.0, 3.0));
    }
}
