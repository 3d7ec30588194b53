//! Simulation statistics.

use tp_stats::{pct, per_kilo};

/// Counters collected by one simulation run, with derived metrics for every
/// quantity the paper's tables report.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Elapsed cycles.
    pub cycles: u64,
    /// Retired (committed) instructions.
    pub retired_instrs: u64,
    /// Retired traces.
    pub retired_traces: u64,
    /// Retired conditional branches.
    pub retired_cond_branches: u64,
    /// Retired conditional branches whose original embedded prediction was
    /// wrong (they required repair).
    pub retired_cond_mispredicts: u64,
    /// Traces dispatched (including wrong-path and re-fetched traces).
    pub dispatched_traces: u64,
    /// Retired traces that entered the window via next-trace prediction.
    pub predicted_traces: u64,
    /// Retired traces whose prediction proved wrong (they were repaired at
    /// least once, or were mispredicted successors of indirect transfers).
    pub trace_mispredictions: u64,
    /// Trace cache lookups (fetch-time probes, speculative included).
    pub tcache_lookups: u64,
    /// Trace cache misses.
    pub tcache_misses: u64,
    /// BIT miss-handler invocations (FGCI-algorithm runs).
    pub bit_miss_handlers: u64,
    /// Cycles the construction engine spent stalled in BIT miss handlers.
    pub bit_miss_cycles: u64,
    /// Fine-grain (intra-PE) recoveries applied.
    pub fgci_recoveries: u64,
    /// Coarse-grain recoveries attempted (re-convergent point located).
    pub cgci_attempts: u64,
    /// Coarse-grain recoveries that detected re-convergence and preserved
    /// control-independent traces.
    pub cgci_reconverged: u64,
    /// Full squashes (no control independence applied).
    pub full_squashes: u64,
    /// Traces squashed (all causes).
    pub squashed_traces: u64,
    /// Traces preserved across a misprediction by FGCI/CGCI.
    pub preserved_traces: u64,
    /// Traces processed by re-dispatch passes.
    pub redispatched_traces: u64,
    /// Instruction issue events (first issues plus selective reissues).
    pub issue_events: u64,
    /// Selective reissue events (issues beyond a slot's first).
    pub reissue_events: u64,
    /// Loads forced to reissue by ARB snooping (memory violations, store
    /// undo, or changed store data).
    pub load_snoop_reissues: u64,
    /// Slots marked for reissue because a producer's value changed after
    /// they consumed it (execution-driven selective recovery).
    pub value_change_marks: u64,
    /// Slots marked for reissue because a recovery rebound their source
    /// names (re-dispatch passes, head re-grounding, trace repair).
    pub rebind_marks: u64,
    /// Tail PEs reclaimed during CGCI insertion (window-full pressure).
    pub tail_reclaims: u64,
    /// Stale head live-in bindings re-grounded to retired state (recovery
    /// corner cases; should be rare).
    pub head_rebinds: u64,
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired_instrs as f64 / self.cycles as f64
        }
    }

    /// Average retired trace length (Table 4's "avg. trace length").
    pub fn avg_trace_len(&self) -> f64 {
        if self.retired_traces == 0 {
            0.0
        } else {
            self.retired_instrs as f64 / self.retired_traces as f64
        }
    }

    /// Trace mispredictions per 1000 retired instructions (Table 4).
    pub fn trace_misp_per_kilo(&self) -> f64 {
        per_kilo(self.trace_mispredictions, self.retired_instrs)
    }

    /// Trace misprediction rate in percent, per retired trace (Table 4).
    pub fn trace_misp_rate(&self) -> f64 {
        pct(self.trace_mispredictions as f64, self.retired_traces as f64)
    }

    /// Trace cache misses per 1000 retired instructions (Table 4).
    pub fn tcache_miss_per_kilo(&self) -> f64 {
        per_kilo(self.tcache_misses, self.retired_instrs)
    }

    /// Trace cache miss rate in percent (Table 4).
    pub fn tcache_miss_rate(&self) -> f64 {
        pct(self.tcache_misses as f64, self.tcache_lookups as f64)
    }

    /// Conditional branch misprediction rate in percent (Table 5 overall).
    pub fn branch_misp_rate(&self) -> f64 {
        pct(self.retired_cond_mispredicts as f64, self.retired_cond_branches as f64)
    }

    /// Conditional branch mispredictions per 1000 retired instructions.
    pub fn branch_misp_per_kilo(&self) -> f64 {
        per_kilo(self.retired_cond_mispredicts, self.retired_instrs)
    }
}

/// Deterministic counters of the simulator's own bookkeeping work
/// ([`crate::TraceProcessor::work_counters`]). Like [`SimStats`] they
/// depend only on the program and the configuration, never on the host,
/// but they measure how the simulator keeps its books rather than what the
/// simulated machine did, so they stay out of [`SimStats`] (whose whole
/// `Debug` the golden fixtures pin).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Global physical registers allocated by renames (dispatch and trace
    /// repair): one per live-out.
    pub global_regs_allocated: u64,
    /// Entries pushed onto global registers' reader lists.
    pub reader_pushes: u64,
    /// Mark-sweep passes over the global register file.
    pub sweeps: u64,
}

impl WorkCounters {
    /// Each counter with its name, in declaration order.
    pub fn named(&self) -> [(&'static str, u64); 3] {
        [
            ("global_regs_allocated", self.global_regs_allocated),
            ("reader_pushes", self.reader_pushes),
            ("sweeps", self.sweeps),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = SimStats {
            cycles: 100,
            retired_instrs: 420,
            retired_traces: 20,
            trace_mispredictions: 2,
            tcache_lookups: 50,
            tcache_misses: 5,
            retired_cond_branches: 40,
            retired_cond_mispredicts: 4,
            ..SimStats::default()
        };
        assert!((s.ipc() - 4.2).abs() < 1e-12);
        assert!((s.avg_trace_len() - 21.0).abs() < 1e-12);
        assert!((s.trace_misp_per_kilo() - 2.0 / 420.0 * 1000.0).abs() < 1e-9);
        assert!((s.trace_misp_rate() - 10.0).abs() < 1e-9);
        assert!((s.tcache_miss_rate() - 10.0).abs() < 1e-9);
        assert!((s.branch_misp_rate() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_division_is_safe() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.avg_trace_len(), 0.0);
        assert_eq!(s.trace_misp_rate(), 0.0);
        assert_eq!(s.branch_misp_per_kilo(), 0.0);
    }
}
