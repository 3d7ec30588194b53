//! Branch profiling for Table 5.
//!
//! Replays a program's dynamic instruction stream through the functional
//! simulator and a history-based (gshare) branch predictor — comparable to
//! the implicit branch prediction accuracy of the paper's trace predictor —
//! classifying every conditional branch the way the paper's Table 5 does:
//!
//! * **FGCI branches** — forward branches with an embeddable region (found
//!   by the FGCI-algorithm), split by whether the region fits a
//!   32-instruction trace;
//! * **other forward branches**;
//! * **backward branches** (loop-type).
//!
//! For FGCI branches the profile also accumulates the region metrics the
//! paper reports: dynamic region size, static region size, and the number
//! of conditional branches enclosed per region.

use std::collections::HashMap;

use tp_isa::func::Machine;
use tp_isa::{Pc, Program};
use tp_predict::Gshare;
use tp_trace::{analyze_region, RegionInfo};

/// Large cap used to classify regions bigger than a trace (Table 5's `>32`
/// row still needs the region to be *detected*).
const CLASSIFY_CAP: u32 = 1024;

/// Conditional branch classes of Table 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BranchClass {
    /// FGCI-type branch whose embeddable region fits a 32-instruction trace.
    FgciSmall,
    /// FGCI-type branch with a region larger than 32 instructions.
    FgciLarge,
    /// Other (non-embeddable) forward branch.
    OtherForward,
    /// Backward branch.
    Backward,
}

impl BranchClass {
    /// All classes in Table 5 order.
    pub const ALL: [BranchClass; 4] = [
        BranchClass::FgciSmall,
        BranchClass::FgciLarge,
        BranchClass::OtherForward,
        BranchClass::Backward,
    ];

    /// The paper's row label.
    pub fn label(self) -> &'static str {
        match self {
            BranchClass::FgciSmall => "FGCI <=32",
            BranchClass::FgciLarge => "FGCI >32",
            BranchClass::OtherForward => "other forward",
            BranchClass::Backward => "backward",
        }
    }
}

/// Per-class dynamic counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Dynamic branch executions.
    pub branches: u64,
    /// Dynamic mispredictions (gshare).
    pub mispredicts: u64,
}

impl ClassCounts {
    /// Misprediction rate in percent.
    pub fn misp_rate(&self) -> f64 {
        tp_stats::pct(self.mispredicts as f64, self.branches as f64)
    }
}

/// The result of [`profile_branches`]: everything Table 5 reports.
#[derive(Clone, Debug, Default)]
pub struct BranchProfile {
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Counts per branch class.
    pub counts: HashMap<BranchClass, ClassCounts>,
    /// Dynamic-region-size sum over FGCI-branch executions (small class).
    pub dyn_region_sum: u64,
    /// Static-region-size sum over FGCI-branch executions (small class).
    pub static_region_sum: u64,
    /// Enclosed-conditional-branch sum over FGCI-branch executions.
    pub region_branch_sum: u64,
}

impl BranchProfile {
    /// Total dynamic conditional branches.
    pub fn total_branches(&self) -> u64 {
        self.counts.values().map(|c| c.branches).sum()
    }

    /// Total dynamic mispredictions.
    pub fn total_mispredicts(&self) -> u64 {
        self.counts.values().map(|c| c.mispredicts).sum()
    }

    /// Counts for one class (zero if absent).
    pub fn class(&self, class: BranchClass) -> ClassCounts {
        self.counts.get(&class).copied().unwrap_or_default()
    }

    /// Fraction of dynamic branches in `class`, percent.
    pub fn frac_branches(&self, class: BranchClass) -> f64 {
        tp_stats::pct(self.class(class).branches as f64, self.total_branches() as f64)
    }

    /// Fraction of mispredictions in `class`, percent.
    pub fn frac_mispredicts(&self, class: BranchClass) -> f64 {
        tp_stats::pct(self.class(class).mispredicts as f64, self.total_mispredicts() as f64)
    }

    /// Overall misprediction rate, percent.
    pub fn overall_misp_rate(&self) -> f64 {
        tp_stats::pct(self.total_mispredicts() as f64, self.total_branches() as f64)
    }

    /// Mispredictions per 1000 instructions.
    pub fn misp_per_kilo(&self) -> f64 {
        tp_stats::per_kilo(self.total_mispredicts(), self.instructions)
    }

    /// Average dynamic region size over FGCI-branch executions.
    pub fn avg_dyn_region(&self) -> f64 {
        let n = self.class(BranchClass::FgciSmall).branches
            + self.class(BranchClass::FgciLarge).branches;
        if n == 0 {
            0.0
        } else {
            self.dyn_region_sum as f64 / n as f64
        }
    }

    /// Average static region size over FGCI-branch executions.
    pub fn avg_static_region(&self) -> f64 {
        let n = self.class(BranchClass::FgciSmall).branches
            + self.class(BranchClass::FgciLarge).branches;
        if n == 0 {
            0.0
        } else {
            self.static_region_sum as f64 / n as f64
        }
    }

    /// Average number of conditional branches per FGCI region.
    pub fn avg_region_branches(&self) -> f64 {
        let n = self.class(BranchClass::FgciSmall).branches
            + self.class(BranchClass::FgciLarge).branches;
        if n == 0 {
            0.0
        } else {
            self.region_branch_sum as f64 / n as f64
        }
    }
}

impl BranchProfile {
    fn bump(&mut self, class: BranchClass, mispredicted: bool) {
        let c = self.counts.entry(class).or_default();
        c.branches += 1;
        if mispredicted {
            c.mispredicts += 1;
        }
    }
}

/// Replays `program` (up to `budget` instructions) through the functional
/// simulator and a fresh gshare predictor, classifying every branch.
///
/// Static region analysis is cached per branch PC, so the cost is one
/// functional execution.
pub fn profile_branches(program: &Program, budget: u64) -> BranchProfile {
    let mut machine = Machine::new(program);
    let mut predictor = Gshare::paper();
    let mut regions: HashMap<Pc, Option<RegionInfo>> = HashMap::new();
    let mut profile = BranchProfile::default();
    while !machine.halted() && machine.retired() < budget {
        let Ok(step) = machine.step() else { break };
        let Some(taken) = step.taken else { continue };
        let pc = step.pc;
        let predicted = predictor.predict(pc);
        predictor.update(pc, taken);
        let mispredicted = predicted != taken;
        let info = *regions.entry(pc).or_insert_with(|| {
            if step.inst.is_forward_branch(pc) {
                let info = analyze_region(program, pc, CLASSIFY_CAP);
                info.embeddable.then_some(info)
            } else {
                None
            }
        });
        let class = if step.inst.is_backward_branch(pc) {
            BranchClass::Backward
        } else {
            match info {
                Some(r) if r.region_size <= 32 => BranchClass::FgciSmall,
                Some(_) => BranchClass::FgciLarge,
                None => BranchClass::OtherForward,
            }
        };
        if let Some(r) = info {
            profile.dyn_region_sum += r.region_size as u64;
            profile.static_region_sum += r.static_size as u64;
            profile.region_branch_sum += r.cond_branches as u64;
        }
        profile.bump(class, mispredicted);
    }
    profile.instructions = machine.retired();
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_workloads::{by_name, Size};

    #[test]
    fn profiles_compress_as_fgci_heavy() {
        let w = by_name("compress", Size::Small).unwrap();
        let p = profile_branches(&w.program, 10_000_000);
        assert!(p.total_branches() > 1000);
        // Most mispredictions sit in small FGCI regions.
        assert!(p.frac_mispredicts(BranchClass::FgciSmall) > 40.0, "{p:?}");
        assert!(p.overall_misp_rate() > 3.0);
    }

    #[test]
    fn profiles_li_as_backward_dominated() {
        let w = by_name("li", Size::Small).unwrap();
        let p = profile_branches(&w.program, 10_000_000);
        assert!(p.frac_mispredicts(BranchClass::Backward) > 35.0, "{p:?}");
    }

    #[test]
    fn m88ksim_is_predictable() {
        let w = by_name("m88ksim", Size::Small).unwrap();
        let p = profile_branches(&w.program, 10_000_000);
        assert!(p.overall_misp_rate() < 8.0, "{}", p.overall_misp_rate());
    }

    #[test]
    fn class_fractions_sum_to_100() {
        let w = by_name("go", Size::Tiny).unwrap();
        let p = profile_branches(&w.program, 10_000_000);
        let sum: f64 = BranchClass::ALL.iter().map(|&c| p.frac_branches(c)).sum();
        assert!((sum - 100.0).abs() < 1e-6);
    }
}
