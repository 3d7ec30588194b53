//! The event vocabulary: everything the detailed model reports, as plain
//! `Copy` data, grouped into coarse categories that gate emission.

use std::fmt;

use tp_stats::{BranchClass, Heuristic, RecoveryOutcome};

/// Coarse event category, the unit of emission gating: a sink subscribes
/// to categories, and the bus caches the union so each emission site is a
/// single mask test when nothing is listening.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Category {
    /// Trace lifecycle: fetched, dispatched, retired, squashed, repaired,
    /// preserved, redispatched.
    Trace,
    /// CGCI attempt lifecycle: detection/insertion open, reconverged or
    /// failed close — correlated with the attribution ledger.
    Cgci,
    /// Misprediction detection and selective-recovery progress.
    Recovery,
    /// Per-cycle window pressure: occupancy samples, head stalls, issue
    /// activity.
    Occupancy,
    /// Operand/cache bus arbitration contention samples.
    Bus,
}

impl Category {
    /// All categories, in declaration order.
    pub const ALL: [Category; 5] =
        [Category::Trace, Category::Cgci, Category::Recovery, Category::Occupancy, Category::Bus];

    /// The category's bit in a [`CategoryMask`].
    #[inline]
    pub fn bit(self) -> u32 {
        1 << (self as u32)
    }

    /// A short stable label (used in JSON output).
    pub fn label(self) -> &'static str {
        match self {
            Category::Trace => "trace",
            Category::Cgci => "cgci",
            Category::Recovery => "recovery",
            Category::Occupancy => "occupancy",
            Category::Bus => "bus",
        }
    }
}

/// A set of [`Category`] bits; the bus caches the union of all attached
/// sinks' masks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CategoryMask(u32);

impl CategoryMask {
    /// The empty mask (subscribes to nothing).
    pub const NONE: CategoryMask = CategoryMask(0);

    /// Every category.
    pub const ALL: CategoryMask = CategoryMask(0b1_1111);

    /// A mask of exactly the given categories.
    pub fn of(cats: &[Category]) -> CategoryMask {
        CategoryMask(cats.iter().fold(0, |m, c| m | c.bit()))
    }

    /// Whether `cat`'s bit is set.
    #[inline]
    pub fn contains(self, cat: Category) -> bool {
        self.0 & cat.bit() != 0
    }

    /// Whether no bit is set.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The union of two masks.
    #[inline]
    pub fn union(self, other: CategoryMask) -> CategoryMask {
        CategoryMask(self.0 | other.0)
    }
}

/// How the fetch stage obtained a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchPath {
    /// Predicted trace id hit in the trace cache.
    PredictedHit,
    /// Predicted trace id missed and was constructed.
    PredictedMiss,
    /// No usable prediction; fell back to sequential construction.
    Fallback,
}

impl FetchPath {
    /// A short stable label.
    pub fn label(self) -> &'static str {
        match self {
            FetchPath::PredictedHit => "hit",
            FetchPath::PredictedMiss => "miss",
            FetchPath::Fallback => "fallback",
        }
    }
}

/// What kind of misprediction the execution stage detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MispredictKind {
    /// A conditional branch resolved against its embedded outcome.
    CondBranch,
    /// An indirect jump/call/return resolved to an unexpected target.
    Indirect,
}

impl MispredictKind {
    /// A short stable label.
    pub fn label(self) -> &'static str {
        match self {
            MispredictKind::CondBranch => "cond",
            MispredictKind::Indirect => "indirect",
        }
    }
}

/// Which recovery plan the recovery stage chose for a misprediction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryPlan {
    /// Squash everything younger than the branch.
    FullSquash,
    /// Fine-grain repair inside the faulting trace.
    Fgci,
    /// Coarse-grain insertion before a detected re-convergent trace.
    Cgci,
}

impl RecoveryPlan {
    /// A short stable label.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryPlan::FullSquash => "full-squash",
            RecoveryPlan::Fgci => "fgci",
            RecoveryPlan::Cgci => "cgci",
        }
    }
}

/// Why the window head could not retire this cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallReason {
    /// Head slots are not all complete.
    Incomplete,
    /// A recovery is pending against the head.
    Recovery,
    /// A re-dispatch pass owns the rename table.
    Redispatch,
    /// A CGCI insertion is pending immediately before the head.
    CgciInsert,
}

impl StallReason {
    /// A short stable label.
    pub fn label(self) -> &'static str {
        match self {
            StallReason::Incomplete => "incomplete",
            StallReason::Recovery => "recovery",
            StallReason::Redispatch => "redispatch",
            StallReason::CgciInsert => "cgci-insert",
        }
    }
}

/// Which arbitrated bus a contention sample describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BusChannel {
    /// Data-cache / ARB access buses.
    Cache,
    /// Result-distribution buses.
    Result,
}

impl BusChannel {
    /// A short stable label.
    pub fn label(self) -> &'static str {
        match self {
            BusChannel::Cache => "cache",
            BusChannel::Result => "result",
        }
    }
}

/// One structured event from the detailed model. All payloads are plain
/// `Copy` data; the emitting cycle is passed alongside the event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// Fetch obtained a trace (cache hit, constructed miss, or fallback).
    TraceFetched {
        /// Start PC of the trace.
        pc: u32,
        /// Physical instruction count.
        len: u8,
        /// How fetch obtained it.
        source: FetchPath,
    },
    /// A trace entered a processing element. Opens the PE's residency
    /// span; exactly one `TraceRetired` or `TraceSquashed` closes it.
    TraceDispatched {
        /// Processing element index.
        pe: u8,
        /// Start PC of the trace.
        pc: u32,
        /// Physical instruction count.
        len: u8,
        /// Whether this was a CGCI mid-window insertion.
        cgci_insert: bool,
    },
    /// The window head committed and freed its PE.
    TraceRetired {
        /// Processing element index.
        pe: u8,
        /// Start PC of the retired trace.
        pc: u32,
        /// Physical instruction count.
        len: u8,
    },
    /// A resident trace was discarded and its PE freed. `drained` marks
    /// synthetic closes emitted when the bus is released with traces
    /// still resident (end of run), so residency spans always balance.
    TraceSquashed {
        /// Processing element index.
        pe: u8,
        /// Start PC of the squashed trace.
        pc: u32,
        /// True for the run-end synthetic close, false for real squashes.
        drained: bool,
    },
    /// FGCI repaired a mispredicted trace in place (PE kept, control-flow
    /// suffix rebuilt, control-independent work preserved).
    TraceRepaired {
        /// Processing element index.
        pe: u8,
        /// PC of the mispredicted branch that triggered the repair.
        branch_pc: u32,
    },
    /// A control-independent trace survived a recovery (FGCI suffix or a
    /// CGCI-preserved post-re-convergence trace).
    TracePreserved {
        /// Processing element index.
        pe: u8,
        /// Start PC of the preserved trace.
        pc: u32,
    },
    /// A preserved trace was re-renamed against corrected live-ins.
    TraceRedispatched {
        /// Processing element index.
        pe: u8,
        /// Start PC of the re-dispatched trace.
        pc: u32,
    },
    /// Execution detected a misprediction (fault registered; recovery is
    /// scheduled by the recovery stage).
    MispredictDetected {
        /// Processing element index.
        pe: u8,
        /// Slot index inside the PE.
        slot: u8,
        /// PC of the faulting instruction.
        pc: u32,
        /// What kind of misprediction.
        kind: MispredictKind,
    },
    /// The recovery stage committed to a plan for the oldest fault.
    RecoveryStarted {
        /// Processing element holding the fault.
        pe: u8,
        /// PC of the mispredicted branch.
        branch_pc: u32,
        /// The chosen plan.
        plan: RecoveryPlan,
    },
    /// A scheduled selective recovery reached its apply point: the
    /// branch's embedded prediction really was wrong (one confirmed
    /// conditional-branch misprediction), with the provenance of that
    /// wrong prediction.
    RecoveryApplied {
        /// Processing element holding the fault.
        pe: u8,
        /// PC of the mispredicted branch.
        branch_pc: u32,
        /// Index of the branch among its trace's conditional branches.
        branch_idx: u8,
        /// Number of branches the trace's id embeds: a `branch_idx` at or
        /// beyond this depth was predicted by the construction fallback,
        /// not by the next-trace prediction.
        id_branches: u8,
        /// How fetch obtained the trace.
        source: FetchPath,
    },
    /// A scheduled recovery was abandoned (its target went stale).
    RecoveryAbandoned {
        /// Processing element that held the fault.
        pe: u8,
    },
    /// A CGCI attempt opened: a re-convergent trace was detected
    /// downstream and an insertion is pending. Exactly one `CgciClosed`
    /// with the same (class, heuristic) resolves it — unless the run ends
    /// first, in which case the attempt stays open (and unattributed in
    /// the ledger too).
    CgciOpened {
        /// Branch class of the mispredicted branch.
        class: BranchClass,
        /// The heuristic that detected re-convergence.
        heuristic: Heuristic,
        /// PC of the mispredicted branch.
        branch_pc: u32,
        /// Start PC of the detected re-convergent trace.
        reconv_pc: u32,
    },
    /// A CGCI attempt closed. Mirrors exactly one `events` increment of
    /// the attribution-ledger cell `(class, heuristic, outcome)`.
    CgciClosed {
        /// Branch class of the mispredicted branch.
        class: BranchClass,
        /// The heuristic that detected re-convergence.
        heuristic: Heuristic,
        /// `CgciReconverged` or `CgciFailed`.
        outcome: RecoveryOutcome,
        /// Traces squashed while the attempt was pending.
        squashed: u32,
        /// Control-independent traces preserved at re-convergence.
        preserved: u32,
        /// PC of the mispredicted branch (matches the opening
        /// `CgciOpened`), for joining closes against static CFG facts.
        branch_pc: u32,
        /// Start PC of the re-convergent trace the attempt targeted.
        reconv_pc: u32,
    },
    /// The window head exists but cannot retire this cycle.
    HeadStall {
        /// Processing element at the window head.
        pe: u8,
        /// Why it is stalled.
        reason: StallReason,
    },
    /// Per-cycle window pressure sample.
    WindowSample {
        /// Occupied processing elements.
        occupied: u8,
        /// Traces waiting in the fetch queue.
        fetch_queue: u8,
    },
    /// Per-cycle issue activity (emitted only on active cycles).
    IssueSample {
        /// Instructions issued this cycle.
        issued: u8,
        /// Of which were re-issues.
        reissued: u8,
    },
    /// Bus arbitration sample for a cycle with waiters.
    BusSample {
        /// Which bus group.
        bus: BusChannel,
        /// Requests waiting at the start of the grant pass.
        waiting: u8,
        /// Grants actually issued this cycle.
        granted: u8,
    },
}

impl Event {
    /// The category that gates this event's emission.
    pub fn category(&self) -> Category {
        match self {
            Event::TraceFetched { .. }
            | Event::TraceDispatched { .. }
            | Event::TraceRetired { .. }
            | Event::TraceSquashed { .. }
            | Event::TraceRepaired { .. }
            | Event::TracePreserved { .. }
            | Event::TraceRedispatched { .. } => Category::Trace,
            Event::CgciOpened { .. } | Event::CgciClosed { .. } => Category::Cgci,
            Event::MispredictDetected { .. }
            | Event::RecoveryStarted { .. }
            | Event::RecoveryApplied { .. }
            | Event::RecoveryAbandoned { .. } => Category::Recovery,
            Event::HeadStall { .. } | Event::WindowSample { .. } | Event::IssueSample { .. } => {
                Category::Occupancy
            }
            Event::BusSample { .. } => Category::Bus,
        }
    }

    /// A short stable name for the event kind (used by sinks).
    pub fn name(&self) -> &'static str {
        match self {
            Event::TraceFetched { .. } => "trace-fetched",
            Event::TraceDispatched { .. } => "trace-dispatched",
            Event::TraceRetired { .. } => "trace-retired",
            Event::TraceSquashed { .. } => "trace-squashed",
            Event::TraceRepaired { .. } => "trace-repaired",
            Event::TracePreserved { .. } => "trace-preserved",
            Event::TraceRedispatched { .. } => "trace-redispatched",
            Event::MispredictDetected { .. } => "mispredict",
            Event::RecoveryStarted { .. } => "recovery-started",
            Event::RecoveryApplied { .. } => "recovery-applied",
            Event::RecoveryAbandoned { .. } => "recovery-abandoned",
            Event::CgciOpened { .. } => "cgci-opened",
            Event::CgciClosed { .. } => "cgci-closed",
            Event::HeadStall { .. } => "head-stall",
            Event::WindowSample { .. } => "window-sample",
            Event::IssueSample { .. } => "issue-sample",
            Event::BusSample { .. } => "bus-sample",
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_algebra() {
        assert!(CategoryMask::NONE.is_empty());
        assert!(!CategoryMask::ALL.is_empty());
        for c in Category::ALL {
            assert!(CategoryMask::ALL.contains(c));
            assert!(!CategoryMask::NONE.contains(c));
            assert!(CategoryMask::of(&[c]).contains(c));
        }
        let m = CategoryMask::of(&[Category::Trace, Category::Bus]);
        assert!(m.contains(Category::Trace) && m.contains(Category::Bus));
        assert!(!m.contains(Category::Cgci));
        assert!(m.union(CategoryMask::of(&[Category::Cgci])).contains(Category::Cgci));
    }

    #[test]
    fn every_event_has_a_category_and_name() {
        let events = [
            Event::TraceFetched { pc: 0, len: 1, source: FetchPath::Fallback },
            Event::TraceDispatched { pe: 0, pc: 0, len: 1, cgci_insert: false },
            Event::TraceRetired { pe: 0, pc: 0, len: 1 },
            Event::TraceSquashed { pe: 0, pc: 0, drained: false },
            Event::TraceRepaired { pe: 0, branch_pc: 0 },
            Event::TracePreserved { pe: 0, pc: 0 },
            Event::TraceRedispatched { pe: 0, pc: 0 },
            Event::MispredictDetected { pe: 0, slot: 0, pc: 0, kind: MispredictKind::CondBranch },
            Event::RecoveryStarted { pe: 0, branch_pc: 0, plan: RecoveryPlan::Fgci },
            Event::RecoveryApplied {
                pe: 0,
                branch_pc: 0,
                branch_idx: 0,
                id_branches: 0,
                source: FetchPath::Fallback,
            },
            Event::RecoveryAbandoned { pe: 0 },
            Event::CgciOpened {
                class: BranchClass::Backward,
                heuristic: Heuristic::Ret,
                branch_pc: 0,
                reconv_pc: 0,
            },
            Event::CgciClosed {
                class: BranchClass::Backward,
                heuristic: Heuristic::Ret,
                outcome: RecoveryOutcome::CgciReconverged,
                squashed: 0,
                preserved: 0,
                branch_pc: 0,
                reconv_pc: 0,
            },
            Event::HeadStall { pe: 0, reason: StallReason::Incomplete },
            Event::WindowSample { occupied: 0, fetch_queue: 0 },
            Event::IssueSample { issued: 1, reissued: 0 },
            Event::BusSample { bus: BusChannel::Cache, waiting: 2, granted: 1 },
        ];
        for e in &events {
            assert!(!e.name().is_empty());
            assert!(Category::ALL.contains(&e.category()), "{e}");
        }
    }
}
