//! The misprediction outcome-attribution ledger.
//!
//! Every recovered conditional-branch misprediction is tagged with its
//! branch class (backward, FGCI-embedded forward, other forward), the
//! recovery heuristic consulted (RET / MLB-RET / FGCI / none), and the
//! recovery outcome (full squash, FGCI repair, CGCI re-converged, CGCI
//! attempt failed), together with its costs: traces squashed, preserved and
//! re-dispatched, and the cycles the recovery machinery was occupied.
//! The aggregate is a Table-6-style per-class breakdown that localizes
//! *why* a control-independence model won or lost a workload — predictor
//! pollution shows up as inflated per-class event counts, heuristic misfire
//! as failed CGCI attempts, and recovery-latency mismodeling as occupancy
//! cycles out of proportion to the squash savings.
//!
//! The ledger is pure observation: it carries no simulator behaviour.

use crate::json::Json;
use crate::Table;

/// Ledger branch classes: what kind of conditional branch mispredicted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BranchClass {
    /// Backward branch (loop-type; the MLB heuristic's target class).
    Backward,
    /// Forward branch inside an FGCI-embeddable padded region (repairable
    /// entirely within one PE).
    ForwardFgci,
    /// Any other forward branch.
    ForwardOther,
}

impl BranchClass {
    /// All classes, in table order.
    pub const ALL: [BranchClass; 3] =
        [BranchClass::Backward, BranchClass::ForwardFgci, BranchClass::ForwardOther];

    /// Row label used by the attribution table.
    pub fn label(self) -> &'static str {
        match self {
            BranchClass::Backward => "backward",
            BranchClass::ForwardFgci => "fwd-fgci",
            BranchClass::ForwardOther => "fwd-other",
        }
    }

    fn index(self) -> usize {
        match self {
            BranchClass::Backward => 0,
            BranchClass::ForwardFgci => 1,
            BranchClass::ForwardOther => 2,
        }
    }
}

/// Which recovery heuristic was consulted for the misprediction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// No control-independence heuristic (base model, or CI disabled for
    /// this branch kind).
    None,
    /// The CGCI `RET` heuristic (re-convergence after the nearest
    /// return-ending trace).
    Ret,
    /// The CGCI `MLB` half of `MLB-RET` (re-convergence at a backward
    /// branch's not-taken target).
    Mlb,
    /// Fine-grain control independence (the branch's region is embedded).
    Fgci,
}

impl Heuristic {
    /// All heuristics, in table order.
    pub const ALL: [Heuristic; 4] =
        [Heuristic::None, Heuristic::Ret, Heuristic::Mlb, Heuristic::Fgci];

    /// Label used by the attribution table.
    pub fn label(self) -> &'static str {
        match self {
            Heuristic::None => "none",
            Heuristic::Ret => "RET",
            Heuristic::Mlb => "MLB",
            Heuristic::Fgci => "FGCI",
        }
    }

    fn index(self) -> usize {
        match self {
            Heuristic::None => 0,
            Heuristic::Ret => 1,
            Heuristic::Mlb => 2,
            Heuristic::Fgci => 3,
        }
    }
}

/// How the recovery resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RecoveryOutcome {
    /// Everything younger than the branch was squashed.
    FullSquash,
    /// Fine-grain repair inside the faulting PE; all younger traces
    /// preserved.
    FgciRepair,
    /// Coarse-grain recovery detected re-convergence and preserved the
    /// control-independent suffix.
    CgciReconverged,
    /// A coarse-grain attempt was abandoned (window pressure, preserved
    /// trace lost, or preempted) — it degenerates to a squash.
    CgciFailed,
}

impl RecoveryOutcome {
    /// All outcomes, in table order.
    pub const ALL: [RecoveryOutcome; 4] = [
        RecoveryOutcome::FullSquash,
        RecoveryOutcome::FgciRepair,
        RecoveryOutcome::CgciReconverged,
        RecoveryOutcome::CgciFailed,
    ];

    /// Label used by the attribution table.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryOutcome::FullSquash => "full-squash",
            RecoveryOutcome::FgciRepair => "fgci-repair",
            RecoveryOutcome::CgciReconverged => "cgci-reconv",
            RecoveryOutcome::CgciFailed => "cgci-failed",
        }
    }

    fn index(self) -> usize {
        match self {
            RecoveryOutcome::FullSquash => 0,
            RecoveryOutcome::FgciRepair => 1,
            RecoveryOutcome::CgciReconverged => 2,
            RecoveryOutcome::CgciFailed => 3,
        }
    }
}

/// A full attribution key: one ledger cell coordinate.
pub type AttrKey = (BranchClass, Heuristic, RecoveryOutcome);

/// Counters for one `(class, heuristic, outcome)` cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttrCell {
    /// Recovery events started (detection-side; includes events on paths
    /// that were later squashed).
    pub events: u64,
    /// Retired mispredicted conditional branches attributed to this cell
    /// (retirement-side; sums to the run's `retired_cond_mispredicts`).
    pub retired: u64,
    /// Traces squashed by these events.
    pub traces_squashed: u64,
    /// Control-independent traces preserved by these events.
    pub traces_preserved: u64,
    /// Preserved traces walked by the resulting re-dispatch passes.
    pub traces_redispatched: u64,
    /// Cycles the recovery machinery was occupied on behalf of these
    /// events (trace-repair construction, CGCI insertion windows).
    pub recovery_cycles: u64,
}

impl AttrCell {
    fn add(&mut self, other: &AttrCell) {
        self.events += other.events;
        self.retired += other.retired;
        self.traces_squashed += other.traces_squashed;
        self.traces_preserved += other.traces_preserved;
        self.traces_redispatched += other.traces_redispatched;
        self.recovery_cycles += other.recovery_cycles;
    }

    fn is_zero(&self) -> bool {
        *self == AttrCell::default()
    }
}

/// The misprediction outcome-attribution ledger: a dense
/// `class x heuristic x outcome` cube of [`AttrCell`]s.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryAttribution {
    cells: [[[AttrCell; 4]; 4]; 3],
}

impl RecoveryAttribution {
    /// A fresh, all-zero ledger.
    pub fn new() -> RecoveryAttribution {
        RecoveryAttribution::default()
    }

    /// Read access to one cell.
    pub fn cell(&self, key: AttrKey) -> &AttrCell {
        &self.cells[key.0.index()][key.1.index()][key.2.index()]
    }

    /// Write access to one cell.
    pub fn cell_mut(&mut self, key: AttrKey) -> &mut AttrCell {
        &mut self.cells[key.0.index()][key.1.index()][key.2.index()]
    }

    /// Iterates the non-zero cells in canonical (class, heuristic, outcome)
    /// order.
    pub fn nonzero(&self) -> impl Iterator<Item = (AttrKey, &AttrCell)> {
        BranchClass::ALL.iter().flat_map(move |&c| {
            Heuristic::ALL.iter().flat_map(move |&h| {
                RecoveryOutcome::ALL.iter().filter_map(move |&o| {
                    let cell = self.cell((c, h, o));
                    (!cell.is_zero()).then_some(((c, h, o), cell))
                })
            })
        })
    }

    /// Sums a projection over every cell.
    fn sum(&self, f: impl Fn(&AttrCell) -> u64) -> u64 {
        self.cells.iter().flatten().flatten().map(f).sum()
    }

    /// Total retirement-side attributed mispredictions. By construction
    /// this equals the run's `retired_cond_mispredicts`.
    pub fn retired_total(&self) -> u64 {
        self.sum(|c| c.retired)
    }

    /// Total detection-side recovery events.
    pub fn events_total(&self) -> u64 {
        self.sum(|c| c.events)
    }

    /// Per-class retirement-side totals, in [`BranchClass::ALL`] order.
    pub fn retired_by_class(&self) -> [u64; 3] {
        let mut out = [0; 3];
        for (i, plane) in self.cells.iter().enumerate() {
            out[i] = plane.iter().flatten().map(|c| c.retired).sum();
        }
        out
    }

    /// Folds another ledger into this one (sweep aggregation).
    pub fn merge(&mut self, other: &RecoveryAttribution) {
        for (a, b) in
            self.cells.iter_mut().flatten().flatten().zip(other.cells.iter().flatten().flatten())
        {
            a.add(b);
        }
    }

    /// Cell-wise difference `self - earlier`, for extracting the events of
    /// one measurement window from a cumulative ledger (counters are
    /// monotone within a run, so saturation only triggers on misuse).
    pub fn since(&self, earlier: &RecoveryAttribution) -> RecoveryAttribution {
        let mut out = self.clone();
        for (a, b) in
            out.cells.iter_mut().flatten().flatten().zip(earlier.cells.iter().flatten().flatten())
        {
            a.events = a.events.saturating_sub(b.events);
            a.retired = a.retired.saturating_sub(b.retired);
            a.traces_squashed = a.traces_squashed.saturating_sub(b.traces_squashed);
            a.traces_preserved = a.traces_preserved.saturating_sub(b.traces_preserved);
            a.traces_redispatched = a.traces_redispatched.saturating_sub(b.traces_redispatched);
            a.recovery_cycles = a.recovery_cycles.saturating_sub(b.recovery_cycles);
        }
        out
    }

    /// Renders the ledger as a JSON array of cell objects (one per
    /// non-zero `(class, heuristic, outcome)` cell, canonical order) — the
    /// machine-readable counterpart of [`RecoveryAttribution::table`],
    /// shared by `BENCH_speed.json` and `cistats --json`.
    pub fn to_json(&self) -> Json {
        let cell = |((class, heur, outcome), cell): (AttrKey, &AttrCell)| {
            Json::obj([
                ("class", class.label().into()),
                ("heuristic", heur.label().into()),
                ("outcome", outcome.label().into()),
                ("events", cell.events.into()),
                ("retired", cell.retired.into()),
                ("squashed", cell.traces_squashed.into()),
                ("preserved", cell.traces_preserved.into()),
                ("redispatched", cell.traces_redispatched.into()),
                ("recovery_cycles", cell.recovery_cycles.into()),
            ])
        };
        Json::Arr(self.nonzero().map(cell).collect())
    }

    /// Renders the Table-6-style per-class breakdown: one row per non-zero
    /// `(class, heuristic, outcome)` cell.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "class/heur/outcome",
            &["events", "retired", "squashed", "preserved", "redisp", "occupancy"],
        );
        for ((c, h, o), cell) in self.nonzero() {
            t.row_text(
                format!("{}/{}/{}", c.label(), h.label(), o.label()),
                &[
                    cell.events.to_string(),
                    cell.retired.to_string(),
                    cell.traces_squashed.to_string(),
                    cell.traces_preserved.to_string(),
                    cell.traces_redispatched.to_string(),
                    cell.recovery_cycles.to_string(),
                ],
            );
        }
        t.row_text(
            "total",
            &[
                self.events_total().to_string(),
                self.retired_total().to_string(),
                self.sum(|c| c.traces_squashed).to_string(),
                self.sum(|c| c.traces_preserved).to_string(),
                self.sum(|c| c.traces_redispatched).to_string(),
                self.sum(|c| c.recovery_cycles).to_string(),
            ],
        );
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_accumulate_and_project() {
        let mut a = RecoveryAttribution::new();
        let key = (BranchClass::Backward, Heuristic::Mlb, RecoveryOutcome::CgciReconverged);
        a.cell_mut(key).events += 2;
        a.cell_mut(key).retired += 1;
        a.cell_mut(key).traces_preserved += 5;
        let other = (BranchClass::ForwardFgci, Heuristic::Fgci, RecoveryOutcome::FgciRepair);
        a.cell_mut(other).retired += 3;
        assert_eq!(a.events_total(), 2);
        assert_eq!(a.retired_total(), 4);
        assert_eq!(a.retired_by_class(), [1, 3, 0]);
        assert_eq!(a.nonzero().count(), 2);
    }

    #[test]
    fn merge_sums_cellwise() {
        let key = (BranchClass::ForwardOther, Heuristic::None, RecoveryOutcome::FullSquash);
        let mut a = RecoveryAttribution::new();
        a.cell_mut(key).events = 1;
        let mut b = RecoveryAttribution::new();
        b.cell_mut(key).events = 2;
        b.cell_mut(key).recovery_cycles = 7;
        a.merge(&b);
        assert_eq!(a.cell(key).events, 3);
        assert_eq!(a.cell(key).recovery_cycles, 7);
    }

    #[test]
    fn table_renders_nonzero_rows_and_total() {
        let mut a = RecoveryAttribution::new();
        let key = (BranchClass::Backward, Heuristic::Ret, RecoveryOutcome::CgciFailed);
        a.cell_mut(key).events = 4;
        a.cell_mut(key).traces_squashed = 9;
        let s = a.table().to_string();
        assert!(s.contains("backward/RET/cgci-failed"), "{s}");
        assert!(s.contains("total"), "{s}");
        // Header + rule + one cell row + total row.
        assert_eq!(s.lines().count(), 4, "{s}");
    }

    #[test]
    fn since_subtracts_cellwise() {
        let key = (BranchClass::Backward, Heuristic::Mlb, RecoveryOutcome::CgciReconverged);
        let mut earlier = RecoveryAttribution::new();
        earlier.cell_mut(key).events = 2;
        earlier.cell_mut(key).recovery_cycles = 10;
        let mut later = earlier.clone();
        later.cell_mut(key).events = 5;
        later.cell_mut(key).recovery_cycles = 25;
        let delta = later.since(&earlier);
        assert_eq!(delta.cell(key).events, 3);
        assert_eq!(delta.cell(key).recovery_cycles, 15);
        assert_eq!(delta.events_total(), 3);
    }

    #[test]
    fn json_lists_nonzero_cells_in_order() {
        let mut a = RecoveryAttribution::new();
        let key = (BranchClass::Backward, Heuristic::Mlb, RecoveryOutcome::CgciReconverged);
        a.cell_mut(key).events = 2;
        a.cell_mut(key).traces_preserved = 5;
        let json = a.to_json();
        let cells = json.as_array().expect("an array");
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].str("class"), Some("backward"));
        assert_eq!(cells[0].str("heuristic"), Some("MLB"));
        assert_eq!(cells[0].num("preserved"), Some(5.0));
        assert_eq!(RecoveryAttribution::new().to_json(), Json::Arr(vec![]));
    }

    #[test]
    fn empty_ledger_has_empty_table_body() {
        let a = RecoveryAttribution::new();
        assert_eq!(a.nonzero().count(), 0);
        assert_eq!(a.retired_total(), 0);
        // Only header, rule, and the total row.
        assert_eq!(a.table().to_string().lines().count(), 3);
    }
}
