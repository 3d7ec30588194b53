//! Trace processor configuration (the paper's Table 1).
//!
//! [`TraceProcessorConfig`] holds what callers vary. The rest of the
//! machine is fixed: the Table 1 constants [`PE_ISSUE_WIDTH`],
//! [`FRONTEND_LATENCY`], [`RESULT_BUSES`], [`RESULT_BUSES_PER_PE`],
//! [`CACHE_BUSES`], [`CACHE_BUSES_PER_PE`], [`BYPASS_LATENCY`],
//! [`AGEN_LATENCY`], [`LOAD_REISSUE_PENALTY`] and [`TCACHE_WAYS`], plus
//! [`RAS_DEPTH`] and the CGCI distance bound [`CGCI_MAX_DEPENDENT`]. The
//! I-cache, D-cache and BIT (8K entries, 4-way) geometry is fixed by
//! their own `paper()` constructors.

use std::fmt;

use tp_predict::{TraceHistory, TracePredictorConfig};
use tp_trace::SelectionConfig;

/// The largest supported `num_pes`: PE indices are narrowed to one byte
/// wherever the core stores them.
pub const MAX_PES: usize = 256;

/// Issue width per PE (4).
pub const PE_ISSUE_WIDTH: usize = 4;
/// Frontend latency in cycles from prediction to dispatch (2).
pub const FRONTEND_LATENCY: u64 = 2;
/// Global result buses per cycle (8).
pub const RESULT_BUSES: usize = 8;
/// Result buses usable by one PE per cycle (4).
pub const RESULT_BUSES_PER_PE: usize = 4;
/// Cache buses per cycle (8).
pub const CACHE_BUSES: usize = 8;
/// Cache buses usable by one PE per cycle (4).
pub const CACHE_BUSES_PER_PE: usize = 4;
/// Extra bypass latency for inter-PE (global) values (1).
pub const BYPASS_LATENCY: u64 = 1;
/// Address generation latency for loads and stores (1).
pub const AGEN_LATENCY: u64 = 1;
/// Penalty when a load reissues after a snoop hit (1).
pub const LOAD_REISSUE_PENALTY: u64 = 1;
/// Trace cache ways (4); the set count is
/// [`TraceProcessorConfig::tcache_sets`].
pub const TCACHE_WAYS: usize = 4;
/// Return address stack depth (64).
pub const RAS_DEPTH: usize = 64;

/// Maximum control-dependent traces a CGCI attempt may squash between the
/// mispredicted branch and the assumed re-convergent trace. A longer gap
/// means the frontend must refill that many traces before re-convergence
/// can even be detected, while the preserved suffix sits on
/// mostly-invalidated data — at that distance a full squash is cheaper.
/// The heuristics target *near* re-convergent points (§4.2: loop exits,
/// return continuations), so a small bound keeps their profitable firings.
pub const CGCI_MAX_DEPENDENT: usize = 2;

/// An invalid parameter combination, naming the offending field so CLI
/// frontends can report it without a panic backtrace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `num_pes` below the minimum of two.
    TooFewPes {
        /// The configured value.
        num_pes: usize,
    },
    /// `num_pes` above [`MAX_PES`]: PE indices are narrowed to one byte
    /// (register-file ownership, packed window references).
    TooManyPes {
        /// The configured value.
        num_pes: usize,
    },
    /// An FGCI model without `fg` trace selection.
    FgciWithoutFgSelection,
    /// The `MLB-RET` heuristic without `ntb` trace selection.
    MlbWithoutNtbSelection,
    /// A predictor path depth of zero or above
    /// [`TraceHistory::MAX_DEPTH`](tp_predict::TraceHistory::MAX_DEPTH).
    PathDepth {
        /// The configured value.
        path_depth: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::TooFewPes { num_pes } => {
                write!(f, "num_pes = {num_pes}: need at least two PEs")
            }
            ConfigError::TooManyPes { num_pes } => {
                write!(f, "num_pes = {num_pes}: at most {MAX_PES} PEs are supported")
            }
            ConfigError::FgciWithoutFgSelection => {
                write!(f, "model: FGCI recovery requires fg trace selection")
            }
            ConfigError::MlbWithoutNtbSelection => {
                write!(f, "model: MLB-RET requires ntb trace selection to expose loop exits")
            }
            ConfigError::PathDepth { path_depth } => write!(
                f,
                "predictor.path_depth = {path_depth}: must be 1..={}",
                TraceHistory::MAX_DEPTH
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The control-independence models evaluated in the paper's Section 6.2,
/// plus the selection-only baselines of Section 6.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CiModel {
    /// No control independence: every misprediction squashes all younger
    /// traces (`base` family).
    None,
    /// Coarse-grain only, `RET` heuristic (default trace selection).
    Ret,
    /// Coarse-grain only, `MLB-RET` heuristic (requires `ntb` selection).
    MlbRet,
    /// Fine-grain only (requires `fg` selection).
    Fg,
    /// Fine-grain plus coarse-grain `MLB-RET` (requires `fg` + `ntb`).
    FgMlbRet,
}

impl CiModel {
    /// Every model, in the paper's order (§6.2): the matrix each harness
    /// grid runs.
    pub const ALL: [CiModel; 5] =
        [CiModel::None, CiModel::Ret, CiModel::MlbRet, CiModel::Fg, CiModel::FgMlbRet];

    /// The paper's name for this model.
    pub fn name(self) -> &'static str {
        match self {
            CiModel::None => "base",
            CiModel::Ret => "RET",
            CiModel::MlbRet => "MLB-RET",
            CiModel::Fg => "FG",
            CiModel::FgMlbRet => "FG+MLB-RET",
        }
    }

    /// Parses a model name (the exact inverse of [`CiModel::name`]).
    pub fn from_name(s: &str) -> Option<CiModel> {
        CiModel::ALL.into_iter().find(|m| m.name() == s)
    }

    /// The trace selection each model uses (Section 6.2 pairs each CI model
    /// with the selection constraints that expose its re-convergent points).
    pub fn selection(self) -> SelectionConfig {
        match self {
            CiModel::None | CiModel::Ret => SelectionConfig::base(),
            CiModel::MlbRet => SelectionConfig::with_ntb(),
            CiModel::Fg => SelectionConfig::with_fg(),
            CiModel::FgMlbRet => SelectionConfig::with_fg_ntb(),
        }
    }

    /// Whether the model repairs with fine-grain control independence (§3).
    pub fn fgci(self) -> bool {
        matches!(self, CiModel::Fg | CiModel::FgMlbRet)
    }

    /// Whether the model attempts coarse-grain control independence (§4).
    pub fn cgci(self) -> bool {
        matches!(self, CiModel::Ret | CiModel::MlbRet | CiModel::FgMlbRet)
    }

    /// Whether the model's CGCI heuristic is `MLB-RET` rather than `RET`
    /// (§4.2).
    pub fn mlb(self) -> bool {
        matches!(self, CiModel::MlbRet | CiModel::FgMlbRet)
    }
}

/// What a run checks against independent models. Checks only observe:
/// statistics, events and committed state are the same at every level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckLevel {
    /// No checks (what measured runs use).
    Off,
    /// Committed state against the functional oracle at every trace
    /// retirement, and every CGCI re-convergence against `tp-cfg`'s static
    /// post-dominator analysis; a failure is a
    /// [`SimError::OracleMismatch`](crate::SimError::OracleMismatch). Cost
    /// over the 14 full workloads under base and FG+MLB-RET, best of 3 per
    /// cell: +3.2% (median of four sets reading −0.6% to +7.0%), nearly all
    /// of it the functional oracle.
    Oracle,
    /// `Oracle` plus the O(window²) window invariants after every pipeline
    /// stage, which panic on a violation, and a register-file sweep before
    /// every rename, so a missed root surfaces in short runs too.
    Full,
}

/// Configuration of the trace processor: what callers vary. The values
/// [`TraceProcessorConfig::paper`] sets follow Table 1; the fixed rest of
/// the machine is the constants of this module.
#[derive(Clone, Debug)]
pub struct TraceProcessorConfig {
    /// Number of processing elements (16).
    pub num_pes: usize,
    /// The control-independence model: whether FGCI, CGCI and `MLB-RET`
    /// apply.
    pub model: CiModel,
    /// Trace selection configuration (max trace length 32 plus the
    /// `ntb`/`fg` constraints).
    pub selection: SelectionConfig,
    /// Next-trace predictor configuration.
    pub predictor: TracePredictorConfig,
    /// BTB entries (16K, tagless).
    pub btb_entries: usize,
    /// Trace cache sets (256; [`TCACHE_WAYS`] ways each).
    pub tcache_sets: usize,
    /// What the run checks against independent models ([`CheckLevel::Off`]
    /// in [`TraceProcessorConfig::paper`]).
    pub check: CheckLevel,
    /// Abort the run if no instruction retires for this many cycles.
    pub deadlock_cycles: u64,
    /// Re-introduces a fixed recovery bug — during CGCI insertion, a
    /// stalled fetch whose entire control-dependent upstream has retired
    /// keeps stalling instead of falling back to the committed frontier,
    /// wedging the machine. Exists solely so the differential fuzzer's
    /// shrinker can be self-tested against a known-bad machine
    /// (`tp-fuzz`); never set this outside tests.
    #[doc(hidden)]
    pub inject_cgci_stall_bug: bool,
}

impl TraceProcessorConfig {
    /// The paper's Table 1 configuration with the given control-independence
    /// model (which also fixes the trace selection constraints).
    pub fn paper(model: CiModel) -> TraceProcessorConfig {
        TraceProcessorConfig {
            num_pes: 16,
            model,
            selection: model.selection(),
            predictor: TracePredictorConfig::paper(),
            btb_entries: 16 * 1024,
            tcache_sets: 256,
            check: CheckLevel::Off,
            deadlock_cycles: 50_000,
            inject_cgci_stall_bug: false,
        }
    }

    /// A selection-only baseline (`base`, `base(ntb)`, `base(fg)`,
    /// `base(fg,ntb)`): no control independence, custom selection.
    pub fn baseline(selection: SelectionConfig) -> TraceProcessorConfig {
        TraceProcessorConfig { selection, ..TraceProcessorConfig::paper(CiModel::None) }
    }

    /// A small configuration (4 PEs, length-8 traces, tiny predictor) for
    /// fast unit tests.
    pub fn small(model: CiModel) -> TraceProcessorConfig {
        let mut c = TraceProcessorConfig::paper(model);
        c.num_pes = 4;
        c.selection.max_len = 8;
        c.predictor = TracePredictorConfig::tiny();
        c.btb_entries = 256;
        c.tcache_sets = 16;
        c.deadlock_cycles = 20_000;
        c
    }

    /// The same configuration checked at `check`.
    pub fn with_check(mut self, check: CheckLevel) -> TraceProcessorConfig {
        self.check = check;
        self
    }

    /// Checks internal consistency, reporting the offending field.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the model's requirements are violated
    /// (FGCI without `fg` selection, MLB-RET without `ntb` selection) or
    /// `num_pes` is out of range.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_pes < 2 {
            return Err(ConfigError::TooFewPes { num_pes: self.num_pes });
        }
        if self.num_pes > MAX_PES {
            return Err(ConfigError::TooManyPes { num_pes: self.num_pes });
        }
        if self.model.fgci() && !self.selection.fg {
            return Err(ConfigError::FgciWithoutFgSelection);
        }
        if self.model.mlb() && !self.selection.ntb {
            return Err(ConfigError::MlbWithoutNtbSelection);
        }
        let path_depth = self.predictor.path_depth;
        if !(1..=TraceHistory::MAX_DEPTH).contains(&path_depth) {
            return Err(ConfigError::PathDepth { path_depth });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_models_pick_matching_selection() {
        assert!(!TraceProcessorConfig::paper(CiModel::Ret).selection.ntb);
        assert!(TraceProcessorConfig::paper(CiModel::MlbRet).selection.ntb);
        assert!(TraceProcessorConfig::paper(CiModel::Fg).selection.fg);
        let c = TraceProcessorConfig::paper(CiModel::FgMlbRet);
        assert!(c.selection.fg && c.selection.ntb);
        c.validate().unwrap();
        // Which recovery mechanisms each model applies: (FGCI, CGCI, MLB-RET).
        let table = [
            (CiModel::None, (false, false, false)),
            (CiModel::Ret, (false, true, false)),
            (CiModel::MlbRet, (false, true, true)),
            (CiModel::Fg, (true, false, false)),
            (CiModel::FgMlbRet, (true, true, true)),
        ];
        for (m, want) in table {
            assert_eq!((m.fgci(), m.cgci(), m.mlb()), want, "{}", m.name());
            let c = TraceProcessorConfig::paper(m);
            assert_eq!(c.model, m);
            c.validate().unwrap();
        }
    }

    #[test]
    fn model_names_match_paper() {
        assert_eq!(CiModel::None.name(), "base");
        assert_eq!(CiModel::Ret.name(), "RET");
        assert_eq!(CiModel::MlbRet.name(), "MLB-RET");
        assert_eq!(CiModel::Fg.name(), "FG");
        assert_eq!(CiModel::FgMlbRet.name(), "FG+MLB-RET");
    }

    #[test]
    fn model_names_round_trip() {
        for m in CiModel::ALL {
            assert_eq!(CiModel::from_name(m.name()), Some(m));
        }
        assert_eq!(CiModel::from_name("mlb-ret"), None);
        assert_eq!(CiModel::from_name("None"), None);
    }

    #[test]
    fn fgci_without_fg_selection_is_invalid() {
        let mut c = TraceProcessorConfig::paper(CiModel::Fg);
        c.selection.fg = false;
        let err = c.validate().unwrap_err();
        assert_eq!(err, ConfigError::FgciWithoutFgSelection);
        assert!(err.to_string().contains("requires fg"), "{err}");
    }

    #[test]
    fn mlb_without_ntb_selection_is_invalid() {
        let mut c = TraceProcessorConfig::paper(CiModel::MlbRet);
        c.selection.ntb = false;
        let err = c.validate().unwrap_err();
        assert_eq!(err, ConfigError::MlbWithoutNtbSelection);
        assert!(err.to_string().contains("requires ntb"), "{err}");
    }

    #[test]
    fn num_pes_is_bounded_by_one_byte_indices() {
        let mut c = TraceProcessorConfig::paper(CiModel::None);
        c.num_pes = MAX_PES;
        assert_eq!(MAX_PES, 256);
        c.validate().unwrap();
        c.num_pes = MAX_PES + 1;
        let err = c.validate().unwrap_err();
        assert_eq!(err, ConfigError::TooManyPes { num_pes: 257 });
        assert!(err.to_string().contains("num_pes = 257"), "{err}");
    }

    #[test]
    fn errors_name_the_offending_field() {
        let mut c = TraceProcessorConfig::paper(CiModel::None);
        c.num_pes = 1;
        assert!(c.validate().unwrap_err().to_string().contains("num_pes = 1"));
    }

    /// Path depths the fixed-size trace history cannot hold fail
    /// validation instead of panicking at boot.
    #[test]
    fn path_depth_is_bounded_by_the_history_capacity() {
        let mut c = TraceProcessorConfig::paper(CiModel::MlbRet);
        c.predictor.path_depth = TraceHistory::MAX_DEPTH;
        c.validate().unwrap();
        for path_depth in [0, TraceHistory::MAX_DEPTH + 1] {
            c.predictor.path_depth = path_depth;
            let err = c.validate().unwrap_err();
            assert_eq!(err, ConfigError::PathDepth { path_depth });
            assert!(err.to_string().contains(&format!("path_depth = {path_depth}")), "{err}");
        }
    }

    #[test]
    fn baseline_has_no_ci() {
        let c = TraceProcessorConfig::baseline(SelectionConfig::with_fg_ntb());
        assert_eq!(c.model, CiModel::None);
        c.validate().unwrap();
    }
}
