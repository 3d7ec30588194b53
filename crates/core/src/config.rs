//! Trace processor configuration (the paper's Table 1).

use std::fmt;

use tp_predict::TracePredictorConfig;
use tp_trace::SelectionConfig;

/// The largest supported `num_pes`: PE indices are narrowed to one byte
/// wherever the core stores them.
pub const MAX_PES: usize = 256;

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
    /// `pe_issue_width` of zero.
    ZeroIssueWidth,
    /// `fgci` enabled without `fg` trace selection.
    FgciWithoutFgSelection,
    /// The `MLB-RET` heuristic without `ntb` trace selection.
    MlbWithoutNtbSelection,
    /// `result_buses_per_pe` exceeding `result_buses`.
    ResultBusesPerPe {
        /// The configured per-PE value.
        per_pe: usize,
        /// The configured total.
        total: usize,
    },
    /// `cache_buses_per_pe` exceeding `cache_buses`.
    CacheBusesPerPe {
        /// The configured per-PE value.
        per_pe: usize,
        /// The configured total.
        total: usize,
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
            ConfigError::ZeroIssueWidth => {
                write!(f, "pe_issue_width = 0: issue width must be non-zero")
            }
            ConfigError::FgciWithoutFgSelection => {
                write!(f, "fgci = true: FGCI recovery requires fg trace selection")
            }
            ConfigError::MlbWithoutNtbSelection => {
                write!(f, "cgci = MLB-RET: requires ntb trace selection to expose loop exits")
            }
            ConfigError::ResultBusesPerPe { per_pe, total } => {
                write!(f, "result_buses_per_pe = {per_pe}: exceeds result_buses = {total}")
            }
            ConfigError::CacheBusesPerPe { per_pe, total } => {
                write!(f, "cache_buses_per_pe = {per_pe}: exceeds cache_buses = {total}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which coarse-grain control independence heuristic the frontend uses to
/// locate a trace-level re-convergent point (paper Section 4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CgciHeuristic {
    /// `RET`: the trace following the nearest return-ending trace is assumed
    /// control independent.
    Ret,
    /// `MLB-RET`: for mispredicted backward branches, the nearest trace
    /// starting at the branch's not-taken target; otherwise `RET`.
    MlbRet,
}

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
}

/// Full configuration of the trace processor (defaults follow Table 1).
#[derive(Clone, Debug)]
pub struct TraceProcessorConfig {
    /// Number of processing elements (16).
    pub num_pes: usize,
    /// Issue width per PE (4).
    pub pe_issue_width: usize,
    /// Trace selection configuration (max trace length 32 plus the
    /// `ntb`/`fg` constraints).
    pub selection: SelectionConfig,
    /// Enable fine-grain control independence recovery.
    pub fgci: bool,
    /// Enable coarse-grain control independence recovery with a heuristic.
    pub cgci: Option<CgciHeuristic>,
    /// Maximum control-dependent traces a CGCI attempt may squash between
    /// the mispredicted branch and the assumed re-convergent trace. A
    /// longer gap means the frontend must refill that many traces before
    /// re-convergence can even be detected, while the preserved suffix sits
    /// on mostly-invalidated data — at that distance a full squash is
    /// cheaper. The heuristics target *near* re-convergent points (§4.2:
    /// loop exits, return continuations), so a small bound keeps their
    /// profitable firings.
    pub cgci_max_dependent: usize,
    /// Frontend latency in cycles from prediction to dispatch (2).
    pub frontend_latency: u64,
    /// Global result buses per cycle (8).
    pub result_buses: usize,
    /// Result buses usable by one PE per cycle (4).
    pub result_buses_per_pe: usize,
    /// Cache buses per cycle (8).
    pub cache_buses: usize,
    /// Cache buses usable by one PE per cycle (4).
    pub cache_buses_per_pe: usize,
    /// Extra bypass latency for inter-PE (global) values (1).
    pub bypass_latency: u64,
    /// Address generation latency for loads/stores (1).
    pub agen_latency: u64,
    /// Penalty when a load reissues due to a snoop hit (1).
    pub load_reissue_penalty: u64,
    /// Next-trace predictor configuration.
    pub predictor: TracePredictorConfig,
    /// BTB entries (16K, tagless).
    pub btb_entries: usize,
    /// Return address stack depth.
    pub ras_depth: usize,
    /// BIT entries (8K) and associativity (4).
    pub bit_entries: usize,
    /// BIT associativity.
    pub bit_ways: usize,
    /// Trace cache sets (256) and ways (4).
    pub tcache_sets: usize,
    /// Trace cache ways.
    pub tcache_ways: usize,
    /// Verify committed state against the functional oracle at every trace
    /// retirement. Cheap enough for measured runs: it added 3.9% wall time
    /// over the 14 full-size workloads under base and FG+MLB-RET (best of
    /// 3 per cell).
    pub verify_with_oracle: bool,
    /// Check every CGCI re-convergence detection against the static
    /// post-dominator analysis (`tp-cfg`) and abort with
    /// [`SimError::OracleMismatch`](crate::SimError::OracleMismatch) on an
    /// unclassifiable detection. Read-only: the check never alters model
    /// behaviour. The fuzz bin's `--cfg-oracle` flag sets it.
    ///
    /// [`SimError::OracleMismatch`]: crate::SimError::OracleMismatch
    pub cfg_oracle: bool,
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
        let (fgci, cgci) = match model {
            CiModel::None => (false, None),
            CiModel::Ret => (false, Some(CgciHeuristic::Ret)),
            CiModel::MlbRet => (false, Some(CgciHeuristic::MlbRet)),
            CiModel::Fg => (true, None),
            CiModel::FgMlbRet => (true, Some(CgciHeuristic::MlbRet)),
        };
        TraceProcessorConfig {
            num_pes: 16,
            pe_issue_width: 4,
            selection: model.selection(),
            fgci,
            cgci,
            cgci_max_dependent: 2,
            frontend_latency: 2,
            result_buses: 8,
            result_buses_per_pe: 4,
            cache_buses: 8,
            cache_buses_per_pe: 4,
            bypass_latency: 1,
            agen_latency: 1,
            load_reissue_penalty: 1,
            predictor: TracePredictorConfig::paper(),
            btb_entries: 16 * 1024,
            ras_depth: 64,
            bit_entries: 8192,
            bit_ways: 4,
            tcache_sets: 256,
            tcache_ways: 4,
            verify_with_oracle: false,
            cfg_oracle: false,
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

    /// Enables per-trace verification against the functional oracle.
    pub fn with_oracle(mut self) -> TraceProcessorConfig {
        self.verify_with_oracle = true;
        self
    }

    /// Enables the static-CFG re-convergence oracle
    /// (see [`TraceProcessorConfig::cfg_oracle`]).
    pub fn with_cfg_oracle(mut self) -> TraceProcessorConfig {
        self.cfg_oracle = true;
        self
    }

    /// Checks internal consistency, reporting the offending field.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the model's requirements are violated
    /// (e.g. FGCI without `fg` selection, MLB-RET without `ntb` selection,
    /// zero sizes).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_pes < 2 {
            return Err(ConfigError::TooFewPes { num_pes: self.num_pes });
        }
        if self.num_pes > MAX_PES {
            return Err(ConfigError::TooManyPes { num_pes: self.num_pes });
        }
        if self.pe_issue_width < 1 {
            return Err(ConfigError::ZeroIssueWidth);
        }
        if self.fgci && !self.selection.fg {
            return Err(ConfigError::FgciWithoutFgSelection);
        }
        if self.cgci == Some(CgciHeuristic::MlbRet) && !self.selection.ntb {
            return Err(ConfigError::MlbWithoutNtbSelection);
        }
        if self.result_buses_per_pe > self.result_buses {
            return Err(ConfigError::ResultBusesPerPe {
                per_pe: self.result_buses_per_pe,
                total: self.result_buses,
            });
        }
        if self.cache_buses_per_pe > self.cache_buses {
            return Err(ConfigError::CacheBusesPerPe {
                per_pe: self.cache_buses_per_pe,
                total: self.cache_buses,
            });
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
        let mut c = TraceProcessorConfig::paper(CiModel::None);
        c.result_buses_per_pe = 99;
        assert!(c.validate().unwrap_err().to_string().contains("result_buses_per_pe = 99"));
        let mut c = TraceProcessorConfig::paper(CiModel::None);
        c.cache_buses_per_pe = 9;
        c.cache_buses = 8;
        assert!(c.validate().unwrap_err().to_string().contains("cache_buses_per_pe = 9"));
        let mut c = TraceProcessorConfig::paper(CiModel::None);
        c.pe_issue_width = 0;
        assert!(c.validate().unwrap_err().to_string().contains("pe_issue_width"));
    }

    #[test]
    fn baseline_has_no_ci() {
        let c = TraceProcessorConfig::baseline(SelectionConfig::with_fg_ntb());
        assert!(!c.fgci);
        assert!(c.cgci.is_none());
        c.validate().unwrap();
    }
}
