//! Differential harness: generated program vs. the functional oracle,
//! across every control-independence model and both frontends.
//!
//! For each emission ([`Isa::Synth`], [`Isa::Rv`]) the harness first runs
//! the functional [`Machine`] to get the reference architectural state and
//! retired-instruction count, then runs all five pipeline models with
//! per-retire oracle verification enabled
//! ([`TraceProcessorConfig::with_oracle`]: PC stream, committed store
//! address *and* value, per-trace registers). A run diverges if it raises
//! [`SimError::OracleMismatch`], deadlocks, fails to halt within the
//! oracle's retired count (plus slack), or halts with different final
//! architectural state or retired count.

use std::fmt;

use tp_core::{CiModel, SimError, TraceProcessor, TraceProcessorConfig};
use tp_isa::func::Machine;
use tp_isa::Program;

use crate::ast::FuzzAst;
use crate::emit::{emit_rv, emit_synth};
use crate::gen::{generate, FuzzConfig};

/// Which frontend a program was emitted through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// Internal synthetic ISA, assembled directly.
    Synth,
    /// RV64: assembled to 32-bit encodings, then decoded and lowered.
    Rv,
}

impl fmt::Display for Isa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Isa::Synth => "synth",
            Isa::Rv => "rv",
        })
    }
}

/// A single divergence between a pipeline model and the oracle.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The frontend the failing program came through.
    pub isa: Isa,
    /// The diverging model (`None` when the failure precedes simulation,
    /// e.g. an RV assembly error or a functional-oracle fault).
    pub model: Option<CiModel>,
    /// Human-readable description of the failure.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.model {
            Some(m) => write!(f, "[{} {:?}] {}", self.isa, m, self.detail),
            None => write!(f, "[{}] {}", self.isa, self.detail),
        }
    }
}

/// Outcome of checking one generated program.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Every model on every frontend matched the oracle.
    Pass {
        /// Oracle retired-instruction count (synth emission).
        retired: u64,
    },
    /// The program exceeded the oracle budget; not counted as a failure.
    TooLong,
    /// First divergence found (checking stops at the first failure so the
    /// shrinker has a single well-defined predicate to preserve).
    Diverged(Divergence),
}

impl Outcome {
    /// Whether this outcome is a divergence.
    pub fn is_divergence(&self) -> bool {
        matches!(self, Outcome::Diverged(_))
    }
}

/// Extra retired instructions granted to the pipeline beyond the oracle's
/// count before "did not halt" is declared.
pub const SIM_SLACK: u64 = 64;

/// Differential-check configuration.
#[derive(Clone, Debug)]
pub struct Harness {
    /// Functional-oracle instruction budget; programs that exceed it are
    /// skipped ([`Outcome::TooLong`]), not failed.
    pub oracle_budget: u64,
    /// Models to check (defaults to all five).
    pub models: Vec<CiModel>,
    /// Frontends to check (defaults to both).
    pub isas: Vec<Isa>,
    /// Use [`TraceProcessorConfig::small`] instead of the paper machine —
    /// four PEs and short traces keep the window saturated, stressing the
    /// window-full insertion/abandon paths far harder.
    pub small_machine: bool,
    /// Re-introduce the fixed CGCI retired-upstream stall bug
    /// (`TraceProcessorConfig::inject_cgci_stall_bug`) so the pipeline
    /// from divergence through shrinking can be tested against a machine
    /// that is *known* bad. Only the shrinker self-test sets this.
    pub inject_cgci_stall_bug: bool,
    /// Additionally run the static CFG re-convergence oracle
    /// ([`TraceProcessorConfig::with_cfg_oracle`]): every CGCI attempt's
    /// detected re-convergent PC must be statically classifiable, turning
    /// a heuristic that "merely" loses coverage silently into a loud
    /// divergence.
    pub cfg_oracle: bool,
}

impl Default for Harness {
    fn default() -> Harness {
        Harness {
            oracle_budget: 2_000_000,
            models: CiModel::ALL.to_vec(),
            isas: vec![Isa::Synth, Isa::Rv],
            small_machine: false,
            inject_cgci_stall_bug: false,
            cfg_oracle: false,
        }
    }
}

impl Harness {
    /// Builds the pipeline configuration for `model`. Centralized so the
    /// fuzz binary, CI sweep, and shrinker all test the identical machine.
    pub fn config(&self, model: CiModel) -> TraceProcessorConfig {
        let mut cfg = if self.small_machine {
            TraceProcessorConfig::small(model)
        } else {
            TraceProcessorConfig::paper(model)
        };
        cfg.inject_cgci_stall_bug = self.inject_cgci_stall_bug;
        cfg.cfg_oracle = self.cfg_oracle;
        cfg.with_oracle()
    }

    /// Generates seed `seed` under `cfg` and differentially checks it.
    pub fn check_seed(&self, cfg: &FuzzConfig, seed: u64) -> Outcome {
        self.check_ast(&generate(cfg, seed), &format!("fuzz-{seed}"))
    }

    /// Emits `ast` through each configured frontend and differentially
    /// checks every configured model against the functional oracle.
    pub fn check_ast(&self, ast: &FuzzAst, name: &str) -> Outcome {
        let mut retired = 0;
        for &isa in &self.isas {
            let program = match isa {
                Isa::Synth => emit_synth(ast, name),
                Isa::Rv => match emit_rv(ast, name) {
                    Ok(p) => p,
                    Err(e) => {
                        return Outcome::Diverged(Divergence {
                            isa,
                            model: None,
                            detail: format!("rv emission failed: {e}"),
                        })
                    }
                },
            };
            match self.check_program(&program, isa) {
                Outcome::Pass { retired: r } => retired = retired.max(r),
                other => return other,
            }
        }
        Outcome::Pass { retired }
    }

    /// Differentially checks one already-emitted program.
    pub fn check_program(&self, program: &Program, isa: Isa) -> Outcome {
        let mut oracle = Machine::new(program);
        let summary = match oracle.run(self.oracle_budget) {
            Ok(s) => s,
            Err(e) => {
                // The generator guarantees committed control flow stays in
                // range; reaching here means the emitter or generator is
                // broken, which is a finding in its own right.
                return Outcome::Diverged(Divergence {
                    isa,
                    model: None,
                    detail: format!("functional oracle fault: {e}"),
                });
            }
        };
        if !summary.halted {
            return Outcome::TooLong;
        }
        let expect = oracle.arch_state();
        for &model in &self.models {
            let fail =
                |detail: String| Outcome::Diverged(Divergence { isa, model: Some(model), detail });
            // A simulator panic is a finding like any other; capture it so
            // one crashing seed does not end the whole campaign. (The
            // processor is freshly built per seed, so no broken state
            // escapes the unwind.)
            let run = std::panic::catch_unwind(|| {
                let mut sim = TraceProcessor::new(program, self.config(model));
                sim.run(summary.retired + SIM_SLACK)
                    .map(|r| (r.halted, r.stats.retired_instrs, sim.arch_state()))
            });
            let (halted, retired_instrs, arch) = match run {
                Err(p) => {
                    let msg = p
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| p.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    return fail(format!("simulator panicked: {msg}"));
                }
                Ok(Err(SimError::OracleMismatch { cycle, detail })) => {
                    return fail(format!("oracle mismatch at cycle {cycle}: {detail}"))
                }
                Ok(Err(SimError::Deadlock { cycle, .. })) => {
                    return fail(format!("deadlock at cycle {cycle}"))
                }
                Ok(Ok(t)) => t,
            };
            if !halted {
                return fail(format!(
                    "did not halt within {} retired instructions (oracle: {})",
                    summary.retired + SIM_SLACK,
                    summary.retired
                ));
            }
            if arch != expect {
                return fail("final architectural state diverged from oracle".into());
            }
            if retired_instrs != summary.retired {
                return fail(format!(
                    "retired {retired_instrs} instructions, oracle retired {}",
                    summary.retired
                ));
            }
        }
        Outcome::Pass { retired: summary.retired }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short deterministic sweep: current pipeline matches the oracle on
    /// every model and both frontends for these seeds.
    #[test]
    fn smoke_sweep_passes() {
        let h = Harness::default();
        let cfg = FuzzConfig::small();
        for seed in 0..8 {
            let out = h.check_seed(&cfg, seed);
            assert!(!out.is_divergence(), "seed {seed}: {out:?}");
        }
    }
}
