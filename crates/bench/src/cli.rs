//! The command-line layer every bin shares: flag values with an exit-2
//! usage error on a missing or malformed value, size/suite/model parsing,
//! workload lookup with the registry's friendly unknown-name message,
//! configuration validation, and the checkpoint-file helpers of the
//! `ckpt` and `tracetap` bins.

use std::fmt::Display;
use std::str::FromStr;

use tp_ckpt::Checkpoint;
use tp_core::{CiModel, TraceProcessor, TraceProcessorConfig};
use tp_isa::{Frontend, Program};
use tp_workloads::{all_workloads, Size, Workload};

use crate::speed::{parse_size, SuiteChoice};

/// Prints `msg` and exits with status 2, the usage-error exit of every
/// bin.
pub fn usage_error(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Parses the value of `flag` as a number.
///
/// # Errors
///
/// Returns a message naming the flag and the malformed value.
pub fn parse_num<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag}: expected a number, got {value:?}"))
}

/// Parses a model name ([`CiModel::from_name`]).
///
/// # Errors
///
/// Returns a message listing the valid names.
pub fn parse_model(name: &str) -> Result<CiModel, String> {
    CiModel::from_name(name).ok_or_else(|| {
        format!("unknown model {name:?} ({})", CiModel::ALL.map(CiModel::name).join("|"))
    })
}

/// A bin's arguments, consumed flag by flag: iterate for the next flag,
/// then read its value with one of the typed accessors. Every accessor
/// exits 2 with a message naming the flag when the value is missing or
/// malformed.
pub struct Args {
    args: std::vec::IntoIter<String>,
}

impl Args {
    /// The process arguments, without the program name.
    pub fn from_env() -> Args {
        Args::new(std::env::args().skip(1).collect())
    }

    /// An explicit argument list (subcommand tails, tests).
    pub fn new(args: Vec<String>) -> Args {
        Args { args: args.into_iter() }
    }

    /// The raw value following `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        self.args.next().unwrap_or_else(|| usage_error(format!("{flag} needs a value")))
    }

    /// The value following `flag`, parsed as a number.
    pub fn num<T: FromStr>(&mut self, flag: &str) -> T {
        let v = self.value(flag);
        parse_num(flag, &v).unwrap_or_else(|e| usage_error(e))
    }

    /// The value following `flag` as a suite size.
    pub fn size(&mut self, flag: &str) -> Size {
        let v = self.value(flag);
        parse_size(&v).unwrap_or_else(|| {
            usage_error(format!("{flag}: unknown size {v:?} (tiny|small|full|long)"))
        })
    }

    /// The value following `flag` as a suite choice.
    pub fn suite(&mut self, flag: &str) -> SuiteChoice {
        let v = self.value(flag);
        SuiteChoice::parse(&v)
            .unwrap_or_else(|| usage_error(format!("{flag}: unknown suite {v:?} (synth|rv|all)")))
    }

    /// The value following `flag` as a model name.
    pub fn model(&mut self, flag: &str) -> CiModel {
        parse_model(&self.value(flag)).unwrap_or_else(|e| usage_error(e))
    }

    /// The value following `flag`, which must name one of `options`.
    pub fn pick<T: Clone>(&mut self, flag: &str, options: &[(&str, T)]) -> T {
        let v = self.value(flag);
        match options.iter().find(|(name, _)| *name == v) {
            Some((_, t)) => t.clone(),
            None => {
                let names: Vec<&str> = options.iter().map(|(name, _)| *name).collect();
                usage_error(format!("{flag}: unknown value {v:?}; expected {}", names.join("|")))
            }
        }
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.args.next()
    }
}

/// Splits the process arguments of a positional-style bin into the
/// positional arguments and whether the boolean `switch` was given.
pub fn positional_and_switch(switch: &str) -> (Vec<String>, bool) {
    let (hits, rest): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a == switch);
    (rest, !hits.is_empty())
}

/// Looks up workload `name` at `size`, exiting 2 with the registry's
/// friendly unknown-name message.
pub fn workload(name: &str, size: Size) -> Workload {
    tp_workloads::by_name(name, size).unwrap_or_else(|e| usage_error(e))
}

/// Validates `cfg`, exiting 2 with the offending field named instead of
/// panicking mid-run. `label` names the configuration in the message.
pub fn validated(cfg: TraceProcessorConfig, label: &str) -> TraceProcessorConfig {
    if let Err(e) = cfg.validate() {
        usage_error(format!("invalid configuration for {label}: {e}"));
    }
    cfg
}

/// The paper configuration of `model`, validated ([`validated`]).
pub fn validated_config(model: CiModel) -> TraceProcessorConfig {
    validated(TraceProcessorConfig::paper(model), model.name())
}

/// Prints `{path}: {msg}` and exits with status 1, the bad-input-file exit
/// of the checkpoint bins.
pub fn file_error(path: &str, msg: impl Display) -> ! {
    eprintln!("{path}: {msg}");
    std::process::exit(1)
}

/// Reads and decodes a checkpoint file, exiting 1 with the path named on
/// failure.
pub fn read_checkpoint(path: &str) -> Checkpoint {
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("reading {path}: {e}");
        std::process::exit(1)
    });
    Checkpoint::decode(&bytes).unwrap_or_else(|e| file_error(path, e))
}

/// Boots a detailed simulator from checkpoint `ckpt` (read from `path`),
/// exiting 1 with the path named if the image does not fit `program` or
/// `cfg`.
pub fn boot_checkpoint<'p>(
    path: &str,
    ckpt: &Checkpoint,
    program: &'p Program,
    cfg: TraceProcessorConfig,
) -> TraceProcessor<'p> {
    let boot = ckpt
        .boot_image(program, &cfg)
        .unwrap_or_else(|e| file_error(path, format!("boot failed: {e}")));
    TraceProcessor::from_checkpoint(program, cfg, boot)
        .unwrap_or_else(|e| file_error(path, format!("boot rejected: {e}")))
}

/// Finds the workload program a checkpoint was captured from by
/// fingerprint search over both suites at every size. A fingerprint hit
/// is additionally frontend-checked; on a miss, a same-name workload in
/// the *other* frontend's suite produces a named mismatch diagnosis
/// instead of a bare "not found".
///
/// # Errors
///
/// Returns the diagnosis when no workload matches.
pub fn find_program(ckpt: &Checkpoint) -> Result<(Program, Size, Frontend), String> {
    let mut name_twin: Option<Frontend> = None;
    for size in [Size::Tiny, Size::Small, Size::Full, Size::Long] {
        for w in all_workloads(size) {
            if ckpt.verify_program(&w.program).is_ok() {
                return match ckpt.verify_frontend(w.frontend) {
                    Ok(()) => Ok((w.program, size, w.frontend)),
                    Err(e) => Err(e.to_string()),
                };
            }
            if w.name == ckpt.program_name && w.frontend != ckpt.frontend {
                name_twin = Some(w.frontend);
            }
        }
    }
    match name_twin {
        Some(twin) => Err(format!(
            "checkpoint records the {} frontend for `{}`; the workload of that name in this \
             build is {twin} — wrong ISA (no fingerprint matches)",
            ckpt.frontend, ckpt.program_name
        )),
        None => Err(format!(
            "no {} workload matches fingerprint {:016x} (captured from `{}`)",
            ckpt.frontend, ckpt.program_fingerprint, ckpt.program_name
        )),
    }
}

/// The model whose trace selection trained the checkpoint's warm images
/// (base for a cold checkpoint).
pub fn warm_model(ckpt: &Checkpoint) -> CiModel {
    match ckpt.warm.as_ref().map(|w| w.selection) {
        Some(sel) if sel.fg && sel.ntb => CiModel::FgMlbRet,
        Some(sel) if sel.fg => CiModel::Fg,
        Some(sel) if sel.ntb => CiModel::MlbRet,
        _ => CiModel::None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_numbers_are_errors_not_panics() {
        assert_eq!(parse_num::<u64>("--budget", "20000"), Ok(20_000));
        let err = parse_num::<u64>("--budget", "20k").unwrap_err();
        assert!(err.contains("--budget") && err.contains("\"20k\""), "{err}");
        assert!(parse_num::<usize>("--jobs", "-1").is_err());
    }

    #[test]
    fn models_parse_by_paper_name() {
        assert_eq!(parse_model("FG+MLB-RET"), Ok(CiModel::FgMlbRet));
        let err = parse_model("fg").unwrap_err();
        assert!(err.contains("base|RET|MLB-RET|FG|FG+MLB-RET"), "{err}");
    }

    #[test]
    fn accessors_consume_flag_values_in_order() {
        let mut args = Args::new(
            ["--size", "long", "--model", "RET", "--rounds", "3", "--isa", "rv"]
                .map(String::from)
                .to_vec(),
        );
        assert_eq!(args.next().as_deref(), Some("--size"));
        assert_eq!(args.size("--size"), Size::Long);
        assert_eq!(args.next().as_deref(), Some("--model"));
        assert_eq!(args.model("--model"), CiModel::Ret);
        assert_eq!(args.next().as_deref(), Some("--rounds"));
        assert_eq!(args.num::<u64>("--rounds"), 3);
        assert_eq!(args.next().as_deref(), Some("--isa"));
        assert_eq!(args.pick("--isa", &[("synth", 0), ("rv", 1)]), 1);
        assert_eq!(args.next(), None);
    }

    #[test]
    fn cold_checkpoints_default_to_base() {
        let w = workload("compress", Size::Tiny);
        let cfg = TraceProcessorConfig::paper(CiModel::MlbRet);
        let ff = tp_ckpt::FastForward::new(&w.program, &cfg);
        let ckpt = ff.checkpoint();
        assert_eq!(warm_model(&ckpt), CiModel::MlbRet);
        let (program, size, _) = find_program(&ckpt).expect("fingerprint matches");
        assert_eq!(size, Size::Tiny);
        assert_eq!(program.name(), w.program.name());
        let cold = Checkpoint { warm: None, ..ckpt };
        assert_eq!(warm_model(&cold), CiModel::None);
    }
}
