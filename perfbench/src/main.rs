//! The untraced benchmark binary.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s>
//! perfbench --reference [--write]
//! ```
//!
//! The first form prints the end-to-end metrics as its last line. The
//! second recomputes the sampled-long reference table, fails unless it
//! matches the embedded one bit for bit, and with `--write` stores it
//! instead (then rebuild).

use std::process::ExitCode;

use perfbench::host::HostProbe;
use perfbench::workload::Setup;
use perfbench::{measure, reference, Args};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("--reference") {
        reference_mode(args.get(1).map(String::as_str) == Some("--write"))
    } else {
        Args::parse(&args).and_then(|a| {
            let mut probe = HostProbe::new();
            let setup = Setup::build(a.workload, a.seed, &mut probe);
            let report = measure::run(&setup, a.seed, a.seconds, &mut probe)?;
            println!("{}", report.to_json());
            Ok(())
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn reference_mode(write: bool) -> Result<(), String> {
    let table = reference::compute_all()?;
    if write {
        std::fs::write(reference::PATH, reference::render(&table))
            .map_err(|e| format!("writing {}: {e}", reference::PATH))?;
        eprintln!("wrote {} entries to {}", table.len(), reference::PATH);
        return Ok(());
    }
    let embedded = reference::embedded();
    if table == embedded {
        eprintln!("all {} reference entries reproduce bit for bit", table.len());
        Ok(())
    } else {
        for e in &table {
            if !embedded.contains(e) {
                eprintln!("differs: {e:?}");
            }
        }
        Err("the reference table does not reproduce".into())
    }
}
