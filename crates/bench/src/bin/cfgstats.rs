//! Static control-independence opportunity report, per workload.
//!
//! Usage: `cfgstats [WORKLOAD] [--json]` — without a workload, prints a
//! one-line static summary for every workload of both suites (plus any
//! lint findings); with one, prints its full branch table. `--json`
//! switches to a machine-readable `tp-bench/cfgstats/v1` document (an
//! array when no workload is named).
//!
//! Everything here is computed by `tp-cfg` from the decoded program
//! alone — no simulation. The report is the *static ceiling* on what the
//! simulator's CGCI/FGCI heuristics can exploit dynamically; compare
//! against `cistats` for what they actually achieve.
//!
//! Exit status is non-zero iff any reported workload has lint findings,
//! so CI can run the text report as a corpus health check.

use tp_cfg::{BranchKind, CfgAnalysis, CfgReport};
use tp_workloads::{Size, Workload};

fn main() {
    let (positional, json) = tp_bench::cli::positional_and_switch("--json");
    let workloads: Vec<Workload> = match positional.first() {
        Some(name) => vec![tp_bench::cli::workload(name, Size::Full)],
        None => tp_workloads::all_workloads(Size::Full),
    };
    let single = !positional.is_empty();

    if json {
        let docs: Vec<String> = workloads.iter().map(report_json).collect();
        if single {
            println!("{}", docs[0]);
        } else {
            println!("[\n{}\n]", docs.join(",\n"));
        }
        return;
    }

    let mut findings = 0usize;
    for w in &workloads {
        let analysis = CfgAnalysis::build(&w.program);
        let r = CfgReport::build(&w.program, &analysis);
        findings += r.lint.len();
        println!(
            "{:>10} ({:?}): {} insts, {} fns, {} loops (depth {}), {} branches \
             [loop {}+{} hammock {} fnexit {}], indirect {}/{} resolved, \
             reconv dist p50 {} max {}, region p50 {} max {}{}",
            r.name,
            w.frontend,
            r.insts,
            r.functions,
            r.loops,
            r.max_loop_depth,
            r.branches.len(),
            r.count(BranchKind::SingleExitLoop),
            r.count(BranchKind::MultiExitLoop),
            r.count(BranchKind::ForwardHammock),
            r.count(BranchKind::FunctionExit),
            r.resolved_indirect_sites,
            r.indirect_sites,
            pct(&dist_samples(&r), 50),
            pct(&dist_samples(&r), 100),
            pct(&region_samples(&r), 50),
            pct(&region_samples(&r), 100),
            if r.lint.is_empty() {
                String::new()
            } else {
                format!(", LINT {} findings", r.lint.len())
            },
        );
        for f in &r.lint {
            println!("           lint: {f}");
        }
        if single {
            println!("           branches:");
            for b in &r.branches {
                println!(
                    "             pc {:5} {:>17} reconv {:>5} dist {:>4} region {:>4} loop-depth {}",
                    b.pc,
                    b.kind.label(),
                    b.reconv.map_or("-".into(), |r| r.to_string()),
                    b.distance.map_or("-".into(), |d| d.to_string()),
                    b.region_size.map_or("-".into(), |s| s.to_string()),
                    b.loop_depth,
                );
            }
        }
    }
    if findings > 0 {
        std::process::exit(1);
    }
}

/// Sorted re-convergence distances (absolute) over branches that have one.
fn dist_samples(r: &CfgReport) -> Vec<u64> {
    let mut v: Vec<u64> =
        r.branches.iter().filter_map(|b| b.distance).map(i64::unsigned_abs).collect();
    v.sort_unstable();
    v
}

/// Sorted control-dependent region sizes over branches that have one.
fn region_samples(r: &CfgReport) -> Vec<u64> {
    let mut v: Vec<u64> =
        r.branches.iter().filter_map(|b| b.region_size).map(|s| s as u64).collect();
    v.sort_unstable();
    v
}

/// The `p`-th percentile of a sorted sample (100 = max); 0 when empty.
fn pct(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (sorted.len() - 1) * p / 100;
    sorted[idx]
}

/// One workload's `tp-bench/cfgstats/v1` JSON document.
fn report_json(w: &Workload) -> String {
    let analysis = CfgAnalysis::build(&w.program);
    let r = CfgReport::build(&w.program, &analysis);
    let dist = dist_samples(&r);
    let region = region_samples(&r);
    let kinds: Vec<String> =
        BranchKind::ALL.iter().map(|&k| format!("\"{}\": {}", k.label(), r.count(k))).collect();
    let lint: Vec<String> = r.lint.iter().map(|f| format!("\"{f}\"")).collect();
    format!(
        "{{\n  \"schema\": \"tp-bench/cfgstats/v1\",\n  \"workload\": \"{}\",\n  \
         \"frontend\": \"{:?}\",\n  \"insts\": {},\n  \"functions\": {},\n  \
         \"reachable_insts\": {},\n  \"loops\": {},\n  \"max_loop_depth\": {},\n  \
         \"indirect_sites\": {},\n  \"resolved_indirect_sites\": {},\n  \
         \"branches\": {{\"total\": {}, {}}},\n  \
         \"reconv_distance\": {{\"p50\": {}, \"p90\": {}, \"max\": {}}},\n  \
         \"region_size\": {{\"p50\": {}, \"p90\": {}, \"max\": {}}},\n  \
         \"lint\": [{}]\n}}",
        r.name,
        w.frontend,
        r.insts,
        r.functions,
        r.reachable_insts,
        r.loops,
        r.max_loop_depth,
        r.indirect_sites,
        r.resolved_indirect_sites,
        r.branches.len(),
        kinds.join(", "),
        pct(&dist, 50),
        pct(&dist, 90),
        pct(&dist, 100),
        pct(&region, 50),
        pct(&region, 90),
        pct(&region, 100),
        lint.join(", "),
    )
}
