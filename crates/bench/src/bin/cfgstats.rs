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

use tp_bench::json::Json;
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
        let mut docs: Vec<Json> = workloads.iter().map(report_json).collect();
        let doc = if single { docs.remove(0) } else { Json::Arr(docs) };
        print!("{doc}");
        return;
    }

    let mut findings = 0usize;
    for w in &workloads {
        let analysis = CfgAnalysis::build(&w.program);
        let r = CfgReport::build(&w.program, &analysis);
        findings += r.lint.len();
        let (dist, region) = samples(&r);
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
            pct(&dist, 50),
            pct(&dist, 100),
            pct(&region, 50),
            pct(&region, 100),
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

/// Sorted re-convergence distances (absolute) and control-dependent region
/// sizes, each over the branches that have one.
fn samples(r: &CfgReport) -> (Vec<u64>, Vec<u64>) {
    let sorted = |mut v: Vec<u64>| {
        v.sort_unstable();
        v
    };
    let dist = r.branches.iter().filter_map(|b| b.distance).map(i64::unsigned_abs);
    let region = r.branches.iter().filter_map(|b| b.region_size).map(|s| s as u64);
    (sorted(dist.collect()), sorted(region.collect()))
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
fn report_json(w: &Workload) -> Json {
    let analysis = CfgAnalysis::build(&w.program);
    let r = CfgReport::build(&w.program, &analysis);
    let (dist, region) = samples(&r);
    let spread = |s: &[u64]| {
        Json::obj([
            ("p50", pct(s, 50).into()),
            ("p90", pct(s, 90).into()),
            ("max", pct(s, 100).into()),
        ])
    };
    let mut branches = Json::obj([("total", r.branches.len().into())]);
    for k in BranchKind::ALL {
        branches.push(k.label(), r.count(k));
    }
    Json::obj([
        ("schema", "tp-bench/cfgstats/v1".into()),
        ("workload", r.name.as_str().into()),
        ("frontend", format!("{:?}", w.frontend).into()),
        ("insts", r.insts.into()),
        ("functions", r.functions.into()),
        ("reachable_insts", r.reachable_insts.into()),
        ("loops", r.loops.into()),
        ("max_loop_depth", r.max_loop_depth.into()),
        ("indirect_sites", r.indirect_sites.into()),
        ("resolved_indirect_sites", r.resolved_indirect_sites.into()),
        ("branches", branches),
        ("reconv_distance", spread(&dist)),
        ("region_size", spread(&region)),
        ("lint", Json::Arr(r.lint.iter().map(|f| f.to_string().into()).collect())),
    ])
}
