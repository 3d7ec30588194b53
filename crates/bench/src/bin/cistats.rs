//! Diagnostic: recovery statistics and the misprediction outcome-attribution
//! ledger, per CI model, for one workload.
//!
//! Usage: `cistats [WORKLOAD] [MODEL] [--json]` — with a model name
//! (`base`, `RET`, `MLB-RET`, `FG`, `FG+MLB-RET`) prints that cell's full
//! attribution table, predictor introspection, and per-PC misprediction
//! provenance (which branches mispredicted, and whether their wrong
//! embedded outcome came from a next-trace prediction or a BTB-driven
//! fallback construction); without one, prints the per-model summary plus
//! every model's table. `--json` switches the single-model output to a
//! machine-readable document (the attribution array uses the same cell
//! schema as `BENCH_speed.json`).

use std::collections::HashMap;

use tp_bench::cli;
use tp_bench::json::Json;
use tp_bench::runner::run_cell;
use tp_bench::speed::predictor_json;
use tp_core::{CiModel, TraceProcessor, TraceProcessorConfig};
use tp_isa::Pc;
use tp_trace::SelectionConfig;

fn main() {
    let (positional, json) = cli::positional_and_switch("--json");
    let name = positional.first().cloned().unwrap_or_else(|| "compress".into());
    let model_arg = positional.get(1).cloned();
    let w = cli::workload(&name, tp_workloads::Size::Full);
    if json && model_arg.is_none() {
        cli::usage_error("--json requires a model (base|RET|MLB-RET|FG|FG+MLB-RET)");
    }
    if let Some(m) = model_arg {
        let model = cli::parse_model(&m).unwrap_or_else(|e| cli::usage_error(e));
        let mut cfg = TraceProcessorConfig::paper(model);
        cfg.log_mispredicts = true;
        let mut sim = TraceProcessor::new(&w.program, cli::validated(cfg, model.name()));
        let run = run_cell(&mut sim, &name, model.name()).result;
        let s = run.stats;
        if json {
            let doc = Json::obj([
                ("schema", "tp-bench/cistats/v1".into()),
                ("workload", name.as_str().into()),
                ("model", model.name().into()),
                ("ipc", s.ipc().into()),
                ("cycles", s.cycles.into()),
                ("retired_instrs", s.retired_instrs.into()),
                ("retired_cond_branches", s.retired_cond_branches.into()),
                ("retired_cond_mispredicts", s.retired_cond_mispredicts.into()),
                ("branch_misp_rate_pct", s.branch_misp_rate().into()),
                ("predictor", predictor_json(&run.predictor)),
                ("attribution", run.attribution.to_json()),
            ]);
            print!("{doc}");
            return;
        }
        println!(
            "{name} {}: ipc {:.3} brmisp {:.2}% ({} / {})",
            model.name(),
            s.ipc(),
            s.branch_misp_rate(),
            s.retired_cond_mispredicts,
            s.retired_cond_branches
        );
        print!("{}", run.attribution.table());
        let p = run.predictor;
        println!(
            "predictor: {} predictions ({} path, {} simple, {} none); pollution: path {} evictions / {} repoints, simple {} / {}",
            p.predictions,
            p.path_hits,
            p.simple_hits,
            p.no_prediction,
            p.path_tag_evictions,
            p.path_repoints,
            p.simple_tag_evictions,
            p.simple_repoints,
        );
        // Per-PC provenance of confirmed mispredictions: `beyond-depth`
        // counts wrong outcomes past the predicted id's branches (BTB/
        // fallback-predicted), `fallback` those in traces built with no
        // next-trace prediction at all.
        let mut per_pc: HashMap<Pc, (u64, u64, u64)> = HashMap::new();
        for rec in sim.mispredict_log() {
            let e = per_pc.entry(rec.pc).or_default();
            e.0 += 1;
            if rec.branch_idx >= rec.id_branches {
                e.1 += 1;
            }
            if rec.source == tp_core::pe::FetchSource::Fallback {
                e.2 += 1;
            }
        }
        let mut rows: Vec<_> = per_pc.into_iter().collect();
        rows.sort_by_key(|&(_, (n, _, _))| std::cmp::Reverse(n));
        println!("hottest mispredicting branches (confirmed recovery events):");
        let mut t =
            tp_stats::Table::new("pc", &["events", "beyond-id-depth", "in-fallback-trace", "inst"]);
        for (pc, (n, beyond, fallback)) in rows.iter().take(8) {
            t.row_text(
                format!("{pc}"),
                &[
                    n.to_string(),
                    beyond.to_string(),
                    fallback.to_string(),
                    format!("{:?}", w.program.fetch(*pc).expect("logged pc is in the program")),
                ],
            );
        }
        print!("{t}");
        return;
    }
    let base = tp_bench::run_selection(&w.program, SelectionConfig::base()).stats;
    println!(
        "base: ipc {:.2} brmisp {:.1}% trmisp {:.1}% fullsq {} len {:.1}",
        base.ipc(),
        base.branch_misp_rate(),
        base.trace_misp_rate(),
        base.full_squashes,
        base.avg_trace_len()
    );
    for &m in &CiModel::ALL[1..] {
        let r = tp_bench::run_model(&w.program, m);
        let s = r.stats;
        println!("{:>10}: ipc {:.2} ({:+.1}%) brmisp {:.1}% cgci {}/{} fgci {} fullsq {} reclaims {} redisp {} rebinds {} reissue {} (marks: val {} rebind {} snoop {})",
            m.name(), s.ipc(), 100.0*(s.ipc()-base.ipc())/base.ipc(), s.branch_misp_rate(),
            s.cgci_reconverged, s.cgci_attempts, s.fgci_recoveries, s.full_squashes,
            s.tail_reclaims, s.redispatched_traces, s.head_rebinds, s.reissue_events,
            s.value_change_marks, s.rebind_marks, s.load_snoop_reissues);
        print!("{}", r.attribution.table());
    }
}
