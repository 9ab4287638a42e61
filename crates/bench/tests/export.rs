//! Export-layer integration tests: trace determinism (across runs and
//! thread-pool sizes), summary-schema round-trip, baseline tracing, and
//! the `repro` / `cost-guard` binaries end to end.

use pim_sim::Json;
use pimtrie_bench::{cost_guard, export};
use std::process::Command;

#[test]
fn trace_jsonl_is_byte_identical_across_runs_and_pool_sizes() {
    let jsonl = || export::trace_all(4, true).tracer.to_jsonl();
    let a = export::trace_all(4, true).tracer;
    let b = export::trace_all(4, true).tracer;
    assert_eq!(
        a.to_jsonl(),
        b.to_jsonl(),
        "same seed/P must give identical traces"
    );
    assert_eq!(a.summary_json().dump(), b.summary_json().dump());

    // pool size must not leak into the trace: these are real worker
    // pools (1 thread vs 8), so this asserts that genuinely concurrent
    // module dispatch and batch work cannot perturb a single trace byte
    let one = pim_trie::with_threads(1, jsonl);
    let many = pim_trie::with_threads(8, jsonl);
    assert_eq!(one, many, "trace must not depend on pool size");
    assert_eq!(one, a.to_jsonl());
}

/// The phase rows are the only attribution of a trace, so they must add
/// up to what the meters counted over the same window — through the
/// faulted tail's retransmits and journal rebuild too.
#[test]
fn phase_rows_and_timeline_conserve_the_metered_window() {
    let run = export::trace_all(4, true);
    let rows = run.tracer.phase_summaries();
    assert!(rows
        .iter()
        .any(|r| r.phase == pim_sim::RETRANSMIT_PHASE && r.rounds > 0));
    assert!(rows.iter().any(|r| r.op == "recovery" && r.rounds > 0));

    let d = &run.delta;
    let (mut io, mut work) = (
        vec![0; d.io_per_module.len()],
        vec![0; d.pim_per_module.len()],
    );
    for r in &rows {
        for (m, w) in r.io_per_module().iter().enumerate() {
            io[m] += w;
        }
        for (m, w) in r.work.iter().enumerate() {
            work[m] += w;
        }
    }
    assert_eq!(io, d.io_per_module);
    assert_eq!(work, d.pim_per_module);
    assert_eq!(rows.iter().map(|r| r.rounds).sum::<u64>(), d.io_rounds);
    assert_eq!(rows.iter().map(|r| r.io_time).sum::<u64>(), d.io_time);
    assert_eq!(rows.iter().map(|r| r.pim_time).sum::<u64>(), d.pim_time);

    let tl = obs::Timeline::from_phases(&rows);
    let lanes = tl.lanes();
    let lane_io: Vec<u64> = lanes.iter().map(|l| l.sent + l.received).collect();
    let lane_busy: Vec<u64> = lanes.iter().map(|l| l.busy).collect();
    assert_eq!(lane_io, d.io_per_module);
    assert_eq!(lane_busy, d.pim_per_module);
    assert_eq!(
        (tl.rounds(), tl.io_time(), tl.pim_time()),
        (d.io_rounds, d.io_time, d.pim_time)
    );
    // each round with PIM time credits exactly one barrier
    let barriers: u64 = lanes.iter().map(|l| l.barriers_set).sum();
    let worked = run
        .tracer
        .events()
        .iter()
        .filter(|e| e.pim_time > 0)
        .count();
    assert_eq!(barriers, worked as u64);
}

#[test]
fn summary_schema_round_trips() {
    let rows = pimtrie_bench::skew(4, true);
    let summary = export::summary(4, true, vec![export::record("skew", &rows)]);
    let text = summary.dump();
    let parsed = Json::parse(&text).expect("own dump must parse");
    assert_eq!(parsed.dump(), text, "dump → parse → dump is a fixpoint");
    // a parsed summary compares clean against its source
    assert!(cost_guard::compare(&summary, &parsed, 0.0).is_empty());
    // and the fields survive: experiment name, row labels, column values
    let exps = parsed.get("experiments").and_then(|e| e.as_arr()).unwrap();
    assert_eq!(exps.len(), 1);
    assert_eq!(
        exps[0].get("experiment").and_then(|n| n.as_str()),
        Some("skew")
    );
    let got_rows = exps[0].get("rows").and_then(|r| r.as_arr()).unwrap();
    assert_eq!(got_rows.len(), rows.len());
    for (row, jrow) in rows.iter().zip(got_rows) {
        assert_eq!(
            jrow.get("label").and_then(|l| l.as_str()),
            Some(row.label.as_str())
        );
        let cols = jrow.get("cols").unwrap();
        for (name, v) in &row.cols {
            assert_eq!(cols.get(name).and_then(|x| x.as_num()), Some(*v));
        }
    }
}

#[test]
fn baseline_batch_ops_are_traced() {
    use baselines::{DistRadixTree, DistXFastTrie, RangePartitioned};
    let keys = workloads::uniform_fixed(512, 64, 31);
    let vals: Vec<u64> = (0..keys.len() as u64).collect();

    let mut radix = DistRadixTree::build(4, 4, 2, &keys, &vals);
    radix.system_mut().metrics_mut().enable_tracing();
    let _ = radix.lcp_batch(&keys[..128]);
    let _ = radix.get_batch(&keys[..128]);
    check_ops(
        radix
            .system_mut()
            .metrics_mut()
            .take_tracer()
            .unwrap()
            .as_ref(),
        &["get", "lcp"],
    );

    let ints: Vec<u64> = keys.iter().map(|k| k.to_u64()).collect();
    let mut xf = DistXFastTrie::new(4, 64, 3);
    xf.system_mut().metrics_mut().enable_tracing();
    xf.insert_batch(&ints);
    let _ = xf.lcp_batch(&ints[..128]);
    check_ops(
        xf.system_mut()
            .metrics_mut()
            .take_tracer()
            .unwrap()
            .as_ref(),
        &["insert", "lcp"],
    );

    let mut range = RangePartitioned::build(4, &keys, &vals);
    range.system_mut().metrics_mut().enable_tracing();
    range.insert_batch(&keys[..64], &vals[..64]);
    let _ = range.lcp_batch(&keys[..128]);
    let _ = range.get_batch(&keys[..128]);
    check_ops(
        range
            .system_mut()
            .metrics_mut()
            .take_tracer()
            .unwrap()
            .as_ref(),
        &["get", "insert", "lcp"],
    );
}

fn check_ops(tracer: &pim_sim::Tracer, want: &[&str]) {
    let ops: std::collections::BTreeSet<&str> =
        tracer.events().iter().map(|e| e.op.as_str()).collect();
    for op in want {
        assert!(ops.contains(op), "op '{op}' missing: {ops:?}");
    }
    for e in tracer.events() {
        assert_ne!(e.op, "-", "unattributed round {:?}", e.round);
        assert!(
            e.phase.starts_with(&format!("{}/", e.op)),
            "phase {:?} not scoped to op {:?}",
            e.phase,
            e.op
        );
    }
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pimtrie_export_{}_{name}", std::process::id()))
}

#[test]
fn repro_json_has_a_record_per_experiment() {
    let out = tmp_path("repro.json");
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--p", "4", "skew", "batch", "space-balance"])
        .arg("--json")
        .arg(&out)
        .status()
        .expect("repro runs");
    assert!(status.success());
    let summary = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    std::fs::remove_file(&out).ok();
    assert_eq!(
        summary.get("schema_version").and_then(|v| v.as_num()),
        Some(export::SCHEMA_VERSION as f64)
    );
    let exps = summary.get("experiments").and_then(|e| e.as_arr()).unwrap();
    let names: Vec<&str> = exps
        .iter()
        .filter_map(|e| e.get("experiment").and_then(|n| n.as_str()))
        .collect();
    assert_eq!(names, ["skew", "space-balance", "batch"]);
    for e in exps {
        let rows = e.get("rows").and_then(|r| r.as_arr()).unwrap();
        assert!(!rows.is_empty(), "empty record: {}", e.dump());
    }
}

#[test]
fn cost_guard_binary_gates_round_drift() {
    let rows = pimtrie_bench::batch_size(4, true);
    let summary = export::summary(4, true, vec![export::record("batch", &rows)]);
    let base = tmp_path("base.json");
    let cur = tmp_path("cur.json");
    std::fs::write(&base, summary.dump()).unwrap();

    // identical files pass
    std::fs::write(&cur, summary.dump()).unwrap();
    let ok = Command::new(env!("CARGO_BIN_EXE_cost-guard"))
        .arg("--baseline")
        .arg(&base)
        .arg("--current")
        .arg(&cur)
        .status()
        .unwrap();
    assert!(ok.success());

    // a single round-count bump fails with exit code 1
    let drift = summary
        .dump()
        .replacen("\"io_rounds\":", "\"io_rounds\":1", 1);
    assert_ne!(drift, summary.dump());
    std::fs::write(&cur, drift).unwrap();
    let bad = Command::new(env!("CARGO_BIN_EXE_cost-guard"))
        .arg("--baseline")
        .arg(&base)
        .arg("--current")
        .arg(&cur)
        .status()
        .unwrap();
    assert_eq!(bad.code(), Some(1));
    std::fs::remove_file(&base).ok();
    std::fs::remove_file(&cur).ok();
}
