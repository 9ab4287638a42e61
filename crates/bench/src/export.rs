//! JSON export of experiment results and the canonical traced run.
//!
//! Everything here is deterministic for a fixed seed and module count:
//! the simulator has no wall clocks, row order is the experiment's own
//! iteration order, and [`Json::dump`] preserves insertion order. The
//! `cost-guard` binary (see [`crate::cost_guard`]) diffs two summary
//! files produced by [`summary`] and fails CI on unexplained drift.

use crate::{values_for, Row};
use bitstr::BitStr;
use pim_sim::{Json, MetricsDelta, Tracer};
use pim_trie::{CrashSpec, FaultPlan, PimTrie, PimTrieConfig};

/// Version stamp of the `BENCH_repro.json` schema. Bump on any change to
/// the record layout so `cost-guard` refuses cross-version comparisons
/// instead of reporting nonsense drift.
pub const SCHEMA_VERSION: u64 = 1;

/// One experiment's rows as a JSON record:
/// `{"experiment": name, "rows": [{"label": ..., "cols": {...}}]}`.
pub fn record(experiment: &str, rows: &[Row]) -> Json {
    let row_objs: Vec<Json> = rows
        .iter()
        .map(|r| {
            let cols = r
                .cols
                .iter()
                .map(|(name, v)| ((*name).to_string(), Json::Num(*v)))
                .collect();
            Json::obj(vec![
                ("label", Json::str(r.label.clone())),
                ("cols", Json::Obj(cols)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("experiment", Json::str(experiment)),
        ("rows", Json::Arr(row_objs)),
    ])
}

/// The whole-run summary written to `BENCH_repro.json`: schema version,
/// run parameters, and one [`record`] per experiment executed.
pub fn summary(p: usize, quick: bool, records: Vec<Json>) -> Json {
    Json::obj(vec![
        ("schema_version", Json::num(SCHEMA_VERSION as f64)),
        ("p", Json::num(p as f64)),
        ("quick", Json::Bool(quick)),
        ("experiments", Json::Arr(records)),
    ])
}

/// A canonical traced run: the tracer (its [`Tracer::to_jsonl`] is the
/// event log, its [`Tracer::summary_json`] the per-phase summary) and the
/// counters the same window metered.
pub struct TraceRun {
    /// every round of the run, attributed to its op and phase
    pub tracer: Box<Tracer>,
    /// the metered counters over exactly the traced rounds
    pub delta: MetricsDelta,
}

/// Run every public batch op (`lcp`, `insert`, `delete`, `subtree`,
/// `get`) plus a faulted batch (retransmits and one state-losing crash →
/// journal rebuild) on a traced PIM-trie, and return the trace.
///
/// Deterministic for fixed `p`/`quick`: same seeds, no wall clocks —
/// two calls produce byte-identical event logs.
pub fn trace_all(p: usize, quick: bool) -> TraceRun {
    let n = if quick { 1 << 10 } else { 1 << 12 };
    let keys = workloads::uniform_fixed(n, 96, 91);
    let mut pim = PimTrie::new(
        PimTrieConfig::for_modules(p)
            .with_seed(92)
            .with_fault_tolerance(true)
            .with_max_round_retries(64),
    );
    pim.enable_tracing();
    let snap = pim.system().metrics().snapshot();
    pim.insert_batch(&keys, &values_for(&keys));
    let queries = workloads::uniform_fixed(n / 2, 96, 93);
    let _ = pim.lcp_batch(&queries);
    let _ = pim.get_batch(&keys[..n / 4]);
    let prefixes: Vec<BitStr> = keys
        .iter()
        .step_by(64)
        .map(|k| k.slice(0..12).to_bitstr())
        .collect();
    let _ = pim.subtree_batch(&prefixes);
    let dels: Vec<BitStr> = keys.iter().step_by(4).cloned().collect();
    let _ = pim.delete_batch(&dels);
    // the faulted tail: word flips + dropped replies force sealed-round
    // retransmits; the state-losing crash forces a journal rebuild, so
    // the recovery/* phases show up in every canonical trace
    pim.install_faults(
        FaultPlan::new(7)
            .with_flip_rate(1e-3)
            .with_drop_rate(1e-3)
            .with_crash(CrashSpec {
                // inside the faulted insert's five rounds (counted from 0)
                round: 4,
                module: p / 2,
                down_rounds: 1,
                state_loss: true,
            }),
    );
    let keys2 = workloads::uniform_fixed(n / 4, 96, 94);
    let vals2: Vec<u64> = (n as u64..).take(keys2.len()).collect();
    pim.insert_batch(&keys2, &vals2);
    pim.clear_faults();
    let delta = pim.system().metrics().since(&snap);
    let tracer = pim
        .system_mut()
        .metrics_mut()
        .take_tracer()
        .expect("tracing was enabled above");
    TraceRun { tracer, delta }
}
