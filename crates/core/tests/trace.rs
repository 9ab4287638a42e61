//! Trace coverage and zero-perturbation guarantees: every public batch
//! op and the fault-recovery paths appear in the event log under named
//! `op/phase` scopes, and enabling tracing leaves every metered counter
//! bit-identical.

use bitstr::BitStr;
use pim_trie::{CrashSpec, FaultPlan, PimTrie, PimTrieConfig};
use std::collections::BTreeSet;

fn values_for(keys: &[BitStr]) -> Vec<u64> {
    (0..keys.len() as u64).collect()
}

/// The canonical mixed workload: all five ops, then a faulted insert with
/// retransmits and a state-losing crash (journal rebuild).
fn run_all_ops(t: &mut PimTrie, p: usize, n: usize) {
    let keys = workloads::uniform_fixed(n, 96, 91);
    t.insert_batch(&keys, &values_for(&keys));
    let _ = t.lcp_batch(&workloads::uniform_fixed(n / 2, 96, 93));
    let _ = t.get_batch(&keys[..n / 4]);
    let prefixes: Vec<BitStr> = keys
        .iter()
        .step_by(64)
        .map(|k| k.slice(0..12).to_bitstr())
        .collect();
    let _ = t.subtree_batch(&prefixes);
    let dels: Vec<BitStr> = keys.iter().step_by(4).cloned().collect();
    let _ = t.delete_batch(&dels);
    t.install_faults(
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
    t.insert_batch(&keys2, &vals2);
    t.clear_faults();
}

fn faulty_trie(p: usize) -> PimTrie {
    PimTrie::new(
        PimTrieConfig::for_modules(p)
            .with_seed(92)
            .with_fault_tolerance(true)
            .with_max_round_retries(64),
    )
}

#[test]
fn all_ops_and_recovery_traced_with_named_phases() {
    let p = 8;
    let mut t = faulty_trie(p);
    t.enable_tracing();
    run_all_ops(&mut t, p, 1 << 10);

    let tracer = t
        .system_mut()
        .metrics_mut()
        .take_tracer()
        .expect("tracing was enabled");
    let ops: BTreeSet<&str> = tracer.events().iter().map(|e| e.op.as_str()).collect();
    for op in [
        "build", "lcp", "insert", "delete", "subtree", "get", "recovery",
    ] {
        assert!(ops.contains(op), "op '{op}' missing from trace: {ops:?}");
    }
    // every round is attributed: an op span is open and the phase carries
    // the op-qualified `op/suffix` form — never the bare round-name
    // fallback ("unknown" phases) and never an op-less round
    for e in tracer.events() {
        assert_ne!(e.op, "-", "unattributed round {:?}", e.round);
        assert!(
            e.phase.contains('/'),
            "bare phase {:?} on round {:?}",
            e.phase,
            e.round
        );
        assert!(
            e.phase.starts_with(&format!("{}/", e.op)) || e.phase == pim_sim::RETRANSMIT_PHASE,
            "phase {:?} not scoped to op {:?}",
            e.phase,
            e.op
        );
    }
    // both fault-recovery paths showed up: sealed-round retransmits and
    // the journal rebuild's reset phase
    assert!(tracer
        .events()
        .iter()
        .any(|e| e.phase == pim_sim::RETRANSMIT_PHASE));
    assert!(tracer
        .events()
        .iter()
        .any(|e| e.op == "recovery" && e.phase == "recovery/reset"));
    // the per-phase summary keeps the attribution too
    for ph in tracer.phase_summaries() {
        assert_ne!(ph.op, "-", "summary scope without op: {:?}", ph.phase);
    }
}

#[test]
fn trace_bytes_are_identical_across_thread_counts() {
    // The JSONL event log is ordered by round sequence, and each event's
    // per-module columns are collected by module index — so a trace of
    // the full op mix (faults, retransmits, and a journal rebuild
    // included) must not differ by a byte between a single-threaded and
    // a multi-threaded pool.
    let p = 8;
    let trace_at = |threads: usize| {
        pim_trie::with_threads(threads, || {
            let mut t = faulty_trie(p);
            t.enable_tracing();
            run_all_ops(&mut t, p, 1 << 9);
            t.system_mut()
                .metrics_mut()
                .take_tracer()
                .expect("tracing was enabled")
                .to_jsonl()
        })
    };
    let one = trace_at(1);
    let eight = trace_at(8);
    assert!(!one.is_empty(), "trace is empty");
    assert_eq!(one, eight, "JSONL trace bytes depend on thread count");
}

#[test]
fn tracing_leaves_all_counters_identical() {
    let p = 8;
    let run = |trace: bool| {
        let mut t = faulty_trie(p);
        let snap = t.system().metrics().snapshot();
        if trace {
            t.enable_tracing();
        }
        run_all_ops(&mut t, p, 1 << 9);
        let d = t.system().metrics().since(&snap);
        let fs = t.system().metrics().fault_stats().clone();
        (
            d.io_rounds,
            d.io_time,
            d.pim_time,
            d.cpu_work,
            d.io_per_module,
            d.pim_per_module,
            fs,
        )
    };
    assert_eq!(run(false), run(true));
}

/// The innermost open op span: `"-"` once every span has closed.
fn open_op(t: &PimTrie) -> &'static str {
    t.system()
        .metrics()
        .tracer()
        .expect("tracing was enabled")
        .current_op()
}

#[test]
fn op_spans_close_on_every_exit() {
    let p = 8;
    let keys = workloads::uniform_fixed(256, 96, 95);

    // an error exit: every reply is dropped and no retry is allowed, so
    // the op fails with recovery exhausted
    let mut t = PimTrie::new(
        PimTrieConfig::for_modules(p)
            .with_seed(96)
            .with_fault_tolerance(true)
            .with_max_round_retries(0),
    );
    t.insert_batch(&keys, &values_for(&keys));
    t.enable_tracing();
    t.install_faults(FaultPlan::new(3).with_drop_rate(1.0));
    assert!(t.try_lcp_batch(&keys).is_err(), "recovery did not give up");
    assert_eq!(open_op(&t), "-");

    // a crash mid-insert: the journal rebuild nests `recovery` and its
    // `build` inside the insert, and all three spans close
    let mut t = faulty_trie(p);
    t.insert_batch(&keys, &values_for(&keys));
    t.enable_tracing();
    t.install_faults(FaultPlan::new(4).with_crash(CrashSpec {
        round: 1,
        module: p / 2,
        down_rounds: 1,
        state_loss: true,
    }));
    let more = workloads::uniform_fixed(64, 96, 97);
    t.insert_batch(&more, &values_for(&more));
    t.clear_faults();
    assert_eq!(open_op(&t), "-");
    let tracer = t.system().metrics().tracer().expect("tracing was enabled");
    for op in ["insert", "recovery", "build"] {
        assert!(
            tracer.events().iter().any(|e| e.op == op),
            "no round ran under '{op}'"
        );
    }
}
