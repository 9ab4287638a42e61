//! Matching starts at `PimTrie::root_meta` without asking any module, so
//! that address must keep naming the live meta-block whose root node
//! describes the root block through everything that rewrites the meta
//! tree. `audit_debug` reports when it does not; this drives one index
//! through each rewrite in turn — insert-driven meta splits, delete-driven
//! merges, an adaptive migration pass, a crash with a journal rebuild —
//! and checks the audit and `lcp`/`get` against the sequential trie after
//! each.

use bitstr::BitStr;
use pim_trie::{CrashSpec, FaultPlan, PimTrie, PimTrieConfig};
use trie_core::Trie;

/// Audit clean, and every probe answered as the oracle answers it.
fn check(t: &mut PimTrie, oracle: &Trie, probes: &[BitStr], stage: &str) {
    assert_eq!(t.audit_debug(), Vec::<String>::new(), "audit after {stage}");
    assert_eq!(t.len(), oracle.n_keys(), "key count after {stage}");
    let lcp: Vec<usize> = probes
        .iter()
        .map(|q| oracle.lcp(q.as_slice()).lcp_bits)
        .collect();
    assert_eq!(t.lcp_batch(probes), lcp, "lcp after {stage}");
    let get: Vec<Option<u64>> = probes.iter().map(|q| oracle.get(q.as_slice())).collect();
    assert_eq!(t.get_batch(probes), get, "get after {stage}");
}

/// Names of the rounds run since the log was last cleared.
fn rounds_since_clear(t: &mut PimTrie) -> Vec<String> {
    let log = std::mem::take(&mut t.system_mut().metrics_mut().round_log);
    log.into_iter().map(|r| r.name).collect()
}

#[test]
fn root_meta_survives_splits_merges_migration_and_rebuild() {
    // few hot buckets, a block bound that keeps each in few blocks and
    // all-push routing: the setting adaptive blocking migrates under
    let cfg = PimTrieConfig::for_modules(8)
        .with_seed(42)
        .with_k_b(256)
        .with_push_threshold(u64::MAX)
        .with_adapt(0.05)
        .with_fault_tolerance(true)
        .with_max_round_retries(64);
    let mut t = PimTrie::new(cfg);
    t.system_mut().metrics_mut().set_round_logging(true);
    let mut oracle = Trie::new();

    let keys = workloads::zipf_prefixes(1 << 11, 96, 4, 2.5, 17);
    let mut probes: Vec<BitStr> = keys.iter().step_by(3).cloned().collect();
    probes.extend(workloads::uniform_fixed(200, 96, 18));

    // insert-driven meta splits
    let values: Vec<u64> = (0..keys.len() as u64).collect();
    t.insert_batch(&keys, &values);
    for (k, v) in keys.iter().zip(&values) {
        oracle.insert(k, *v);
    }
    let rounds = rounds_since_clear(&mut t);
    assert!(
        rounds.iter().any(|r| r == "msplit.fetch"),
        "no meta-block split while loading"
    );
    check(&mut t, &oracle, &probes, "meta splits");

    // delete-driven merges, down to dropping emptied meta-blocks
    let dels: Vec<BitStr> = keys.iter().skip(64).cloned().collect();
    t.delete_batch(&dels);
    for k in &dels {
        oracle.delete(k.as_slice());
    }
    let rounds = rounds_since_clear(&mut t);
    assert!(
        rounds.iter().any(|r| r == "merge.meta.drop"),
        "no meta-block emptied by the merges"
    );
    check(&mut t, &oracle, &probes, "merges");

    // adaptive migration: reload, then hammer one hot slice
    t.insert_batch(&keys, &values);
    for (k, v) in keys.iter().zip(&values) {
        oracle.insert(k, *v);
    }
    let hot: Vec<BitStr> = keys.iter().step_by(3).cycle().take(2048).cloned().collect();
    for _ in 0..8 {
        let _ = t.lcp_batch(&hot);
    }
    let s = t.adapt_stats().clone();
    assert!(s.migrations > 0, "no block migrated: {s:?}");
    check(&mut t, &oracle, &probes, "migration");

    // crash with state loss: the journal rebuild bootstraps a new root
    t.install_faults(FaultPlan::new(11).with_crash(CrashSpec {
        round: 3,
        module: 5,
        down_rounds: 1,
        state_loss: true,
    }));
    let extra = workloads::uniform_fixed(64, 96, 19);
    let ev: Vec<u64> = (10_000..10_064).collect();
    t.insert_batch(&extra, &ev);
    for (k, v) in extra.iter().zip(&ev) {
        oracle.insert(k, *v);
    }
    assert!(
        t.system().metrics().fault_stats().rebuilds > 0,
        "the crash forced no rebuild"
    );
    t.clear_faults();
    check(&mut t, &oracle, &probes, "journal rebuild");
}
