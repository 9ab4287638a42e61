//! Algorithm 4's master table, held on the host: one entry per meta-block
//! root. Matching finds every query path's deepest meta-block root there,
//! with no IO, and sends one `match.meta` round straight to those
//! meta-blocks, so the descent costs at most one round at any n. The
//! lookup is exact only while every meta-block is a connected piece of the
//! block tree, so `audit_debug` checks that meta links follow the block
//! tree and that the table holds exactly one entry per live meta-block,
//! equal to that meta-block's own root entry. Every answer here is checked
//! against the sequential trie.

use bitstr::hash::HashWidth;
use bitstr::BitStr;
use pim_trie::{CrashSpec, FaultPlan, PimTrie, PimTrieConfig};
use trie_core::Trie;

fn values_from(base: u64, n: usize) -> Vec<u64> {
    (base..base + n as u64).collect()
}

/// Names of the rounds traced since the last call; tracing restarts.
fn rounds_since_clear(t: &mut PimTrie) -> Vec<String> {
    let m = t.system_mut().metrics_mut();
    let tracer = m.take_tracer().expect("tracing on");
    m.enable_tracing();
    tracer.events().iter().map(|ev| ev.round.clone()).collect()
}

fn count(rounds: &[String], name: &str) -> usize {
    rounds.iter().filter(|r| *r == name).count()
}

/// Insert in 1024-key batches, so repartitions re-cut blocks that already
/// have children, and mirror every key into the oracle.
fn load(t: &mut PimTrie, oracle: &mut Trie, keys: &[BitStr], base: u64) {
    let values = values_from(base, keys.len());
    for (k, v) in keys.chunks(1024).zip(values.chunks(1024)) {
        t.insert_batch(k, v);
    }
    for (k, v) in keys.iter().zip(&values) {
        oracle.insert(k, *v);
    }
}

fn delete(t: &mut PimTrie, oracle: &mut Trie, keys: &[BitStr]) {
    t.delete_batch(keys);
    for k in keys {
        oracle.delete(k.as_slice());
    }
}

/// The audit is clean and `lcp` and `get` answer every probe as the
/// oracle does.
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

/// Stored keys, prefixes of them and strings off the stored set.
fn probes(keys: &[BitStr], seed: u64) -> Vec<BitStr> {
    let mut out: Vec<BitStr> = keys.iter().step_by(keys.len() / 256).cloned().collect();
    out.extend(
        keys.iter()
            .step_by(keys.len() / 64)
            .map(|k| k.slice(0..k.len() / 2).to_bitstr()),
    );
    out.extend(workloads::uniform_var(128, 8, 96, seed));
    out
}

#[test]
fn reads_take_one_meta_and_one_block_round_at_every_n() {
    for lg in [11, 13, 15] {
        let cfg = PimTrieConfig::for_modules(8).with_seed(38);
        let mut t = PimTrie::new(cfg);
        let mut oracle = Trie::new();
        let keys = workloads::uniform_fixed(1 << lg, 64, 380 + lg);
        load(&mut t, &mut oracle, &keys, 0);
        let height = t.meta_levels_debug().len();
        let batch = probes(&keys, 390 + lg);
        // the first reads fill the resident set; the rest are warm
        check(&mut t, &oracle, &batch, "load");
        t.enable_tracing();
        for op in ["lcp", "get"] {
            rounds_since_clear(&mut t);
            if op == "lcp" {
                let want: Vec<usize> = batch
                    .iter()
                    .map(|q| oracle.lcp(q.as_slice()).lcp_bits)
                    .collect();
                assert_eq!(t.lcp_batch(&batch), want, "n=2^{lg}");
            } else {
                let want: Vec<Option<u64>> =
                    batch.iter().map(|q| oracle.get(q.as_slice())).collect();
                assert_eq!(t.get_batch(&batch), want, "n=2^{lg}");
            }
            let rounds = rounds_since_clear(&mut t);
            let meta = count(&rounds, "match.meta");
            assert!(meta <= 1, "{op} at n=2^{lg}, height {height}: {rounds:?}");
            assert_eq!(t.last_match_stats().descend_rounds, meta as u64);
            assert_eq!(count(&rounds, "match.block"), 1, "{op}: {rounds:?}");
            assert_eq!(t.last_match_stats().redo_paths, 0, "{op} at n=2^{lg}");
        }
        assert!(height >= 2, "n=2^{lg}: a one-level tree proves nothing");
        assert_eq!(t.master_entries(), meta_blocks(&t));
    }
}

fn meta_blocks(t: &PimTrie) -> usize {
    t.system().modules().map(|m| m.metas.len()).sum()
}

#[test]
fn churn_that_splits_and_merges_meta_blocks_keeps_links_and_table_exact() {
    // a small block bound: many blocks, many meta-blocks, deep trees
    let cfg = PimTrieConfig::for_modules(8).with_seed(7).with_k_b(64);
    let mut t = PimTrie::new(cfg);
    t.enable_tracing();
    let mut oracle = Trie::new();
    let base = workloads::zipf_prefixes(1 << 12, 96, 5, 1.2, 71);
    load(&mut t, &mut oracle, &base, 0);
    let probes = probes(&base, 72);
    check(&mut t, &oracle, &probes, "load");
    let mut rounds = rounds_since_clear(&mut t);
    for cycle in 0..4u64 {
        let fresh = workloads::uniform_var(1 << 11, 8, 96, 700 + cycle);
        load(&mut t, &mut oracle, &fresh, 1 << 20);
        check(&mut t, &oracle, &probes, &format!("insert {cycle}"));
        delete(&mut t, &mut oracle, &fresh);
        let old: Vec<BitStr> = base
            .iter()
            .skip(cycle as usize)
            .step_by(4)
            .cloned()
            .collect();
        delete(&mut t, &mut oracle, &old);
        check(&mut t, &oracle, &probes, &format!("delete {cycle}"));
        rounds.extend(rounds_since_clear(&mut t));
    }
    assert!(count(&rounds, "msplit.place") > 0, "no meta-block split");
    assert!(
        count(&rounds, "merge.meta.drop") > 0,
        "no meta-block dropped"
    );
    assert_eq!(t.master_entries(), meta_blocks(&t));
}

#[test]
fn crash_rebuild_restores_links_and_table() {
    let cfg = PimTrieConfig::for_modules(8)
        .with_seed(11)
        .with_k_b(128)
        .with_fault_tolerance(true)
        .with_max_round_retries(64);
    let mut t = PimTrie::new(cfg);
    let mut oracle = Trie::new();
    let keys = workloads::uniform_var(1 << 12, 8, 96, 111);
    load(&mut t, &mut oracle, &keys, 0);
    let probes = probes(&keys, 112);
    check(&mut t, &oracle, &probes, "load");
    t.install_faults(FaultPlan::new(13).with_crash(CrashSpec {
        round: 2,
        module: 3,
        down_rounds: 1,
        state_loss: true,
    }));
    let extra = workloads::uniform_var(256, 8, 96, 113);
    load(&mut t, &mut oracle, &extra, 1 << 20);
    assert!(
        t.system().metrics().fault_stats().rebuilds > 0,
        "the crash forced no rebuild"
    );
    t.clear_faults();
    check(&mut t, &oracle, &probes, "journal rebuild");
    assert_eq!(t.master_entries(), meta_blocks(&t));
}

#[test]
fn two_bit_digests_stay_exact() {
    // 2-bit digests: the table's first layer collides constantly; the
    // matches it hands out are verified like any other, and the paths
    // they mislead are redone exactly
    let cfg = PimTrieConfig::for_modules(8)
        .with_seed(2)
        .with_k_b(64)
        .with_hash_width(HashWidth(2));
    let mut t = PimTrie::new(cfg);
    let mut oracle = Trie::new();
    let keys = workloads::uniform_var(1 << 12, 4, 160, 21);
    load(&mut t, &mut oracle, &keys, 0);
    let probes = probes(&keys, 22);
    let redo = t.redo_paths();
    check(&mut t, &oracle, &probes, "load");
    assert!(t.redo_paths() > redo, "no path was redone");
    let dels: Vec<BitStr> = keys.iter().step_by(3).cloned().collect();
    delete(&mut t, &mut oracle, &dels);
    check(&mut t, &oracle, &probes, "delete");
    let prefixes: Vec<BitStr> = keys
        .iter()
        .step_by(97)
        .map(|k| k.slice(0..k.len().min(12)).to_bitstr())
        .collect();
    let got = t.subtree_batch(&prefixes);
    for (p, sub) in prefixes.iter().zip(got) {
        let mut want: Vec<(BitStr, u64)> = oracle
            .items()
            .into_iter()
            .filter(|(k, _)| k.starts_with(p))
            .collect();
        let mut have = sub.map(|s| s.items()).unwrap_or_default();
        want.sort();
        have.sort();
        assert_eq!(have, want, "subtree of {p}");
    }
}
