//! Read rounds carry everything they can: the pulls and pushes of one
//! descent level share one `match.meta` round, block matching is one
//! `match.block` round, and a point lookup's values come back in its
//! block-match replies. Only a key whose block gave no answer (a flagged
//! key, or one anchored at a child block that matched no piece) pays a
//! `get.read` round. Answers are checked against the sequential trie.

use bitstr::hash::HashWidth;
use bitstr::BitStr;
use pim_trie::{FaultPlan, PimTrie, PimTrieConfig};
use trie_core::Trie;

fn values_from(base: u64, n: usize) -> Vec<u64> {
    (base..base + n as u64).collect()
}

fn build(cfg: PimTrieConfig, keys: &[BitStr]) -> (PimTrie, Trie) {
    let values = values_from(0, keys.len());
    let t = PimTrie::build(cfg, keys, &values);
    let mut oracle = Trie::new();
    for (k, v) in keys.iter().zip(&values) {
        oracle.insert(k, *v);
    }
    (t, oracle)
}

fn want(oracle: &Trie, keys: &[BitStr]) -> Vec<Option<u64>> {
    keys.iter().map(|k| oracle.get(k.as_slice())).collect()
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

/// Probes that end everywhere a key can: on stored keys, on strict
/// prefixes of them (at a branch node or mid-edge), past them, and off
/// the stored set.
fn probes(keys: &[BitStr]) -> Vec<BitStr> {
    let mut out = Vec::new();
    for (i, k) in keys.iter().enumerate().step_by(7) {
        out.push(k.clone());
        let cut = 1 + i % (k.len() - 1);
        out.push(k.slice(0..cut).to_bitstr());
        let mut longer = k.clone();
        longer.append(&BitStr::from_bin_str("0110").as_slice());
        out.push(longer);
    }
    out.extend(workloads::uniform_var(64, 8, 96, 404));
    out
}

/// Keys where many share long prefixes and some are prefixes of others,
/// so key ends land on branch nodes, leaves and block roots.
fn nested_keys() -> Vec<BitStr> {
    let mut keys = workloads::zipf_prefixes(1 << 11, 96, 4, 1.2, 21);
    let prefixes: Vec<BitStr> = keys
        .iter()
        .step_by(13)
        .map(|k| k.slice(0..40).to_bitstr())
        .collect();
    keys.extend(prefixes);
    keys.extend(workloads::uniform_var(256, 4, 80, 22));
    keys.sort();
    keys.dedup();
    keys
}

#[test]
fn pulls_and_pushes_of_a_level_share_one_round() {
    // a low push threshold pulls every contended target while the rest
    // are pushed; a skewed batch with many repeats contends: this one
    // both pulls and pushes in most descent levels and in block matching
    let cfg = PimTrieConfig::for_modules(8)
        .with_seed(5)
        .with_push_threshold(24);
    let keys = workloads::zipf_prefixes(1 << 12, 96, 6, 1.5, 31);
    let (mut t, oracle) = build(cfg, &keys);
    t.enable_tracing();
    let hot: Vec<BitStr> = keys.iter().step_by(5).take(64).cloned().collect();
    let mut batch: Vec<BitStr> = hot.iter().cycle().take(1 << 10).cloned().collect();
    batch.extend(workloads::uniform_fixed(256, 96, 32));

    for op in ["lcp", "get"] {
        rounds_since_clear(&mut t);
        if op == "lcp" {
            let lcp: Vec<usize> = batch
                .iter()
                .map(|q| oracle.lcp(q.as_slice()).lcp_bits)
                .collect();
            assert_eq!(t.lcp_batch(&batch), lcp);
        } else {
            assert_eq!(t.get_batch(&batch), want(&oracle, &batch));
        }
        let rounds = rounds_since_clear(&mut t);
        let stats = t.last_match_stats();
        assert!(stats.pulls > 0 && stats.pushes > 0, "{op}: {stats:?}");
        assert_eq!(
            count(&rounds, "match.meta") as u64,
            stats.descend_rounds,
            "{op}: {rounds:?}"
        );
        assert_eq!(count(&rounds, "match.block"), 1, "{op}: {rounds:?}");
        // nothing else: no separate pull or push round, no value reads
        let other: Vec<&String> = rounds
            .iter()
            .filter(|r| *r != "match.meta" && *r != "match.block")
            .collect();
        assert!(other.is_empty(), "{op}: {other:?}");
    }
    assert_eq!(t.audit_debug(), Vec::<String>::new());
}

#[test]
fn a_warm_get_batch_reads_its_values_in_block_matching() {
    let keys = nested_keys();
    let (mut t, oracle) = build(PimTrieConfig::for_modules(8).with_seed(7), &keys);
    let batch = probes(&keys);
    let want = want(&oracle, &batch);
    assert!(want.iter().any(Option::is_some) && want.iter().any(Option::is_none));
    // the first batch fills the resident levels; the second is warm
    assert_eq!(t.get_batch(&batch), want);
    t.enable_tracing();
    assert_eq!(t.get_batch(&batch), want);
    let rounds = rounds_since_clear(&mut t);
    assert_eq!(count(&rounds, "get.read"), 0, "{rounds:?}");
    assert_eq!(count(&rounds, "match.block"), 1, "{rounds:?}");
    assert_eq!(t.last_match_stats().redo_paths, 0);
}

#[test]
fn keys_without_an_answer_fall_back_to_a_read_round() {
    // 2-bit digests over keys of every length: hash collisions are
    // common, the keys they touch are flagged and redone exactly, and
    // their values read in a `get.read` round
    let cfg = PimTrieConfig::for_modules(8)
        .with_seed(63)
        .with_hash_width(HashWidth(2));
    let mut keys = nested_keys();
    keys.extend(workloads::uniform_var(1 << 12, 4, 96, 61));
    keys.sort();
    keys.dedup();
    let (mut t, oracle) = build(cfg, &keys);
    let batch = probes(&keys);
    t.enable_tracing();
    let redo = t.redo_paths();
    assert_eq!(t.get_batch(&batch), want(&oracle, &batch));
    let rounds = rounds_since_clear(&mut t);
    assert!(t.redo_paths() > redo, "no key was flagged");
    assert_eq!(count(&rounds, "get.read"), 1, "{rounds:?}");
    // and after writes that re-cut blocks
    let fresh = workloads::uniform_var(512, 4, 96, 23);
    let values = values_from(1 << 20, fresh.len());
    t.insert_batch(&fresh, &values);
    let mut oracle = oracle;
    for (k, v) in fresh.iter().zip(&values) {
        oracle.insert(k, *v);
    }
    let dels: Vec<BitStr> = keys.iter().step_by(3).cloned().collect();
    t.delete_batch(&dels);
    for k in &dels {
        oracle.delete(k.as_slice());
    }
    let mut batch = batch;
    batch.extend(fresh.iter().step_by(2).cloned());
    assert_eq!(t.get_batch(&batch), want(&oracle, &batch));
    assert_eq!(t.audit_debug(), Vec::<String>::new());
}

#[test]
fn values_in_block_matching_survive_dropped_replies() {
    let cfg = PimTrieConfig::for_modules(8)
        .with_seed(9)
        .with_fault_tolerance(true)
        .with_max_round_retries(64);
    let keys = nested_keys();
    let (mut t, oracle) = build(cfg, &keys);
    let batch = probes(&keys);
    let want = want(&oracle, &batch);
    t.install_faults(FaultPlan::new(0x6E7).with_drop_rate(2e-2));
    for _ in 0..3 {
        assert_eq!(t.get_batch(&batch), want);
    }
    assert!(t.system().metrics().fault_stats().drops_injected > 0);
    t.clear_faults();
    assert_eq!(t.audit_debug(), Vec::<String>::new());
}
