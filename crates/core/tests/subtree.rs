//! SubtreeQuery assembly: the blocks under a prefix are listed from the
//! meta-blocks and fetched together, so assembly costs a few rounds set
//! by the meta-block levels a prefix spans, not one round per block
//! level. Answers are checked against the sequential trie.

use bitstr::BitStr;
use pim_trie::{FaultPlan, PimTrie, PimTrieConfig};
use trie_core::Trie;

/// The benchmark's module count. Its `K_SMB = 36` meta nodes per
/// meta-block put a 64-key prefix's blocks in one or two meta-block
/// levels; at `P = 16` (`K_SMB = 16`) the same prefix spans three, and
/// assembly takes five rounds.
const P: usize = 64;
const N: usize = 8192;
/// `log2(N / 64)`: a prefix of this many bits covers ≈ 64 stored keys.
const BITS: usize = 7;

fn values_from(base: u64, n: usize) -> Vec<u64> {
    (base..base + n as u64).collect()
}

/// Every `BITS`-bit prefix, in a fixed shuffled order.
fn prefixes() -> Vec<BitStr> {
    (0..1u64 << BITS)
        .map(|v| BitStr::from_u64((v * 37) % (1 << BITS), BITS))
        .collect()
}

fn build(cfg: PimTrieConfig) -> (PimTrie, Trie) {
    let keys = workloads::uniform_fixed(N, 64, 5);
    let values = values_from(0, keys.len());
    let t = PimTrie::build(cfg, &keys, &values);
    let mut oracle = Trie::new();
    for (k, v) in keys.iter().zip(&values) {
        oracle.insert(k, *v);
    }
    (t, oracle)
}

fn assert_oracle(t: &mut PimTrie, oracle: &Trie, prefixes: &[BitStr]) {
    let got = t.subtree_batch(prefixes);
    for (p, g) in prefixes.iter().zip(got) {
        let sorted = |t: Trie| {
            let mut items = t.items();
            items.sort();
            items
        };
        let want = oracle.subtree(p.as_slice()).map(sorted);
        assert_eq!(g.map(sorted), want, "subtree of {p}");
    }
}

/// `(assemble rounds, assemble words, assemble module work)` of one
/// traced subtree batch.
fn assemble_cost(t: &mut PimTrie, prefixes: &[BitStr]) -> (u64, u64, u64) {
    t.enable_tracing();
    t.subtree_batch(prefixes);
    let tracer = t.system_mut().metrics_mut().take_tracer().unwrap();
    tracer
        .phase_summaries()
        .iter()
        .filter(|s| s.op == "subtree" && s.phase == "subtree/assemble")
        .fold((0, 0, 0), |(r, v, w), s| {
            (
                r + s.rounds,
                v + s.io_volume,
                w + s.work.iter().sum::<u64>(),
            )
        })
}

/// Inserts re-cut blocks and split meta-blocks, deletes merge blocks away
/// and re-hang child meta-blocks.
fn churn(t: &mut PimTrie, oracle: &mut Trie) {
    let fresh = workloads::uniform_fixed(N / 2, 64, 6);
    let values = values_from(1 << 20, fresh.len());
    t.insert_batch(&fresh, &values);
    for (k, v) in fresh.iter().zip(&values) {
        oracle.insert(k, *v);
    }
    let gone: Vec<BitStr> = oracle
        .items()
        .into_iter()
        .map(|(k, _)| k)
        .step_by(3)
        .collect();
    t.delete_batch(&gone);
    for k in &gone {
        oracle.delete(k.as_slice());
    }
    assert!(t.audit_debug().is_empty(), "{:?}", t.audit_debug());
}

#[test]
fn assembly_matches_the_oracle_in_four_rounds_before_and_after_churn() {
    let (mut t, mut oracle) = build(PimTrieConfig::for_modules(P));
    let ps = prefixes();
    assert_oracle(&mut t, &oracle, &ps);
    let (rounds, ..) = assemble_cost(&mut t, &ps);
    assert!(rounds <= 4, "fresh build: assembly took {rounds} rounds");
    churn(&mut t, &mut oracle);
    assert_oracle(&mut t, &oracle, &ps);
    let (rounds, ..) = assemble_cost(&mut t, &ps);
    assert!(rounds <= 4, "after churn: assembly took {rounds} rounds");
}

/// At `P = 8` (`K_SMB = 16`) a prefix's blocks span several meta-block
/// levels, which the lists reach one level a round: six rounds after this
/// churn. The lists name every block under a prefix, so each is fetched
/// once per batch however many prefixes of the batch it lies under: a
/// batch of the empty prefix and every `BITS`-bit prefix does, on the
/// modules, at least the fetch work of every block below depth `BITS`
/// less than the two batches apart.
#[test]
fn churned_multi_level_assembly_is_exact_and_fetches_each_block_once() {
    let (mut t, mut oracle) = build(PimTrieConfig::for_modules(8));
    churn(&mut t, &mut oracle);
    let ps = prefixes();
    assert_oracle(&mut t, &oracle, &ps);
    let (rounds, ..) = assemble_cost(&mut t, &ps);
    assert!(rounds <= 6, "assembly took {rounds} rounds");

    let root = vec![BitStr::new()];
    let nested: Vec<BitStr> = root.iter().chain(&ps).cloned().collect();
    assert_oracle(&mut t, &oracle, &nested);
    let apart = assemble_cost(&mut t, &root).2 + assemble_cost(&mut t, &ps).2;
    let together = assemble_cost(&mut t, &nested).2;
    let deep: u64 = t
        .system()
        .modules()
        .flat_map(|m| m.blocks.iter())
        .filter(|(_, b)| b.root_depth >= BITS as u64)
        .map(|(_, b)| b.weight())
        .sum();
    assert!(
        apart - together >= deep,
        "{apart} apart, {together} together, {deep} below depth {BITS}"
    );
}

#[test]
fn a_repeated_prefix_costs_what_it_costs_once() {
    let (mut t, _) = build(PimTrieConfig::for_modules(P));
    for p in prefixes().into_iter().take(8) {
        let once = assemble_cost(&mut t, std::slice::from_ref(&p));
        let twice = assemble_cost(&mut t, &[p.clone(), p.clone()]);
        assert_eq!(twice, once, "subtree of {p}");
        assert!(once.0 > 0);
    }
}

#[test]
fn nested_and_missing_prefixes_match_the_oracle() {
    let (mut t, oracle) = build(PimTrieConfig::for_modules(P));
    let mut ps: Vec<BitStr> = ["", "0", "01", "0110", "011010", "1", "1111111"]
        .iter()
        .map(|s| BitStr::from_bin_str(s))
        .collect();
    // a prefix no stored key extends
    let mut deep = oracle.items()[0].0.clone();
    deep.push(true);
    ps.push(deep);
    assert_oracle(&mut t, &oracle, &ps);
}

#[test]
fn fault_tolerant_assembly_survives_dropped_replies() {
    let (mut t, oracle) = build(PimTrieConfig::for_modules(P).with_fault_tolerance(true));
    t.install_faults(FaultPlan::new(0x5B7E).with_drop_rate(2e-2));
    assert_oracle(&mut t, &oracle, &prefixes());
    assert!(t.system().metrics().fault_stats().drops_injected > 0);
}
