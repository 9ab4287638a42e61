//! SubtreeQuery assembly: the blocks under a prefix are listed from the
//! meta-blocks and fetched together, so assembly costs a few rounds set
//! by the meta-block levels a prefix spans, not one round per block
//! level. Answers are checked against the sequential trie.

use bitstr::BitStr;
use pim_trie::{BlockRef, FaultPlan, MetaRef, PimTrie, PimTrieConfig};
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

/// `s`: the most meta-blocks one chain of the meta-block tree crosses
/// from the meta-block of a prefix's anchor block down to the deepest
/// block under the prefix. Assembly lists one of them a round, after the
/// anchor fetch, and fetches the last one's blocks a round later: at most
/// `s + 2` rounds. Block root strings are rebuilt down the mirrors.
fn meta_levels(t: &PimTrie, prefixes: &[BitStr]) -> u64 {
    let sys = t.system();
    let meta_depth = |mut m: MetaRef| {
        let mut d = 1;
        while let Some(p) = sys
            .module(m.module as usize)
            .metas
            .get(m.slot)
            .unwrap()
            .parent
        {
            (d, m) = (d + 1, p);
        }
        d
    };
    let root = (0..)
        .zip(sys.modules())
        .find_map(|(module, m)| {
            let (slot, _) = m.blocks.iter().find(|(_, b)| b.parent.is_none())?;
            Some(BlockRef { module, slot })
        })
        .unwrap();
    // (root string, meta-block depth) of every block
    let mut blocks = Vec::new();
    let mut stack = vec![(root, BitStr::new())];
    while let Some((b, s)) = stack.pop() {
        let b = sys.module(b.module as usize).blocks.get(b.slot).unwrap();
        for (n, c) in &b.mirrors {
            stack.push((*c, s.concat(&b.trie.node_string(*n))));
        }
        blocks.push((s, meta_depth(b.meta.unwrap().0)));
    }
    prefixes
        .iter()
        .map(|p| {
            // the anchor's block: the deepest one rooted on the prefix's path
            let (_, anchor) = blocks
                .iter()
                .filter(|(r, _)| p.starts_with(r))
                .max_by_key(|(r, _)| r.len())
                .unwrap();
            let below = blocks.iter().filter(|(r, _)| r.starts_with(p));
            below.map(|(_, d)| *d).max().unwrap_or(*anchor) - anchor + 1
        })
        .max()
        .unwrap_or(0)
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
/// levels (`s = 4` after this churn), which the lists reach one level a
/// round: `s + 2` rounds. The lists name every block under a prefix, so
/// each is fetched once per batch however many prefixes of the batch it
/// lies under: a batch of the empty prefix and every `BITS`-bit prefix
/// does, on the modules, at least the fetch work of every block below
/// depth `BITS` less than the two batches apart.
#[test]
fn churned_multi_level_assembly_is_exact_and_fetches_each_block_once() {
    let (mut t, mut oracle) = build(PimTrieConfig::for_modules(8));
    churn(&mut t, &mut oracle);
    let ps = prefixes();
    assert_oracle(&mut t, &oracle, &ps);
    let (rounds, ..) = assemble_cost(&mut t, &ps);
    let s = meta_levels(&t, &ps);
    assert!(s >= 3, "the prefixes span only {s} meta-block levels");
    assert!(
        rounds <= s + 2,
        "assembly took {rounds} rounds over {s} levels"
    );

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

/// Prefixes of about one key each mostly anchor in a piece that names
/// no child block, and otherwise in one whose child blocks hold the
/// rest: the list sent beside those children names nothing more, so
/// assembly ends after the children arrive. A list that also named the
/// blocks and child meta-blocks its stored bits could not rule out took
/// a third round here.
#[test]
fn one_key_prefixes_assemble_in_two_rounds() {
    let (mut t, oracle) = build(PimTrieConfig::for_modules(32));
    let keys: Vec<BitStr> = oracle.items().into_iter().map(|(k, _)| k).collect();
    let ps: Vec<BitStr> = keys
        .iter()
        .step_by(16)
        .map(|k| k.slice(0..16).to_bitstr())
        .collect();
    assert_oracle(&mut t, &oracle, &ps);
    let (rounds, ..) = assemble_cost(&mut t, &ps);
    assert!(rounds <= 2, "assembly took {rounds} rounds");
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
