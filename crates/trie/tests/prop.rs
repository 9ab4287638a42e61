//! Property-based tests: the compressed trie against a sorted-map oracle,
//! and the blocking pipeline's invariants.

use bitstr::BitStr;
use proptest::prelude::*;
use std::collections::BTreeMap;
use trie_core::query::QueryTrie;
use trie_core::{partition, NodeId, Trie};

fn arb_key() -> impl Strategy<Value = BitStr> {
    proptest::collection::vec(any::<bool>(), 0..50).prop_map(BitStr::from_bits)
}

fn oracle_lcp(map: &BTreeMap<BitStr, u64>, q: &BitStr) -> usize {
    map.keys().map(|k| q.lcp(k)).max().unwrap_or(0)
}

proptest! {
    #[test]
    fn trie_matches_btreemap(
        ops in proptest::collection::vec((arb_key(), any::<bool>(), any::<u64>()), 1..200),
        queries in proptest::collection::vec(arb_key(), 1..50),
    ) {
        let mut trie = Trie::new();
        let mut map: BTreeMap<BitStr, u64> = BTreeMap::new();
        for (k, is_insert, v) in &ops {
            if *is_insert {
                prop_assert_eq!(trie.insert(k, *v), map.insert(k.clone(), *v));
            } else {
                prop_assert_eq!(trie.delete(k.as_slice()), map.remove(k));
            }
        }
        trie.check_invariants(false);
        prop_assert_eq!(trie.n_keys(), map.len());
        for q in &queries {
            prop_assert_eq!(trie.get(q.as_slice()), map.get(q).copied());
            if !map.is_empty() {
                prop_assert_eq!(trie.lcp(q.as_slice()).lcp_bits, oracle_lcp(&map, q));
            }
        }
        // items() is the sorted map
        let items = trie.items();
        let want: Vec<(BitStr, u64)> = map.into_iter().collect();
        prop_assert_eq!(items, want);
    }

    #[test]
    fn query_trie_equals_incremental(keys in proptest::collection::vec(arb_key(), 1..100)) {
        let qt = QueryTrie::build(&keys);
        qt.trie.check_invariants(false);
        let mut reference = Trie::new();
        for k in &keys {
            reference.insert(k, 0);
        }
        prop_assert_eq!(qt.trie.n_keys(), reference.n_keys());
        for (i, k) in keys.iter().enumerate() {
            prop_assert_eq!(qt.trie.node_string(qt.key_node[i]), k.clone());
        }
    }

    #[test]
    fn partition_blocks_reassemble(
        keys in proptest::collection::vec(arb_key(), 1..150),
        kb in 16u64..200,
    ) {
        let mut trie = Trie::new();
        for (i, k) in keys.iter().enumerate() {
            trie.insert(k, i as u64);
        }
        let want = trie.items();
        trie.split_long_edges((kb as usize * 16).max(16));
        let roots = partition::partition_roots(&trie, kb);
        prop_assert!(roots.contains(&NodeId::ROOT));
        let blocks = partition::decompose(&trie, &roots);
        // weight bound
        let max_node: u64 = trie
            .node_ids()
            .map(|id| partition::node_weight(&trie, id))
            .max()
            .unwrap();
        for b in &blocks {
            let w: u64 = b
                .trie
                .node_ids()
                .filter(|id| *id != NodeId::ROOT)
                .map(|id| partition::node_weight(&b.trie, id))
                .sum();
            prop_assert!(w <= 2 * kb + 2 * max_node);
        }
        // reassembly: glue via mirrors
        let by_root: std::collections::BTreeMap<NodeId, usize> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (b.orig_root, i))
            .collect();
        fn walk(
            blocks: &[partition::Block],
            by_root: &std::collections::BTreeMap<NodeId, usize>,
            bi: usize,
            prefix: &BitStr,
            items: &mut Vec<(BitStr, u64)>,
        ) {
            let b = &blocks[bi];
            let mirror_map: std::collections::BTreeMap<NodeId, NodeId> =
                b.mirrors.iter().copied().collect();
            let mut stack = vec![(NodeId::ROOT, prefix.clone())];
            while let Some((id, s)) = stack.pop() {
                if let Some(orig) = mirror_map.get(&id) {
                    walk(blocks, by_root, by_root[orig], &s, items);
                    continue;
                }
                if let Some(v) = b.trie.node(id).value {
                    items.push((s.clone(), v));
                }
                for c in b.trie.node(id).children.iter().flatten() {
                    let mut cs = s.clone();
                    cs.append(&b.trie.node(*c).edge.as_slice());
                    stack.push((*c, cs));
                }
            }
        }
        let mut items = Vec::new();
        walk(&blocks, &by_root, by_root[&NodeId::ROOT], &BitStr::new(), &mut items);
        items.sort();
        let mut want_sorted = want;
        want_sorted.sort();
        prop_assert_eq!(items, want_sorted);
    }

    #[test]
    fn subtree_matches_filter(
        keys in proptest::collection::vec(arb_key(), 1..120),
        prefix in arb_key(),
    ) {
        let mut trie = Trie::new();
        let mut map = BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            trie.insert(k, i as u64);
            map.insert(k.clone(), i as u64);
        }
        // last value wins in both
        let want: Vec<(BitStr, u64)> = map
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        match trie.subtree(prefix.as_slice()) {
            None => prop_assert!(want.is_empty()),
            Some(sub) => {
                sub.check_invariants(false);
                prop_assert_eq!(sub.items(), want);
            }
        }
    }
}
