//! Batch query-trie construction — Algorithm 1 of the paper.
//!
//! `QTrieConstruct(Q)`: sort the batch of keys, compute the LCP array of
//! adjacent pairs, and generate the Patricia trie in a single linear pass
//! (the Cartesian-tree-style stack construction of Blelloch–Shun \[14\]).
//!
//! The CPU-side sort is the standard library's sequential stable sort in
//! place of the specialised parallel string sort of Hagerup \[26\]; this
//! changes only CPU work and depth, never any IO metric (see DESIGN.md,
//! deviations).

use crate::trie::{Node, NodeId, Trie, Value};
use bitstr::BitStr;

/// A query trie: the Patricia trie of a batch plus, for every batch
/// element, the node that represents it.
pub struct QueryTrie {
    /// The trie over the *unique* keys of the batch.
    pub trie: Trie,
    /// For each original batch index, the representing node.
    pub key_node: Vec<NodeId>,
    /// For each original batch index, the index of its first occurrence
    /// (duplicates collapse onto one node).
    pub first_occurrence: Vec<usize>,
}

impl QueryTrie {
    /// Build the query trie for a batch. Duplicate keys are collapsed;
    /// every input index keeps a handle to its node. Paper: Algorithm 1.
    pub fn build(batch: &[BitStr]) -> QueryTrie {
        // 1. StringSort(Q) — a stable sort of indices, so equal keys
        //    keep batch order and the first occurrence leads its run.
        let mut order: Vec<usize> = (0..batch.len()).collect();
        order.sort_by(|&a, &b| batch[a].cmp(&batch[b]));

        // 2. Dedupe, remembering each input's unique slot.
        let mut uniq: Vec<usize> = Vec::with_capacity(batch.len());
        let mut slot_of = vec![usize::MAX; batch.len()];
        for &i in &order {
            if let Some(&last) = uniq.last() {
                if batch[last] == batch[i] {
                    slot_of[i] = uniq.len() - 1;
                    continue;
                }
            }
            slot_of[i] = uniq.len();
            uniq.push(i);
        }

        // 3. AdjacentLCPArray + 4. PatriciaGenerate.
        let keys: Vec<(&BitStr, Value)> = uniq
            .iter()
            .enumerate()
            .map(|(slot, &i)| (&batch[i], slot as Value))
            .collect();
        let (trie, slot_node) = build_patricia_with_handles(keys);

        let mut key_node = Vec::with_capacity(batch.len());
        let mut first_occurrence = Vec::with_capacity(batch.len());
        for &slot in slot_of.iter().take(batch.len()) {
            key_node.push(slot_node[slot]);
            first_occurrence.push(uniq[slot]);
        }
        QueryTrie {
            trie,
            key_node,
            first_occurrence,
        }
    }
}

/// Build a Patricia trie from strictly ascending unique `(key, value)`
/// pairs in `O(n + Σ lcp-scan)` — the backbone of both `QueryTrie::build`
/// and `Trie::from_sorted_unique`.
pub(crate) fn build_patricia<'a, I>(keys: I) -> Trie
where
    I: IntoIterator<Item = (&'a BitStr, Value)>,
{
    build_patricia_with_handles(keys.into_iter().collect()).0
}

fn build_patricia_with_handles(keys: Vec<(&BitStr, Value)>) -> (Trie, Vec<NodeId>) {
    let mut trie = Trie::new();
    let mut handles = Vec::with_capacity(keys.len());
    // Stack of (node, depth) along the rightmost path.
    let mut stack: Vec<(NodeId, usize)> = vec![(NodeId::ROOT, 0)];

    for (i, (key, value)) in keys.iter().enumerate() {
        if i > 0 {
            assert!(
                keys[i - 1].0 < *key,
                "keys must be strictly ascending (violated at {i})"
            );
        }
        let lcp = if i == 0 { 0 } else { keys[i - 1].0.lcp(*key) };
        debug_assert!(lcp <= key.len());

        // Pop everything strictly deeper than the branch point.
        let mut popped: Option<(NodeId, usize)> = None;
        while stack.last().unwrap().1 > lcp {
            popped = stack.pop();
        }
        let (mut attach, attach_depth) = *stack.last().unwrap();
        if attach_depth < lcp {
            // The branch point is hidden inside the edge into `popped`:
            // materialise it.
            let (below, below_depth) = popped.expect("depth gap implies a popped child");
            let off_in_edge = lcp - (below_depth - raw_edge_len(&trie, below));
            let mid = trie.split_edge(crate::trie::TriePos {
                node: below,
                edge_off: off_in_edge,
            });
            attach = mid;
            stack.push((mid, lcp));
        }

        if key.len() == lcp {
            // `key` is exactly the attach node's string: only possible for
            // the very first key being empty (root) or a re-materialised
            // prefix — set the value in place.
            set_value(&mut trie, attach, *value);
            handles.push(attach);
            // attach node already on the stack
            continue;
        }

        // Attach the new leaf.
        let bit = key.get(lcp) as usize;
        debug_assert!(
            trie.node(attach).children[bit].is_none(),
            "sorted order guarantees a free right slot"
        );
        let leaf = alloc_leaf(
            &mut trie,
            attach,
            key.slice(lcp..key.len()).to_bitstr(),
            *value,
        );
        trie.node_mut(attach).children[bit] = Some(leaf);
        stack.push((leaf, key.len()));
        handles.push(leaf);
    }
    (trie, handles)
}

fn raw_edge_len(trie: &Trie, id: NodeId) -> usize {
    trie.node(id).edge.len()
}

fn set_value(trie: &mut Trie, id: NodeId, value: Value) {
    let n = trie.node_mut(id);
    debug_assert!(n.value.is_none(), "duplicate key reached set_value");
    n.value = Some(value);
    bump_keys(trie);
}

fn alloc_leaf(trie: &mut Trie, parent: NodeId, edge: BitStr, value: Value) -> NodeId {
    let depth = trie.node(parent).depth as usize + edge.len();
    let id = push_node(
        trie,
        Node {
            parent: Some(parent),
            edge,
            children: [None, None],
            value: Some(value),
            depth: depth as u32,
            free: false,
        },
    );
    bump_keys(trie);
    id
}

// Small private-access helpers: query.rs lives in the same crate so we keep
// Trie's fields private but expose two crate-internal constructors.
fn push_node(trie: &mut Trie, node: Node) -> NodeId {
    trie.push_node_internal(node)
}

fn bump_keys(trie: &mut Trie) {
    trie.bump_keys_internal();
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitstr::BitStr;

    fn b(s: &str) -> BitStr {
        BitStr::from_bin_str(s)
    }

    #[test]
    fn figure1_query_trie() {
        // Figure 1's query strings: 00001001, 101001, 101011. (Written in
        // the figure as "00001 001", "101001", "101011".)
        let batch = vec![b("00001001"), b("101001"), b("101011")];
        let qt = QueryTrie::build(&batch);
        qt.trie.check_invariants(false);
        assert_eq!(qt.trie.n_keys(), 3);
        // Figure 1 query trie shape: root -> "00001001", root -> "1010" ->
        // {"01", "11"}.
        let root = qt.trie.node(NodeId::ROOT);
        assert_eq!(qt.trie.node(root.children[0].unwrap()).edge, b("00001001"));
        let mid = qt.trie.node(root.children[1].unwrap());
        assert_eq!(mid.edge, b("1010"));
        assert_eq!(qt.trie.node(mid.children[0].unwrap()).edge, b("01"));
        assert_eq!(qt.trie.node(mid.children[1].unwrap()).edge, b("11"));
        // handles point at the right leaves
        for (i, k) in batch.iter().enumerate() {
            assert_eq!(qt.trie.node_string(qt.key_node[i]), *k);
        }
    }

    #[test]
    fn equals_incremental_construction() {
        let batch: Vec<BitStr> = (0u64..300)
            .map(|i| BitStr::from_u64(i.wrapping_mul(0x9E3779B97F4A7C15) >> 20, 44))
            .collect();
        let qt = QueryTrie::build(&batch);
        qt.trie.check_invariants(false);
        let mut reference = Trie::new();
        for k in &batch {
            reference.insert(k, 0);
        }
        let got: Vec<BitStr> = qt.trie.items().into_iter().map(|(k, _)| k).collect();
        let want: Vec<BitStr> = reference.items().into_iter().map(|(k, _)| k).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn duplicates_collapse() {
        let batch = vec![b("01"), b("10"), b("01"), b("01")];
        let qt = QueryTrie::build(&batch);
        assert_eq!(qt.trie.n_keys(), 2);
        assert_eq!(qt.key_node[0], qt.key_node[2]);
        assert_eq!(qt.key_node[0], qt.key_node[3]);
        assert_eq!(qt.first_occurrence[2], 0);
        assert_eq!(qt.first_occurrence[1], 1);
    }

    #[test]
    fn prefix_chain() {
        // keys where each is a prefix of the next
        let batch = vec![b("1"), b("10"), b("101"), b("1011")];
        let qt = QueryTrie::build(&batch);
        qt.trie.check_invariants(false);
        assert_eq!(qt.trie.n_keys(), 4);
        for k in &batch {
            assert!(qt.trie.get(k.as_slice()).is_some(), "missing {k}");
        }
    }

    #[test]
    fn empty_string_in_batch() {
        let batch = vec![BitStr::new(), b("0"), b("1")];
        let qt = QueryTrie::build(&batch);
        assert_eq!(qt.trie.n_keys(), 3);
        assert_eq!(qt.key_node[0], NodeId::ROOT);
    }

    #[test]
    fn singleton_batch() {
        let qt = QueryTrie::build(&[b("1100")]);
        assert_eq!(qt.trie.n_keys(), 1);
        assert_eq!(qt.trie.node_string(qt.key_node[0]), b("1100"));
    }

    #[test]
    fn empty_batch() {
        let qt = QueryTrie::build(&[]);
        assert_eq!(qt.trie.n_keys(), 0);
        assert!(qt.key_node.is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_input_to_raw_builder_panics() {
        let a = b("1");
        let z = b("0");
        let _ = build_patricia(vec![(&a, 0), (&z, 1)]);
    }

    #[test]
    fn random_batches_match_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for _ in 0..20 {
            let n = rng.gen_range(1..100);
            let batch: Vec<BitStr> = (0..n)
                .map(|_| {
                    let len = rng.gen_range(0..40);
                    BitStr::from_bits((0..len).map(|_| rng.gen_bool(0.5)))
                })
                .collect();
            let qt = QueryTrie::build(&batch);
            qt.trie.check_invariants(false);
            let mut reference = Trie::new();
            for k in &batch {
                reference.insert(k, 0);
            }
            assert_eq!(qt.trie.n_keys(), reference.n_keys());
            for (i, k) in batch.iter().enumerate() {
                assert_eq!(qt.trie.node_string(qt.key_node[i]), *k);
            }
        }
    }
}
