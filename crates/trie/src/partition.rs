//! Weighted tree partitioning and block decomposition (paper §4.2).
//!
//! The blocking algorithm cuts a data trie into blocks of `O(K_B)` words:
//!
//! 1. split edges longer than `K_B` words by inserting cut nodes
//!    ([`Trie::split_long_edges`]);
//! 2. walk the Euler tour assigning each node's weight at its first visit,
//!    take prefix sums, and mark a *base node* wherever the running sum
//!    crosses a multiple of `K_B`;
//! 3. additionally mark the LCA of every pair of adjacent base nodes;
//! 4. the marked set (plus the root) partitions the trie into connected
//!    blocks, each hanging below one marked root.
//!
//! [`decompose`] then materialises each block as a stand-alone [`Trie`]
//! whose root corresponds to the marked node, with *mirror leaves* standing
//! in for the roots of child blocks (Figure 2's dashed circles).

use crate::euler::{preorder, LcaIndex};
use crate::trie::{Node, NodeId, Trie};
use std::collections::BTreeSet;

/// Default node weight: packed edge words plus a constant for the node
/// record — mirrors [`Trie::size_words`].
pub fn node_weight(trie: &Trie, id: NodeId) -> u64 {
    (trie.node(id).edge.len().div_ceil(64) + 4) as u64
}

/// Compute the partition roots for blocks of `O(kb)` words (hard bound:
/// `2·kb` plus two node weights; see `blocks_have_bounded_weight`). Always
/// includes the trie root.
///
/// Two passes:
/// 1. the Euler-tour + prefix-sum + LCA marking of §4.2 (the weighted
///    extension of Ben-David et al. \[9\]) — this is the parallelisable pass
///    that creates `O(Q/kb)` roots;
/// 2. a bottom-up repair sweep that adds a cut wherever a residual
///    component still exceeds `kb`, turning the asymptotic `O(kb)` of pass
///    1 into the hard constant bound the block distributor relies on.
///
/// Paper: §4.2.
pub fn partition_roots(trie: &Trie, kb: u64) -> Vec<NodeId> {
    assert!(kb > 0);
    let mut marked = euler_marks(trie, kb);
    repair_oversized(trie, kb, &mut marked);
    let mut out: Vec<NodeId> = marked.into_iter().collect();
    out.sort();
    out
}

/// Pass 1: base nodes at every `kb`-weight boundary of the Euler tour plus
/// LCAs of adjacent base nodes plus the root.
fn euler_marks(trie: &Trie, kb: u64) -> BTreeSet<NodeId> {
    let pre = preorder(trie);
    // Prefix sums of weights in first-visit order; a node is a base node
    // when its weight makes the running sum enter a new K_B bucket.
    let mut base = Vec::new();
    let mut sum = 0u64;
    for &id in &pre {
        let before = sum / kb;
        sum += node_weight(trie, id);
        if sum / kb > before {
            base.push(id);
        }
    }
    let mut marked: BTreeSet<NodeId> = BTreeSet::new();
    marked.insert(NodeId::ROOT);
    marked.extend(base.iter().copied());
    if base.len() >= 2 {
        let lca = LcaIndex::new(trie);
        for w in base.windows(2) {
            marked.insert(lca.lca(w[0], w[1]));
        }
    }
    marked
}

/// Pass 2: greedy bottom-up accumulation. A node whose unmarked component
/// would exceed `kb` becomes a root itself; since a binary node merges at
/// most two child components each `<= kb`, every final component weighs at
/// most `w(v) + 2·kb`.
fn repair_oversized(trie: &Trie, kb: u64, marked: &mut BTreeSet<NodeId>) {
    let mut acc: Vec<u64> = vec![0; trie.id_bound()];
    // postorder
    let mut stack = vec![(NodeId::ROOT, false)];
    while let Some((id, expanded)) = stack.pop() {
        if !expanded {
            stack.push((id, true));
            for c in trie.node(id).children.iter().flatten() {
                stack.push((*c, false));
            }
            continue;
        }
        let mut a = node_weight(trie, id);
        for c in trie.node(id).children.iter().flatten() {
            if !marked.contains(c) {
                a += acc[c.idx()];
            }
        }
        if a > kb && id != NodeId::ROOT {
            marked.insert(id);
            acc[id.idx()] = 0;
        } else {
            acc[id.idx()] = a;
        }
    }
}

/// A stand-alone block produced by [`decompose`].
pub struct Block {
    /// The partition root this block hangs below (id in the original trie).
    pub orig_root: NodeId,
    /// Bit-depth of the block root in the original trie.
    pub root_depth: usize,
    /// The block's trie: its root (`NodeId::ROOT`, empty edge) corresponds
    /// to `orig_root`; child-block roots appear as mirror leaves.
    pub trie: Trie,
    /// For each block node id, the original trie node id.
    pub orig_of: Vec<Option<NodeId>>,
    /// Mirror leaves: (block node id, original id of the child-block root).
    pub mirrors: Vec<(NodeId, NodeId)>,
}

/// Split the trie at `roots` (which must contain [`NodeId::ROOT`]) into
/// stand-alone blocks. Every original node lands in exactly one block; each
/// boundary node additionally appears as a mirror leaf in its parent's
/// block.
pub fn decompose(trie: &Trie, roots: &[NodeId]) -> Vec<Block> {
    let marked: BTreeSet<NodeId> = roots.iter().copied().collect();
    assert!(
        marked.contains(&NodeId::ROOT),
        "partition must include the root"
    );
    let mut blocks = Vec::with_capacity(roots.len());
    for &r in roots {
        let mut b = Block {
            orig_root: r,
            root_depth: trie.node(r).depth as usize,
            trie: Trie::new(),
            orig_of: vec![Some(r)], // block ROOT -> r
            mirrors: Vec::new(),
        };
        if trie.node(r).is_key() {
            b.trie.node_mut(NodeId::ROOT).value = trie.node(r).value;
            b.trie.bump_keys_internal();
        }
        copy_block(trie, &marked, r, &mut b, NodeId::ROOT);
        blocks.push(b);
    }
    blocks
}

fn copy_block(trie: &Trie, marked: &BTreeSet<NodeId>, src: NodeId, b: &mut Block, dst: NodeId) {
    for bit in 0..2 {
        let Some(c) = trie.node(src).children[bit] else {
            continue;
        };
        let cn = trie.node(c);
        let depth = b.trie.node(dst).depth as usize + cn.edge.len();
        let is_boundary = marked.contains(&c);
        let id = b.trie.push_node_internal(Node {
            parent: Some(dst),
            edge: cn.edge.clone(),
            children: [None, None],
            value: if is_boundary { None } else { cn.value },
            depth: depth as u32,
            free: false,
        });
        if !is_boundary && cn.value.is_some() {
            b.trie.bump_keys_internal();
        }
        while b.orig_of.len() < id.idx() {
            b.orig_of.push(None);
        }
        b.orig_of.push(Some(c));
        debug_assert_eq!(b.orig_of.len(), id.idx() + 1);
        b.trie.node_mut(dst).children[bit] = Some(id);
        if is_boundary {
            b.mirrors.push((id, c));
        } else {
            copy_block(trie, marked, c, b, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitstr::BitStr;
    use rand::{Rng, SeedableRng};

    fn random_trie(seed: u64, n: usize, max_len: usize) -> Trie {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut t = Trie::new();
        for i in 0..n {
            let len = rng.gen_range(1..=max_len);
            let k = BitStr::from_bits((0..len).map(|_| rng.gen_bool(0.5)));
            t.insert(&k, i as u64);
        }
        t
    }

    #[test]
    fn partition_includes_root_and_bounds_block_count() {
        let t = random_trie(1, 400, 60);
        let kb = 64;
        let roots = partition_roots(&t, kb);
        assert!(roots.contains(&NodeId::ROOT));
        let total: u64 = t.node_ids().map(|id| node_weight(&t, id)).sum();
        // base nodes (<= total/kb) + adjacent LCAs (<= base) + repair cuts
        // (<= total/kb) + root: O(total/kb) with constant <= 3.
        assert!(
            (roots.len() as u64) <= 3 * total / kb + 2,
            "too many blocks: {} for total weight {total}",
            roots.len()
        );
    }

    #[test]
    fn blocks_have_bounded_weight() {
        for seed in 0..5 {
            let mut t = random_trie(seed, 300, 200);
            t.split_long_edges(64 * 8);
            let kb = 128;
            let roots = partition_roots(&t, kb);
            let blocks = decompose(&t, &roots);
            let max_node: u64 = t.node_ids().map(|id| node_weight(&t, id)).max().unwrap();
            for b in &blocks {
                let w: u64 = b
                    .trie
                    .node_ids()
                    .filter(|id| *id != NodeId::ROOT)
                    .map(|id| node_weight(&b.trie, id))
                    .sum();
                assert!(
                    w <= 2 * kb + 2 * max_node,
                    "block at {:?} weighs {w} (kb={kb}, max_node={max_node})",
                    b.orig_root
                );
            }
        }
    }

    #[test]
    fn decompose_partitions_nodes_exactly() {
        let t = random_trie(7, 200, 40);
        let roots = partition_roots(&t, 96);
        let blocks = decompose(&t, &roots);
        // every original node appears exactly once as a non-mirror node
        let mut owner = std::collections::BTreeMap::new();
        for (bi, b) in blocks.iter().enumerate() {
            let mirrors: BTreeSet<NodeId> = b.mirrors.iter().map(|(m, _)| *m).collect();
            for id in b.trie.node_ids() {
                if mirrors.contains(&id) {
                    continue;
                }
                let orig = b.orig_of[id.idx()].unwrap();
                assert!(owner.insert(orig, bi).is_none(), "{orig:?} owned twice");
            }
        }
        assert_eq!(owner.len(), t.n_nodes());
    }

    #[test]
    fn mirrors_point_at_child_block_roots() {
        let t = random_trie(3, 150, 40);
        let roots = partition_roots(&t, 64);
        let blocks = decompose(&t, &roots);
        let root_set: BTreeSet<NodeId> = roots.iter().copied().collect();
        let mut mirrored: Vec<NodeId> = blocks
            .iter()
            .flat_map(|b| b.mirrors.iter().map(|(_, orig)| *orig))
            .collect();
        mirrored.sort();
        let mut expect: Vec<NodeId> = root_set
            .iter()
            .copied()
            .filter(|r| *r != NodeId::ROOT)
            .collect();
        expect.sort();
        assert_eq!(mirrored, expect, "each non-root block root mirrored once");
    }

    #[test]
    fn reassembled_items_match_original() {
        let t = random_trie(11, 250, 50);
        let roots = partition_roots(&t, 80);
        let blocks = decompose(&t, &roots);
        // index blocks by orig root
        let by_root: std::collections::BTreeMap<NodeId, usize> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (b.orig_root, i))
            .collect();
        let mut items = Vec::new();
        // DFS across blocks gluing strings
        fn walk(
            blocks: &[Block],
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
                if let Some(orig_child_root) = mirror_map.get(&id) {
                    walk(blocks, by_root, by_root[orig_child_root], &s, items);
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
        walk(
            &blocks,
            &by_root,
            by_root[&NodeId::ROOT],
            &BitStr::new(),
            &mut items,
        );
        items.sort();
        let mut want = t.items();
        want.sort();
        assert_eq!(items, want);
    }

    #[test]
    fn single_block_when_kb_huge() {
        let t = random_trie(5, 50, 20);
        let roots = partition_roots(&t, 1 << 40);
        assert_eq!(roots, vec![NodeId::ROOT]);
        let blocks = decompose(&t, &roots);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].trie.n_nodes(), t.n_nodes());
    }

    #[test]
    fn path_trie_partition() {
        // adversarial: a pure path (each key extends the previous)
        let mut t = Trie::new();
        let mut k = BitStr::new();
        for i in 0..200 {
            k.push(i % 2 == 0);
            t.insert(&k, i as u64);
        }
        let roots = partition_roots(&t, 40);
        let blocks = decompose(&t, &roots);
        assert!(blocks.len() >= 4, "path should split into several blocks");
        for b in &blocks {
            let w: u64 = b.trie.node_ids().map(|id| node_weight(&b.trie, id)).sum();
            assert!(w <= 120, "path block too heavy: {w}");
        }
    }
}
