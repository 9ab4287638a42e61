//! Euler tours and LCA queries over a [`Trie`].
//!
//! The weighted blocking algorithm of §4.2 runs on the Euler tour of the
//! data trie: node weights are assigned to the tour array, a prefix sum
//! picks *base nodes* at every `K_B`-weight boundary, and the lowest common
//! ancestors of adjacent base nodes complete the partition set. This module
//! provides the tour and an O(n log n)-space sparse-table LCA.

use crate::trie::{NodeId, Trie};

/// One step of an Euler tour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// First arrival at a node.
    Enter(NodeId),
    /// Departure after the subtree is done.
    Exit(NodeId),
}

/// The full Euler tour (2 events per live node), iterative DFS from the
/// root, children in bit order.
pub fn euler_tour(trie: &Trie) -> Vec<Event> {
    let mut out = Vec::with_capacity(2 * trie.n_nodes());
    let mut stack = vec![(NodeId::ROOT, false)];
    while let Some((id, expanded)) = stack.pop() {
        if expanded {
            out.push(Event::Exit(id));
            continue;
        }
        out.push(Event::Enter(id));
        stack.push((id, true));
        let n = trie.node(id);
        for c in n.children.iter().rev().flatten() {
            stack.push((*c, false));
        }
    }
    out
}

/// Nodes in first-visit (pre-)order.
pub fn preorder(trie: &Trie) -> Vec<NodeId> {
    euler_tour(trie)
        .into_iter()
        .filter_map(|e| match e {
            Event::Enter(id) => Some(id),
            Event::Exit(_) => None,
        })
        .collect()
}

/// Sparse-table RMQ over the Euler tour for O(1) LCA queries.
pub struct LcaIndex {
    /// Euler tour as node ids (enter and exit both recorded as the node).
    tour: Vec<NodeId>,
    /// depth (in *nodes*, not bits) of each tour position.
    depth: Vec<u32>,
    /// first tour position of each node id (dense by id).
    first: Vec<u32>,
    /// sparse[k][i] = position of min depth in tour[i .. i + 2^k].
    sparse: Vec<Vec<u32>>,
}

impl LcaIndex {
    /// Build the index (O(n log n)).
    pub fn new(trie: &Trie) -> Self {
        // Classic Euler-LCA tour: record a node on entry and again after
        // each child returns (i.e. on a child's exit, record the parent).
        // The LCA of a and b is then the minimum-depth tour entry between
        // their first occurrences.
        let events = euler_tour(trie);
        let mut tour = Vec::with_capacity(events.len());
        let mut depth = Vec::with_capacity(events.len());
        let mut first = vec![u32::MAX; trie.id_bound()];
        let mut d: i64 = 0;
        for e in events {
            match e {
                Event::Enter(id) => {
                    if first[id.idx()] == u32::MAX {
                        first[id.idx()] = tour.len() as u32;
                    }
                    tour.push(id);
                    depth.push(d as u32);
                    d += 1;
                }
                Event::Exit(id) => {
                    d -= 1;
                    if let Some(p) = trie.node(id).parent {
                        tour.push(p);
                        depth.push((d - 1) as u32);
                    }
                }
            }
        }
        // build sparse table of argmin by depth
        let n = tour.len();
        let levels = if n <= 1 { 1 } else { n.ilog2() as usize + 1 };
        let mut sparse: Vec<Vec<u32>> = Vec::with_capacity(levels);
        sparse.push((0..n as u32).collect());
        for k in 1..levels {
            let half = 1usize << (k - 1);
            let prev = &sparse[k - 1];
            let mut row = Vec::with_capacity(n.saturating_sub((1 << k) - 1));
            for i in 0..=n.saturating_sub(1 << k) {
                let a = prev[i];
                let b = prev[i + half];
                row.push(if depth[a as usize] <= depth[b as usize] {
                    a
                } else {
                    b
                });
            }
            sparse.push(row);
        }
        LcaIndex {
            tour,
            depth,
            first,
            sparse,
        }
    }

    /// Lowest common ancestor of two nodes.
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let (mut i, mut j) = (self.first[a.idx()] as usize, self.first[b.idx()] as usize);
        if i > j {
            std::mem::swap(&mut i, &mut j);
        }
        let span = j - i + 1;
        let k = span.ilog2() as usize;
        let x = self.sparse[k][i];
        let y = self.sparse[k][j + 1 - (1 << k)];
        let pos = if self.depth[x as usize] <= self.depth[y as usize] {
            x
        } else {
            y
        };
        self.tour[pos as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitstr::BitStr;

    fn sample() -> Trie {
        let mut t = Trie::new();
        for (i, k) in ["00001", "10100000", "1010111", "10111", "11"]
            .iter()
            .enumerate()
        {
            t.insert(&BitStr::from_bin_str(k), i as u64);
        }
        t
    }

    #[test]
    fn tour_has_two_events_per_node() {
        let t = sample();
        let tour = euler_tour(&t);
        assert_eq!(tour.len(), 2 * t.n_nodes());
        // Balanced: every Enter has a matching later Exit.
        let mut open = Vec::new();
        for e in tour {
            match e {
                Event::Enter(id) => open.push(id),
                Event::Exit(id) => assert_eq!(open.pop(), Some(id)),
            }
        }
        assert!(open.is_empty());
    }

    #[test]
    fn preorder_starts_at_root_parents_before_children() {
        let t = sample();
        let pre = preorder(&t);
        assert_eq!(pre[0], NodeId::ROOT);
        let pos: std::collections::BTreeMap<_, _> =
            pre.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        for id in t.node_ids() {
            if let Some(p) = t.node(id).parent {
                assert!(pos[&p] < pos[&id], "{p:?} must precede {id:?}");
            }
        }
    }

    #[test]
    fn lca_matches_naive() {
        let t = sample();
        let idx = LcaIndex::new(&t);
        let naive = |mut a: NodeId, mut b: NodeId| -> NodeId {
            let anc = |mut x: NodeId| {
                let mut v = vec![x];
                while let Some(p) = t.node(x).parent {
                    v.push(p);
                    x = p;
                }
                v
            };
            let (aa, bb) = (anc(a), anc(b));
            for x in &aa {
                if bb.contains(x) {
                    return *x;
                }
            }
            let _ = (&mut a, &mut b);
            unreachable!()
        };
        let ids: Vec<NodeId> = t.node_ids().collect();
        for &a in &ids {
            for &b in &ids {
                assert_eq!(idx.lca(a, b), naive(a, b), "lca({a:?},{b:?})");
            }
        }
    }

    #[test]
    fn lca_on_single_node_trie() {
        let t = Trie::new();
        let idx = LcaIndex::new(&t);
        assert_eq!(idx.lca(NodeId::ROOT, NodeId::ROOT), NodeId::ROOT);
    }
}
