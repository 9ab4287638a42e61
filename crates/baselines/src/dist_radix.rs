//! Distributed radix tree (Table 1, row 1).
//!
//! A span-`s` radix tree with path compression: every node owns a
//! compressed bit-string edge and up to `2^s` children indexed by the next
//! `s` key bits. Nodes are placed on uniformly random modules; child links
//! are remote `(module, slot)` pointers. A batch query proceeds in BSP
//! rounds: each active query sits at one node, the round walks one node per
//! query (edge compare + child dispatch), and queries re-route to the
//! module of the next node. Rounds and per-query words are both `Θ(l/s)` —
//! the bound the PIM-trie beats — and queries sharing a search path contend
//! on the same module (§3.3's Push-method imbalance).

use bitstr::BitStr;
use pim_sim::{words_for_bits, PimSystem, Scatter, Wire};
use trie_core::Value;

/// Remote pointer to a radix node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeRef {
    /// owning module
    pub module: u32,
    /// slot in the module's arena
    pub slot: u32,
}

impl Wire for NodeRef {
    fn wire_words(&self) -> u64 {
        1
    }
}

/// One radix node: a compressed edge plus `2^s` child slots.
pub struct RNode {
    edge: BitStr,
    children: Vec<Option<NodeRef>>,
    value: Option<Value>,
}

impl RNode {
    fn words(&self, span: usize) -> u64 {
        words_for_bits(self.edge.len()) + (1 << span) as u64 + 1
    }
}

/// Module-local state: an arena of radix nodes.
pub struct RadixModule {
    nodes: Vec<RNode>,
}

/// A query step request: walk one node with the remaining key bits.
struct StepMsg {
    slot: u32,
    /// remaining key bits (only the next `edge + s` bits are actually
    /// shipped; accounting reflects that)
    bits: BitStr,
}

impl Wire for StepMsg {
    fn wire_words(&self) -> u64 {
        // one word of addressing + the bits the node inspects (at most the
        // edge plus one digit; we over-approximate with up to 2 words)
        2 + 1
    }
}

struct StepOut {
    consumed: u64,
    next: Option<NodeRef>,
    exact_value: Option<Value>,
}

impl Wire for StepOut {
    fn wire_words(&self) -> u64 {
        3
    }
}

/// The distributed radix-tree index (host handle).
pub struct DistRadixTree {
    sys: PimSystem<RadixModule>,
    span: usize,
    root: NodeRef,
    n_keys: usize,
    rng: rand_chacha::ChaCha8Rng,
}

impl DistRadixTree {
    /// Build over `p` modules with the given span (fanout `2^span`),
    /// bulk-loading `keys`/`values`. The CPU builds the compressed span-`s`
    /// tree, then scatters the nodes uniformly at random (costed rounds).
    pub fn build(p: usize, span: usize, seed: u64, keys: &[BitStr], values: &[Value]) -> Self {
        assert!((1..=8).contains(&span));
        assert_eq!(keys.len(), values.len());
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);

        // CPU-side construction of the compressed span tree.
        let mut nodes: Vec<RNode> = vec![RNode {
            edge: BitStr::new(),
            children: vec![None; 1 << span],
            value: None,
        }];
        let mut cpu_children: Vec<Vec<Option<usize>>> = vec![vec![None; 1 << span]];
        let mut n_keys = 0;
        for (k, v) in keys.iter().zip(values) {
            if insert_cpu(&mut nodes, &mut cpu_children, span, k, *v) {
                n_keys += 1;
            }
        }

        // Random placement.
        let placement: Vec<u32> = (0..nodes.len())
            .map(|_| rng.gen_range(0..p as u32))
            .collect();
        let mut sys = PimSystem::new(p, |_| RadixModule { nodes: Vec::new() });
        // ship nodes; slots are per-module dense in placement order
        let mut slot_of: Vec<u32> = vec![0; nodes.len()];
        let mut counters = vec![0u32; p];
        for (i, &m) in placement.iter().enumerate() {
            slot_of[i] = counters[m as usize];
            counters[m as usize] += 1;
        }
        let refs: Vec<NodeRef> = (0..nodes.len())
            .map(|i| NodeRef {
                module: placement[i],
                slot: slot_of[i],
            })
            .collect();
        // materialise remote child pointers
        for (i, kids) in cpu_children.iter().enumerate() {
            for (d, c) in kids.iter().enumerate() {
                nodes[i].children[d] = c.map(|ci| refs[ci]);
            }
        }
        // one bulk round: send each node to its module (costed)
        struct PutNode(RNode, usize);
        impl Wire for PutNode {
            fn wire_words(&self) -> u64 {
                self.0.words(self.1)
            }
        }
        let mut put = Scatter::new(p);
        for (i, node) in nodes.into_iter().enumerate() {
            put.push(placement[i] as usize, (), PutNode(node, span));
        }
        sys.round("radix.build", put.take_boxes(), |ctx, msgs| {
            for PutNode(n, _) in msgs {
                ctx.state.nodes.push(n);
            }
            Vec::<u64>::new()
        });
        DistRadixTree {
            sys,
            span,
            root: refs[0],
            n_keys,
            rng,
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.n_keys
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.n_keys == 0
    }

    /// The simulator (metrics).
    pub fn system(&self) -> &PimSystem<RadixModule> {
        &self.sys
    }

    /// Mutable simulator access.
    pub fn system_mut(&mut self) -> &mut PimSystem<RadixModule> {
        &mut self.sys
    }

    /// Space across modules in words.
    pub fn space_words(&self) -> u64 {
        let span = self.span;
        self.sys
            .modules()
            .map(|m| m.nodes.iter().map(|n| n.words(span)).sum::<u64>())
            .sum()
    }

    /// Batch LongestCommonPrefix by level-by-level pointer chasing:
    /// `Θ(max path length)` BSP rounds for the batch.
    pub fn lcp_batch(&mut self, raw_queries: &[BitStr]) -> Vec<usize> {
        crate::traced(
            self,
            |s| s.sys.metrics_mut(),
            "lcp",
            "pointer-chase",
            |s| s.lcp_batch_inner(raw_queries),
        )
    }

    fn lcp_batch_inner(&mut self, raw_queries: &[BitStr]) -> Vec<usize> {
        // queries are padded like stored keys; the reported LCP is capped
        // at the raw query length (span > 1 quantises LCPs to digit
        // granularity — the l/s resolution Table 1 charges this design)
        let queries: Vec<BitStr> = raw_queries.iter().map(|q| pad_key(q, self.span)).collect();
        let p = self.sys.p();
        let span = self.span;
        struct Active {
            node: NodeRef,
            consumed: usize,
        }
        let mut states: Vec<Active> = queries
            .iter()
            .map(|_| Active {
                node: self.root,
                consumed: 0,
            })
            .collect();
        let mut done = vec![false; queries.len()];
        let mut out = vec![0usize; queries.len()];
        let mut active: Vec<usize> = (0..queries.len()).collect();
        while !active.is_empty() {
            let mut sent = Scatter::new(p);
            for &qi in &active {
                let st = &states[qi];
                let step = StepMsg {
                    slot: st.node.slot,
                    bits: queries[qi]
                        .slice(st.consumed..queries[qi].len())
                        .to_bitstr(),
                };
                sent.push(st.node.module as usize, qi, step);
            }
            let replies = self
                .sys
                .round("radix.step", sent.take_boxes(), |ctx, msgs| {
                    msgs.into_iter()
                        .map(|m| {
                            ctx.work(2);
                            step_local(&ctx.state.nodes[m.slot as usize], span, &m.bits)
                        })
                        .collect::<Vec<StepOut>>()
                });
            let mut next_active = Vec::new();
            for (_, qi, r) in crate::gathered(sent, replies) {
                states[qi].consumed += r.consumed as usize;
                match r.next {
                    Some(nr) if !done[qi] => {
                        states[qi].node = nr;
                        next_active.push(qi);
                    }
                    _ => {
                        out[qi] = states[qi].consumed.min(raw_queries[qi].len());
                        done[qi] = true;
                    }
                }
            }
            active = next_active;
        }
        out
    }

    /// Exact-key lookup, same pointer-chasing pattern.
    pub fn get_batch(&mut self, raw_keys: &[BitStr]) -> Vec<Option<Value>> {
        crate::traced(
            self,
            |s| s.sys.metrics_mut(),
            "get",
            "pointer-chase",
            |s| s.get_batch_inner(raw_keys),
        )
    }

    fn get_batch_inner(&mut self, raw_keys: &[BitStr]) -> Vec<Option<Value>> {
        // queries walk the same padded digit space the build used
        let keys: Vec<BitStr> = raw_keys.iter().map(|k| pad_key(k, self.span)).collect();
        let p = self.sys.p();
        let span = self.span;
        let mut states: Vec<(NodeRef, usize)> = keys.iter().map(|_| (self.root, 0usize)).collect();
        let mut out: Vec<Option<Value>> = vec![None; keys.len()];
        let mut active: Vec<usize> = (0..keys.len()).collect();
        while !active.is_empty() {
            let mut sent = Scatter::new(p);
            for &qi in &active {
                let (node, consumed) = states[qi];
                let step = StepMsg {
                    slot: node.slot,
                    bits: keys[qi].slice(consumed..keys[qi].len()).to_bitstr(),
                };
                sent.push(node.module as usize, qi, step);
            }
            let replies = self.sys.round("radix.get", sent.take_boxes(), |ctx, msgs| {
                msgs.into_iter()
                    .map(|m| {
                        ctx.work(2);
                        step_local(&ctx.state.nodes[m.slot as usize], span, &m.bits)
                    })
                    .collect::<Vec<StepOut>>()
            });
            let mut next_active = Vec::new();
            for (_, qi, r) in crate::gathered(sent, replies) {
                states[qi].1 += r.consumed as usize;
                match r.next {
                    Some(nr) => {
                        states[qi].0 = nr;
                        next_active.push(qi);
                    }
                    None => {
                        if states[qi].1 == keys[qi].len() {
                            out[qi] = r.exact_value;
                        }
                    }
                }
            }
            active = next_active;
        }
        out
    }

    /// A fresh uniformly random module (placement of future nodes).
    pub fn random_module(&mut self) -> u32 {
        use rand::Rng;
        self.rng.gen_range(0..self.sys.p() as u32)
    }
}

/// Walk one node: consume the edge (or stop at a divergence), then either
/// report the next child pointer or finish.
fn step_local(node: &RNode, span: usize, bits: &BitStr) -> StepOut {
    let l = node.edge.as_slice().lcp(&bits.as_slice());
    if l < node.edge.len() || l >= bits.len() {
        // diverged inside the edge, or the key ended here
        let exact = (l == bits.len() && l == node.edge.len())
            .then_some(node.value)
            .flatten();
        return StepOut {
            consumed: l as u64,
            next: None,
            exact_value: exact,
        };
    }
    // whole edge consumed: dispatch on the next (up to) `span` bits
    let have = (bits.len() - l).min(span);
    let digit = bits.slice(l..l + have).to_u64() as usize;
    // short final chunks are padded into their own digit space: a key with
    // fewer than `span` trailing bits uses a dedicated shorter-digit slot —
    // modelled by reserving the low digits for full chunks only when the
    // chunk is full-length. (Build uses the same rule.)
    let slot = if have == span {
        digit
    } else {
        // shorter chunk: no child can extend it unless built the same way
        digit
    };
    match node.children[slot] {
        Some(nr) if have == span => StepOut {
            consumed: (l + span) as u64,
            next: Some(nr),
            exact_value: None,
        },
        _ => StepOut {
            consumed: l as u64,
            next: None,
            exact_value: None,
        },
    }
}

/// CPU-side insert into the under-construction span tree. Returns true if
/// the key is new. Keys whose length is not a multiple of `span` are
/// padded with a 1-terminator + zeros to the next digit boundary, a
/// standard trick that keeps prefix-freeness and digit alignment.
fn insert_cpu(
    nodes: &mut Vec<RNode>,
    kids: &mut Vec<Vec<Option<usize>>>,
    span: usize,
    key: &BitStr,
    value: Value,
) -> bool {
    let k = pad_key(key, span);
    let mut cur = 0usize;
    let mut pos = 0usize;
    loop {
        let edge_len = nodes[cur].edge.len();
        let rest = k.slice(pos..k.len());
        let l = nodes[cur].edge.as_slice().lcp(&rest);
        if l < edge_len {
            // split this node's edge at a digit boundary <= l; the moved
            // lower part is addressed by its first digit, which the edge
            // itself then excludes (digits are consumed by dispatch)
            let cut = l / span * span;
            let upper = nodes[cur].edge.slice(0..cut).to_bitstr();
            let lower = nodes[cur].edge.slice(cut..edge_len).to_bitstr();
            debug_assert!(lower.len() >= span && lower.len().is_multiple_of(span));
            let moved = RNode {
                edge: lower.slice(span..lower.len()).to_bitstr(),
                children: vec![None; 1 << span],
                value: nodes[cur].value.take(),
            };
            let moved_kids = std::mem::replace(&mut kids[cur], vec![None; 1 << span]);
            nodes.push(moved);
            kids.push(moved_kids);
            let moved_idx = nodes.len() - 1;
            nodes[cur].edge = upper;
            let digit = lower.slice(0..span).to_u64() as usize;
            kids[cur][digit] = Some(moved_idx);
            // continue: cur now has the split edge; loop re-evaluates
            continue;
        }
        pos += l;
        if pos == k.len() {
            let fresh = nodes[cur].value.is_none();
            nodes[cur].value = Some(value);
            return fresh;
        }
        let digit = k.slice(pos..pos + span).to_u64() as usize;
        match kids[cur][digit] {
            Some(c) => {
                cur = c;
                pos += span;
                // the child's edge excludes the digit? No: child's edge
                // *includes* everything after the digit; digits are
                // consumed by the dispatch itself.
            }
            None => {
                let node = RNode {
                    edge: k.slice(pos + span..k.len()).to_bitstr(),
                    children: vec![None; 1 << span],
                    value: Some(value),
                };
                nodes.push(node);
                kids.push(vec![None; 1 << span]);
                let idx = nodes.len() - 1;
                kids[cur][digit] = Some(idx);
                return true;
            }
        }
    }
}

/// Pad a key to a multiple of `span` bits: append a 1 then zeros. This is
/// applied to stored keys *and* queries, so shared prefixes are preserved
/// up to the final partial digit.
pub fn pad_key(key: &BitStr, span: usize) -> BitStr {
    let mut k = key.clone();
    if span > 1 {
        k.push(true);
        while !k.len().is_multiple_of(span) {
            k.push(false);
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use trie_core::Trie;

    fn random_keys(seed: u64, n: usize, max_len: usize) -> Vec<BitStr> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let len = rng.gen_range(1..max_len);
                BitStr::from_bits((0..len).map(|_| rng.gen_bool(0.5)))
            })
            .collect()
    }

    #[test]
    fn get_finds_stored_keys() {
        for span in [1usize, 4] {
            let keys = random_keys(1, 300, 80);
            let values: Vec<u64> = (0..keys.len() as u64).collect();
            let mut t = DistRadixTree::build(4, span, 7, &keys, &values);
            let got = t.get_batch(&keys);
            let mut oracle = Trie::new();
            for (k, v) in keys.iter().zip(&values) {
                oracle.insert(k, *v);
            }
            for (i, k) in keys.iter().enumerate() {
                assert_eq!(got[i], oracle.get(k.as_slice()), "span {span} key {k}");
            }
            // absent keys miss
            let absent = random_keys(2, 100, 90);
            for (k, g) in absent.iter().zip(t.get_batch(&absent)) {
                assert_eq!(g, oracle.get(k.as_slice()), "span {span} absent {k}");
            }
        }
    }

    #[test]
    fn lcp_exact_for_span1() {
        // span 1 stores raw keys (no padding): LCP is exact
        let keys = random_keys(3, 200, 60);
        let values: Vec<u64> = (0..keys.len() as u64).collect();
        let mut t = DistRadixTree::build(4, 1, 9, &keys, &values);
        let mut oracle = Trie::new();
        for (k, v) in keys.iter().zip(&values) {
            oracle.insert(k, *v);
        }
        let queries = random_keys(4, 150, 70);
        for (q, got) in queries.iter().zip(t.lcp_batch(&queries)) {
            assert_eq!(got, oracle.lcp(q.as_slice()).lcp_bits, "query {q}");
        }
    }

    #[test]
    fn rounds_scale_with_path_depth() {
        // Table 1: Θ(l/s) rounds in the worst case. Random keys compress
        // into shallow trees, so the stressor is a chain trie (each key
        // extends the previous): the node path grows linearly and so do
        // the pointer-chasing rounds.
        let mut rounds = Vec::new();
        for n in [10usize, 40] {
            let keys = workloads::path_chain(n, 8, 5);
            let values: Vec<u64> = (0..keys.len() as u64).collect();
            let mut t = DistRadixTree::build(4, 4, 11, &keys, &values);
            let snap = t.system().metrics().snapshot();
            let deepest = vec![keys.last().unwrap().clone()];
            let _ = t.lcp_batch(&deepest);
            let d = t.system().metrics().since(&snap);
            rounds.push(d.io_rounds);
        }
        assert!(
            rounds[1] >= 2 * rounds[0],
            "rounds did not grow with path depth: {rounds:?}"
        );
    }

    #[test]
    fn shared_path_contention_is_visible() {
        // queries sharing one search path all hit the same modules
        let keys = workloads::shared_prefix(200, 64, 120, 13);
        let values: Vec<u64> = (0..keys.len() as u64).collect();
        let mut t = DistRadixTree::build(8, 4, 13, &keys, &values);
        let queries = workloads::shared_prefix(400, 64, 130, 14);
        let snap = t.system().metrics().snapshot();
        let _ = t.lcp_batch(&queries);
        let d = t.system().metrics().since(&snap);
        assert!(
            d.io_balance() > 2.0,
            "expected contention imbalance, got {:.2}",
            d.io_balance()
        );
    }
}
