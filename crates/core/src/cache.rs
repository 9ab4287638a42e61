//! Host-side cache of hot upper-trie blocks (the `HotPathCache`).
//!
//! Under skewed workloads nearly every query walks the same few upper
//! levels of the data trie, and the batch pipeline pays CPU↔PIM words to
//! re-match them every round. This module keeps verbatim host-side copies
//! of the hottest [`DataBlock`](crate::module::DataBlock)s, keyed by
//! [`BlockRef`], so read-only batch ops (`lcp`, `get`) can resolve a
//! query entirely on the CPU when its longest common prefix terminates
//! inside cached levels — skipping the meta-descent and block IO rounds for
//! that query altogether.
//!
//! Design rules (all enforced here or in `ops.rs`/`build.rs`):
//!
//! * **Exactness** — the CPU walk uses the same `extend_match` routine as
//!   the module-side matcher, over byte-identical block clones, so a hit
//!   is always the exact answer (hits are never flagged, never redone).
//!   A walk that stops *exactly* on a mirror leaf descends into the child
//!   block; if that child is not cached the probe is a miss, because the
//!   canonical anchor lives in the child.
//! * **Coherence** — every request the host sends is classified before
//!   dispatch ([`Req::touches`](crate::module::Req::touches)) and handed
//!   to [`HotPathCache::invalidate_touched`]; any cached block it touches
//!   is dropped (frequency is retained, so a still-hot block is
//!   re-admitted quickly). Module resets invalidate the whole module.
//! * **Determinism** — frequency decay is driven by a deterministic op
//!   counter, never a wall clock; all containers are `BTreeMap`s; ties
//!   break on `BlockRef` order. Capacity `0` disables everything.
//!
//! Paper: §6.3 names host-side replication of hot trie levels as the
//! skew-scaling direction; PIM-tree (Kang et al., PAPERS.md) demonstrates
//! the same host/PIM split.

#[cfg(test)]
use crate::module::Req;
use crate::module::{extend_match, is_at, Touch, MIRROR_VALUE};
use crate::refs::BlockRef;
use bitstr::BitStr;
use std::collections::BTreeMap;
use trie_core::{NodeId, Trie, TriePos, Value};

/// How many ops between frequency-decay sweeps (halve all counters,
/// drop zeros). An "op" is a whole batch (thousands of queries), so the
/// period must be small: with period `T` and per-batch gain `g` a hot
/// block's frequency settles near `2·T·g`, and a dead hotspot ages to
/// zero within `T · log₂(freq)` batches. `T = 4` lets a shifted hotspot
/// displace the old one within a few batches while one quiet batch
/// cannot erase a genuinely hot block's history.
const DECAY_PERIOD: u64 = 4;

/// Per-op cap on admission candidates, bounding the `cache.admit`
/// round's traffic to `MAX_ADMITS_PER_OP · O(K_B)` words per op. Blocks
/// are small (a few K_B words) and a query path is many blocks deep, so
/// the cap must admit a whole working set's next level in a handful of
/// batches — admission traffic is honestly metered, so an oversized cap
/// simply shows up as IO volume that the hit savings must beat.
const MAX_ADMITS_PER_OP: usize = 256;

/// A host-side clone of one data block — exactly the fields the CPU walk
/// needs (trie shape, global root depth, mirror leaves).
pub(crate) struct CachedBlock {
    /// Verbatim clone of the block trie.
    pub(crate) trie: Trie,
    /// Global bit-depth of the block root.
    pub(crate) root_depth: u64,
    /// Mirror leaves: node id → child block.
    pub(crate) mirrors: BTreeMap<NodeId, BlockRef>,
    /// Weight in words (counts against the capacity bound).
    pub(crate) weight: u64,
}

/// Outcome of probing one query against the cache.
pub(crate) enum ProbeResult {
    /// The walk terminated strictly inside cached territory: `depth` is
    /// the exact matched depth, and `value` the stored value if the key
    /// sits at exactly that depth (mirror sentinels filtered).
    Hit {
        /// exact LCP depth in bits
        depth: u64,
        /// exact point-lookup answer for the full key, if stored
        value: Option<Value>,
    },
    /// The walk left cached territory at `frontier` (an alive block the
    /// query needs next) — the query must take the normal IO path.
    Miss {
        /// first uncached block on the query's path
        frontier: BlockRef,
    },
}

/// One probe's result plus the CPU work units the walk cost.
pub(crate) struct Probe {
    /// hit or miss
    pub(crate) result: ProbeResult,
    /// host work units to charge for the walk
    pub(crate) work: u64,
}

/// Size-bounded, frequency-decayed host cache of hot upper-trie blocks.
///
/// See the [module docs](self) for the design rules.
#[derive(Default)]
pub(crate) struct HotPathCache {
    /// Capacity bound in words; `0` = the cache is disabled entirely.
    capacity: u64,
    /// Words currently cached.
    words: u64,
    /// The cached blocks.
    blocks: BTreeMap<BlockRef, CachedBlock>,
    /// Access frequencies (decayed); also tracks hot *uncached* blocks so
    /// admission can prefer them.
    freq: BTreeMap<BlockRef, u64>,
    /// Never evicted (the trie root block — on every query's path).
    pinned: Option<BlockRef>,
    /// Deterministic op counter driving decay.
    ops: u64,
}

impl HotPathCache {
    /// A cache holding at most `capacity` words (`0` disables it).
    pub(crate) fn new(capacity: u64) -> Self {
        HotPathCache {
            capacity,
            ..Default::default()
        }
    }

    /// Whether the cache participates at all. Every caller gates on this
    /// so a zero-capacity trie runs the untouched legacy code path.
    pub(crate) fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Pin a block (the root) against eviction.
    pub(crate) fn set_pinned(&mut self, bref: BlockRef) {
        self.pinned = Some(bref);
    }

    /// Number of cached blocks.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Words currently cached.
    #[cfg(test)]
    pub(crate) fn cached_words(&self) -> u64 {
        self.words
    }

    /// Is this block currently cached?
    #[cfg(test)]
    pub(crate) fn contains(&self, bref: BlockRef) -> bool {
        self.blocks.contains_key(&bref)
    }

    /// Walk `key` from `root` through cached blocks. Bumps the frequency
    /// of every block the walk touches (cached or not). The walk mirrors
    /// the module-side matcher exactly: consume bits with `extend_match`,
    /// descend through mirror leaves, stop at divergence or exhaustion.
    pub(crate) fn probe(&mut self, root: BlockRef, key: &BitStr) -> Probe {
        let mut bref = root;
        let mut consumed = 0usize;
        let mut work = 1u64;
        loop {
            *self.freq.entry(bref).or_insert(0) += 1;
            let Some(cb) = self.blocks.get(&bref) else {
                return Probe {
                    result: ProbeResult::Miss { frontier: bref },
                    work,
                };
            };
            if cb.root_depth != consumed as u64 {
                // depth bookkeeping disagrees — treat as a miss rather
                // than risk an inexact hit (coherence safety net)
                return Probe {
                    result: ProbeResult::Miss { frontier: bref },
                    work,
                };
            }
            let root_pos = TriePos {
                node: NodeId::ROOT,
                edge_off: 0,
            };
            let (c, stop) = extend_match(&cb.trie, root_pos, key.slice(consumed..key.len()));
            consumed += c;
            work += 1 + c as u64 / 64;
            // A stop exactly on a mirror leaf hands the walk to the child
            // block (that also covers an exhausted key: the real node with
            // the key's value is the child's root).
            if let Some(child) = is_at(&cb.trie, stop)
                .and_then(|n| cb.mirrors.get(&n))
                .copied()
            {
                bref = child;
                continue;
            }
            // Terminated strictly inside this cached block — exact.
            let value = if consumed == key.len() {
                is_at(&cb.trie, stop)
                    .and_then(|n| cb.trie.node(n).value)
                    .filter(|v| *v != MIRROR_VALUE)
            } else {
                None
            };
            return Probe {
                result: ProbeResult::Hit {
                    depth: consumed as u64,
                    value,
                },
                work,
            };
        }
    }

    /// Pick up to [`MAX_ADMITS_PER_OP`] admission candidates from this
    /// op's miss frontiers, hottest first (frequency, then `BlockRef`
    /// order). Candidates already cached or too large are filtered by
    /// [`admit`](Self::admit) later.
    pub(crate) fn admission_candidates(
        &self,
        frontiers: &BTreeMap<BlockRef, u64>,
    ) -> Vec<BlockRef> {
        let mut cands: Vec<(u64, BlockRef)> = frontiers
            .iter()
            .filter(|(b, _)| !self.blocks.contains_key(b))
            .map(|(b, n)| (*n, *b))
            .collect();
        // hottest first; BTreeMap order breaks frequency ties
        cands.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        cands
            .into_iter()
            .take(MAX_ADMITS_PER_OP)
            .map(|(_, b)| b)
            .collect()
    }

    /// Admit a fetched block, evicting colder entries to fit. Returns
    /// `(admitted, evictions)`. Rejects blocks heavier than the whole
    /// capacity, and never evicts an entry at least as hot as the
    /// candidate (anti-thrash), nor the pinned root.
    pub(crate) fn admit(&mut self, bref: BlockRef, block: CachedBlock) -> (bool, u64) {
        if !self.enabled() || self.blocks.contains_key(&bref) || block.weight > self.capacity {
            return (false, 0);
        }
        let cand_freq = self.freq.get(&bref).copied().unwrap_or(0);
        let mut evictions = 0u64;
        while self.words + block.weight > self.capacity {
            let victim = self
                .blocks
                .iter()
                .filter(|(b, _)| Some(**b) != self.pinned)
                .map(|(b, cb)| (self.freq.get(b).copied().unwrap_or(0), *b, cb.weight))
                .min();
            match victim {
                Some((f, b, w)) if f < cand_freq => {
                    self.blocks.remove(&b);
                    self.words -= w;
                    evictions += 1;
                }
                _ => return (false, evictions),
            }
        }
        self.words += block.weight;
        self.blocks.insert(bref, block);
        (true, evictions)
    }

    /// Drop a cached block (its backing state changed). Frequency is
    /// kept so a still-hot block is re-admitted on the next read op.
    pub(crate) fn invalidate(&mut self, bref: BlockRef) -> bool {
        match self.blocks.remove(&bref) {
            Some(cb) => {
                self.words -= cb.weight;
                true
            }
            None => false,
        }
    }

    /// Drop every cached block on `module` (it was reset). Returns the
    /// number dropped.
    pub(crate) fn invalidate_module(&mut self, module: u32) -> u64 {
        let victims: Vec<BlockRef> = self
            .blocks
            .keys()
            .filter(|b| b.module == module)
            .copied()
            .collect();
        let n = victims.len() as u64;
        for b in victims {
            self.invalidate(b);
        }
        n
    }

    /// Coherence: drop every cached block an outgoing request touches
    /// (see [`Req::touches`]; `module` is where the request is going).
    /// Returns the number of invalidations.
    pub(crate) fn invalidate_touched(&mut self, module: u32, touch: &Touch) -> u64 {
        match touch {
            Touch::Blocks(a, b) => {
                u64::from(self.invalidate(*a)) + b.map_or(0, |b| u64::from(self.invalidate(b)))
            }
            Touch::Reset => self.invalidate_module(module),
            Touch::Meta(_) | Touch::NoCopy => 0,
        }
    }

    /// [`Self::invalidate_touched`] over one BSP round's outgoing requests
    /// (indexed by module), the way `PimTrie::exchange` scans them.
    #[cfg(test)]
    pub(crate) fn invalidate_for_reqs(&mut self, inbox: &[Vec<Req>]) -> u64 {
        let mut n = 0u64;
        for (m, msgs) in inbox.iter().enumerate() {
            for req in msgs {
                n += self.invalidate_touched(m as u32, &req.touches(m as u32));
            }
        }
        n
    }

    /// Advance the deterministic op clock; every [`DECAY_PERIOD`] ops all
    /// frequencies halve and zeros are dropped, so a shifted hotspot ages
    /// out instead of squatting on capacity forever.
    pub(crate) fn tick(&mut self) {
        self.ops += 1;
        if self.ops.is_multiple_of(DECAY_PERIOD) {
            let old = std::mem::take(&mut self.freq);
            self.freq = old
                .into_iter()
                .filter_map(|(b, f)| (f >= 2).then_some((b, f / 2)))
                .collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bref(module: u32, slot: u32) -> BlockRef {
        BlockRef { module, slot }
    }

    fn block(bits: &[(&str, u64)], mirrors: Vec<(NodeId, BlockRef)>, depth: u64) -> CachedBlock {
        let mut trie = Trie::new();
        for (k, v) in bits {
            trie.insert(&BitStr::from_bin_str(k), *v);
        }
        let weight = trie.size_words() as u64;
        CachedBlock {
            trie,
            root_depth: depth,
            mirrors: mirrors.into_iter().collect(),
            weight,
        }
    }

    #[test]
    fn disabled_cache_is_inert() {
        let mut c = HotPathCache::new(0);
        assert!(!c.enabled());
        let (ok, _) = c.admit(bref(0, 0), block(&[("0", 1)], vec![], 0));
        assert!(!ok);
    }

    #[test]
    fn probe_hits_inside_cached_block() {
        let mut c = HotPathCache::new(1 << 12);
        let root = bref(0, 0);
        c.set_pinned(root);
        c.admit(root, block(&[("0101", 7), ("0110", 8)], vec![], 0));
        // exact key → hit with value
        match c.probe(root, &BitStr::from_bin_str("0101")).result {
            ProbeResult::Hit { depth, value } => {
                assert_eq!(depth, 4);
                assert_eq!(value, Some(7));
            }
            ProbeResult::Miss { .. } => panic!("expected hit"),
        }
        // divergence inside the block → exact lcp, no value
        match c.probe(root, &BitStr::from_bin_str("0111")).result {
            ProbeResult::Hit { depth, value } => {
                assert_eq!(depth, 3);
                assert_eq!(value, None);
            }
            ProbeResult::Miss { .. } => panic!("expected hit"),
        }
    }

    #[test]
    fn probe_descends_mirrors_and_misses_past_frontier() {
        let mut c = HotPathCache::new(1 << 12);
        let root = bref(0, 0);
        let child = bref(1, 3);
        // "01" is a mirror leaf pointing at `child`
        let mut b = block(&[("01", MIRROR_VALUE), ("11", 9)], vec![], 0);
        let mid = {
            let (_, stop) = extend_match(
                &b.trie,
                TriePos {
                    node: NodeId::ROOT,
                    edge_off: 0,
                },
                BitStr::from_bin_str("01").as_slice(),
            );
            is_at(&b.trie, stop).expect("mirror node")
        };
        b.mirrors.insert(mid, child);
        c.set_pinned(root);
        c.admit(root, b);
        // query crossing the mirror: frontier = child block
        match c.probe(root, &BitStr::from_bin_str("0100")).result {
            ProbeResult::Miss { frontier } => assert_eq!(frontier, child),
            ProbeResult::Hit { .. } => panic!("expected miss at frontier"),
        }
        // query ending exactly on the mirror also defers to the child
        match c.probe(root, &BitStr::from_bin_str("01")).result {
            ProbeResult::Miss { frontier } => assert_eq!(frontier, child),
            ProbeResult::Hit { .. } => panic!("mirror value must not leak"),
        }
        // cache the child: the same queries now hit, with the mirror
        // sentinel resolved to the child root's real value
        c.admit(child, block(&[("00", 5)], vec![], 2));
        match c.probe(root, &BitStr::from_bin_str("0100")).result {
            ProbeResult::Hit { depth, value } => {
                assert_eq!(depth, 4);
                assert_eq!(value, Some(5));
            }
            ProbeResult::Miss { .. } => panic!("expected hit through mirror"),
        }
    }

    #[test]
    fn admission_evicts_cold_first_and_respects_pin() {
        let a = bref(0, 1);
        let b = bref(0, 2);
        let root = bref(0, 0);
        let mk = || block(&[("0101", 1), ("1100", 2), ("1010", 3)], vec![], 0);
        let w = mk().weight;
        let mut c = HotPathCache::new(2 * w);
        c.set_pinned(root);
        assert!(c.admit(root, mk()).0);
        assert!(c.admit(a, mk()).0);
        assert_eq!(c.len(), 2);
        // heat up the candidate so it out-ranks `a`
        for _ in 0..3 {
            let _ = c.probe(b, &BitStr::from_bin_str("0"));
        }
        let (ok, evictions) = c.admit(b, mk());
        assert!(ok);
        assert_eq!(evictions, 1);
        assert!(c.contains(root), "pinned root survives");
        assert!(!c.contains(a), "cold entry evicted");
        assert!(c.cached_words() <= 2 * w);
        // an equally-cold candidate cannot thrash out a hot entry
        let (ok, _) = c.admit(a, mk());
        assert!(!ok);
    }

    #[test]
    fn decay_halves_and_drops() {
        let mut c = HotPathCache::new(1 << 10);
        let a = bref(0, 1);
        for _ in 0..3 {
            let _ = c.probe(a, &BitStr::from_bin_str("0"));
        }
        assert_eq!(c.freq[&a], 3);
        for _ in 0..DECAY_PERIOD {
            c.tick();
        }
        assert_eq!(c.freq[&a], 1);
        for _ in 0..DECAY_PERIOD {
            c.tick();
        }
        assert!(!c.freq.contains_key(&a));
    }

    #[test]
    fn invalidation_scans_requests() {
        let mut c = HotPathCache::new(1 << 12);
        let a = bref(0, 1);
        let b = bref(1, 4);
        c.admit(a, block(&[("00", 1)], vec![], 0));
        c.admit(b, block(&[("00", 1)], vec![], 0));
        // a graft on module 0 slot 1 invalidates `a` only
        let inbox = vec![
            vec![Req::GraftMany {
                slot: 1,
                grafts: vec![],
            }],
            vec![],
        ];
        assert_eq!(c.invalidate_for_reqs(&inbox), 1);
        assert!(!c.contains(a) && c.contains(b));
        // a module reset sweeps everything on that module
        let inbox = vec![vec![], vec![Req::ResetModule]];
        assert_eq!(c.invalidate_for_reqs(&inbox), 1);
        assert!(!c.contains(b));
        assert_eq!(c.cached_words(), 0);
    }
}
