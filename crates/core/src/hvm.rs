//! The hash value manager's local kernel (§4.4).
//!
//! A [`HashIndex`] stores block-root metadata in the paper's two-layer
//! form: the first layer maps the digest of `hash(S_pre)` (the longest
//! `w`-aligned prefix of the root string `S`) to a group; the second layer
//! resolves the sub-word suffix `S_rem` inside the group. `S_rem` is
//! shorter than `w` bits, so a group is one vector of
//! `(S_rem left-aligned in a word, its length, entry slot)` kept in
//! prefix-first lexicographic order, and a query is an exact
//! `O(log g)` search of it (see `resolve`). Every entry also carries
//! `S_last` — the trailing `w` bits of `S` — for the §4.4.3 verification
//! of non-critical matches.
//!
//! The paper's second layer is a y-fast trie with validity vectors
//! (Figure 5). Its query only guarantees that the critical root is
//! *recoverable* from the answer (a prefix of it), which left the old
//! kernel scanning the whole group whenever the answer was not itself the
//! match; the sorted vector answers exactly and needs no second path.
//!
//! [`hash_match_piece`] is Algorithm 3 in its efficient form (§4.4.2): it
//! walks a query piece once, enumerates *pivot* positions (global depths
//! that are multiples of `w`), derives pivot hashes incrementally with the
//! associative combine, probes the index at each pivot bottom-up, resolves
//! hits through the second layer, **verifies every candidate bit-exactly
//! against the piece's own bits**, and reports the deepest verified match
//! per edge (the critical-pivot rule). The same kernel runs on a PIM
//! module (push) or on the CPU against pulled metadata (pull).

use crate::fixed::ceil_log2;
use crate::refs::Slab;
use bitstr::hash::{HashVal, HashWidth, IncrementalHash, PolyHasher};
use bitstr::{BitSlice, BitStr, WORD_BITS};
use std::collections::BTreeMap;
use trie_core::{NodeId, Trie};

const W: u64 = WORD_BITS as u64;

/// One stored root's metadata (the paper's meta-tree node payload).
#[derive(Clone, Debug)]
pub struct IndexEntry<R> {
    /// Depth of the root string `S` in bits.
    pub depth: u64,
    /// `hash(S_pre)` — hash of the longest `w`-aligned prefix.
    pub pre_hash: HashVal,
    /// `S_rem` — the sub-word suffix after `S_pre` (`< w` bits).
    pub rem: BitStr,
    /// `S_last` — the last `min(w, |S|)` bits of `S` (§4.4.3).
    pub s_last: BitStr,
    /// What this entry points at.
    pub target: R,
}

/// At most `w` bits held left-aligned in one word, tail zero: an `S_rem`,
/// a query's `S'_rem`, or the bits between a pivot and a node. The derived
/// order — bits, then length — is lexicographic with a prefix before its
/// extensions, because zero is the smallest padding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Chunk {
    bits: u64,
    len: u8,
}

impl Chunk {
    /// The `n <= w` bits of `s` from offset `at`.
    fn of(s: BitSlice<'_>, at: usize, n: usize) -> Chunk {
        Chunk {
            bits: s.chunk(at, n),
            len: n as u8,
        }
    }

    /// The first `n <= len` bits.
    fn prefix(self, n: u8) -> Chunk {
        Chunk {
            bits: match n {
                0 => 0,
                n => self.bits & (!0u64 << (64 - n as u32)),
            },
            len: n,
        }
    }

    /// Bits shared with `other` from the front.
    fn lcp(self, other: Chunk) -> u8 {
        let same = (self.bits ^ other.bits).leading_zeros() as u8;
        same.min(self.len).min(other.len)
    }
}

/// One `S_rem` of a group and the entry it belongs to.
#[derive(Clone, Copy)]
struct RemEntry {
    rem: Chunk,
    slot: u32,
}

/// The entries sharing a first-layer digest, sorted by `rem`; equal rems
/// (narrow digests merge groups of different true `S_pre`) stay in
/// insertion order.
#[derive(Default)]
struct RemGroup {
    rems: Vec<RemEntry>,
}

/// The two-layer index over root strings (one per meta-block; the pull arm
/// of Algorithm 5 builds one on the CPU over pulled entries).
pub struct HashIndex<R> {
    groups: BTreeMap<u64, RemGroup>,
    entries: Slab<IndexEntry<R>>,
    width: HashWidth,
}

impl<R: Copy> HashIndex<R> {
    /// Empty index comparing digests of the given width.
    pub fn new(width: HashWidth) -> Self {
        HashIndex {
            groups: BTreeMap::new(),
            entries: Slab::new(),
            width,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.len() == 0
    }

    /// Approximate size in words (for the space experiments): each entry
    /// stores two hashes, a depth, `S_rem`/`S_last` (≤ 2 words each) and a
    /// target.
    pub fn space_words(&self) -> u64 {
        self.entries.len() as u64 * 8
    }

    /// Insert a root's metadata; returns the entry slot. Panics if
    /// `entry.rem` is not shorter than `w` bits.
    pub fn insert(&mut self, entry: IndexEntry<R>) -> u32 {
        let digest = self.width.digest(entry.pre_hash);
        let rem = sub_word(&entry.rem);
        let slot = self.entries.insert(entry);
        let rems = &mut self.groups.entry(digest).or_default().rems;
        let at = rems.partition_point(|e| e.rem <= rem);
        rems.insert(at, RemEntry { rem, slot });
        slot
    }

    /// Remove an entry by slot.
    pub fn remove(&mut self, slot: u32) -> Option<IndexEntry<R>> {
        let entry = self.entries.remove(slot)?;
        let digest = self.width.digest(entry.pre_hash);
        if let Some(group) = self.groups.get_mut(&digest) {
            let rem = sub_word(&entry.rem);
            let run = group.rems.partition_point(|e| e.rem < rem);
            let found = group.rems[run..]
                .iter()
                .take_while(|e| e.rem == rem)
                .position(|e| e.slot == slot);
            if let Some(i) = found {
                group.rems.remove(run + i);
            }
            if group.rems.is_empty() {
                self.groups.remove(&digest);
            }
        }
        Some(entry)
    }

    /// Access an entry.
    pub fn get(&self, slot: u32) -> Option<&IndexEntry<R>> {
        self.entries.get(slot)
    }

    /// The target of an entry, to re-point it (the key it is found by
    /// stays).
    pub fn target_mut(&mut self, slot: u32) -> Option<&mut R> {
        self.entries.get_mut(slot).map(|e| &mut e.target)
    }

    /// The digest width the first layer compares.
    pub fn width(&self) -> HashWidth {
        self.width
    }

    /// Iterate live entries.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &IndexEntry<R>)> {
        self.entries.iter()
    }

    /// First-layer probe.
    fn group(&self, pre_hash: HashVal) -> Option<&RemGroup> {
        self.groups.get(&self.width.digest(pre_hash))
    }
}

/// A query piece: a sub-trie of the query trie shipped for matching. Its
/// root corresponds to a global depth `root_depth`; `root_pre_hash` is the
/// hash of the query string's prefix at the root's pivot (the last
/// `w`-boundary at or above the root), and `root_rem` holds the bits from
/// that pivot down to the root, so the receiver can extend hashes without
/// ever seeing the bits above the pivot.
#[derive(Clone)]
pub struct QueryPiece {
    /// The piece trie (root edge empty, root = the cut position).
    pub trie: Trie,
    /// For each piece node id, the query-trie node id it descends into
    /// (the paper's "ID of its corresponding node in the original trie").
    pub tags: Vec<u32>,
    /// Global bit-depth of the piece root.
    pub root_depth: u64,
    /// Hash of the query prefix at the root's pivot.
    pub root_pre_hash: HashVal,
    /// Bits between the root's pivot and the root (`< w` bits).
    pub root_rem: BitStr,
}

impl QueryPiece {
    /// Size in words, the unit of the push-pull decision: the piece's
    /// Plain wire size (`crate::schema`).
    pub fn size_words(&self) -> u64 {
        pim_sim::Wire::wire_words(self)
    }
}

/// A verified hash match found inside a piece.
#[derive(Clone, Copy, Debug)]
pub struct PieceMatch<R> {
    /// Query-trie node id of the edge's lower endpoint (the matched
    /// position lies on the edge into this node, or at the node itself).
    pub qt_below: u32,
    /// Global bit-depth of the matched position.
    pub depth: u64,
    /// The matched entry's target.
    pub target: R,
}

impl<R: pim_sim::Wire> pim_sim::Wire for PieceMatch<R> {
    fn wire_words(&self) -> u64 {
        2 + self.target.wire_words()
    }
}

/// Algorithm 3 (efficient form): find, for every edge of `piece`, the
/// deepest index entry whose root string is a *verified* prefix of the
/// query path through that edge, plus a possible match at the piece root
/// position itself. `work` accumulates metered PIM work.
pub fn hash_match_piece<R: Copy>(
    hasher: &PolyHasher,
    piece: &QueryPiece,
    index: &HashIndex<R>,
    work: &mut u64,
) -> Vec<PieceMatch<R>> {
    let root = (piece.root_depth, piece.root_pre_hash, &piece.root_rem);
    let tag = |id: NodeId| piece.tags[id.idx()];
    hash_match_trie(hasher, &piece.trie, tag, root, index, work)
}

/// [`hash_match_piece`] over any trie whose root sits at `(depth, hash of
/// the prefix at its pivot, bits from the pivot down)`, reporting each
/// node as `tag` names it — a whole query trie is matched in place this
/// way, with no piece copied out of it.
pub fn hash_match_trie<R: Copy>(
    hasher: &PolyHasher,
    trie: &Trie,
    tag: impl Fn(NodeId) -> u32,
    (root_depth, root_pre_hash, root_rem): (u64, HashVal, &BitStr),
    index: &HashIndex<R>,
    work: &mut u64,
) -> Vec<PieceMatch<R>> {
    let mut out = Vec::new();
    if index.is_empty() {
        return out;
    }
    let root_rem = sub_word(root_rem);
    let root_pre = root_depth - root_rem.len as u64;
    debug_assert_eq!(root_pre % W, 0);

    // Match at the piece root itself (exact depth only: lo = hi).
    *work += 2;
    if let Some((depth, target)) = resolve(
        index,
        root_pre_hash,
        root_rem,
        root_pre,
        root_depth,
        root_depth,
        work,
    ) {
        out.push(PieceMatch {
            qt_below: tag(NodeId::ROOT),
            depth,
            target,
        });
    }

    // DFS carrying the rolling pivot context: the last w-boundary at or
    // above the node, the query prefix's hash there, the bits since.
    let mut stack = vec![(NodeId::ROOT, root_pre, root_pre_hash, root_rem)];
    // per edge: (hash at the pivot, S'_rem below it) for each pivot
    let mut pivots: Vec<(HashVal, Chunk)> = Vec::new();
    while let Some((node, pre_depth, pre_hash, tail)) = stack.pop() {
        let top_depth = pre_depth + tail.len as u64;
        for child in trie.node(node).children.iter().flatten() {
            let edge = trie.node(*child).edge.as_slice();
            let bottom_depth = top_depth + edge.len() as u64;
            *work += edge.len().div_ceil(WORD_BITS) as u64 + 1;

            // Pivots relevant to this edge: the w-boundaries in
            // [pre_depth, bottom_depth]. `tail · edge` cut into words
            // gives S'_rem at each, and the pivot hashes roll forward one
            // full word at a time; only the last window is partial.
            pivots.clear();
            let mut pivot_hash = pre_hash;
            loop {
                let srem = window(tail, edge, pivots.len());
                pivots.push((pivot_hash, srem));
                if (srem.len as u64) < W {
                    break;
                }
                let word_hash = hasher.hash_chunk(srem.bits, WORD_BITS);
                pivot_hash = hasher.combine(pivot_hash, word_hash, W);
            }

            // Scanned deepest-first: matches at deeper pivots are strictly
            // deeper, so stop at the first hit.
            let hit = pivots
                .iter()
                .enumerate()
                .rev()
                .find_map(|(k, &(ph, srem))| {
                    *work += 2;
                    let pivot = pre_depth + k as u64 * W;
                    resolve(index, ph, srem, pivot, top_depth + 1, bottom_depth, work)
                });
            if let Some((depth, target)) = hit {
                out.push(PieceMatch {
                    qt_below: tag(*child),
                    depth,
                    target,
                });
            }

            // Child context: the deepest pivot and the partial window
            // below it.
            let crossed = pivots.len() as u64 - 1;
            stack.push((
                *child,
                pre_depth + crossed * W,
                pivot_hash,
                pivots[crossed as usize].1,
            ));
        }
    }
    out
}

/// A `< w`-bit string (an `S_rem`, a piece's `root_rem`) as a [`Chunk`].
fn sub_word(s: &BitStr) -> Chunk {
    assert!(s.len() < WORD_BITS, "S_rem must be shorter than w bits");
    Chunk::of(s.as_slice(), 0, s.len())
}

/// Word `k` of the bit-string `tail · edge`, shorter than `w` bits only
/// where the string ends. The caller asks for word `k > 0` only after
/// word `k - 1` came back full.
fn window(tail: Chunk, edge: BitSlice<'_>, k: usize) -> Chunk {
    if k == 0 {
        let n = (WORD_BITS - tail.len as usize).min(edge.len());
        Chunk {
            bits: tail.bits | (edge.chunk(0, n) >> tail.len),
            len: tail.len + n as u8,
        }
    } else {
        let at = k * WORD_BITS - tail.len as usize;
        Chunk::of(edge, at, (edge.len() - at).min(WORD_BITS))
    }
}

/// Second-layer resolution at one pivot: the deepest entry whose
/// `(pre_hash, rem)` is *bit-verified* against the query bits `srem`
/// (positions `pivot..pivot+|srem|`), with depth in `[lo, hi]` and its
/// own recorded depth agreeing; the first-inserted one among equal rems.
///
/// Every stored prefix of `srem` sorts at or before it, longest last, so
/// the search starts at `srem`'s own position and moves towards the front.
/// An entry that is a prefix is a candidate (with its run of equal rems).
/// One that leaves `srem` after `l` bits rules out every prefix longer
/// than `l`, and everything between it and `srem[..l]`'s position extends
/// `srem[..l]` without being a prefix — one more binary search skips it.
/// `l` strictly falls, so this is at most `w` searches and in practice one
/// or two; it ends as soon as `l` drops below the `lo` end of the window.
fn resolve<R: Copy>(
    index: &HashIndex<R>,
    pre_hash: HashVal,
    srem: Chunk,
    pivot: u64,
    lo: u64,
    hi: u64,
    work: &mut u64,
) -> Option<(u64, R)> {
    let rems = &index.group(pre_hash)?.rems;
    *work += 1;
    let search_work = ceil_log2(rems.len()) + 1;
    let min_len = lo.saturating_sub(pivot);
    let mut end = rems.partition_point(|e| e.rem <= srem);
    *work += search_work;
    while end > 0 {
        let last = rems[end - 1].rem;
        *work += 1;
        let l = last.lcp(srem);
        if (l as u64) < min_len {
            break;
        }
        if l < last.len {
            end = rems[..end - 1].partition_point(|e| e.rem <= srem.prefix(l));
            *work += search_work;
            continue;
        }
        // `last` is a bit-exact prefix of the query bits below the pivot,
        // and so is the whole run of entries equal to it
        let run = end
            - rems[..end]
                .iter()
                .rev()
                .take_while(|e| e.rem == last)
                .count();
        let depth = pivot + l as u64;
        if depth <= hi {
            for e in &rems[run..end] {
                *work += 1;
                let entry = index.get(e.slot)?;
                // …and the entry's depth must agree.
                if entry.depth == depth {
                    return Some((depth, entry.target));
                }
            }
        }
        end = run;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hasher() -> PolyHasher {
        PolyHasher::with_seed(42)
    }

    /// Build an entry for root string `s` targeting `t`.
    fn entry(h: &PolyHasher, s: &BitStr, t: u32) -> IndexEntry<u32> {
        let depth = s.len() as u64;
        let pre_len = (depth / W * W) as usize;
        let pre_hash = h.hash_bits(s.slice(0..pre_len));
        let rem = s.slice(pre_len..s.len()).to_bitstr();
        let last_from = s.len().saturating_sub(WORD_BITS);
        IndexEntry {
            depth,
            pre_hash,
            rem,
            s_last: s.slice(last_from..s.len()).to_bitstr(),
            target: t,
        }
    }

    /// A piece covering the whole query trie (root at depth 0).
    fn whole_piece(h: &PolyHasher, keys: &[&str]) -> QueryPiece {
        let strs: Vec<BitStr> = keys.iter().map(|s| BitStr::from_bin_str(s)).collect();
        let qt = trie_core::query::QueryTrie::build(&strs);
        let n = qt.trie.id_bound();
        QueryPiece {
            tags: (0..n as u32).collect(),
            trie: qt.trie,
            root_depth: 0,
            root_pre_hash: h.empty(),
            root_rem: BitStr::new(),
        }
    }

    #[test]
    fn matches_roots_on_paths() {
        let h = hasher();
        let mut idx = HashIndex::new(HashWidth::FULL);
        // stored roots: "", "101", "1010"
        for (s, t) in [("", 0u32), ("101", 1), ("1010", 2)] {
            idx.insert(entry(&h, &BitStr::from_bin_str(s), t));
        }
        let piece = whole_piece(&h, &["00001001", "101001", "101011"]);
        let mut work = 0;
        let ms = hash_match_piece(&h, &piece, &idx, &mut work);
        // expect: root "" at depth 0; "101" and "1010" on the 1010-side
        // edges (deepest per edge: "1010" beats "101" if both on one edge).
        let depths: Vec<u64> = ms.iter().map(|m| m.depth).collect();
        assert!(depths.contains(&0), "root match missing: {ms:?}");
        assert!(depths.contains(&4), "deep root 1010 missing: {ms:?}");
        // "101" and "1010" lie on the same query edge (root→"1010");
        // per-edge deepest rule keeps only depth 4 for that edge.
        assert!(!depths.contains(&3), "non-critical shallower match kept");
        let m4 = ms.iter().find(|m| m.depth == 4).unwrap();
        assert_eq!(m4.target, 2);
    }

    #[test]
    fn matches_across_word_boundaries() {
        let h = hasher();
        let mut idx = HashIndex::new(HashWidth::FULL);
        // a root deeper than one word
        let long = BitStr::from_bits((0..150).map(|i| i % 3 == 0));
        idx.insert(entry(&h, &long, 7));
        // query extends the root
        let mut q = long.clone();
        q.push(true);
        q.push(false);
        let qs = q.to_string();
        let piece = whole_piece(&h, &[&qs]);
        let mut work = 0;
        let ms = hash_match_piece(&h, &piece, &idx, &mut work);
        assert!(
            ms.iter().any(|m| m.depth == 150 && m.target == 7),
            "missed deep root: {ms:?}"
        );
    }

    #[test]
    fn no_false_matches_off_path() {
        let h = hasher();
        let mut idx = HashIndex::new(HashWidth::FULL);
        idx.insert(entry(&h, &BitStr::from_bin_str("1111"), 1));
        let piece = whole_piece(&h, &["0000", "0101"]);
        let mut work = 0;
        let ms = hash_match_piece(&h, &piece, &idx, &mut work);
        assert!(ms.is_empty(), "phantom matches: {ms:?}");
    }

    #[test]
    fn narrow_digest_still_exact_via_verification() {
        let h = hasher();
        // 4-bit digests: first-layer collisions guaranteed at this size.
        let mut idx = HashIndex::new(HashWidth(4));
        let roots: Vec<BitStr> = (0u64..60)
            .map(|i| BitStr::from_u64(i.wrapping_mul(0x9E3779B97F4A7C15) >> 24, 40))
            .collect();
        for (i, r) in roots.iter().enumerate() {
            idx.insert(entry(&h, r, i as u32));
        }
        // queries that extend root 5 and root 17
        for &i in &[5usize, 17] {
            let mut q = roots[i].clone();
            q.push(true);
            let qs = q.to_string();
            let piece = whole_piece(&h, &[&qs]);
            let mut work = 0;
            let ms = hash_match_piece(&h, &piece, &idx, &mut work);
            let hit = ms.iter().find(|m| m.depth == 40).expect("missing root");
            assert_eq!(hit.target, i as u32, "wrong target despite verification");
        }
    }

    #[test]
    fn piece_with_nonzero_root_depth() {
        let h = hasher();
        let mut idx = HashIndex::new(HashWidth::FULL);
        // global root string prefix: 70 bits; piece root sits there.
        let prefix = BitStr::from_bits((0..70).map(|i| i % 2 == 0));
        let mut stored = prefix.clone();
        stored.append(&BitStr::from_bin_str("110").as_slice());
        idx.insert(entry(&h, &stored, 9));
        // piece: subtree below depth 70 containing "110…"
        let sub = BitStr::from_bin_str("110011");
        let qt = trie_core::query::QueryTrie::build(&[sub]);
        let n = qt.trie.id_bound();
        let pre_len = 64;
        let piece = QueryPiece {
            tags: (0..n as u32).collect(),
            trie: qt.trie,
            root_depth: 70,
            root_pre_hash: h.hash_bits(prefix.slice(0..pre_len)),
            root_rem: prefix.slice(pre_len..70).to_bitstr(),
        };
        let mut work = 0;
        let ms = hash_match_piece(&h, &piece, &idx, &mut work);
        assert!(
            ms.iter().any(|m| m.depth == 73 && m.target == 9),
            "missed root below piece boundary: {ms:?}"
        );
    }

    /// The previous kernel's exact path, kept as the reference `resolve`
    /// is checked against: look at every live entry of the group, keep the
    /// deepest one that is bit-verified, inside the window and of agreeing
    /// depth — the first-inserted on a tie. `live` is in insertion order.
    fn resolve_by_scan(
        live: &[(u32, IndexEntry<u32>)],
        width: HashWidth,
        pre_hash: HashVal,
        srem: &BitStr,
        pivot: u64,
        lo: u64,
        hi: u64,
    ) -> Option<(u64, u32)> {
        let mut best: Option<(u64, u32)> = None;
        for (_, e) in live {
            if width.digest(e.pre_hash) != width.digest(pre_hash) || !srem.starts_with(&e.rem) {
                continue;
            }
            let depth = pivot + e.rem.len() as u64;
            if depth < lo || depth > hi || e.depth != depth {
                continue;
            }
            match best {
                Some((d, _)) if d >= depth => {}
                _ => best = Some((depth, e.target)),
            }
        }
        best
    }

    /// Bit patterns whose prefixes nest and fork, so stored rems are often
    /// prefixes, siblings and duplicates of each other and of the queries.
    fn shaped_bits(shape: u8, noise: u64, len: usize) -> BitStr {
        let base = match shape % 4 {
            0 => 0,
            1 => u64::MAX,
            2 => 0xAAAA_AAAA_AAAA_AAAA,
            _ => 0xAAAA_AAAA_0000_FFFF,
        };
        // flip at most one bit, so most strings stay on a shared path
        let flip = if noise & 3 == 0 {
            1u64 << (noise % 64)
        } else {
            0
        };
        let mut s = BitStr::new();
        s.push_chunk(base ^ flip, len);
        s
    }

    fn len_strategy(max: usize) -> impl Strategy<Value = usize> {
        prop_oneof![Just(0usize), Just(max), Just(1usize), 0usize..=max]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `resolve` equals the linear scan on random groups: narrow
        /// digests merging different `S_pre`, duplicate rems at different
        /// depths, the empty and the 63-bit rem, windows that cut the
        /// longest prefix off, inserts interleaved with removes.
        #[test]
        fn resolve_matches_linear_scan(
            narrow in any::<bool>(),
            ops in proptest::collection::vec(
                (
                    (0u8..8, any::<u8>(), any::<u64>(), len_strategy(63), 0usize..6),
                    (len_strategy(64), 0u64..=65, 0u64..=65),
                ),
                1..80,
            ),
        ) {
            let h = hasher();
            let width = if narrow { HashWidth(4) } else { HashWidth::FULL };
            // six true S_pre of 0, 1 and 2 words; 4-bit digests merge some
            let prefixes: Vec<BitStr> = (0..6usize)
                .map(|i| BitStr::from_bits((0..(i % 3) * 64).map(|b| (b * (i + 2)) % 5 < 2)))
                .collect();
            let mut idx: HashIndex<u32> = HashIndex::new(width);
            let mut live: Vec<(u32, IndexEntry<u32>)> = Vec::new();
            let mut next_target = 0u32;
            for ((kind, shape, noise, rem_len, pre), (q_len, lo_off, hi_off)) in ops {
                let s_pre = &prefixes[pre];
                let pivot = s_pre.len() as u64;
                let pre_hash = h.hash_bits(s_pre.as_slice());
                match kind {
                    // insert (twice as likely as remove)
                    0..=3 => {
                        let rem = shaped_bits(shape, noise, rem_len);
                        let e = IndexEntry {
                            depth: pivot + rem.len() as u64,
                            pre_hash,
                            s_last: rem.clone(),
                            rem,
                            target: next_target,
                        };
                        next_target += 1;
                        let slot = idx.insert(e.clone());
                        live.push((slot, e));
                    }
                    4 | 5 if !live.is_empty() => {
                        let (slot, e) = live.remove(noise as usize % live.len());
                        let back = idx.remove(slot).expect("live slot");
                        prop_assert_eq!(back.target, e.target);
                    }
                    _ => {}
                }
                prop_assert_eq!(idx.len(), live.len());
                // query after every step
                let srem = shaped_bits(shape.wrapping_add(kind), noise.rotate_left(7), q_len);
                let (lo, hi) = (pivot + lo_off, pivot + hi_off);
                let want = resolve_by_scan(&live, width, pre_hash, &srem, pivot, lo, hi);
                let q = Chunk::of(srem.as_slice(), 0, srem.len());
                let got = resolve(&idx, pre_hash, q, pivot, lo, hi, &mut 0);
                prop_assert_eq!(got, want, "srem={} pivot={} window=[{},{}]", srem, pivot, lo, hi);
            }
        }
    }

    #[test]
    fn resolve_does_not_scan_the_group() {
        let h = hasher();
        let mut idx = HashIndex::new(HashWidth::FULL);
        // the root plus every 12-bit string: one group of 4097 rems
        idx.insert(entry(&h, &BitStr::new(), u32::MAX));
        for v in 0..4096u64 {
            idx.insert(entry(&h, &BitStr::from_u64(v, 12), v as u32));
        }
        // An 11-bit query: no 12-bit string is a prefix of it, the root
        // is. The old kernel tried all 4097 rems. A complete tree is the
        // worst case for the search too — some stored string leaves the
        // query at every length, so each search gives up one bit — and
        // even then it is |query| searches, not g steps.
        let q = BitStr::from_u64(0b101_1011_1011, 11);
        let q = Chunk::of(q.as_slice(), 0, q.len());
        let bound = (q.len as u64 + 1) * (ceil_log2(4097) + 2);
        let mut work = 0;
        assert_eq!(resolve(&idx, h.empty(), q, 0, 1, 11, &mut work), None);
        assert!(work <= bound, "work {work}");
        let mut work = 0;
        assert_eq!(
            resolve(&idx, h.empty(), q, 0, 0, 11, &mut work),
            Some((0, u32::MAX))
        );
        assert!(work <= bound, "work {work}");
        // the usual case: the window starts near the bottom of the edge,
        // so the first entry that leaves the query too early ends it
        let mut work = 0;
        assert_eq!(resolve(&idx, h.empty(), q, 0, 11, 11, &mut work), None);
        assert!(work <= ceil_log2(4097) + 3, "work {work}");
    }

    /// The Figure-5 strings: `resolve` returns the critical root — the
    /// longest stored string that is a prefix of the query — found here
    /// by brute force.
    #[test]
    fn resolve_finds_the_figure5_critical_root() {
        let h = hasher();
        let stored = ["01", "110"]; // Figure 5, w = 3
        let mut idx = HashIndex::new(HashWidth::FULL);
        for (t, s) in stored.iter().enumerate() {
            idx.insert(entry(&h, &BitStr::from_bin_str(s), t as u32));
        }
        for q in [
            "", "0", "1", "01", "00", "11", "010", "011", "110", "111", "100",
        ] {
            let q = BitStr::from_bin_str(q);
            let critical = stored
                .iter()
                .map(|s| BitStr::from_bin_str(s))
                .filter(|s| q.starts_with(s))
                .max_by_key(|s| s.len());
            let got = resolve(
                &idx,
                h.empty(),
                Chunk::of(q.as_slice(), 0, q.len()),
                0,
                0,
                3,
                &mut 0,
            );
            match &critical {
                Some(r) => {
                    let t = stored.iter().position(|s| BitStr::from_bin_str(s) == *r);
                    assert_eq!(got, Some((r.len() as u64, t.unwrap() as u32)), "q={q}");
                }
                None => assert_eq!(got, None, "q={q}"),
            }
        }
    }

    #[test]
    fn index_insert_remove() {
        let h = hasher();
        let mut idx: HashIndex<u32> = HashIndex::new(HashWidth::FULL);
        let s = BitStr::from_bin_str("10101");
        let slot = idx.insert(entry(&h, &s, 3));
        assert_eq!(idx.len(), 1);
        let e = idx.remove(slot).unwrap();
        assert_eq!(e.target, 3);
        assert!(idx.is_empty());
        assert!(idx.remove(slot).is_none());
    }
}
