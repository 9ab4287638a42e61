//! The PIM-trie batch operations (paper §5): LongestCommonPrefix,
//! Insert, Delete, and SubtreeQuery, plus the structural maintenance
//! their updates trigger (block re-partitioning, meta-block splits,
//! undersized merges).

use crate::build::Read;
use crate::error::{unexpected, PimTrieError};
use crate::matching::{Anchor, MatchedTrie};
use crate::module::{BlockDataOut, GraftMsg, MetaFullOut, Req, Resp, SizeBand, MIRROR_VALUE};
use crate::refs::{BitsMsg, BlockRef, MetaRef, TrieMsg};
use crate::slowpath::SlowResult;
use crate::PimTrie;
use bitstr::BitStr;
use pim_sim::Scatter;
use std::collections::{BTreeMap, BTreeSet};
use trie_core::{NodeId, Trie};

impl PimTrie {
    /// LongestCommonPrefix for every query in the batch: the length in
    /// bits of the longest prefix shared with *any* stored key. Panics
    /// if fault recovery gives up; [`PimTrie::try_lcp_batch`] reports it.
    /// Paper: §5.1.
    pub fn lcp_batch(&mut self, queries: &[BitStr]) -> Vec<usize> {
        self.try_lcp_batch(queries)
            .unwrap_or_else(|e| panic!("lcp_batch: {e}"))
    }

    /// Fallible LongestCommonPrefix. With
    /// [`fault_tolerance`](crate::PimTrieConfig::fault_tolerance) on,
    /// injected wire faults and module crashes are recovered behind this
    /// call; an error means recovery itself was exhausted.
    pub fn try_lcp_batch(&mut self, queries: &[BitStr]) -> Result<Vec<usize>, PimTrieError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        self.with_recovery("lcp", |t| t.lcp_core(queries))
    }

    fn lcp_core(&mut self, queries: &[BitStr]) -> Result<Vec<usize>, PimTrieError> {
        let mt = self.match_batch(queries)?;
        let mut out: Vec<usize> = (0..queries.len())
            .map(|i| mt.depth_of[mt.qt.key_node[i].idx()] as usize)
            .collect();
        for (i, r) in self.redo_flagged(&mt, queries)? {
            out[i] = r.depth as usize;
        }
        Ok(out)
    }

    /// §4.4.3 redo: recompute the keys whose matched path is flagged as
    /// untrusted with one exact descent for all of them. Returns each
    /// flagged key's index with its exact result.
    fn redo_flagged(
        &mut self,
        mt: &MatchedTrie,
        keys: &[BitStr],
    ) -> Result<Vec<(usize, SlowResult)>, PimTrieError> {
        let flagged: Vec<usize> = (0..keys.len())
            .filter(|i| mt.flagged[mt.qt.key_node[*i].idx()])
            .collect();
        if flagged.is_empty() {
            return Ok(Vec::new());
        }
        self.redo_paths += flagged.len() as u64;
        let qs: Vec<BitStr> = flagged.iter().map(|i| keys[*i].clone()).collect();
        let rs = self.try_slow_descend(&qs)?;
        Ok(flagged.into_iter().zip(rs).collect())
    }

    /// Insert a batch of (key, value) pairs. Duplicate keys within the
    /// batch collapse to the last value; re-inserting an existing key
    /// overwrites its value. Values must not equal `u64::MAX` (reserved).
    /// Panics on invalid input; [`PimTrie::try_insert_batch`] reports it.
    /// Paper: §5.2.
    pub fn insert_batch(&mut self, keys: &[BitStr], values: &[u64]) {
        self.try_insert_batch(keys, values)
            .unwrap_or_else(|e| panic!("insert_batch: {e}"))
    }

    /// Fallible insert: rejects mismatched key/value lengths, zero-length
    /// keys, and the reserved value `u64::MAX` instead of panicking. With
    /// [`fault_tolerance`](crate::PimTrieConfig::fault_tolerance) on, the
    /// host journal records the batch once it has fully applied, so a
    /// module crash mid-batch rolls back to the pre-batch key set before
    /// the operation is re-run.
    pub fn try_insert_batch(
        &mut self,
        keys: &[BitStr],
        values: &[u64],
    ) -> Result<(), PimTrieError> {
        if keys.len() != values.len() {
            return Err(PimTrieError::MismatchedBatch {
                keys: keys.len(),
                values: values.len(),
            });
        }
        if let Some(i) = keys.iter().position(|k| k.is_empty()) {
            return Err(PimTrieError::EmptyKey(i));
        }
        if let Some(i) = values.iter().position(|v| *v == MIRROR_VALUE) {
            return Err(PimTrieError::ReservedValue(i));
        }
        if keys.is_empty() {
            return Ok(());
        }
        self.with_recovery("insert", |t| t.insert_core(keys, values))?;
        if self.cfg.fault_tolerance {
            for (k, v) in keys.iter().zip(values) {
                self.journal.insert(k.clone(), *v);
            }
        }
        Ok(())
    }

    fn insert_core(&mut self, keys: &[BitStr], values: &[u64]) -> Result<(), PimTrieError> {
        let mt = self.match_batch(keys)?;
        // value per key node: last batch occurrence wins
        let mut val_of: BTreeMap<u32, u64> = BTreeMap::new();
        for (i, _) in keys.iter().enumerate() {
            val_of.insert(mt.qt.key_node[i].0, values[i]);
        }
        // Split flagged keys out for the exact path.
        let mut flagged_keys: Vec<(BitStr, u64)> = Vec::new();
        let mut seen_flagged: BTreeSet<u32> = BTreeSet::new();
        for (i, k) in keys.iter().enumerate() {
            let node = mt.qt.key_node[i];
            if mt.flagged[node.idx()] && seen_flagged.insert(node.0) {
                flagged_keys.push((k.clone(), val_of[&node.0]));
            }
        }

        // ---- graft roots over the unflagged portion --------------------
        // A graft root is a query edge (u → v) where the matched depth of
        // v's path stops inside the edge (or at u): everything below is new.
        let qt = &mt.qt.trie;
        let mut grafts: Vec<(Anchor, Trie)> = Vec::new();
        let mut stack = vec![NodeId::ROOT];
        while let Some(id) = stack.pop() {
            if mt.flagged[id.idx()] {
                continue; // handled by the slow path
            }
            let d = mt.depth_of[id.idx()];
            let depth = qt.node(id).depth as u64;
            if d >= depth {
                // fully matched up to here: a key ending here is a
                // set-value; recurse into children.
                if let Some(anchor) = mt.anchor_of[id.idx()] {
                    if let Some(&v) = val_of.get(&id.0) {
                        if qt.node(id).value.is_some() {
                            let mut t = Trie::new();
                            t.set_value(NodeId::ROOT, v);
                            grafts.push((anchor, t));
                        }
                    }
                }
                for c in qt.node(id).children.iter().flatten() {
                    stack.push(*c);
                }
                continue;
            }
            // path into `id` stops at depth d: graft the subtree below
            // position (id, d)
            let Some(anchor) = mt.anchor_of[id.idx()] else {
                // no anchor at all — defer to slow path
                collect_keys_below(qt, id, &val_of, &mut flagged_keys);
                continue;
            };
            let sub = subtree_for_graft(qt, id, d, &val_of);
            grafts.push((anchor, sub));
        }

        self.apply_grafts(grafts)?;

        // ---- flagged keys: exact anchors via one slow descent ----------
        // Keys sharing an anchor (they diverge from the data at the same
        // position) merge into one suffix trie, so the whole redo is a
        // single graft round.
        if !flagged_keys.is_empty() {
            self.redo_paths += flagged_keys.len() as u64;
            let ks: Vec<BitStr> = flagged_keys.iter().map(|(k, _)| k.clone()).collect();
            let rs = self.try_slow_descend(&ks)?;
            // BTreeMap: iteration order feeds message order, which must be
            // deterministic for seeded fault schedules to be reproducible.
            let mut by_anchor: BTreeMap<(BlockRef, u32, u32), Trie> = BTreeMap::new();
            for ((k, v), r) in flagged_keys.into_iter().zip(rs) {
                let key = (r.anchor.block, r.anchor.node, r.anchor.off);
                let sub = by_anchor.entry(key).or_default();
                if r.depth as usize == k.len() {
                    sub.set_value(NodeId::ROOT, v);
                } else {
                    let rest = k.slice(r.depth as usize..k.len()).to_bitstr();
                    sub.insert(&rest, v);
                }
            }
            let grafts: Vec<(Anchor, Trie)> = by_anchor
                .into_iter()
                .map(|((block, node, off), sub)| (Anchor { block, node, off }, sub))
                .collect();
            self.apply_grafts(grafts)?;
        }
        Ok(())
    }

    /// Apply grafts grouped per block, then run growth maintenance.
    fn apply_grafts(&mut self, grafts: Vec<(Anchor, Trie)>) -> Result<(), PimTrieError> {
        if grafts.is_empty() {
            return Ok(());
        }
        self.t_phase("graft");
        // group per block, sorted by (anchor node, off) for the module's
        // split-offset adjustment; BTreeMap so message order is stable
        // across runs (fault draws index into it)
        let mut per_block: BTreeMap<BlockRef, Vec<(Anchor, Trie)>> = BTreeMap::new();
        for (a, t) in grafts {
            per_block.entry(a.block).or_default().push((a, t));
        }
        let mut out = Scatter::new(self.sys.p());
        for (block, mut gs) in per_block {
            gs.sort_by_key(|(a, _)| (a.node, a.off));
            let msgs = gs
                .into_iter()
                .map(|(a, t)| GraftMsg {
                    anchor_node: a.node,
                    anchor_off: a.off,
                    subtree: TrieMsg(t),
                })
                .collect();
            let req = Req::GraftMany {
                slot: block.slot,
                grafts: msgs,
            };
            out.push(block.module as usize, block, req);
        }
        // a block the grafts pushed past 2·K_B comes back whole
        let mut oversized: Vec<(BlockRef, BlockDataOut)> = Vec::new();
        for (_, block, resp) in self.rounds("insert.graft", out)? {
            let Resp::BlockVitals {
                keys_delta,
                collision,
                image,
                ..
            } = resp
            else {
                return Err(unexpected("graft"));
            };
            if collision {
                return Err(PimTrieError::Protocol(format!(
                    "insert.graft: collision in block {block:?} escaped verification"
                )));
            }
            self.n_keys = (self.n_keys as i64 + keys_delta) as usize;
            oversized.extend(image.map(|image| (block, *image)));
        }
        if oversized.is_empty() {
            return Ok(());
        }
        self.t_phase("repartition");
        let mut out = Scatter::new(self.sys.p());
        let mut waiting = BTreeMap::new();
        self.plan_repartition(oversized, &mut out, &mut waiting)?;
        self.finish_placement("repart.place", out, &mut waiting)
    }

    /// Delete a batch of keys; returns how many were present and
    /// removed. Duplicates in the batch count once. Panics if fault
    /// recovery gives up; [`PimTrie::try_delete_batch`] reports it.
    /// Paper: §5.2.
    pub fn delete_batch(&mut self, keys: &[BitStr]) -> usize {
        self.try_delete_batch(keys)
            .unwrap_or_else(|e| panic!("delete_batch: {e}"))
    }

    /// Fallible delete: rejects zero-length keys and recovers from
    /// injected faults like [`PimTrie::try_insert_batch`].
    pub fn try_delete_batch(&mut self, keys: &[BitStr]) -> Result<usize, PimTrieError> {
        if let Some(i) = keys.iter().position(|k| k.is_empty()) {
            return Err(PimTrieError::EmptyKey(i));
        }
        if keys.is_empty() {
            return Ok(0);
        }
        let removed = self.with_recovery("delete", |t| t.delete_core(keys))?;
        if self.cfg.fault_tolerance {
            for k in keys {
                self.journal.remove(k);
            }
        }
        Ok(removed)
    }

    fn delete_core(&mut self, keys: &[BitStr]) -> Result<usize, PimTrieError> {
        let mt = self.match_batch(keys)?;
        // per block, the (node, depth) of each key to delete there, in
        // batch order
        let mut per_block: BTreeMap<BlockRef, (Vec<u32>, Vec<u64>)> = BTreeMap::new();
        let mut at = |block: BlockRef, node: u32, depth: usize| {
            let (nodes, depths) = per_block.entry(block).or_default();
            nodes.push(node);
            depths.push(depth as u64);
        };
        let mut sent: BTreeSet<u32> = BTreeSet::new();
        let mut slow: Vec<BitStr> = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            let node = mt.qt.key_node[i];
            if !sent.insert(node.0) {
                continue; // duplicate in batch
            }
            if mt.flagged[node.idx()] {
                slow.push(k.clone());
                continue;
            }
            if mt.depth_of[node.idx()] as usize != k.len() {
                continue; // not stored
            }
            let Some(a) = mt.anchor_of[node.idx()] else {
                slow.push(k.clone());
                continue;
            };
            // the key must end exactly at a compressed node to be stored
            // (anchor_off == edge len is checked module-side via value)
            at(a.block, a.node, k.len());
        }
        // exact path for flagged keys
        if !slow.is_empty() {
            self.redo_paths += slow.len() as u64;
            let rs = self.try_slow_descend(&slow)?;
            for (k, r) in slow.iter().zip(rs) {
                if r.depth as usize == k.len() {
                    at(r.anchor.block, r.anchor.node, k.len());
                }
            }
        }
        if per_block.is_empty() {
            return Ok(0);
        }
        self.t_phase("remove");
        let mut out = Scatter::new(self.sys.p());
        for (block, (nodes, depths)) in per_block {
            let req = Req::DeleteKeys {
                slot: block.slot,
                nodes,
                depths,
            };
            out.push(block.module as usize, block, req);
        }
        // a block the deletes left a merge candidate comes back whole
        let mut removed = 0usize;
        let mut candidates: BTreeMap<BlockRef, BlockDataOut> = BTreeMap::new();
        for (_, block, resp) in self.rounds("delete.keys", out)? {
            let Resp::BlockVitals {
                keys_delta, image, ..
            } = resp
            else {
                return Err(unexpected("delete"));
            };
            removed += keys_delta.unsigned_abs() as usize;
            self.n_keys = (self.n_keys as i64 + keys_delta) as usize;
            candidates.extend(image.map(|image| (block, *image)));
        }
        self.maintain_after_shrink(candidates)?;
        Ok(removed)
    }

    /// SubtreeQuery: for every prefix, the trie of all stored keys
    /// extending it (full keys + values), or `None` if no stored key does.
    /// Panics if fault recovery gives up;
    /// [`PimTrie::try_subtree_batch`] reports it instead. Paper: §5.3.
    pub fn subtree_batch(&mut self, prefixes: &[BitStr]) -> Vec<Option<Trie>> {
        self.try_subtree_batch(prefixes)
            .unwrap_or_else(|e| panic!("subtree_batch: {e}"))
    }

    /// Fallible SubtreeQuery; recovers from injected faults like
    /// [`PimTrie::try_lcp_batch`].
    pub fn try_subtree_batch(
        &mut self,
        prefixes: &[BitStr],
    ) -> Result<Vec<Option<Trie>>, PimTrieError> {
        if prefixes.is_empty() {
            return Ok(Vec::new());
        }
        self.with_recovery("subtree", |t| t.subtree_core(prefixes))
    }

    fn subtree_core(&mut self, prefixes: &[BitStr]) -> Result<Vec<Option<Trie>>, PimTrieError> {
        let mt = self.match_batch(prefixes)?;
        let mut exact: Vec<(u64, Option<Anchor>)> = (0..prefixes.len())
            .map(|i| {
                let node = mt.qt.key_node[i];
                (mt.depth_of[node.idx()], mt.anchor_of[node.idx()])
            })
            .collect();
        for (i, r) in self.redo_flagged(&mt, prefixes)? {
            exact[i] = (r.depth, Some(r.anchor));
        }
        // one job per distinct prefix that lies on the trie
        let mut jobs: Vec<(BitStr, Anchor)> = Vec::new();
        let mut job_of: Vec<Option<usize>> = vec![None; prefixes.len()];
        let mut by_prefix: BTreeMap<&BitStr, usize> = BTreeMap::new();
        for (i, prefix) in prefixes.iter().enumerate() {
            let (depth, anchor) = exact[i];
            let Some(a) = anchor.filter(|_| depth as usize == prefix.len()) else {
                continue; // nothing extends this prefix
            };
            job_of[i] = Some(*by_prefix.entry(prefix).or_insert_with(|| {
                jobs.push((prefix.clone(), a));
                jobs.len() - 1
            }));
        }
        self.t_phase("assemble");
        let mut tries = self.assemble_subtrees(&jobs)?;
        // the last query of a job takes its trie, earlier ones copy it
        let mut last = vec![0; jobs.len()];
        for (i, j) in job_of.iter().enumerate() {
            if let Some(j) = j {
                last[*j] = i;
            }
        }
        Ok(job_of
            .iter()
            .enumerate()
            .map(|(i, j)| {
                let j = (*j)?;
                // a prefix on a path whose blocks hold no key (only mirrors
                // that are themselves empty) has no subtree
                let t = if last[j] == i {
                    tries[j].take()
                } else {
                    tries[j].clone()
                };
                t.filter(|t| t.n_keys() > 0)
            })
            .collect())
    }

    /// SubtreeQuery assembly for `(prefix, anchor)` jobs. The block
    /// tree below an anchor is as deep as it is, but its blocks sit in a
    /// few meta-blocks, and meta links follow the block tree: one
    /// `ListBlocks` names every block a meta-block describes below some
    /// child blocks of one block, and the child meta-blocks rooted at or
    /// below them.
    ///
    /// 1. `subtree.fetch` — the piece below each anchor, and the anchor
    ///    block's meta node if the piece names a child block;
    /// 2. `subtree.fetch+list` — the anchor piece's child blocks, and
    ///    the list below them from the anchor block's meta node, which
    ///    refuses a child that is no child block of the anchor block;
    /// 3. every listed block is fetched, with every listed child
    ///    meta-block's root block, and that child meta-block is listed
    ///    whole, in one round, until no list is outstanding.
    ///
    /// Lists are keyed by meta node, so the lists of nested prefixes
    /// merge; a child meta-block whose root is in hand and names no
    /// child block describes nothing more, and is not listed. The pieces
    /// are then spliced top-down from the anchors, and a child block no
    /// list named is a protocol error.
    fn assemble_subtrees(
        &mut self,
        jobs: &[(BitStr, Anchor)],
    ) -> Result<Vec<Option<Trie>>, PimTrieError> {
        enum Tag {
            Anchor(usize),
            Block(BlockRef),
            List,
        }
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        let p = self.sys.p();
        let mut anchors: Vec<Option<Piece>> = jobs.iter().map(|_| None).collect();
        let mut pieces = Pieces::new((0..p as u32).map(|m| self.addrs.blocks(m).bound()));
        // blocks to fetch, and the roots to list below each meta node
        // (`None`: a whole meta-block), next round
        let mut fetch: Vec<BlockRef> = Vec::new();
        let mut lists: BTreeMap<(MetaRef, Option<u32>), BTreeSet<BlockRef>> = BTreeMap::new();
        // meta-blocks already listed whole (anchors list in round 2 only)
        let mut listed: BTreeSet<MetaRef> = BTreeSet::new();
        let mut out = Scatter::new(p);
        for (j, (_, a)) in jobs.iter().enumerate() {
            let req = Req::FetchSubtree {
                slot: a.block.slot,
                node: a.node,
                off: a.off,
                meta: true,
            };
            out.push(a.block.module as usize, Tag::Anchor(j), req);
        }
        let mut name = "subtree.fetch";
        // each round sends a list or asks for a block it never sent before
        for _ in 0..100_000 {
            // child meta-blocks listed this round, with their root blocks
            let mut named: Vec<(MetaRef, BlockRef)> = Vec::new();
            for (_, tag, resp) in self.rounds(name, out)? {
                match (tag, resp) {
                    (Tag::List, Resp::Listed { blocks, metas }) => {
                        fetch.extend(blocks);
                        named.extend(metas);
                    }
                    (Tag::Anchor(j), resp) => {
                        let (piece, meta) = Piece::from_resp(resp)?;
                        if !piece.children.is_empty() {
                            let (m, node) = meta.ok_or_else(|| unexpected("subtree.fetch"))?;
                            let roots = lists.entry((m, Some(node))).or_default();
                            for (_, c) in &piece.children {
                                fetch.push(*c);
                                roots.insert(*c);
                            }
                        }
                        // an anchor at a block root is the whole block
                        let a = jobs[j].1;
                        if a.node == NodeId::ROOT.0 && a.off == 0 && pieces.ask(a.block)? {
                            pieces.add(a.block, piece.clone())?;
                        }
                        anchors[j] = Some(piece);
                    }
                    (Tag::Block(b), resp) => pieces.add(b, Piece::from_resp(resp)?.0)?,
                    _ => return Err(unexpected("subtree")),
                }
            }
            for (m, root) in named {
                if pieces.get(&root).is_some_and(|r| r.children.is_empty()) || !listed.insert(m) {
                    continue;
                }
                fetch.push(root);
                lists.insert((m, None), BTreeSet::new());
            }
            let mut asked = Vec::new();
            for b in std::mem::take(&mut fetch) {
                if pieces.ask(b)? {
                    asked.push(b);
                }
            }
            if lists.is_empty() && asked.is_empty() {
                return jobs
                    .iter()
                    .zip(&anchors)
                    .map(|((prefix, _), anchor)| {
                        let anchor = anchor.as_ref().ok_or_else(|| unexpected("subtree.fetch"))?;
                        splice(prefix, anchor, &pieces).map(Some)
                    })
                    .collect();
            }
            name = if lists.is_empty() {
                "subtree.fetch"
            } else {
                "subtree.fetch+list"
            };
            out = Scatter::new(p);
            for b in asked {
                let req = Req::FetchSubtree {
                    slot: b.slot,
                    node: NodeId::ROOT.0,
                    off: 0,
                    meta: false,
                };
                out.push(b.module as usize, Tag::Block(b), req);
            }
            for ((m, under), roots) in std::mem::take(&mut lists) {
                let req = Req::ListBlocks {
                    slot: m.slot,
                    under,
                    roots: roots.into_iter().collect(),
                };
                out.push(m.module as usize, Tag::List, req);
            }
        }
        Err(PimTrieError::Protocol(
            "subtree: assembly did not terminate".into(),
        ))
    }

    /// Exact-key point lookup: one trie-matching pass whose block-match
    /// replies carry the values at the keys' ends; only a key whose
    /// block gave no answer (a flagged key, or one anchored at a child
    /// block that matched no piece) costs one more round of `O(1)`-word
    /// value reads. Panics if fault recovery gives up;
    /// [`PimTrie::try_get_batch`] reports it instead.
    pub fn get_batch(&mut self, keys: &[BitStr]) -> Vec<Option<u64>> {
        self.try_get_batch(keys)
            .unwrap_or_else(|e| panic!("get_batch: {e}"))
    }

    /// Fallible point lookup; recovers from injected faults like
    /// [`PimTrie::try_lcp_batch`].
    pub fn try_get_batch(&mut self, keys: &[BitStr]) -> Result<Vec<Option<u64>>, PimTrieError> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        self.with_recovery("get", |t| t.get_core(keys))
    }

    fn get_core(&mut self, keys: &[BitStr]) -> Result<Vec<Option<u64>>, PimTrieError> {
        let mt = self.match_keys(keys, true)?;
        let mut out: Vec<Option<u64>> = vec![None; keys.len()];
        let mut reads = Scatter::new(self.sys.p());
        let mut slow: Vec<(usize, BitStr)> = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            let node = mt.qt.key_node[i];
            if mt.flagged[node.idx()] {
                slow.push((i, k.clone()));
                continue;
            }
            if mt.depth_of[node.idx()] as usize != k.len() {
                continue; // not stored
            }
            let Some(a) = mt.anchor_of[node.idx()] else {
                slow.push((i, k.clone()));
                continue;
            };
            // the key's answer comes from the reply of its anchor's block
            if let Some(&Some((owner, v))) = mt.answers.get(node.idx()) {
                if owner == a.block {
                    out[i] = v;
                    continue;
                }
            }
            let req = Req::ReadKey {
                slot: a.block.slot,
                node: a.node,
                depth: k.len() as u64,
            };
            reads.push(a.block.module as usize, i, req);
        }
        if !slow.is_empty() {
            self.redo_paths += slow.len() as u64;
            let qs: Vec<BitStr> = slow.iter().map(|(_, k)| k.clone()).collect();
            let rs = self.try_slow_descend(&qs)?;
            for ((i, k), r) in slow.iter().zip(rs) {
                if r.depth as usize == k.len() {
                    let req = Req::ReadKey {
                        slot: r.anchor.block.slot,
                        node: r.anchor.node,
                        depth: k.len() as u64,
                    };
                    reads.push(r.anchor.block.module as usize, *i, req);
                }
            }
        }
        if reads.is_empty() {
            return Ok(out);
        }
        self.t_phase("read");
        for (_, i, resp) in self.rounds("get.read", reads)? {
            let Resp::Value(v) = resp else {
                return Err(unexpected("get"));
            };
            out[i] = v;
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // maintenance
    // ------------------------------------------------------------------

    /// Plan the re-cut of oversized blocks from their images: cut each
    /// with the §4.2 blocking algorithm, keep every root piece in place,
    /// scatter the rest, and push the whole placement onto `out`, so a
    /// batch of overflows costs one round, not O(#blocks). A meta-block
    /// the placement pushes past `K_SMB` is pulled whole in the same
    /// round ([`Read::Full`]). An image in `waiting` whose block's mirror
    /// moves into a new piece is pointed at that piece.
    fn plan_repartition(
        &mut self,
        images: Vec<(BlockRef, BlockDataOut)>,
        out: &mut Scatter<Read, Req>,
        waiting: &mut BTreeMap<BlockRef, BlockDataOut>,
    ) -> Result<(), PimTrieError> {
        let k_b = self.cfg.k_b;
        let orphan = || PimTrieError::Protocol("repartition: piece tree is not rooted".into());
        struct Plan {
            bref: BlockRef,
            /// the block's meta node: (meta-block, node slot)
            meta: (MetaRef, u32),
            pieces: Vec<trie_core::partition::Block>,
            root_idx: usize,
            /// piece index by the original node its root was cut at
            piece_of_orig: BTreeMap<NodeId, usize>,
            /// per piece, the piece holding its boundary mirror (the root
            /// piece is its own parent)
            parent_of: Vec<usize>,
            /// per piece, its root's metadata
            metas: Vec<crate::build::RootMeta>,
            old_mirrors: BTreeMap<NodeId, BlockRef>,
        }
        let mut plans: Vec<Plan> = Vec::new();
        for (bref, bd) in images {
            let mut trie = bd.trie.0;
            let old_mirrors: BTreeMap<NodeId, BlockRef> =
                bd.mirrors.iter().map(|(n, r)| (NodeId(*n), *r)).collect();
            // long-edge cutting before partitioning (§4.2)
            trie.split_long_edges((k_b as usize * 64 / 4).max(64));
            let mut roots = trie_core::partition::partition_roots(&trie, k_b);
            // Never cut at an existing mirror leaf: the piece rooted there
            // would be an empty shell in front of the old child block.
            roots.retain(|r| *r == NodeId::ROOT || !old_mirrors.contains_key(r));
            if roots.len() <= 1 {
                continue;
            }
            let Some(meta) = bd.meta else {
                return Err(unexpected("repartition"));
            };
            let pieces = trie_core::partition::decompose(&trie, &roots);
            let piece_of_orig: BTreeMap<NodeId, usize> = pieces
                .iter()
                .enumerate()
                .map(|(bi, b)| (b.orig_root, bi))
                .collect();
            let root_idx = *piece_of_orig.get(&NodeId::ROOT).ok_or_else(orphan)?;
            let mut holder: Vec<Option<usize>> = vec![None; pieces.len()];
            holder[root_idx] = Some(root_idx);
            for (pbi, pb) in pieces.iter().enumerate() {
                for (_, orig) in &pb.mirrors {
                    if let Some(cbi) = piece_of_orig.get(orig) {
                        holder[*cbi] = Some(pbi);
                    }
                }
            }
            let parent_of: Vec<usize> = holder
                .into_iter()
                .collect::<Option<_>>()
                .ok_or_else(orphan)?;
            // compute every piece's root metadata now, while the
            // edge-split trie (which the piece ids refer to) is alive
            let metas = pieces
                .iter()
                .map(|b| {
                    crate::build::root_meta_with_prefix(
                        &self.hasher,
                        bd.root_hash,
                        bd.root_depth,
                        bd.pre_hash,
                        &bd.rem.0,
                        &bd.s_last.0,
                        &trie.node_string(b.orig_root),
                    )
                })
                .collect();
            plans.push(Plan {
                bref,
                meta,
                pieces,
                root_idx,
                piece_of_orig,
                parent_of,
                metas,
                old_mirrors,
            });
        }
        if plans.is_empty() {
            return Ok(());
        }

        // Address every non-root piece on a random module and its meta
        // node in the block's meta-block. The order (plans, then pieces)
        // fixes every piece's module and slot: keep it, or the layout of
        // every index built through here moves.
        let mut targets: Vec<Vec<BlockRef>> = Vec::with_capacity(plans.len());
        for plan in &plans {
            let mut t = vec![plan.bref; plan.pieces.len()];
            for (bi, target) in t.iter_mut().enumerate() {
                if bi != plan.root_idx {
                    let m = self.random_module();
                    *target = self.addrs.block(m);
                }
            }
            targets.push(t);
        }
        // The host's node counts tell which meta-blocks the placement
        // pushes past K_SMB; each is pulled whole after the round's last
        // write to it, for the split that follows. The pulls go out by
        // module, then by the plan whose nodes crossed the bound: the order
        // the splits draw their addresses in.
        let mut count: BTreeMap<MetaRef, (u64, bool)> = BTreeMap::new();
        let mut full: Vec<(u32, usize, MetaRef)> = Vec::new();
        for (pi, plan) in plans.iter().enumerate() {
            let m = plan.meta.0;
            let (n, pulled) = count.entry(m).or_insert_with(|| {
                let live = self.addrs.nodes().get(&m).map_or(0, |a| a.live());
                (live as u64, false)
            });
            *n += plan.pieces.len() as u64 - 1;
            if *n > self.cfg.k_smb as u64 && !*pulled {
                *pulled = true;
                full.push((m.module, pi, m));
            }
        }
        full.sort_unstable();
        let mut node_slots: Vec<Vec<u32>> = Vec::with_capacity(plans.len());
        for plan in &plans {
            let n = plan.pieces.len() - 1;
            node_slots.push((0..n).map(|_| self.addrs.node(plan.meta.0)).collect());
        }

        // One round: every piece arrives with its final mirrors, parent and
        // meta node; moved children learn their new parent; root pieces
        // shrink in place; the meta nodes are registered.
        for ((plan, target), slots) in plans.into_iter().zip(&targets).zip(node_slots) {
            let (meta_ref, meta_slot) = plan.meta;
            // non-root pieces in index order; meta parents mirror the piece
            // tree so the meta tree keeps the block tree's bounded degree (a
            // star here would degenerate the Lemma-4.5 decomposition)
            let order: Vec<usize> = (0..plan.pieces.len())
                .filter(|bi| *bi != plan.root_idx)
                .collect();
            let pos = |bi: usize| bi - usize::from(bi > plan.root_idx);
            // old children whose mirror moved into a new piece: their meta
            // nodes follow it, so meta links keep following the block tree
            let mut relink: Vec<(BlockRef, u32)> = Vec::new();
            // the pieces move into the messages: no second copy of the tries
            for (bi, b) in plan.pieces.into_iter().enumerate() {
                let me = target[bi];
                let mut mirrors: Vec<(u32, BlockRef)> = b
                    .mirrors
                    .iter()
                    .map(|(leaf, orig)| (leaf.0, target[plan.piece_of_orig[orig]]))
                    .collect();
                for (new_id, orig_id) in b
                    .orig_of
                    .iter()
                    .enumerate()
                    .filter_map(|(i, o)| o.map(|o| (i, o)))
                {
                    if b.mirrors.iter().any(|(l, _)| l.idx() == new_id) {
                        continue;
                    }
                    if let Some(r) = plan.old_mirrors.get(&orig_id) {
                        mirrors.push((new_id as u32, *r));
                        if bi != plan.root_idx {
                            relink.push((*r, slots[pos(bi)]));
                        }
                        if let Some(image) = waiting.get_mut(r) {
                            image.parent = Some(me);
                        }
                        let req = Req::SetParent {
                            slot: r.slot,
                            parent: Some(me),
                        };
                        out.push(r.module as usize, Read::Ack, req);
                    }
                }
                let req = if bi == plan.root_idx {
                    Req::ReplaceBlock {
                        slot: me.slot,
                        trie: TrieMsg(b.trie),
                        mirrors,
                    }
                } else {
                    let meta = &plan.metas[bi];
                    let msg = crate::module::PutBlockMsg {
                        trie: TrieMsg(b.trie),
                        root_depth: meta.depth,
                        root_hash: meta.hash,
                        s_last: BitsMsg(meta.s_last.clone()),
                        pre_hash: meta.pre_hash,
                        rem: BitsMsg(meta.rem.clone()),
                        parent: Some(target[plan.parent_of[bi]]),
                        mirrors,
                        meta: Some((meta_ref, slots[pos(bi)])),
                    };
                    Req::PutBlock {
                        slot: me.slot,
                        msg: Box::new(msg),
                    }
                };
                out.push(me.module as usize, Read::Ack, req);
            }
            let nodes = order
                .iter()
                .map(|&bi| plan.metas[bi].new_meta_node(target[bi]))
                .collect();
            let parents = order
                .iter()
                .map(|&bi| {
                    let parent_bi = plan.parent_of[bi];
                    (parent_bi != plan.root_idx).then(|| pos(parent_bi) as u32)
                })
                .collect();
            let req = Req::AddMetaNodes {
                slot: meta_ref.slot,
                parent_node: meta_slot,
                nodes,
                parents,
                node_slots: slots,
                relink,
            };
            out.push(meta_ref.module as usize, Read::Ack, req);
        }
        for (module, _, m) in full {
            out.push(
                module as usize,
                Read::Full(m),
                Req::FetchMetaFull { slot: m.slot },
            );
        }
        Ok(())
    }

    /// Run a maintenance placement round, then drop the meta-blocks it
    /// emptied and split the ones it pulled whole.
    fn finish_placement(
        &mut self,
        name: &str,
        out: Scatter<Read, Req>,
        waiting: &mut BTreeMap<BlockRef, BlockDataOut>,
    ) -> Result<(), PimTrieError> {
        if out.is_empty() {
            return Ok(());
        }
        let placed = self.place(name, out)?;
        // The root meta-block never empties: its root node describes the
        // root block, which is never a merge candidate.
        let mut drop = Scatter::new(self.sys.p());
        for &(mref, pm) in &placed.emptied {
            self.addrs.free_meta(mref);
            self.master.remove(mref);
            drop.push(
                mref.module as usize,
                Read::Ack,
                Req::DropMeta { slot: mref.slot },
            );
            let req = Req::RemoveMetaChild {
                slot: pm.slot,
                mref,
            };
            drop.push(pm.module as usize, Read::Ack, req);
        }
        if !drop.is_empty() {
            self.place("merge.meta.drop", drop)?;
        }
        let dropped: BTreeSet<MetaRef> = placed.emptied.iter().map(|(m, _)| *m).collect();
        self.split_meta_blocks(placed.full, &dropped, waiting)
    }

    /// Merge undersized and emptied blocks into their parents after
    /// deletions, from the images the delete replies carried. Each loop
    /// iteration advances every candidate one level up: a `merge.apply`
    /// round, whose replies carry every parent that left its size band,
    /// then one round that drops the merged blocks and places the re-cut
    /// of every parent the merges pushed past `2·K_B`. Cascades drain in
    /// O(depth) rounds total.
    fn maintain_after_shrink(
        &mut self,
        mut waiting: BTreeMap<BlockRef, BlockDataOut>,
    ) -> Result<(), PimTrieError> {
        let p = self.sys.p();
        let mut guard = 0;
        while !waiting.is_empty() {
            guard += 1;
            if guard > 64 {
                break;
            }
            // re-assert each level: a cascaded meta-split re-tags
            self.t_phase("merge");
            // Round A: splice each candidate into its parent.
            let mut apply = Scatter::new(p);
            let mut merged: Vec<(BlockRef, Option<(MetaRef, u32)>)> = Vec::new();
            for (bref, image) in std::mem::take(&mut waiting) {
                let Some(parent) = image.parent else { continue };
                let req = Req::MergeChild {
                    slot: parent.slot,
                    child: bref,
                    subtree: image.trie,
                };
                apply.push(parent.module as usize, parent, req);
                merged.push((bref, image.meta));
            }
            // a parent's last reply describes it after all its merges
            let mut parents: BTreeMap<BlockRef, Option<(u64, BlockDataOut)>> = BTreeMap::new();
            for (_, parent, resp) in self.rounds("merge.apply", apply)? {
                let Resp::BlockVitals {
                    weight,
                    collision,
                    image,
                    ..
                } = resp
                else {
                    return Err(unexpected("merge.apply"));
                };
                // a refused merge left the child's keys in the child:
                // stop before the cleanup round drops it
                if collision {
                    return Err(PimTrieError::Protocol(format!(
                        "merge.apply: block {parent:?} refused a child merge"
                    )));
                }
                parents.insert(parent, image.map(|image| (weight, *image)));
            }
            // Round B: drop the merged blocks and their meta nodes, and
            // place the re-cut of every oversized parent. The drops come
            // first in each inbox, so a slot they free is free before a
            // piece or a meta node takes it.
            let mut out = Scatter::new(p);
            for (bref, meta) in merged {
                self.addrs.free_block(bref);
                out.push(
                    bref.module as usize,
                    Read::Ack,
                    Req::DropBlock { slot: bref.slot },
                );
                if let Some((mref, slot)) = meta {
                    self.addrs.free_node(mref, slot);
                    let req = Req::RemoveMetaNode {
                        slot: mref.slot,
                        node: slot,
                    };
                    out.push(mref.module as usize, Read::Removal(mref), req);
                }
            }
            // parents that shrank into candidates continue; oversized
            // ones are re-cut
            let mut oversized = Vec::new();
            for (parent, last) in parents {
                let Some((weight, image)) = last else {
                    continue;
                };
                if SizeBand::new(self.cfg.k_b).oversized(weight) {
                    oversized.push((parent, image));
                } else {
                    waiting.insert(parent, image);
                }
            }
            self.plan_repartition(oversized, &mut out, &mut waiting)?;
            self.finish_placement("merge.cleanup", out, &mut waiting)?;
        }
        Ok(())
    }

    /// Split overfull meta-blocks, pulled whole by the placement round that
    /// overfilled them: re-cut each with Lemma 4.5, keep every root piece
    /// at its address, scatter the children (§4.4.1 / the §5.2 CPU-side
    /// rebuild). All splits share one round. A child meta-block in
    /// `dropped` was dropped after its pull and is left out.
    fn split_meta_blocks(
        &mut self,
        fulls: Vec<(MetaRef, MetaFullOut)>,
        dropped: &BTreeSet<MetaRef>,
        waiting: &mut BTreeMap<BlockRef, BlockDataOut>,
    ) -> Result<(), PimTrieError> {
        if fulls.is_empty() {
            return Ok(());
        }
        self.t_phase("meta-split");
        // CPU: rebuild each meta-block's node tree and cut it.
        let mut jobs: Vec<crate::build::PlaceJob> = Vec::new();
        for (mref, full) in fulls {
            let idx_of: BTreeMap<u32, usize> = full
                .nodes
                .iter()
                .enumerate()
                .map(|(i, n)| (n.slot, i))
                .collect();
            let mut tree: Vec<crate::build::ChunkNode> = full
                .nodes
                .iter()
                .map(|n| crate::build::ChunkNode {
                    block: n.block,
                    meta: crate::build::RootMeta {
                        depth: n.depth,
                        hash: n.hash,
                        pre_hash: n.pre_hash,
                        rem: n.rem.clone(),
                        s_last: n.s_last.clone(),
                    },
                    parent: n.parent.map(|p| idx_of[&p]),
                    children: Vec::new(),
                })
                .collect();
            for (i, n) in full.nodes.iter().enumerate() {
                if let Some(pslot) = n.parent {
                    let pi = idx_of[&pslot];
                    tree[pi].children.push(i);
                }
            }
            let root = idx_of[&full.root_node];
            let (plans, root_plan, locate) =
                crate::build::cut_decompose(&mut tree, root, self.cfg.k_smb);
            if plans.len() <= 1 {
                continue;
            }
            // carry existing meta-block-tree children into the plan that
            // holds their under_node
            let extra: Vec<(usize, crate::module::NewMetaChild)> = full
                .children
                .iter()
                .filter(|(c, ..)| !dropped.contains(&c.mref))
                .map(|(c, depth, pre, rem, last)| {
                    (
                        locate[&idx_of[&c.under_node]],
                        crate::module::NewMetaChild {
                            mref: c.mref,
                            under_node: idx_of[&c.under_node] as u32,
                            root_block: c.root_block,
                            depth: *depth,
                            pre_hash: *pre,
                            rem: BitsMsg(rem.clone()),
                            s_last: BitsMsg(last.clone()),
                        },
                    )
                })
                .collect();
            jobs.push(crate::build::PlaceJob {
                tree,
                plans,
                root_plan,
                replace_root_at: mref,
                extra,
            });
        }
        if jobs.is_empty() {
            return Ok(());
        }
        self.place_chunks(&jobs, waiting)
    }

    // ------------------------------------------------------------------
    // crash recovery
    // ------------------------------------------------------------------

    /// Run `body` as the traced op `op`, rebuilding the index from the
    /// host journal and retrying whenever a module reports a rebooted
    /// (blank) state mid-operation. Fault plans fire each crash once, so
    /// a bounded number of rebuilds always reaches a clean re-run; the
    /// bound guards against pathological fault plans, not correctness.
    fn with_recovery<T>(
        &mut self,
        op: &'static str,
        mut body: impl FnMut(&mut Self) -> Result<T, PimTrieError>,
    ) -> Result<T, PimTrieError> {
        const MAX_REBUILDS: u32 = 4;
        pim_sim::in_op(
            self,
            |t| t.sys.metrics_mut(),
            op,
            |t| {
                let mut rebuilds = 0u32;
                loop {
                    match body(t) {
                        Err(PimTrieError::ModuleLost { .. })
                            if t.cfg.fault_tolerance && rebuilds < MAX_REBUILDS =>
                        {
                            rebuilds += 1;
                            // a crash can land during the rebuild too; retry
                            // it within the same budget
                            while let Err(e) = t.rebuild_from_journal() {
                                match e {
                                    PimTrieError::ModuleLost { .. } if rebuilds < MAX_REBUILDS => {
                                        rebuilds += 1;
                                    }
                                    other => return Err(other),
                                }
                            }
                        }
                        other => return other,
                    }
                }
            },
        )
    }

    /// Re-scatter the whole index from the host-side journal after a
    /// module lost its memory: blank every module (clearing the crashed
    /// fences), bootstrap the empty trie, and replay the surviving keys
    /// in bulk chunks. The journal holds the last fully-applied batch
    /// state, so a half-applied batch is rolled back here and re-run by
    /// `with_recovery`.
    fn rebuild_from_journal(&mut self) -> Result<(), PimTrieError> {
        pim_sim::in_op(
            self,
            |t| t.sys.metrics_mut(),
            "recovery",
            Self::rebuild_from_journal_inner,
        )
    }

    fn rebuild_from_journal_inner(&mut self) -> Result<(), PimTrieError> {
        self.sys.metrics_mut().fault_stats_mut().rebuilds += 1;
        self.t_phase("reset");
        let mut reset = Scatter::new(self.sys.p());
        for m in 0..self.sys.p() {
            self.addrs.reset(m as u32);
            reset.push(m, (), Req::ResetModule);
        }
        self.master.clear();
        self.rounds("recover.reset", reset)?;
        self.n_keys = 0;
        self.bootstrap()?;
        let entries: Vec<(BitStr, u64)> =
            self.journal.iter().map(|(k, v)| (k.clone(), *v)).collect();
        // Small chunks on purpose: the first chunks graft into a nearly
        // empty trie, so the chunk size bounds the largest single graft
        // message. Replaying 4k keys at once builds one root graft so
        // large that no per-word corruption rate worth recovering from
        // would ever deliver it within the retry budget. A graft reply
        // carries back the image of every block the graft overfills, and
        // one round must deliver both, so a chunk is 128 keys.
        for chunk in entries.chunks(128) {
            let keys: Vec<BitStr> = chunk.iter().map(|(k, _)| k.clone()).collect();
            let vals: Vec<u64> = chunk.iter().map(|(_, v)| *v).collect();
            self.insert_core(&keys, &vals)?;
        }
        Ok(())
    }

    // ---- per-key failure scoping --------------------------------------
    //
    // The plain `try_*_batch` front-ends are all-or-nothing: one module
    // exhausting the sealed-wire retry budget
    // ([`PimTrieError::RecoveryExhausted`]) fails the whole batch, even
    // though every key routed through the other `P - 1` modules had a
    // perfectly good answer. The `try_*_batch_scoped` variants below
    // shrink that blast radius to the keys that actually depend on the
    // exhausted module: they return one `Result` per key, quarantine the
    // modules named by the error so new placements avoid them, and
    // bisect the batch so healthy keys still complete.

    /// [`Self::try_lcp_batch`] with per-key failure scoping: returns one
    /// `Result` per query instead of failing the whole batch when a
    /// module exhausts its recovery budget.
    ///
    /// Semantics shared by all four scoped front-ends:
    ///
    /// * without [`fault_tolerance`](crate::PimTrieConfig::fault_tolerance)
    ///   or without an installed [`FaultPlan`](pim_sim::FaultPlan),
    ///   `RecoveryExhausted` cannot occur and this is exactly the plain
    ///   batch op with every result wrapped in `Ok` — same rounds, same
    ///   metered costs, same placement RNG draws;
    /// * on `RecoveryExhausted`, the modules named by the error join the
    ///   [quarantine set](crate::PimTrie::quarantined) (placement skips
    ///   them from then on) and the batch is bisected; only keys whose
    ///   path still needs an exhausted module come back as `Err`;
    /// * read results (`lcp`, `get`) are exact for every `Ok` key;
    /// * mutations (`insert`, `delete`) apply per successful sub-batch:
    ///   an `Ok` key is durably applied (and journaled). A failing
    ///   sub-batch usually dies in its read-only match phase, but a
    ///   maintenance round *after* the grafts landed can be the one that
    ///   exhausts, so failed keys are reconciled by readback: a key
    ///   whose stored state confirms the mutation is reported — and
    ///   journaled — as `Ok`. A surviving `Err` key is unconfirmed; the
    ///   journal still holds its last confirmed value, so a rebuild
    ///   restores pre-operation state for it;
    /// * input-validation errors ([`PimTrieError::EmptyKey`],
    ///   [`PimTrieError::ReservedValue`]) bisect down to the offending
    ///   key too, so one bad key no longer poisons its neighbours.
    pub fn try_lcp_batch_scoped(&mut self, queries: &[BitStr]) -> Vec<Result<usize, PimTrieError>> {
        self.scoped_batch(queries.len(), |t, idxs| {
            let sub: Vec<BitStr> = idxs.iter().map(|&i| queries[i].clone()).collect();
            t.try_lcp_batch(&sub)
        })
    }

    /// [`Self::try_get_batch`] with per-key failure scoping; see
    /// [`Self::try_lcp_batch_scoped`] for the shared contract.
    pub fn try_get_batch_scoped(
        &mut self,
        keys: &[BitStr],
    ) -> Vec<Result<Option<u64>, PimTrieError>> {
        self.scoped_batch(keys.len(), |t, idxs| {
            let sub: Vec<BitStr> = idxs.iter().map(|&i| keys[i].clone()).collect();
            t.try_get_batch(&sub)
        })
    }

    /// [`Self::try_insert_batch`] with per-key failure scoping; see
    /// [`Self::try_lcp_batch_scoped`] for the shared contract. An `Ok`
    /// key is inserted and journaled; an `Err` key is not inserted. A
    /// key/value length mismatch cannot be pinned on any key, so it is
    /// reported on every slot.
    pub fn try_insert_batch_scoped(
        &mut self,
        keys: &[BitStr],
        values: &[u64],
    ) -> Vec<Result<(), PimTrieError>> {
        if keys.len() != values.len() {
            let e = PimTrieError::MismatchedBatch {
                keys: keys.len(),
                values: values.len(),
            };
            return (0..keys.len()).map(|_| Err(e.clone())).collect();
        }
        let mut res = self.scoped_batch(keys.len(), |t, idxs| {
            let ks: Vec<BitStr> = idxs.iter().map(|&i| keys[i].clone()).collect();
            let vs: Vec<u64> = idxs.iter().map(|&i| values[i]).collect();
            t.try_insert_batch(&ks, &vs).map(|()| vec![(); idxs.len()])
        });
        // Reconcile phantom applies (see the shared-contract doc): a key
        // the bisection gave up on may still have landed if the failing
        // round came after its graft. Readback decides; confirmed keys
        // become journaled successes.
        let failed: Vec<usize> = (0..res.len()).filter(|&i| res[i].is_err()).collect();
        if !failed.is_empty() {
            let ks: Vec<BitStr> = failed.iter().map(|&i| keys[i].clone()).collect();
            let got = self.try_get_batch_scoped(&ks);
            for (j, &i) in failed.iter().enumerate() {
                if got[j] == Ok(Some(values[i])) {
                    if self.cfg.fault_tolerance {
                        self.journal.insert(keys[i].clone(), values[i]);
                    }
                    res[i] = Ok(());
                }
            }
        }
        res
    }

    /// [`Self::try_delete_batch`] with per-key failure scoping; see
    /// [`Self::try_lcp_batch_scoped`] for the shared contract. An `Ok`
    /// key is absent afterwards (whether or not it was stored); an `Err`
    /// key keeps whatever mapping it had.
    pub fn try_delete_batch_scoped(&mut self, keys: &[BitStr]) -> Vec<Result<(), PimTrieError>> {
        let mut res = self.scoped_batch(keys.len(), |t, idxs| {
            let ks: Vec<BitStr> = idxs.iter().map(|&i| keys[i].clone()).collect();
            t.try_delete_batch(&ks).map(|_| vec![(); idxs.len()])
        });
        // Reconcile phantom applies, mirroring the scoped insert: a key
        // confirmed absent by readback really was deleted.
        let failed: Vec<usize> = (0..res.len()).filter(|&i| res[i].is_err()).collect();
        if !failed.is_empty() {
            let ks: Vec<BitStr> = failed.iter().map(|&i| keys[i].clone()).collect();
            let got = self.try_get_batch_scoped(&ks);
            for (j, &i) in failed.iter().enumerate() {
                if got[j] == Ok(None) {
                    if self.cfg.fault_tolerance {
                        self.journal.remove(&keys[i]);
                    }
                    res[i] = Ok(());
                }
            }
        }
        res
    }

    /// Shared bisection driver behind the `try_*_batch_scoped`
    /// front-ends. Runs `run` on index sub-batches of `0..n`; a
    /// sub-batch that fails has its error fed to
    /// [`Self::quarantine_from`] and is split in half (left half first,
    /// preserving key order within each outcome class), down to single
    /// keys. A single key is retried once if its failure *grew* the
    /// quarantine set — its first attempt may have placed new blocks on
    /// a module nobody knew was dead yet — and otherwise keeps its
    /// error. The happy path is one `run` over the full batch: zero
    /// extra rounds, zero extra RNG draws.
    fn scoped_batch<T>(
        &mut self,
        n: usize,
        mut run: impl FnMut(&mut Self, &[usize]) -> Result<Vec<T>, PimTrieError>,
    ) -> Vec<Result<T, PimTrieError>> {
        if n == 0 {
            return Vec::new();
        }
        self.scoped.batches += 1;
        let mut out: Vec<Option<Result<T, PimTrieError>>> = (0..n).map(|_| None).collect();
        let mut stack: Vec<(Vec<usize>, bool)> = vec![((0..n).collect(), false)];
        while let Some((idxs, retried)) = stack.pop() {
            self.scoped.runs += 1;
            match run(self, &idxs) {
                Ok(vals) => {
                    debug_assert_eq!(vals.len(), idxs.len());
                    for (i, v) in idxs.iter().zip(vals) {
                        out[*i] = Some(Ok(v));
                    }
                }
                Err(e) if idxs.len() == 1 => {
                    if self.quarantine_from(&e) && !retried {
                        self.scoped.retries += 1;
                        stack.push((idxs, true));
                    } else {
                        self.scoped.keys_failed += 1;
                        out[idxs[0]] = Some(Err(e));
                    }
                }
                Err(e) => {
                    self.quarantine_from(&e);
                    self.scoped.splits += 1;
                    let (l, r) = idxs.split_at(idxs.len() / 2);
                    // pop order: right pushed first so the left half runs
                    // next, keeping sub-batches in key order
                    stack.push((r.to_vec(), false));
                    stack.push((l.to_vec(), false));
                }
            }
        }
        out.into_iter()
            .map(|r| {
                r.unwrap_or_else(|| {
                    Err(PimTrieError::Protocol(
                        "scoped batch left a key unresolved".into(),
                    ))
                })
            })
            .collect()
    }

    /// Fold the modules named by a [`PimTrieError::RecoveryExhausted`]
    /// into the quarantine set; placement then avoids them (see
    /// [`Self::random_module`]). Returns whether the set grew. At least
    /// one module is always left un-quarantined so placement stays
    /// well-defined. Every other error kind leaves the set untouched.
    fn quarantine_from(&mut self, e: &PimTrieError) -> bool {
        let PimTrieError::RecoveryExhausted { modules, .. } = e else {
            return false;
        };
        let p = self.sys.p();
        let before = self.quarantined.len();
        for &m in modules {
            if self.quarantined.len() + 1 < p {
                self.quarantined.insert(m);
            }
        }
        self.quarantined.len() > before
    }
}

/// One fetched piece of a SubtreeQuery: a block's trie below the fetch
/// position, its mirror leaves, and the position's depth.
#[derive(Clone)]
struct Piece {
    trie: Trie,
    children: Vec<(u32, BlockRef)>,
    depth: u64,
}

impl Piece {
    /// The piece a `Subtree` reply carries, and the meta node it names.
    fn from_resp(resp: Resp) -> Result<(Piece, Option<(MetaRef, u32)>), PimTrieError> {
        let Resp::Subtree {
            trie,
            children,
            depth,
            meta,
        } = resp
        else {
            return Err(unexpected("subtree.fetch"));
        };
        let piece = Piece {
            trie: trie.0,
            children,
            depth,
        };
        Ok((piece, meta))
    }
}

/// The blocks of one SubtreeQuery batch: which were asked for, and their
/// pieces once in hand.
struct Pieces {
    /// per module, per block slot the host gave out: index into `held`
    index: Vec<Vec<u32>>,
    held: Vec<Held>,
}

/// What a SubtreeQuery batch knows of one block.
#[derive(Default)]
struct Held {
    asked: bool,
    piece: Option<Piece>,
}

impl Pieces {
    /// An empty table for the block slots `0..bound` of each module.
    fn new(bounds: impl Iterator<Item = u32>) -> Self {
        Pieces {
            index: bounds.map(|b| vec![u32::MAX; b as usize]).collect(),
            held: Vec::new(),
        }
    }

    /// The entry of block `b`, made on first use. A reply naming a block
    /// the host never placed is a protocol error.
    fn entry(&mut self, b: BlockRef) -> Result<&mut Held, PimTrieError> {
        let i = self
            .index
            .get_mut(b.module as usize)
            .and_then(|m| m.get_mut(b.slot as usize))
            .ok_or_else(|| unexpected("subtree.fetch"))?;
        if *i == u32::MAX {
            *i = self.held.len() as u32;
            self.held.push(Held::default());
        }
        Ok(&mut self.held[*i as usize])
    }

    fn get(&self, b: &BlockRef) -> Option<&Piece> {
        let i = *self.index.get(b.module as usize)?.get(b.slot as usize)?;
        self.held.get(i as usize)?.piece.as_ref()
    }

    /// Mark `b` asked for; false if it already was.
    fn ask(&mut self, b: BlockRef) -> Result<bool, PimTrieError> {
        Ok(!std::mem::replace(&mut self.entry(b)?.asked, true))
    }

    /// Hold block `b`'s piece.
    fn add(&mut self, b: BlockRef, piece: Piece) -> Result<(), PimTrieError> {
        self.entry(b)?.piece = Some(piece);
        Ok(())
    }
}

/// The trie of every key below `prefix`, spliced top-down from the
/// anchor's piece: each child block's piece is copied in at the mirror
/// leaf that names it. Path compression is restored last: a mirror leaf
/// holds no key of its own, and a block cut at a long edge keeps a unary
/// node.
fn splice(prefix: &BitStr, anchor: &Piece, pieces: &Pieces) -> Result<Trie, PimTrieError> {
    let mut out = Trie::new();
    let top = if prefix.is_empty() {
        NodeId::ROOT
    } else {
        out.attach_child(NodeId::ROOT, prefix.clone(), None)
    };
    // (piece, the node its root lands on, that node's depth)
    let mut stack = vec![(anchor, top, prefix.len() as u64)];
    let mut visits = 0;
    while let Some((piece, at, depth)) = stack.pop() {
        visits += 1;
        if piece.depth != depth || visits > pieces.held.len() + 1 {
            return Err(PimTrieError::Protocol(format!(
                "subtree: the pieces below {prefix:?} do not form a tree"
            )));
        }
        let landed = copy_piece(&mut out, at, &piece.trie);
        for (node, child) in &piece.children {
            let c = pieces
                .get(child)
                .ok_or_else(|| unexpected("subtree.fetch"))?;
            let leaf = landed[*node as usize];
            stack.push((c, leaf, u64::from(out.node(leaf).depth)));
        }
    }
    // compressing a node removes only it and nodes above it
    for id in (1..out.id_bound() as u32).rev().map(NodeId) {
        if out.is_live(id) && !out.node(id).is_key() && out.node(id).degree() < 2 {
            out.recompress_at(id);
        }
    }
    Ok(out)
}

/// Copy `piece` into `out` with its root landing on `at` (a node with no
/// value and no children); returns where each piece node landed.
fn copy_piece(out: &mut Trie, at: NodeId, piece: &Trie) -> Vec<NodeId> {
    let mut landed = vec![NodeId::ROOT; piece.id_bound()];
    landed[NodeId::ROOT.idx()] = at;
    if let Some(v) = piece.node(NodeId::ROOT).value {
        out.set_value(at, v);
    }
    let mut stack = vec![NodeId::ROOT];
    while let Some(n) = stack.pop() {
        for c in piece.node(n).children.iter().flatten() {
            let cn = piece.node(*c);
            landed[c.idx()] = out.attach_child(landed[n.idx()], cn.edge.clone(), cn.value);
            stack.push(*c);
        }
    }
    landed
}

/// Build the graft subtree hanging below position `(below, depth)` of the
/// query trie, with real values substituted at key nodes.
fn subtree_for_graft(qt: &Trie, below: NodeId, depth: u64, val_of: &BTreeMap<u32, u64>) -> Trie {
    let mut out = Trie::new();
    let n = qt.node(below);
    let start = depth as usize - (n.depth as usize - n.edge.len());
    let edge = n.edge.slice(start..n.edge.len()).to_bitstr();
    debug_assert!(!edge.is_empty(), "graft with empty first edge");
    let id = out.attach_child(NodeId::ROOT, edge, value_for(qt, below, val_of));
    copy_values_subtree(qt, below, &mut out, id, val_of);
    out
}

fn value_for(qt: &Trie, id: NodeId, val_of: &BTreeMap<u32, u64>) -> Option<u64> {
    qt.node(id).value.and_then(|_| val_of.get(&id.0).copied())
}

fn copy_values_subtree(
    qt: &Trie,
    src: NodeId,
    out: &mut Trie,
    dst: NodeId,
    val_of: &BTreeMap<u32, u64>,
) {
    for c in qt.node(src).children.iter().flatten() {
        let cn = qt.node(*c);
        let id = out.attach_child(dst, cn.edge.clone(), value_for(qt, *c, val_of));
        copy_values_subtree(qt, *c, out, id, val_of);
    }
}

/// Collect all batch keys below a query node for slow-path insertion.
fn collect_keys_below(
    qt: &Trie,
    from: NodeId,
    val_of: &BTreeMap<u32, u64>,
    out: &mut Vec<(BitStr, u64)>,
) {
    let mut stack = vec![from];
    while let Some(id) = stack.pop() {
        if qt.node(id).value.is_some() {
            if let Some(&v) = val_of.get(&id.0) {
                out.push((qt.node_string(id), v));
            }
        }
        for c in qt.node(id).children.iter().flatten() {
            stack.push(*c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PimTrieConfig;

    /// The lists name every block under a prefix, so assembly does not
    /// look for a child block they left out: a piece that names one ends
    /// assembly with `Protocol`. Here a mirror under `0` is re-pointed
    /// at a block rooted as deep under `1`, which a walk down the mirrors
    /// would fetch and splice in without noticing: first a mirror of the
    /// anchor's own block, whose list refuses a root that is no child
    /// block of the anchor's block, then one of a block below it, which
    /// no list names.
    #[test]
    fn a_child_block_no_list_names_is_a_protocol_error() {
        for deeper in [false, true] {
            let keys = workloads::uniform_fixed(1 << 12, 64, 3);
            let values: Vec<u64> = (0..keys.len() as u64).collect();
            let mut t = PimTrie::build(PimTrieConfig::for_modules(8), &keys, &values);
            let prefix = BitStr::from_bin_str("0");
            let mt = t.match_batch(std::slice::from_ref(&prefix)).unwrap();
            let anchor = mt.anchor_of[mt.qt.key_node[0].idx()].unwrap();
            // a block's root depth and, for roots of 1–63 bits (`rem`
            // holds them whole), the root's first bit
            let root = |b: &BlockRef| {
                let b = t.sys.module(b.module as usize).blocks.get(b.slot).unwrap();
                (
                    b.root_depth,
                    (1..64).contains(&b.root_depth).then(|| b.rem.get(0)),
                )
            };
            let all: Vec<BlockRef> = (0..t.sys.p() as u32)
                .flat_map(|m| {
                    let blocks = &t.sys.module(m as usize).blocks;
                    blocks
                        .iter()
                        .map(move |(slot, _)| BlockRef { module: m, slot })
                })
                .collect();
            let (at, node, other) = all
                .iter()
                .filter(|b| match deeper {
                    false => **b == anchor.block,
                    true => **b != anchor.block && root(b).1 == Some(false),
                })
                .find_map(|b| {
                    let blocks = &t.sys.module(b.module as usize).blocks;
                    let mirrors = &blocks.get(b.slot).unwrap().mirrors;
                    mirrors
                        .iter()
                        .filter(|(_, c)| root(c).1 == Some(false))
                        .find_map(|(n, c)| {
                            let twin = all.iter().find(|o| root(o) == (root(c).0, Some(true)))?;
                            Some((*b, *n, *twin))
                        })
                })
                .unwrap();
            let block = t
                .sys
                .module_mut(at.module as usize)
                .blocks
                .get_mut(at.slot)
                .unwrap();
            block.mirrors.insert(node, other);
            let r = t.assemble_subtrees(&[(prefix, anchor)]);
            assert!(
                matches!(r, Err(PimTrieError::Protocol(_))),
                "deeper: {deeper}"
            );
        }
    }
}
