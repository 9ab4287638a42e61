//! Trie matching — the orchestration of Algorithms 2–5.
//!
//! One batch is matched in three steps, the last two as BSP rounds over
//! the simulator.
//!
//! 1. **Master table** (Algorithm 4), on the host: the whole query trie is
//!    matched against [`crate::resident::MasterTable`], one entry per
//!    meta-block root. Per query-trie edge this finds the deepest
//!    meta-block root on it; every meta-block is a connected piece of the
//!    block tree, so that meta-block describes the deepest block root
//!    below it. No IO: the host authors every meta-block placement and
//!    keeps the table itself.
//! 2. **Meta round** (Algorithm 5): the query piece below each such match
//!    goes straight to its meta-block. A target the host holds a copy of
//!    ([`crate::resident`]) is matched on the CPU with no IO; a missing
//!    one the resident set may take is pulled (`FetchMeta`) and the reply
//!    kept. Any other target gets its pieces *pushed* to its module, or —
//!    when the pieces aimed at it exceed the `log⁴ P` threshold — its
//!    `O(log² P)` entries *pulled* to the CPU and matched there
//!    (push-pull); a pull and a fill are the same request, index build
//!    and matching kernel. All of them travel in one `match.meta` round,
//!    so the descent costs at most one round however tall the meta-block
//!    tree is.
//! 3. **Block matching** (Algorithm 2): the query piece between a matched
//!    block root and the next deeper matches is matched *bit by bit*
//!    against the block — pushed if small, pulled if the piece outweighs
//!    the `O(K_B)` block, both in one `match.block` round. A point lookup
//!    also reads its values here: the replies list the values at the key
//!    ends each block owns ([`crate::module::match_block_local`]). This is
//!    simultaneously the §4.4.3 verification:
//!    any inconsistency (failed `S_last`, a walk ending at a mirror with
//!    query bits left) flags the affected paths for an exact slow-path
//!    redo.

use crate::error::{unexpected, PimTrieError};
use crate::hvm::{hash_match_piece, hash_match_trie, QueryPiece};
use crate::module::{
    block_root_collision, match_block_local, BlockNodeResult, DataBlock, Req, Resp, RootMatch,
};
use crate::refs::{BlockRef, MetaRef};
use crate::resident::{index_entries, MetaIndex, ENTRY_WORDS};
use crate::PimTrie;
use bitstr::hash::{HashVal, IncrementalHash};
use bitstr::{BitStr, WORD_BITS};
use pim_sim::{Scatter, Wire};
use std::collections::{BTreeMap, BTreeSet};
use trie_core::query::QueryTrie;
use trie_core::{NodeId, Trie, Value};

const W: u64 = WORD_BITS as u64;

/// Where a matched path stops inside a data block.
#[derive(Clone, Copy, Debug)]
pub struct Anchor {
    /// the block
    pub block: BlockRef,
    /// data node whose edge holds the position
    pub node: u32,
    /// bits of that node's edge above the position
    pub off: u32,
}

/// Counters of one matching run.
#[derive(Clone, Copy, Debug, Default)]
pub struct MatchStats {
    /// pieces pushed to modules
    pub pushes: u64,
    /// metadata/block pulls to the CPU
    pub pulls: u64,
    /// `match.meta` rounds: at most one (the master table sends every
    /// piece straight to its meta-block), none when every target is
    /// resident
    pub descend_rounds: u64,
    /// §4.4.3 collision detections
    pub collisions: u64,
    /// paths redone through the exact slow path
    pub redo_paths: u64,
}

/// The matched trie: per query-trie node, the length of its longest
/// common prefix with the data trie and the data-side anchor.
/// Paper: §4.1.
pub struct MatchedTrie {
    /// the batch's query trie
    pub qt: QueryTrie,
    /// per qt node id: matched depth of the path to it (bits)
    pub depth_of: Vec<u64>,
    /// per qt node id: data anchor of the deepest match on its path
    pub anchor_of: Vec<Option<Anchor>>,
    /// per qt node id: this node's result is untrusted (§ 4.4.3)
    pub flagged: Vec<bool>,
    /// counters
    pub stats: MatchStats,
    /// per qt node id, when the batch asked for values: the block that
    /// owns the key ending there and the value it stores (`None`: not
    /// stored); empty otherwise
    pub(crate) answers: Vec<Answer>,
}

/// A key end's answer from block matching: its owning block and the value
/// stored there.
pub(crate) type Answer = Option<(BlockRef, Option<Value>)>;

/// What a block-match message asks, kept beside it for its reply.
enum BlockAsk {
    /// a contended block, fetched once; its pieces are matched on the host
    Pull(BlockRef, Vec<QueryPiece>),
    /// one pushed piece: its block and its tags
    Push(BlockRef, Vec<u32>),
}

/// Rolling pivot context at a query-trie node: the last `w`-boundary at or
/// above the node, the hash of the query prefix there, and the bits from
/// that boundary down to the node.
#[derive(Clone)]
pub(crate) struct NodeCtx {
    pub pre_depth: u64,
    pub pre_hash: HashVal,
    pub tail: BitStr,
}

pub(crate) fn node_ctxs(trie: &Trie, hasher: &bitstr::hash::PolyHasher) -> Vec<NodeCtx> {
    // every id starts at the root's context; a live node's is overwritten
    // before any child reads it (parents are popped before children)
    let root = NodeCtx {
        pre_depth: 0,
        pre_hash: hasher.empty(),
        tail: BitStr::new(),
    };
    let mut out: Vec<NodeCtx> = vec![root; trie.id_bound()];
    let mut stack = vec![NodeId::ROOT];
    while let Some(id) = stack.pop() {
        let ctx = out[id.idx()].clone();
        for c in trie.node(id).children.iter().flatten() {
            let edge = &trie.node(*c).edge;
            let top = ctx.pre_depth + ctx.tail.len() as u64;
            let bottom = top + edge.len() as u64;
            let new_pre = (bottom / W) * W;
            let cctx = if new_pre > ctx.pre_depth {
                let consumed = (new_pre - top) as usize;
                let mut bits = ctx.tail.clone();
                bits.append(&edge.slice(0..consumed));
                let h = hasher.combine(
                    ctx.pre_hash,
                    hasher.hash_bits(bits.as_slice()),
                    bits.len() as u64,
                );
                NodeCtx {
                    pre_depth: new_pre,
                    pre_hash: h,
                    tail: edge.slice(consumed..edge.len()).to_bitstr(),
                }
            } else {
                let mut tail = ctx.tail.clone();
                tail.append(&edge.as_slice());
                NodeCtx {
                    pre_depth: ctx.pre_depth,
                    pre_hash: ctx.pre_hash,
                    tail,
                }
            };
            out[c.idx()] = cctx;
            stack.push(*c);
        }
    }
    out
}

/// Pivot context of an arbitrary position `(below, depth)` — on the edge
/// into `below`, `depth` bits from the query root.
pub(crate) fn ctx_at(
    trie: &Trie,
    ctxs: &[NodeCtx],
    hasher: &bitstr::hash::PolyHasher,
    below: NodeId,
    depth: u64,
) -> NodeCtx {
    let n = trie.node(below);
    let parent = match n.parent {
        Some(parent) if depth != n.depth as u64 => parent,
        // at the node itself, or at the root (which has no edge)
        _ => return ctxs[below.idx()].clone(),
    };
    let pctx = &ctxs[parent.idx()];
    let top = pctx.pre_depth + pctx.tail.len() as u64;
    debug_assert!(
        depth >= top && depth <= n.depth as u64,
        "bad position depth"
    );
    let consumed = (depth - top) as usize;
    let new_pre = (depth / W) * W;
    if new_pre > pctx.pre_depth {
        let upto = (new_pre - top) as usize;
        let mut bits = pctx.tail.clone();
        bits.append(&n.edge.slice(0..upto));
        let h = hasher.combine(
            pctx.pre_hash,
            hasher.hash_bits(bits.as_slice()),
            bits.len() as u64,
        );
        NodeCtx {
            pre_depth: new_pre,
            pre_hash: h,
            tail: n.edge.slice(upto..consumed).to_bitstr(),
        }
    } else {
        let mut tail = pctx.tail.clone();
        tail.append(&n.edge.slice(0..consumed));
        NodeCtx {
            pre_depth: pctx.pre_depth,
            pre_hash: pctx.pre_hash,
            tail,
        }
    }
}

/// A matched position in query-trie coordinates.
pub(crate) type QtPos = (u32, u64); // (qt node below, global depth)

/// Where pieces end: per query-trie node id, the depths of the cut
/// positions on the edge into that node. Dense, so a lookup is an index;
/// a node past the end has no cuts.
pub(crate) type CutTable = [Vec<u64>];

/// Build the query piece rooted at `from`, cut at every position in `cuts`
/// strictly below the root.
pub(crate) fn make_piece(
    qt: &Trie,
    ctxs: &[NodeCtx],
    hasher: &bitstr::hash::PolyHasher,
    (root_below, root_depth): QtPos,
    cuts: &CutTable,
) -> QueryPiece {
    let mut piece = Trie::new();
    let mut tags: Vec<u32> = vec![0];
    let ctx = ctx_at(qt, ctxs, hasher, NodeId(root_below), root_depth);
    tags[0] = root_below;

    // first cut strictly inside (top, bottom] on the edge into `v`
    let first_cut = |v: u32, top: u64, bottom: u64| -> Option<u64> {
        cuts.get(v as usize)?
            .iter()
            .copied()
            .filter(|d| *d > top && *d <= bottom)
            .min()
    };

    // copy the subtree below a qt node into the piece
    fn copy_sub(
        qt: &Trie,
        piece: &mut Trie,
        tags: &mut Vec<u32>,
        qnode: NodeId,
        pnode: NodeId,
        first_cut: &dyn Fn(u32, u64, u64) -> Option<u64>,
    ) {
        for c in qt.node(qnode).children.iter().flatten() {
            let cn = qt.node(*c);
            let top = cn.depth as u64 - cn.edge.len() as u64;
            let bottom = cn.depth as u64;
            match first_cut(c.0, top, bottom) {
                Some(d) if d < bottom => {
                    // truncated leaf ending at the cut
                    let part = cn.edge.slice(0..(d - top) as usize).to_bitstr();
                    let id = piece.attach_child(pnode, part, None);
                    push_tag(tags, id, c.0);
                }
                Some(_) => {
                    // cut exactly at the node: copy the edge (and the key
                    // that ends there), stop there
                    let id = piece.attach_child(pnode, cn.edge.clone(), cn.value);
                    push_tag(tags, id, c.0);
                }
                None => {
                    let id = piece.attach_child(pnode, cn.edge.clone(), cn.value);
                    push_tag(tags, id, c.0);
                    copy_sub(qt, piece, tags, *c, id, first_cut);
                }
            }
        }
    }

    let below = NodeId(root_below);
    let bn = qt.node(below);
    if root_depth == bn.depth as u64 {
        // piece root is the qt node itself
        if let Some(v) = bn.value {
            piece.set_value(NodeId::ROOT, v);
        }
        copy_sub(qt, &mut piece, &mut tags, below, NodeId::ROOT, &first_cut);
    } else {
        // piece root is mid-edge: one child edge = the remainder
        let bottom = bn.depth as u64;
        match first_cut(root_below, root_depth, bottom) {
            Some(d) if d < bottom => {
                let part = bn
                    .edge
                    .slice(
                        (root_depth - (bottom - bn.edge.len() as u64)) as usize
                            ..(d - (bottom - bn.edge.len() as u64)) as usize,
                    )
                    .to_bitstr();
                let id = piece.attach_child(NodeId::ROOT, part, None);
                push_tag(&mut tags, id, root_below);
            }
            cut => {
                let start = (root_depth - (bottom - bn.edge.len() as u64)) as usize;
                let part = bn.edge.slice(start..bn.edge.len()).to_bitstr();
                let id = piece.attach_child(NodeId::ROOT, part, bn.value);
                push_tag(&mut tags, id, root_below);
                if cut.is_none() {
                    copy_sub(qt, &mut piece, &mut tags, below, id, &first_cut);
                }
            }
        }
    }

    QueryPiece {
        trie: piece,
        tags,
        root_depth,
        root_pre_hash: ctx.pre_hash,
        root_rem: ctx.tail,
    }
}

fn push_tag(tags: &mut Vec<u32>, id: NodeId, tag: u32) {
    while tags.len() <= id.idx() {
        tags.push(u32::MAX);
    }
    tags[id.idx()] = tag;
}

impl PimTrie {
    /// Match a batch of strings against the data trie. The result drives
    /// every public operation. Fails only when fault recovery gives up
    /// (never on a clean simulator). Paper: §4.3 (the whole pipeline).
    pub fn match_batch(&mut self, batch: &[BitStr]) -> Result<MatchedTrie, PimTrieError> {
        self.match_keys(batch, false)
    }

    /// [`Self::match_batch`]; with `values`, every pushed `MatchBlock`
    /// also asks for the values at the key ends its block owns, and the
    /// host reads its pulled blocks the same way, into
    /// [`MatchedTrie::answers`] (point lookups).
    pub(crate) fn match_keys(
        &mut self,
        batch: &[BitStr],
        values: bool,
    ) -> Result<MatchedTrie, PimTrieError> {
        let qt = QueryTrie::build(batch);
        let mut stats = MatchStats::default();
        let bound = qt.trie.id_bound();
        if batch.is_empty() {
            return Ok(MatchedTrie {
                qt,
                depth_of: vec![0; bound],
                anchor_of: vec![None; bound],
                flagged: vec![false; bound],
                stats,
                answers: Vec::new(),
            });
        }
        let ctxs = node_ctxs(&qt.trie, &self.hasher);

        let p = self.sys.p();
        // Pieces end at matched positions: every accepted match is appended
        // to the cut table as it is found, and the meta round and block
        // matching cut by it.
        let mut found = Found {
            seen: BTreeSet::new(),
            cuts: vec![Vec::new(); bound],
            matches: Vec::new(),
        };

        // ---- Phase 1a: the master table (Algorithm 4), on the host ------
        // Per query-trie edge, the deepest meta-block root on it: that
        // meta-block describes the deepest block root below it. The empty
        // string is the root block's root and the root meta-block's.
        self.t_phase("master-match");
        let mut work = 0u64;
        let origin = (0, self.hasher.empty(), &BitStr::new());
        let tag = |id: NodeId| id.0;
        let index = self.master.index();
        let roots = hash_match_trie(&self.hasher, &qt.trie, tag, origin, index, &mut work);
        self.sys.metrics_mut().charge_cpu(work);
        let roots = roots
            .into_iter()
            .map(|m| (m.qt_below, m.depth, m.target.block, m.target.meta));
        let mut targets: Vec<(MetaRef, QtPos)> = Vec::new();
        let root = (NodeId::ROOT.0, 0, self.root_block, self.root_meta);
        for (qt_below, depth, block, meta) in std::iter::once(root).chain(roots) {
            let m = RootMatch {
                qt_below,
                depth,
                block,
            };
            if found.accept(m) {
                targets.push((meta, (qt_below, depth)));
            }
        }

        // ---- Phase 1b: one meta round (Algorithm 5) ---------------------
        self.match_metas(&qt.trie, &ctxs, targets, &mut found, &mut stats)?;
        let Found { cuts, matches, .. } = found;

        // ---- Phase 2: block matching (Algorithm 2) --------------------
        self.t_phase("block-match");
        // Group pieces per target block: contention-based push-pull (the
        // Pull method of §3.3). A block whose aimed pieces together exceed
        // its own O(K_B) size is fetched once to the CPU, and all of its
        // pieces are matched there — this is what keeps worst-case skew
        // (every query down one path) off any single module.
        let mut groups: BTreeMap<BlockRef, Vec<QueryPiece>> = BTreeMap::new();
        for m in &matches {
            let piece = make_piece(&qt.trie, &ctxs, &self.hasher, (m.qt_below, m.depth), &cuts);
            groups.entry(m.block).or_default().push(piece);
        }
        // pulls and pushes share one round, as in the meta round
        let mut out = Scatter::new(p);
        let pull_threshold = self.cfg.k_b.max(self.cfg.push_threshold);
        for (block, pieces) in groups {
            let total: u64 = pieces.iter().map(|pc| pc.size_words()).sum();
            // K_B bounds a block's size, so demand past it (or past the
            // push threshold, if larger) costs more than pulling the block
            if total <= pull_threshold {
                for piece in pieces {
                    stats.pushes += 1;
                    let tag = BlockAsk::Push(block, piece.tags.clone());
                    let req = Req::MatchBlock {
                        slot: block.slot,
                        piece,
                        values,
                    };
                    out.push(block.module as usize, tag, req);
                }
            } else {
                stats.pulls += 1;
                let req = Req::FetchBlock { slot: block.slot };
                out.push(block.module as usize, BlockAsk::Pull(block, pieces), req);
            }
        }
        let mut pulled = Vec::new();
        let mut pushed = Vec::new();
        if !out.is_empty() {
            for (_, ask, resp) in self.rounds("match.block", out)? {
                match (ask, resp) {
                    (BlockAsk::Pull(block, pieces), Resp::BlockData(bd)) => {
                        pulled.push((block, pieces, bd));
                    }
                    (
                        BlockAsk::Push(block, tags),
                        Resp::BlockResults {
                            results,
                            collision,
                            values: found,
                        },
                    ) if found.is_some() == values => {
                        pushed.push((block, tags, results, collision, found));
                    }
                    _ => return Err(unexpected("match.block")),
                }
            }
        }
        // results carry their block so anchors resolve directly
        let mut results: Vec<(BlockRef, BlockNodeResult)> = Vec::new();
        let mut flagged = vec![false; bound];
        let mut answers: Vec<Answer> = if values {
            vec![None; bound]
        } else {
            Vec::new()
        };
        // pulled blocks first, then pushed pieces in push order, so the
        // results do not depend on how the round interleaved them
        for (bref, pieces, bd) in pulled {
            let block = DataBlock {
                trie: bd.trie.0,
                root_depth: bd.root_depth,
                root_hash: bd.root_hash,
                s_last: bd.s_last.0,
                pre_hash: bd.pre_hash,
                rem: bd.rem.0,
                parent: bd.parent,
                mirrors: bd.mirrors.iter().map(|(n, r)| (NodeId(*n), *r)).collect(),
                meta: bd.meta,
            };
            for piece in &pieces {
                self.sys
                    .metrics_mut()
                    .charge_cpu(block.weight() + piece.size_words());
                if block_root_collision(&block, piece) {
                    stats.collisions += 1;
                    flag_tags(&mut flagged, &piece.tags);
                    continue;
                }
                let mut found = Vec::new();
                let rs = match_block_local(&block, piece, values.then_some(&mut found));
                if values {
                    note_answers(&mut answers, &qt.trie, bref, &rs, &found)?;
                }
                results.extend(rs.into_iter().map(|r| (bref, r)));
            }
        }
        for (block, tags, rs, collision, found) in pushed {
            if collision {
                stats.collisions += 1;
                flag_tags(&mut flagged, &tags);
            }
            if let Some(found) = found {
                note_answers(&mut answers, &qt.trie, block, &rs, &found)?;
            }
            results.extend(rs.into_iter().map(|r| (block, r)));
        }

        // ---- Assemble -------------------------------------------------
        // Deepest result per qt node, anchored in its block.
        let mut best: BTreeMap<u32, (u64, Anchor)> = BTreeMap::new();
        // at-mirror stops to adjudicate after depths are known
        let mut mirror_stops: Vec<(u32, u64)> = Vec::new();
        for (block, r) in &results {
            if r.tag == u32::MAX {
                continue;
            }
            if r.at_mirror {
                mirror_stops.push((r.tag, r.depth));
            }
            let anchor = match r.redirect {
                Some(child) => Anchor {
                    block: child,
                    node: NodeId::ROOT.0,
                    off: 0,
                },
                None => Anchor {
                    block: *block,
                    node: r.anchor_node,
                    off: r.anchor_off,
                },
            };
            // A position on a block boundary is reported twice: by the
            // parent piece (anchored at its mirror leaf) and by the child
            // piece (anchored at the child's root). The child's root is the
            // canonical location — values live there — so ties prefer it.
            let is_root_anchor =
                (r.anchor_node == NodeId::ROOT.0 && r.anchor_off == 0) || r.redirect.is_some();
            best.entry(r.tag)
                .and_modify(|e| {
                    let e_root = e.1.node == NodeId::ROOT.0 && e.1.off == 0;
                    if r.depth > e.0 || (r.depth == e.0 && is_root_anchor && !e_root) {
                        *e = (r.depth, anchor);
                    }
                })
                .or_insert((r.depth, anchor));
        }
        // Propagate depths, anchors and flags down the query trie.
        let mut depth_of = vec![0u64; bound];
        let mut anchor_of: Vec<Option<Anchor>> = vec![None; bound];
        let mut stack = vec![NodeId::ROOT];
        while let Some(id) = stack.pop() {
            let (pd, pa, pf) = qt
                .trie
                .node(id)
                .parent
                .map(|p| (depth_of[p.idx()], anchor_of[p.idx()], flagged[p.idx()]))
                .unwrap_or((0, None, false));
            match best.get(&id.0) {
                Some((d, a)) if *d >= pd => {
                    depth_of[id.idx()] = *d;
                    anchor_of[id.idx()] = Some(*a);
                }
                _ => {
                    depth_of[id.idx()] = pd;
                    anchor_of[id.idx()] = pa;
                }
            }
            flagged[id.idx()] |= pf;
            for c in qt.trie.node(id).children.iter().flatten() {
                stack.push(*c);
            }
        }
        // Adjudicate at-mirror stops (§4.4.3): a walk that parks at a
        // mirror leaf with query bits left is *benign* when a deeper piece
        // covers the continuation (the per-edge deepest-match rule skips
        // the intermediate non-critical blocks on purpose), or when the
        // child block itself matched with zero extension. Only an
        // uncovered stop indicates a hidden collision and forces a redo.
        if !mirror_stops.is_empty() {
            let mut reflag: Vec<u32> = Vec::new();
            for (tag, d) in mirror_stops {
                let covered_deeper = depth_of[tag as usize] > d;
                let matched_here = cuts[tag as usize].iter().any(|x| *x >= d);
                if !covered_deeper && !matched_here {
                    reflag.push(tag);
                }
            }
            if !reflag.is_empty() {
                for tag in reflag {
                    flagged[tag as usize] = true;
                }
                // re-propagate flags downward
                let mut stack = vec![NodeId::ROOT];
                while let Some(id) = stack.pop() {
                    if let Some(p) = qt.trie.node(id).parent {
                        flagged[id.idx()] |= flagged[p.idx()];
                    }
                    for c in qt.trie.node(id).children.iter().flatten() {
                        stack.push(*c);
                    }
                }
            }
        }

        self.last_match = stats;
        Ok(MatchedTrie {
            qt,
            depth_of,
            anchor_of,
            flagged,
            stats,
            answers,
        })
    }
}

fn flag_tags(flagged: &mut [bool], tags: &[u32]) {
    for &t in tags {
        if t != u32::MAX {
            flagged[t as usize] = true;
        }
    }
}

/// Record one block's answers for a point lookup: the block owns every
/// key end whose result reached its qt key node's full depth, consumed
/// and off a mirror leaf — `make_piece` gives exactly those piece nodes a
/// value, which is what the block judged by — and `found` lists the
/// values it stores, in the order of those results; an owned key end
/// missing there is not stored. The first block to own a key end keeps
/// it: a key anchored in another block (only a hash collision makes two
/// owners) falls back to `ReadKey`.
fn note_answers(
    answers: &mut [Answer],
    qt: &Trie,
    block: BlockRef,
    rs: &[BlockNodeResult],
    found: &[(u32, Value)],
) -> Result<(), PimTrieError> {
    let owned = |r: &&BlockNodeResult| {
        let id = NodeId(r.tag);
        r.redirect.is_none()
            && qt.is_live(id)
            && qt.node(id).value.is_some()
            && qt.node(id).depth as u64 == r.depth
    };
    let mut found = found.iter().peekable();
    for r in rs.iter().filter(owned) {
        let v = found.next_if(|(tag, _)| *tag == r.tag).map(|(_, v)| *v);
        match &mut answers[r.tag as usize] {
            slot @ None => *slot = Some((block, v)),
            Some((owner, value)) if *owner == block => *value = value.or(v),
            Some(_) => {}
        }
    }
    if found.next().is_some() {
        return Err(PimTrieError::Protocol(format!(
            "match.block: {block:?} sent a value for a key end it does not own"
        )));
    }
    Ok(())
}

/// The block-root matches of one batch, each once, and the cut table the
/// pieces built from them end at.
struct Found {
    seen: BTreeSet<(u32, u64, BlockRef)>,
    cuts: Vec<Vec<u64>>,
    matches: Vec<RootMatch>,
}

impl Found {
    /// Keep `m` unless it is known; true if it was new.
    fn accept(&mut self, m: RootMatch) -> bool {
        let new = self.seen.insert((m.qt_below, m.depth, m.block));
        if new {
            self.cuts[m.qt_below as usize].push(m.depth);
            self.matches.push(m);
        }
        new
    }
}

impl PimTrie {
    /// Phase 1b: match the pieces below each master-table match in its
    /// meta-block — on the host where the meta-block is resident, else in
    /// one `match.meta` round of pushes and pulls — and accept the block
    /// roots found. The pieces are dropped on return, before block
    /// matching builds its own.
    fn match_metas(
        &mut self,
        qt: &Trie,
        ctxs: &[NodeCtx],
        targets: Vec<(MetaRef, QtPos)>,
        found: &mut Found,
        stats: &mut MatchStats,
    ) -> Result<(), PimTrieError> {
        let p = self.sys.p();
        // hash comparisons at pivot positions — the paper's coarse filter
        self.t_phase("hash-probe");
        // BTreeMap: group iteration orders the push/pull messages, and
        // that order must repeat across runs for seeded fault schedules
        let mut groups: BTreeMap<MetaRef, Vec<QueryPiece>> = BTreeMap::new();
        for (target, pos) in targets {
            let piece = make_piece(qt, ctxs, &self.hasher, pos, &found.cuts);
            groups.entry(target).or_default().push(piece);
        }
        // A target resident on the host is matched there, no IO. A missing
        // one the resident set may take (`plan_fills`) is pulled — whatever
        // its pieces weigh — and the reply kept. The others follow the
        // push-pull decision (§3.3 / Algorithm 5) per *target*: if the
        // pieces aimed at one meta-block together outweigh the threshold —
        // either one big piece, or many small contending pieces — the
        // meta-block's O(log² P) entries are pulled once and every piece
        // is matched on the CPU.
        let (mut on_host, missing): (Vec<_>, Vec<_>) = groups
            .into_iter()
            .partition(|(target, _)| self.resident.get(*target).is_some());
        let fills = self.plan_fills(missing.iter().map(|(target, _)| *target));
        // pulls and pushes have no data dependency: one round
        let mut out = Scatter::new(p);
        for (target, pieces) in missing {
            let total: u64 = pieces.iter().map(|pc| pc.size_words()).sum();
            let fill = fills.contains(&target);
            if fill || total > self.cfg.push_threshold {
                stats.pulls += 1;
                let req = Req::FetchMeta { slot: target.slot };
                out.push(target.module as usize, Some((target, pieces, fill)), req);
            } else {
                for piece in pieces {
                    stats.pushes += 1;
                    let req = Req::MatchMeta {
                        slot: target.slot,
                        piece,
                    };
                    out.push(target.module as usize, None, req);
                }
            }
        }
        let mut pulled = Vec::new();
        let mut pushed = Vec::new();
        if !out.is_empty() {
            stats.descend_rounds += 1;
            for (_, pull, resp) in self.rounds("match.meta", out)? {
                match (pull, resp) {
                    (Some(pull), Resp::MetaSummary { entries }) => pulled.push((pull, entries)),
                    (None, Resp::Matches(ms)) => pushed.push(ms),
                    _ => return Err(unexpected("match.meta")),
                }
            }
        }
        // replies in a fixed order — pulled, resident, pushed — so the
        // matches (and every later message) do not depend on how the
        // round interleaved them
        let mut new_matches: Vec<RootMatch> = Vec::new();
        let mut work = 0u64;
        let budget = self.cfg.resident_meta_words();
        for ((target, pieces, fill), entries) in pulled {
            // the plan counts each copy at the `K_SMB`-entry bound, which
            // is not a bound (a meta-block indexes its children's roots
            // too): the budget is checked again on what actually came back
            if fill && self.resident.words() + entries.wire_words() <= budget {
                let words = self.resident.fill(target, entries, self.cfg.hash_width);
                let rs = self.sys.metrics_mut().resident_stats_mut();
                rs.fills += 1;
                rs.fill_words += words;
                on_host.push((target, pieces));
            } else {
                let index = index_entries(entries, self.cfg.hash_width);
                match_pieces(&self.hasher, &index, &pieces, &mut work, &mut new_matches);
            }
        }
        if !fills.is_empty() {
            self.note_resident_words();
        }
        for (target, pieces) in &on_host {
            let index = self.resident.get(*target).ok_or_else(|| {
                PimTrieError::Protocol(format!("match.meta: {target:?} is not resident"))
            })?;
            match_pieces(&self.hasher, index, pieces, &mut work, &mut new_matches);
        }
        let metrics = self.sys.metrics_mut();
        metrics.resident_stats_mut().host_matches += on_host.len() as u64;
        if work > 0 {
            metrics.charge_cpu(work);
        }
        // a child meta-block's root found here is a block root like any
        // other: the master table already sent its own pieces
        for m in new_matches.into_iter().chain(pushed.into_iter().flatten()) {
            found.accept(m);
        }
        Ok(())
    }

    /// The missing targets of a meta round the resident set takes,
    /// shallowest root first, while the copies held and taken fit the word
    /// budget at the `K_SMB`-entry bound each. A target refused here is
    /// refused again next batch unless the tree or the held set changed,
    /// so a repeated batch pulls nothing.
    fn plan_fills(&self, missing: impl Iterator<Item = MetaRef>) -> BTreeSet<MetaRef> {
        let per = self.cfg.k_smb as u64 * ENTRY_WORDS;
        let room = (self.cfg.resident_meta_words() / per) as usize;
        let mut order: Vec<(u64, MetaRef)> = missing
            .map(|t| (self.master.get(t).map_or(u64::MAX, |e| e.depth), t))
            .collect();
        order.sort_unstable();
        order
            .into_iter()
            .take(room.saturating_sub(self.resident.len()))
            .map(|(_, t)| t)
            .collect()
    }
}

/// HashMatching of the pieces aimed at one meta-block whose entries the
/// host holds (the pull arm of Algorithm 5): the same kernel, `S_rem` /
/// `S_last` verification and depth checks a module runs on a pushed piece.
fn match_pieces(
    hasher: &bitstr::hash::PolyHasher,
    index: &MetaIndex,
    pieces: &[QueryPiece],
    work: &mut u64,
    out: &mut Vec<RootMatch>,
) {
    for piece in pieces {
        out.extend(
            hash_match_piece(hasher, piece, index, work)
                .into_iter()
                .map(|m| RootMatch {
                    qt_below: m.qt_below,
                    depth: m.depth,
                    block: m.target,
                }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitstr::hash::{HashVal, PolyHasher};

    fn b(s: &str) -> BitStr {
        BitStr::from_bin_str(s)
    }

    fn qt_of(keys: &[&str]) -> QueryTrie {
        let ks: Vec<BitStr> = keys.iter().map(|s| b(s)).collect();
        QueryTrie::build(&ks)
    }

    #[test]
    fn node_ctxs_reconstruct_pivot_hashes() {
        let hasher = PolyHasher::with_seed(3);
        // keys crossing several word boundaries
        let long: String = "10".repeat(100);
        let qt = qt_of(&[&long, "1011", "00"]);
        let ctxs = node_ctxs(&qt.trie, &hasher);
        for id in qt.trie.node_ids() {
            let ctx = &ctxs[id.idx()];
            let s = qt.trie.node_string(id);
            let depth = s.len() as u64;
            assert_eq!(ctx.pre_depth, depth / W * W, "{id:?}");
            assert_eq!(
                ctx.pre_hash,
                hasher.hash_bits(s.slice(0..ctx.pre_depth as usize)),
                "{id:?} pre hash"
            );
            assert_eq!(
                ctx.tail,
                s.slice(ctx.pre_depth as usize..s.len()).to_bitstr(),
                "{id:?} tail"
            );
        }
    }

    #[test]
    fn ctx_at_arbitrary_positions() {
        let hasher = PolyHasher::with_seed(5);
        let long: String = "110".repeat(60);
        let qt = qt_of(&[&long, "111"]);
        let ctxs = node_ctxs(&qt.trie, &hasher);
        // probe positions along every edge
        for id in qt.trie.node_ids() {
            let n = qt.trie.node(id);
            let top = n.depth as usize - n.edge.len();
            for d in top..=n.depth as usize {
                if d == 0 {
                    continue;
                }
                let ctx = ctx_at(&qt.trie, &ctxs, &hasher, id, d as u64);
                let s = qt.trie.node_string(id);
                assert_eq!(ctx.pre_depth, d as u64 / W * W, "pos ({id:?},{d})");
                assert_eq!(
                    ctx.pre_hash,
                    hasher.hash_bits(s.slice(0..ctx.pre_depth as usize)),
                    "pos ({id:?},{d}) hash"
                );
                assert_eq!(
                    ctx.tail,
                    s.slice(ctx.pre_depth as usize..d).to_bitstr(),
                    "pos ({id:?},{d}) tail"
                );
            }
        }
    }

    #[test]
    fn a_block_owns_the_key_ends_its_walk_consumes_off_a_mirror() {
        let mut trie = Trie::new();
        trie.insert(&b("0101"), 5);
        trie.insert(&b("0110"), 6);
        trie.insert(&b("11"), crate::module::MIRROR_VALUE);
        let leaf = trie
            .node_ids()
            .find(|id| trie.node_string(*id) == b("11"))
            .unwrap();
        let bref = BlockRef { module: 0, slot: 0 };
        let block = DataBlock {
            trie,
            root_depth: 0,
            root_hash: HashVal(0),
            s_last: BitStr::new(),
            pre_hash: HashVal(0),
            rem: BitStr::new(),
            parent: None,
            mirrors: BTreeMap::from([(leaf, BlockRef { module: 0, slot: 1 })]),
            meta: None,
        };
        // stored; a branch node; mid-edge; past a leaf; at the mirror
        // leaf; mid-edge above it
        let qt = qt_of(&["0101", "01", "011", "0111", "11", "1"]);
        let hasher = PolyHasher::with_seed(1);
        let ctxs = node_ctxs(&qt.trie, &hasher);
        let piece = make_piece(&qt.trie, &ctxs, &hasher, (NodeId::ROOT.0, 0), &[]);
        let mut found = Vec::new();
        let rs = match_block_local(&block, &piece, Some(&mut found));
        let mut answers: Vec<Answer> = vec![None; qt.trie.id_bound()];
        note_answers(&mut answers, &qt.trie, bref, &rs, &found).unwrap();
        let got: Vec<Answer> = (0..6).map(|i| answers[qt.key_node[i].idx()]).collect();
        let owned = |v| Some((bref, v));
        assert_eq!(
            got,
            [
                owned(Some(5)),
                owned(None),
                owned(None),
                None,
                None,
                owned(None)
            ]
        );
        // a value for a key end the block did not reach is a protocol error
        let stray = [(qt.key_node[3].0, 7)];
        assert!(note_answers(&mut answers, &qt.trie, bref, &rs, &stray).is_err());
    }

    #[test]
    fn make_piece_whole_trie() {
        let hasher = PolyHasher::with_seed(7);
        let qt = qt_of(&["00001001", "101001", "101011"]);
        let ctxs = node_ctxs(&qt.trie, &hasher);
        let piece = make_piece(&qt.trie, &ctxs, &hasher, (NodeId::ROOT.0, 0), &[]);
        assert_eq!(piece.root_depth, 0);
        assert_eq!(piece.trie.n_nodes(), qt.trie.n_nodes());
        // tags are a bijection onto qt nodes
        for id in piece.trie.node_ids() {
            let tag = piece.tags[id.idx()];
            assert_eq!(
                qt.trie.node(NodeId(tag)).depth,
                piece.trie.node(id).depth,
                "tag depth mismatch"
            );
        }
    }

    #[test]
    fn make_piece_cut_truncates_edges() {
        let hasher = PolyHasher::with_seed(9);
        let qt = qt_of(&["111111", "1110"]);
        let ctxs = node_ctxs(&qt.trie, &hasher);
        // cut the deep edge at depth 5
        let deep = qt.key_node[0]; // node for "111111"
        let mut cuts = vec![Vec::new(); qt.trie.id_bound()];
        cuts[deep.idx()].push(5);
        let piece = make_piece(&qt.trie, &ctxs, &hasher, (NodeId::ROOT.0, 0), &cuts);
        // the piece must contain a leaf at depth 5 tagged with `deep`
        let found = piece
            .trie
            .node_ids()
            .any(|id| piece.trie.node(id).depth == 5 && piece.tags[id.idx()] == deep.0);
        assert!(found, "truncated leaf missing:\n{:?}", piece.trie);
        // and no piece node deeper than 5 on that path
        for id in piece.trie.node_ids() {
            if piece.tags[id.idx()] == deep.0 {
                assert!(piece.trie.node(id).depth <= 5);
            }
        }
    }

    #[test]
    fn make_piece_mid_edge_root() {
        let hasher = PolyHasher::with_seed(11);
        let qt = qt_of(&["11111111", "0"]);
        let ctxs = node_ctxs(&qt.trie, &hasher);
        let deep = qt.key_node[0];
        // root the piece at depth 3, inside the edge into `deep`
        let piece = make_piece(&qt.trie, &ctxs, &hasher, (deep.0, 3), &[]);
        assert_eq!(piece.root_depth, 3);
        assert_eq!(piece.root_rem, b("111"));
        // remaining 5 bits hang below the piece root
        let child = piece.trie.node(NodeId::ROOT).children[1].expect("child");
        assert_eq!(piece.trie.node(child).edge, b("11111"));
        assert_eq!(piece.tags[child.idx()], deep.0);
    }

    #[test]
    fn make_piece_root_at_node_with_subtree() {
        let hasher = PolyHasher::with_seed(13);
        let qt = qt_of(&["1010", "1011", "10"]);
        let ctxs = node_ctxs(&qt.trie, &hasher);
        let mid = qt.key_node[2]; // node for "10"
        let piece = make_piece(&qt.trie, &ctxs, &hasher, (mid.0, 2), &[]);
        assert_eq!(piece.root_depth, 2);
        // subtree below "10": "10"→"1"→{"0","1"}
        assert_eq!(piece.trie.n_nodes(), 4);
    }
}
