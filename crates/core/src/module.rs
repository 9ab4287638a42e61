//! Module-local state and the PIM-side programs.
//!
//! Each module's PIM memory holds two kinds of objects (paper §4.2/§4.4):
//!
//! * [`DataBlock`] — a piece of the data trie (`O(K_B)` words): a trie whose
//!   root is the block root (empty edge), with *mirror leaves* standing in
//!   for child-block roots;
//! * [`MetaBlock`] — a piece of the meta-tree: meta-nodes for the block
//!   roots it covers, a two-layer [`HashIndex`] over them (plus the roots of
//!   its child meta-blocks), and links forming the meta-block tree. Meta
//!   links follow the block tree: a meta node hangs under the node of its
//!   block's parent block. There is one meta-block tree; the host holds
//!   the table of its meta-block roots (`crate::resident::MasterTable`),
//!   so no module does.
//!
//! [`handle`] is the module program: one BSP round delivers a vector of
//! [`Req`] messages and returns one [`Resp`] per request, metering PIM work.

use crate::hvm::{hash_match_piece, HashIndex, IndexEntry, PieceMatch, QueryPiece};
use crate::refs::{BlockRef, MetaRef, Slab, SlotTaken, TrieMsg};
use bitstr::hash::{HashVal, HashWidth};
use bitstr::BitStr;
use pim_sim::PimCtx;
use std::collections::BTreeMap;
use trie_core::{NodeId, Trie, TriePos, Value};

/// Sentinel value marking a mirror leaf inside a block trie: it pins the
/// leaf against path compression and is filtered from user-visible values.
pub const MIRROR_VALUE: Value = u64::MAX;

/// A stored piece of the data trie.
pub struct DataBlock {
    /// The block trie; `NodeId::ROOT` is the block root (empty edge).
    pub trie: Trie,
    /// Global bit-depth of the block root.
    pub root_depth: u64,
    /// Node hash of the block root's full string.
    pub root_hash: HashVal,
    /// Last `min(w, depth)` bits of the root string (§4.4.3 verification).
    pub s_last: BitStr,
    /// Hash of the root string's longest w-aligned prefix.
    pub pre_hash: HashVal,
    /// Root string bits after that prefix (< w bits).
    pub rem: BitStr,
    /// Parent block (None for the trie root block).
    pub parent: Option<BlockRef>,
    /// Mirror leaves: block node id → child block.
    pub mirrors: BTreeMap<NodeId, BlockRef>,
    /// Where this block's meta node lives: (meta-block, node slot). Set
    /// by `PutBlock` and rewired by `SetBlockMeta` when the node moves.
    pub meta: Option<(MetaRef, u32)>,
}

impl DataBlock {
    /// Block weight in words.
    pub fn weight(&self) -> u64 {
        self.trie.size_words() as u64
    }

    /// Number of real keys (mirrors excluded).
    pub fn n_real_keys(&self) -> usize {
        self.trie.n_keys() - self.mirrors.len()
    }
}

/// Matching target stored in a meta-block's index.
#[derive(Clone, Copy, Debug)]
pub enum LocalTarget {
    /// One of this meta-block's own meta nodes.
    Own(u32),
    /// The root of the `i`-th child meta-block.
    Child(u32),
}

/// Payload of one meta-tree node (one per covered block root).
#[derive(Clone, Debug)]
pub struct MetaNode {
    /// The block this node describes.
    pub block: BlockRef,
    /// This node's entry slot in the meta-block's index.
    pub entry_slot: u32,
    /// Parent meta node within this meta-block (None for the root).
    pub parent: Option<u32>,
    /// Child meta nodes within this meta-block.
    pub children: Vec<u32>,
    /// Root string depth.
    pub depth: u64,
    /// Full node hash of the root string.
    pub hash: HashVal,
}

/// A child meta-block hanging below this one in the meta-block tree.
#[derive(Clone, Debug)]
pub struct MetaChildInfo {
    /// The child meta-block.
    pub mref: MetaRef,
    /// Own meta node whose block subtree contains the child's coverage.
    pub under_node: u32,
    /// Entry slot for the child's root in this meta-block's index.
    pub entry_slot: u32,
    /// The child's root block.
    pub root_block: BlockRef,
}

/// A piece of the meta-tree stored on one module.
pub struct MetaBlock {
    /// Two-layer index over own nodes and child meta roots.
    pub index: HashIndex<LocalTarget>,
    /// Meta nodes (one per covered block root).
    pub nodes: Slab<MetaNode>,
    /// Slot of this meta-block's root node.
    pub root_node: u32,
    /// Parent meta-block in the meta-block tree.
    pub parent: Option<MetaRef>,
    /// Child meta-blocks.
    pub children: Vec<MetaChildInfo>,
}

impl MetaBlock {
    /// Number of meta nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Space in words.
    pub fn space_words(&self) -> u64 {
        self.index.space_words() + self.nodes.len() as u64 * 4
    }
}

/// Blocks heavier than `OVERSIZE_FACTOR · K_B` words are re-cut.
const OVERSIZE_FACTOR: u64 = 2;

/// Non-root leaf blocks lighter than `K_B / UNDERSIZE_DIVISOR` words (or
/// holding no key) merge into their parent.
const UNDERSIZE_DIVISOR: u64 = 4;

/// The size band structural maintenance keeps data blocks in. Each
/// module holds it, so a write's reply can carry the image of a block the
/// write pushed out of the band: the maintenance stage that re-cuts or
/// merges the block then needs no round to fetch it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeBand {
    /// the target block weight `K_B`, in words
    pub k_b: u64,
}

impl SizeBand {
    /// The band of blocks of target weight `k_b` words.
    pub fn new(k_b: u64) -> Self {
        SizeBand { k_b }
    }

    /// A block of `weight` words is re-cut.
    pub fn oversized(&self, weight: u64) -> bool {
        weight > OVERSIZE_FACTOR * self.k_b
    }

    /// `b` merges into its parent: a leaf block other than the root that
    /// holds no key or is lighter than `K_B / 4` words.
    pub fn merge_candidate(&self, b: &DataBlock) -> bool {
        b.parent.is_some()
            && b.mirrors.is_empty()
            && (b.n_real_keys() == 0 || b.weight() < self.k_b / UNDERSIZE_DIVISOR)
    }
}

/// One module's PIM memory.
pub struct ModuleState {
    /// Data-trie blocks.
    pub blocks: Slab<DataBlock>,
    /// Meta-tree pieces.
    pub metas: Slab<MetaBlock>,
    /// digest width shared by all indexes on this module
    pub width: HashWidth,
    /// the block size band (from the config; survives `ResetModule`)
    pub band: SizeBand,
    /// Set by the host's crash callback when this module's memory was
    /// wiped; until cleared by `Req::ResetModule` every sealed request
    /// is answered with `Resp::Rebooted` instead of touching (dangling)
    /// slots.
    pub crashed: bool,
    /// At-most-once reply cache of the sealed-wire protocol: replies of
    /// the current round sequence keyed by `(seq, idx)`, so a retried
    /// request is answered from cache instead of being re-executed.
    pub reply_cache: BTreeMap<(u64, u32), Resp>,
    /// Round sequence the reply cache belongs to.
    pub cache_seq: u64,
}

impl ModuleState {
    /// Fresh empty module.
    pub fn new(width: HashWidth, band: SizeBand) -> Self {
        ModuleState {
            blocks: Slab::new(),
            metas: Slab::new(),
            width,
            band,
            crashed: false,
            reply_cache: BTreeMap::new(),
            cache_seq: 0,
        }
    }

    /// Words of PIM memory in use (space experiments).
    pub fn space_words(&self) -> u64 {
        let blocks: u64 = self.blocks.iter().map(|(_, b)| b.weight()).sum();
        let metas: u64 = self.metas.iter().map(|(_, m)| m.space_words()).sum();
        blocks + metas
    }
}

/// A verified root match, in query-trie coordinates.
#[derive(Clone, Copy, Debug)]
pub struct RootMatch {
    /// Query-trie node below (or at) the matched position.
    pub qt_below: u32,
    /// Global bit-depth of the matched root.
    pub depth: u64,
    /// The matched block.
    pub block: BlockRef,
}

/// Result of bit-exact in-block matching for one query-piece node.
#[derive(Clone, Copy, Debug)]
pub struct BlockNodeResult {
    /// Query-trie node id.
    pub tag: u32,
    /// Matched depth of the path to this node (bits).
    pub depth: u64,
    /// Anchor: data node in the block whose edge holds the stop position.
    pub anchor_node: u32,
    /// Bits of the anchor node's edge above the stop position
    /// (`edge_off` semantics; `= edge.len()` means at the node itself).
    pub anchor_off: u32,
    /// The stop position *is* a mirror leaf and the query continues —
    /// a deeper block should have matched (collision indicator).
    pub at_mirror: bool,
    /// The stop position is exactly a mirror leaf: the canonical anchor is
    /// the child block's root instead.
    pub redirect: Option<BlockRef>,
}

/// Summary of one index entry, pulled to the CPU (the pull side of
/// push-pull; `O(1)` words each, `O(log² P)` per meta-block).
#[derive(Clone, Debug)]
pub struct EntrySummary {
    /// See [`IndexEntry`].
    pub depth: u64,
    /// See [`IndexEntry`].
    pub pre_hash: HashVal,
    /// See [`IndexEntry`].
    pub rem: BitStr,
    /// See [`IndexEntry`].
    pub s_last: BitStr,
    /// The block whose root the entry describes.
    pub target: BlockRef,
}

/// Requests the host can send to a module in one round.
#[derive(Clone)]
pub enum Req {
    /// Match a piece against one meta-block's index (push).
    MatchMeta {
        /// target meta-block slot
        slot: u32,
        /// query piece rooted at the matched position
        piece: QueryPiece,
    },
    /// Bit-exact match of a piece against a data block (push).
    MatchBlock {
        /// target block slot
        slot: u32,
        /// query piece rooted at the block root
        piece: QueryPiece,
        /// also list the values stored at the key ends the block owns
        /// (point lookups; see [`match_block_local`])
        values: bool,
    },
    /// Pull a meta-block's entries (and children) to the CPU.
    FetchMeta {
        /// meta-block slot
        slot: u32,
    },
    /// Pull a whole data block to the CPU.
    FetchBlock {
        /// block slot
        slot: u32,
    },
    /// Graft unmatched query subtrees at anchors inside one block (batch
    /// insert). Items must be sorted by (anchor node, offset) so the module
    /// can adjust offsets across successive edge splits.
    GraftMany {
        /// block slot
        slot: u32,
        /// grafts in ascending anchor order
        grafts: Vec<GraftMsg>,
    },
    /// Read the value stored at an exact node (point lookup).
    ReadKey {
        /// block slot
        slot: u32,
        /// candidate node
        node: u32,
        /// the key's global bit-depth (anchor validity check)
        depth: u64,
    },
    /// Delete keys at exact nodes of one block (batch delete), in order.
    DeleteKeys {
        /// block slot
        slot: u32,
        /// per key, the exact data node holding it
        nodes: Vec<u32>,
        /// per key, its global bit-depth; the node qualifies only if its
        /// own depth matches (depths survive sibling splices within a
        /// batch, unlike edge offsets)
        depths: Vec<u64>,
    },
    /// Inline an undersized child block's content at its mirror leaf.
    MergeChild {
        /// block slot
        slot: u32,
        /// the child block being dissolved
        child: BlockRef,
        /// the child's trie (root = the mirror position)
        subtree: TrieMsg,
    },
    /// Replace a block's trie and mirrors in place (repartition keeps the
    /// root piece at the same address).
    ReplaceBlock {
        /// block slot
        slot: u32,
        /// new trie
        trie: TrieMsg,
        /// new mirror list
        mirrors: Vec<(u32, BlockRef)>,
    },
    /// Remove one child meta-block from the children list.
    RemoveMetaChild {
        /// meta-block slot
        slot: u32,
        /// the child to detach
        mref: MetaRef,
    },
    /// Install a new data block (repartition / build) at a slot the host
    /// chose.
    PutBlock {
        /// free block slot
        slot: u32,
        /// the block (boxed: the largest payload would otherwise set the
        /// size of every request)
        msg: Box<PutBlockMsg>,
    },
    /// Install a new meta-block at a slot the host chose; its nodes take
    /// slots `0..n` in message order.
    PutMeta {
        /// free meta-block slot
        slot: u32,
        /// the meta-block
        msg: PutMetaMsg,
    },
    /// Replace an existing meta-block's content in place (rebuilds keep
    /// the split meta-block's address stable).
    ReplaceMeta {
        /// existing meta-block slot
        slot: u32,
        /// new content
        msg: PutMetaMsg,
    },
    /// Pull a meta-block's full structure (nodes, links, children) for a
    /// CPU-side rebuild.
    FetchMetaFull {
        /// meta-block slot
        slot: u32,
    },
    /// Remove a data block.
    DropBlock {
        /// block slot
        slot: u32,
    },
    /// Remove a meta-block.
    DropMeta {
        /// meta-block slot
        slot: u32,
    },
    /// Update a block's parent pointer.
    SetParent {
        /// block slot
        slot: u32,
        /// new parent
        parent: Option<BlockRef>,
    },
    /// Update a block's meta location.
    SetBlockMeta {
        /// block slot
        slot: u32,
        /// owning meta-block
        meta: MetaRef,
        /// node slot within it
        meta_slot: u32,
    },
    /// Insert meta nodes for new blocks under an existing meta node,
    /// preserving the block-tree shape: `parents[i]` is the index (into
    /// `nodes`) of node i's parent, or `None` to hang under `parent_node`.
    AddMetaNodes {
        /// meta-block slot
        slot: u32,
        /// meta node of the repartitioned block (default parent)
        parent_node: u32,
        /// new nodes' payloads
        nodes: Vec<NewMetaNode>,
        /// intra-batch parent links (index into `nodes`)
        parents: Vec<Option<u32>>,
        /// free node slots the host chose, one per node
        node_slots: Vec<u32>,
        /// the repartitioned block's old children whose mirrors moved into
        /// a new piece, each with that piece's node slot: the child's meta
        /// node — or the child meta-block it roots — re-hangs there
        relink: Vec<(BlockRef, u32)>,
    },
    /// Remove a meta node (block vanished). Children are re-parented to
    /// the removed node's parent.
    RemoveMetaNode {
        /// meta-block slot
        slot: u32,
        /// node to remove
        node: u32,
    },
    /// Update the meta-block's parent pointer.
    SetMetaParent {
        /// meta-block slot
        slot: u32,
        /// new parent
        parent: Option<MetaRef>,
    },
    /// Fetch a block's subtree below a position plus the child blocks
    /// hanging under it (SubtreeQuery assembly).
    FetchSubtree {
        /// block slot
        slot: u32,
        /// anchor node
        node: u32,
        /// anchor edge offset
        off: u32,
        /// also name the block's meta node, if the piece names a child
        /// block
        meta: bool,
    },
    /// List the blocks one meta-block describes below some child blocks
    /// of one of its blocks, and the child meta-blocks that describe
    /// more (SubtreeQuery assembly).
    ListBlocks {
        /// meta-block slot
        slot: u32,
        /// the meta node of the block whose child blocks `roots` are;
        /// `None` lists the whole meta-block below its root block
        under: Option<u32>,
        /// child blocks of `under`'s block (none when `under` is `None`)
        roots: Vec<BlockRef>,
    },
    /// Read a block root's identity for slow-path descent.
    DescendBlock {
        /// block slot
        slot: u32,
        /// query bits below the block root (at most the remaining key)
        bits: crate::refs::BitsMsg,
    },
    /// Wipe this module back to a fresh empty state and clear its crash
    /// flag (the first step of the host's rebuild-after-crash ladder).
    ResetModule,
}

/// What a request does to state the host may hold a copy of. The host's
/// only copies of module state are meta-blocks near the root of the
/// meta-block tree (`crate::resident`; the master table is the host's own),
/// kept coherent from this one answer, read where every request leaves
/// the host (`PimTrie::exchange`).
pub(crate) enum Touch {
    /// Rewrites what this meta-block's index entries are or resolve to.
    Meta(MetaRef),
    /// Wipes the module.
    Reset,
    /// Reads, writes a data block (the host copies none), fills a free
    /// slot (no copy names a free slot: the request that freed it dropped
    /// any copy), or rewires a field no copy holds (block parent / meta
    /// location, meta-block parent).
    NoCopy,
}

impl Req {
    /// Classify this request, sent to `module`. No wildcard arm: a new
    /// variant does not compile until it says what it touches.
    pub(crate) fn touches(&self, module: u32) -> Touch {
        match self {
            Req::AddMetaNodes { slot, .. }
            | Req::RemoveMetaNode { slot, .. }
            | Req::RemoveMetaChild { slot, .. }
            | Req::ReplaceMeta { slot, .. }
            | Req::DropMeta { slot } => Touch::Meta(MetaRef {
                module,
                slot: *slot,
            }),
            Req::ResetModule => Touch::Reset,
            Req::GraftMany { .. }
            | Req::DeleteKeys { .. }
            | Req::ReplaceBlock { .. }
            | Req::DropBlock { .. }
            | Req::MergeChild { .. }
            | Req::MatchMeta { .. }
            | Req::MatchBlock { .. }
            | Req::FetchMeta { .. }
            | Req::FetchBlock { .. }
            | Req::ReadKey { .. }
            | Req::FetchMetaFull { .. }
            | Req::FetchSubtree { .. }
            | Req::ListBlocks { .. }
            | Req::DescendBlock { .. }
            | Req::PutBlock { .. }
            | Req::PutMeta { .. }
            | Req::SetParent { .. }
            | Req::SetBlockMeta { .. }
            | Req::SetMetaParent { .. } => Touch::NoCopy,
        }
    }
}

/// One graft: an unmatched query subtree and where it attaches.
#[derive(Clone)]
pub struct GraftMsg {
    /// anchor node id
    pub anchor_node: u32,
    /// anchor edge offset (bits of the anchor node's edge above the
    /// attach position)
    pub anchor_off: u32,
    /// subtree to graft; its root is the anchor position (may carry a
    /// value = set-value at the anchor)
    pub subtree: TrieMsg,
}

/// New-block payload.
#[derive(Clone)]
pub struct PutBlockMsg {
    /// the block trie
    pub trie: TrieMsg,
    /// root depth in bits
    pub root_depth: u64,
    /// root string hash
    pub root_hash: HashVal,
    /// trailing bits of the root string
    pub s_last: crate::refs::BitsMsg,
    /// hash of the w-aligned prefix of the root string
    pub pre_hash: HashVal,
    /// root string bits after that prefix
    pub rem: crate::refs::BitsMsg,
    /// parent block
    pub parent: Option<BlockRef>,
    /// mirror map: node id → child block
    pub mirrors: Vec<(u32, BlockRef)>,
    /// the block's meta node: (meta-block, node slot)
    pub meta: Option<(MetaRef, u32)>,
}

/// New meta-block payload (built on the CPU during rebuilds).
#[derive(Clone)]
pub struct PutMetaMsg {
    /// nodes: (payload, parent index within this vec or existing-root
    /// marker)
    pub nodes: Vec<NewMetaNode>,
    /// index of the root node within `nodes`
    pub root_idx: u32,
    /// parent meta-block
    pub parent: Option<MetaRef>,
    /// children meta-blocks
    pub children: Vec<NewMetaChild>,
    /// parent links: for node i, Some(j) = nodes[j] is its parent
    pub parents: Vec<Option<u32>>,
}

/// Payload for one new meta node.
#[derive(Clone)]
pub struct NewMetaNode {
    /// the described block
    pub block: BlockRef,
    /// root string depth
    pub depth: u64,
    /// full node hash
    pub hash: HashVal,
    /// hash of the w-aligned prefix
    pub pre_hash: HashVal,
    /// sub-word suffix
    pub rem: crate::refs::BitsMsg,
    /// trailing w bits
    pub s_last: crate::refs::BitsMsg,
}

/// Payload for one meta-block-tree child registration.
#[derive(Clone)]
pub struct NewMetaChild {
    /// the child meta-block
    pub mref: MetaRef,
    /// own node slot it hangs under
    pub under_node: u32,
    /// the child's root block
    pub root_block: BlockRef,
    /// root string depth
    pub depth: u64,
    /// pre hash of the child root string
    pub pre_hash: HashVal,
    /// rem bits
    pub rem: crate::refs::BitsMsg,
    /// trailing bits
    pub s_last: crate::refs::BitsMsg,
}

/// Responses, one per request.
#[derive(Clone)]
pub enum Resp {
    /// Root matches from a meta-block match.
    Matches(Vec<RootMatch>),
    /// Per-node results of an in-block match.
    BlockResults {
        /// per piece-node outcomes
        results: Vec<BlockNodeResult>,
        /// the block root's identity failed verification (§4.4.3)
        collision: bool,
        /// when the request asked: `(tag, value)` of every key end the
        /// block owns and stores a value at; an owned key end missing
        /// here holds no value
        values: Option<Vec<(u32, Value)>>,
    },
    /// Pulled meta-block content.
    MetaSummary {
        /// entries (own nodes and children)
        entries: Vec<EntrySummary>,
    },
    /// Pulled block content.
    BlockData(BlockDataOut),
    /// Pulled full meta-block structure (CPU-side rebuilds).
    MetaFull(MetaFullOut),
    /// Structural-op acknowledgement with the block's new vitals.
    BlockVitals {
        /// weight in words
        weight: u64,
        /// real keys
        keys: u64,
        /// number of child blocks (mirrors)
        children: u64,
        /// change in real keys caused by this op
        keys_delta: i64,
        /// the op detected an inconsistency (hash collision) — redo
        collision: bool,
        /// the block's image, when the op left it out of its size band
        /// (see [`SizeBand`]): the input of the maintenance that follows
        /// (boxed: it would otherwise set the size of every reply)
        image: Option<Box<BlockDataOut>>,
    },
    /// A Put op filled the slot it was given.
    Placed {
        /// resulting object size (block weight / meta node count)
        count: u64,
    },
    /// Meta-block vitals after a meta op.
    MetaVitals {
        /// node count
        nodes: u64,
        /// the meta-block's parent (None = the tree's root meta-block)
        parent: Option<MetaRef>,
    },
    /// Subtree pieces for SubtreeQuery.
    Subtree {
        /// the block's subtrie below the anchor (keys relative to anchor)
        trie: TrieMsg,
        /// mirror leaves inside it: (node id in returned trie, child block)
        children: Vec<(u32, BlockRef)>,
        /// anchor's depth (bits)
        depth: u64,
        /// the block's meta node (meta-block, node slot), when the
        /// request asked and `children` is not empty
        meta: Option<(MetaRef, u32)>,
    },
    /// The blocks below a list's roots, listed from one meta-block.
    Listed {
        /// the blocks the meta-block describes below the roots
        blocks: Vec<BlockRef>,
        /// the child meta-blocks rooted at or below a root, with their
        /// root blocks
        metas: Vec<(MetaRef, BlockRef)>,
    },
    /// Slow-path descent step result.
    Descend(DescendOut),
    /// A point-lookup result.
    Value(Option<Value>),
    /// Generic OK.
    Ok,
    /// The sealed request failed its integrity check and was not
    /// executed; the host should retry it.
    CorruptReq,
    /// The sealed request — a meta-block pull, or a fill whose slot is
    /// still live — waits for an earlier request of its round on this
    /// module that has not run yet (it may free the slot or write the
    /// meta-block); nothing was done, and the host should retry it.
    Deferred,
    /// This module lost its memory in a crash and has not been reset yet;
    /// the host must abort the operation and rebuild
    /// ([`Req::ResetModule`]).
    Rebooted,
    /// A Put op named a slot that is already live; nothing was written
    /// (the host's allocator and this module's slab disagree).
    SlotTaken {
        /// the occupied slot
        slot: u32,
    },
    /// A read named a slot that holds nothing, or an index entry of the
    /// meta-block it read names a node slot that holds nothing; nothing
    /// was read.
    BadSlot {
        /// the empty slot
        slot: u32,
    },
}

/// One meta node with its stored metadata, as pulled for a rebuild.
#[derive(Clone)]
pub struct MetaFullNode {
    /// node slot within the meta-block
    pub slot: u32,
    /// the block it describes
    pub block: BlockRef,
    /// parent node slot
    pub parent: Option<u32>,
    /// root string depth
    pub depth: u64,
    /// full node hash
    pub hash: HashVal,
    /// pre hash
    pub pre_hash: HashVal,
    /// rem bits
    pub rem: BitStr,
    /// trailing bits
    pub s_last: BitStr,
}

/// Full meta-block structure.
#[derive(Clone)]
#[allow(dead_code)] // `parent` is part of the pulled wire contract
pub struct MetaFullOut {
    /// all nodes
    pub nodes: Vec<MetaFullNode>,
    /// root node slot
    pub root_node: u32,
    /// parent meta-block
    pub parent: Option<MetaRef>,
    /// child meta-blocks with full root metadata
    pub children: Vec<(MetaChildInfo, u64, HashVal, BitStr, BitStr)>,
}

/// `mb`'s full structure; a node or child whose index entry is missing
/// is a [`DanglingNode`] naming that entry slot.
fn meta_full(mb: &MetaBlock) -> Result<MetaFullOut, DanglingNode> {
    let entry = |slot: u32| mb.index.get(slot).ok_or(DanglingNode(slot));
    let nodes = mb
        .nodes
        .iter()
        .map(|(slot, n)| {
            let e = entry(n.entry_slot)?;
            Ok(MetaFullNode {
                slot,
                block: n.block,
                parent: n.parent,
                depth: n.depth,
                hash: n.hash,
                pre_hash: e.pre_hash,
                rem: e.rem.clone(),
                s_last: e.s_last.clone(),
            })
        })
        .collect::<Result<_, _>>()?;
    let children = mb
        .children
        .iter()
        .map(|c| {
            let e = entry(c.entry_slot)?;
            Ok((
                c.clone(),
                e.depth,
                e.pre_hash,
                e.rem.clone(),
                e.s_last.clone(),
            ))
        })
        .collect::<Result<_, _>>()?;
    Ok(MetaFullOut {
        nodes,
        root_node: mb.root_node,
        parent: mb.parent,
        children,
    })
}

/// Pulled block content.
#[derive(Clone)]
pub struct BlockDataOut {
    /// the block trie
    pub trie: TrieMsg,
    /// root depth
    pub root_depth: u64,
    /// root hash
    pub root_hash: HashVal,
    /// trailing bits
    pub s_last: crate::refs::BitsMsg,
    /// hash of the w-aligned prefix
    pub pre_hash: HashVal,
    /// bits after that prefix
    pub rem: crate::refs::BitsMsg,
    /// parent
    pub parent: Option<BlockRef>,
    /// mirrors
    pub mirrors: Vec<(u32, BlockRef)>,
    /// owning meta-block and node slot
    pub meta: Option<(MetaRef, u32)>,
}

/// One slow-path step: how far the bits matched inside this block and
/// which child block to continue in.
#[derive(Clone, Debug)]
pub struct DescendOut {
    /// bits consumed inside this block
    pub consumed: u64,
    /// continue here (match reached a mirror with bits remaining)
    pub next: Option<BlockRef>,
    /// anchor node at the stop position
    pub anchor_node: u32,
    /// anchor edge offset
    pub anchor_off: u32,
}

/// The module program: execute one request.
pub fn handle(
    ctx: &mut PimCtx<'_, ModuleState>,
    hasher: &bitstr::hash::PolyHasher,
    req: Req,
) -> Resp {
    let (resp, work) = execute(&mut *ctx.state, hasher, req);
    ctx.work(work.max(1));
    resp
}

/// Execute one request on `state`; returns the reply and the PIM work
/// done. A read of an empty slot answers `BadSlot` and reads nothing.
fn execute(state: &mut ModuleState, hasher: &bitstr::hash::PolyHasher, req: Req) -> (Resp, u64) {
    let mut work = 0u64;
    let resp = match req {
        Req::MatchMeta { slot, piece } => {
            let Some(mb) = state.metas.get(slot) else {
                return (Resp::BadSlot { slot }, work);
            };
            let ms = hash_match_piece(hasher, &piece, &mb.index, &mut work);
            match ms.iter().map(|m| meta_match(mb, m)).collect() {
                Ok(ms) => Resp::Matches(ms),
                Err(DanglingNode(slot)) => Resp::BadSlot { slot },
            }
        }
        Req::MatchBlock {
            slot,
            piece,
            values,
        } => {
            let Some(b) = state.blocks.get(slot) else {
                return (Resp::BadSlot { slot }, work);
            };
            work += piece.size_words();
            let collision = block_root_collision(b, &piece);
            let mut found = Vec::new();
            let results = if collision {
                Vec::new()
            } else {
                match_block_local(b, &piece, values.then_some(&mut found))
            };
            work += found.len() as u64;
            let values = values.then_some(found);
            Resp::BlockResults {
                results,
                collision,
                values,
            }
        }
        Req::FetchMeta { slot } => {
            let Some(mb) = state.metas.get(slot) else {
                return (Resp::BadSlot { slot }, work);
            };
            work += mb.n_nodes() as u64;
            match summarize_meta(mb) {
                Ok(entries) => Resp::MetaSummary { entries },
                Err(DanglingNode(slot)) => Resp::BadSlot { slot },
            }
        }
        Req::FetchBlock { slot } => {
            let Some(b) = state.blocks.get(slot) else {
                return (Resp::BadSlot { slot }, work);
            };
            Resp::BlockData(image(b, &mut work))
        }
        Req::GraftMany { slot, grafts } => {
            let Some(b) = state.blocks.get_mut(slot) else {
                return (Resp::BadSlot { slot }, work);
            };
            let before = b.n_real_keys() as i64;
            let mut collision = false;
            // Offset adjustment across successive splits of the same edge:
            // splitting at offset o keeps the lower part on the node, so a
            // later anchor at original offset o' > o sits at o' - o.
            let mut shift: BTreeMap<u32, u32> = BTreeMap::new();
            for g in grafts {
                work += g.subtree.0.size_words() as u64 + 4;
                let s = shift.get(&g.anchor_node).copied().unwrap_or(0);
                debug_assert!(g.anchor_off >= s || g.anchor_off == 0);
                let off = g.anchor_off.saturating_sub(s);
                if off > 0 && (off as usize) < b.trie.node(NodeId(g.anchor_node)).edge.len() {
                    shift.insert(g.anchor_node, s + off);
                }
                collision |= !graft_local(&mut b.trie, g.anchor_node, off, g.subtree.0);
            }
            let out = state.band.oversized(b.weight());
            vitals(
                b,
                b.n_real_keys() as i64 - before,
                collision,
                out,
                &mut work,
            )
        }
        Req::ReadKey { slot, node, depth } => {
            let Some(b) = state.blocks.get(slot) else {
                return (Resp::BadSlot { slot }, work);
            };
            work += 2;
            let id = NodeId(node);
            let v = (b.trie.is_live(id) && b.root_depth + b.trie.node(id).depth as u64 == depth)
                .then(|| b.trie.node(id).value)
                .flatten()
                .filter(|v| *v != MIRROR_VALUE);
            Resp::Value(v)
        }
        Req::DeleteKeys {
            slot,
            nodes,
            depths,
        } => {
            let Some(b) = state.blocks.get_mut(slot) else {
                return (Resp::BadSlot { slot }, work);
            };
            let before = b.n_real_keys() as i64;
            for (node, depth) in nodes.into_iter().zip(depths) {
                work += 4;
                let id = NodeId(node);
                // The key is stored here only if the anchor node sits
                // exactly at the key's depth (mid-edge anchors mean the key
                // is absent). An earlier delete in this very batch may have
                // *freed* the anchor through path compression — anchors of
                // absent keys can be plain branch nodes — so liveness is
                // checked first.
                let at_node =
                    b.trie.is_live(id) && b.root_depth + b.trie.node(id).depth as u64 == depth;
                if at_node
                    && b.trie.node(id).value.is_some()
                    && b.trie.node(id).value != Some(MIRROR_VALUE)
                {
                    delete_at_node(&mut b.trie, id);
                }
            }
            // a key not found is no inconsistency: it was not stored
            let out = state.band.merge_candidate(b);
            vitals(b, b.n_real_keys() as i64 - before, false, out, &mut work)
        }
        Req::MergeChild {
            slot,
            child,
            subtree,
        } => {
            let Some(b) = state.blocks.get_mut(slot) else {
                return (Resp::BadSlot { slot }, work);
            };
            work += subtree.0.size_words() as u64 + 4;
            let ok = merge_child(b, child, subtree.0);
            let out = state.band.oversized(b.weight()) || state.band.merge_candidate(b);
            vitals(b, 0, !ok, ok && out, &mut work)
        }
        Req::ReplaceBlock {
            slot,
            trie,
            mirrors,
        } => {
            let Some(b) = state.blocks.get_mut(slot) else {
                return (Resp::BadSlot { slot }, work);
            };
            work += trie.0.size_words() as u64;
            b.trie = trie.0;
            b.mirrors = mirrors.iter().map(|(n, r)| (NodeId(*n), *r)).collect();
            for n in b.mirrors.keys().copied().collect::<Vec<_>>() {
                if b.trie.node(n).value.is_none() {
                    b.trie.set_value(n, MIRROR_VALUE);
                }
            }
            vitals(b, 0, false, false, &mut work)
        }
        Req::RemoveMetaChild { slot, mref } => {
            let Some(mb) = state.metas.get_mut(slot) else {
                return (Resp::BadSlot { slot }, work);
            };
            if let Some(i) = mb.children.iter().position(|c| c.mref == mref) {
                let c = mb.children.remove(i);
                mb.index.remove(c.entry_slot);
                // child indices in the index targets shift — repair them
                for (j, c) in mb.children.iter().enumerate().skip(i) {
                    patch_target(&mut mb.index, c.entry_slot, LocalTarget::Child(j as u32));
                }
            }
            Resp::MetaVitals {
                nodes: mb.n_nodes() as u64,
                parent: mb.parent,
            }
        }
        Req::PutBlock { slot, msg } => {
            let p = *msg;
            work += p.trie.0.size_words() as u64;
            let mut block = DataBlock {
                trie: p.trie.0,
                root_depth: p.root_depth,
                root_hash: p.root_hash,
                s_last: p.s_last.0,
                pre_hash: p.pre_hash,
                rem: p.rem.0,
                parent: p.parent,
                mirrors: p.mirrors.iter().map(|(n, r)| (NodeId(*n), *r)).collect(),
                meta: p.meta,
            };
            for n in block.mirrors.keys().copied().collect::<Vec<_>>() {
                if block.trie.node(n).value.is_none() {
                    block.trie.set_value(n, MIRROR_VALUE);
                }
            }
            let count = block.weight();
            match state.blocks.insert_at(slot, block) {
                Ok(()) => Resp::Placed { count },
                Err(SlotTaken(slot)) => Resp::SlotTaken { slot },
            }
        }
        Req::PutMeta { slot, msg } => {
            work += msg.nodes.len() as u64 * 2;
            let count = msg.nodes.len() as u64;
            let mb = build_meta(state.width, msg);
            match state.metas.insert_at(slot, mb) {
                Ok(()) => Resp::Placed { count },
                Err(SlotTaken(slot)) => Resp::SlotTaken { slot },
            }
        }
        Req::ReplaceMeta { slot, msg } => {
            work += msg.nodes.len() as u64 * 2;
            let count = msg.nodes.len() as u64;
            let mut mb = build_meta(state.width, msg);
            // keep the old parent pointer unless the payload set one
            if mb.parent.is_none() {
                mb.parent = state.metas.get(slot).and_then(|old| old.parent);
            }
            state.metas.set(slot, mb);
            Resp::Placed { count }
        }
        Req::FetchMetaFull { slot } => {
            let Some(mb) = state.metas.get(slot) else {
                return (Resp::BadSlot { slot }, work);
            };
            work += mb.n_nodes() as u64;
            match meta_full(mb) {
                Ok(full) => Resp::MetaFull(full),
                Err(DanglingNode(slot)) => Resp::BadSlot { slot },
            }
        }
        Req::DropBlock { slot } => {
            state.blocks.remove(slot);
            Resp::Ok
        }
        Req::DropMeta { slot } => {
            state.metas.remove(slot);
            Resp::Ok
        }
        Req::SetParent { slot, parent } => {
            let Some(b) = state.blocks.get_mut(slot) else {
                return (Resp::BadSlot { slot }, work);
            };
            b.parent = parent;
            Resp::Ok
        }
        Req::SetBlockMeta {
            slot,
            meta,
            meta_slot,
        } => {
            let Some(b) = state.blocks.get_mut(slot) else {
                return (Resp::BadSlot { slot }, work);
            };
            b.meta = Some((meta, meta_slot));
            Resp::Ok
        }
        Req::AddMetaNodes {
            slot,
            parent_node,
            nodes,
            parents,
            node_slots,
            relink,
        } => {
            work += nodes.len() as u64 * 2 + relink.len() as u64 * 2;
            let Some(mb) = state.metas.get_mut(slot) else {
                return (Resp::BadSlot { slot }, work);
            };
            match add_meta_nodes(mb, &nodes, &node_slots) {
                Ok(()) => {
                    // wire parents mirroring the block tree
                    for (i, par) in parents.iter().enumerate() {
                        let ps = match par {
                            Some(j) => node_slots[*j as usize],
                            None => parent_node,
                        };
                        link_meta_node(mb, node_slots[i], ps);
                    }
                    for (child, under) in relink {
                        relink_child(mb, child, under);
                    }
                    Resp::Placed {
                        count: mb.n_nodes() as u64,
                    }
                }
                Err(SlotTaken(slot)) => Resp::SlotTaken { slot },
            }
        }
        Req::RemoveMetaNode { slot, node } => {
            let Some(mb) = state.metas.get_mut(slot) else {
                return (Resp::BadSlot { slot }, work);
            };
            match remove_meta_node(mb, node) {
                Ok(()) => Resp::MetaVitals {
                    nodes: mb.n_nodes() as u64,
                    parent: mb.parent,
                },
                Err(DanglingNode(slot)) => Resp::BadSlot { slot },
            }
        }
        Req::SetMetaParent { slot, parent } => {
            let Some(mb) = state.metas.get_mut(slot) else {
                return (Resp::BadSlot { slot }, work);
            };
            mb.parent = parent;
            Resp::Ok
        }
        Req::FetchSubtree {
            slot,
            node,
            off,
            meta,
        } => {
            let Some(b) = state.blocks.get(slot) else {
                return (Resp::BadSlot { slot }, work);
            };
            work += b.weight();
            let (trie, children, depth) = subtree_local(b, NodeId(node), off as usize);
            // only a list below the piece's child blocks needs the node
            let meta = b.meta.filter(|_| meta && !children.is_empty());
            Resp::Subtree {
                trie: TrieMsg(trie),
                children,
                depth,
                meta,
            }
        }
        Req::ListBlocks { slot, under, roots } => {
            let Some(mb) = state.metas.get(slot) else {
                return (Resp::BadSlot { slot }, work);
            };
            // a root that is no child block of `under`'s block
            let Some(listed) = list_below(mb, under, &roots, &mut work) else {
                return (Resp::BadSlot { slot }, work);
            };
            listed
        }
        Req::DescendBlock { slot, bits } => {
            let Some(b) = state.blocks.get(slot) else {
                return (Resp::BadSlot { slot }, work);
            };
            work += bits.0.len().div_ceil(64) as u64 + 2;
            Resp::Descend(descend_local(b, &bits.0))
        }
        Req::ResetModule => {
            *state = ModuleState::new(state.width, state.band);
            Resp::Ok
        }
    };
    (resp, work)
}

/// `b`'s image: everything a host-side re-cut or merge reads.
fn image(b: &DataBlock, work: &mut u64) -> BlockDataOut {
    *work += b.weight();
    BlockDataOut {
        trie: TrieMsg(b.trie.clone()),
        root_depth: b.root_depth,
        root_hash: b.root_hash,
        s_last: crate::refs::BitsMsg(b.s_last.clone()),
        pre_hash: b.pre_hash,
        rem: crate::refs::BitsMsg(b.rem.clone()),
        parent: b.parent,
        mirrors: b.mirrors.iter().map(|(n, r)| (n.0, *r)).collect(),
        meta: b.meta,
    }
}

/// A write's reply: `b`'s vitals, and its image when `out` (the write left
/// it out of its size band).
fn vitals(b: &DataBlock, keys_delta: i64, collision: bool, out: bool, work: &mut u64) -> Resp {
    Resp::BlockVitals {
        weight: b.weight(),
        keys: b.n_real_keys() as u64,
        children: b.mirrors.len() as u64,
        keys_delta,
        collision,
        image: out.then(|| Box::new(image(b, work))),
    }
}

/// An index entry names a node (or child) slot of its meta-block that
/// holds nothing: the meta-block is inconsistent. Answered as
/// [`Resp::BadSlot`] with that slot.
#[derive(Debug)]
pub(crate) struct DanglingNode(pub u32);

/// The block an index entry of `mb` describes: one of its own blocks, or
/// a child meta-block's root block.
fn resolve_target(mb: &MetaBlock, t: LocalTarget) -> Result<BlockRef, DanglingNode> {
    Ok(match t {
        LocalTarget::Own(ns) => mb.nodes.get(ns).ok_or(DanglingNode(ns))?.block,
        LocalTarget::Child(ci) => {
            mb.children
                .get(ci as usize)
                .ok_or(DanglingNode(ci))?
                .root_block
        }
    })
}

fn meta_match(mb: &MetaBlock, m: &PieceMatch<LocalTarget>) -> Result<RootMatch, DanglingNode> {
    Ok(RootMatch {
        qt_below: m.qt_below,
        depth: m.depth,
        block: resolve_target(mb, m.target)?,
    })
}

pub(crate) fn summarize_meta(mb: &MetaBlock) -> Result<Vec<EntrySummary>, DanglingNode> {
    let mut out = Vec::with_capacity(mb.index.len());
    for (_, e) in mb.index.iter() {
        let target = resolve_target(mb, e.target)?;
        out.push(EntrySummary {
            depth: e.depth,
            pre_hash: e.pre_hash,
            rem: e.rem.clone(),
            s_last: e.s_last.clone(),
            target,
        });
    }
    Ok(out)
}

fn patch_target(index: &mut HashIndex<LocalTarget>, slot: u32, t: LocalTarget) {
    if let Some(target) = index.target_mut(slot) {
        *target = t;
    }
}

/// Index `nodes` into `mb` at the given node slots, unlinked. Checks
/// every slot first, so an occupied one leaves `mb` unchanged.
fn add_meta_nodes(
    mb: &mut MetaBlock,
    nodes: &[NewMetaNode],
    slots: &[u32],
) -> Result<(), SlotTaken> {
    if let Some(&s) = slots.iter().find(|s| mb.nodes.get(**s).is_some()) {
        return Err(SlotTaken(s));
    }
    for (n, &ns) in nodes.iter().zip(slots) {
        let entry_slot = mb.index.insert(IndexEntry {
            depth: n.depth,
            pre_hash: n.pre_hash,
            rem: n.rem.0.clone(),
            s_last: n.s_last.0.clone(),
            target: LocalTarget::Own(ns),
        });
        mb.nodes.insert_at(
            ns,
            MetaNode {
                block: n.block,
                entry_slot,
                parent: None,
                children: Vec::new(),
                depth: n.depth,
                hash: n.hash,
            },
        )?;
    }
    Ok(())
}

/// Hang node `child` under node `parent` (both live in `mb`).
fn link_meta_node(mb: &mut MetaBlock, child: u32, parent: u32) {
    if let Some(c) = mb.nodes.get_mut(child) {
        c.parent = Some(parent);
    }
    if let Some(p) = mb.nodes.get_mut(parent) {
        p.children.push(child);
    }
}

/// Re-hang the meta node of block `child` under node `under`: its own
/// node if this meta-block describes `child`, else the child meta-block
/// rooted at it. A child described nowhere here is left alone.
fn relink_child(mb: &mut MetaBlock, child: BlockRef, under: u32) {
    if let Some(c) = mb.children.iter_mut().find(|c| c.root_block == child) {
        c.under_node = under;
        return;
    }
    let Some(ns) = mb
        .nodes
        .iter()
        .find(|(_, n)| n.block == child)
        .map(|(s, _)| s)
    else {
        return;
    };
    if let Some(old) = mb.nodes.get(ns).and_then(|n| n.parent) {
        if let Some(p) = mb.nodes.get_mut(old) {
            p.children.retain(|c| *c != ns);
        }
    }
    link_meta_node(mb, ns, under);
}

/// A meta-block built from its payload: node `i` at slot `i`.
fn build_meta(width: HashWidth, p: PutMetaMsg) -> MetaBlock {
    let mut mb = MetaBlock {
        index: HashIndex::new(width),
        nodes: Slab::new(),
        root_node: p.root_idx,
        parent: p.parent,
        children: Vec::new(),
    };
    let slots: Vec<u32> = (0..p.nodes.len() as u32).collect();
    // a fresh slab has no live slot to collide with
    let _ = add_meta_nodes(&mut mb, &p.nodes, &slots);
    for (i, par) in p.parents.iter().enumerate() {
        if let Some(j) = par {
            link_meta_node(&mut mb, i as u32, *j);
        }
    }
    for c in p.children {
        let idx = mb.children.len() as u32;
        let entry_slot = mb.index.insert(IndexEntry {
            depth: c.depth,
            pre_hash: c.pre_hash,
            rem: c.rem.0,
            s_last: c.s_last.0,
            target: LocalTarget::Child(idx),
        });
        mb.children.push(MetaChildInfo {
            mref: c.mref,
            under_node: c.under_node,
            entry_slot,
            root_block: c.root_block,
        });
    }
    mb
}

/// Remove node `node` from `mb`; a slot that holds no node is a
/// [`DanglingNode`].
fn remove_meta_node(mb: &mut MetaBlock, node: u32) -> Result<(), DanglingNode> {
    let n = mb.nodes.remove(node).ok_or(DanglingNode(node))?;
    mb.index.remove(n.entry_slot);
    // re-parent children
    if let Some(p) = n.parent {
        if let Some(pn) = mb.nodes.get_mut(p) {
            pn.children.retain(|c| *c != node);
            pn.children.extend(n.children.iter().copied());
        }
        for c in &n.children {
            if let Some(cn) = mb.nodes.get_mut(*c) {
                cn.parent = Some(p);
            }
        }
    } else {
        // removing the meta-block root: promote the first child (callers
        // only do this for leaf chains; assert simplicity)
        debug_assert!(n.children.len() <= 1, "root removal with branching");
        if let Some(&c) = n.children.first() {
            mb.nodes.get_mut(c).ok_or(DanglingNode(c))?.parent = None;
            mb.root_node = c;
        }
    }
    // child meta-blocks hanging under the removed node re-hang under its
    // parent (or the new root)
    let new_under = n.parent.unwrap_or(mb.root_node);
    for c in &mut mb.children {
        if c.under_node == node {
            c.under_node = new_under;
        }
    }
    Ok(())
}

/// Bit-exact matching of a query piece (rooted at the block root) against
/// a data block (§4.3's local matching). With `found`, also list the
/// `(tag, value)` of every key end the block owns and stores a value at,
/// in the order of their results: a piece node that carries a value (a
/// batch key ends there), whose walk consumed its whole path and stopped
/// off a mirror leaf (a stop on one belongs to the child block's root).
/// One kernel behind a pushed `MatchBlock { values: true }` and the
/// host's pulled blocks.
pub fn match_block_local(
    block: &DataBlock,
    piece: &QueryPiece,
    mut found: Option<&mut Vec<(u32, Value)>>,
) -> Vec<BlockNodeResult> {
    let mut out = Vec::with_capacity(piece.trie.n_nodes());
    let root_pos = TriePos {
        node: NodeId::ROOT,
        edge_off: 0,
    };
    let mut owns = |tag: u32, stop: TriePos| {
        if let Some(found) = found.as_deref_mut() {
            let v = is_at(&block.trie, stop).and_then(|n| filter_mirror(block.trie.node(n).value));
            found.extend(v.map(|v| (tag, v)));
        }
    };
    if piece.trie.node(NodeId::ROOT).value.is_some() {
        owns(piece.tags[NodeId::ROOT.idx()], root_pos);
    }
    out.push(BlockNodeResult {
        tag: piece.tags[NodeId::ROOT.idx()],
        depth: piece.root_depth,
        anchor_node: NodeId::ROOT.0,
        anchor_off: 0,
        at_mirror: false,
        redirect: None,
    });
    // DFS: (piece node, data position, matched depth, live)
    let mut stack = vec![(NodeId::ROOT, root_pos, piece.root_depth, true)];
    while let Some((pn, pos, matched, live)) = stack.pop() {
        for child in piece.trie.node(pn).children.iter().flatten() {
            let edge = &piece.trie.node(*child).edge;
            let (res, new_pos, new_matched, new_live) = if live {
                let (consumed, stop) = extend_match(&block.trie, pos, edge.as_slice());
                let nm = matched + consumed as u64;
                let still = consumed == edge.len();
                let mirror_child = is_at(&block.trie, stop)
                    .and_then(|n| block.mirrors.get(&n))
                    .copied();
                if still && mirror_child.is_none() && piece.trie.node(*child).value.is_some() {
                    owns(piece.tags[child.idx()], stop);
                }
                (
                    BlockNodeResult {
                        tag: piece.tags[child.idx()],
                        depth: nm,
                        anchor_node: stop.node.0,
                        anchor_off: stop.edge_off as u32,
                        // stopped at a boundary with bits left: the child
                        // block owns the continuation — redo exactly
                        at_mirror: mirror_child.is_some() && !still,
                        // a boundary stop always anchors at the child root
                        redirect: mirror_child,
                    },
                    stop,
                    nm,
                    still,
                )
            } else {
                (
                    BlockNodeResult {
                        tag: piece.tags[child.idx()],
                        depth: matched,
                        anchor_node: pos.node.0,
                        anchor_off: pos.edge_off as u32,
                        at_mirror: false,
                        redirect: None,
                    },
                    pos,
                    matched,
                    false,
                )
            };
            out.push(res);
            stack.push((*child, new_pos, new_matched, new_live));
        }
    }
    out
}

/// Is the position exactly at a compressed node? Returns it.
fn is_at(trie: &Trie, pos: TriePos) -> Option<NodeId> {
    (pos.edge_off == trie.node(pos.node).edge.len()).then_some(pos.node)
}

/// Extend a match from `pos` by `bits`, stopping at divergence or
/// dead-end. Returns (bits consumed, stop position).
fn extend_match(trie: &Trie, mut pos: TriePos, bits: bitstr::BitSlice<'_>) -> (usize, TriePos) {
    let mut i = 0;
    loop {
        let n = trie.node(pos.node);
        if pos.edge_off < n.edge.len() {
            // inside an edge: compare remaining edge bits
            let remaining = n.edge.slice(pos.edge_off..n.edge.len());
            let avail = bits.len() - i;
            let l = remaining.lcp(&bits.slice(i..bits.len()));
            i += l;
            pos.edge_off += l;
            if l < remaining.len().min(avail) || i == bits.len() {
                return (i, pos);
            }
            // consumed the whole edge remainder
            continue;
        }
        // at a node
        if i == bits.len() {
            return (i, pos);
        }
        let b = bits.get(i) as usize;
        match n.children[b] {
            None => return (i, pos),
            Some(c) => {
                pos = TriePos {
                    node: c,
                    edge_off: 0,
                };
            }
        }
    }
}

/// Inline a child block's trie at the mirror leaf that names it. Checks
/// before it mutates: false, with the block unchanged, when no mirror
/// names `child` or the leaf already has a child where the subtree's
/// first edges attach.
fn merge_child(b: &mut DataBlock, child: BlockRef, subtree: Trie) -> bool {
    let Some(node) = b
        .mirrors
        .iter()
        .find(|(_, r)| **r == child)
        .map(|(n, _)| *n)
    else {
        return false;
    };
    let leaf = b.trie.node(node);
    let root = subtree.node(NodeId::ROOT);
    if root
        .children
        .iter()
        .flatten()
        .any(|c| leaf.children[subtree.node(*c).edge.get(0) as usize].is_some())
    {
        return false;
    }
    b.mirrors.remove(&node);
    b.trie.unset_value(node);
    let elen = b.trie.node(node).edge.len();
    let ok = graft_local(&mut b.trie, node.0, elen as u32, subtree);
    b.trie.recompress_at(node);
    ok
}

/// Graft `subtree` (root = anchor position) into `trie`; false on
/// inconsistency (occupied child slot ⇒ hash collision upstream).
fn graft_local(trie: &mut Trie, anchor_node: u32, anchor_off: u32, subtree: Trie) -> bool {
    let node = NodeId(anchor_node);
    let off = anchor_off as usize;
    let edge_len = trie.node(node).edge.len();
    // Resolve the attach node *without* mutating yet (except the edge
    // split, which is semantics-preserving), then pre-check every child
    // slot so a collision (possible only under hash-collision anchors)
    // leaves the block unmodified rather than half-grafted.
    let attach = if off == edge_len {
        node
    } else if off == 0 {
        trie.node(node).parent.expect("graft above root")
    } else {
        trie.split_edge(TriePos {
            node,
            edge_off: off,
        })
    };
    for c in subtree.node(NodeId::ROOT).children.iter().flatten() {
        let bit = subtree.node(*c).edge.get(0) as usize;
        if trie.node(attach).children[bit].is_some() {
            return false;
        }
    }
    // set-value at the anchor
    if let Some(v) = subtree.node(NodeId::ROOT).value {
        trie.set_value(attach, v);
    }
    // attach children
    for c in subtree.node(NodeId::ROOT).children.iter().flatten() {
        copy_subtree_into(trie, attach, &subtree, *c);
    }
    true
}

fn copy_subtree_into(dst: &mut Trie, dst_parent: NodeId, src: &Trie, src_node: NodeId) {
    let sn = src.node(src_node);
    let id = dst.attach_child(dst_parent, sn.edge.clone(), sn.value);
    for c in sn.children.iter().flatten() {
        copy_subtree_into(dst, id, src, *c);
    }
}

/// Delete the key at an exact node, respecting mirror pinning (mirrors
/// carry [`MIRROR_VALUE`] so compression never removes them).
fn delete_at_node(trie: &mut Trie, node: NodeId) {
    trie.unset_value(node);
    trie.recompress_at(node);
}

/// Extract the block's subtrie below (node, off) with keys' values and
/// mirror children; returns (trie, mirror children, anchor depth-in-block).
fn subtree_local(block: &DataBlock, node: NodeId, off: usize) -> (Trie, Vec<(u32, BlockRef)>, u64) {
    // Build a standalone trie rooted at the anchor position.
    let mut out = Trie::new();
    let mut children = Vec::new();
    let n = block.trie.node(node);
    let depth_in_block = n.depth as usize - (n.edge.len() - off);
    if off < n.edge.len() {
        // anchor inside the edge into `node`: subtree = remainder of this
        // edge then node's subtree
        let rest = n.edge.slice(off..n.edge.len()).to_bitstr();
        let id = out.attach_child(NodeId::ROOT, rest, filter_mirror(n.value));
        if block.mirrors.contains_key(&node) {
            children.push((id.0, block.mirrors[&node]));
        }
        copy_block_subtree(&mut out, id, block, node, &mut children);
    } else {
        if let Some(v) = filter_mirror(n.value) {
            out.set_value(NodeId::ROOT, v);
        }
        if block.mirrors.contains_key(&node) {
            children.push((NodeId::ROOT.0, block.mirrors[&node]));
        }
        copy_block_subtree(&mut out, NodeId::ROOT, block, node, &mut children);
    }
    (out, children, block.root_depth + depth_in_block as u64)
}

/// `Listed`: the blocks `mb` describes below `roots`, child blocks of the
/// block at meta node `under`, and its child meta-blocks rooted at or
/// below one, with their root blocks; with no `under`, everything `mb`
/// describes below its root block. Meta links follow the block tree: a
/// node's meta subtree holds exactly the blocks below its block that
/// `mb` describes, and a child meta-block hangs at the node of its
/// root's parent block. `None` if a root is no child block of `under`'s
/// block: the host took it from a mirror leaf that does not lead there.
fn list_below(
    mb: &MetaBlock,
    under: Option<u32>,
    roots: &[BlockRef],
    work: &mut u64,
) -> Option<Resp> {
    let mut metas = Vec::new();
    // nodes whose child blocks are listed
    let mut stack = Vec::new();
    match under {
        None if roots.is_empty() => stack.push(mb.root_node),
        None => return None,
        Some(at) => {
            let kids = &mb.nodes.get(at)?.children;
            for r in roots {
                *work += 1;
                let node = kids
                    .iter()
                    .find(|c| mb.nodes.get(**c).is_some_and(|n| n.block == *r));
                if let Some(c) = node {
                    stack.push(*c);
                    continue;
                }
                let mut child = mb.children.iter();
                let c = child.find(|c| c.under_node == at && c.root_block == *r)?;
                metas.push((c.mref, c.root_block));
            }
        }
    }
    let mut blocks = Vec::new();
    let mut covered = Vec::new();
    while let Some(ns) = stack.pop() {
        *work += 1;
        covered.push(ns);
        for c in &mb.nodes.get(ns)?.children {
            blocks.push(mb.nodes.get(*c)?.block);
            stack.push(*c);
        }
    }
    covered.sort_unstable();
    *work += mb.children.len() as u64;
    let below = mb
        .children
        .iter()
        .filter(|c| covered.binary_search(&c.under_node).is_ok());
    metas.extend(below.map(|c| (c.mref, c.root_block)));
    Some(Resp::Listed { blocks, metas })
}

fn filter_mirror(v: Option<Value>) -> Option<Value> {
    v.filter(|v| *v != MIRROR_VALUE)
}

fn copy_block_subtree(
    dst: &mut Trie,
    dst_node: NodeId,
    block: &DataBlock,
    src_node: NodeId,
    children: &mut Vec<(u32, BlockRef)>,
) {
    for c in block.trie.node(src_node).children.iter().flatten() {
        let cn = block.trie.node(*c);
        let id = dst.attach_child(dst_node, cn.edge.clone(), filter_mirror(cn.value));
        if let Some(r) = block.mirrors.get(c) {
            children.push((id.0, *r));
        }
        copy_block_subtree(dst, id, block, *c, children);
    }
}

/// §4.4.3 block-root verification, shared by the pushed `MatchBlock`
/// handler and the host's pulled-block path: true when the piece root
/// cannot sit at the block root, so the hash match that sent it here was
/// a collision. A genuine match puts the piece root at the block root,
/// so both share the depth and the full-width hash at their pivot, and
/// the piece's `root_rem` is a suffix of the block root's `S_last`
/// (trailing bits of the same string).
pub(crate) fn block_root_collision(block: &DataBlock, piece: &QueryPiece) -> bool {
    block.root_depth != piece.root_depth
        || block.pre_hash != piece.root_pre_hash
        || !rem_consistent(&block.s_last, &piece.root_rem)
}

/// §4.4.3: a genuine root match implies the piece's `root_rem` equals the
/// trailing `|rem|` bits of the block root's `S_last`.
fn rem_consistent(s_last: &BitStr, root_rem: &BitStr) -> bool {
    if root_rem.len() > s_last.len() {
        // root shorter than a word: rem covers the whole string
        return root_rem.len() == s_last.len();
    }
    let from = s_last.len() - root_rem.len();
    s_last.slice(from..s_last.len()) == root_rem.as_slice()
}

/// One exact slow-path step: consume `bits` inside this block; if the walk
/// stops exactly at a mirror with bits remaining, hand over the child ref.
fn descend_local(block: &DataBlock, bits: &BitStr) -> DescendOut {
    let start = TriePos {
        node: NodeId::ROOT,
        edge_off: 0,
    };
    let (consumed, stop) = extend_match(&block.trie, start, bits.as_slice());
    // hand over to the child even when the bits end exactly at the
    // boundary — the child's root is the canonical anchor for that position
    let next = is_at(&block.trie, stop)
        .and_then(|n| block.mirrors.get(&n))
        .copied();
    DescendOut {
        consumed: consumed as u64,
        next,
        anchor_node: stop.node.0,
        anchor_off: stop.edge_off as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_root_check_reports_an_inconsistent_root_rem() {
        // a block root at depth 70: its S_last is the root string's last
        // 64 bits, and the 6 bits past the pivot end it
        let s_last = BitStr::from_u64(0xdead_beef_0000_002a, 64);
        let block = DataBlock {
            trie: Trie::new(),
            root_depth: 70,
            root_hash: HashVal(1),
            s_last: s_last.clone(),
            pre_hash: HashVal(7),
            rem: s_last.slice(58..64).to_bitstr(),
            parent: None,
            mirrors: BTreeMap::new(),
            meta: None,
        };
        let piece = |root_rem: BitStr| QueryPiece {
            trie: Trie::new(),
            tags: vec![0],
            root_depth: 70,
            root_pre_hash: HashVal(7),
            root_rem,
        };
        assert!(!block_root_collision(&block, &piece(block.rem.clone())));
        // equal depth and pivot hash, but the bits past the pivot differ
        let other = BitStr::from_u64(0b010101, 6);
        assert_ne!(other, block.rem);
        assert!(block_root_collision(&block, &piece(other)));
    }

    #[test]
    fn match_block_lists_the_values_of_the_key_ends_it_owns() {
        let b = BitStr::from_bin_str;
        let mut trie = Trie::new();
        trie.insert(&b("0101"), 5);
        trie.insert(&b("0110"), 6);
        trie.insert(&b("11"), MIRROR_VALUE);
        let leaf = trie
            .node_ids()
            .find(|id| trie.node_string(*id) == b("11"))
            .unwrap();
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
        let keys: Vec<BitStr> = ["0101", "01", "011", "0111", "11", "1"]
            .iter()
            .map(|s| b(s))
            .collect();
        let qt = trie_core::query::QueryTrie::build(&keys);
        let hasher = bitstr::hash::PolyHasher::with_seed(1);
        let ctxs = crate::matching::node_ctxs(&qt.trie, &hasher);
        let root = (NodeId::ROOT.0, 0);
        let piece = crate::matching::make_piece(&qt.trie, &ctxs, &hasher, root, &[]);
        let mut found = Vec::new();
        let _ = match_block_local(&block, &piece, Some(&mut found));
        let tag = |i: usize| qt.key_node[i].0;
        assert_eq!(found, vec![(tag(0), 5)]);

        // a pushed `MatchBlock` lists the found values only, when asked
        let mut state = ModuleState::new(HashWidth::FULL, SizeBand::new(64));
        state.blocks.insert_at(0, block).unwrap();
        for values in [false, true] {
            let req = Req::MatchBlock {
                slot: 0,
                piece: piece.clone(),
                values,
            };
            let (resp, _) = execute(&mut state, &hasher, req);
            let Resp::BlockResults { values: found, .. } = resp else {
                panic!("not a block result");
            };
            assert_eq!(found, values.then(|| vec![(tag(0), 5)]));
        }
    }

    /// `ListBlocks` lists by block-tree position: every block below its
    /// roots and every child meta-block rooted at or below one, nothing
    /// beside them, and it refuses a root that is no child block of
    /// `under`'s block. Anchor block `a` has child blocks `x` and `y` here,
    /// and `x1`, `y1` below them; child meta-blocks hang at `a` (rooted at
    /// `z` and `w`), at `y` (rooted at `u`) and at `x1` (rooted at `v`).
    #[test]
    fn list_blocks_lists_exactly_the_subtrees_below_its_roots() {
        let b = |slot| BlockRef { module: 0, slot };
        let m = |slot| MetaRef { module: 1, slot };
        let [a, x, y, x1, y1, z, w, u, v] = [0, 1, 2, 3, 4, 5, 6, 7, 8].map(b);
        let node = |block: BlockRef| NewMetaNode {
            block,
            depth: u64::from(block.slot),
            hash: HashVal(0),
            pre_hash: HashVal(0),
            rem: crate::refs::BitsMsg(BitStr::new()),
            s_last: crate::refs::BitsMsg(BitStr::new()),
        };
        let child = |mref: MetaRef, under_node: u32, root_block: BlockRef| NewMetaChild {
            mref,
            under_node,
            root_block,
            depth: u64::from(root_block.slot),
            pre_hash: HashVal(0),
            rem: crate::refs::BitsMsg(BitStr::new()),
            s_last: crate::refs::BitsMsg(BitStr::new()),
        };
        let msg = PutMetaMsg {
            nodes: [a, x, y, x1, y1].map(node).to_vec(),
            root_idx: 0,
            parent: None,
            children: vec![
                child(m(0), 0, z),
                child(m(1), 0, w),
                child(m(2), 2, u),
                child(m(3), 3, v),
            ],
            parents: vec![None, Some(0), Some(0), Some(1), Some(2)],
        };
        let mut state = ModuleState::new(HashWidth::FULL, SizeBand::new(64));
        state
            .metas
            .insert_at(0, build_meta(HashWidth::FULL, msg))
            .unwrap();
        let hasher = bitstr::hash::PolyHasher::with_seed(1);
        let mut list = |under: Option<u32>, roots: Vec<BlockRef>| {
            let req = Req::ListBlocks {
                slot: 0,
                under,
                roots,
            };
            match execute(&mut state, &hasher, req).0 {
                Resp::Listed {
                    mut blocks,
                    mut metas,
                } => {
                    blocks.sort();
                    metas.sort();
                    Some((blocks, metas))
                }
                Resp::BadSlot { slot: 0 } => None,
                _ => panic!("not a list"),
            }
        };
        // node slots follow `nodes`: a 0, x 1, y 2, x1 3, y1 4
        // not `y`'s subtree, nor the child meta-block rooted at `w`
        assert_eq!(
            list(Some(0), vec![x, z]),
            Some((vec![x1], vec![(m(0), z), (m(3), v)]))
        );
        // not the child meta-block hanging at `y` itself
        assert_eq!(list(Some(2), vec![y1]), Some((vec![], vec![])));
        assert_eq!(
            list(None, vec![]),
            Some((
                vec![x, y, x1, y1],
                vec![(m(0), z), (m(1), w), (m(2), u), (m(3), v)]
            ))
        );
        // a grandchild, a child meta-block's root one level down, a
        // sibling, roots with no `under`, and a free node slot
        assert_eq!(list(Some(0), vec![x1]), None);
        assert_eq!(list(Some(0), vec![x, u]), None);
        assert_eq!(list(Some(1), vec![y1]), None);
        assert_eq!(list(None, vec![a]), None);
        assert_eq!(list(Some(9), vec![x]), None);
    }

    #[test]
    fn reads_of_a_freed_slot_answer_bad_slot() {
        let cfg = crate::PimTrieConfig::for_modules(1);
        let hasher = bitstr::hash::PolyHasher::with_seed(cfg.seed);
        let mut sys = pim_sim::PimSystem::new(1, |_| {
            ModuleState::new(cfg.hash_width, SizeBand::new(cfg.k_b))
        });
        let mut run = |name: &str, reqs: Vec<Req>| {
            sys.round(name, vec![reqs], |ctx, msgs| {
                msgs.into_iter().map(|m| handle(ctx, &hasher, m)).collect()
            })
            .remove(0)
        };
        let block = PutBlockMsg {
            trie: TrieMsg(Trie::new()),
            root_depth: 0,
            root_hash: HashVal(0),
            s_last: crate::refs::BitsMsg(BitStr::new()),
            pre_hash: HashVal(0),
            rem: crate::refs::BitsMsg(BitStr::new()),
            parent: None,
            mirrors: Vec::new(),
            meta: None,
        };
        let meta = PutMetaMsg {
            nodes: Vec::new(),
            root_idx: 0,
            parent: None,
            children: Vec::new(),
            parents: Vec::new(),
        };
        let put = vec![
            Req::PutBlock {
                slot: 0,
                msg: Box::new(block),
            },
            Req::PutMeta { slot: 0, msg: meta },
        ];
        run("place", put);
        run(
            "drop",
            vec![Req::DropBlock { slot: 0 }, Req::DropMeta { slot: 0 }],
        );
        let reads = vec![
            Req::FetchSubtree {
                slot: 0,
                node: 0,
                off: 0,
                meta: true,
            },
            Req::ListBlocks {
                slot: 0,
                under: None,
                roots: Vec::new(),
            },
        ];
        let out = run("subtree.fetch+list", reads);
        assert!(matches!(
            out[..],
            [Resp::BadSlot { slot: 0 }, Resp::BadSlot { slot: 0 }]
        ));
    }

    /// A block holding `keys` (mirror leaves where `mirrors` says) under
    /// `parent`.
    fn block_of(
        keys: &[&str],
        mirrors: &[(&str, BlockRef)],
        parent: Option<BlockRef>,
    ) -> DataBlock {
        let mut trie = Trie::new();
        for k in keys {
            trie.insert(&BitStr::from_bin_str(k), 1);
        }
        let mut ms = BTreeMap::new();
        for (k, r) in mirrors {
            let bits = BitStr::from_bin_str(k);
            trie.insert(&bits, MIRROR_VALUE);
            let id = trie.node_ids().find(|id| trie.node_string(*id) == bits);
            ms.insert(id.unwrap(), *r);
        }
        DataBlock {
            trie,
            root_depth: 0,
            root_hash: HashVal(0),
            s_last: BitStr::new(),
            pre_hash: HashVal(0),
            rem: BitStr::new(),
            parent,
            mirrors: ms,
            meta: None,
        }
    }

    /// Whether a write reply carries an image.
    fn imaged(r: &Resp) -> bool {
        matches!(r, Resp::BlockVitals { image: Some(_), .. })
    }

    /// Delete `key` from the block at `slot`.
    fn delete_req(state: &ModuleState, slot: u32, key: &str) -> Req {
        let b = state.blocks.get(slot).unwrap();
        let bits = BitStr::from_bin_str(key);
        let node = b.trie.node_ids().find(|id| b.trie.node_string(*id) == bits);
        Req::DeleteKeys {
            slot,
            nodes: vec![node.unwrap().0],
            depths: vec![key.len() as u64],
        }
    }

    /// A graft of `sub` at the root of the block at `slot`.
    fn graft_req(slot: u32, sub: Trie) -> Req {
        Req::GraftMany {
            slot,
            grafts: vec![GraftMsg {
                anchor_node: 0,
                anchor_off: 0,
                subtree: TrieMsg(sub),
            }],
        }
    }

    #[test]
    fn write_replies_carry_the_image_of_a_block_that_left_its_band() {
        let hasher = bitstr::hash::PolyHasher::with_seed(1);
        let band = SizeBand::new(128);
        let up = Some(BlockRef { module: 0, slot: 9 });
        let child = BlockRef { module: 0, slot: 5 };
        let mut state = ModuleState::new(HashWidth::FULL, band);
        let keys = ["0000", "0011", "0101"];
        // 0: a leaf under a parent, 1: the root block, 2: a block with a
        // child block, 3: an empty leaf
        state.blocks.insert_at(0, block_of(&keys, &[], up)).unwrap();
        state
            .blocks
            .insert_at(1, block_of(&keys, &[], None))
            .unwrap();
        state
            .blocks
            .insert_at(2, block_of(&["0011"], &[("11", child)], up))
            .unwrap();
        state.blocks.insert_at(3, block_of(&[], &[], up)).unwrap();
        // only the non-root leaf, now under K_B / 4 words, comes back whole
        for (slot, want) in [(0, true), (1, false), (2, false)] {
            let req = delete_req(&state, slot, "0011");
            let (resp, _) = execute(&mut state, &hasher, req);
            assert_eq!(imaged(&resp), want, "delete in block {slot}");
        }
        let b = state.blocks.get(0).unwrap();
        assert!(b.weight() < band.k_b / 4 && b.n_real_keys() == 2);
        // merging its child leaves block 2 a one-key leaf: it comes back
        // whole
        let merge = Req::MergeChild {
            slot: 2,
            child,
            subtree: TrieMsg(block_of(&["0"], &[], None).trie),
        };
        let (resp, _) = execute(&mut state, &hasher, merge);
        assert!(imaged(&resp), "the merge left a small leaf");
        // a graft that keeps its block inside the band does not; one that
        // pushes it past 2·K_B words does
        let (resp, _) = execute(
            &mut state,
            &hasher,
            graft_req(1, block_of(&["1"], &[], None).trie),
        );
        assert!(!imaged(&resp), "the graft kept the block in its band");
        let mut big = Trie::new();
        for i in 0..512u64 {
            big.insert(&BitStr::from_u64(i, 12), i);
        }
        let (resp, _) = execute(&mut state, &hasher, graft_req(3, big));
        assert!(band.oversized(state.blocks.get(3).unwrap().weight()));
        assert!(imaged(&resp), "the graft pushed the block past 2·K_B");
    }

    #[test]
    fn merge_into_a_mirror_leaf_with_a_child_reports_collision_and_changes_nothing() {
        let cfg = crate::PimTrieConfig::for_modules(1);
        let hasher = bitstr::hash::PolyHasher::with_seed(cfg.seed);
        let mut sys = pim_sim::PimSystem::new(1, |_| {
            ModuleState::new(cfg.hash_width, SizeBand::new(cfg.k_b))
        });
        // the mirror leaf "0" already has a child "01"
        let mut trie = Trie::new();
        trie.insert(&BitStr::from_bin_str("0"), MIRROR_VALUE);
        trie.insert(&BitStr::from_bin_str("01"), 5);
        let leaf = trie
            .node_ids()
            .find(|id| trie.node_string(*id) == BitStr::from_bin_str("0"))
            .unwrap();
        let child = BlockRef { module: 0, slot: 1 };
        let block = DataBlock {
            trie,
            root_depth: 0,
            root_hash: HashVal(0),
            s_last: BitStr::new(),
            pre_hash: HashVal(0),
            rem: BitStr::new(),
            parent: None,
            mirrors: BTreeMap::from([(leaf, child)]),
            meta: None,
        };
        let before = block.trie.items();
        sys.module_mut(0).blocks.insert_at(0, block).unwrap();
        // the child's trie attaches its own "1" edge below the leaf
        let mut subtree = Trie::new();
        subtree.insert(&BitStr::from_bin_str("1"), 7);
        let req = Req::MergeChild {
            slot: 0,
            child,
            subtree: TrieMsg(subtree),
        };
        let out = sys.round("merge.apply", vec![vec![req]], |ctx, msgs| {
            msgs.into_iter().map(|m| handle(ctx, &hasher, m)).collect()
        });
        assert!(matches!(
            out[0][0],
            Resp::BlockVitals {
                collision: true,
                ..
            }
        ));
        let b = sys.module(0).blocks.get(0).unwrap();
        assert_eq!(b.trie.items(), before);
        assert_eq!(b.mirrors, BTreeMap::from([(leaf, child)]));
        assert_eq!(b.trie.node(leaf).value, Some(MIRROR_VALUE));
    }
}
