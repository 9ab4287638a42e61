//! Construction and hash-value-manager maintenance.
//!
//! * [`PimTrie::new`] bootstraps the empty index: one root block (the empty
//!   string) on a random module and a one-node meta-block whose address the
//!   host keeps as `PimTrie::root_meta` — the root of the one meta-block
//!   tree, and the first entry of the host's master table.
//! * [`cut_decompose`] is the recursive meta-block decomposition of §4.4.1:
//!   repeatedly pick the Lemma-4.5 cut node (the highest node whose subtree
//!   reaches half the remaining size), detach its child subtrees, and
//!   recurse — producing a *meta-block tree* whose pieces are at most
//!   `K_SMB` nodes and whose height is `O(log K_MB)` (Lemma 4.6).
//! * `PimTrie::place_chunks` addresses such a plan on random modules and
//!   ships it in one round: the host authors every address
//!   ([`crate::refs::Addresses`]), so each `PutMeta` already carries its
//!   parent and children, and the master table learns every new root.
//! * `PimTrie::split_meta_blocks` is the batched form of
//!   §5.2 maintenance actions: an overfull meta-block is pulled to the CPU,
//!   re-cut and re-distributed (the scapegoat-style rebuild, executed on
//!   the CPU side as the paper prescribes). The paper's promotion of an
//!   overfull meta-block *tree* into independent trees found through a
//!   master table is not implemented (DESIGN.md, deviations).

use crate::error::{unexpected, PimTrieError};
use crate::module::{
    handle, BlockDataOut, MetaFullOut, ModuleState, NewMetaChild, NewMetaNode, PutBlockMsg,
    PutMetaMsg, Req, Resp, SizeBand, Touch,
};
use crate::refs::{Addresses, BitsMsg, BlockRef, MetaRef, TrieMsg};
use crate::wire_guard::{handle_sealed, SealedReq};
use crate::{PimTrie, PimTrieConfig};
use bitstr::hash::{HashVal, IncrementalHash, PolyHasher};
use bitstr::{BitStr, WORD_BITS};
use pim_sim::{PimSystem, Scatter};
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use trie_core::Trie;

/// The metadata the hash value manager stores per block root (derived from
/// the root's full string).
#[derive(Clone, Debug)]
pub(crate) struct RootMeta {
    pub depth: u64,
    pub hash: HashVal,
    pub pre_hash: HashVal,
    pub rem: BitStr,
    pub s_last: BitStr,
}

pub(crate) fn root_meta(hasher: &PolyHasher, s: &BitStr) -> RootMeta {
    let depth = s.len() as u64;
    let pre_len = (depth as usize / WORD_BITS) * WORD_BITS;
    let pre_hash = hasher.hash_bits(s.slice(0..pre_len));
    let rem = s.slice(pre_len..s.len()).to_bitstr();
    let hash = hasher.combine(pre_hash, hasher.hash_bits(rem.as_slice()), rem.len() as u64);
    let last_from = s.len().saturating_sub(WORD_BITS);
    RootMeta {
        depth,
        hash,
        pre_hash,
        rem,
        s_last: s.slice(last_from..s.len()).to_bitstr(),
    }
}

impl RootMeta {
    pub(crate) fn new_meta_node(&self, block: BlockRef) -> NewMetaNode {
        NewMetaNode {
            block,
            depth: self.depth,
            hash: self.hash,
            pre_hash: self.pre_hash,
            rem: BitsMsg(self.rem.clone()),
            s_last: BitsMsg(self.s_last.clone()),
        }
    }
}

/// Metadata of a child root whose string is `parent_string · local`,
/// derived purely from the parent's stored metadata plus the local path —
/// the associative-combine trick that lets repartitions run without the
/// CPU ever seeing the bits above the block (Definition 3).
pub(crate) fn root_meta_with_prefix(
    hasher: &PolyHasher,
    parent_hash: HashVal,
    parent_depth: u64,
    parent_pre_hash: HashVal,
    parent_rem: &BitStr,
    parent_s_last: &BitStr,
    local: &BitStr,
) -> RootMeta {
    let depth = parent_depth + local.len() as u64;
    let hash = hasher.combine(
        parent_hash,
        hasher.hash_bits(local.as_slice()),
        local.len() as u64,
    );
    let pre_boundary = (depth / WORD_BITS as u64) * WORD_BITS as u64;
    let (pre_hash, rem) = if pre_boundary >= parent_depth {
        let take = (pre_boundary - parent_depth) as usize;
        let ph = hasher.combine(
            parent_hash,
            hasher.hash_bits(local.slice(0..take)),
            take as u64,
        );
        (ph, local.slice(take..local.len()).to_bitstr())
    } else {
        // no w-boundary crossed: same pre as the parent
        let mut rem = parent_rem.clone();
        rem.append(&local.as_slice());
        (parent_pre_hash, rem)
    };
    // s_last: trailing min(w, depth) bits of parent_s_last · local
    let mut tail = parent_s_last.clone();
    tail.append(&local.as_slice());
    let from = tail.len().saturating_sub(WORD_BITS);
    RootMeta {
        depth,
        hash,
        pre_hash,
        rem,
        s_last: tail.slice(from..tail.len()).to_bitstr(),
    }
}

impl PimTrie {
    /// An empty PIM-trie on `cfg.p` simulated modules. Panics on a
    /// degenerate configuration; [`PimTrie::try_new`] reports it instead.
    pub fn new(cfg: PimTrieConfig) -> Self {
        Self::try_new(cfg).expect("invalid PimTrieConfig")
    }

    /// An empty PIM-trie, with configuration validation.
    pub fn try_new(cfg: PimTrieConfig) -> Result<Self, PimTrieError> {
        cfg.validate()?;
        let (width, band) = (cfg.hash_width, SizeBand::new(cfg.k_b));
        let mut sys = PimSystem::new(cfg.p, |_| ModuleState::new(width, band));
        // Version handshake before any protocol traffic: Plain is the
        // implicit default and costs nothing; Compact is one metered
        // broadcast round (see WIRE_FORMAT.md, "Version negotiation").
        sys.negotiate_codec(cfg.codec);
        let hasher = PolyHasher::with_seed(cfg.seed);
        let mut t = PimTrie {
            sys,
            hasher,
            n_keys: 0,
            place_rng: rand_chacha::ChaCha8Rng::seed_from_u64(0x51AC_EE01),
            addrs: Addresses::new(cfg.p),
            cfg,
            redo_paths: 0,
            root_block: BlockRef { module: 0, slot: 0 },
            root_meta: MetaRef { module: 0, slot: 0 },
            seq: 0,
            journal: std::collections::BTreeMap::new(),
            quarantined: std::collections::BTreeSet::new(),
            scoped: crate::ScopedBatchStats::default(),
            resident: crate::resident::ResidentMeta::default(),
            master: crate::resident::MasterTable::new(width),
            last_match: crate::MatchStats::default(),
        };
        t.bootstrap()?;
        Ok(t)
    }

    /// Convenience bulk constructor: `new` + batched inserts.
    pub fn build(cfg: PimTrieConfig, keys: &[BitStr], values: &[u64]) -> Self {
        assert_eq!(keys.len(), values.len());
        let mut t = Self::new(cfg);
        let step = 1 << 16;
        for i in (0..keys.len()).step_by(step) {
            let j = (i + step).min(keys.len());
            t.insert_batch(&keys[i..j], &values[i..j]);
        }
        t
    }

    /// Draw a placement target uniformly from the non-quarantined
    /// modules. With an empty quarantine set (the fault-free path) this
    /// is a single RNG draw, so the placement sequence is bit-identical
    /// to a build that never quarantined anything; with quarantined
    /// modules it rejection-samples past them, keeping new blocks off
    /// modules whose return path is known dead. Should every module be
    /// quarantined (the scoped drivers never let that happen), the plain
    /// draw is returned rather than looping forever.
    pub(crate) fn random_module(&mut self) -> u32 {
        let p = self.sys.p() as u32;
        let mut m = self.place_rng.gen_range(0..p);
        if self.quarantined.len() >= p as usize {
            return m;
        }
        while self.quarantined.contains(&m) {
            m = self.place_rng.gen_range(0..p);
        }
        m
    }

    pub(crate) fn bootstrap(&mut self) -> Result<(), PimTrieError> {
        pim_sim::in_op(
            self,
            |t| t.sys.metrics_mut(),
            "build",
            |t| {
                t.t_phase("bootstrap");
                t.bootstrap_inner()
            },
        )
    }

    fn bootstrap_inner(&mut self) -> Result<(), PimTrieError> {
        // Root block: the empty string, on a random module; its meta-block
        // (a single node) on the next draw. Both addresses are the host's,
        // so the block carries its meta back-pointer and one round places
        // both.
        let m = self.random_module();
        let block = self.addrs.block(m);
        let mm = self.random_module();
        let meta = self.addrs.meta(mm, 1);
        let rm = root_meta(&self.hasher, &BitStr::new());
        let mut out = Scatter::new(self.sys.p());
        let msg = PutBlockMsg {
            trie: TrieMsg(Trie::new()),
            root_depth: 0,
            root_hash: rm.hash,
            s_last: BitsMsg(BitStr::new()),
            pre_hash: rm.pre_hash,
            rem: BitsMsg(rm.rem.clone()),
            parent: None,
            mirrors: Vec::new(),
            meta: Some((meta, 0)),
        };
        let req = Req::PutBlock {
            slot: block.slot,
            msg: Box::new(msg),
        };
        out.push(m as usize, Read::Ack, req);
        let msg = PutMetaMsg {
            nodes: vec![rm.new_meta_node(block)],
            root_idx: 0,
            parent: None,
            children: Vec::new(),
            parents: vec![None],
        };
        let req = Req::PutMeta {
            slot: meta.slot,
            msg,
        };
        out.push(mm as usize, Read::Ack, req);
        self.place("bootstrap", out)?;
        self.master.insert(meta, &rm, block);
        self.root_block = block;
        self.root_meta = meta;
        Ok(())
    }

    /// Run a round that fills host-chosen slots and rewires links, and
    /// collect what its replies tagged [`Read::Removal`] and
    /// [`Read::Full`] report. A module that found a named slot live, or a
    /// slot a request rewires empty, is a [`PimTrieError::Protocol`]
    /// error: the host's allocator and the module's slab disagree.
    pub(crate) fn place(
        &mut self,
        name: &str,
        out: Scatter<Read, Req>,
    ) -> Result<Placed, PimTrieError> {
        let mut placed = Placed::default();
        for (m, read, resp) in self.rounds(name, out)? {
            match (read, resp) {
                (_, Resp::SlotTaken { slot }) => {
                    return Err(PimTrieError::Protocol(format!(
                        "{name}: slot {slot} of module {m} is already live"
                    )));
                }
                (_, Resp::BadSlot { slot }) => {
                    return Err(PimTrieError::Protocol(format!(
                        "{name}: slot {slot} of module {m} holds nothing"
                    )));
                }
                (
                    Read::Removal(mref),
                    Resp::MetaVitals {
                        nodes: 0,
                        parent: Some(pm),
                    },
                ) => placed.emptied.push((mref, pm)),
                (Read::Full(mref), Resp::MetaFull(full)) => placed.full.push((mref, full)),
                (Read::Full(_), _) => return Err(unexpected(name)),
                _ => {}
            }
        }
        Ok(placed)
    }

    /// Run one *logical* BSP round: ship `out`'s boxes, and hand the
    /// replies back in their place, paired with the tags `out` was built
    /// with (see [`Scatter::gather`]) — iterate the result for
    /// `(module, tag, reply)`. A module that answered more or fewer times
    /// than it was asked is a [`PimTrieError::Protocol`] error.
    pub(crate) fn rounds<T>(
        &mut self,
        name: &str,
        mut out: Scatter<T, Req>,
    ) -> Result<Scatter<T, Resp>, PimTrieError> {
        let replies = self.exchange(name, out.take_boxes())?;
        out.gather(replies)
            .map_err(|e| PimTrieError::Protocol(format!("{name}: {e}")))
    }

    /// The untagged half of [`Self::rounds`] — kept free of the tag type
    /// so the module handler is compiled into one round, not one per tag.
    ///
    /// Without fault tolerance this is exactly one physical round through
    /// the plain handler — the same code and metering as a build without
    /// the fault subsystem. With [`PimTrieConfig::fault_tolerance`] on,
    /// every message travels in a CRC-sealed envelope and the round
    /// becomes a bounded retry ladder: corrupt or missing replies are
    /// re-requested (the module's at-most-once cache prevents double
    /// execution) until all requests are answered, the retry budget is
    /// exhausted, or a module reports a rebooted (blank) state.
    fn exchange(
        &mut self,
        name: &str,
        inbox: Vec<Vec<Req>>,
    ) -> Result<Vec<Vec<Resp>>, PimTrieError> {
        if !self.resident.is_empty() {
            // Coherence of the host-resident top of the meta-block tree:
            // every mutating request flows through here (sealed or not),
            // so classifying the outbox before dispatch guarantees no copy
            // can go stale. Crash recovery is covered too — rebuilds
            // broadcast `ResetModule` through this same path before
            // re-running any op.
            let mut metas = 0u64;
            for (m, msgs) in inbox.iter().enumerate() {
                for req in msgs {
                    metas += match req.touches(m as u32) {
                        Touch::Meta(mref) => u64::from(self.resident.invalidate(mref)),
                        Touch::Reset => self.resident.clear(),
                        Touch::NoCopy => 0,
                    };
                }
            }
            self.sys.metrics_mut().resident_stats_mut().invalidations += metas;
            self.note_resident_words();
        }
        if !self.cfg.fault_tolerance {
            let hasher = &self.hasher;
            return Ok(self.sys.round(name, inbox, |ctx, msgs| {
                msgs.into_iter().map(|m| handle(ctx, hasher, m)).collect()
            }));
        }
        self.rounds_sealed(name, inbox)
    }

    fn rounds_sealed(
        &mut self,
        name: &str,
        inbox: Vec<Vec<Req>>,
    ) -> Result<Vec<Vec<Resp>>, PimTrieError> {
        let p = self.sys.p();
        self.seq += 1;
        let seq = self.seq;
        let store = inbox;
        let mut results: Vec<Vec<Option<Resp>>> = store
            .iter()
            .map(|v| (0..v.len()).map(|_| None).collect())
            .collect();
        let mut outstanding: usize = store.iter().map(Vec::len).sum();
        let mut attempt: u32 = 0;
        loop {
            let sealed: Vec<Vec<SealedReq>> = (0..p)
                .map(|m| {
                    store[m]
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| results[m][*i].is_none())
                        .map(|(i, r)| SealedReq::seal(seq, i as u32, r.clone()))
                        .collect()
                })
                .collect();
            let sent: Vec<usize> = sealed.iter().map(Vec::len).collect();
            if attempt > 0 {
                let n_retried = sent.iter().map(|&n| n as u64).sum::<u64>();
                let st = self.sys.metrics_mut().fault_stats_mut();
                st.retries += n_retried;
                st.recovery_rounds += 1;
                // the retry round is recovery work: the tracer tags it
                // `recovery/retransmit` without touching the op's sticky
                // phase, so attribution resumes cleanly afterwards
                if let Some(t) = self.sys.metrics_mut().tracer_mut() {
                    t.note_retries(n_retried);
                }
            }
            let hasher = &self.hasher;
            let outs = self.sys.round(name, sealed, |ctx, msgs| {
                msgs.into_iter()
                    .map(|sr| handle_sealed(ctx, hasher, sr))
                    .collect()
            });
            let mut corrupt = 0u64;
            let mut missing = 0u64;
            let mut lost: Option<u32> = None;
            for (m, replies) in outs.into_iter().enumerate() {
                let mut answered = 0usize;
                for sr in replies {
                    answered += 1;
                    if sr.seq != seq || !sr.verify() {
                        corrupt += 1;
                        continue;
                    }
                    let i = sr.idx as usize;
                    if i >= results[m].len() || results[m][i].is_some() {
                        // a flip landed in the frame header yet produced a
                        // plausible index; the real reply is still missing
                        corrupt += 1;
                        continue;
                    }
                    match sr.inner {
                        Resp::Rebooted => lost = Some(m as u32),
                        Resp::CorruptReq => corrupt += 1,
                        // not run yet: stays outstanding, so it is retried
                        Resp::Deferred => {}
                        r => {
                            results[m][i] = Some(r);
                            outstanding -= 1;
                        }
                    }
                }
                missing += (sent[m] - answered.min(sent[m])) as u64;
            }
            if corrupt > 0 || missing > 0 {
                let st = self.sys.metrics_mut().fault_stats_mut();
                st.corruptions_detected += corrupt;
                st.missing_detected += missing;
            }
            if let Some(module) = lost {
                return Err(PimTrieError::ModuleLost { module });
            }
            if outstanding == 0 {
                break;
            }
            attempt += 1;
            if attempt > self.cfg.max_round_retries {
                // The unanswered (module, idx) pairs pinpoint the blast
                // radius: only these modules still owe replies. Callers
                // scope the failure to the keys routed through them.
                let modules: Vec<u32> = (0..p)
                    .filter(|&m| results[m].iter().any(Option::is_none))
                    .map(|m| m as u32)
                    .collect();
                return Err(PimTrieError::RecoveryExhausted {
                    round: name.to_string(),
                    attempts: attempt - 1,
                    modules,
                });
            }
        }
        Ok(results
            .into_iter()
            .map(|v| v.into_iter().map(Option::unwrap).collect())
            .collect())
    }
}

// ---------------------------------------------------------------------
// Recursive meta decomposition (Lemmas 4.5 / 4.6)
// ---------------------------------------------------------------------

/// A node of a chunk's local meta-tree, as assembled on the CPU.
#[derive(Clone, Debug)]
pub(crate) struct ChunkNode {
    pub block: BlockRef,
    pub meta: RootMeta,
    pub parent: Option<usize>,
    pub children: Vec<usize>,
}

/// One piece of the decomposition: a future meta-block.
#[derive(Debug)]
pub(crate) struct Plan {
    /// chunk-node indices covered by this piece
    pub nodes: Vec<usize>,
    /// the piece's root chunk-node
    pub root: usize,
    /// child plans: (plan index, chunk-node they hang under)
    pub children: Vec<(usize, usize)>,
}

/// Decompose the tree rooted at `root` into plans of at most `k_smb`
/// nodes; returns (plans, plan index containing `root`, node→plan map).
pub(crate) fn cut_decompose(
    tree: &mut [ChunkNode],
    root: usize,
    k_smb: usize,
) -> (Vec<Plan>, usize, BTreeMap<usize, usize>) {
    let mut plans = Vec::new();
    let mut locate = BTreeMap::new();
    let root_plan = rec(tree, root, k_smb.max(1), &mut plans, &mut locate);
    (plans, root_plan, locate)
}

fn subtree_nodes(tree: &[ChunkNode], root: usize, out: &mut Vec<usize>) {
    out.push(root);
    for c in tree[root].children.clone() {
        subtree_nodes(tree, c, out);
    }
}

fn subtree_size(tree: &[ChunkNode], root: usize) -> usize {
    1 + tree[root]
        .children
        .iter()
        .map(|c| subtree_size(tree, *c))
        .sum::<usize>()
}

/// Lemma 4.5: the node whose out-edge removal leaves every component at
/// most `(n+1)/2` nodes — found by walking down heavy children.
fn cut_node(tree: &[ChunkNode], root: usize, n: usize) -> usize {
    let half = n.div_ceil(2);
    let mut v = root;
    loop {
        let heavy = tree[v]
            .children
            .iter()
            .map(|c| (*c, subtree_size(tree, *c)))
            .find(|(_, s)| *s >= half);
        match heavy {
            Some((c, _)) => v = c,
            None => return v,
        }
    }
}

fn rec(
    tree: &mut [ChunkNode],
    root: usize,
    k_smb: usize,
    plans: &mut Vec<Plan>,
    locate: &mut BTreeMap<usize, usize>,
) -> usize {
    let n = subtree_size(tree, root);
    if n <= k_smb {
        let mut nodes = Vec::with_capacity(n);
        subtree_nodes(tree, root, &mut nodes);
        let id = plans.len();
        for &x in &nodes {
            locate.insert(x, id);
        }
        plans.push(Plan {
            nodes,
            root,
            children: Vec::new(),
        });
        return id;
    }
    // Lemma 4.5's cut node may be the root itself (all children light):
    // the upper part then degenerates to the root alone, which is fine.
    let v = cut_node(tree, root, n);
    let kids = std::mem::take(&mut tree[v].children);
    let upper_plan = rec(tree, root, k_smb, plans, locate);
    for k in kids {
        tree[k].parent = None;
        let child_plan = rec(tree, k, k_smb, plans, locate);
        let holder = locate[&v];
        plans[holder].children.push((child_plan, v));
    }
    upper_plan
}

// ---------------------------------------------------------------------
// Plan placement
// ---------------------------------------------------------------------

/// What the host reads from one reply of a [`PimTrie::place`] round.
#[derive(Clone, Copy)]
pub(crate) enum Read {
    /// only that the op succeeded
    Ack,
    /// a meta node removal from this meta-block: did it empty it?
    Removal(MetaRef),
    /// this meta-block, pulled whole after the round's last write to it
    Full(MetaRef),
}

/// What a [`PimTrie::place`] round's replies reported, in reply order.
#[derive(Default)]
pub(crate) struct Placed {
    /// meta-blocks a removal emptied, each with its parent
    pub emptied: Vec<(MetaRef, MetaRef)>,
    /// meta-blocks pulled whole
    pub full: Vec<(MetaRef, MetaFullOut)>,
}

/// One chunk to (re)place: its node tree, the cut decomposition, and how
/// it attaches to the world.
pub(crate) struct PlaceJob {
    pub tree: Vec<ChunkNode>,
    pub plans: Vec<Plan>,
    pub root_plan: usize,
    /// the meta-block the root plan replaces, in place
    pub replace_root_at: MetaRef,
    /// surviving external children: (holding plan index, payload)
    pub extra: Vec<(usize, NewMetaChild)>,
}

impl PimTrie {
    /// Place every plan of `jobs` in one round: each job's root plan
    /// replaces, in place, the meta-block the job re-cuts (the chunk keeps
    /// its address), and every other plan lands on a random module. A job
    /// may carry surviving external child meta-blocks (plan index, payload
    /// with `under_node` as a chunk-node index). With every address known
    /// up front, each `PutMeta` carries its parent and children, and the
    /// same round points every covered block at its new meta node (node
    /// `i` of a plan sits at slot `i`) and every surviving child at its
    /// new parent. An image in `waiting` whose block moves to a new meta
    /// node is pointed at it too.
    pub(crate) fn place_chunks(
        &mut self,
        jobs: &[PlaceJob],
        waiting: &mut BTreeMap<BlockRef, BlockDataOut>,
    ) -> Result<(), PimTrieError> {
        fn mark(plans: &[Plan], pi: usize, d: usize, depth: &mut [usize]) {
            depth[pi] = d;
            for (c, _) in &plans[pi].children {
                mark(plans, *c, d + 1, depth);
            }
        }
        // Draw deepest plans first, then by job and plan. The order fixes
        // every meta-block's module and slot: keep it, or the layout of
        // every index built through here moves.
        let mut order = Vec::new();
        for (ji, job) in jobs.iter().enumerate() {
            let mut depth = vec![0usize; job.plans.len()];
            mark(&job.plans, job.root_plan, 0, &mut depth);
            order.extend(
                depth
                    .into_iter()
                    .enumerate()
                    .map(|(pi, d)| (Reverse(d), ji, pi)),
            );
        }
        order.sort_unstable();
        // every plan is in `order` once, so each entry is overwritten
        let mut at: Vec<Vec<MetaRef>> = jobs
            .iter()
            .map(|j| vec![MetaRef { module: 0, slot: 0 }; j.plans.len()])
            .collect();
        for (_, ji, pi) in order {
            let job = &jobs[ji];
            let n = job.plans[pi].nodes.len() as u32;
            at[ji][pi] = if pi == job.root_plan {
                self.addrs.refill(job.replace_root_at, n);
                job.replace_root_at
            } else {
                let m = self.random_module();
                self.addrs.meta(m, n)
            };
        }

        let mut out = Scatter::new(self.sys.p());
        for (job, at) in jobs.iter().zip(&at) {
            let mut parent = vec![None; job.plans.len()];
            for (pi, plan) in job.plans.iter().enumerate() {
                for (c, _) in &plan.children {
                    parent[*c] = Some(at[pi]);
                }
            }
            for (pi, plan) in job.plans.iter().enumerate() {
                let me = at[pi];
                let root = &job.tree[plan.root];
                self.master.insert(me, &root.meta, root.block);
                let extra = job.extra.iter().filter(|(x, _)| *x == pi).map(|(_, c)| c);
                let msg = plan_to_msg(&job.tree, &job.plans, plan, at, parent[pi], extra);
                let req = if pi == job.root_plan {
                    Req::ReplaceMeta { slot: me.slot, msg }
                } else {
                    Req::PutMeta { slot: me.slot, msg }
                };
                out.push(me.module as usize, Read::Ack, req);
                for (i, &cn) in plan.nodes.iter().enumerate() {
                    let b = job.tree[cn].block;
                    if let Some(image) = waiting.get_mut(&b) {
                        image.meta = Some((me, i as u32));
                    }
                    let req = Req::SetBlockMeta {
                        slot: b.slot,
                        meta: me,
                        meta_slot: i as u32,
                    };
                    out.push(b.module as usize, Read::Ack, req);
                }
            }
            for (pi, child) in &job.extra {
                let req = Req::SetMetaParent {
                    slot: child.mref.slot,
                    parent: Some(at[*pi]),
                };
                out.push(child.mref.module as usize, Read::Ack, req);
            }
        }
        self.place("msplit.place", out)?;
        Ok(())
    }
}

/// The `PutMeta` payload of one plan, placed at `at[plan]` under `parent`
/// (`None` keeps a replaced meta-block's parent).
fn plan_to_msg<'a>(
    tree: &[ChunkNode],
    plans: &[Plan],
    plan: &Plan,
    at: &[MetaRef],
    parent: Option<MetaRef>,
    extra: impl Iterator<Item = &'a NewMetaChild>,
) -> PutMetaMsg {
    let idx_of: BTreeMap<usize, u32> = plan
        .nodes
        .iter()
        .enumerate()
        .map(|(i, &cn)| (cn, i as u32))
        .collect();
    let nodes: Vec<NewMetaNode> = plan
        .nodes
        .iter()
        .map(|&cn| tree[cn].meta.new_meta_node(tree[cn].block))
        .collect();
    let parents: Vec<Option<u32>> = plan
        .nodes
        .iter()
        .map(|&cn| tree[cn].parent.and_then(|p| idx_of.get(&p).copied()))
        .collect();
    let mut children: Vec<NewMetaChild> = plan
        .children
        .iter()
        .map(|(cp, under)| {
            let croot = &tree[plans[*cp].root];
            NewMetaChild {
                mref: at[*cp],
                under_node: idx_of[under],
                root_block: croot.block,
                depth: croot.meta.depth,
                pre_hash: croot.meta.pre_hash,
                rem: BitsMsg(croot.meta.rem.clone()),
                s_last: BitsMsg(croot.meta.s_last.clone()),
            }
        })
        .collect();
    // surviving external children (rebuilds): under_node arrives as a
    // chunk-node index; resolve to this plan's local index
    for c in extra {
        children.push(NewMetaChild {
            under_node: idx_of[&(c.under_node as usize)],
            ..c.clone()
        });
    }
    PutMetaMsg {
        nodes,
        root_idx: idx_of[&plan.root],
        parent,
        children,
        parents,
    }
}
