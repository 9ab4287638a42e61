//! **PIM-trie** — a skew-resistant, batch-parallel trie for
//! Processing-in-Memory systems (Kang et al., SPAA '23).
//!
//! The index stores variable-length bit-string keys across the `P` modules
//! of a [`pim_sim::PimSystem`] and supports four batch operations:
//!
//! * [`PimTrie::lcp_batch`] — LongestCommonPrefix for a batch of strings,
//! * [`PimTrie::insert_batch`] / [`PimTrie::delete_batch`],
//! * [`PimTrie::subtree_batch`] — SubtreeQuery.
//!
//! # How it works (paper §4–5)
//!
//! The *data trie* is cut into **blocks** of `O(K_B)` words (§4.2) that are
//! scattered uniformly at random over the modules; each block's root is
//! replicated as a *mirror leaf* in its parent block. Block-root metadata
//! (node hash, PIM address, `S_pre`/`S_rem` pivot decomposition, `S_last`)
//! lives in the **hash value manager** (§4.4): a *meta-tree* over blocks,
//! itself cut into **meta-blocks**, recursively decomposed by cut nodes
//! (Lemmas 4.5–4.6) into one *meta-block tree*. The host keeps the
//! **master table** of Algorithm 4 over it: one entry per meta-block root.
//! (The paper cuts the meta-tree into many such trees and replicates the
//! table on the modules; this implementation has one tree and holds the
//! table on the host — DESIGN.md, deviations.)
//!
//! A batch is processed by **trie matching** (§4.1, §4.3): the CPU builds
//! the *query trie* of the batch (Algorithm 1), finds each path's deepest
//! meta-block root in the master table, matches the pieces below them in
//! those meta-blocks in one round (on host-resident copies of the top ones,
//! no IO; the rest on the modules), then matches blocks — using **hash
//! comparisons at pivot positions** for coarse
//! elimination and **bit-by-bit comparison** inside the matched blocks for
//! the exact result. Work is spread with the **push-pull** rule: small query pieces
//! are pushed to the module owning the data; large pieces pull the
//! (bounded-size) data to the CPU instead. All communication flows through
//! the simulator and is metered in words, rounds, and per-module balance.
//!
//! Hash collisions (forced in experiments by narrowing
//! [`PimTrieConfig::hash_width`]) are caught by the **verification** rules
//! of §4.4.3 — `S_last` comparisons at hash matches, a full-width pivot
//! hash comparison between each query piece and its target block, and
//! bit-exact matching inside critical blocks — and corrected by re-running
//! the affected paths through the exact [`slowpath`], so results are exact
//! regardless of hash width.
//!
//! ```
//! use pim_trie::{PimTrie, PimTrieConfig};
//! use bitstr::BitStr;
//!
//! let mut index = PimTrie::new(PimTrieConfig::for_modules(8));
//! let keys: Vec<BitStr> = ["00001", "10100000", "1010111", "10111"]
//!     .iter().map(|s| BitStr::from_bin_str(s)).collect();
//! index.insert_batch(&keys, &[1, 2, 3, 4]);
//!
//! let queries = vec![BitStr::from_bin_str("101001")];
//! assert_eq!(index.lcp_batch(&queries), vec![5]); // Figure 1's example
//!
//! // every CPU↔PIM word crossed the metered simulator
//! let m = index.system().metrics();
//! assert!(m.io_rounds() > 0 && m.io_volume() > 0);
//! ```
//!
//! # Paper references
//!
//! Section marks (§x.y), lemmas, tables and figures cite *PIM-trie: A
//! Skew-resistant Trie for Processing-in-Memory* (Kang et al.) unless a
//! doc says otherwise. Items that implement one specific construct of the
//! paper close their docs with a `Paper:` line naming the section(s), so
//! `grep 'Paper:'` maps the paper onto the code.

#![warn(missing_docs)]

mod build;
pub mod codec;
mod config;
mod error;
pub mod fixed;
mod hvm;
mod matching;
mod module;
mod ops;
mod refs;
mod resident;
mod schema;
pub mod slowpath;
mod wire_guard;

pub use config::PimTrieConfig;
pub use error::PimTrieError;
pub use matching::{MatchStats, MatchedTrie};
pub use module::{ModuleState, SizeBand};
pub use refs::{BlockRef, MetaRef};
// Re-exported so fault, residency and serving experiments need only this crate.
pub use pim_sim::{
    CodecStats, CrashSpec, FaultPlan, FaultStats, JamSpec, ResidentStats, ServeStats, WireCodec,
};

use bitstr::hash::PolyHasher;
use pim_sim::PimSystem;

/// Run `f` on a rayon pool of `threads` threads (0 = automatic:
/// `RAYON_NUM_THREADS`, else the machine's available parallelism).
///
/// The pool runs the one parallel operation the stack has: module
/// dispatch in [`pim_sim::PimSystem::round`]. Results and all metered
/// counters are bit-identical for any `threads` value (see DESIGN.md
/// "Observability"); only wall-clock changes.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("spawn worker threads")
        .install(f)
}

/// The distributed PIM-trie index (host-side handle).
pub struct PimTrie {
    pub(crate) sys: PimSystem<ModuleState>,
    pub(crate) cfg: PimTrieConfig,
    pub(crate) hasher: PolyHasher,
    /// number of keys stored
    pub(crate) n_keys: usize,
    /// placement RNG (uniform random block/meta-block distribution)
    pub(crate) place_rng: rand_chacha::ChaCha8Rng,
    /// the host's copies of the modules' slot allocators: every module
    /// address is drawn here before the object is sent
    pub(crate) addrs: refs::Addresses,
    /// count of verification-triggered redo walks (collision repairs)
    pub(crate) redo_paths: u64,
    /// the data trie's root block (depth 0); its address is stable across
    /// repartitions
    pub(crate) root_block: refs::BlockRef,
    /// the root of the one meta-block tree: the meta-block whose root node
    /// describes `root_block`. Matching starts here. Stable for the life
    /// of the index — meta splits re-place it at the same address, merges
    /// never touch the root block's meta node — and reset
    /// by the bootstrap of a journal rebuild
    pub(crate) root_meta: refs::MetaRef,
    /// sealed-wire round sequence counter (fault tolerance only)
    pub(crate) seq: u64,
    /// host-side key journal, maintained only with
    /// [`PimTrieConfig::fault_tolerance`] on: the source of truth the
    /// trie is rebuilt from after a module crash with state loss
    pub(crate) journal: std::collections::BTreeMap<bitstr::BitStr, u64>,
    /// modules excluded from new placements after a
    /// [`PimTrieError::RecoveryExhausted`] named them (scoped batch ops
    /// only); empty on the fault-free path, where placement draws are
    /// bit-identical to a build that never heard of quarantines
    pub(crate) quarantined: std::collections::BTreeSet<u32>,
    /// scoped-batch bisection instrumentation (see
    /// [`ScopedBatchStats`]); host-side observation only, never metered
    pub(crate) scoped: ScopedBatchStats,
    /// host-resident copies of the top of the meta-block tree (see
    /// [`resident`]): matched on the CPU, dropped when a request rewrites
    /// their source, re-filled by the descent's own pull
    pub(crate) resident: resident::ResidentMeta,
    /// Algorithm 4's master table: one entry per meta-block root, matched
    /// on the host so every query path goes straight to its deepest
    /// meta-block (see [`resident::MasterTable`])
    pub(crate) master: resident::MasterTable,
    /// counters of the most recent [`PimTrie::match_batch`]
    pub(crate) last_match: MatchStats,
}

/// Instrumentation counters of the `try_*_batch_scoped` bisection
/// driver — how much batch-splitting the failure-scoping machinery
/// actually did. Pure host-side observation: the counters are bumped
/// outside the metered paths, so reading (or ignoring) them perturbs
/// no simulated cost, and on the fault-free happy path everything but
/// `batches` and `runs` stays 0 with `runs == batches`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScopedBatchStats {
    /// scoped front-end invocations (one per `try_*_batch_scoped` call
    /// with a non-empty batch)
    pub batches: u64,
    /// sub-batch executions (happy path: exactly one per batch)
    pub runs: u64,
    /// bisection splits after a multi-key sub-batch failed
    pub splits: u64,
    /// single-key retries granted because the failure grew the
    /// quarantine set
    pub retries: u64,
    /// keys that kept a terminal error after bisection bottomed out
    pub keys_failed: u64,
}

impl PimTrie {
    /// Attach a fresh [`pim_sim::Tracer`] to the underlying metrics so
    /// every BSP round, CPU charge and recovery retry is attributed to
    /// op/phase spans (`lcp/hash-probe`, `insert/graft`,
    /// `recovery/retransmit`, …). Tracing never changes the metered
    /// counters; see [`pim_sim::Metrics::enable_tracing`].
    pub fn enable_tracing(&mut self) {
        self.sys.metrics_mut().enable_tracing();
    }

    /// Set the tracer phase to `<current-op>/<stage>` (or bare `stage`
    /// outside any op span). No-op when tracing is off.
    pub(crate) fn t_phase(&mut self, stage: &'static str) {
        if let Some(t) = self.sys.metrics_mut().tracer_mut() {
            t.set_phase(stage);
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.n_keys
    }

    /// True iff no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.n_keys == 0
    }

    /// The underlying simulated PIM system (metrics, module inspection).
    pub fn system(&self) -> &PimSystem<ModuleState> {
        &self.sys
    }

    /// Mutable access to the simulator (metric snapshots etc.).
    pub fn system_mut(&mut self) -> &mut PimSystem<ModuleState> {
        &mut self.sys
    }

    /// The configuration this index was built with.
    pub fn config(&self) -> &PimTrieConfig {
        &self.cfg
    }

    /// Install a seeded [`FaultPlan`] on the underlying simulator, wiring
    /// its crash callback to wipe the module's memory and raise the
    /// `crashed` fence the recovery protocol keys on. Surviving the plan
    /// requires [`PimTrieConfig::fault_tolerance`]; without it the next
    /// injected fault will corrupt results or panic (which is exactly the
    /// behaviour the fault experiments compare against).
    pub fn install_faults(&mut self, plan: FaultPlan) {
        let (width, band) = (self.cfg.hash_width, SizeBand::new(self.cfg.k_b));
        self.sys.install_faults(
            plan,
            Some(Box::new(move |_id, state: &mut ModuleState| {
                *state = ModuleState::new(width, band);
                state.crashed = true;
            })),
        );
    }

    /// Remove an installed fault plan; subsequent rounds run clean.
    pub fn clear_faults(&mut self) {
        self.sys.clear_faults();
    }

    /// Number of query paths that needed a verification-triggered exact
    /// redo (only nonzero with narrow hash digests).
    pub fn redo_paths(&self) -> u64 {
        self.redo_paths
    }

    /// Modules currently quarantined by the scoped batch operations
    /// (`try_*_batch_scoped`): a module lands here when a
    /// [`PimTrieError::RecoveryExhausted`] named it, and placement then
    /// avoids it for new blocks. Empty on any fault-free run.
    pub fn quarantined(&self) -> &std::collections::BTreeSet<u32> {
        &self.quarantined
    }

    /// Forget all quarantined modules (e.g. after the operator replaced
    /// the faulty hardware and cleared the fault plan). Placement draws
    /// go back to the full module range.
    pub fn clear_quarantine(&mut self) {
        self.quarantined.clear();
    }

    /// Bisection instrumentation of the scoped batch front-ends (see
    /// [`ScopedBatchStats`]). On any fault-free run `runs == batches`
    /// and the other counters are 0.
    pub fn scoped_batch_stats(&self) -> &ScopedBatchStats {
        &self.scoped
    }

    /// Counters of the host-resident top of the meta-block tree (words
    /// held and their high-water mark, fills, invalidations, targets
    /// matched on the host). Shorthand for
    /// `self.system().metrics().resident_stats()`.
    pub fn resident_stats(&self) -> &ResidentStats {
        self.sys.metrics().resident_stats()
    }

    /// Entries of the host's master table: one per meta-block.
    pub fn master_entries(&self) -> usize {
        self.master.len()
    }

    /// Host words the master table holds, six an entry (an entry
    /// summary's five and the meta-block): `O(n / (K_B · K_SMB))`.
    pub fn master_words(&self) -> u64 {
        self.master.words()
    }

    /// Publish the resident set's size after it changed.
    pub(crate) fn note_resident_words(&mut self) {
        let held = self.resident.words();
        let rs = self.sys.metrics_mut().resident_stats_mut();
        rs.words = held;
        rs.words_high_water = rs.words_high_water.max(held);
    }

    /// Counters of the most recent [`PimTrie::match_batch`] (every batch
    /// operation runs one): what a monitor reads the descent's IO rounds
    /// from without holding the [`MatchedTrie`].
    pub fn last_match_stats(&self) -> MatchStats {
        self.last_match
    }

    /// Wire-codec counters (negotiated version, frames, plain vs encoded
    /// words). Under [`PimTrieConfig::codec`]` = Plain` the version is
    /// `Plain` and both word totals track the legacy metering. Shorthand
    /// for `self.system().metrics().codec_stats()`.
    pub fn codec_stats(&self) -> &pim_sim::CodecStats {
        self.sys.metrics().codec_stats()
    }

    /// Total words of PIM memory used by blocks and meta-blocks (the
    /// paper's space metric, Lemma 4.2 / 4.7).
    pub fn space_words(&self) -> u64 {
        self.sys.modules().map(|m| m.space_words()).sum()
    }

    /// Debug-only ground-truth key count: scans every module's blocks
    /// directly (not costed; assertions/tests only).
    pub fn count_keys_debug(&self) -> usize {
        self.sys
            .modules()
            .flat_map(|m| m.blocks.iter())
            .map(|(_, b)| b.n_real_keys())
            .sum()
    }

    /// Debug-only structural audit: returns human-readable descriptions of
    /// every invariant violation found (empty = healthy). Tests call this
    /// after each batch.
    pub fn audit_debug(&self) -> Vec<String> {
        let mut issues = Vec::new();
        // matching starts at `root_meta` without asking any module
        let rm = self.root_meta;
        match self.sys.module(rm.module as usize).metas.get(rm.slot) {
            None => issues.push(format!("root_meta {rm:?} names no live meta-block")),
            Some(mb) => {
                let root = mb.nodes.get(mb.root_node).map(|n| n.block);
                if root != Some(self.root_block) || mb.parent.is_some() {
                    issues.push(format!(
                        "root_meta {rm:?}: root node describes {root:?} under parent {:?}, want {:?} under None",
                        mb.parent, self.root_block
                    ));
                }
            }
        }
        // a resident copy stands in for its meta-block: it must hold
        // exactly what the module would answer a `FetchMeta` with now
        for (mref, index) in self.resident.iter() {
            let Some(mb) = self.sys.module(mref.module as usize).metas.get(mref.slot) else {
                issues.push(format!("resident copy of {mref:?}: no such meta-block"));
                continue;
            };
            let Ok(live) = module::summarize_meta(mb) else {
                issues.push(format!("{mref:?}: an index entry names an empty node slot"));
                continue;
            };
            let same = live.len() == index.len()
                && live.iter().zip(index.iter()).all(|(l, (_, h))| {
                    (l.depth, l.pre_hash, &l.rem, &l.s_last)
                        == (h.depth, h.pre_hash, &h.rem, &h.s_last)
                        && l.target == h.target
                });
            if !same {
                issues.push(format!("resident copy of {mref:?} is stale"));
            }
        }
        self.audit_slots(&mut issues);
        self.audit_meta_links(&mut issues);
        for (mi, m) in self.sys.modules().enumerate() {
            for (slot, b) in m.blocks.iter() {
                for (node, child) in &b.mirrors {
                    match b.trie.node(*node).value {
                        Some(v) if v == module::MIRROR_VALUE => {}
                        other => issues.push(format!(
                            "block m{mi}s{slot}: mirror {node:?} -> {child:?} has value {other:?}"
                        )),
                    }
                    if b.trie.node(*node).degree() != 0 {
                        issues.push(format!("block m{mi}s{slot}: mirror {node:?} is not a leaf"));
                    }
                    let cb = self
                        .sys
                        .module(child.module as usize)
                        .blocks
                        .get(child.slot);
                    match cb {
                        None => issues.push(format!(
                            "block m{mi}s{slot}: mirror {node:?} -> dangling {child:?}"
                        )),
                        Some(cb) => {
                            let want = b.root_depth + b.trie.node(*node).depth as u64;
                            if cb.root_depth != want {
                                issues.push(format!(
                                    "block m{mi}s{slot}: mirror {node:?} depth {want} != child root_depth {}",
                                    cb.root_depth
                                ));
                            }
                        }
                    }
                }
                if b.n_real_keys() == 0 && b.mirrors.is_empty() && b.parent.is_some() {
                    issues.push(format!(
                        "block m{mi}s{slot}: unmerged empty block (weight {})",
                        b.weight()
                    ));
                }
                // every non-mirror MIRROR_VALUE is an orphan sentinel
                for id in b.trie.node_ids() {
                    if b.trie.node(id).value == Some(module::MIRROR_VALUE)
                        && !b.mirrors.contains_key(&id)
                    {
                        issues.push(format!(
                            "block m{mi}s{slot}: orphan mirror sentinel at {id:?}"
                        ));
                    }
                }
            }
        }
        issues
    }

    /// The host authors every module address: its allocators must equal
    /// each module's slabs — block and meta-block slots per module, node
    /// slots per meta-block — live slots and free order both.
    fn audit_slots(&self, issues: &mut Vec<String>) {
        let mut diff = |what: String, host: &refs::SlotAlloc, module: &refs::SlotAlloc| {
            if host == module {
                return;
            }
            let bound = host.bound().max(module.bound());
            let split: Vec<u32> = (0..bound)
                .filter(|s| host.is_live(*s) != module.is_live(*s))
                .collect();
            issues.push(format!(
                "{what}: host allocator {host:?} and module slab {module:?} disagree at slots {split:?}"
            ));
        };
        for (mi, m) in self.sys.modules().enumerate() {
            let module = mi as u32;
            diff(
                format!("blocks of m{mi}"),
                self.addrs.blocks(module),
                m.blocks.slots(),
            );
            diff(
                format!("metas of m{mi}"),
                self.addrs.metas(module),
                m.metas.slots(),
            );
            for (slot, mb) in m.metas.iter() {
                let mref = MetaRef { module, slot };
                let empty = refs::SlotAlloc::default();
                let host = self.addrs.nodes().get(&mref).unwrap_or(&empty);
                diff(format!("nodes of {mref:?}"), host, mb.nodes.slots());
            }
        }
        for mref in self.addrs.nodes().keys() {
            if self
                .sys
                .module(mref.module as usize)
                .metas
                .get(mref.slot)
                .is_none()
            {
                issues.push(format!(
                    "host holds node slots of dropped meta-block {mref:?}"
                ));
            }
        }
    }

    /// Meta links follow the block tree: every meta node hangs under the
    /// node describing its block's parent block — its parent node, or for
    /// a meta-block's root node the node its parent meta-block lists it
    /// under — and its block points back at it. Each child a meta-block
    /// lists is rooted at the block it names and points back at it.
    fn audit_meta_links(&self, issues: &mut Vec<String>) {
        let block = |b: BlockRef| self.sys.module(b.module as usize).blocks.get(b.slot);
        let meta = |m: MetaRef| self.sys.module(m.module as usize).metas.get(m.slot);
        for (mi, m) in self.sys.modules().enumerate() {
            for (slot, mb) in m.metas.iter() {
                let mref = MetaRef {
                    module: mi as u32,
                    slot,
                };
                for (ns, n) in mb.nodes.iter() {
                    let Some(b) = block(n.block) else {
                        issues.push(format!(
                            "{mref:?} node {ns}: describes dangling {:?}",
                            n.block
                        ));
                        continue;
                    };
                    if b.meta != Some((mref, ns)) {
                        issues.push(format!(
                            "{mref:?} node {ns}: {:?} points at meta node {:?}",
                            n.block, b.meta
                        ));
                    }
                    // the block described by the node this one hangs under
                    let above = match (ns == mb.root_node, n.parent, mb.parent) {
                        (false, Some(ps), _) => mb.nodes.get(ps).map(|p| p.block),
                        (true, None, Some(pm)) => meta(pm).and_then(|pmb| {
                            let c = pmb.children.iter().find(|c| c.mref == mref)?;
                            pmb.nodes.get(c.under_node).map(|u| u.block)
                        }),
                        (true, None, None) if mref == self.root_meta => None,
                        _ => {
                            issues.push(format!(
                                "{mref:?} node {ns}: parent {:?} does not fit root node {}",
                                n.parent, mb.root_node
                            ));
                            continue;
                        }
                    };
                    if above != b.parent {
                        issues.push(format!(
                            "{mref:?} node {ns}: {:?} hangs under the node of {above:?}, its parent block is {:?}",
                            n.block, b.parent
                        ));
                    }
                }
                // the master table's entry is this meta-block's root entry
                let root = mb.nodes.get(mb.root_node);
                let want = root.and_then(|n| Some((n.block, mb.index.get(n.entry_slot)?)));
                let same = match (self.master.get(mref), want) {
                    (Some(e), Some((block, r))) => {
                        (e.depth, e.pre_hash, &e.rem, &e.s_last)
                            == (r.depth, r.pre_hash, &r.rem, &r.s_last)
                            && e.target.block == block
                            && e.target.meta == mref
                    }
                    _ => false,
                };
                if !same {
                    issues.push(format!(
                        "master table entry of {mref:?} is {:?}, not its root entry",
                        self.master.get(mref).map(|e| (e.depth, e.target))
                    ));
                }
                for c in &mb.children {
                    let child = meta(c.mref);
                    let root = child
                        .and_then(|x| x.nodes.get(x.root_node))
                        .map(|n| n.block);
                    let parent = child.and_then(|x| x.parent);
                    if root != Some(c.root_block) || parent != Some(mref) {
                        issues.push(format!(
                            "{mref:?} lists child {:?} rooted at {:?}; it is rooted at {root:?} under {parent:?}",
                            c.mref, c.root_block
                        ));
                    }
                }
            }
        }
        let live: usize = self.sys.modules().map(|m| m.metas.len()).sum();
        if self.master.len() != live {
            issues.push(format!(
                "master table holds {} entries for {live} meta-blocks",
                self.master.len()
            ));
        }
    }

    /// Debug-only shape of the meta-block tree: per level from the root
    /// (level 0), how many meta-blocks it has and how many of them the host
    /// holds a resident copy of (simulator peek, not costed). The vector's
    /// length is the tree's height.
    pub fn meta_levels_debug(&self) -> Vec<(usize, usize)> {
        let mut levels = Vec::new();
        let mut wave = vec![self.root_meta];
        while !wave.is_empty() {
            let held = wave
                .iter()
                .filter(|m| self.resident.get(**m).is_some())
                .count();
            levels.push((wave.len(), held));
            wave = wave
                .iter()
                .filter_map(|m| self.sys.module(m.module as usize).metas.get(m.slot))
                .flat_map(|mb| mb.children.iter().map(|c| c.mref))
                .collect();
        }
        levels
    }

    /// Debug-only ground-truth item dump: walks the block tree from the
    /// root via mirrors (not costed; tests only). Returns (key, value)
    /// pairs in no particular order.
    pub fn items_debug(&self) -> Vec<(bitstr::BitStr, u64)> {
        use trie_core::NodeId;
        let mut out = Vec::new();
        let mut stack = vec![(self.root_block, bitstr::BitStr::new())];
        while let Some((bref, prefix)) = stack.pop() {
            let block = self
                .sys
                .module(bref.module as usize)
                .blocks
                .get(bref.slot)
                .expect("dangling block ref");
            let mut walk = vec![(NodeId::ROOT, prefix)];
            while let Some((id, s)) = walk.pop() {
                match block.trie.node(id).value {
                    Some(v) if v != module::MIRROR_VALUE => out.push((s.clone(), v)),
                    _ => {}
                }
                if let Some(child) = block.mirrors.get(&id) {
                    stack.push((*child, s.clone()));
                }
                for c in block.trie.node(id).children.iter().flatten() {
                    let mut cs = s.clone();
                    cs.append(&block.trie.node(*c).edge.as_slice());
                    walk.push((*c, cs));
                }
            }
        }
        out
    }
}
