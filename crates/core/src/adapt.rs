//! Adaptive blocking: per-block traffic tracking for online
//! repartitioning.
//!
//! The build-time partition fixes each block's module forever, so a
//! workload whose hotspot *moves* drives per-module IO balance toward
//! `P` no matter how well the initial cut was balanced. This module
//! keeps a decayed, deterministic estimate of per-block and per-module
//! CPU↔PIM traffic; `PimTrie::adapt_maintain` (in `ops.rs`) consults it
//! after every batch op to decide which hot blocks to split, which
//! blocks to migrate off overloaded modules, and which adapt-spawned
//! pieces have gone cold enough to merge back.
//!
//! Design rules (mirroring the host cache in `cache.rs`):
//!
//! * **Determinism** — the decay clock is the op counter (period
//!   [`DECAY_PERIOD`], matching the cache's `T = 4`), all containers are
//!   `BTreeMap`/`BTreeSet`, ties break on [`BlockRef`] order, and no
//!   randomness is consumed anywhere. Counters are bit-identical at any
//!   thread count.
//! * **Zero cost off** — `threshold = 0` (the config sentinel) makes
//!   every method an early-returning no-op; the legacy path is
//!   byte-identical, including RNG draws.
//! * **Exact** — one decayed counter per touched block; decay drops
//!   dust, so the map holds only blocks with recent traffic.
//!
//! Paper: §6.3 names skew-adaptive placement as the scaling direction;
//! PIM-tree and JSPIM (PAPERS.md) demonstrate data-side adaptation.

use crate::fixed::Fx;
use crate::module::Req;
use crate::refs::BlockRef;
use pim_sim::Wire;
use std::collections::{BTreeMap, BTreeSet};

/// Ops between decay sweeps (halve every counter, drop dust). Matches
/// the host cache's `T = 4` so the two adaptation layers age hotspots
/// on the same clock.
pub(crate) const DECAY_PERIOD: u64 = 4;

/// Minimum decayed window volume, in words per module, before any
/// adaptation fires: below this the share estimates are noise.
pub(crate) const MIN_WINDOW_WORDS_PER_MODULE: u64 = 32;

/// Minimum decayed per-block count for a hot flag (absolute support
/// floor on top of the relative `threshold` share).
pub(crate) const MIN_HOT_SUPPORT: u64 = 16;

/// A spawned block whose decayed count fell below this is *cold* and
/// eligible for re-merging into its parent.
pub(crate) const COLD_SUPPORT: u64 = 2;

/// Live adapt-spawned blocks tolerated per module before the cold-merge
/// pass starts dissolving the coldest of them. An idle spread piece
/// costs nothing at query time, and a returning hotspot (the chase
/// adversary rotates through every bucket) finds it already spread —
/// so splits are not undone eagerly; merging only bounds the extra
/// block population and its metadata.
pub(crate) const ADAPT_SPAWN_BUDGET_PER_MODULE: usize = 512;

/// Decayed per-block / per-module traffic estimates driving adaptive
/// repartitioning. Owned by [`PimTrie`](crate::PimTrie); inert when
/// `threshold == 0`.
pub(crate) struct TrafficTracker {
    /// Hot-block traffic share, Q32.32 (`Fx::ZERO` = adaptation off)
    threshold: Fx,
    ops: u64,
    /// decayed words per block
    freq: BTreeMap<BlockRef, u64>,
    /// decayed words per module (all requests, the load proxy)
    module_win: Vec<u64>,
    /// EMA of *measured* per-module IO (requests and responses, from the
    /// simulator's own deterministic counters, net of adapt's rounds)
    io_ema: Vec<u64>,
    /// cumulative measured IO at the last [`observe_io`] call
    io_last: Vec<u64>,
    /// decayed total words across modules
    total: u64,
    /// blocks created by adaptive splits — the only merge candidates
    spawned: BTreeSet<BlockRef>,
    /// known true sizes (words) of adaptively-placed pieces; lets the
    /// match pipeline pull a contended piece at its *actual* cost
    /// instead of assuming every block weighs O(K_B)
    sizes: BTreeMap<BlockRef, u64>,
    /// hot blocks that would not split (too small); retried after decay
    no_split: BTreeSet<BlockRef>,
    /// true while adapt's own maintenance rounds are in flight (their
    /// traffic must not feed back into the estimates)
    paused: bool,
}

impl TrafficTracker {
    pub(crate) fn new(threshold: Fx, p: usize) -> TrafficTracker {
        let on = !threshold.is_zero();
        TrafficTracker {
            threshold,
            ops: 0,
            freq: BTreeMap::new(),
            module_win: if on { vec![0; p] } else { Vec::new() },
            io_ema: if on { vec![0; p] } else { Vec::new() },
            io_last: if on { vec![0; p] } else { Vec::new() },
            total: 0,
            spawned: BTreeSet::new(),
            sizes: BTreeMap::new(),
            no_split: BTreeSet::new(),
            paused: false,
        }
    }

    /// Whether adaptation is on at all (`threshold > 0`).
    pub(crate) fn enabled(&self) -> bool {
        !self.threshold.is_zero()
    }

    /// Pause/resume traffic accrual (structural removals still apply).
    pub(crate) fn set_paused(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// Scan one BSP round's outgoing requests. Block-addressed request
    /// words accrue to that block's counter and every request's words to
    /// its module's window — unless paused (adapt's own rounds). Drops,
    /// merges and module resets always update the tracked structure.
    pub(crate) fn record_inbox(&mut self, inbox: &[Vec<Req>]) {
        if !self.enabled() {
            return;
        }
        for (m, msgs) in inbox.iter().enumerate() {
            for req in msgs {
                let w = req.wire_words();
                if !self.paused {
                    if let Some(win) = self.module_win.get_mut(m) {
                        *win += w;
                    }
                    self.total += w;
                }
                let here = |slot: u32| BlockRef {
                    module: m as u32,
                    slot,
                };
                match req {
                    Req::MatchBlock { slot, .. }
                    | Req::FetchBlock { slot }
                    | Req::GraftMany { slot, .. }
                    | Req::ReadKey { slot, .. }
                    | Req::DeleteKey { slot, .. }
                    | Req::FetchSubtree { slot, .. }
                    | Req::DescendBlock { slot, .. }
                        if !self.paused =>
                    {
                        self.charge(here(*slot), w);
                    }
                    Req::MergeChild { slot, child, .. } => {
                        if !self.paused {
                            self.charge(here(*slot), w);
                        }
                        self.forget(*child);
                    }
                    Req::DropBlock { slot } => {
                        self.forget(here(*slot));
                    }
                    Req::ResetModule => self.clear(),
                    _ => {}
                }
            }
        }
    }

    /// Credit a contention pull with the demand it served. A pulled
    /// block costs one request word on the wire — `record_inbox` sees
    /// `FetchBlock`, not the block-sized response or the piece words
    /// that wanted it — so pull-dominated hotspots would be invisible
    /// to `hot_blocks`. Charging the aggregate piece demand at the
    /// pull-decision site makes the estimate mode-independent: a block
    /// ranks by the query words aimed at it whether they were pushed
    /// or the block was pulled.
    pub(crate) fn record_pull_demand(&mut self, b: BlockRef, demand: u64) {
        if !self.enabled() || self.paused {
            return;
        }
        if let Some(win) = self.module_win.get_mut(b.module as usize) {
            *win += demand;
        }
        self.total += demand;
        self.charge(b, demand);
    }

    fn charge(&mut self, b: BlockRef, w: u64) {
        *self.freq.entry(b).or_insert(0) += w;
    }

    /// Decayed traffic count of one block.
    pub(crate) fn estimate(&self, b: BlockRef) -> u64 {
        self.freq.get(&b).copied().unwrap_or(0)
    }

    /// Remove a block from all tracked state (it was dropped or its
    /// counter is intentionally reset after a split).
    pub(crate) fn forget(&mut self, b: BlockRef) {
        self.freq.remove(&b);
        self.spawned.remove(&b);
        self.no_split.remove(&b);
        self.sizes.remove(&b);
    }

    /// Re-key a migrated block's tracked state from `old` to `new`.
    pub(crate) fn rename(&mut self, old: BlockRef, new: BlockRef) {
        if let Some(f) = self.freq.remove(&old) {
            self.freq.insert(new, f);
        }
        if self.spawned.remove(&old) {
            self.spawned.insert(new);
        }
        if self.no_split.remove(&old) {
            self.no_split.insert(new);
        }
        if let Some(w) = self.sizes.remove(&old) {
            self.sizes.insert(new, w);
        }
    }

    /// Remember a freshly-placed piece's true word size. Only the
    /// adaptive repartitioner calls this — ordinary build/split blocks
    /// stay unhinted and keep the conservative O(K_B) pull threshold.
    pub(crate) fn note_size(&mut self, b: BlockRef, w: u64) {
        if self.enabled() {
            self.sizes.insert(b, w);
        }
    }

    /// The known true size of an adaptively-placed piece, if any.
    pub(crate) fn size_hint(&self, b: BlockRef) -> Option<u64> {
        if self.enabled() {
            self.sizes.get(&b).copied()
        } else {
            None
        }
    }

    /// Drop everything (a module reset rebuilds the world; stale refs
    /// must not drive adaptation of the rebuilt partition).
    pub(crate) fn clear(&mut self) {
        self.freq.clear();
        for w in &mut self.module_win {
            *w = 0;
        }
        self.total = 0;
        self.spawned.clear();
        self.no_split.clear();
        self.sizes.clear();
        // io_last deliberately survives: it anchors deltas against the
        // simulator's *cumulative* counters, so zeroing it would make the
        // next observation re-count everything since boot. Only the EMA
        // (a workload judgement) is forgotten.
        for w in &mut self.io_ema {
            *w = 0;
        }
    }

    /// Fold one observation of the simulator's cumulative per-module IO
    /// (net of adapt's own transfers) into a fast EMA. The EMA halves on
    /// each observation before absorbing the new delta, so the latest
    /// batch carries half the weight — responsive enough to chase a
    /// rotating hotspot, stable enough to ignore single-batch noise.
    ///
    /// Unlike [`charge`](Self::charge)-fed demand windows, this sees the
    /// traffic the trie *actually* moved: responses, descent pulls, and
    /// the build-placement luck that pins bucket roots to their birth
    /// modules. Migration and placement key off it.
    pub(crate) fn observe_io(&mut self, cur: &[u64]) {
        if !self.enabled() || self.paused {
            return;
        }
        for (m, &c) in cur.iter().enumerate() {
            if m >= self.io_ema.len() {
                break;
            }
            let delta = c.saturating_sub(self.io_last[m]);
            self.io_last[m] = c;
            self.io_ema[m] = self.io_ema[m] / 2 + delta;
        }
    }

    /// Per-module load proxy for migration and placement: the measured-IO
    /// EMA once it has data, else the demand window (pre-first-batch).
    pub(crate) fn load_win(&self) -> &[u64] {
        if self.io_ema.iter().any(|&w| w > 0) {
            &self.io_ema
        } else {
            &self.module_win
        }
    }

    /// Advance the deterministic op clock; every [`DECAY_PERIOD`] ops
    /// all counters halve (dust dropped) and failed-split flags reset so
    /// shrunken blocks retry.
    pub(crate) fn tick(&mut self) {
        if !self.enabled() {
            return;
        }
        self.ops += 1;
        if self.ops.is_multiple_of(DECAY_PERIOD) {
            let old = std::mem::take(&mut self.freq);
            self.freq = old
                .into_iter()
                .filter_map(|(b, f)| (f >= 2).then_some((b, f / 2)))
                .collect();
            for w in &mut self.module_win {
                *w /= 2;
            }
            self.total /= 2;
            self.no_split.clear();
        }
    }

    /// Whether the decayed window is large enough to trust the shares.
    pub(crate) fn warm(&self) -> bool {
        self.total >= MIN_WINDOW_WORDS_PER_MODULE * self.module_win.len().max(1) as u64
    }

    /// Blocks whose decayed traffic share exceeds the threshold, hottest
    /// first (ties in [`BlockRef`] order). Excludes blocks already known
    /// not to split this window.
    pub(crate) fn hot_blocks(&self) -> Vec<BlockRef> {
        if !self.enabled() || !self.warm() {
            return Vec::new();
        }
        let floor = self.threshold.mul_u64(self.total);
        let floor = floor.max(MIN_HOT_SUPPORT);
        let mut hot: Vec<(u64, BlockRef)> = self
            .freq
            .iter()
            .filter(|(b, f)| **f > floor && !self.no_split.contains(b))
            .map(|(b, f)| (*f, *b))
            .collect();
        hot.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        hot.into_iter().map(|(_, b)| b).collect()
    }

    /// Remember that a hot block would not split (single partition
    /// root); it is skipped until the next decay sweep.
    pub(crate) fn mark_no_split(&mut self, b: BlockRef) {
        self.no_split.insert(b);
    }

    /// Register blocks created by an adaptive split: the only blocks the
    /// cold-merge pass may dissolve.
    pub(crate) fn note_spawned(&mut self, refs: &[BlockRef]) {
        self.spawned.extend(refs.iter().copied());
    }

    /// Seed a freshly spawned block with its share of the split input's
    /// decayed estimate. Without this, spawned pieces start from zero
    /// and the cold-merge pass dissolves a fine split the moment the
    /// hotspot pauses — a recurring hotspot would churn split/merge
    /// forever. Structural bookkeeping, so it applies even while the
    /// tracker is paused for adapt's own rounds.
    pub(crate) fn seed(&mut self, b: BlockRef, w: u64) {
        if self.enabled() {
            self.charge(b, w);
        }
    }

    /// Adapt-spawned blocks the merge pass may dissolve this round:
    /// only once the live spawned population exceeds
    /// [`ADAPT_SPAWN_BUDGET_PER_MODULE`]·P, and then only the coldest
    /// blocks over budget whose decayed count fell below
    /// [`COLD_SUPPORT`].
    pub(crate) fn cold_spawned(&self) -> Vec<BlockRef> {
        if !self.enabled() || !self.warm() {
            return Vec::new();
        }
        let budget = ADAPT_SPAWN_BUDGET_PER_MODULE * self.module_win.len();
        if self.spawned.len() <= budget {
            return Vec::new();
        }
        let mut cold: Vec<(u64, BlockRef)> = self
            .spawned
            .iter()
            .copied()
            .filter(|b| self.estimate(*b) < COLD_SUPPORT)
            .map(|b| (self.estimate(b), b))
            .collect();
        cold.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        cold.truncate(self.spawned.len() - budget);
        cold.into_iter().map(|(_, b)| b).collect()
    }

    /// The decayed per-module request-word window. Kept as a test probe
    /// (and as [`load_win`](Self::load_win)'s fallback before the first
    /// measured-IO observation lands).
    #[cfg(test)]
    pub(crate) fn module_win(&self) -> &[u64] {
        &self.module_win
    }

    /// Tracked blocks living on `module`, heaviest first (ties in
    /// [`BlockRef`] order) — migration candidates.
    pub(crate) fn tracked_on(&self, module: u32) -> Vec<(u64, BlockRef)> {
        let mut out: Vec<(u64, BlockRef)> = self
            .freq
            .iter()
            .filter(|(b, _)| b.module == module)
            .map(|(b, f)| (*f, *b))
            .collect();
        out.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        out
    }

    /// Shift `words` of window load from one module to another (keeps
    /// the load proxy honest across a migration without waiting a full
    /// decay period).
    pub(crate) fn shift_load(&mut self, from: u32, to: u32, words: u64) {
        let moved = match self.module_win.get_mut(from as usize) {
            Some(w) => {
                let moved = words.min(*w);
                *w -= moved;
                moved
            }
            None => 0,
        };
        if let Some(w) = self.module_win.get_mut(to as usize) {
            *w += moved;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bref(module: u32, slot: u32) -> BlockRef {
        BlockRef { module, slot }
    }

    fn match_req(slot: u32) -> Req {
        Req::ReadKey {
            slot,
            node: 0,
            depth: 0,
        }
    }

    #[test]
    fn disabled_tracker_is_inert() {
        let mut t = TrafficTracker::new(Fx::ZERO, 4);
        assert!(!t.enabled());
        t.record_inbox(&[vec![match_req(1)], vec![], vec![], vec![]]);
        t.tick();
        assert_eq!(t.estimate(bref(0, 1)), 0);
        assert!(t.hot_blocks().is_empty());
        assert!(t.module_win().is_empty());
    }

    #[test]
    fn exact_counters_accrue_and_decay() {
        let mut t = TrafficTracker::new(Fx::from_milli(50), 2);
        // ReadKey is 3 words; 40 of them = 120 words on block (0,1)
        let inbox = vec![(0..40).map(|_| match_req(1)).collect::<Vec<_>>(), vec![]];
        t.record_inbox(&inbox);
        assert_eq!(t.estimate(bref(0, 1)), 120);
        assert_eq!(t.module_win()[0], 120);
        assert!(t.warm());
        assert_eq!(t.hot_blocks(), vec![bref(0, 1)]);
        for _ in 0..DECAY_PERIOD {
            t.tick();
        }
        assert_eq!(t.estimate(bref(0, 1)), 60);
        assert_eq!(t.module_win()[0], 60);
    }

    #[test]
    fn paused_rounds_do_not_feed_back() {
        let mut t = TrafficTracker::new(Fx::from_milli(50), 2);
        t.set_paused(true);
        t.record_inbox(&[vec![match_req(1)], vec![]]);
        assert_eq!(t.estimate(bref(0, 1)), 0);
        assert_eq!(t.module_win()[0], 0);
        // structural removal still applies while paused
        t.set_paused(false);
        t.record_inbox(&[vec![match_req(1)], vec![]]);
        t.set_paused(true);
        t.record_inbox(&[vec![Req::DropBlock { slot: 1 }], vec![]]);
        assert_eq!(t.estimate(bref(0, 1)), 0);
    }

    #[test]
    fn hot_needs_support_floor_and_share() {
        let mut t = TrafficTracker::new(Fx::HALF, 1);
        // three blocks at ~1/3 each (63 words total): none passes 0.5
        let inbox = vec![(0..21).map(|i| match_req(1 + i % 3)).collect::<Vec<_>>()];
        t.record_inbox(&inbox);
        assert!(t.warm());
        assert!(t.hot_blocks().is_empty());
        // tilt to ~0.9 on block 1
        let inbox = vec![(0..60).map(|_| match_req(1)).collect::<Vec<_>>()];
        t.record_inbox(&inbox);
        assert_eq!(t.hot_blocks(), vec![bref(0, 1)]);
        t.mark_no_split(bref(0, 1));
        assert!(t.hot_blocks().is_empty());
    }

    #[test]
    fn cold_merge_waits_for_the_spawn_budget() {
        let mut t = TrafficTracker::new(Fx::from_milli(50), 2);
        let inbox = vec![
            (0..30).map(|i| match_req(i % 3)).collect::<Vec<_>>(),
            vec![],
        ];
        t.record_inbox(&inbox);
        // merge-back only engages past the spawn budget (512 per module
        // here, p = 2): fill it, then one over — the lexicographically
        // smallest zero-traffic spawn is the one handed back
        let mut refs = vec![bref(0, 9)];
        refs.extend((0..ADAPT_SPAWN_BUDGET_PER_MODULE as u32 * 2).map(|s| bref(1, s)));
        t.note_spawned(&refs[..refs.len() - 1]);
        assert!(t.cold_spawned().is_empty(), "within budget: no merges");
        t.note_spawned(&refs[refs.len() - 1..]);
        assert_eq!(t.cold_spawned(), vec![bref(0, 9)]);
    }

    #[test]
    fn rename_and_forget_track_migrations() {
        let mut t = TrafficTracker::new(Fx::from_milli(50), 4);
        let inbox = vec![(0..40).map(|_| match_req(1)).collect::<Vec<_>>()];
        t.record_inbox(&inbox);
        t.note_spawned(&[bref(0, 1)]);
        t.rename(bref(0, 1), bref(3, 7));
        assert_eq!(t.estimate(bref(0, 1)), 0);
        assert_eq!(t.estimate(bref(3, 7)), 120);
        t.shift_load(0, 3, 120);
        assert_eq!(t.module_win()[0], 0);
        assert_eq!(t.module_win()[3], 120);
        t.forget(bref(3, 7));
        assert_eq!(t.estimate(bref(3, 7)), 0);
        assert!(t.cold_spawned().is_empty());
        t.clear();
        assert!(!t.warm());
    }

    #[test]
    fn tracked_on_orders_heaviest_first() {
        let mut t = TrafficTracker::new(Fx::from_milli(50), 2);
        let mut reqs = Vec::new();
        for _ in 0..5 {
            reqs.push(match_req(2));
        }
        for _ in 0..9 {
            reqs.push(match_req(4));
        }
        t.record_inbox(&[reqs, vec![]]);
        let on0 = t.tracked_on(0);
        assert_eq!(on0.len(), 2);
        assert_eq!(on0[0].1, bref(0, 4));
        assert!(on0[0].0 > on0[1].0);
        assert!(t.tracked_on(1).is_empty());
    }
}
