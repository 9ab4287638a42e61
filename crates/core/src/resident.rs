//! What the host holds of the meta-block tree: Algorithm 4's master
//! table over every meta-block root, and copies of the meta-blocks
//! nearest the root.
//!
//! * **The master table** ([`MasterTable`]) has one entry per meta-block,
//!   keyed by its root block's root string. `PimTrie::match_batch` matches
//!   the whole query trie against it and sends each piece straight to its
//!   path's deepest meta-block. The host authors every meta-block
//!   placement, so it keeps the table current with no IO: `bootstrap`,
//!   `place_chunks` and the merges' meta-block drops update it, a journal
//!   rebuild clears it, and `audit_debug` checks it against the modules.
//!   Host words `O(n / (K_B · K_SMB))`, [`MASTER_ENTRY_WORDS`] an entry.
//! * **Resident copies** ([`ResidentMeta`]): per pulled meta-block, the
//!   [`HashIndex`] built over its entries, kept until a request rewrites
//!   the meta-block it came from. The match round matches a resident
//!   target with no IO and fills a missing one with the ordinary
//!   `FetchMeta` pull.
//!
//!   * **What is resident** is decided by a word budget
//!     (`PimTrieConfig::resident_meta_words`): the missing targets of a
//!     match round are taken shallowest root first while the copies fit
//!     the budget at the `K_SMB`-entry bound each. A target's parent
//!     need not be held, since the master table sends pieces straight to
//!     it.
//!   * **Coherence** — the host authors every meta mutation, and each
//!     outgoing request is classified
//!     ([`Req::touches`](crate::module::Req::touches)) before dispatch; a
//!     copy whose meta-block a request rewrites is dropped and re-filled
//!     by a metered pull the next time a query reaches it.
//!   * **Exactness** — a copy's index is built from the same
//!     [`EntrySummary`]s, and matched by the same `hash_match_piece`, as
//!     the pull arm of Algorithm 5 always used; matches found on the host
//!     go through Phase-2 block verification like any other.
//!
//! Paper: §4.4 (Algorithm 4) keeps the master table replicated on the
//! modules; PIM-tree (Kang et al., PAPERS.md) keeps the upper levels every
//! query crosses on the host. DESIGN.md's deviations log says why both
//! live on the host here.

use crate::build::RootMeta;
use crate::hvm::{HashIndex, IndexEntry};
use crate::module::EntrySummary;
use crate::refs::{BlockRef, MetaRef};
use bitstr::hash::HashWidth;
use pim_sim::Wire;
use std::collections::BTreeMap;

/// Plain wire words of one pulled entry ([`EntrySummary`] in
/// `crate::schema`) — the unit the budget and the admission estimate count.
pub(crate) const ENTRY_WORDS: u64 = 5;

/// The index over one pulled meta-block's entries, resolving straight to
/// the matched block.
pub(crate) type MetaIndex = HashIndex<BlockRef>;

/// Build the index the pull arm matches against.
pub(crate) fn index_entries(entries: Vec<EntrySummary>, width: HashWidth) -> MetaIndex {
    let mut index = HashIndex::new(width);
    for e in entries {
        index.insert(IndexEntry {
            depth: e.depth,
            pre_hash: e.pre_hash,
            rem: e.rem,
            s_last: e.s_last,
            target: e.target,
        });
    }
    index
}

/// What a master-table entry resolves to: a meta-block and the block its
/// root node describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct MasterTarget {
    pub block: BlockRef,
    pub meta: MetaRef,
}

/// Host words of one master-table entry: an [`EntrySummary`]'s
/// ([`ENTRY_WORDS`]) plus the meta-block.
pub(crate) const MASTER_ENTRY_WORDS: u64 = ENTRY_WORDS + 1;

/// Algorithm 4's master table, held on the host: one entry per meta-block,
/// keyed by the root string of the block its root node describes. Since
/// every meta-block is a connected piece of the block tree, the deepest
/// entry on a query path names the meta-block that describes the deepest
/// block root on it. The host authors every meta-block placement, so it
/// keeps the table current at no IO cost (`PimTrie::bootstrap`,
/// `PimTrie::place_chunks`, the merges' meta-block drops).
pub(crate) struct MasterTable {
    index: HashIndex<MasterTarget>,
    slot_of: BTreeMap<MetaRef, u32>,
}

impl MasterTable {
    pub(crate) fn new(width: HashWidth) -> Self {
        MasterTable {
            index: HashIndex::new(width),
            slot_of: BTreeMap::new(),
        }
    }

    /// The index the master match runs against.
    pub(crate) fn index(&self) -> &HashIndex<MasterTarget> {
        &self.index
    }

    /// Number of entries (= live meta-blocks).
    pub(crate) fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// Host words held.
    pub(crate) fn words(&self) -> u64 {
        self.len() as u64 * MASTER_ENTRY_WORDS
    }

    /// Enter meta-block `meta`, rooted at `block` whose root string has
    /// metadata `root`, replacing any entry it had.
    pub(crate) fn insert(&mut self, meta: MetaRef, root: &RootMeta, block: BlockRef) {
        self.remove(meta);
        let slot = self.index.insert(IndexEntry {
            depth: root.depth,
            pre_hash: root.pre_hash,
            rem: root.rem.clone(),
            s_last: root.s_last.clone(),
            target: MasterTarget { block, meta },
        });
        self.slot_of.insert(meta, slot);
    }

    /// Forget a dropped meta-block.
    pub(crate) fn remove(&mut self, meta: MetaRef) {
        if let Some(slot) = self.slot_of.remove(&meta) {
            self.index.remove(slot);
        }
    }

    /// The entry of `meta`.
    pub(crate) fn get(&self, meta: MetaRef) -> Option<&IndexEntry<MasterTarget>> {
        self.index.get(*self.slot_of.get(&meta)?)
    }

    /// Drop everything (the modules were reset).
    pub(crate) fn clear(&mut self) {
        *self = MasterTable::new(self.index.width());
    }
}

struct Held {
    index: MetaIndex,
    /// Plain wire words of the `MetaSummary` reply this was built from.
    words: u64,
}

/// Host-resident copies of meta-blocks, keyed by address.
#[derive(Default)]
pub(crate) struct ResidentMeta {
    copies: BTreeMap<MetaRef, Held>,
    words: u64,
}

impl ResidentMeta {
    /// Words of copies held.
    pub(crate) fn words(&self) -> u64 {
        self.words
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.copies.is_empty()
    }

    /// Number of copies held.
    pub(crate) fn len(&self) -> usize {
        self.copies.len()
    }

    /// The resident copy of `mref`, if there is one.
    pub(crate) fn get(&self, mref: MetaRef) -> Option<&MetaIndex> {
        self.copies.get(&mref).map(|c| &c.index)
    }

    /// Every resident copy (for the audit).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (MetaRef, &MetaIndex)> {
        self.copies.iter().map(|(r, c)| (*r, &c.index))
    }

    /// Keep a pulled meta-block; returns the words it holds.
    pub(crate) fn fill(
        &mut self,
        mref: MetaRef,
        entries: Vec<EntrySummary>,
        width: HashWidth,
    ) -> u64 {
        self.invalidate(mref);
        let words = entries.wire_words();
        let index = index_entries(entries, width);
        self.copies.insert(mref, Held { index, words });
        self.words += words;
        words
    }

    /// Drop the copy of `mref` (its source changed). True if one was held.
    pub(crate) fn invalidate(&mut self, mref: MetaRef) -> bool {
        match self.copies.remove(&mref) {
            Some(c) => {
                self.words -= c.words;
                true
            }
            None => false,
        }
    }

    /// Drop everything (a module was reset: the tree is being rebuilt).
    /// Returns the number of copies dropped.
    pub(crate) fn clear(&mut self) -> u64 {
        self.words = 0;
        std::mem::take(&mut self.copies).len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refs::BlockRef;
    use bitstr::hash::{IncrementalHash, PolyHasher};
    use bitstr::BitStr;

    fn mref(slot: u32) -> MetaRef {
        MetaRef { module: 0, slot }
    }

    fn entries(n: usize) -> Vec<EntrySummary> {
        let h = PolyHasher::with_seed(1);
        (0..n)
            .map(|i| EntrySummary {
                depth: i as u64,
                pre_hash: h.empty(),
                rem: BitStr::from_u64(0, i),
                s_last: BitStr::from_u64(0, i),
                target: BlockRef {
                    module: 0,
                    slot: i as u32,
                },
            })
            .collect()
    }

    #[test]
    fn entry_words_is_the_schema_figure() {
        assert_eq!(entries(1)[0].wire_words(), ENTRY_WORDS);
    }

    #[test]
    fn fill_invalidate_and_clear_keep_the_word_count() {
        let mut r = ResidentMeta::default();
        let w = HashWidth::FULL;
        assert_eq!(r.fill(mref(1), entries(3), w), 1 + 3 * 5);
        assert_eq!(r.fill(mref(2), entries(5), w), 1 + 5 * 5);
        assert_eq!(r.words(), 42);
        // re-filling replaces
        r.fill(mref(1), entries(4), w);
        assert_eq!(r.words(), 47);
        assert_eq!(r.get(mref(1)).map(HashIndex::len), Some(4));
        assert!(r.invalidate(mref(2)) && !r.invalidate(mref(2)));
        assert_eq!(r.words(), 21);
        assert_eq!(r.clear(), 1);
        assert!(r.is_empty() && r.words() == 0);
    }

    #[test]
    fn master_table_keeps_one_entry_per_meta_block() {
        let h = PolyHasher::with_seed(1);
        let mut t = MasterTable::new(HashWidth::FULL);
        let root = crate::build::root_meta(&h, &BitStr::new());
        let deep = crate::build::root_meta(&h, &BitStr::from_bin_str("0110"));
        let block = |slot| BlockRef { module: 0, slot };
        t.insert(mref(0), &root, block(0));
        t.insert(mref(1), &deep, block(1));
        // re-entering a meta-block replaces its entry
        t.insert(mref(1), &deep, block(2));
        assert_eq!((t.len(), t.words()), (2, 2 * MASTER_ENTRY_WORDS));
        assert_eq!(
            t.get(mref(1)).map(|e| (e.depth, e.target.block)),
            Some((4, block(2)))
        );
        t.remove(mref(1));
        assert!(t.get(mref(1)).is_none() && t.index().len() == 1);
        t.clear();
        assert_eq!((t.len(), t.index().len()), (0, 0));
    }
}
