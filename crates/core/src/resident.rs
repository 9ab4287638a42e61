//! The top of the meta-block tree, held on the host.
//!
//! Every query crosses the top levels of the one meta-block tree, and the
//! push-pull rule already pulls their contended meta-blocks to the CPU to
//! match there. A [`ResidentMeta`] is what stays behind: per pulled
//! meta-block, the [`HashIndex`] built over its entries, kept until a
//! request rewrites the meta-block it came from. The descent
//! (`PimTrie::match_batch`) matches a resident target with no IO and fills
//! a missing one with the ordinary `FetchMeta` pull.
//!
//! * **What is resident** is decided by a word budget
//!   (`PimTrieConfig::resident_meta_words`), nearest the root first: the
//!   descent fills a level only while every level above it was matched on
//!   the host, and only if the level's missing meta-blocks fit what is
//!   left of the budget. A meta-block's level is not a property it has —
//!   meta splits insert levels mid-tree — so it is counted by the
//!   descent, root = 0, and nothing here stores it.
//! * **Coherence** — the host authors every meta mutation, and each
//!   outgoing request is classified
//!   ([`Req::touches`](crate::module::Req::touches)) before dispatch; a
//!   copy whose meta-block a request rewrites is dropped and re-filled by
//!   a metered pull the next time a query reaches it.
//! * **Exactness** — a copy's index is built from the same
//!   [`EntrySummary`]s, and matched by the same `hash_match_piece`, as the
//!   pull arm of Algorithm 5 always used; matches found on the host go
//!   through Phase-2 block verification like any other.
//!
//! Paper: PIM-tree (Kang et al., PAPERS.md) keeps the upper levels every
//! query crosses on the host for the same reason; DESIGN.md's deviations
//! log says why this stands in for §4.4's replicated master table.

use crate::hvm::{HashIndex, IndexEntry};
use crate::module::{EntrySummary, RootMatchTarget};
use crate::refs::MetaRef;
use bitstr::hash::HashWidth;
use pim_sim::Wire;
use std::collections::BTreeMap;

/// Plain wire words of one pulled entry ([`EntrySummary`] in
/// `crate::schema`) — the unit the budget and the admission estimate count.
pub(crate) const ENTRY_WORDS: u64 = 6;

/// The index over one pulled meta-block's entries, resolving straight to
/// the matched block and the child meta-block to descend into.
pub(crate) type MetaIndex = HashIndex<RootMatchTarget>;

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
                target: RootMatchTarget {
                    block: BlockRef {
                        module: 0,
                        slot: i as u32,
                    },
                    descend: None,
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
        assert_eq!(r.fill(mref(1), entries(3), w), 1 + 3 * 6);
        assert_eq!(r.fill(mref(2), entries(5), w), 1 + 5 * 6);
        assert_eq!(r.words(), 50);
        // re-filling replaces
        r.fill(mref(1), entries(4), w);
        assert_eq!(r.words(), 56);
        assert_eq!(r.get(mref(1)).map(HashIndex::len), Some(4));
        assert!(r.invalidate(mref(2)) && !r.invalidate(mref(2)));
        assert_eq!(r.words(), 25);
        assert_eq!(r.clear(), 1);
        assert!(r.is_empty() && r.words() == 0);
    }
}
