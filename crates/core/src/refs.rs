//! PIM addresses and wire-message wrappers.
//!
//! The paper addresses every physically-stored object by a
//! `(PIM module id, local memory address)` pair. [`BlockRef`] and
//! [`MetaRef`] are those pairs for data-trie blocks and meta-blocks; slot
//! indices play the role of local addresses, and the host picks every one
//! of them ([`Addresses`]).

use bitstr::BitStr;
use pim_sim::{words_for_bits, Wire};
use std::collections::BTreeMap;
use trie_core::Trie;

/// PIM address of a data-trie block.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockRef {
    /// Owning module.
    pub module: u32,
    /// Slot in the module's block arena.
    pub slot: u32,
}

impl Wire for BlockRef {
    fn wire_words(&self) -> u64 {
        1
    }
}

/// PIM address of a meta-block.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetaRef {
    /// Owning module.
    pub module: u32,
    /// Slot in the module's meta-block arena.
    pub slot: u32,
}

impl Wire for MetaRef {
    fn wire_words(&self) -> u64 {
        1
    }
}

/// A [`Trie`] shipped over the CPU↔PIM boundary; wire size is the packed
/// trie size (edge words + constant per node), matching
/// [`Trie::size_words`].
#[derive(Clone)]
pub struct TrieMsg(pub Trie);

impl Wire for TrieMsg {
    fn wire_words(&self) -> u64 {
        self.0.size_words() as u64
    }
}

/// A [`BitStr`] shipped over the boundary (packed words + length word).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitsMsg(pub BitStr);

impl Wire for BitsMsg {
    fn wire_words(&self) -> u64 {
        1 + words_for_bits(self.0.len())
    }
}

impl From<BitStr> for BitsMsg {
    fn from(bits: BitStr) -> Self {
        BitsMsg(bits)
    }
}

impl std::borrow::Borrow<BitStr> for BitsMsg {
    fn borrow(&self) -> &BitStr {
        &self.0
    }
}

/// A slot allocator: hands out the last freed slot, else the next never
/// used one. [`Slab`] runs on it, and the host keeps one per module slab
/// ([`Addresses`]), so both sides pick the same slot for the same
/// sequence of allocations and frees.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlotAlloc {
    /// slots ever handed out: `0..bound`
    bound: u32,
    /// freed slots, reused last-freed first
    free: Vec<u32>,
}

impl SlotAlloc {
    /// An allocator whose slots `0..n` are all live (a freshly filled
    /// slab).
    pub fn with_len(n: u32) -> Self {
        SlotAlloc {
            bound: n,
            free: Vec::new(),
        }
    }

    /// Allocate: pop the last freed slot, else append.
    pub fn alloc(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.bound += 1;
            self.bound - 1
        })
    }

    /// Return a live slot to the free list.
    pub fn free(&mut self, slot: u32) {
        self.free.push(slot);
    }

    /// Claim one given slot; false if it is already live. Slots skipped
    /// over on the way to it join the free list.
    pub fn take(&mut self, slot: u32) -> bool {
        if slot >= self.bound {
            self.free.extend(self.bound..slot);
            self.bound = slot + 1;
            return true;
        }
        // the slot a mirrored allocator picks is the last one freed
        match self.free.iter().rposition(|s| *s == slot) {
            Some(i) => {
                self.free.remove(i);
                true
            }
            None => false,
        }
    }

    /// Number of live slots.
    pub fn live(&self) -> usize {
        (self.bound as usize) - self.free.len()
    }

    /// One past the highest slot ever handed out.
    pub fn bound(&self) -> u32 {
        self.bound
    }

    /// Whether `slot` is live.
    pub fn is_live(&self, slot: u32) -> bool {
        slot < self.bound && !self.free.contains(&slot)
    }
}

/// A slab arena with stable `u32` slots (module-local object storage).
#[derive(Clone, Default)]
pub struct Slab<T> {
    items: Vec<Option<T>>,
    slots: SlotAlloc,
}

/// [`Slab::insert_at`] was given a slot that already holds a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotTaken(pub u32);

impl<T> Slab<T> {
    /// Empty slab.
    pub fn new() -> Self {
        Slab {
            items: Vec::new(),
            slots: SlotAlloc::default(),
        }
    }

    /// Insert, returning the slot.
    pub fn insert(&mut self, value: T) -> u32 {
        let s = self.slots.alloc();
        self.put(s, value);
        s
    }

    /// Insert at a slot chosen by the caller (the host authors module
    /// addresses); fails without change if the slot is live.
    pub fn insert_at(&mut self, slot: u32, value: T) -> Result<(), SlotTaken> {
        if !self.slots.take(slot) {
            return Err(SlotTaken(slot));
        }
        self.put(slot, value);
        Ok(())
    }

    fn put(&mut self, slot: u32, value: T) {
        let i = slot as usize;
        if i >= self.items.len() {
            self.items.resize_with(i + 1, || None);
        }
        self.items[i] = Some(value);
    }

    /// Remove and return the value at `slot`.
    pub fn remove(&mut self, slot: u32) -> Option<T> {
        let v = self.items.get_mut(slot as usize)?.take();
        if v.is_some() {
            self.slots.free(slot);
        }
        v
    }

    /// Shared access.
    pub fn get(&self, slot: u32) -> Option<&T> {
        self.items.get(slot as usize)?.as_ref()
    }

    /// Mutable access.
    pub fn get_mut(&mut self, slot: u32) -> Option<&mut T> {
        self.items.get_mut(slot as usize)?.as_mut()
    }

    /// Overwrite the value at an existing slot (live or freed). Used to
    /// replace an object while keeping its address stable.
    pub fn set(&mut self, slot: u32, value: T) {
        let i = slot as usize;
        assert!(i < self.items.len(), "set: slot {slot} never allocated");
        if self.items[i].is_none() {
            self.slots.take(slot);
        }
        self.items[i] = Some(value);
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.slots.live()
    }

    /// True iff no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slab's allocator state (what the host's copy must equal).
    pub fn slots(&self) -> &SlotAlloc {
        &self.slots
    }

    /// Iterate live (slot, value) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.items
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (i as u32, v)))
    }
}

/// The host's copies of every module-side slot allocator: block slots and
/// meta-block slots per module, meta-node slots per meta-block. The host
/// draws each new object's address here before it sends the object and
/// frees it as it sends the drop, so every address is known before
/// dispatch and placement never waits for a reply to learn one.
#[derive(Clone, Debug)]
pub struct Addresses {
    blocks: Vec<SlotAlloc>,
    metas: Vec<SlotAlloc>,
    nodes: BTreeMap<MetaRef, SlotAlloc>,
}

impl Addresses {
    /// Allocators for `p` empty modules.
    pub fn new(p: usize) -> Self {
        Addresses {
            blocks: vec![SlotAlloc::default(); p],
            metas: vec![SlotAlloc::default(); p],
            nodes: BTreeMap::new(),
        }
    }

    /// Address a new data block on `module`.
    pub fn block(&mut self, module: u32) -> BlockRef {
        let slot = self.blocks[module as usize].alloc();
        BlockRef { module, slot }
    }

    /// Address a new meta-block of `n_nodes` nodes on `module`; its nodes
    /// take slots `0..n_nodes` in message order.
    pub fn meta(&mut self, module: u32, n_nodes: u32) -> MetaRef {
        let slot = self.metas[module as usize].alloc();
        let mref = MetaRef { module, slot };
        self.refill(mref, n_nodes);
        mref
    }

    /// Reset a meta-block's node slots to a fresh `0..n_nodes` (its
    /// content is replaced in place).
    pub fn refill(&mut self, mref: MetaRef, n_nodes: u32) {
        self.nodes.insert(mref, SlotAlloc::with_len(n_nodes));
    }

    /// Address one new meta node inside `mref`.
    pub fn node(&mut self, mref: MetaRef) -> u32 {
        self.nodes.entry(mref).or_default().alloc()
    }

    /// Free a dropped block's slot.
    pub fn free_block(&mut self, b: BlockRef) {
        self.blocks[b.module as usize].free(b.slot);
    }

    /// Free a dropped meta-block's slot and forget its nodes.
    pub fn free_meta(&mut self, m: MetaRef) {
        self.metas[m.module as usize].free(m.slot);
        self.nodes.remove(&m);
    }

    /// Free a removed meta node's slot.
    pub fn free_node(&mut self, m: MetaRef, node: u32) {
        if let Some(a) = self.nodes.get_mut(&m) {
            a.free(node);
        }
    }

    /// Forget everything on a module that was wiped.
    pub fn reset(&mut self, module: u32) {
        self.blocks[module as usize] = SlotAlloc::default();
        self.metas[module as usize] = SlotAlloc::default();
        self.nodes.retain(|m, _| m.module != module);
    }

    /// The block-slot allocator of `module`.
    pub fn blocks(&self, module: u32) -> &SlotAlloc {
        &self.blocks[module as usize]
    }

    /// The meta-block-slot allocator of `module`.
    pub fn metas(&self, module: u32) -> &SlotAlloc {
        &self.metas[module as usize]
    }

    /// Every meta-block's node-slot allocator.
    pub fn nodes(&self) -> &BTreeMap<MetaRef, SlotAlloc> {
        &self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_roundtrip() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.get(a), None);
        let c = s.insert("c"); // reuses slot a
        assert_eq!(c, a);
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.iter().count(), 2);
    }

    #[test]
    fn insert_at_follows_the_mirrored_allocator_and_refuses_live_slots() {
        let mut host = SlotAlloc::default();
        let mut s = Slab::new();
        for v in ["a", "b", "c"] {
            assert_eq!(s.insert_at(host.alloc(), v), Ok(()));
        }
        s.remove(1);
        host.free(1);
        s.remove(0);
        host.free(0);
        assert_eq!(s.slots(), &host);
        // the host reuses the last freed slot, as `insert` would
        let slot = host.alloc();
        assert_eq!(slot, 0);
        assert_eq!(s.insert_at(slot, "d"), Ok(()));
        assert_eq!(s.insert_at(2, "e"), Err(SlotTaken(2)));
        assert_eq!(s.get(2), Some(&"c"));
        assert_eq!(s.slots(), &host);
        assert_eq!(s.insert("f"), 1);
    }

    #[test]
    fn wire_sizes() {
        let r = BlockRef { module: 1, slot: 2 };
        assert_eq!(r.wire_words(), 1);
        let t = TrieMsg(Trie::new());
        assert_eq!(t.wire_words(), 4); // one node, no edge words
        let b = BitsMsg(BitStr::from_bin_str("10101"));
        assert_eq!(b.wire_words(), 2);
    }
}
