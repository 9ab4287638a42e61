//! PIM addresses and wire-message wrappers.
//!
//! The paper addresses every physically-stored object by a
//! `(PIM module id, local memory address)` pair. [`BlockRef`] and
//! [`MetaRef`] are those pairs for data-trie blocks and meta-blocks; slot
//! indices play the role of local addresses.

use bitstr::BitStr;
use pim_sim::{words_for_bits, Wire};
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

/// A slab arena with stable `u32` slots (module-local object storage).
#[derive(Clone, Default)]
pub struct Slab<T> {
    items: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    /// Empty slab.
    pub fn new() -> Self {
        Slab {
            items: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Insert, returning the slot.
    pub fn insert(&mut self, value: T) -> u32 {
        if let Some(s) = self.free.pop() {
            self.items[s as usize] = Some(value);
            s
        } else {
            self.items.push(Some(value));
            (self.items.len() - 1) as u32
        }
    }

    /// Remove and return the value at `slot`.
    pub fn remove(&mut self, slot: u32) -> Option<T> {
        let v = self.items.get_mut(slot as usize)?.take();
        if v.is_some() {
            self.free.push(slot);
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
            self.free.retain(|s| *s != slot);
        }
        self.items[i] = Some(value);
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.items.len() - self.free.len()
    }

    /// True iff no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate live (slot, value) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.items
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (i as u32, v)))
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
    fn wire_sizes() {
        let r = BlockRef { module: 1, slot: 2 };
        assert_eq!(r.wire_words(), 1);
        let t = TrieMsg(Trie::new());
        assert_eq!(t.wire_words(), 4); // one node, no edge words
        let b = BitsMsg(BitStr::from_bin_str("10101"));
        assert_eq!(b.wire_words(), 2);
    }
}
