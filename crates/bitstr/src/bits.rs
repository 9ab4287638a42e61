//! Owned [`BitStr`] and borrowed [`BitSlice`] bit-string types.
//!
//! Representation: bits are packed MSB-first into `u64` words — bit `i` of
//! the string lives at bit `63 - (i % 64)` of word `i / 64`. All bits past
//! the logical length are kept zero (the *normalization invariant*), which
//! makes structural equality, hashing and word-wise comparison valid without
//! masking on the read path.
//!
//! Strings of at most 128 bits keep their words inside the
//! `BitStr` value itself; longer ones spill to a heap `Vec`. Trie edges,
//! `S_rem` suffixes and hash tails are almost always that short, so the
//! common clone/slice/append allocates nothing. The representation is not
//! observable: [`BitStr::words`] exposes exactly `ceil(len / 64)` words
//! either way, and `Eq`/`Hash`/`Ord` are defined on those.

use crate::{chunk_from, mask_left};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;

const INLINE_WORDS: usize = 2;

/// Longest bit-string stored without a heap allocation.
const INLINE_BITS: usize = INLINE_WORDS * 64;

/// Word storage. `Inline` holds at most `INLINE_BITS` bits and keeps the
/// words past the active ones zero; `Heap` keeps `vec.len() == ceil(len/64)`.
/// A `Heap` string may be short (after `truncate`/`pop`, which never move
/// words back inline); `clone` re-inlines it.
enum Repr {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

/// An owned, packed bit-string of arbitrary length.
pub struct BitStr {
    repr: Repr,
    len: usize,
}

impl Default for BitStr {
    #[inline]
    fn default() -> Self {
        BitStr {
            repr: Repr::Inline([0; INLINE_WORDS]),
            len: 0,
        }
    }
}

impl Clone for BitStr {
    fn clone(&self) -> Self {
        let repr = if self.len <= INLINE_BITS {
            let mut a = [0; INLINE_WORDS];
            let w = self.words();
            a[..w.len()].copy_from_slice(w);
            Repr::Inline(a)
        } else {
            Repr::Heap(self.words().to_vec())
        };
        BitStr {
            repr,
            len: self.len,
        }
    }
}

impl PartialEq for BitStr {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}

impl Eq for BitStr {}

impl Hash for BitStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.words().hash(state);
        self.len.hash(state);
    }
}

impl BitStr {
    /// The empty bit-string.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty bit-string with capacity for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        if bits <= INLINE_BITS {
            return BitStr::new();
        }
        BitStr {
            repr: Repr::Heap(Vec::with_capacity(bits.div_ceil(64))),
            len: 0,
        }
    }

    /// Build from an iterator of bools (`true` = 1).
    pub fn from_bits<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut s = BitStr::new();
        for b in iter {
            s.push(b);
        }
        s
    }

    /// Parse a string of `'0'`/`'1'` characters. Panics on any other
    /// character — intended for tests and examples mirroring the paper's
    /// figures.
    pub fn from_bin_str(s: &str) -> Self {
        BitStr::from_bits(s.chars().map(|c| match c {
            '0' => false,
            '1' => true,
            _ => panic!("from_bin_str: invalid character {c:?}"),
        }))
    }

    /// The `len` most significant of the low `len` bits of `value`,
    /// MSB-first. E.g. `from_u64(0b101, 3)` is the string `101`.
    pub fn from_u64(value: u64, len: usize) -> Self {
        assert!(len <= 64);
        let mut s = BitStr::new();
        if len > 0 {
            s.push_chunk(value << (64 - len), len);
        }
        s
    }

    /// Bytes interpreted MSB-first (so ASCII strings order lexicographically).
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut s = BitStr::with_capacity(bytes.len() * 8);
        for &b in bytes {
            s.push_chunk((b as u64) << 56, 8);
        }
        s
    }

    /// ASCII shorthand for [`BitStr::from_bytes`].
    pub fn from_ascii(text: &str) -> Self {
        Self::from_bytes(text.as_bytes())
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the string has no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words (normalized: tail bits are zero) — exactly
    /// `ceil(len / 64)` of them, inline or not.
    #[inline]
    pub fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(a) => &a[..self.len.div_ceil(64)],
            Repr::Heap(v) => v,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Inline(a) => &mut a[..self.len.div_ceil(64)],
            Repr::Heap(v) => v,
        }
    }

    /// Make `w` the word after the active ones (the caller then grows
    /// `len` into it), spilling to the heap when the inline words are full.
    #[inline]
    fn push_word(&mut self, w: u64) {
        match &mut self.repr {
            Repr::Heap(v) => v.push(w),
            Repr::Inline(a) => {
                let n = self.len.div_ceil(64);
                if n < INLINE_WORDS {
                    a[n] = w;
                } else {
                    let mut v = Vec::with_capacity(2 * INLINE_WORDS);
                    v.extend_from_slice(a);
                    v.push(w);
                    self.repr = Repr::Heap(v);
                }
            }
        }
    }

    /// Packed size in 64-bit words, `ceil(len / 64)` — the unit of the
    /// space experiments (the same whether the words sit inline or on the
    /// heap).
    #[inline]
    pub fn storage_words(&self) -> usize {
        self.len.div_ceil(64)
    }

    /// Bit `i` (0-based from the most significant end).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words()[i >> 6] >> (63 - (i & 63))) & 1 == 1
    }

    /// Set bit `i`.
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len);
        let m = 1u64 << (63 - (i & 63));
        if v {
            self.words_mut()[i >> 6] |= m;
        } else {
            self.words_mut()[i >> 6] &= !m;
        }
    }

    /// Append one bit.
    #[inline]
    pub fn push(&mut self, v: bool) {
        let i = self.len;
        if i & 63 == 0 {
            self.push_word(0);
        }
        self.len = i + 1;
        if v {
            self.words_mut()[i >> 6] |= 1u64 << (63 - (i & 63));
        }
    }

    /// Remove and return the last bit.
    pub fn pop(&mut self) -> Option<bool> {
        if self.len == 0 {
            return None;
        }
        let i = self.len - 1;
        let b = self.get(i);
        // clearing the bit keeps the tail (and a word that just became
        // inactive) zero
        self.words_mut()[i >> 6] &= !(1u64 << (63 - (i & 63)));
        self.len = i;
        if let Repr::Heap(v) = &mut self.repr {
            v.truncate(i.div_ceil(64));
        }
        Some(b)
    }

    /// Append a left-aligned chunk of `n <= 64` bits.
    #[inline]
    pub fn push_chunk(&mut self, x: u64, n: usize) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        let x = mask_left(x, n);
        let off = self.len & 63;
        if off == 0 {
            self.push_word(x);
        } else {
            let last = self.len >> 6;
            self.words_mut()[last] |= x >> off;
            if n > 64 - off {
                self.push_word(x << (64 - off));
            }
        }
        self.len += n;
    }

    /// Append every bit of `other`.
    pub fn append(&mut self, other: &BitSlice<'_>) {
        let mut i = 0;
        while i < other.len() {
            let k = (other.len() - i).min(64);
            self.push_chunk(other.chunk(i, k), k);
            i += k;
        }
    }

    /// `self · other` as a fresh string.
    pub fn concat<T: Bits>(&self, other: &T) -> BitStr {
        let mut s = self.clone();
        s.append(&other.as_slice());
        s
    }

    /// Shorten to `len` bits (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        self.len = len;
        let keep = len.div_ceil(64);
        match &mut self.repr {
            Repr::Inline(a) => a[keep..].fill(0),
            Repr::Heap(v) => v.truncate(keep),
        }
        let r = len & 63;
        if r != 0 {
            let last = &mut self.words_mut()[keep - 1];
            *last = mask_left(*last, r);
        }
    }

    /// Borrow the whole string.
    #[inline]
    pub fn as_slice(&self) -> BitSlice<'_> {
        BitSlice {
            words: self.words(),
            start: 0,
            len: self.len,
        }
    }

    /// Borrow `range` (bit indices).
    #[inline]
    pub fn slice(&self, range: Range<usize>) -> BitSlice<'_> {
        self.as_slice().slice(range)
    }

    /// First `min(len, 64)` bits right-aligned in a `u64` (0 if empty).
    pub fn to_u64(&self) -> u64 {
        let n = self.len.min(64);
        if n == 0 {
            0
        } else {
            self.words()[0] >> (64 - n)
        }
    }

    /// Longest common prefix (in bits) with `other`.
    #[inline]
    pub fn lcp<T: Bits>(&self, other: &T) -> usize {
        self.as_slice().lcp(&other.as_slice())
    }

    /// Whether `prefix` is a prefix of `self`.
    pub fn starts_with<T: Bits>(&self, prefix: &T) -> bool {
        let p = prefix.as_slice();
        p.len() <= self.len && self.as_slice().lcp(&p) == p.len()
    }

    /// Iterate the bits front to back.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

impl fmt::Debug for BitStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitStr(\"{self}\")")
    }
}

impl fmt::Display for BitStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            f.write_str(if self.get(i) { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl PartialOrd for BitStr {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitStr {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(&other.as_slice())
    }
}

impl FromIterator<bool> for BitStr {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitStr::from_bits(iter)
    }
}

/// Borrowed view over a contiguous bit range of packed words.
#[derive(Clone, Copy)]
pub struct BitSlice<'a> {
    words: &'a [u64],
    start: usize,
    len: usize,
}

impl<'a> BitSlice<'a> {
    /// View over raw packed words: bits `[start, start + len)`.
    pub fn from_words(words: &'a [u64], start: usize, len: usize) -> Self {
        assert!(start + len <= words.len() * 64);
        BitSlice { words, start, len }
    }

    /// Number of bits in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i` of the view.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len);
        let j = self.start + i;
        (self.words[j >> 6] >> (63 - (j & 63))) & 1 == 1
    }

    /// Up to 64 bits starting at view-offset `i`, left-aligned.
    #[inline]
    pub fn chunk(&self, i: usize, n: usize) -> u64 {
        debug_assert!(i + n <= self.len, "chunk {i}+{n} out of {}", self.len);
        chunk_from(self.words, self.start + i, n)
    }

    /// Sub-view of `range` (view-relative bit indices).
    #[inline]
    pub fn slice(&self, range: Range<usize>) -> BitSlice<'a> {
        assert!(range.start <= range.end && range.end <= self.len);
        BitSlice {
            words: self.words,
            start: self.start + range.start,
            len: range.end - range.start,
        }
    }

    /// Longest common prefix with `other`, in bits. One XOR per word.
    pub fn lcp(&self, other: &BitSlice<'_>) -> usize {
        let n = self.len.min(other.len);
        let mut i = 0;
        while i < n {
            let k = (n - i).min(64);
            let x = self.chunk(i, k) ^ other.chunk(i, k);
            if x != 0 {
                return i + (x.leading_zeros() as usize).min(k);
            }
            i += k;
        }
        n
    }

    /// Whether `prefix` is a prefix of this view.
    pub fn starts_with(&self, prefix: &BitSlice<'_>) -> bool {
        prefix.len <= self.len && self.lcp(prefix) == prefix.len
    }

    /// Copy into an owned [`BitStr`].
    pub fn to_bitstr(&self) -> BitStr {
        let mut s = BitStr::with_capacity(self.len);
        s.append(self);
        s
    }

    /// First `min(len, 64)` bits right-aligned in a `u64`.
    pub fn to_u64(&self) -> u64 {
        let n = self.len.min(64);
        if n == 0 {
            0
        } else {
            self.chunk(0, n) >> (64 - n)
        }
    }

    /// Iterate the bits front to back.
    pub fn iter(&self) -> impl Iterator<Item = bool> + 'a {
        let this = *self;
        (0..this.len).map(move |i| this.get(i))
    }
}

impl PartialEq for BitSlice<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.lcp(other) == self.len
    }
}

impl Eq for BitSlice<'_> {}

impl PartialOrd for BitSlice<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitSlice<'_> {
    /// Lexicographic bit order; a proper prefix orders before its extension.
    fn cmp(&self, other: &Self) -> Ordering {
        let n = self.len.min(other.len);
        let mut i = 0;
        while i < n {
            let k = (n - i).min(64);
            let a = self.chunk(i, k);
            let b = other.chunk(i, k);
            if a != b {
                return a.cmp(&b);
            }
            i += k;
        }
        self.len.cmp(&other.len)
    }
}

impl fmt::Debug for BitSlice<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BitSlice(\"")?;
        for i in 0..self.len {
            f.write_str(if self.get(i) { "1" } else { "0" })?;
        }
        f.write_str("\")")
    }
}

/// Anything viewable as a [`BitSlice`]. Lets APIs accept both `BitStr` and
/// `BitSlice` arguments.
pub trait Bits {
    /// Borrow as a bit-slice.
    fn as_slice(&self) -> BitSlice<'_>;
}

impl Bits for BitStr {
    #[inline]
    fn as_slice(&self) -> BitSlice<'_> {
        self.as_slice()
    }
}

impl Bits for BitSlice<'_> {
    #[inline]
    fn as_slice(&self) -> BitSlice<'_> {
        *self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let pattern = [true, false, true, true, false, false, true];
        let mut s = BitStr::new();
        for (n, &b) in pattern.iter().cycle().take(200).enumerate() {
            assert_eq!(s.len(), n);
            s.push(b);
        }
        for i in 0..200 {
            assert_eq!(s.get(i), pattern[i % 7], "bit {i}");
        }
    }

    #[test]
    fn from_bin_str_display_roundtrip() {
        for t in ["", "0", "1", "00001", "101001", &"10".repeat(100)] {
            assert_eq!(BitStr::from_bin_str(t).to_string(), t);
        }
    }

    #[test]
    fn from_u64_roundtrip() {
        let s = BitStr::from_u64(0b1011, 4);
        assert_eq!(s.to_string(), "1011");
        assert_eq!(s.to_u64(), 0b1011);
        let full = BitStr::from_u64(u64::MAX, 64);
        assert_eq!(full.to_u64(), u64::MAX);
        assert_eq!(BitStr::from_u64(5, 0).len(), 0);
    }

    #[test]
    fn from_bytes_orders_like_ascii() {
        let a = BitStr::from_ascii("abc");
        let b = BitStr::from_ascii("abd");
        assert!(a < b);
        assert_eq!(a.len(), 24);
        assert_eq!(a.lcp(&b), 8 * 2 + 5); // 'c'=0x63 vs 'd'=0x64 differ at bit 5
    }

    #[test]
    fn pop_restores_normalization() {
        let mut s = BitStr::from_bin_str("111");
        assert_eq!(s.pop(), Some(true));
        assert_eq!(s, BitStr::from_bin_str("11"));
        let mut t = BitStr::from_bits((0..65).map(|_| true));
        t.pop();
        assert_eq!(t.words().len(), 1);
        assert_eq!(t, BitStr::from_bits((0..64).map(|_| true)));
    }

    #[test]
    fn set_bit() {
        let mut s = BitStr::from_bin_str("0000");
        s.set(2, true);
        assert_eq!(s.to_string(), "0010");
        s.set(2, false);
        assert_eq!(s.to_string(), "0000");
    }

    #[test]
    fn append_unaligned() {
        let mut s = BitStr::from_bin_str("101");
        let t = BitStr::from_bits((0..130).map(|i| i % 3 == 0));
        s.append(&t.as_slice());
        assert_eq!(s.len(), 133);
        for i in 0..130 {
            assert_eq!(s.get(3 + i), i % 3 == 0);
        }
    }

    #[test]
    fn truncate_masks_tail() {
        let mut s = BitStr::from_bits((0..100).map(|_| true));
        s.truncate(67);
        assert_eq!(s.len(), 67);
        assert_eq!(s.words().len(), 2);
        // normalization: equality with a freshly built string holds
        assert_eq!(s, BitStr::from_bits((0..67).map(|_| true)));
        s.truncate(999); // no-op
        assert_eq!(s.len(), 67);
    }

    #[test]
    fn lcp_basics() {
        let a = BitStr::from_bin_str("00001");
        let b = BitStr::from_bin_str("00011");
        assert_eq!(a.lcp(&b), 3);
        assert_eq!(a.lcp(&a), 5);
        assert_eq!(a.lcp(&BitStr::new()), 0);
        let long_a = BitStr::from_bits((0..1000).map(|i| i % 7 == 0));
        let mut long_b = long_a.clone();
        long_b.set(777, !long_b.get(777));
        assert_eq!(long_a.lcp(&long_b), 777);
    }

    #[test]
    fn ordering_prefix_first() {
        let a = BitStr::from_bin_str("10");
        let b = BitStr::from_bin_str("100");
        let c = BitStr::from_bin_str("101");
        assert!(a < b && b < c && a < c);
        let mut v = vec![c.clone(), a.clone(), b.clone()];
        v.sort();
        assert_eq!(v, vec![a, b, c]);
    }

    #[test]
    fn slice_views() {
        let s = BitStr::from_bin_str("0110100110010110");
        let v = s.slice(3..11);
        assert_eq!(v.to_bitstr().to_string(), "01001100");
        let vv = v.slice(2..6);
        assert_eq!(vv.to_bitstr().to_string(), "0011");
        assert_eq!(vv.to_u64(), 0b0011);
    }

    #[test]
    fn slice_lcp_unaligned() {
        let s = BitStr::from_bits((0..300).map(|i| (i / 3) % 2 == 0));
        let a = s.slice(5..200);
        let b = s.slice(5..150);
        assert_eq!(a.lcp(&b), 145);
        let c = s.slice(6..200);
        let expected = a.iter().zip(c.iter()).take_while(|(x, y)| x == y).count();
        assert_eq!(a.lcp(&c), expected);
    }

    #[test]
    fn starts_with() {
        let s = BitStr::from_bin_str("101001");
        assert!(s.starts_with(&BitStr::from_bin_str("1010")));
        assert!(s.starts_with(&BitStr::new()));
        assert!(!s.starts_with(&BitStr::from_bin_str("1011")));
        assert!(!s.starts_with(&BitStr::from_bin_str("1010011")));
    }

    /// Lengths on both sides of every representation boundary: empty, one
    /// bit, one full word, the last inline lengths, the first heap length,
    /// and a heap string of whole words.
    const BOUNDARY_LENS: [usize; 7] = [0, 1, 64, 127, 128, 129, 192];

    fn pattern(n: usize) -> Vec<bool> {
        (0..n).map(|i| (i * 7 + i / 5) % 3 != 0).collect()
    }

    /// `s` holds exactly `model`, normalized, whatever its representation.
    fn check(s: &BitStr, model: &[bool]) {
        assert_eq!(s.len(), model.len());
        assert_eq!(s.is_empty(), model.is_empty());
        assert_eq!(s.words().len(), model.len().div_ceil(64));
        assert_eq!(s.storage_words(), model.len().div_ceil(64));
        for (i, &b) in model.iter().enumerate() {
            assert_eq!(s.get(i), b, "bit {i} of {}", model.len());
        }
        if let Some(&last) = s.words().last() {
            let r = model.len() & 63;
            assert_eq!(
                last,
                mask_left(last, if r == 0 { 64 } else { r }),
                "tail not zero"
            );
        }
        assert_eq!(s, &BitStr::from_bits(model.iter().copied()));
    }

    fn hash_of(s: &BitStr) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    #[test]
    fn boundary_push_pop() {
        for &n in &BOUNDARY_LENS {
            let model = pattern(n + 1);
            let mut s = BitStr::from_bits(model[..n].iter().copied());
            check(&s, &model[..n]);
            s.push(model[n]);
            check(&s, &model);
            assert_eq!(s.pop(), Some(model[n]));
            check(&s, &model[..n]);
            // all the way down and back up across every boundary
            for i in (0..n).rev() {
                assert_eq!(s.pop(), Some(model[i]));
            }
            assert_eq!(s.pop(), None);
            check(&s, &[]);
            for &b in &model {
                s.push(b);
            }
            check(&s, &model);
        }
    }

    #[test]
    fn boundary_push_chunk_and_append() {
        for &n in &BOUNDARY_LENS {
            for &extra in &[1usize, 63, 64, 65, 130] {
                let model = pattern(n + extra);
                let head = BitStr::from_bits(model[..n].iter().copied());
                let tail = BitStr::from_bits(model[n..].iter().copied());
                let mut s = head.clone();
                s.append(&tail.as_slice());
                check(&s, &model);
                // an unaligned source view takes the same path
                let padded = BitStr::from_bits(
                    [true, false, true]
                        .into_iter()
                        .chain(model[n..].iter().copied()),
                );
                let mut t = head.clone();
                t.append(&padded.slice(3..padded.len()));
                check(&t, &model);
                if extra <= 64 {
                    let mut u = head.clone();
                    // garbage below the chunk's n bits must be masked off
                    let garbage = if extra < 64 { u64::MAX >> extra } else { 0 };
                    u.push_chunk(tail.as_slice().chunk(0, extra) | garbage, extra);
                    check(&u, &model);
                }
            }
        }
    }

    #[test]
    fn boundary_truncate() {
        for &from in &BOUNDARY_LENS {
            for &to in &BOUNDARY_LENS {
                let model = pattern(from);
                let mut s = BitStr::from_bits(model.iter().copied());
                s.truncate(to);
                check(&s, &model[..to.min(from)]);
                // growing again after a truncate must not resurrect old bits
                let mut grown = model[..to.min(from)].to_vec();
                grown.resize(grown.len() + 130, false);
                for _ in 0..130 {
                    s.push(false);
                }
                check(&s, &grown);
            }
        }
    }

    #[test]
    fn boundary_from_u64() {
        for len in [0usize, 1, 63, 64] {
            let v = 0xA5A5_5A5A_DEAD_BEEFu64;
            let s = BitStr::from_u64(v, len);
            let model: Vec<bool> = (0..len).map(|i| (v >> (len - 1 - i)) & 1 == 1).collect();
            check(&s, &model);
            // and it keeps growing across the inline limit
            let mut t = s.clone();
            let mut grown = model.clone();
            for b in pattern(129) {
                t.push(b);
                grown.push(b);
            }
            check(&t, &grown);
        }
    }

    #[test]
    fn boundary_slice_to_bitstr_and_clone() {
        let src = BitStr::from_bits(pattern(400));
        let model = pattern(400);
        for &n in &BOUNDARY_LENS {
            for start in [0usize, 1, 63, 64, 65] {
                let s = src.slice(start..start + n).to_bitstr();
                check(&s, &model[start..start + n]);
                let c = s.clone();
                check(&c, &model[start..start + n]);
                assert_eq!(c, s);
            }
        }
    }

    #[test]
    fn inline_equals_truncated_heap() {
        let long = BitStr::from_bits(pattern(300));
        for &n in &BOUNDARY_LENS {
            let mut heap = long.clone();
            heap.truncate(n); // stays on the heap
            let inline = BitStr::from_bits(pattern(300).into_iter().take(n));
            assert_eq!(heap, inline, "len {n}");
            assert_eq!(hash_of(&heap), hash_of(&inline), "len {n}");
            assert_eq!(heap.cmp(&inline), Ordering::Equal, "len {n}");
            assert_eq!(heap.words(), inline.words(), "len {n}");
            let mut bigger = inline.clone();
            bigger.push(true);
            assert!(heap < bigger, "len {n}");
            assert_ne!(heap, bigger);
            // a clone of the truncated string is the same value again
            assert_eq!(heap.clone(), inline);
            assert_eq!(hash_of(&heap.clone()), hash_of(&inline));
        }
    }

    #[test]
    fn value_is_four_words() {
        // the inline words share the Vec's space, so nodes holding a
        // BitStr edge did not grow
        assert_eq!(std::mem::size_of::<BitStr>(), 32);
    }

    #[test]
    fn concat() {
        let a = BitStr::from_bin_str("101");
        let b = BitStr::from_bin_str("0011");
        assert_eq!(a.concat(&b).to_string(), "1010011");
    }
}
