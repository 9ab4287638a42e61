//! Packed variable-length bit-strings and incremental hashing.
//!
//! This crate provides the string substrate of the PIM-trie reproduction:
//!
//! * [`BitStr`] — an owned, heap-packed bit-string of arbitrary length. Bits
//!   are stored MSB-first inside `u64` words, so lexicographic bit order
//!   coincides with big-endian word order and longest-common-prefix queries
//!   run at one XOR + `leading_zeros` per machine word (`O(l/w)` as the
//!   PIM-trie paper assumes throughout).
//! * [`BitSlice`] — a borrowed view over a sub-range of a `BitStr` (or of raw
//!   words), supporting the same word-level LCP/compare/extract operations
//!   without copying.
//! * [`hash`] — *binary associatively incremental* hash functions in the
//!   sense of Definitions 2–3 of the paper: a rolling polynomial hash modulo
//!   the Mersenne prime `2^61 - 1` ([`hash::PolyHasher`]) and a CRC-64
//!   remainder hash over GF(2) ([`crc::Crc64Hasher`]). Both support
//!   `h(A·B) = combine(h(A), h(B), |B|)`, which is what lets PIM-trie hash a
//!   decomposed trie bottom-up and in parallel (Lemma 4.4 / Lemma 4.9).
//!
//! # Example
//!
//! ```
//! use bitstr::{BitStr, hash::{PolyHasher, IncrementalHash}};
//!
//! let a = BitStr::from_bin_str("00001");
//! let b = BitStr::from_bin_str("00011");
//! assert_eq!(a.as_slice().lcp(&b.as_slice()), 3);
//!
//! let h = PolyHasher::with_seed(42);
//! let ab = a.concat(&b);
//! let combined = h.combine(h.hash_str(&a), h.hash_str(&b), b.len() as u64);
//! assert_eq!(combined, h.hash_str(&ab));
//! ```

#![warn(missing_docs)]

mod bits;
pub mod crc;
pub mod hash;

pub use bits::{BitSlice, BitStr, Bits};

/// Machine word size in bits — the paper's `w`.
pub const WORD_BITS: usize = 64;

/// Mask keeping the `n` most-significant bits of a left-aligned chunk.
#[inline]
pub(crate) fn mask_left(x: u64, n: usize) -> u64 {
    if n >= 64 {
        x
    } else if n == 0 {
        0
    } else {
        x & (!0u64 << (64 - n))
    }
}

/// Extract up to 64 bits starting at absolute bit offset `start` from a
/// packed word array, returned **left-aligned** (bit `start` in the MSB).
/// Callers must ensure `start + n` does not exceed `words.len() * 64`.
#[inline]
pub(crate) fn chunk_from(words: &[u64], start: usize, n: usize) -> u64 {
    debug_assert!(n <= 64, "chunk length {n} exceeds a word");
    if n == 0 {
        return 0;
    }
    let w = start >> 6;
    let off = start & 63;
    let mut x = words[w] << off;
    if off != 0 && w + 1 < words.len() {
        x |= words[w + 1] >> (64 - off);
    }
    mask_left(x, n)
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn mask_left_edges() {
        assert_eq!(mask_left(!0, 0), 0);
        assert_eq!(mask_left(!0, 1), 1 << 63);
        assert_eq!(mask_left(!0, 64), !0);
        assert_eq!(mask_left(0xF0F0_0000_0000_0000, 4), 0xF000_0000_0000_0000);
    }

    #[test]
    fn chunk_from_within_word() {
        let words = [0b1011u64 << 60, 0];
        assert_eq!(chunk_from(&words, 0, 4), 0b1011 << 60);
        assert_eq!(chunk_from(&words, 1, 3), 0b011 << 61);
        assert_eq!(chunk_from(&words, 2, 2), 0b11 << 62);
    }

    #[test]
    fn chunk_from_crossing_words() {
        let words = [!0u64, 0x0FFF_FFFF_FFFF_FFFF];
        // chunk starting at bit 60, 8 bits: 1111 0000
        assert_eq!(chunk_from(&words, 60, 8), 0b1111_0000 << 56);
        let x = chunk_from(&words, 32, 64);
        assert_eq!(x, 0xFFFF_FFFF_0FFF_FFFF);
    }
}
