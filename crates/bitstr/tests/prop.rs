//! Property-based tests for bit-strings and incremental hashing.

use bitstr::crc::Crc64Hasher;
use bitstr::hash::{naive_poly_hash, IncrementalHash, PolyHasher};
use bitstr::BitStr;
use proptest::prelude::*;

fn arb_bits() -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), 0..300)
}

/// Bit-at-a-time CRC-64/ECMA reference: plain polynomial long division,
/// one shift per message bit. Independent of the library's table/clmul
/// fast paths — if they and this disagree, the fast paths are wrong.
fn crc64_bitwise(bits: &[bool]) -> u64 {
    const ECMA_POLY: u64 = 0x42F0_E1EB_A9EA_3693;
    let mut h = 0u64;
    for &bit in bits {
        let carry = h >> 63;
        h <<= 1;
        if bit {
            h ^= 1;
        }
        if carry == 1 {
            h ^= ECMA_POLY;
        }
    }
    h
}

proptest! {
    #[test]
    fn push_get_roundtrip(bits in arb_bits()) {
        let s = BitStr::from_bits(bits.iter().copied());
        prop_assert_eq!(s.len(), bits.len());
        for (i, b) in bits.iter().enumerate() {
            prop_assert_eq!(s.get(i), *b);
        }
        // display / parse roundtrip
        let t = BitStr::from_bin_str(&s.to_string());
        prop_assert_eq!(&t, &s);
    }

    #[test]
    fn lcp_is_symmetric_and_correct(a in arb_bits(), b in arb_bits()) {
        let sa = BitStr::from_bits(a.iter().copied());
        let sb = BitStr::from_bits(b.iter().copied());
        let naive = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
        prop_assert_eq!(sa.lcp(&sb), naive);
        prop_assert_eq!(sb.lcp(&sa), naive);
    }

    #[test]
    fn ordering_matches_lexicographic(a in arb_bits(), b in arb_bits()) {
        let sa = BitStr::from_bits(a.iter().copied());
        let sb = BitStr::from_bits(b.iter().copied());
        prop_assert_eq!(sa.cmp(&sb), a.cmp(&b));
    }

    #[test]
    fn concat_associativity(a in arb_bits(), b in arb_bits(), c in arb_bits()) {
        let (sa, sb, sc) = (
            BitStr::from_bits(a.iter().copied()),
            BitStr::from_bits(b.iter().copied()),
            BitStr::from_bits(c.iter().copied()),
        );
        let left = sa.concat(&sb).concat(&sc);
        let right = sa.concat(&sb.concat(&sc));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn slices_agree_with_copies(bits in arb_bits(), cut in any::<prop::sample::Index>()) {
        let s = BitStr::from_bits(bits.iter().copied());
        let i = cut.index(bits.len() + 1);
        let head = s.slice(0..i).to_bitstr();
        let tail = s.slice(i..s.len()).to_bitstr();
        prop_assert_eq!(head.concat(&tail), s);
    }

    #[test]
    fn truncate_equals_slice(bits in arb_bits(), cut in any::<prop::sample::Index>()) {
        let s = BitStr::from_bits(bits.iter().copied());
        let i = cut.index(bits.len() + 1);
        let mut t = s.clone();
        t.truncate(i);
        prop_assert_eq!(t, s.slice(0..i).to_bitstr());
    }

    #[test]
    fn poly_hash_matches_naive(bits in arb_bits(), seed in any::<u64>()) {
        let h = PolyHasher::with_seed(seed);
        let s = BitStr::from_bits(bits.iter().copied());
        prop_assert_eq!(h.hash_str(&s), naive_poly_hash(h.base(), s.as_slice()));
    }

    #[test]
    fn poly_combine_is_concat(a in arb_bits(), b in arb_bits(), seed in any::<u64>()) {
        let h = PolyHasher::with_seed(seed);
        let sa = BitStr::from_bits(a.iter().copied());
        let sb = BitStr::from_bits(b.iter().copied());
        let ab = sa.concat(&sb);
        prop_assert_eq!(
            h.combine(h.hash_str(&sa), h.hash_str(&sb), sb.len() as u64),
            h.hash_str(&ab)
        );
    }

    #[test]
    fn crc_combine_is_concat(a in arb_bits(), b in arb_bits()) {
        let h = Crc64Hasher::ecma();
        let sa = BitStr::from_bits(a.iter().copied());
        let sb = BitStr::from_bits(b.iter().copied());
        let ab = sa.concat(&sb);
        prop_assert_eq!(
            h.combine(h.hash_str(&sa), h.hash_str(&sb), sb.len() as u64),
            h.hash_str(&ab)
        );
    }

    #[test]
    fn crc_hash_matches_bitwise_reference(bits in arb_bits()) {
        let h = Crc64Hasher::ecma();
        let s = BitStr::from_bits(bits.iter().copied());
        prop_assert_eq!(h.hash_str(&s).0, crc64_bitwise(&bits));
    }

    #[test]
    fn crc_combine_matches_bitwise_reference(
        a in arb_bits(),
        b in arb_bits(),
        c in arb_bits(),
    ) {
        // combine() must reproduce the long division over the whole
        // message, however the message is split and re-associated
        let h = Crc64Hasher::ecma();
        let (sa, sb, sc) = (
            BitStr::from_bits(a.iter().copied()),
            BitStr::from_bits(b.iter().copied()),
            BitStr::from_bits(c.iter().copied()),
        );
        let (ha, hb, hc) = (h.hash_str(&sa), h.hash_str(&sb), h.hash_str(&sc));
        let abc: Vec<bool> = a.iter().chain(&b).chain(&c).copied().collect();
        let want = crc64_bitwise(&abc);
        let left = h.combine(
            h.combine(ha, hb, sb.len() as u64),
            hc,
            sc.len() as u64,
        );
        let right = h.combine(
            ha,
            h.combine(hb, hc, sc.len() as u64),
            (sb.len() + sc.len()) as u64,
        );
        prop_assert_eq!(left.0, want, "left-associated combine");
        prop_assert_eq!(right.0, want, "right-associated combine");
    }

    #[test]
    fn hashes_separate_unequal_strings(a in arb_bits(), b in arb_bits()) {
        // not a tautology: full-width poly hashes collide with prob ~2^-61,
        // so unequal inputs must hash differently in practice
        prop_assume!(a != b);
        let h = PolyHasher::with_seed(12345);
        let sa = BitStr::from_bits(a.iter().copied());
        let sb = BitStr::from_bits(b.iter().copied());
        prop_assert_ne!(h.hash_str(&sa), h.hash_str(&sb));
    }
}
