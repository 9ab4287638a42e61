//! Property-based end-to-end tests: arbitrary batches of inserts, deletes
//! and queries keep the distributed PIM-trie exactly equivalent to a plain
//! CPU trie.

use bitstr::BitStr;
use pim_trie::{PimTrie, PimTrieConfig};
use proptest::prelude::*;
use trie_core::Trie;

fn arb_key() -> impl Strategy<Value = BitStr> {
    proptest::collection::vec(any::<bool>(), 1..60).prop_map(BitStr::from_bits)
}

fn bits(s: &str) -> BitStr {
    BitStr::from_bits(s.chars().map(|c| c == '1').collect::<Vec<_>>())
}

/// Explicit replay of the one shrink proptest ever recorded for this
/// suite (formerly a `cc` line in `prop_e2e.proptest-regressions`): a
/// mixed present/absent delete batch whose cascade once crossed a
/// mirror boundary. A named test keeps replaying even when the
/// property's strategy signature changes — the seed file entry had
/// silently stopped matching after the batch sizes were retuned.
#[test]
fn replay_insert_then_delete_regression() {
    let keys: Vec<BitStr> = [
        "0101110011010010100110100",
        "00010001001101001100010100010011101010001011",
        "01000010101001",
        "00110111010110010011100100011110101111011100000",
        "000000010010100001111101000010101010010000100100000010",
        "00000010",
        "0100001010000001101",
        "000010001101",
        "0010111011001100111110",
        "01001001010111011000111001001010001010111100001101",
        "00101010011001100101000000000110101101000011",
        "001000101110000101011011100000110101101010",
        "0001010111100110100110000101000110010010000111",
        "010",
        "0011101001101011010100100000001011101001",
    ]
    .iter()
    .map(|s| bits(s))
    .collect();
    let extra: Vec<BitStr> = [
        "0100111000110000011111100010001111000000110001111",
        "1101111101110010",
        "101100110000110101011000010111101011000100000100",
        "111011010111111010001010110100100101101110",
        "11010000001101111000010101011101",
        "00100010001011010000110010111",
        "111100010000001000101010110",
        "011001010000110010011110111111001100111100101101100000",
        "10111100",
        "011110000111010100110000",
        "0111011101010110101110111100110011",
        "010",
        "1010001010111011100100000110000",
        "1100100101010100101011101001001000111",
    ]
    .iter()
    .map(|s| bits(s))
    .collect();

    let values: Vec<u64> = (0..keys.len() as u64).collect();
    let mut pim = PimTrie::build(PimTrieConfig::for_modules(4).with_seed(2), &keys, &values);
    let mut oracle = Trie::new();
    for (k, v) in keys.iter().zip(&values) {
        oracle.insert(k, *v);
    }
    let removed = pim.delete_batch(&extra);
    let mut want_removed = 0;
    for k in &extra {
        if oracle.delete(k.as_slice()).is_some() {
            want_removed += 1;
        }
    }
    assert_eq!(removed, want_removed);
    assert_eq!(pim.len(), oracle.n_keys());

    let removed = pim.delete_batch(&keys);
    let mut want_removed = 0;
    for k in &keys {
        if oracle.delete(k.as_slice()).is_some() {
            want_removed += 1;
        }
    }
    assert_eq!(removed, want_removed);
    assert_eq!(pim.len(), 0);
    assert!(pim.audit_debug().is_empty());
}

fn arb_batch(n: usize) -> impl Strategy<Value = Vec<BitStr>> {
    proptest::collection::vec(arb_key(), 1..n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lcp_matches_oracle(keys in arb_batch(80), queries in arb_batch(60), p in 1usize..6) {
        let values: Vec<u64> = (0..keys.len() as u64).collect();
        let mut pim = PimTrie::build(
            PimTrieConfig::for_modules(p).with_seed(1),
            &keys,
            &values,
        );
        let mut oracle = Trie::new();
        for (k, v) in keys.iter().zip(&values) {
            oracle.insert(k, *v);
        }
        prop_assert_eq!(pim.len(), oracle.n_keys());
        let want: Vec<usize> = queries
            .iter()
            .map(|q| oracle.lcp(q.as_slice()).lcp_bits)
            .collect();
        prop_assert_eq!(pim.lcp_batch(&queries), want);
        prop_assert!(pim.audit_debug().is_empty());
    }

    #[test]
    fn insert_then_delete_roundtrip(keys in arb_batch(60), extra in arb_batch(40)) {
        let values: Vec<u64> = (0..keys.len() as u64).collect();
        let mut pim = PimTrie::build(
            PimTrieConfig::for_modules(4).with_seed(2),
            &keys,
            &values,
        );
        let mut oracle = Trie::new();
        for (k, v) in keys.iter().zip(&values) {
            oracle.insert(k, *v);
        }
        // delete the extras (some exist, some don't), then delete the keys
        let removed = pim.delete_batch(&extra);
        let mut want_removed = 0;
        for k in &extra {
            if oracle.delete(k.as_slice()).is_some() {
                want_removed += 1;
            }
        }
        prop_assert_eq!(removed, want_removed);
        prop_assert_eq!(pim.len(), oracle.n_keys());

        let removed = pim.delete_batch(&keys);
        let mut want_removed = 0;
        for k in &keys {
            if oracle.delete(k.as_slice()).is_some() {
                want_removed += 1;
            }
        }
        prop_assert_eq!(removed, want_removed);
        prop_assert_eq!(pim.len(), 0);
        prop_assert!(pim.audit_debug().is_empty());
    }

    #[test]
    fn subtree_equals_oracle(keys in arb_batch(60), prefixes in arb_batch(12)) {
        let values: Vec<u64> = (0..keys.len() as u64).collect();
        let mut pim = PimTrie::build(
            PimTrieConfig::for_modules(4).with_seed(3),
            &keys,
            &values,
        );
        let mut oracle = Trie::new();
        for (k, v) in keys.iter().zip(&values) {
            oracle.insert(k, *v);
        }
        let got = pim.subtree_batch(&prefixes);
        for (pfx, sub) in prefixes.iter().zip(got) {
            let want = oracle.subtree(pfx.as_slice());
            match (sub, want) {
                (None, None) => {}
                (Some(g), Some(w)) => {
                    let mut gi = g.items();
                    let mut wi = w.items();
                    gi.sort();
                    wi.sort();
                    prop_assert_eq!(gi, wi);
                }
                (g, w) => prop_assert!(
                    false,
                    "presence mismatch for {}: got {:?} want {:?}",
                    pfx,
                    g.map(|t| t.n_keys()),
                    w.map(|t| t.n_keys())
                ),
            }
        }
    }
}
