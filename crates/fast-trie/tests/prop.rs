//! Property-based tests for the fast-trie family.

use bitstr::BitStr;
use fast_trie::{RemIndex, XFastTrie, YFastTrie};
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    #[test]
    fn xfast_matches_btreeset(
        ops in proptest::collection::vec((any::<u16>(), any::<bool>()), 1..300),
        queries in proptest::collection::vec(any::<u16>(), 1..60),
    ) {
        let mut t = XFastTrie::new(16);
        let mut set = BTreeSet::new();
        for (x, ins) in &ops {
            let x = *x as u64;
            if *ins {
                prop_assert_eq!(t.insert(x), set.insert(x));
            } else {
                prop_assert_eq!(t.remove(x), set.remove(&x));
            }
        }
        for q in &queries {
            let q = *q as u64;
            prop_assert_eq!(t.pred_or_eq(q), set.range(..=q).next_back().copied());
            prop_assert_eq!(t.succ_or_eq(q), set.range(q..).next().copied());
        }
        prop_assert_eq!(t.len(), set.len());
    }

    #[test]
    fn yfast_matches_btreeset(
        ops in proptest::collection::vec((any::<u32>(), any::<bool>()), 1..300),
        queries in proptest::collection::vec(any::<u32>(), 1..60),
    ) {
        let mut t = YFastTrie::new(32);
        let mut set = BTreeSet::new();
        for (x, ins) in &ops {
            let x = *x as u64;
            if *ins {
                prop_assert_eq!(t.insert(x), set.insert(x));
            } else {
                prop_assert_eq!(t.remove(x), set.remove(&x));
            }
        }
        for q in &queries {
            let q = *q as u64;
            prop_assert_eq!(t.contains(q), set.contains(&q));
            prop_assert_eq!(t.pred_or_eq(q), set.range(..=q).next_back().copied());
            prop_assert_eq!(t.succ_or_eq(q), set.range(q..).next().copied());
        }
    }

    #[test]
    fn rem_index_contract(
        keys in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 0..16),
            1..40,
        ),
        queries in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 0..16),
            1..40,
        ),
    ) {
        let mut idx = RemIndex::new(16);
        let mut stored: Vec<BitStr> = Vec::new();
        for k in &keys {
            let k = BitStr::from_bits(k.iter().copied());
            if !stored.contains(&k) {
                idx.insert(k.as_slice());
                stored.push(k);
            }
        }
        for q in &queries {
            let q = BitStr::from_bits(q.iter().copied());
            let got = idx.query(q.as_slice()).unwrap();
            prop_assert!(stored.contains(&got));
            // the documented contract: reaches the deepest stored prefix
            if let Some(r) = stored
                .iter()
                .filter(|k| q.starts_with(*k))
                .max_by_key(|k| k.len())
            {
                prop_assert!(q.lcp(&got) >= r.len());
                prop_assert!(got.starts_with(r));
                if q.starts_with(&got) {
                    prop_assert_eq!(&got, r);
                }
            }
            if stored.contains(&q) {
                prop_assert_eq!(got, q);
            }
        }
    }
}
