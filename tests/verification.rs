//! §4.4.3 verification: results stay exact no matter how narrow the hash
//! digests are, across all four operations (and point lookups).

use bitstr::hash::HashWidth;
use bitstr::BitStr;
use pim_trie::{PimTrie, PimTrieConfig};
use trie_core::Trie;

fn build_pair(width: u32, seed: u64, n: usize) -> (PimTrie, Trie, Vec<BitStr>) {
    let keys = workloads::uniform_fixed(n, 80, seed);
    let values: Vec<u64> = (0..keys.len() as u64).collect();
    let cfg = PimTrieConfig::for_modules(8)
        .with_seed(seed)
        .with_hash_width(HashWidth(width));
    let pim = PimTrie::build(cfg, &keys, &values);
    let mut oracle = Trie::new();
    for (k, v) in keys.iter().zip(&values) {
        oracle.insert(k, *v);
    }
    (pim, oracle, keys)
}

#[test]
fn narrow_digests_exact_lcp_and_get() {
    for width in [8u32, 10, 14] {
        let (mut pim, oracle, keys) = build_pair(width, 61 + width as u64, 600);
        assert_eq!(pim.len(), oracle.n_keys(), "width {width}");
        let queries = workloads::uniform_fixed(400, 90, 99 + width as u64);
        let want: Vec<usize> = queries
            .iter()
            .map(|q| oracle.lcp(q.as_slice()).lcp_bits)
            .collect();
        assert_eq!(pim.lcp_batch(&queries), want, "lcp width {width}");
        let want_get: Vec<Option<u64>> = keys
            .iter()
            .take(100)
            .map(|k| oracle.get(k.as_slice()))
            .collect();
        let probes: Vec<BitStr> = keys.iter().take(100).cloned().collect();
        assert_eq!(pim.get_batch(&probes), want_get, "get width {width}");
    }
}

#[test]
fn narrow_digests_exact_updates() {
    let (mut pim, mut oracle, keys) = build_pair(9, 77, 500);
    // delete a slice, insert fresh, verify counts and queries
    let dels: Vec<BitStr> = keys.iter().step_by(4).cloned().collect();
    let removed = pim.delete_batch(&dels);
    let mut want_removed = 0;
    for k in &dels {
        if oracle.delete(k.as_slice()).is_some() {
            want_removed += 1;
        }
    }
    assert_eq!(removed, want_removed);
    let fresh = workloads::uniform_fixed(300, 70, 78);
    let fv: Vec<u64> = (0..fresh.len() as u64).collect();
    pim.insert_batch(&fresh, &fv);
    for (k, v) in fresh.iter().zip(&fv) {
        oracle.insert(k, *v);
    }
    assert_eq!(pim.len(), oracle.n_keys());
    let queries = workloads::uniform_fixed(300, 80, 79);
    let want: Vec<usize> = queries
        .iter()
        .map(|q| oracle.lcp(q.as_slice()).lcp_bits)
        .collect();
    assert_eq!(pim.lcp_batch(&queries), want);
}

/// SubtreeQuery under narrow digests, with duplicate prefixes and
/// duplicate keys in every batch: results equal the oracle's, duplicates
/// share one answer, and an insert's last occurrence wins. (On these
/// inputs `redo_paths()` stays 0 at both widths: the hash index's exact
/// second layer rejects a colliding digest before it becomes a match, so
/// this pins the subtree path's exactness, not the redo behind it.)
#[test]
fn narrow_digests_exact_subtree_and_duplicate_keys() {
    for width in [8u32, 10] {
        let (mut pim, mut oracle, keys) = build_pair(width, 131 + width as u64, 600);
        // prefixes of stored keys at mixed depths (each twice), plus
        // random ones that mostly extend nothing
        let mut prefixes: Vec<BitStr> = keys
            .iter()
            .take(60)
            .enumerate()
            .map(|(i, k)| k.slice(0..4 + (i * 7) % 70).to_bitstr())
            .collect();
        prefixes.extend(workloads::uniform_fixed(40, 24, 140 + width as u64));
        prefixes.extend(prefixes.clone());
        let got = pim.subtree_batch(&prefixes);
        for (pfx, sub) in prefixes.iter().zip(got) {
            let want = oracle.subtree(pfx.as_slice()).map(|t| sorted(t.items()));
            assert_eq!(
                sub.map(|t| sorted(t.items())),
                want,
                "subtree of {pfx} width {width}"
            );
        }

        // duplicate keys: re-insert stored keys twice with different
        // values, look them up twice, delete them twice
        let dup: Vec<BitStr> = keys
            .iter()
            .take(80)
            .chain(keys.iter().take(80))
            .cloned()
            .collect();
        let vals: Vec<u64> = (1000..1000 + dup.len() as u64).collect();
        pim.insert_batch(&dup, &vals);
        for (k, v) in dup.iter().zip(&vals) {
            oracle.insert(k, *v);
        }
        assert_eq!(pim.len(), oracle.n_keys(), "width {width}");
        let want: Vec<Option<u64>> = dup.iter().map(|k| oracle.get(k.as_slice())).collect();
        assert_eq!(pim.get_batch(&dup), want, "get width {width}");
        assert_eq!(pim.delete_batch(&dup), 80, "delete width {width}");
        assert_eq!(pim.get_batch(&dup), vec![None; dup.len()], "width {width}");
    }
}

fn sorted(mut items: Vec<(BitStr, u64)>) -> Vec<(BitStr, u64)> {
    items.sort();
    items
}

/// Long keys under very narrow digests: the meta-level hash index then
/// hands out targets whose root pivot hash differs from the query's, and
/// only the block-level check of the full-width pivot hash (pushed and
/// pulled blocks alike) catches them. Every such catch becomes an exact
/// redo, so answers match the oracle and the redo path really runs.
#[test]
fn very_narrow_digests_on_long_keys_redo_to_exact_answers() {
    for width in [1u32, 2, 4] {
        for seed in [0u64, 1] {
            let keys = workloads::uniform_fixed(3000, 200, seed);
            let values: Vec<u64> = (0..keys.len() as u64).collect();
            let cfg = PimTrieConfig::for_modules(16)
                .with_seed(seed)
                .with_hash_width(HashWidth(width));
            let mut pim = PimTrie::build(cfg, &keys, &values);
            let mut oracle = Trie::new();
            for (k, v) in keys.iter().zip(&values) {
                oracle.insert(k, *v);
            }
            let ctx = format!("width {width} seed {seed}");

            // random strings, stored keys extended past their end, and
            // stored-key halves (which end mid-trie)
            let mut queries = workloads::uniform_fixed(1500, 220, 100 + seed);
            let tails = workloads::uniform_fixed(1500, 13, 200 + seed);
            queries.extend(keys.iter().zip(&tails).map(|(k, t)| k.concat(t)));
            queries.extend(keys.iter().skip(1500).map(|k| k.slice(0..100).to_bitstr()));
            let want: Vec<usize> = queries
                .iter()
                .map(|q| oracle.lcp(q.as_slice()).lcp_bits)
                .collect();
            assert_same(&pim.lcp_batch(&queries), &want, &format!("lcp {ctx}"));
            let probes: Vec<BitStr> = keys.iter().take(1500).cloned().chain(queries).collect();
            let want_get: Vec<Option<u64>> =
                probes.iter().map(|k| oracle.get(k.as_slice())).collect();
            assert_same(&pim.get_batch(&probes), &want_get, &format!("get {ctx}"));
            assert!(pim.redo_paths() > 0, "the redo path never ran: {ctx}");

            // one round of updates and subtree queries on the same index
            let dels: Vec<BitStr> = keys.iter().step_by(3).cloned().collect();
            let want_removed = dels
                .iter()
                .filter(|k| oracle.delete(k.as_slice()).is_some())
                .count();
            assert_eq!(pim.delete_batch(&dels), want_removed, "delete {ctx}");
            let fresh = workloads::uniform_fixed(400, 200, 300 + seed);
            let fv: Vec<u64> = (5000..5000 + fresh.len() as u64).collect();
            pim.insert_batch(&fresh, &fv);
            for (k, v) in fresh.iter().zip(&fv) {
                oracle.insert(k, *v);
            }
            assert_eq!(pim.len(), oracle.n_keys(), "{ctx}");
            let prefixes: Vec<BitStr> = keys
                .iter()
                .chain(&fresh)
                .step_by(7)
                .map(|k| k.slice(0..12).to_bitstr())
                .collect();
            for (pfx, sub) in prefixes.iter().zip(pim.subtree_batch(&prefixes)) {
                let want = oracle.subtree(pfx.as_slice()).map(|t| sorted(t.items()));
                assert_eq!(
                    sub.map(|t| sorted(t.items())),
                    want,
                    "subtree of {pfx} {ctx}"
                );
            }
        }
    }
}

/// Element-wise comparison that names the first few differing indices
/// instead of printing two batches in full.
fn assert_same<T: PartialEq + std::fmt::Debug>(got: &[T], want: &[T], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}");
    let wrong: Vec<(usize, &T, &T)> = (0..got.len())
        .filter(|&i| got[i] != want[i])
        .map(|i| (i, &got[i], &want[i]))
        .collect();
    assert!(
        wrong.is_empty(),
        "{ctx}: {} wrong answers, first (index, got, want): {:?}",
        wrong.len(),
        &wrong[..wrong.len().min(5)]
    );
}

#[test]
fn redo_counter_is_observable() {
    // with 6-bit digests and prefix-sharing keys, at least the counter API
    // works (collisions may or may not fire depending on layout)
    let (mut pim, oracle, _) = build_pair(6, 91, 800);
    let queries = workloads::uniform_fixed(500, 90, 92);
    let want: Vec<usize> = queries
        .iter()
        .map(|q| oracle.lcp(q.as_slice()).lcp_bits)
        .collect();
    assert_eq!(pim.lcp_batch(&queries), want);
    // exactness regardless of how many redos happened
    let _ = pim.redo_paths();
}
