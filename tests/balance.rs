//! Theorem 4.3's skew-resistance, asserted on what the theorem bounds —
//! the words the busiest module moves (IO time) — and not only on the
//! max/mean ratio: under the worst-case batch the PIM-trie's busiest
//! module moves a small fraction of what the range-partitioned strawman's
//! one hot module does, and on a uniform batch, where every module has
//! real work, the load stays within a small constant of the mean.

use baselines::RangePartitioned;
use pim_trie::{PimTrie, PimTrieConfig};

/// The adversary adaptive blocking exists for: a 95 %-hot
/// prefix bucket that moves to the next bucket every batch, against a
/// partition whose `K_B` keeps each bucket in one block. The static
/// partition serialises every batch on the hot bucket's module; the
/// adaptive run must cut the busiest module's query words severalfold
/// once it has seen (and therefore split and spread) each bucket — while
/// staying inside a hard budget on its own repartitioning traffic.
///
/// The max/mean ratio is asserted too, but it is the weaker statement:
/// a batch here moves ~2 000 words per module, so a few hundred words on
/// one module move the ratio by a tenth while the load that decides IO
/// time barely changes. ISSUE 8.
#[test]
fn adaptive_blocking_beats_static_under_hotspot_chase() {
    let p = 16;
    let n = 1usize << 13;
    let bsz = 1usize << 10;
    let (warm, measure) = (22, 4);
    // warm covers every bucket once (16) plus the first revisits; the
    // measured window then sees only buckets the tracker already spread
    let total = warm + measure;
    let keys = workloads::uniform_fixed(n, 64, 91);
    let values: Vec<u64> = (0..n as u64).collect();
    let stream = workloads::hotspot_chase(total * bsz, 64, 4, bsz, 0.95, 93);
    let batches: Vec<&[bitstr::BitStr]> = stream.chunks(bsz).collect();

    let mut balances = Vec::new();
    // busiest module's query words, mean over the measured batches
    let mut max_words = Vec::new();
    for threshold in [0.0, 0.02] {
        let mut cfg = PimTrieConfig::for_modules(p).with_seed(94).with_k_b(20480);
        if threshold > 0.0 {
            cfg = cfg.with_adapt(threshold);
        }
        let mut t = PimTrie::build(cfg, &keys, &values);
        for b in &batches[..warm] {
            let _ = t.lcp_batch(b);
        }
        let mut bal_sum = 0.0f64;
        let mut max_sum = 0u64;
        for b in &batches[warm..] {
            let snap = t.system().metrics().snapshot();
            let a0 = t.adapt_stats().clone();
            let _ = t.lcp_batch(b);
            let d = t.system().metrics().since(&snap);
            let a1 = t.adapt_stats();
            // query-path balance: adaptation's own transfers are metered
            // separately and judged by the words budget below instead
            let query_io: Vec<u64> = d
                .io_per_module
                .iter()
                .enumerate()
                .map(|(m, w)| {
                    let a = a1.io_per_module.get(m).copied().unwrap_or(0)
                        - a0.io_per_module.get(m).copied().unwrap_or(0);
                    w.saturating_sub(a)
                })
                .collect();
            bal_sum += pim_sim::balance(&query_io);
            max_sum += query_io.iter().copied().max().unwrap_or(0);
        }
        balances.push(bal_sum / measure as f64);
        max_words.push(max_sum / measure as u64);

        if threshold > 0.0 {
            let s = t.adapt_stats().clone();
            assert!(
                s.repartitions > 0 && s.splits > 0,
                "adaptation never engaged: {s:?}"
            );
            // hard budget on the adaptation's own wire traffic, amortised
            // over the whole stream (full-run reference is ~20 words/op)
            let per_op = s.words as f64 / (bsz * total) as f64;
            assert!(
                per_op < 32.0,
                "adaptation overspent its migration budget: {per_op:.1} words/op ({s:?})"
            );
        } else {
            assert_eq!(t.adapt_stats(), &pim_trie::AdaptStats::default());
        }
    }
    let (stat, adap) = (balances[0], balances[1]);
    assert!(
        stat >= p as f64 / 2.0,
        "static partition should serialise the chase: balance {stat:.2}"
    );
    // Measured: static 21 864 words on the busiest module, adaptive 2 877
    // (7.6x). With the master-table scatter still in every batch it was
    // 22 443 vs 3 802 (5.9x): that round spread ~14 000 words evenly, which
    // flattered the ratio below and hid a quarter of the real serialisation.
    assert!(
        max_words[1] * 6 <= max_words[0],
        "adaptive partition left the busiest module too loaded: {} vs static {} words",
        max_words[1],
        max_words[0]
    );
    // 1.40 measured (1.28 with the scatter round in the denominator, on a
    // busiest module that carried 3 802 words instead of 2 877)
    assert!(
        adap <= 1.5,
        "adaptive partition failed to level the chase: balance {adap:.2}"
    );
}

/// The paper's adversary: every query descends one path. Once matched,
/// the whole batch is a handful of pulls — ~600 words over seven rounds —
/// so its max/mean ratio (5.3) says which module the hot block sits on,
/// not how loaded the machine is. What Theorem 4.3 bounds is the busiest
/// module's words, so that is compared with the strawman's; the ratio is
/// asserted where it is a load statement, on a uniform batch of the same
/// size.
#[test]
fn pim_trie_balanced_under_worst_case_skew() {
    let p = 16;
    let keys = workloads::uniform_fixed(1 << 13, 96, 31);
    let values: Vec<u64> = (0..keys.len() as u64).collect();
    let mut pim = PimTrie::build(PimTrieConfig::for_modules(p).with_seed(32), &keys, &values);
    let mut range = RangePartitioned::build(p, &keys, &values);

    let batch = workloads::same_path_queries(&keys[42], 1 << 12, 32, 33);

    let snap = pim.system().metrics().snapshot();
    let _ = pim.lcp_batch(&batch);
    let d_pim = pim.system().metrics().since(&snap);

    let snap = range.system().metrics().snapshot();
    let _ = range.lcp_batch(&batch);
    let d_range = range.system().metrics().since(&snap);

    // 512 vs 20 480 measured (7 025 when every batch opened with the
    // master-table scatter, which this inequality would have failed)
    assert!(
        d_pim.io_time * 8 <= d_range.io_time,
        "pim-trie IO time under skew {} is not 8x below range partitioning's {}",
        d_pim.io_time,
        d_range.io_time
    );
    assert!(
        d_range.io_balance() > p as f64 * 0.9,
        "range partitioning should serialize: {:.2}",
        d_range.io_balance()
    );

    let uniform = workloads::uniform_fixed(1 << 12, 96, 34);
    let snap = pim.system().metrics().snapshot();
    let _ = pim.lcp_batch(&uniform);
    let d_uni = pim.system().metrics().since(&snap);
    assert!(
        d_uni.io_balance() < 1.5,
        "pim-trie imbalanced on a uniform batch: {:.2}",
        d_uni.io_balance()
    );
}

#[test]
fn io_time_scales_down_with_p() {
    // Theorem 4.3: IO time O(Q_Q / P) — doubling modules should shrink the
    // per-batch IO time substantially.
    let keys = workloads::uniform_fixed(1 << 12, 128, 41);
    let values: Vec<u64> = (0..keys.len() as u64).collect();
    let batch = workloads::uniform_fixed(1 << 12, 128, 42);
    let mut times = Vec::new();
    for p in [2usize, 16] {
        let mut pim = PimTrie::build(PimTrieConfig::for_modules(p).with_seed(43), &keys, &values);
        let snap = pim.system().metrics().snapshot();
        let _ = pim.lcp_batch(&batch);
        times.push(pim.system().metrics().since(&snap).io_time);
    }
    assert!(
        times[1] * 3 < times[0],
        "8x modules should cut IO time by well over 3x: {times:?}"
    );
}

#[test]
fn rounds_stay_logarithmic_in_p() {
    let keys = workloads::uniform_fixed(1 << 12, 96, 51);
    let values: Vec<u64> = (0..keys.len() as u64).collect();
    let batch = workloads::uniform_fixed(1 << 11, 96, 52);
    let mut rounds = Vec::new();
    for p in [4usize, 64] {
        let mut pim = PimTrie::build(PimTrieConfig::for_modules(p).with_seed(53), &keys, &values);
        let snap = pim.system().metrics().snapshot();
        let _ = pim.lcp_batch(&batch);
        rounds.push(pim.system().metrics().since(&snap).io_rounds);
    }
    // 16x more modules must not multiply rounds (O(log P) growth only)
    assert!(
        rounds[1] <= rounds[0] + 12,
        "rounds grew too fast with P: {rounds:?}"
    );
}
