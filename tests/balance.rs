//! Theorem 4.3's skew-resistance, asserted on what the theorem bounds —
//! the words the busiest module moves (IO time) — and not only on the
//! max/mean ratio: under the worst-case batch the PIM-trie's busiest
//! module moves a small fraction of what the range-partitioned strawman's
//! one hot module does, and on a uniform batch, where every module has
//! real work, the load stays within a small constant of the mean.

use baselines::RangePartitioned;
use pim_trie::{PimTrie, PimTrieConfig};

/// A moving hotspot: a 95 %-hot prefix bucket that advances to the next
/// bucket every batch. At the paper's `K_B = log² P` the static random
/// partition already spreads each bucket's subtree over many small blocks,
/// so the chase stays near balance. Only an oversized block bound, one
/// that keeps a whole bucket in one block, serialises every batch on the
/// hot bucket's module — the regime online re-partitioning would be for.
///
/// The busiest module's words are asserted beside the max/mean ratio: a
/// batch here moves a few thousand words per module, so a few hundred
/// words on one module move the ratio by a tenth while the load that
/// decides IO time barely changes.
#[test]
fn static_partition_holds_hotspot_chase_at_paper_k_b() {
    let p = 16;
    let n = 1usize << 13;
    let bsz = 1usize << 10;
    let (warm, measure) = (22, 4);
    let total = warm + measure;
    let keys = workloads::uniform_fixed(n, 64, 91);
    let values: Vec<u64> = (0..n as u64).collect();
    let stream = workloads::hotspot_chase(total * bsz, 64, 4, bsz, 0.95, 93);
    let batches: Vec<&[bitstr::BitStr]> = stream.chunks(bsz).collect();

    // (mean per-batch balance, mean busiest-module words) per K_B
    let mut runs = Vec::new();
    for k_b in [None, Some(20480)] {
        let mut cfg = PimTrieConfig::for_modules(p).with_seed(94);
        if let Some(k_b) = k_b {
            cfg = cfg.with_k_b(k_b);
        }
        let mut t = PimTrie::build(cfg, &keys, &values);
        for b in &batches[..warm] {
            let _ = t.lcp_batch(b);
        }
        let mut bal_sum = 0.0f64;
        let mut max_sum = 0u64;
        for b in &batches[warm..] {
            let snap = t.system().metrics().snapshot();
            let _ = t.lcp_batch(b);
            let d = t.system().metrics().since(&snap);
            bal_sum += d.io_balance();
            max_sum += d.io_per_module.iter().copied().max().unwrap_or(0);
        }
        runs.push((bal_sum / measure as f64, max_sum / measure as u64));
    }
    let ((paper_bal, paper_max), (big_bal, big_max)) = (runs[0], runs[1]);
    // measured 15.4–15.6 per batch, busiest module 21 664–21 988 words
    assert!(
        big_bal >= p as f64 / 2.0,
        "K_B = 20 480 should serialise the chase: balance {big_bal:.2}"
    );
    // measured 1.84 / 1.35 / 1.39 / 1.37 (mean 1.49)
    assert!(
        paper_bal <= 2.0,
        "the paper's K_B failed to hold the chase: balance {paper_bal:.2}"
    );
    // measured 3 757 vs 21 864 words, mean over the measured batches
    assert!(
        paper_max * 4 <= big_max,
        "the paper's K_B left the busiest module too loaded: {paper_max} vs {big_max} words"
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
