//! Hot-path cache integration tests: exactness against an uncached oracle,
//! zero perturbation at capacity 0, IO-word savings on skewed batches,
//! decay-driven adaptation when the hotspot moves, and coherence under
//! injected faults (chaos with the cache enabled).

use bitstr::BitStr;
use pim_sim::Snapshot;
use pim_trie::{CrashSpec, FaultPlan, PimTrie, PimTrieConfig};

const CACHE_WORDS: u64 = 1 << 14;

fn values_for(keys: &[BitStr]) -> Vec<u64> {
    (0..keys.len() as u64).collect()
}

fn cfg(p: usize) -> PimTrieConfig {
    PimTrieConfig::for_modules(p).with_seed(42)
}

/// Repeat a slice of keys `reps` times to make a hot query batch.
fn hot_batch(keys: &[BitStr], reps: usize) -> Vec<BitStr> {
    let mut out = Vec::with_capacity(keys.len() * reps);
    for _ in 0..reps {
        out.extend_from_slice(keys);
    }
    out
}

/// Exactness: with the cache on, every batch op over a mixed
/// insert/query/delete workload returns exactly what the uncached oracle
/// returns, the cache actually serves hits, and the structural audit stays
/// clean throughout.
#[test]
fn cache_on_matches_uncached_oracle() {
    let p = 8;
    let mut oracle = PimTrie::new(cfg(p));
    let mut subject = PimTrie::new(cfg(p).with_cache_words(CACHE_WORDS));

    let keys = workloads::zipf_prefixes(1 << 11, 96, 10, 0.99, 17);
    let values = values_for(&keys);
    oracle.insert_batch(&keys, &values);
    subject.insert_batch(&keys, &values);

    // several rounds of hot queries interleaved with mutations, so hits,
    // admissions and invalidations all happen while we compare results
    let hot: Vec<BitStr> = keys.iter().step_by(37).cloned().collect();
    for round in 0..6 {
        let queries = hot_batch(&hot, 4);
        assert_eq!(
            subject.lcp_batch(&queries),
            oracle.lcp_batch(&queries),
            "lcp mismatch in round {round}"
        );
        assert_eq!(
            subject.get_batch(&queries),
            oracle.get_batch(&queries),
            "get mismatch in round {round}"
        );
        // mutate between query rounds: inserts and deletes must invalidate
        let extra = workloads::uniform_fixed(64, 96, 100 + round as u64);
        let ev: Vec<u64> = (10_000 + 100 * round as u64..).take(extra.len()).collect();
        oracle.insert_batch(&extra, &ev);
        subject.insert_batch(&extra, &ev);
        let dels: Vec<BitStr> = keys[round * 32..round * 32 + 16].to_vec();
        assert_eq!(
            subject.delete_batch(&dels),
            oracle.delete_batch(&dels),
            "delete count mismatch in round {round}"
        );
    }

    let s = subject.cache_stats();
    assert!(s.hits > 0, "cache never hit: {s:?}");
    assert!(s.admissions > 0, "cache never admitted: {s:?}");
    assert!(s.invalidations > 0, "mutations never invalidated: {s:?}");
    assert_eq!(oracle.cache_stats(), &pim_sim::CacheStats::default());
    assert!(
        subject.audit_debug().is_empty(),
        "audit failed with cache on"
    );
    assert_eq!(subject.len(), oracle.len());
}

/// Zero perturbation: capacity 0 (the default) leaves every metered counter
/// and every traced round identical to a default-config run, records no
/// cache activity, and emits no cache phases.
#[test]
fn capacity_zero_is_bit_identical_to_default() {
    let p = 8;
    let run = |config: PimTrieConfig| {
        let mut t = PimTrie::new(config);
        t.enable_tracing();
        let keys = workloads::zipf_prefixes(1 << 10, 96, 10, 0.99, 23);
        t.insert_batch(&keys, &values_for(&keys));
        let hot: Vec<BitStr> = keys.iter().step_by(19).cloned().collect();
        let lcp = t.lcp_batch(&hot_batch(&hot, 4));
        let got = t.get_batch(&hot);
        let dels: Vec<BitStr> = keys.iter().step_by(5).cloned().collect();
        let removed = t.delete_batch(&dels);
        let m = t.system().metrics();
        let counters = (
            m.io_rounds(),
            m.io_time(),
            m.io_volume(),
            m.pim_work(),
            m.cpu_work(),
        );
        assert_eq!(m.cache_stats(), &pim_sim::CacheStats::default());
        let tracer = t.system_mut().metrics_mut().take_tracer().unwrap();
        assert!(
            tracer.events().iter().all(|e| !e.phase.contains("cache")),
            "cache phase traced with capacity 0"
        );
        (lcp, got, removed, counters, tracer.events().to_vec())
    };
    assert_eq!(run(cfg(p)), run(cfg(p).with_cache_words(0)));
}

/// Effectiveness: once warm, a hot Zipf query batch moves strictly fewer
/// CPU↔PIM words than the same batch on an uncached twin — under half —
/// and never more IO rounds, and `words_saved` stays a true lower bound on
/// the measured volume gap. The rounds used to be strictly fewer because
/// a cache hit skipped the descent's top rounds; the uncached twin no
/// longer pays for those either (the host holds the top of the meta-block
/// tree with or without a block cache), so what the block cache saves in
/// rounds is whatever a batch that hits entirely skips, which this batch
/// need not be. The words are the block cache's own claim and stay strict.
#[test]
fn warm_cache_cuts_io_words_and_rounds() {
    let p = 8;
    let keys = workloads::zipf_prefixes(1 << 11, 96, 10, 0.99, 29);
    let values = values_for(&keys);
    let mut cold = PimTrie::new(cfg(p));
    let mut warm = PimTrie::new(cfg(p).with_cache_words(CACHE_WORDS));
    cold.insert_batch(&keys, &values);
    warm.insert_batch(&keys, &values);

    let hot: Vec<BitStr> = keys.iter().step_by(31).cloned().collect();
    // warm-up: let admissions converge on the hot paths
    for _ in 0..16 {
        let _ = warm.lcp_batch(&hot_batch(&hot, 4));
        let _ = cold.lcp_batch(&hot_batch(&hot, 4));
    }

    let measure = |t: &mut PimTrie, q: &[BitStr]| -> (u64, u64, Vec<usize>) {
        let snap: Snapshot = t.system().metrics().snapshot();
        let out = t.lcp_batch(q);
        let d = t.system().metrics().since(&snap);
        (d.io_volume(), d.io_rounds, out)
    };
    let q = hot_batch(&hot, 4);
    let saved_before = warm.cache_stats().words_saved;
    let (vol_warm, rounds_warm, out_warm) = measure(&mut warm, &q);
    let (vol_cold, rounds_cold, out_cold) = measure(&mut cold, &q);
    let saved = warm.cache_stats().words_saved - saved_before;

    assert_eq!(out_warm, out_cold);
    assert!(
        vol_warm < vol_cold / 2,
        "warm volume {vol_warm} not < half of cold {vol_cold}"
    );
    assert!(
        rounds_warm <= rounds_cold,
        "warm rounds {rounds_warm} > cold {rounds_cold}"
    );
    assert!(
        saved <= vol_cold - vol_warm,
        "words_saved {saved} exceeds measured gap {}",
        vol_cold - vol_warm
    );
    assert!(saved > 0, "no savings recorded on a warm hot batch");
}

/// Adaptation: when the hot set moves to a disjoint key region, frequency
/// decay lets the new hotspot displace the old one — hit counts recover to
/// their pre-shift level within a bounded number of batches, and the old
/// phase's blocks are actually evicted.
#[test]
fn decay_adapts_to_shifting_hotspot() {
    let p = 8;
    let keys = workloads::uniform_fixed(1 << 12, 96, 41);
    let values = values_for(&keys);
    // capacity sized so the two phase working sets cannot fully coexist
    let mut t = PimTrie::new(cfg(p).with_cache_words(1 << 12));
    t.insert_batch(&keys, &values);

    let phase_a: Vec<BitStr> = keys[..24].to_vec();
    let phase_b: Vec<BitStr> = keys[2048..2072].to_vec();
    let run_phase = |t: &mut PimTrie, hot: &[BitStr], batches: usize| -> Vec<u64> {
        (0..batches)
            .map(|_| {
                let before = t.cache_stats().hits;
                let _ = t.lcp_batch(&hot_batch(hot, 8));
                t.cache_stats().hits - before
            })
            .collect()
    };

    let a_hits = run_phase(&mut t, &phase_a, 40);
    let batch = (phase_a.len() * 8) as u64;
    let a_warm = *a_hits.last().unwrap();
    assert!(
        a_warm > batch * 9 / 10,
        "phase A never warmed: {a_warm}/{batch}"
    );

    let b_hits = run_phase(&mut t, &phase_b, 40);
    assert!(
        b_hits[0] < batch / 2,
        "phase B hit immediately ({}) — hotspot did not move",
        b_hits[0]
    );
    let b_warm = *b_hits.last().unwrap();
    assert!(
        b_warm > batch * 9 / 10,
        "cache never adapted to phase B: {b_warm}/{batch} (hits per batch: {b_hits:?})"
    );
    let s = t.cache_stats();
    assert!(s.evictions > 0, "phase A blocks were never evicted: {s:?}");
}

/// Coherence under faults: a faulted, fault-tolerant subject WITH the cache
/// enabled still returns results identical to a clean uncached oracle, and
/// the cache still serves hits while faults are being repaired around it.
#[test]
fn chaos_with_cache_matches_oracle() {
    let p = 8;
    let mut oracle = PimTrie::new(cfg(p));
    let mut subject = PimTrie::new(
        cfg(p)
            .with_cache_words(CACHE_WORDS)
            .with_fault_tolerance(true)
            .with_max_round_retries(64),
    );

    let keys = workloads::zipf_prefixes(1 << 10, 80, 10, 0.99, 53);
    let values = values_for(&keys);
    oracle.insert_batch(&keys, &values);
    subject.insert_batch(&keys, &values);

    subject.install_faults(
        FaultPlan::new(7)
            .with_flip_rate(1e-3)
            .with_drop_rate(2e-3)
            .with_truncate_rate(1e-3)
            .with_stragglers(0.01, 8)
            .with_crash(CrashSpec {
                round: 7,
                module: 3,
                down_rounds: 2,
                state_loss: true,
            })
            .with_crash(CrashSpec {
                round: 60,
                module: 5,
                down_rounds: 0,
                state_loss: true,
            }),
    );

    let hot: Vec<BitStr> = keys.iter().step_by(29).cloned().collect();
    for round in 0..5 {
        let q = hot_batch(&hot, 4);
        assert_eq!(
            subject.lcp_batch(&q),
            oracle.lcp_batch(&q),
            "faulted lcp mismatch in round {round}"
        );
        assert_eq!(
            subject.get_batch(&hot),
            oracle.get_batch(&hot),
            "faulted get mismatch in round {round}"
        );
        let extra = workloads::uniform_fixed(32, 80, 200 + round as u64);
        let ev: Vec<u64> = (50_000 + 100 * round as u64..).take(extra.len()).collect();
        oracle.insert_batch(&extra, &ev);
        subject.insert_batch(&extra, &ev);
        let dels: Vec<BitStr> = keys[round * 24..round * 24 + 12].to_vec();
        assert_eq!(
            subject.delete_batch(&dels),
            oracle.delete_batch(&dels),
            "faulted delete mismatch in round {round}"
        );
    }

    let fs = subject.system().metrics().fault_stats().clone();
    assert!(fs.total_injected() > 0, "chaos plan injected nothing");
    let cs = subject.cache_stats();
    assert!(cs.hits > 0, "cache never hit under faults: {cs:?}");
    assert!(
        subject.audit_debug().is_empty(),
        "audit failed after chaos with cache"
    );
    assert_eq!(subject.len(), oracle.len());
}
