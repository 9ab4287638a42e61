//! Adaptive-blocking integration tests: exactness of the adapt-on path
//! against a static-partition oracle for every batch op, zero
//! perturbation at the default threshold 0 (bit-identical counters,
//! traces and results — including the cache and chaos interplay — at 1
//! and 4 worker threads), and self-healing when a module crashes while
//! a migration wave is in flight.

use bitstr::BitStr;
use pim_trie::{CrashSpec, FaultPlan, PimTrie, PimTrieConfig};

fn values_for(keys: &[BitStr]) -> Vec<u64> {
    (0..keys.len() as u64).collect()
}

/// A config under which adaptation has real work to do: few buckets and
/// a heavy Zipf tilt concentrate traffic in one subtree, a large block
/// bound keeps that subtree in few blocks, and all-push routing sends
/// every matched word to the owning module.
fn skew_cfg(p: usize) -> PimTrieConfig {
    PimTrieConfig::for_modules(p)
        .with_seed(42)
        .with_k_b(256)
        .with_push_threshold(u64::MAX)
}

fn skewed_keys(seed: u64) -> Vec<BitStr> {
    workloads::zipf_prefixes(1 << 11, 96, 4, 2.5, seed)
}

/// Repeat a slice of keys `reps` times to make a hot query batch.
fn hot_batch(keys: &[BitStr], reps: usize) -> Vec<BitStr> {
    let mut out = Vec::with_capacity(keys.len() * reps);
    for _ in 0..reps {
        out.extend_from_slice(keys);
    }
    out
}

/// Drive both tries through the same mixed workload, asserting every
/// batch op returns identical results. Returns nothing; panics with the
/// op and round on the first divergence.
fn assert_differential(subject: &mut PimTrie, oracle: &mut PimTrie, seed: u64) {
    let keys = skewed_keys(seed);
    let values = values_for(&keys);
    oracle.insert_batch(&keys, &values);
    subject.insert_batch(&keys, &values);

    let hot: Vec<BitStr> = keys.iter().step_by(3).cloned().collect();
    for round in 0..8 {
        let q = hot_batch(&hot, 2);
        assert_eq!(
            subject.lcp_batch(&q),
            oracle.lcp_batch(&q),
            "lcp mismatch in round {round} (seed {seed})"
        );
        assert_eq!(
            subject.get_batch(&q),
            oracle.get_batch(&q),
            "get mismatch in round {round} (seed {seed})"
        );
        // subtree over short prefixes (the skewed buckets among them)
        let prefixes: Vec<BitStr> = keys[round * 8..round * 8 + 8]
            .iter()
            .map(|k| k.slice(0..6).to_bitstr())
            .collect();
        let sub_s = subject.subtree_batch(&prefixes);
        let sub_o = oracle.subtree_batch(&prefixes);
        for ((pfx, s), o) in prefixes.iter().zip(sub_s).zip(sub_o) {
            match (s, o) {
                (None, None) => {}
                (Some(s), Some(o)) => {
                    let mut si = s.items();
                    let mut oi = o.items();
                    si.sort();
                    oi.sort();
                    assert_eq!(si, oi, "subtree mismatch at {pfx:?} (seed {seed})");
                }
                (s, o) => panic!(
                    "subtree presence mismatch at {pfx:?} (seed {seed}): \
                     subject {} oracle {}",
                    s.is_some(),
                    o.is_some()
                ),
            }
        }
        // mutate between query rounds so splits/migrations interleave
        // with structural maintenance
        let extra = workloads::uniform_fixed(64, 96, 1000 * seed + round as u64);
        let ev: Vec<u64> = (10_000 + 100 * round as u64..).take(extra.len()).collect();
        oracle.insert_batch(&extra, &ev);
        subject.insert_batch(&extra, &ev);
        let dels: Vec<BitStr> = keys[round * 16..round * 16 + 8].to_vec();
        assert_eq!(
            subject.delete_batch(&dels),
            oracle.delete_batch(&dels),
            "delete count mismatch in round {round} (seed {seed})"
        );
    }
    assert_eq!(subject.len(), oracle.len());
    assert!(
        subject.audit_debug().is_empty(),
        "audit failed with adaptation on (seed {seed})"
    );
}

/// Exactness: with adaptation on (exact counters), every batch op over a
/// skewed insert/query/delete workload returns exactly what the static
/// oracle returns — across seeds — while splits/migrations actually
/// happen and the structural audit stays clean.
#[test]
fn adapt_on_matches_static_oracle() {
    let p = 8;
    for seed in [17, 29] {
        let mut oracle = PimTrie::new(skew_cfg(p));
        let mut subject = PimTrie::new(skew_cfg(p).with_adapt(0.05));
        assert_differential(&mut subject, &mut oracle, seed);

        let s = subject.adapt_stats();
        assert!(
            s.repartitions > 0 && s.moves() > 0,
            "adaptation never engaged (seed {seed}): {s:?}"
        );
        assert_eq!(oracle.adapt_stats(), &pim_trie::AdaptStats::default());
    }
}

/// Zero perturbation: the default threshold 0 leaves every metered
/// counter, every traced round and every result identical to a run on a
/// config that never heard of adaptation — with the cache enabled and a
/// fault plan injecting wire faults and a state-loss crash, at 1 and 4
/// worker threads.
#[test]
fn adapt_off_is_bit_identical_to_default() {
    let p = 8;
    // Default routing config here (not the all-push skew config): the
    // property under test is bit-identity of the pre-PR path, and the
    // chaos plan's flip rate is tuned for default-sized messages.
    let run = |config: PimTrieConfig| {
        let mut t = PimTrie::new(
            config
                .with_cache_words(1 << 12)
                .with_fault_tolerance(true)
                .with_max_round_retries(64),
        );
        t.enable_tracing();
        let keys = workloads::zipf_prefixes(1 << 10, 80, 10, 0.99, 23);
        t.insert_batch(&keys, &values_for(&keys));
        // chaos after the bulk load (the giant initial graft messages
        // cannot absorb a per-word flip rate tuned for query traffic)
        t.install_faults(
            FaultPlan::new(7)
                .with_flip_rate(1e-3)
                .with_crash(CrashSpec {
                    round: 19,
                    module: 3,
                    down_rounds: 1,
                    state_loss: true,
                }),
        );
        let hot: Vec<BitStr> = keys.iter().step_by(5).cloned().collect();
        let lcp = t.lcp_batch(&hot_batch(&hot, 4));
        let got = t.get_batch(&hot);
        let dels: Vec<BitStr> = keys.iter().step_by(7).cloned().collect();
        let removed = t.delete_batch(&dels);
        let m = t.system().metrics();
        let counters = (
            m.io_rounds(),
            m.io_time(),
            m.io_volume(),
            m.pim_work(),
            m.cpu_work(),
        );
        assert_eq!(m.adapt_stats(), &pim_trie::AdaptStats::default());
        let tracer = t.system_mut().metrics_mut().take_tracer().unwrap();
        assert!(
            tracer.events().iter().all(|e| e.op != "repartition"),
            "repartition op span traced with adaptation off"
        );
        (lcp, got, removed, counters, tracer.events().to_vec())
    };
    let base = PimTrieConfig::for_modules(p).with_seed(42);
    for threads in [1, 4] {
        let plain = pim_trie::with_threads(threads, || run(base.clone()));
        let off = pim_trie::with_threads(threads, || run(base.clone().with_adapt(0.0)));
        assert_eq!(plain, off, "adapt-off diverged at {threads} threads");
    }
}

/// Self-healing: state-loss crashes landing while the adaptive pass is
/// splitting and migrating blocks trigger the ordinary journal rebuild;
/// completed replies still match a fault-free static oracle and the
/// partition audit comes back clean.
#[test]
fn crash_during_migration_self_heals() {
    let p = 8;
    let mut oracle = PimTrie::new(skew_cfg(p));
    let mut subject = PimTrie::new(
        skew_cfg(p)
            .with_adapt(0.05)
            .with_fault_tolerance(true)
            .with_max_round_retries(64),
    );
    // Crashes spread across the run so at least one lands inside the
    // repartition spans the skewed traffic keeps provoking, yet far
    // enough apart that no single op's rebuild budget absorbs them all.
    let mut plan = FaultPlan::new(11);
    for (i, round) in [29u64, 400, 900].iter().enumerate() {
        plan = plan.with_crash(CrashSpec {
            round: *round,
            module: (2 * i + 1) % p,
            down_rounds: 1,
            state_loss: true,
        });
    }
    subject.install_faults(plan);
    assert_differential(&mut subject, &mut oracle, 37);

    let fs = subject.system().metrics().fault_stats().clone();
    assert!(
        fs.rebuilds > 0,
        "no crash actually forced a rebuild: {fs:?}"
    );
    let s = subject.adapt_stats();
    assert!(
        s.repartitions > 0 && s.moves() > 0,
        "adaptation never engaged under chaos: {s:?}"
    );
}
