//! Chaos tests: seeded fault schedules against a fault-free oracle.
//!
//! A subject trie runs with `fault_tolerance` on and a [`FaultPlan`]
//! injecting word corruption, dropped/truncated replies, stragglers and
//! mid-batch module crashes with state loss. Every batch operation must
//! return results identical to a clean oracle trie, and the recovery
//! counters must show the faults were actually seen and repaired.

use bitstr::BitStr;
use pim_trie::{CrashSpec, FaultPlan, FaultStats, PimTrie, PimTrieConfig, PimTrieError};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn random_keys(rng: &mut ChaCha8Rng, n: usize, max_len: usize) -> Vec<BitStr> {
    (0..n)
        .map(|_| {
            let len = rng.gen_range(1..max_len);
            BitStr::from_bits((0..len).map(|_| rng.gen_bool(0.5)))
        })
        .collect()
}

fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
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
        })
}

/// Run the full op mix on a faulted subject and a clean oracle; return the
/// subject's results plus its final fault stats for determinism checks.
fn run_chaos(seed: u64) -> (Vec<usize>, Vec<Option<u64>>, usize, FaultStats) {
    run_chaos_with(seed, pim_trie::WireCodec::Plain)
}

/// `run_chaos` with the subject's wire codec negotiable: under
/// `Compact`, fault positions index into the *encoded* frames (bit
/// flips land on encoded bytes) and selective retransmit re-ships
/// encoded groups, so this exercises the whole corruption → CRC detect
/// → retransmit loop on the compact representation. The oracle stays
/// clean and Plain.
fn run_chaos_with(
    seed: u64,
    codec: pim_trie::WireCodec,
) -> (Vec<usize>, Vec<Option<u64>>, usize, FaultStats) {
    let p = 8;
    let mut oracle = PimTrie::new(PimTrieConfig::for_modules(p).with_seed(42));
    // A whole-block fetch reply can run to thousands of wire words; at a
    // 1e-3 per-word flip rate most deliveries of such a reply are corrupt,
    // so the per-round retry budget must be sized for the payload, not
    // the outage length.
    let mut subject = PimTrie::new(
        PimTrieConfig::for_modules(p)
            .with_seed(42)
            .with_fault_tolerance(true)
            .with_max_round_retries(64)
            .with_codec(codec),
    );

    let mut rng = ChaCha8Rng::seed_from_u64(1234);
    let keys = random_keys(&mut rng, 400, 100);
    let values: Vec<u64> = (0..keys.len() as u64).collect();

    // clean warm-up insert into both
    oracle.insert_batch(&keys, &values);
    subject.insert_batch(&keys, &values);

    // chaos on: everything below runs under injected faults
    subject.install_faults(chaos_plan(seed));

    let keys2 = random_keys(&mut rng, 300, 80);
    let values2: Vec<u64> = (1000..1000 + keys2.len() as u64).collect();
    oracle.insert_batch(&keys2, &values2);
    subject.insert_batch(&keys2, &values2);
    assert_eq!(
        subject.len(),
        oracle.len(),
        "key count after faulted insert"
    );

    let dels: Vec<BitStr> = keys.iter().step_by(3).cloned().collect();
    let removed_subject = subject.delete_batch(&dels);
    let removed_oracle = oracle.delete_batch(&dels);
    assert_eq!(removed_subject, removed_oracle, "faulted delete count");
    assert_eq!(
        subject.len(),
        oracle.len(),
        "key count after faulted delete"
    );

    let mut queries = random_keys(&mut rng, 200, 120);
    queries.extend(keys2.iter().take(60).cloned());
    let lcp_subject = subject.lcp_batch(&queries);
    assert_eq!(lcp_subject, oracle.lcp_batch(&queries), "faulted lcp");

    let mut probes: Vec<BitStr> = keys.iter().step_by(5).cloned().collect();
    probes.extend(keys2.iter().step_by(4).cloned());
    let got_subject = subject.get_batch(&probes);
    assert_eq!(got_subject, oracle.get_batch(&probes), "faulted get");

    let prefixes: Vec<BitStr> = keys2
        .iter()
        .step_by(29)
        .map(|k| k.slice(0..k.len().min(6)).to_bitstr())
        .collect();
    let sub_subject = subject.subtree_batch(&prefixes);
    let sub_oracle = oracle.subtree_batch(&prefixes);
    for ((pfx, s), o) in prefixes.iter().zip(sub_subject).zip(sub_oracle) {
        match (s, o) {
            (None, None) => {}
            (Some(s), Some(o)) => {
                let mut si = s.items();
                let mut oi = o.items();
                si.sort();
                oi.sort();
                assert_eq!(si, oi, "faulted subtree of {pfx}");
            }
            (s, o) => panic!(
                "subtree of {pfx}: presence mismatch (got {:?}, want {:?})",
                s.map(|t| t.n_keys()),
                o.map(|t| t.n_keys())
            ),
        }
    }

    assert_eq!(
        subject.audit_debug(),
        Vec::<String>::new(),
        "structural audit after chaos"
    );

    let stats = subject.system().metrics().fault_stats().clone();
    (lcp_subject, got_subject, removed_subject, stats)
}

#[test]
fn chaos_ops_match_fault_free_oracle() {
    let (_, _, _, stats) = run_chaos(0xC0FFEE);
    assert!(stats.total_injected() > 0, "no faults injected: {stats:?}");
    assert!(stats.total_detected() > 0, "no faults detected: {stats:?}");
    assert!(stats.retries > 0, "no retries issued: {stats:?}");
    assert!(stats.recovery_rounds > 0, "no recovery rounds: {stats:?}");
    assert!(stats.crashes_injected >= 2, "crashes missing: {stats:?}");
    assert!(stats.rebuilds >= 1, "no rebuild after crash: {stats:?}");
}

#[test]
fn chaos_is_deterministic_per_seed() {
    // Reuse the seed from `chaos_ops_match_fault_free_oracle`: fault
    // schedules are a pure function of the seed, so a schedule known to
    // stay within the retry budget stays within it on every run.
    let a = run_chaos(0xC0FFEE);
    let b = run_chaos(0xC0FFEE);
    assert_eq!(a.0, b.0, "lcp results differ across identical runs");
    assert_eq!(a.1, b.1, "get results differ across identical runs");
    assert_eq!(a.2, b.2, "delete counts differ across identical runs");
    assert_eq!(a.3, b.3, "fault stats differ across identical runs");
}

#[test]
fn chaos_is_identical_under_a_multi_threaded_pool() {
    // The whole chaos run — faulted results, retry/rebuild behaviour,
    // and every fault counter — is a pure function of the seed, so a
    // genuinely concurrent pool must reproduce the single-threaded
    // oracle exactly: fault decisions are pure functions of
    // (plan seed, round, module, stream, index) and module results are
    // reduced in module order, never in completion order.
    let single = pim_trie::with_threads(1, || run_chaos(0xC0FFEE));
    let multi = pim_trie::with_threads(4, || run_chaos(0xC0FFEE));
    assert_eq!(single.0, multi.0, "lcp results depend on thread count");
    assert_eq!(single.1, multi.1, "get results depend on thread count");
    assert_eq!(single.2, multi.2, "delete counts depend on thread count");
    assert_eq!(single.3, multi.3, "fault stats depend on thread count");
}

#[test]
fn chaos_survives_the_compact_codec() {
    // Same schedule, subject negotiates the compact wire codec: faults
    // now index into encoded frames and retransmits re-ship encoded
    // groups. Results must still match the clean Plain oracle, faults
    // must still be seen and repaired, and the encoding must have
    // actually engaged (frames counted, fewer encoded than plain words).
    let (lcp, got, removed, stats) = run_chaos_with(0xC0FFEE, pim_trie::WireCodec::Compact);
    assert!(stats.total_injected() > 0, "no faults injected: {stats:?}");
    assert!(stats.total_detected() > 0, "no faults detected: {stats:?}");
    assert!(stats.retries > 0, "no retries issued: {stats:?}");
    assert!(stats.crashes_injected >= 2, "crashes missing: {stats:?}");

    // The op results are oracle-checked inside run_chaos_with; the fault
    // *schedule* differs from the Plain run (positions index encoded
    // frames), so only compare against a second Compact run.
    let again = run_chaos_with(0xC0FFEE, pim_trie::WireCodec::Compact);
    assert_eq!(
        (lcp, got, removed, stats),
        again,
        "compact chaos not deterministic"
    );
}

/// The fills of the host-resident meta copies travel the sealed wire like
/// every other reply. Every piece is pushed here
/// (`with_push_threshold(u64::MAX)`), so the only `FetchMeta` traffic is
/// fills, and each cycle's insert drops copies the next read has to pull
/// again — under word flips and dropped replies heavy enough that a
/// meta-block-sized reply rarely arrives intact first time. A corrupt
/// reply must be re-requested, never kept: a read answers as the clean
/// oracle does or fails with a typed error, and the audit — which compares every resident copy with its
/// module's own summary — stays clean.
#[test]
fn faulted_fills_are_retried_never_kept() {
    let cfg = PimTrieConfig::for_modules(8)
        .with_seed(42)
        .with_push_threshold(u64::MAX);
    let mut oracle = PimTrie::new(cfg.clone());
    let mut subject = PimTrie::new(cfg.with_fault_tolerance(true).with_max_round_retries(64));
    let mut rng = ChaCha8Rng::seed_from_u64(4321);
    let keys = random_keys(&mut rng, 600, 100);
    let values: Vec<u64> = (0..keys.len() as u64).collect();
    oracle.insert_batch(&keys, &values);
    subject.insert_batch(&keys, &values);
    subject.install_faults(
        FaultPlan::new(0xF111)
            .with_flip_rate(4e-3)
            .with_drop_rate(5e-2),
    );
    let fills_before = subject.resident_stats().fills;
    let (mut answered, mut failed) = (0, 0);
    for cycle in 0..8u64 {
        let fresh = random_keys(&mut rng, 48, 100);
        let fv: Vec<u64> = (0..48).map(|i| 10_000 + cycle * 48 + i).collect();
        // 64 retries a round cover these rates (the schedule is a pure
        // function of the seed), so the writes land on both sides
        subject
            .try_insert_batch(&fresh, &fv)
            .expect("faulted insert exhausted its retries");
        oracle.insert_batch(&fresh, &fv);
        let queries = random_keys(&mut rng, 64, 110);
        match subject.try_lcp_batch(&queries) {
            Ok(got) => {
                assert_eq!(got, oracle.lcp_batch(&queries), "cycle {cycle}");
                answered += 1;
            }
            Err(e) => {
                assert!(
                    matches!(e, PimTrieError::RecoveryExhausted { .. }),
                    "cycle {cycle}: {e:?}"
                );
                failed += 1;
            }
        }
    }
    subject.clear_faults();
    assert!(answered > 0, "every faulted read failed ({failed} errors)");
    let stats = subject.system().metrics().fault_stats().clone();
    assert!(stats.total_detected() > 0, "no fault detected: {stats:?}");
    assert!(
        subject.resident_stats().fills > fills_before,
        "no fill ran under faults"
    );
    assert_eq!(subject.audit_debug(), Vec::<String>::new());
    let probes: Vec<BitStr> = keys.iter().step_by(7).cloned().collect();
    assert_eq!(subject.get_batch(&probes), oracle.get_batch(&probes));
}

#[test]
fn codec_choice_never_changes_results() {
    // Fault-free: Plain and Compact builds must agree on every result —
    // the codec is metering, not semantics.
    let run = |codec: pim_trie::WireCodec| {
        let mut t = PimTrie::new(PimTrieConfig::for_modules(4).with_seed(5).with_codec(codec));
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let keys = random_keys(&mut rng, 300, 80);
        let values: Vec<u64> = (0..keys.len() as u64).collect();
        t.insert_batch(&keys, &values);
        let dels: Vec<BitStr> = keys.iter().step_by(4).cloned().collect();
        let removed = t.delete_batch(&dels);
        let queries = random_keys(&mut rng, 150, 90);
        let lcp = t.lcp_batch(&queries);
        let got = t.get_batch(&keys);
        let stats = t.codec_stats().clone();
        (removed, lcp, got, stats)
    };
    let plain = run(pim_trie::WireCodec::Plain);
    let compact = run(pim_trie::WireCodec::Compact);
    assert_eq!(plain.0, compact.0, "delete counts differ across codecs");
    assert_eq!(plain.1, compact.1, "lcp differs across codecs");
    assert_eq!(plain.2, compact.2, "get differs across codecs");
    // Plain never negotiates, so its stats stay at the zero default.
    assert_eq!(plain.3, pim_trie::CodecStats::default());
    assert_eq!(compact.3.version, pim_trie::WireCodec::Compact.version());
    assert_eq!(compact.3.negotiations, 1);
    assert!(compact.3.frames > 0, "no frames metered: {:?}", compact.3);
    assert!(
        compact.3.encoded_words < compact.3.plain_words,
        "compact encoding did not shrink traffic: {:?}",
        compact.3
    );
}

#[test]
fn zero_fault_runs_pay_nothing() {
    // With no FaultPlan and fault_tolerance off, metering must be
    // bit-identical across runs and all fault counters zero.
    let run = |ft: bool| {
        let mut t = PimTrie::new(
            PimTrieConfig::for_modules(4)
                .with_seed(9)
                .with_fault_tolerance(ft),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let keys = random_keys(&mut rng, 200, 60);
        let values: Vec<u64> = (0..keys.len() as u64).collect();
        t.insert_batch(&keys, &values);
        let queries = random_keys(&mut rng, 100, 70);
        let lcp = t.lcp_batch(&queries);
        let m = t.system().metrics();
        (
            lcp,
            m.io_rounds(),
            m.io_time(),
            m.io_volume(),
            m.pim_work(),
            m.fault_stats().clone(),
        )
    };
    let plain_a = run(false);
    let plain_b = run(false);
    assert_eq!(plain_a, plain_b, "unsealed runs must be deterministic");
    assert_eq!(plain_a.5, FaultStats::default(), "fault counters not zero");

    // Sealing is opt-in: results agree, the envelope costs extra words.
    let sealed = run(true);
    assert_eq!(sealed.0, plain_a.0, "sealed results differ");
    assert_eq!(
        sealed.5,
        FaultStats::default(),
        "sealing alone injected faults"
    );
    assert!(
        sealed.3 > plain_a.3,
        "sealed envelopes should cost extra words ({} vs {})",
        sealed.3,
        plain_a.3
    );
}

#[test]
fn input_validation_reports_errors() {
    let mut t = PimTrie::new(PimTrieConfig::for_modules(4).with_seed(1));
    let k = vec![BitStr::from_bin_str("101")];
    assert!(matches!(
        t.try_insert_batch(&k, &[1, 2]),
        Err(PimTrieError::MismatchedBatch { keys: 1, values: 2 })
    ));
    assert!(matches!(
        t.try_insert_batch(&[BitStr::new()], &[1]),
        Err(PimTrieError::EmptyKey(0))
    ));
    assert!(matches!(
        t.try_insert_batch(&k, &[u64::MAX]),
        Err(PimTrieError::ReservedValue(0))
    ));
    assert!(matches!(
        t.try_delete_batch(&[BitStr::new()]),
        Err(PimTrieError::EmptyKey(0))
    ));
    // valid calls still work through the fallible API
    t.try_insert_batch(&k, &[5]).unwrap();
    assert_eq!(t.try_get_batch(&k).unwrap(), vec![Some(5)]);
    assert_eq!(t.try_delete_batch(&k).unwrap(), 1);
    // degenerate config is rejected, not asserted
    let mut cfg = PimTrieConfig::for_modules(4);
    cfg.p = 0;
    assert!(matches!(
        PimTrie::try_new(cfg),
        Err(PimTrieError::BadConfig(_))
    ));
}

#[test]
fn dropped_replies_on_the_unsealed_wire_are_errors_not_wrong_answers() {
    // Fault tolerance off, a plan that only drops replies: a module's
    // reply vector comes back shorter than its request vector, and the
    // host can no longer tell which reply answers which key. Every batch
    // must either equal the oracle or fail as a protocol error — an `Ok`
    // with shifted values is the one outcome that may never happen.
    let p = 8;
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let keys = random_keys(&mut rng, 400, 100);
    let values: Vec<u64> = (0..keys.len() as u64).collect();
    let mut oracle = PimTrie::new(PimTrieConfig::for_modules(p).with_seed(42));
    let mut subject = PimTrie::new(PimTrieConfig::for_modules(p).with_seed(42));
    oracle.insert_batch(&keys, &values);
    subject.insert_batch(&keys, &values);
    subject.install_faults(FaultPlan::new(0xD20B).with_drop_rate(2e-3));

    let (mut oks, mut errs) = (0, 0);
    for round in 0..40 {
        let probes: Vec<BitStr> = keys.iter().skip(round).step_by(7).cloned().collect();
        match subject.try_get_batch(&probes) {
            Ok(got) => {
                assert_eq!(got, oracle.get_batch(&probes), "get batch {round}");
                oks += 1;
            }
            Err(PimTrieError::Protocol(_)) => errs += 1,
            Err(e) => panic!("get batch {round}: unexpected error {e}"),
        }
        let mut queries = random_keys(&mut rng, 40, 120);
        queries.extend(probes.into_iter().take(20));
        match subject.try_lcp_batch(&queries) {
            Ok(got) => {
                assert_eq!(got, oracle.lcp_batch(&queries), "lcp batch {round}");
                oks += 1;
            }
            Err(PimTrieError::Protocol(_)) => errs += 1,
            Err(e) => panic!("lcp batch {round}: unexpected error {e}"),
        }
    }
    assert!(
        subject.system().metrics().fault_stats().drops_injected > 0,
        "no reply was dropped"
    );
    assert!(errs > 0, "drops never surfaced ({oks} ok batches)");
    assert!(oks > 0, "no batch escaped the drops; lower the rate");
}
