//! Matching starts at `PimTrie::root_meta` without asking any module, so
//! that address must keep naming the live meta-block whose root node
//! describes the root block through everything that rewrites the meta
//! tree. `audit_debug` reports when it does not; this drives one index
//! through each rewrite in turn — insert-driven meta splits, delete-driven
//! merges, a crash with a journal rebuild —
//! and checks the audit and `lcp`/`get` against the sequential trie after
//! each.
//!
//! The same rewrites are what can leave a host-resident copy of a
//! meta-block stale (`core::resident`): the audit also compares every copy
//! with its module's own summary, each stage must have dropped copies, and
//! the reads after it must pull some again. The tests at the bottom pin
//! the resident set's own contract: what a repeated batch pulls (nothing),
//! what a small batch pays, and what happens when a level outgrows the
//! budget.

use bitstr::BitStr;
use pim_trie::{CrashSpec, FaultPlan, PimTrie, PimTrieConfig, ResidentStats};
use trie_core::Trie;

/// Audit clean, every probe answered as the oracle answers it, and since
/// `mark` (the resident counters before the stage) copies were dropped
/// and — by the end of these reads at the latest — pulled again.
fn check(t: &mut PimTrie, oracle: &Trie, probes: &[BitStr], stage: &str, mark: &ResidentStats) {
    assert_eq!(t.audit_debug(), Vec::<String>::new(), "audit after {stage}");
    assert_eq!(t.len(), oracle.n_keys(), "key count after {stage}");
    assert!(
        t.resident_stats().invalidations > mark.invalidations,
        "{stage} dropped no resident copy"
    );
    let lcp: Vec<usize> = probes
        .iter()
        .map(|q| oracle.lcp(q.as_slice()).lcp_bits)
        .collect();
    assert_eq!(t.lcp_batch(probes), lcp, "lcp after {stage}");
    let get: Vec<Option<u64>> = probes.iter().map(|q| oracle.get(q.as_slice())).collect();
    assert_eq!(t.get_batch(probes), get, "get after {stage}");
    assert!(
        t.resident_stats().fills > mark.fills,
        "nothing pulled again after {stage}"
    );
    assert_eq!(t.audit_debug(), Vec::<String>::new(), "audit after reads");
}

/// Names of the rounds traced since the last call; tracing restarts.
fn rounds_since_clear(t: &mut PimTrie) -> Vec<String> {
    let m = t.system_mut().metrics_mut();
    let tracer = m.take_tracer().expect("tracing on");
    m.enable_tracing();
    tracer.events().iter().map(|ev| ev.round.clone()).collect()
}

#[test]
fn root_meta_survives_splits_merges_and_rebuild() {
    // few hot buckets, a block bound that keeps each in few blocks and
    // all-push routing
    let cfg = PimTrieConfig::for_modules(8)
        .with_seed(42)
        .with_k_b(256)
        .with_push_threshold(u64::MAX)
        .with_fault_tolerance(true)
        .with_max_round_retries(64);
    let mut t = PimTrie::new(cfg);
    t.enable_tracing();
    let mut oracle = Trie::new();

    let keys = workloads::zipf_prefixes(1 << 11, 96, 4, 2.5, 17);
    let mut probes: Vec<BitStr> = keys.iter().step_by(3).cloned().collect();
    probes.extend(workloads::uniform_fixed(200, 96, 18));

    // insert-driven meta splits
    let mark = t.resident_stats().clone();
    let values: Vec<u64> = (0..keys.len() as u64).collect();
    t.insert_batch(&keys, &values);
    for (k, v) in keys.iter().zip(&values) {
        oracle.insert(k, *v);
    }
    let rounds = rounds_since_clear(&mut t);
    assert!(
        rounds.iter().any(|r| r == "msplit.place"),
        "no meta-block split while loading"
    );
    check(&mut t, &oracle, &probes, "meta splits", &mark);

    // delete-driven merges, down to dropping emptied meta-blocks
    let mark = t.resident_stats().clone();
    let dels: Vec<BitStr> = keys.iter().skip(64).cloned().collect();
    t.delete_batch(&dels);
    for k in &dels {
        oracle.delete(k.as_slice());
    }
    let rounds = rounds_since_clear(&mut t);
    assert!(
        rounds.iter().any(|r| r == "merge.meta.drop"),
        "no meta-block emptied by the merges"
    );
    check(&mut t, &oracle, &probes, "merges", &mark);

    // crash with state loss: the journal rebuild bootstraps a new root.
    // Reload first, so the crashed module holds blocks the next insert
    // reaches.
    let mark = t.resident_stats().clone();
    t.insert_batch(&keys, &values);
    for (k, v) in keys.iter().zip(&values) {
        oracle.insert(k, *v);
    }
    t.install_faults(FaultPlan::new(11).with_crash(CrashSpec {
        round: 3,
        module: 5,
        down_rounds: 1,
        state_loss: true,
    }));
    let extra = workloads::uniform_fixed(64, 96, 19);
    let ev: Vec<u64> = (10_000..10_064).collect();
    t.insert_batch(&extra, &ev);
    for (k, v) in extra.iter().zip(&ev) {
        oracle.insert(k, *v);
    }
    assert!(
        t.system().metrics().fault_stats().rebuilds > 0,
        "the crash forced no rebuild"
    );
    t.clear_faults();
    check(&mut t, &oracle, &probes, "journal rebuild", &mark);
}

// ---- the host-resident top of the meta-block tree ----------------------
//
// The configs below push every piece (`with_push_threshold(u64::MAX)`), so
// a meta-block pull (`MatchStats::pulls`) can only be a fill of the
// resident set.

fn resident_cfg(p: usize) -> PimTrieConfig {
    PimTrieConfig::for_modules(p)
        .with_seed(42)
        .with_push_threshold(u64::MAX)
}

/// Leading levels of the meta-block tree held whole, and its height. The
/// resident set fills shallowest root first.
fn resident_levels(t: &PimTrie) -> (usize, usize) {
    let levels = t.meta_levels_debug();
    let whole = levels.iter().take_while(|(all, held)| all == held).count();
    (whole, levels.len())
}

#[test]
fn repeated_read_batch_pulls_nothing_and_skips_the_resident_levels() {
    let keys = workloads::uniform_fixed(1 << 12, 64, 5);
    let values: Vec<u64> = (0..keys.len() as u64).collect();
    let mut t = PimTrie::build(resident_cfg(8), &keys, &values);
    t.enable_tracing();
    let batch = workloads::uniform_fixed(512, 64, 6);

    let first = t.lcp_batch(&batch);
    let filled = t.resident_stats().fills;
    assert!(filled > 0, "the first read batch kept nothing");
    assert!(t.last_match_stats().pulls > 0, "the fills pulled nothing");
    rounds_since_clear(&mut t);

    let host_matches = t.resident_stats().host_matches;
    assert_eq!(t.lcp_batch(&batch), first);
    let rounds = rounds_since_clear(&mut t);
    assert_eq!(t.last_match_stats().pulls, 0, "second run pulled again");
    assert_eq!(t.resident_stats().fills, filled);
    // the master table sends every piece straight to its deepest
    // meta-block: the resident targets issue no IO, all the others share
    // one `match.meta` round, however many levels the tree has
    let (whole, height) = resident_levels(&t);
    assert!(whole >= 1 && whole < height, "{whole} of {height} levels");
    assert!(t.resident_stats().host_matches > host_matches);
    let descent = rounds.iter().filter(|r| *r == "match.meta").count();
    assert!(descent <= 1, "{rounds:?}");
    assert_eq!(t.last_match_stats().descend_rounds, descent as u64);
    assert_eq!(t.audit_debug(), Vec::<String>::new());
}

#[test]
fn small_batch_descends_in_fewer_rounds_than_the_tree_has_levels() {
    let keys = workloads::uniform_fixed(1 << 12, 64, 7);
    let values: Vec<u64> = (0..keys.len() as u64).collect();
    let mut t = PimTrie::build(PimTrieConfig::for_modules(8).with_seed(42), &keys, &values);
    let batch: Vec<BitStr> = keys.iter().step_by(256).cloned().collect();
    assert_eq!(batch.len(), 16);
    let _ = t.get_batch(&batch);
    let got = t.get_batch(&batch);
    let want: Vec<Option<u64>> = (0..16).map(|i| Some(i * 256)).collect();
    assert_eq!(got, want);
    let height = t.meta_levels_debug().len() as u64;
    let descent = t.last_match_stats().descend_rounds;
    assert!(
        descent <= 1 && descent < height,
        "{descent} descent rounds, {height} levels"
    );
}

/// A batch that rewrites resident meta-blocks drops exactly those copies;
/// the next read re-pulls the ones it crosses inside the resident levels,
/// once, and a repeat of that read pulls nothing. The audit (resident copy
/// == the module's own summary) is clean after every batch.
#[test]
fn churn_drops_and_refills_resident_copies_once() {
    let keys = workloads::uniform_fixed(1 << 11, 64, 8);
    let values: Vec<u64> = (0..keys.len() as u64).collect();
    let mut t = PimTrie::build(resident_cfg(8), &keys, &values);
    let mut oracle = Trie::new();
    for (k, v) in keys.iter().zip(&values) {
        oracle.insert(k, *v);
    }
    let probes = workloads::uniform_fixed(256, 64, 9);
    let want = |o: &Trie| -> Vec<usize> {
        probes
            .iter()
            .map(|q| o.lcp(q.as_slice()).lcp_bits)
            .collect()
    };
    let _ = t.lcp_batch(&probes);
    let mut refilled = 0;
    for cycle in 0..6u64 {
        let fresh = workloads::uniform_fixed(512, 64, 100 + cycle);
        let fv: Vec<u64> = (0..512).map(|i| 1_000_000 + cycle * 512 + i).collect();
        let s0 = t.resident_stats().clone();
        if cycle % 2 == 0 {
            t.insert_batch(&fresh, &fv);
            for (k, v) in fresh.iter().zip(&fv) {
                oracle.insert(k, *v);
            }
        } else {
            // the previous cycle's keys
            let old = workloads::uniform_fixed(512, 64, 100 + cycle - 1);
            t.delete_batch(&old);
            for k in &old {
                oracle.delete(k.as_slice());
            }
        }
        assert_eq!(t.audit_debug(), Vec::<String>::new(), "cycle {cycle} write");
        let s1 = t.resident_stats().clone();
        assert!(
            s1.invalidations > s0.invalidations,
            "cycle {cycle} rewrote no resident meta-block"
        );
        assert_eq!(t.lcp_batch(&probes), want(&oracle), "cycle {cycle}");
        assert_eq!(t.audit_debug(), Vec::<String>::new(), "cycle {cycle} read");
        let s2 = t.resident_stats().clone();
        refilled += s2.fills - s1.fills;
        assert_eq!(t.lcp_batch(&probes), want(&oracle), "cycle {cycle} again");
        let s3 = t.resident_stats().clone();
        assert_eq!(s3.fills, s2.fills, "cycle {cycle}: pulled twice");
        assert_eq!(s3.invalidations, s2.invalidations);
        assert_eq!(s3.words, s2.words);
    }
    assert!(refilled > 0, "no dropped copy was ever pulled again");
}

/// Growing an index pushes its levels past the budget one after another.
/// A meta-block that no longer fits stops being pulled — it is not
/// fetched every batch to be thrown away — the levels above it stay, and
/// the descent stays one round however tall the tree grows.
#[test]
fn level_that_outgrows_the_budget_is_not_pulled_again() {
    let cfg = resident_cfg(8);
    let budget = cfg.resident_meta_words();
    let mut t = PimTrie::new(cfg);
    let batch = workloads::uniform_fixed(512, 64, 10);
    // (levels held whole, height, IO descent rounds) after each step
    let mut shape: Vec<(usize, usize, u64)> = Vec::new();
    for step in 0..12u64 {
        let n = if step < 4 { 64 } else { 512 };
        let fresh = workloads::uniform_fixed(n, 64, 200 + step);
        t.insert_batch(&fresh, &vec![step; n]);
        let _ = t.lcp_batch(&batch);
        let s = t.resident_stats().clone();
        for _ in 0..2 {
            let _ = t.lcp_batch(&batch);
        }
        let after = t.resident_stats().clone();
        assert_eq!(after.fills, s.fills, "step {step}: re-pulled on a repeat");
        assert!(after.words <= budget, "step {step}: {} words", after.words);
        assert_eq!(t.audit_debug(), Vec::<String>::new(), "step {step}");
        let (whole, height) = resident_levels(&t);
        shape.push((whole, height, t.last_match_stats().descend_rounds));
    }
    // small enough at first to be resident top to bottom
    assert_eq!(shape[0].2, 0, "{shape:?}");
    // and in the end the tree is higher than what fits
    let (whole, height, descent) = shape[shape.len() - 1];
    assert!(whole >= 1 && whole < height, "{shape:?}");
    assert!(shape.iter().all(|s| s.2 <= 1), "{shape:?}");
    assert_eq!(descent, 1, "{shape:?}");
    assert!(t.resident_stats().words_high_water <= budget);
}

/// The master table sends a piece straight to its deepest meta-block, so
/// a copy of a deep meta-block is useful on its own: a one-key read whose
/// deepest meta-block sits three levels down keeps it and the root, with
/// nothing held in between. Churn then rewrites the top copies; the audit
/// stays clean and the copies stay within the budget.
#[test]
fn deep_meta_block_is_filled_without_its_parent() {
    let keys = workloads::uniform_fixed(1 << 12, 64, 11);
    let values: Vec<u64> = (0..keys.len() as u64).collect();
    let cfg = resident_cfg(8);
    let budget = cfg.resident_meta_words();
    let mut t = PimTrie::build(cfg, &keys, &values);
    let held = |t: &PimTrie| -> Vec<usize> { t.meta_levels_debug().iter().map(|l| l.1).collect() };
    assert!(held(&t).iter().all(|h| *h == 0), "{:?}", held(&t));
    let fills = t.resident_stats().fills;
    assert_eq!(t.get_batch(&keys[..1]), vec![Some(0)]);
    assert_eq!(held(&t), vec![1, 0, 0, 1, 0, 0]);
    assert_eq!(t.resident_stats().fills, fills + 2);

    let probes = workloads::uniform_fixed(512, 64, 12);
    let _ = t.lcp_batch(&probes);
    for cycle in 0..4u64 {
        let fresh = workloads::uniform_fixed(512, 64, 300 + cycle);
        let before = t.resident_stats().clone();
        t.insert_batch(&fresh, &vec![cycle; fresh.len()]);
        assert!(
            t.resident_stats().invalidations > before.invalidations,
            "cycle {cycle} rewrote no resident meta-block"
        );
        let _ = t.lcp_batch(&probes);
        assert_eq!(t.audit_debug(), Vec::<String>::new(), "cycle {cycle}");
        assert!(t.resident_stats().words <= budget, "cycle {cycle}");
    }
    assert!(t.resident_stats().words_high_water <= budget);
}
