//! Writes at the read path's round count. A write's reply carries the
//! block or meta-block its maintenance reads next: a graft reply the
//! image of a block it pushed past `2·K_B`, a delete reply the image of a
//! block it left a merge candidate, a merge reply the image of a parent
//! that left its size band, and the placement round pulls every
//! meta-block it pushed past `K_SMB` after its last write to it. So no
//! maintenance stage fetches, and an insert or a delete batch takes at
//! most five rounds: one meta and one block matching round, the write,
//! then two maintenance rounds (`repart.place`, `msplit.place` for an
//! insert; `merge.apply`, `merge.cleanup` for a delete). A merge cascade
//! adds those two merge rounds a level. Every answer is checked against
//! the sequential trie.

use bitstr::BitStr;
use pim_sim::{TraceEvent, RETRANSMIT_PHASE};
use pim_trie::{FaultPlan, PimTrie, PimTrieConfig};
use trie_core::Trie;

/// The maintenance fetch rounds the replies replaced.
const FETCHES: [&str; 3] = ["repart.fetch", "msplit.fetch", "merge.fetch"];

/// The events traced since the last call; tracing restarts.
fn events_since_clear(t: &mut PimTrie) -> Vec<TraceEvent> {
    let m = t.system_mut().metrics_mut();
    let tracer = m.take_tracer().expect("tracing on");
    m.enable_tracing();
    tracer.events().to_vec()
}

/// The names of the rounds `events` ran outside the recovery ladder.
fn rounds(events: &[TraceEvent]) -> Vec<&str> {
    events
        .iter()
        .filter(|e| e.phase != RETRANSMIT_PHASE)
        .map(|e| e.round.as_str())
        .collect()
}

fn count(rounds: &[&str], name: &str) -> usize {
    rounds.iter().filter(|r| **r == name).count()
}

/// The audit is clean and `lcp` and `get` answer every probe as the
/// oracle does.
fn check(t: &mut PimTrie, oracle: &Trie, probes: &[BitStr], stage: &str) {
    assert_eq!(t.audit_debug(), Vec::<String>::new(), "audit after {stage}");
    assert_eq!(t.len(), oracle.n_keys(), "key count after {stage}");
    let lcp: Vec<usize> = probes
        .iter()
        .map(|q| oracle.lcp(q.as_slice()).lcp_bits)
        .collect();
    assert_eq!(t.lcp_batch(probes), lcp, "lcp after {stage}");
    let get: Vec<Option<u64>> = probes.iter().map(|q| oracle.get(q.as_slice())).collect();
    assert_eq!(t.get_batch(probes), get, "get after {stage}");
}

/// Stored keys, prefixes of them and strings off the stored set.
fn probes(keys: &[BitStr], seed: u64) -> Vec<BitStr> {
    let mut out: Vec<BitStr> = keys.iter().step_by(16).cloned().collect();
    out.extend(
        keys.iter()
            .step_by(64)
            .map(|k| k.slice(0..k.len() / 2).to_bitstr()),
    );
    out.extend(workloads::uniform_var(128, 8, 96, seed));
    out
}

/// What one churn run saw: the rounds of every insert and every delete
/// batch, and every round's event.
#[derive(Default)]
struct Churn {
    inserts: Vec<Vec<String>>,
    deletes: Vec<Vec<String>>,
    events: Vec<TraceEvent>,
}

/// The benchmark's `write-churn` cycle at `P = 16`: load 8192 keys of 32
/// to 256 bits, then each cycle inserts 2048 fresh keys in one batch
/// (blocks overflow and are re-cut, meta-blocks overflow and split) and
/// deletes them again in one batch (the blocks they filled empty and
/// merge). Every batch is mirrored into the oracle and checked against
/// it.
fn churn(t: &mut PimTrie) -> Churn {
    let mut oracle = Trie::new();
    let base = workloads::uniform_var(1 << 13, 32, 256, 410);
    let probes = probes(&base, 411);
    t.enable_tracing();
    let mut seen = Churn::default();
    let mut write = |t: &mut PimTrie, oracle: &mut Trie, keys: &[BitStr], vals: Option<u64>| {
        events_since_clear(t);
        match vals {
            Some(v0) => {
                let values: Vec<u64> = (v0..v0 + keys.len() as u64).collect();
                t.insert_batch(keys, &values);
                for (k, v) in keys.iter().zip(&values) {
                    oracle.insert(k, *v);
                }
            }
            None => {
                let want = keys
                    .iter()
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .filter(|k| oracle.get(k.as_slice()).is_some())
                    .count();
                assert_eq!(t.delete_batch(keys), want, "keys removed");
                for k in keys {
                    oracle.delete(k.as_slice());
                }
            }
        }
        let events = events_since_clear(t);
        let names = rounds(&events).into_iter().map(String::from).collect();
        if vals.is_some() {
            seen.inserts.push(names);
        } else {
            seen.deletes.push(names);
        }
        seen.events.extend(events);
    };
    for (i, chunk) in base.chunks(2048).enumerate() {
        write(t, &mut oracle, chunk, Some(i as u64 * 2048));
    }
    check(t, &oracle, &probes, "load");
    for cycle in 0..6u64 {
        let fresh = workloads::uniform_var(2048, 32, 256, 420 + cycle);
        write(t, &mut oracle, &fresh, Some(1 << 20 | cycle << 12));
        check(t, &oracle, &probes, &format!("insert {cycle}"));
        write(t, &mut oracle, &fresh, None);
        check(t, &oracle, &probes, &format!("delete {cycle}"));
    }
    seen
}

/// The config both tests run: `P = 16` at the block size the benchmark
/// runs at (`K_B = log² P` at `P = 64`).
fn config() -> PimTrieConfig {
    PimTrieConfig::for_modules(16).with_seed(41).with_k_b(36)
}

#[test]
fn inserts_and_deletes_take_five_rounds_without_a_fetch() {
    let mut t = PimTrie::new(config());
    let seen = churn(&mut t);
    let all = rounds(&seen.events);
    for name in ["repart.place", "msplit.place", "merge.apply"] {
        assert!(count(&all, name) > 0, "the churn ran no {name} round");
    }
    for name in FETCHES {
        assert_eq!(count(&all, name), 0, "a {name} round ran");
    }
    for (i, r) in seen.inserts.iter().enumerate() {
        assert!(
            r.len() <= 5,
            "insert batch {i} took {} rounds: {r:?}",
            r.len()
        );
    }
    // A delete matches (two rounds), deletes, then merges: two rounds a
    // level of the cascade, one more for a level that empties a
    // meta-block and one for a meta-block split. One level is five.
    let mut one_level = 0;
    for (i, r) in seen.deletes.iter().enumerate() {
        let r: Vec<&str> = r.iter().map(String::as_str).collect();
        let levels = count(&r, "merge.apply");
        assert_eq!(
            count(&r, "merge.cleanup"),
            levels,
            "delete batch {i}: {r:?}"
        );
        let extra = count(&r, "merge.meta.drop") + count(&r, "msplit.place");
        assert_eq!(r.len(), 3 + 2 * levels + extra, "delete batch {i}: {r:?}");
        if levels == 1 && extra == 0 {
            one_level += 1;
        }
    }
    assert!(
        one_level > 0,
        "no delete merged one level: {:?}",
        seen.deletes
    );
}

#[test]
fn dropped_write_replies_are_re_delivered_with_their_images() {
    let mut clean = PimTrie::new(config());
    let want = churn(&mut clean);
    let mut t = PimTrie::new(
        config()
            .with_fault_tolerance(true)
            .with_max_round_retries(32),
    );
    t.install_faults(FaultPlan::new(43).with_drop_rate(0.05));
    let seen = churn(&mut t);
    let retried = |round: &str| {
        seen.events
            .iter()
            .filter(|e| e.phase == RETRANSMIT_PHASE && e.round == round)
            .count()
    };
    for round in ["insert.graft", "delete.keys"] {
        assert!(retried(round) > 0, "no {round} reply was dropped");
    }
    // Some retried graft reply carried an image: a sealed graft request
    // has at least 6 words and an in-band reply 7, so a module whose
    // retried replies outweigh 7 words for every 6 it was sent got one.
    let image_resent = seen.events.iter().any(|e| {
        e.phase == RETRANSMIT_PHASE
            && e.round == "insert.graft"
            && e.sent
                .iter()
                .zip(&e.received)
                .any(|(s, r)| *r > 7 * s.div_ceil(6))
    });
    assert!(image_resent, "no dropped graft reply carried an image");
    let stats = t.system().metrics().fault_stats().clone();
    assert!(stats.drops_injected > 0 && stats.retries > 0, "{stats:?}");
    // A retried write is answered from the module's reply cache, image
    // and all: maintenance runs exactly the fault-free run's rounds and
    // leaves exactly its layout.
    assert_eq!(seen.inserts, want.inserts);
    assert_eq!(seen.deletes, want.deletes);
    assert_eq!(t.space_words(), clean.space_words());
    assert_eq!(t.meta_levels_debug(), clean.meta_levels_debug());
}
