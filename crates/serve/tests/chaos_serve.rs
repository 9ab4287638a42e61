//! Chaos serving: a module crash (with state loss) and a persistent
//! return-path jam strike mid-run while the server is overloaded.
//!
//! The contract under fire:
//!
//! * every admitted request still reaches exactly one terminal outcome
//!   — no silent drops, no double replies;
//! * the crash is repaired transparently (journal rebuild), the jam is
//!   scoped: only requests whose keys route through the jammed module
//!   fail, with a typed error naming it;
//! * every request that completes gets a reply byte-identical to a
//!   fault-free oracle run of the same scripts.

use pim_trie::{CrashSpec, FaultPlan, JamSpec, PimTrie, PimTrieConfig, PimTrieError};
use serve::{run_closed_loop, ServeConfig, ServeError, ServeReport, Server};
use workloads::{closed_loop_scripts, ClosedLoopSpec};

const CLIENTS: usize = 10;
const OPS: usize = 40;
const JAMMED: u32 = 6;

fn run_serving(faults: bool) -> (ServeReport, pim_trie::FaultStats) {
    let keys = workloads::uniform_var(300, 8, 64, 5);
    let values: Vec<u64> = (0..keys.len() as u64).collect();
    let mut trie = PimTrie::new(
        PimTrieConfig::for_modules(8)
            .with_seed(42)
            .with_fault_tolerance(true)
            .with_max_round_retries(4),
    );
    trie.insert_batch(&keys, &values);
    // read-only scripts with unbounded deadlines: the stored key set
    // never changes, so Ok replies are comparable across runs even
    // though the faulted run's timing (and thus epoch boundaries)
    // differs from the oracle's
    // mild skew: under heavy Zipf a single hot key on the jammed
    // module would dominate the mix and fail most of the run, which is
    // correct scoping but a degenerate test
    let spec = ClosedLoopSpec {
        write_frac: 0.0,
        mean_think: 100.0,
        theta: 0.6,
        ..ClosedLoopSpec::read_mostly(CLIENTS, OPS)
    };
    let scripts = closed_loop_scripts(&spec, &keys, 31);
    let mut srv = Server::new(
        trie,
        // 10 clients vs a 5-deep queue: overloaded throughout
        ServeConfig::default().with_queue_cap(5).with_epoch_max(3),
    );
    if faults {
        srv.trie_mut().install_faults(
            FaultPlan::new(13)
                .with_crash(CrashSpec {
                    round: 10,
                    module: 2,
                    down_rounds: 2,
                    state_loss: true,
                })
                .with_jam(JamSpec {
                    module: JAMMED as usize,
                    from_round: 60,
                }),
        );
    }
    let rep = run_closed_loop(&mut srv, &scripts);
    let fs = srv.trie().system().metrics().fault_stats().clone();
    (rep, fs)
}

#[test]
fn chaos_serving_scopes_failures_and_never_drops_a_request() {
    let (clean, clean_fs) = run_serving(false);
    assert_eq!(clean_fs.total_injected(), 0, "clean run saw faults");
    assert!(clean.outcomes.values().all(Result::is_ok));

    let (rep, fs) = run_serving(true);

    // the faults actually happened
    assert!(fs.crashes_injected >= 1, "crash never fired: {fs:?}");
    assert!(fs.rebuilds >= 1, "crash did not force a journal rebuild");
    assert!(fs.jams_injected > 0, "jam never suppressed a reply: {fs:?}");

    // exactly one terminal outcome per admitted request, none dropped
    assert_eq!(rep.violations, 0, "an outcome was recorded twice");
    assert_eq!(rep.unresolved, 0, "admitted requests were dropped");
    assert_eq!(rep.outcomes.len(), CLIENTS * OPS);
    assert_eq!(rep.stats.admitted, rep.stats.settled());
    assert!(rep.stats.rejected > 0, "overload never tripped admission");

    // the jam is scoped, not fatal: some requests fail with a typed
    // error naming the jammed module, the rest keep completing
    let failed: Vec<_> = rep
        .outcomes
        .values()
        .filter_map(|o| match o {
            Err(ServeError::Failed(e)) => Some(e.as_ref()),
            _ => None,
        })
        .collect();
    assert!(!failed.is_empty(), "jam produced no scoped failures");
    for e in &failed {
        match e {
            PimTrieError::RecoveryExhausted { modules, .. } => {
                assert!(
                    modules.contains(&JAMMED),
                    "scoped failure does not name the jammed module: {modules:?}"
                );
            }
            other => panic!("unexpected failure kind: {other}"),
        }
    }
    assert!(
        rep.stats.completed > rep.stats.failed,
        "most requests should survive a single jammed module: {:?}",
        rep.stats
    );

    // per-key scoping: every request that did complete carries a reply
    // byte-identical to the fault-free oracle's reply for the same
    // scripted op — faults on other keys must not bleed into it
    let mut compared = 0;
    for (k, o) in &rep.outcomes {
        if o.is_ok() {
            assert_eq!(
                o, &clean.outcomes[k],
                "client {} op {}: completed reply drifted from the oracle",
                k.0, k.1
            );
            compared += 1;
        }
    }
    assert!(compared > 0, "no reply survived to compare to the oracle");
}

#[test]
fn chaos_serving_is_deterministic() {
    let a = run_serving(true);
    let b = run_serving(true);
    assert_eq!(a, b, "chaos serving must be a pure function of the seed");
}

#[test]
fn chaos_serving_is_thread_count_invariant() {
    let single = pim_trie::with_threads(1, || run_serving(true));
    let multi = pim_trie::with_threads(4, || run_serving(true));
    assert_eq!(single, multi, "chaos serving depends on thread count");
}
