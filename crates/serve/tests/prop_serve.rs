//! Property: for any closed-loop workload and serving config, every
//! admitted request receives exactly one terminal outcome — a reply,
//! `DeadlineExceeded`, or a scoped failure — with no silent drops and
//! no double replies, and the whole run is identical at 1 and 4
//! threads.

use pim_trie::{PimTrie, PimTrieConfig};
use proptest::prelude::*;
use serve::{run_closed_loop, ServeConfig, ServeReport, Server};
use workloads::{closed_loop_scripts, ClosedLoopSpec};

#[derive(Clone, Debug)]
struct Case {
    clients: usize,
    ops: usize,
    queue_cap: usize,
    epoch_max: usize,
    theta: f64,
    deadline: u64,
    seed: u64,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        (1usize..5, 1usize..12, 1usize..6, 1usize..5),
        // theta in hundredths: the vendored proptest has no f64 ranges
        (0u32..130, 0u64..5_000, any::<u64>()),
    )
        .prop_map(
            |((clients, ops, queue_cap, epoch_max), (theta, deadline, seed))| Case {
                clients,
                ops,
                queue_cap,
                epoch_max,
                theta: f64::from(theta) / 100.0,
                // low draws become unbounded deadlines so both the
                // expiring and never-expiring regimes get exercised
                deadline: if deadline < 500 { u64::MAX } else { deadline },
                seed,
            },
        )
}

fn serve_case(case: &Case, threads: usize) -> ServeReport {
    pim_trie::with_threads(threads, || {
        let keys = workloads::uniform_var(60, 8, 48, 9);
        let values: Vec<u64> = (0..keys.len() as u64).collect();
        let mut trie = PimTrie::new(PimTrieConfig::for_modules(4).with_seed(42));
        trie.insert_batch(&keys, &values);
        let spec = ClosedLoopSpec {
            clients: case.clients,
            ops_per_client: case.ops,
            theta: case.theta,
            mean_think: 80.0,
            deadline: case.deadline,
            write_frac: 0.3,
        };
        let scripts = closed_loop_scripts(&spec, &keys, case.seed);
        let mut srv = Server::new(
            trie,
            ServeConfig::default()
                .with_queue_cap(case.queue_cap)
                .with_epoch_max(case.epoch_max),
        );
        run_closed_loop(&mut srv, &scripts)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn every_admitted_request_settles_exactly_once(case in arb_case()) {
        let a = serve_case(&case, 1);

        // exactly one terminal outcome per scripted op: the driver
        // retries Overloaded rejections, so all ops eventually settle
        prop_assert_eq!(a.outcomes.len(), case.clients * case.ops);
        prop_assert_eq!(a.violations, 0, "an outcome was recorded twice");
        prop_assert_eq!(a.unresolved, 0, "admitted requests were dropped");
        prop_assert_eq!(a.stats.admitted, a.stats.settled());
        prop_assert_eq!(
            a.stats.settled(),
            a.stats.completed + a.stats.expired + a.stats.failed
        );
        prop_assert_eq!(a.stats.submitted, a.stats.admitted + a.stats.rejected);

        // the whole run — outcomes, counters, latency digests — is a
        // pure function of (seed, config), independent of threads
        let b = serve_case(&case, 4);
        prop_assert_eq!(a, b, "serving depends on thread count");
    }
}
