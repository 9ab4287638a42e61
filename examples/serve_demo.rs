//! Multi-client serving on the PIM-trie: a closed-loop population of
//! clients fires single-key ops at the overload-safe front-end, which
//! coalesces them into batched epochs, sheds load past the queue cap,
//! expires requests whose deadline passed, and scopes module failures
//! to the keys that routed through them.
//!
//! ```text
//! cargo run --release --example serve_demo
//! ```

use pim_trie::{FaultPlan, JamSpec, PimTrie, PimTrieConfig};
use serve::{run_closed_loop, ServeConfig, Server, OP_CLASSES};
use workloads::{closed_loop_scripts, ClosedLoopSpec};

fn main() {
    // A trie pre-loaded with 2000 variable-length keys on 16 modules.
    let keys = workloads::uniform_var(2000, 8, 64, 7);
    let values: Vec<u64> = (0..keys.len() as u64).collect();
    let mut trie = PimTrie::new(
        PimTrieConfig::for_modules(16)
            .with_seed(42)
            .with_fault_tolerance(true),
    );
    trie.insert_batch(&keys, &values);

    // 24 clients in a closed loop (exponential think times, Zipf key
    // popularity, 10% writes) against a 16-deep admission queue with
    // 8-request epochs and a finite latency budget.
    let spec = ClosedLoopSpec {
        mean_think: 200.0,
        deadline: 20_000,
        theta: 0.7,
        ..ClosedLoopSpec::read_mostly(24, 50)
    };
    let scripts = closed_loop_scripts(&spec, &keys, 2023);

    let mut srv = Server::new(
        trie,
        ServeConfig::default().with_queue_cap(16).with_epoch_max(8),
    );

    // Mid-run chaos: one of the 16 modules stops answering, so requests
    // for keys stored there fail with a typed, module-naming error
    // while everyone else keeps being served. The run takes about 950
    // fault-clock rounds; the jam starts in its last fifth.
    srv.trie_mut()
        .install_faults(FaultPlan::new(13).with_jam(JamSpec {
            module: 5,
            from_round: 800,
        }));

    let rep = run_closed_loop(&mut srv, &scripts);

    let s = &rep.stats;
    println!("closed-loop serve: {} clients x {} ops", 24, 50);
    println!(
        "  submitted {:5}   admitted {:5}   shed (overload) {:4}",
        s.submitted, s.admitted, s.rejected
    );
    println!(
        "  completed {:5}   expired  {:5}   failed (scoped) {:4}",
        s.completed, s.expired, s.failed
    );
    println!(
        "  epochs    {:5}   elapsed  {:5} sim units",
        s.epochs, rep.elapsed
    );
    println!(
        "  contract: violations={} unresolved={}",
        rep.violations, rep.unresolved
    );
    println!("latency per op class (simulated PIM time):");
    for (class, l) in OP_CLASSES.iter().zip(rep.latency.iter()) {
        println!(
            "  {:7}  n={:4}  p50={:6}  p99={:6}",
            class.label(),
            l.count,
            l.p50,
            l.p99
        );
    }
    assert_eq!(s.admitted, s.settled(), "every admitted request settled");
}
