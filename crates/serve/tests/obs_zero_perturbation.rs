//! Observability must be free: serving with tracing and the default
//! alarm board fully enabled produces byte-identical outcomes, latency
//! digests, metered counters, and trace logs to a run with
//! observability off — at any thread count. The only divergence allowed
//! is `ServeStats::alarms` itself (the board's firing count) and the
//! trace log existing at all.

use pim_trie::{PimTrie, PimTrieConfig};
use serve::{default_board, run_closed_loop, ServeConfig, ServeReport, Server};
use workloads::{closed_loop_scripts, ClosedLoopSpec};

/// One closed-loop overloaded run. With `obs` on, tracing is enabled
/// end to end and the default alarm board is installed. Returns the
/// report (alarms zeroed for comparability), the metered counters, the
/// alarm firing count, and the trace JSONL ("" when obs is off).
fn run(obs: bool, threads: usize) -> (ServeReport, [u64; 5], u64, String) {
    pim_trie::with_threads(threads, || {
        let keys = workloads::uniform_var(300, 8, 64, 5);
        let values: Vec<u64> = (0..keys.len() as u64).collect();
        let mut trie = PimTrie::new(PimTrieConfig::for_modules(8).with_seed(42));
        trie.insert_batch(&keys, &values);
        if obs {
            trie.enable_tracing();
        }
        let spec = ClosedLoopSpec {
            mean_think: 25.0,
            deadline: u64::MAX,
            write_frac: 0.25,
            ..ClosedLoopSpec::read_mostly(10, 30)
        };
        let scripts = closed_loop_scripts(&spec, &keys, 77);
        let mut srv = Server::new(
            trie,
            ServeConfig::default().with_queue_cap(4).with_epoch_max(2),
        );
        if obs {
            srv.install_alarms(default_board());
        }
        let mut rep = run_closed_loop(&mut srv, &scripts);
        let alarms = rep.stats.alarms;
        rep.stats.alarms = 0;
        let m = srv.trie().system().metrics();
        let counters = [
            m.io_rounds(),
            m.io_time(),
            m.io_volume(),
            m.pim_time(),
            m.cpu_work(),
        ];
        let jsonl = srv
            .trie_mut()
            .system_mut()
            .metrics_mut()
            .take_tracer()
            .map(|t| t.to_jsonl())
            .unwrap_or_default();
        (rep, counters, alarms, jsonl)
    })
}

#[test]
fn obs_on_perturbs_no_counter_or_outcome() {
    let (rep_off, counters_off, alarms_off, jsonl_off) = run(false, 1);
    let (rep_on, counters_on, alarms_on, jsonl_on) = run(true, 1);
    assert!(
        rep_off.stats.completed > 0 && rep_off.stats.rejected > 0,
        "baseline run is degenerate: {:?}",
        rep_off.stats
    );
    assert_eq!(rep_off, rep_on, "obs changed outcomes or latencies");
    assert_eq!(counters_off, counters_on, "obs charged simulated cost");
    assert_eq!(alarms_off, 0, "no board installed, yet alarms counted");
    assert!(
        alarms_on > 0,
        "the overloaded run should trip the shed-rate alarm"
    );
    assert_eq!(jsonl_off, "", "tracing off yet events recorded");
    assert!(!jsonl_on.is_empty(), "tracing on yet no events recorded");
}

#[test]
fn obs_on_is_thread_count_invariant() {
    let one = run(true, 1);
    let four = run(true, 4);
    assert_eq!(one.0, four.0, "outcomes depend on threads with obs on");
    assert_eq!(one.1, four.1, "counters depend on threads with obs on");
    assert_eq!(one.2, four.2, "alarm count depends on threads");
    assert_eq!(one.3, four.3, "trace JSONL depends on threads");
}
