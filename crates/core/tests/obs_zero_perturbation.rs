//! Observability must be free on the core batch paths too: a chaos run
//! (faults + recovery) over the host-resident top of the meta-block tree
//! produces byte-identical results, metered counters, resident stats, and
//! fault stats whether tracing is on or off — at any thread count. The
//! trace log is itself byte-deterministic.

use bitstr::BitStr;
use pim_sim::{FaultStats, ResidentStats};
use pim_trie::{CrashSpec, FaultPlan, PimTrie, PimTrieConfig};

fn values_for(keys: &[BitStr]) -> Vec<u64> {
    (0..keys.len() as u64).collect()
}

struct RunOut {
    lcps: Vec<usize>,
    gets: Vec<Option<u64>>,
    counters: [u64; 5],
    resident: ResidentStats,
    faults: FaultStats,
    jsonl: String,
}

/// Faulted op mix. With `obs` on, tracing runs end to end.
fn run(obs: bool, threads: usize) -> RunOut {
    pim_trie::with_threads(threads, || {
        let mut pim = PimTrie::new(
            PimTrieConfig::for_modules(8)
                .with_seed(42)
                .with_fault_tolerance(true)
                .with_max_round_retries(64),
        );
        if obs {
            pim.enable_tracing();
        }
        let keys = workloads::zipf_prefixes(1 << 10, 96, 10, 0.99, 17);
        let vals = values_for(&keys);
        pim.insert_batch(&keys, &vals);

        pim.install_faults(
            FaultPlan::new(7)
                .with_flip_rate(1e-3)
                .with_drop_rate(1e-3)
                .with_stragglers(0.01, 8)
                .with_crash(CrashSpec {
                    round: 9,
                    module: 3,
                    down_rounds: 1,
                    state_loss: true,
                }),
        );
        let hot: Vec<BitStr> = keys.iter().step_by(17).cloned().collect();
        let queries: Vec<BitStr> = hot.iter().cycle().take(1 << 10).cloned().collect();
        // repeated hot batches: the first descent pulls the top meta
        // levels, later ones match them on the host; the crash's rebuild
        // drops every copy and the next descent re-fills them
        let mut lcps = Vec::new();
        let mut gets = Vec::new();
        for _ in 0..6 {
            lcps.extend(pim.lcp_batch(&queries));
            gets.extend(pim.get_batch(&queries));
        }
        pim.clear_faults();

        let m = pim.system().metrics();
        let counters = [
            m.io_rounds(),
            m.io_time(),
            m.io_volume(),
            m.pim_time(),
            m.cpu_work(),
        ];
        let resident = m.resident_stats().clone();
        let faults = m.fault_stats().clone();
        let jsonl = if obs {
            let tracer = pim
                .system_mut()
                .metrics_mut()
                .take_tracer()
                .expect("tracing was enabled");
            tracer.to_jsonl()
        } else {
            String::new()
        };
        RunOut {
            lcps,
            gets,
            counters,
            resident,
            faults,
            jsonl,
        }
    })
}

#[test]
fn obs_on_perturbs_no_core_counter_or_result() {
    let off = run(false, 1);
    let on = run(true, 1);
    assert!(
        off.resident.host_matches > 0 && off.resident.fills > 0,
        "no resident copy filled and matched: workload degenerate"
    );
    assert!(
        off.faults.flips_injected > 0 && off.faults.rebuilds > 0,
        "no faults or no state-loss rebuild seen: chaos degenerate"
    );
    assert_eq!(off.lcps, on.lcps, "obs changed LCP results");
    assert_eq!(off.gets, on.gets, "obs changed get results");
    assert_eq!(off.counters, on.counters, "obs charged simulated cost");
    assert_eq!(off.resident, on.resident, "obs perturbed resident stats");
    assert_eq!(off.faults, on.faults, "obs perturbed fault stats");
    assert!(!on.jsonl.is_empty());
}

#[test]
fn obs_on_is_thread_count_invariant_end_to_end() {
    let one = run(true, 1);
    let four = run(true, 4);
    assert_eq!(one.counters, four.counters, "counters depend on threads");
    assert_eq!(
        one.resident, four.resident,
        "resident stats depend on threads"
    );
    assert_eq!(one.jsonl, four.jsonl, "trace JSONL depends on threads");
}
