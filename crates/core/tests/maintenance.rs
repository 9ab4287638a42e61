//! Structural maintenance after the host took over every module address:
//! the round budget of an insert's repartition and meta-split, and the
//! host allocators staying equal to the modules' slabs through churn and
//! a crash rebuild.

use bitstr::BitStr;
use pim_trie::{CrashSpec, FaultPlan, PimTrie, PimTrieConfig};
use std::collections::BTreeMap;

fn values_from(base: u64, n: usize) -> Vec<u64> {
    (base..base + n as u64).collect()
}

#[test]
fn insert_maintenance_fits_four_rounds() {
    let base = workloads::uniform_var(8192, 16, 128, 41);
    let mut t = PimTrie::build(
        PimTrieConfig::for_modules(16),
        &base,
        &values_from(0, base.len()),
    );
    let fresh = workloads::uniform_var(1024, 16, 128, 42);
    t.enable_tracing();
    t.insert_batch(&fresh, &values_from(1 << 20, fresh.len()));
    assert!(t.audit_debug().is_empty(), "{:?}", t.audit_debug());
    let tracer = t.system_mut().metrics_mut().take_tracer().unwrap();
    // the batch really re-cut a block and split a meta-block
    let rounds: Vec<&str> = tracer.events().iter().map(|e| e.round.as_str()).collect();
    for name in ["repart.place", "msplit.place"] {
        assert!(rounds.contains(&name), "no {name} round in {rounds:?}");
    }
    let maint: u64 = tracer
        .phase_summaries()
        .iter()
        .filter(|s| s.op == "insert")
        .filter(|s| s.phase == "insert/repartition" || s.phase == "insert/meta-split")
        .map(|s| s.rounds)
        .sum();
    assert!(maint <= 4, "insert maintenance took {maint} rounds");
}

#[test]
fn host_allocators_match_module_slabs_through_churn() {
    let p = 8;
    let mut t = PimTrie::new(PimTrieConfig::for_modules(p).with_seed(5));
    let mut oracle: BTreeMap<BitStr, u64> = BTreeMap::new();
    for round in 0..6u64 {
        let keys = workloads::uniform_var(768, 8, 96, 100 + round);
        let values = values_from(round << 20, keys.len());
        t.insert_batch(&keys, &values);
        oracle.extend(keys.into_iter().zip(values));
        let audit = t.audit_debug();
        assert!(audit.is_empty(), "after insert {round}: {audit:?}");
        // delete three keys in four: blocks merge away and free slots that
        // the next insert's placements reuse
        let dels: Vec<BitStr> = oracle
            .keys()
            .enumerate()
            .filter(|(i, _)| i % 4 != 1)
            .map(|(_, k)| k.clone())
            .collect();
        t.delete_batch(&dels);
        oracle.retain(|k, _| dels.binary_search(k).is_err());
        let audit = t.audit_debug();
        assert!(audit.is_empty(), "after delete {round}: {audit:?}");
    }
    let (keys, values): (Vec<BitStr>, Vec<u64>) = oracle.into_iter().unzip();
    let want: Vec<Option<u64>> = values.into_iter().map(Some).collect();
    assert_eq!(t.get_batch(&keys), want);
}

#[test]
fn host_allocators_match_module_slabs_after_a_crash_rebuild() {
    let p = 8;
    let mut t = PimTrie::new(
        PimTrieConfig::for_modules(p)
            .with_seed(9)
            .with_fault_tolerance(true),
    );
    let keys = workloads::uniform_var(2048, 8, 96, 7);
    t.insert_batch(&keys, &values_from(0, keys.len()));
    t.install_faults(FaultPlan::new(3).with_crash(CrashSpec {
        round: 4,
        module: 2,
        down_rounds: 1,
        state_loss: true,
    }));
    let more = workloads::uniform_var(1024, 8, 96, 8);
    t.insert_batch(&more, &values_from(1 << 20, more.len()));
    t.clear_faults();
    assert!(t.system().metrics().fault_stats().rebuilds >= 1);
    assert!(t.audit_debug().is_empty(), "{:?}", t.audit_debug());
    let dels: Vec<BitStr> = keys.iter().step_by(2).cloned().collect();
    t.delete_batch(&dels);
    assert!(t.audit_debug().is_empty(), "{:?}", t.audit_debug());
}

#[test]
fn audit_reports_a_slot_the_host_and_a_module_disagree_on() {
    let keys = workloads::uniform_var(2048, 8, 96, 11);
    let mut t = PimTrie::build(
        PimTrieConfig::for_modules(4),
        &keys,
        &values_from(0, keys.len()),
    );
    assert!(t.audit_debug().is_empty());
    // free a block behind the host's back
    let (m, slot) = (0..4)
        .find_map(|m| {
            let slot = t.system().module(m).blocks.iter().last()?.0;
            Some((m, slot))
        })
        .unwrap();
    t.system_mut().module_mut(m).blocks.remove(slot);
    let issues = t.audit_debug();
    let want = format!("blocks of m{m}: host allocator");
    assert!(
        issues
            .iter()
            .any(|i| i.starts_with(&want) && i.contains(&format!("[{slot}]"))),
        "{issues:?}"
    );
}
