//! The paper's headline, live: an adversarial batch that serializes a
//! range-partitioned index while the PIM-trie's busiest module moves
//! two orders of magnitude fewer words.
//!
//! Prints per-module IO histograms for both structures under a uniform
//! batch and under a worst-case batch (every query extends one stored
//! key, so every query follows one search path).
//!
//! ```text
//! cargo run --release --example skew_demo [THREADS]
//! ```
//!
//! `THREADS` sizes the worker pool the module handlers run on
//! (default: all cores). The histograms are identical for any value —
//! the simulator's counters don't depend on the thread count — only
//! wall-clock changes.

use baselines::RangePartitioned;
use pim_trie::{PimTrie, PimTrieConfig};

fn bar(v: u64, max: u64) -> String {
    let width = (v as f64 / max.max(1) as f64 * 40.0).round() as usize;
    "#".repeat(width.max(if v > 0 { 1 } else { 0 }))
}

fn show(label: &str, per_module: &[u64]) {
    let max = per_module.iter().copied().max().unwrap_or(1);
    let total: u64 = per_module.iter().sum();
    let mean = total as f64 / per_module.len() as f64;
    println!("\n{label} (max/mean = {:.2})", max as f64 / mean.max(1.0));
    for (i, v) in per_module.iter().enumerate() {
        println!("  module {i:>2} | {:>8} {}", v, bar(*v, max));
    }
}

fn main() {
    let threads = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("THREADS must be a non-negative integer"))
        .unwrap_or(0); // 0 = RAYON_NUM_THREADS, else all cores
    pim_trie::with_threads(threads, run);
}

fn run() {
    let p = 8;
    let keys = workloads::uniform_fixed(1 << 13, 96, 1);
    let values: Vec<u64> = (0..keys.len() as u64).collect();

    let mut pim = PimTrie::build(PimTrieConfig::for_modules(p).with_seed(2), &keys, &values);
    let mut range = RangePartitioned::build(p, &keys, &values);

    for (tag, batch) in [
        ("uniform batch", workloads::uniform_fixed(1 << 12, 96, 3)),
        (
            "adversarial batch (one shared search path)",
            workloads::same_path_queries(&keys[42], 1 << 12, 32, 4),
        ),
    ] {
        println!("\n================ {tag} ================");
        let snap = pim.system().metrics().snapshot();
        let _ = pim.lcp_batch(&batch);
        let d = pim.system().metrics().since(&snap);
        show("PIM-trie per-module IO", &d.io_per_module);

        let snap = range.system().metrics().snapshot();
        let _ = range.lcp_batch(&batch);
        let d = range.system().metrics().since(&snap);
        show("Range-partitioned per-module IO", &d.io_per_module);
    }

    println!(
        "\nThe adversarial batch pins the range-partitioned index to one module\n\
         (max/mean -> P, every word of the batch on it) while the PIM-trie's\n\
         busiest module moves a few hundred words: the query trie collapses\n\
         the shared path and the hot blocks are pulled once — the\n\
         skew-resistance Theorem 4.3 claims. (Its max/mean there is a ratio\n\
         over those few hundred words; read the absolute scale.)"
    );
}
