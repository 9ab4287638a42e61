//! Experiment runners regenerating every table and figure of the PIM-trie
//! paper (see DESIGN.md's experiment index and EXPERIMENTS.md for the
//! recorded results).
//!
//! The paper is a theory paper: its "evaluation" is Table 1 (asymptotic
//! space / IO-round / communication bounds for three designs) and five
//! mechanism figures. Every function here measures one of those claims on
//! the simulator and returns printable rows; the `repro` binary drives
//! them. Wall-clock is tracked by the repository's benchmark
//! (`benchmark/`), not here.

#![warn(missing_docs)]

pub mod cost_guard;
pub mod export;
pub mod obs;

use baselines::{DistRadixTree, DistXFastTrie, RangePartitioned};
use bitstr::hash::HashWidth;
use bitstr::BitStr;
use pim_sim::{MetricsDelta, PhaseSummary};
use pim_trie::{PimTrie, PimTrieConfig};
use workloads::Spec;

/// One printable result row: label + named numeric columns.
#[derive(Clone, Debug)]
pub struct Row {
    /// row label (structure / workload / parameter point)
    pub label: String,
    /// (column name, value) pairs
    pub cols: Vec<(&'static str, f64)>,
}

impl Row {
    fn new(label: impl Into<String>) -> Self {
        Row {
            label: label.into(),
            cols: Vec::new(),
        }
    }

    fn col(mut self, name: &'static str, v: f64) -> Self {
        self.cols.push((name, v));
        self
    }
}

/// Render rows as an aligned text table: one column per name any row
/// carries, in first-seen order; a row without it leaves the cell blank.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n== {title} ==");
    if rows.is_empty() {
        println!("(no rows)");
        return;
    }
    let label_w = rows.iter().map(|r| r.label.len()).max().unwrap().max(8);
    let mut names: Vec<&str> = Vec::new();
    for (name, _) in rows.iter().flat_map(|r| &r.cols) {
        if !names.contains(name) {
            names.push(name);
        }
    }
    print!("{:label_w$}", "");
    for name in &names {
        print!(" {name:>14}");
    }
    println!();
    for r in rows {
        print!("{:label_w$}", r.label);
        for name in &names {
            match r.cols.iter().find(|(n, _)| n == name) {
                None => print!(" {:>14}", ""),
                Some((_, v)) if v.abs() >= 1000.0 || *v == v.trunc() => print!(" {:>14.0}", v),
                Some((_, v)) => print!(" {:>14.3}", v),
            }
        }
        println!();
    }
}

pub(crate) fn values_for(keys: &[BitStr]) -> Vec<u64> {
    (0..keys.len() as u64).collect()
}

/// Build a PIM-trie over `keys` with default parameters for `p` modules,
/// then reset metric counters so experiments measure queries only.
pub fn build_pim(p: usize, seed: u64, keys: &[BitStr]) -> PimTrie {
    let cfg = PimTrieConfig::for_modules(p).with_seed(seed);
    PimTrie::build(cfg, keys, &values_for(keys))
}

fn delta_cols(mut row: Row, d: &MetricsDelta, batch: usize) -> Row {
    row = row
        .col("io_rounds", d.io_rounds as f64)
        .col("io_time", d.io_time as f64)
        .col("words/op", d.io_volume() as f64 / batch.max(1) as f64)
        .col("balance", d.io_balance());
    row
}

// ---------------------------------------------------------------------
// T1-space — Table 1, "Space" column
// ---------------------------------------------------------------------

/// Measured words per stored key for the three Table-1 designs.
pub fn t1_space(p: usize, quick: bool) -> Vec<Row> {
    let n = if quick { 1 << 12 } else { 1 << 14 };
    let mut rows = Vec::new();
    for (tag, spec) in [
        ("uniform64", Spec::UniformFixed { len: 64 }),
        (
            "var64-1024",
            Spec::UniformVar {
                min_len: 64,
                max_len: 1024,
            },
        ),
    ] {
        let keys = spec.generate(n, 42);
        let vals = values_for(&keys);
        let pim = build_pim(p, 1, &keys);
        rows.push(
            Row::new(format!("pim-trie/{tag}"))
                .col("keys", pim.len() as f64)
                .col("words", pim.space_words() as f64)
                .col("words/key", pim.space_words() as f64 / pim.len() as f64),
        );
        let radix = DistRadixTree::build(p, 4, 2, &keys, &vals);
        rows.push(
            Row::new(format!("dist-radix4/{tag}"))
                .col("keys", radix.len() as f64)
                .col("words", radix.space_words() as f64)
                .col("words/key", radix.space_words() as f64 / radix.len() as f64),
        );
        if tag == "uniform64" {
            let ints: Vec<u64> = keys.iter().map(|k| k.to_u64()).collect();
            let xf = DistXFastTrie::build(p, 64, 3, &ints);
            rows.push(
                Row::new(format!("dist-xfast/{tag}"))
                    .col("keys", xf.len() as f64)
                    .col("words", xf.space_words() as f64)
                    .col("words/key", xf.space_words() as f64 / xf.len() as f64),
            );
        }
        let range = RangePartitioned::build(p, &keys, &vals);
        rows.push(
            Row::new(format!("range-part/{tag}"))
                .col("keys", range.len() as f64)
                .col("words", range.space_words() as f64)
                .col("words/key", range.space_words() as f64 / range.len() as f64),
        );
    }
    rows
}

// ---------------------------------------------------------------------
// T1-rounds — Table 1, "IO rounds" columns
// ---------------------------------------------------------------------

/// IO rounds per batch for LCP on deep (chain) data: PIM-trie's O(log P)
/// vs the radix tree's O(l/s) pointer chasing vs x-fast's O(log l).
pub fn t1_rounds(p: usize, quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    let lens = if quick {
        vec![128usize, 512]
    } else {
        vec![128usize, 512, 2048]
    };
    for l in lens {
        // a chain trie of depth l plus uniform filler
        let chain = workloads::path_chain(l / 8, 8, 7);
        let filler = workloads::uniform_fixed(if quick { 1 << 11 } else { 1 << 13 }, 64, 8);
        let mut keys = chain.clone();
        keys.extend(filler);
        let vals = values_for(&keys);
        // queries: the chain keys (deep paths) repeated to batch size
        let batch: Vec<BitStr> = chain
            .iter()
            .cycle()
            .take(if quick { 1 << 10 } else { 1 << 12 })
            .cloned()
            .collect();

        let mut pim = build_pim(p, 4, &keys);
        let snap = pim.system().metrics().snapshot();
        let _ = pim.lcp_batch(&batch);
        let d = pim.system().metrics().since(&snap);
        rows.push(delta_cols(
            Row::new(format!("pim-trie/l={l}")).col("l", l as f64),
            &d,
            batch.len(),
        ));

        let mut radix = DistRadixTree::build(p, 4, 5, &keys, &vals);
        let snap = radix.system().metrics().snapshot();
        let _ = radix.lcp_batch(&batch);
        let d = radix.system().metrics().since(&snap);
        rows.push(delta_cols(
            Row::new(format!("dist-radix4/l={l}")).col("l", l as f64),
            &d,
            batch.len(),
        ));
    }
    // x-fast: fixed 64-bit keys only — O(log w) rounds
    let ints: Vec<u64> = workloads::uniform_fixed(1 << 12, 64, 9)
        .iter()
        .map(|k| k.to_u64())
        .collect();
    let mut xf = DistXFastTrie::build(p, 64, 10, &ints);
    let queries: Vec<u64> = ints.iter().take(1 << 10).copied().collect();
    let snap = xf.system().metrics().snapshot();
    let _ = xf.lcp_batch(&queries);
    let d = xf.system().metrics().since(&snap);
    rows.push(delta_cols(
        Row::new("dist-xfast/l=64 (int)").col("l", 64.0),
        &d,
        queries.len(),
    ));
    rows
}

/// Amortized rounds for Insert/Delete/Subtree/Get on PIM-trie (Table 1's
/// update columns; the baselines' update paths follow their query paths).
/// `maint_rounds` is the part of `io_rounds` spent re-cutting blocks,
/// splitting meta-blocks and merging; `assemble_rounds` the part a
/// SubtreeQuery spends collecting the blocks below its prefixes;
/// `probe_rounds`, `block_rounds` and `read_rounds` the parts spent in
/// the meta descent, in block matching and reading values.
/// `subtree` asks 16-bit prefixes (≈ 1 key each), `subtree-64`
/// `log2(n/64)`-bit ones (≈ 64 keys each, many blocks to assemble);
/// `get` looks up every other base key, half of them deleted.
pub fn t1_rounds_updates(p: usize, quick: bool) -> Vec<Row> {
    let n = if quick { 1 << 12 } else { 1 << 14 };
    let base = workloads::uniform_fixed(n, 128, 11);
    let mut pim = build_pim(p, 6, &base);
    let mut rows = Vec::new();
    pim.enable_tracing();

    let ins = workloads::uniform_fixed(n / 4, 128, 12);
    let snap = pim.system().metrics().snapshot();
    pim.insert_batch(&ins, &values_for(&ins));
    let d = pim.system().metrics().since(&snap);
    let phases = take_phases(&mut pim);
    rows.push(phase_cols(
        delta_cols(Row::new("pim-trie/insert"), &d, ins.len()),
        &phases,
    ));

    let dels: Vec<BitStr> = base.iter().step_by(4).cloned().collect();
    let snap = pim.system().metrics().snapshot();
    let _ = pim.delete_batch(&dels);
    let d = pim.system().metrics().since(&snap);
    let phases = take_phases(&mut pim);
    rows.push(phase_cols(
        delta_cols(Row::new("pim-trie/delete"), &d, dels.len()),
        &phases,
    ));

    let bits_64 = (n / 64).ilog2() as usize;
    for (name, skip, step, bits) in [("subtree", 1, 16, 16), ("subtree-64", 0, 64, bits_64)] {
        let prefixes: Vec<BitStr> = base
            .iter()
            .skip(skip)
            .step_by(step)
            .map(|k| k.slice(0..bits).to_bitstr())
            .collect();
        let snap = pim.system().metrics().snapshot();
        let subs = pim.subtree_batch(&prefixes);
        let d = pim.system().metrics().since(&snap);
        let result_keys: usize = subs.iter().flatten().map(|t| t.n_keys()).sum();
        let phases = take_phases(&mut pim);
        rows.push(
            phase_cols(
                delta_cols(Row::new(format!("pim-trie/{name}")), &d, prefixes.len()),
                &phases,
            )
            .col("assemble_rounds", rounds_in(&phases, &["assemble"]))
            .col("result_keys", result_keys as f64),
        );
    }

    let gets: Vec<BitStr> = base.iter().step_by(2).cloned().collect();
    let snap = pim.system().metrics().snapshot();
    let got = pim.get_batch(&gets);
    let d = pim.system().metrics().since(&snap);
    let phases = take_phases(&mut pim);
    rows.push(
        phase_cols(
            delta_cols(Row::new("pim-trie/get"), &d, gets.len()),
            &phases,
        )
        .col("result_keys", got.iter().flatten().count() as f64),
    );
    rows
}

/// The per-phase round columns every `t1-rounds-updates` row carries.
fn phase_cols(row: Row, phases: &[PhaseSummary]) -> Row {
    row.col("maint_rounds", rounds_in(phases, MAINT_PHASES))
        .col("probe_rounds", rounds_in(phases, &["hash-probe"]))
        .col("block_rounds", rounds_in(phases, &["block-match"]))
        .col("read_rounds", rounds_in(phases, &["read"]))
}

/// The phases of structural maintenance.
const MAINT_PHASES: &[&str] = &["repartition", "meta-split", "merge"];

/// The phases the tracer summed since tracing was last enabled (the
/// tracer perturbs no metered counter); tracing is re-armed for the
/// next op.
fn take_phases(pim: &mut PimTrie) -> Vec<PhaseSummary> {
    let tracer = pim.system_mut().metrics_mut().take_tracer();
    pim.enable_tracing();
    tracer.map(|t| t.phase_summaries()).unwrap_or_default()
}

/// Rounds spent in the phases whose label ends in one of `names`.
fn rounds_in(phases: &[PhaseSummary], names: &[&str]) -> f64 {
    let rounds: u64 = phases
        .iter()
        .filter(|s| names.iter().any(|n| s.phase.rsplit('/').next() == Some(*n)))
        .map(|s| s.rounds)
        .sum();
    rounds as f64
}

// ---------------------------------------------------------------------
// T1-comm — Table 1, "Communication" columns
// ---------------------------------------------------------------------

/// Words of communication per operation as key length grows: PIM-trie's
/// O(l/w) slope vs dist-radix's O(l/s) slope; insert comm for x-fast.
pub fn t1_comm(p: usize, quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    let lens = if quick {
        vec![64usize, 256, 1024]
    } else {
        vec![64usize, 256, 1024, 4096]
    };
    for l in lens {
        let n = if quick { 1 << 11 } else { 1 << 12 };
        let keys = workloads::uniform_fixed(n, l, 21);
        let vals = values_for(&keys);
        // queries extend stored keys: matches traverse the full length
        let batch: Vec<BitStr> = keys
            .iter()
            .take(n / 2)
            .map(|k| {
                let mut q = k.clone();
                q.push(true);
                q
            })
            .collect();

        let mut pim = build_pim(p, 13, &keys);
        let snap = pim.system().metrics().snapshot();
        let _ = pim.lcp_batch(&batch);
        let d = pim.system().metrics().since(&snap);
        rows.push(delta_cols(
            Row::new(format!("pim-trie/lcp l={l}")).col("l", l as f64),
            &d,
            batch.len(),
        ));

        let mut radix = DistRadixTree::build(p, 4, 14, &keys, &vals);
        let snap = radix.system().metrics().snapshot();
        let _ = radix.lcp_batch(&batch);
        let d = radix.system().metrics().since(&snap);
        rows.push(delta_cols(
            Row::new(format!("dist-radix4/lcp l={l}")).col("l", l as f64),
            &d,
            batch.len(),
        ));
    }
    // insert communication: x-fast pays O(w) words/key; PIM-trie O(l/w)
    let ints: Vec<u64> = workloads::uniform_fixed(1 << 11, 64, 23)
        .iter()
        .map(|k| k.to_u64())
        .collect();
    let mut xf = DistXFastTrie::new(p, 64, 24);
    let snap = xf.system().metrics().snapshot();
    xf.insert_batch(&ints);
    let d = xf.system().metrics().since(&snap);
    rows.push(delta_cols(
        Row::new("dist-xfast/insert l=64").col("l", 64.0),
        &d,
        ints.len(),
    ));
    let keys = workloads::uniform_fixed(1 << 11, 64, 23);
    let mut pim = build_pim(p, 25, &workloads::uniform_fixed(1 << 11, 64, 26));
    let snap = pim.system().metrics().snapshot();
    pim.insert_batch(&keys, &values_for(&keys));
    let d = pim.system().metrics().since(&snap);
    rows.push(delta_cols(
        Row::new("pim-trie/insert l=64").col("l", 64.0),
        &d,
        keys.len(),
    ));
    rows
}

// ---------------------------------------------------------------------
// X-skew — the headline: load balance under adversarial workloads
// ---------------------------------------------------------------------

/// Per-module load balance of an LCP batch under increasing skew, for
/// PIM-trie vs range-partitioned vs distributed radix.
pub fn skew(p: usize, quick: bool) -> Vec<Row> {
    let n = if quick { 1 << 13 } else { 1 << 14 };
    let bsz = if quick { 1 << 12 } else { 1 << 13 };
    let keys = workloads::uniform_fixed(n, 96, 31);
    let vals = values_for(&keys);

    // query generators per skew level
    let batches: Vec<(&str, Vec<BitStr>)> = vec![
        ("uniform", workloads::uniform_fixed(bsz, 96, 32)),
        ("zipf0.8", zipf_over_keys(&keys, bsz, 0.8, 33)),
        ("zipf1.2", zipf_over_keys(&keys, bsz, 1.2, 34)),
        (
            "same-path",
            workloads::same_path_queries(&keys[7], bsz, 32, 35),
        ),
    ];

    let mut rows = Vec::new();
    for (tag, batch) in &batches {
        let mut pim = build_pim(p, 36, &keys);
        let snap = pim.system().metrics().snapshot();
        let _ = pim.lcp_batch(batch);
        let d = pim.system().metrics().since(&snap);
        rows.push(delta_cols(
            Row::new(format!("pim-trie/{tag}")),
            &d,
            batch.len(),
        ));

        let mut range = RangePartitioned::build(p, &keys, &vals);
        let snap = range.system().metrics().snapshot();
        let _ = range.lcp_batch(batch);
        let d = range.system().metrics().since(&snap);
        rows.push(delta_cols(
            Row::new(format!("range-part/{tag}")),
            &d,
            batch.len(),
        ));

        let mut radix = DistRadixTree::build(p, 4, 37, &keys, &vals);
        let snap = radix.system().metrics().snapshot();
        let _ = radix.lcp_batch(batch);
        let d = radix.system().metrics().since(&snap);
        rows.push(delta_cols(
            Row::new(format!("dist-radix4/{tag}")),
            &d,
            batch.len(),
        ));
    }
    rows
}

/// Queries drawn from the stored keys with Zipf(θ) popularity.
pub fn zipf_over_keys(keys: &[BitStr], n: usize, theta: f64, seed: u64) -> Vec<BitStr> {
    use rand::SeedableRng;
    let zipf = workloads::Zipf::new(keys.len(), theta);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| keys[zipf.sample(&mut rng)].clone())
        .collect()
}

/// Per-module *space* balance after builds on benign and adversarial data
/// (the Lemma 2.1 weighted balls-into-bins claim for blocks): even a
/// degenerate path trie spreads its blocks evenly across modules.
pub fn space_balance(p: usize, quick: bool) -> Vec<Row> {
    let n = if quick { 1 << 12 } else { 1 << 14 };
    let data: Vec<(&str, Vec<BitStr>)> = vec![
        ("uniform", workloads::uniform_fixed(n, 96, 81)),
        ("urls", workloads::urls(n, 82)),
        ("path-chain", workloads::path_chain(n / 8, 8, 83)),
        ("shared-prefix", workloads::shared_prefix(n, 64, 160, 84)),
    ];
    let mut rows = Vec::new();
    for (tag, keys) in &data {
        let pim = build_pim(p, 85, keys);
        let per: Vec<u64> = pim.system().modules().map(|m| m.space_words()).collect();
        let total: u64 = per.iter().sum();
        let max = *per.iter().max().unwrap();
        let mean = total as f64 / p as f64;
        rows.push(
            Row::new(format!("pim-trie/{tag}"))
                .col("keys", pim.len() as f64)
                .col("total_words", total as f64)
                .col("space_balance", max as f64 / mean.max(1.0)),
        );
    }
    rows
}

// ---------------------------------------------------------------------
// X-scaleP — aggregate-bandwidth scaling
// ---------------------------------------------------------------------

/// IO time per op and rounds as the module count grows (Theorem 4.3:
/// IO time ∝ 1/P, rounds ∝ log P).
pub fn scale_p(quick: bool) -> Vec<Row> {
    let n = if quick { 1 << 13 } else { 1 << 14 };
    let bsz = if quick { 1 << 12 } else { 1 << 13 };
    let keys = workloads::uniform_fixed(n, 128, 41);
    let batch = workloads::uniform_fixed(bsz, 128, 42);
    let ps = if quick {
        vec![2usize, 8, 32]
    } else {
        vec![2usize, 4, 8, 16, 32, 64]
    };
    let mut rows = Vec::new();
    for p in ps {
        let mut pim = build_pim(p, 43, &keys);
        let snap = pim.system().metrics().snapshot();
        let _ = pim.lcp_batch(&batch);
        let d = pim.system().metrics().since(&snap);
        rows.push(
            delta_cols(
                Row::new(format!("P={p}")).col("P", p as f64),
                &d,
                batch.len(),
            )
            .col("io_time/op", d.io_time as f64 / batch.len() as f64),
        );
    }
    rows
}

// ---------------------------------------------------------------------
// X-descent — what the meta descent costs as n grows
// ---------------------------------------------------------------------

/// IO rounds of the meta descent against the height of the meta-block
/// tree, for n ∈ {n₀/8, n₀, 4·n₀} stored keys at fixed `P`. The host
/// matches every query against its master table (Algorithm 4, DESIGN.md)
/// and sends one `match.meta` round straight to each path's deepest
/// meta-block, so the descent costs at most one round at every n; this
/// table says what that table and the resident copies cost the host.
///
/// Per n, two schedules on one index:
///
/// * `read` — after running both twice to warm up, a 4096-key and a
///   16-key `lcp` batch. `fills/batch` must read 0: nothing changes the
///   tree, so no resident copy is ever pulled twice;
/// * `churn` — four cycles of insert 1024 fresh keys → delete them → the
///   same 4096-key `lcp`, then the 16-key batch. Meta splits and merges
///   drop resident copies (`inval/batch`) and the next match re-pulls
///   them (`fills/batch`); both are the schedule's totals over the
///   cycles' twelve batches.
///
/// Columns: `height` (levels of the meta-block tree, from
/// [`PimTrie::meta_levels_debug`]), `master_entries` and `master_words`
/// (the master table: one entry per meta-block), `res_words` and
/// `res_high` (words of resident copies held now, and the most ever
/// held) from [`pim_trie::ResidentStats`], `descend/4096` and
/// `descend/16` from [`pim_trie::MatchStats::descend_rounds`].
pub fn descent(p: usize, quick: bool) -> Vec<Row> {
    let n0: usize = if quick { 1 << 13 } else { 1 << 15 };
    let big = workloads::uniform_fixed(4096, 64, 102);
    let small: Vec<BitStr> = big[..16].to_vec();
    let mut rows = Vec::new();
    for n in [n0 / 8, n0, 4 * n0] {
        let keys = workloads::uniform_fixed(n, 64, 101);
        let mut t = build_pim(p, 103, &keys);
        let descend = |t: &mut PimTrie, batch: &[BitStr]| {
            let _ = t.lcp_batch(batch);
            t.last_match_stats().descend_rounds as f64
        };
        let row = |t: &PimTrie, tag: &str, big: f64, small: f64, fills: f64, inval: f64| {
            Row::new(format!("{tag}/n={n}"))
                .col("n", n as f64)
                .col("height", t.meta_levels_debug().len() as f64)
                .col("master_entries", t.master_entries() as f64)
                .col("master_words", t.master_words() as f64)
                .col("res_words", t.resident_stats().words as f64)
                .col("res_high", t.resident_stats().words_high_water as f64)
                .col("descend/4096", big)
                .col("descend/16", small)
                .col("fills/batch", fills)
                .col("inval/batch", inval)
        };

        for _ in 0..2 {
            descend(&mut t, &big);
            descend(&mut t, &small);
        }
        let r0 = t.resident_stats().clone();
        let (d_big, d_small) = (descend(&mut t, &big), descend(&mut t, &small));
        let r1 = t.resident_stats().clone();
        rows.push(row(
            &t,
            "read",
            d_big,
            d_small,
            (r1.fills - r0.fills) as f64 / 2.0,
            (r1.invalidations - r0.invalidations) as f64 / 2.0,
        ));

        let cycles = 4;
        let mut d_big = 0.0;
        for c in 0..cycles {
            let fresh = workloads::uniform_fixed(1024, 72, 104 + c);
            t.insert_batch(&fresh, &values_for(&fresh));
            let _ = t.delete_batch(&fresh);
            d_big += descend(&mut t, &big);
        }
        let d_small = descend(&mut t, &small);
        let r2 = t.resident_stats().clone();
        let batches = (3 * cycles) as f64;
        rows.push(row(
            &t,
            "churn",
            d_big / cycles as f64,
            d_small,
            (r2.fills - r1.fills) as f64 / batches,
            (r2.invalidations - r1.invalidations) as f64 / batches,
        ));
    }
    rows
}

// ---------------------------------------------------------------------
// X-batch — the Ω(P log^5 P) batch-size condition
// ---------------------------------------------------------------------

/// Balance as the batch shrinks below the paper's minimum batch size.
pub fn batch_size(p: usize, quick: bool) -> Vec<Row> {
    let n = if quick { 1 << 13 } else { 1 << 14 };
    let keys = workloads::uniform_fixed(n, 96, 51);
    let mut pim = build_pim(p, 52, &keys);
    let sizes = if quick {
        vec![64usize, 1024, 8192]
    } else {
        vec![64usize, 256, 1024, 4096, 16384]
    };
    let mut rows = Vec::new();
    for bsz in sizes {
        let batch = workloads::uniform_fixed(bsz, 96, 53 + bsz as u64);
        let snap = pim.system().metrics().snapshot();
        let _ = pim.lcp_batch(&batch);
        let d = pim.system().metrics().since(&snap);
        rows.push(delta_cols(
            Row::new(format!("batch={bsz}")).col("batch", bsz as f64),
            &d,
            bsz,
        ));
    }
    rows
}

// ---------------------------------------------------------------------
// X-verify — §4.4.3 narrow-digest collision handling
// ---------------------------------------------------------------------

/// Redo work and exactness as the hash digest narrows.
pub fn verify(p: usize, quick: bool) -> Vec<Row> {
    let n = if quick { 1 << 12 } else { 1 << 13 };
    let keys = workloads::uniform_fixed(n, 96, 61);
    let batch = workloads::uniform_fixed(n / 2, 104, 62);
    let mut rows = Vec::new();
    // ground truth from the full-width structure's slow path
    let mut truth_pim = build_pim(p, 63, &keys);
    let truth = truth_pim.lcp_batch_slow(&batch);
    for width in [8u32, 12, 16, 61] {
        let cfg = PimTrieConfig::for_modules(p)
            .with_seed(63)
            .with_hash_width(HashWidth(width));
        let mut pim = PimTrie::build(cfg, &keys, &values_for(&keys));
        let snap = pim.system().metrics().snapshot();
        let got = pim.lcp_batch(&batch);
        let d = pim.system().metrics().since(&snap);
        let wrong = got.iter().zip(&truth).filter(|(a, b)| a != b).count();
        rows.push(
            delta_cols(
                Row::new(format!("width={width}")).col("width", width as f64),
                &d,
                batch.len(),
            )
            .col("pim_time", d.pim_time as f64)
            .col("redo_paths", pim.redo_paths() as f64)
            .col("wrong", wrong as f64),
        );
    }
    rows
}

// ---------------------------------------------------------------------
// X-ablate — design-choice ablations
// ---------------------------------------------------------------------

/// Ablations: push-pull threshold and block size K_B.
pub fn ablate(p: usize, quick: bool) -> Vec<Row> {
    let n = if quick { 1 << 12 } else { 1 << 13 };
    let keys = workloads::uniform_fixed(n, 96, 71);
    // a skewed batch stresses the push-pull decision
    let batch =
        workloads::same_path_queries(&keys[3], if quick { 1 << 11 } else { 1 << 12 }, 32, 72);
    let mut rows = Vec::new();
    for (tag, cfg) in [
        ("default", PimTrieConfig::for_modules(p).with_seed(73)),
        (
            "always-pull",
            PimTrieConfig::for_modules(p)
                .with_seed(73)
                .with_push_threshold(0),
        ),
        (
            "always-push",
            PimTrieConfig::for_modules(p)
                .with_seed(73)
                .with_push_threshold(u64::MAX),
        ),
        (
            "kb=16",
            PimTrieConfig::for_modules(p).with_seed(73).with_k_b(16),
        ),
        (
            "kb=256",
            PimTrieConfig::for_modules(p).with_seed(73).with_k_b(256),
        ),
    ] {
        let mut pim = PimTrie::build(cfg, &keys, &values_for(&keys));
        let snap = pim.system().metrics().snapshot();
        let _ = pim.lcp_batch(&batch);
        let d = pim.system().metrics().since(&snap);
        rows.push(
            delta_cols(Row::new(tag), &d, batch.len()).col("space", pim.space_words() as f64),
        );
    }
    // fast path vs slow path (the "no hash manager" ablation)
    let mut pim = build_pim(p, 74, &keys);
    let snap = pim.system().metrics().snapshot();
    let _ = pim.lcp_batch(&batch);
    let d = pim.system().metrics().since(&snap);
    rows.push(delta_cols(Row::new("fast-path"), &d, batch.len()).col("space", 0.0));
    let snap = pim.system().metrics().snapshot();
    let _ = pim.lcp_batch_slow(&batch);
    let d = pim.system().metrics().since(&snap);
    rows.push(delta_cols(Row::new("slow-path(ptr-chase)"), &d, batch.len()).col("space", 0.0));
    rows
}

// ---------------------------------------------------------------------
// X-faults — fault-rate sweep → recovery overhead
// ---------------------------------------------------------------------

/// Recovery overhead as the injected fault rate grows: insert + LCP on a
/// pre-built trie under seeded word flips, dropped replies and one
/// mid-batch module crash, compared against a clean unsealed baseline.
/// (The faulted phase runs on a warm trie so graft messages stay spread
/// across blocks — a cold bulk load funnels everything into one root
/// graft whose size no bounded retry budget can push through at 1e-3.)
/// Every faulted run is asserted identical to the fault-free oracle, so
/// the overhead columns measure *successful* recovery, not divergence.
///
/// The sweep's top rate is not a constant: a message of `W` words crosses
/// a wire flipping words at rate `r` intact with probability `(1 − r)^W`,
/// so whether a rate is survivable inside the retry budget is decided by
/// the largest message the run ships — and that message belongs to the
/// journal rebuild after the crash (grafts into, and re-partitioning
/// fetches of, a nearly empty trie), whose size moves with the block
/// layout. The `sealed/crash` row takes the crash over a clean wire and
/// records that size (`max_msg`: the most words any one module sent or
/// received in one round, an upper bound on any single message); the
/// `sealed/top` row runs at `1 / max_msg`, capped at 1e-3, where the
/// largest message still gets through about one attempt in three.
pub fn faults(p: usize, quick: bool) -> Vec<Row> {
    use pim_trie::{CrashSpec, FaultPlan};
    let n = if quick { 1 << 10 } else { 1 << 12 };
    let spec = Spec::UniformVar {
        min_len: 32,
        max_len: 256,
    };
    let keys = spec.generate(n, 42);
    let vals = values_for(&keys);
    let keys2 = spec.generate(n / 4, 44);
    let vals2: Vec<u64> = (n as u64..(n + n / 4) as u64).collect();
    let queries = spec.generate(n / 2, 43);

    // clean, unsealed oracle run
    let mut base = PimTrie::new(PimTrieConfig::for_modules(p).with_seed(1));
    base.insert_batch(&keys, &vals);
    let snap = base.system().metrics().snapshot();
    base.insert_batch(&keys2, &vals2);
    let want = base.lcp_batch(&queries);
    let d0 = base.system().metrics().since(&snap);
    let base_rounds = d0.io_rounds as f64;
    let base_words = d0.io_volume() as f64;

    let fault_cols =
        |row: Row, rate: f64, d: &MetricsDelta, fs: &pim_trie::FaultStats, max_msg: u64| {
            row.col("flip_rate", rate)
                .col("io_rounds", d.io_rounds as f64)
                .col("words", d.io_volume() as f64)
                .col("xtra_rounds", d.io_rounds as f64 - base_rounds)
                .col("xtra_words", d.io_volume() as f64 - base_words)
                .col("injected", fs.total_injected() as f64)
                .col("detected", fs.total_detected() as f64)
                .col("retries", fs.retries as f64)
                .col("rebuilds", fs.rebuilds as f64)
                .col("max_msg", max_msg as f64)
        };

    let mut rows = vec![fault_cols(
        Row::new("plain"),
        0.0,
        &d0,
        &pim_trie::FaultStats::default(),
        0,
    )];

    // One sealed run: `None` installs no plan at all, `Some(rate)` the
    // crash plus flips and drops at `rate`. Returns the row and the
    // run's largest one-way module transfer.
    let sealed = |tag: &str, rate: Option<f64>| -> (Row, u64) {
        let mut t = PimTrie::new(
            PimTrieConfig::for_modules(p)
                .with_seed(1)
                .with_fault_tolerance(true)
                .with_max_round_retries(64),
        );
        t.insert_batch(&keys, &vals);
        if let Some(rate) = rate {
            t.install_faults(
                FaultPlan::new(7)
                    .with_flip_rate(rate)
                    .with_drop_rate(rate)
                    .with_crash(CrashSpec {
                        // the lcp's first round, after the insert's
                        // five (fault-clock rounds count from 0)
                        round: 5,
                        module: p / 2,
                        down_rounds: 1,
                        state_loss: true,
                    }),
            );
        }
        t.enable_tracing();
        let snap = t.system().metrics().snapshot();
        t.insert_batch(&keys2, &vals2);
        let got = t.lcp_batch(&queries);
        assert_eq!(got, want, "faulted run {tag} diverged from oracle");
        let tracer = t
            .system_mut()
            .metrics_mut()
            .take_tracer()
            .unwrap_or_default();
        let max_msg = tracer
            .events()
            .iter()
            .flat_map(|ev| ev.sent.iter().chain(&ev.received))
            .copied()
            .max()
            .unwrap_or(0);
        let m = t.system().metrics();
        let row = fault_cols(
            Row::new(tag),
            rate.unwrap_or(0.0),
            &m.since(&snap),
            m.fault_stats(),
            max_msg,
        );
        (row, max_msg)
    };
    rows.push(sealed("sealed/0", None).0);
    let (crash_row, max_msg) = sealed("sealed/crash", Some(0.0));
    rows.push(crash_row);
    rows.push(sealed("sealed/1e-5", Some(1e-5)).0);
    rows.push(sealed("sealed/1e-4", Some(1e-4)).0);
    let top = (1.0 / max_msg.max(1) as f64).min(1e-3);
    rows.push(sealed("sealed/top", Some(top)).0);
    rows
}

// ---------------------------------------------------------------------
// X-compress — compact wire codec
// ---------------------------------------------------------------------

/// Words/op of the compact wire codec against the Plain baseline, on the
/// `skew` experiment's LCP batches (`uniform`, `zipf1.2`, `same-path`) —
/// pure query traffic over a warm trie, where the words/op floor matters.
///
/// Each workload runs twice on identically seeded builds: `plain` is
/// the byte-identical legacy metering
/// ([`WireCodec::Plain`](pim_trie::WireCodec)), `compact` negotiates
/// the structural codec. Columns: the standard per-batch delta block,
/// `space/key` (module words per stored key — the codec only changes
/// what crosses the wire, so the two rows of a pair agree), and `ratio` — the
/// run-cumulative `plain_words / encoded_words` from
/// [`CodecStats`](pim_trie::CodecStats) (1.0 on plain rows by
/// definition). The gates (tests/compress_experiment.rs + the cost
/// guard) require ≥ 2× words/op reduction on the skewed LCP rows with
/// balance within 5% of Plain.
///
/// Paper: Table 1's communication column and §7.3 words/op are the
/// targets; WIRE_FORMAT.md specifies the encoding being metered.
/// DESIGN.md "X-compress".
pub fn compress(p: usize, quick: bool) -> Vec<Row> {
    use pim_trie::WireCodec;
    let n = if quick { 1 << 13 } else { 1 << 14 };
    let bsz = if quick { 1 << 12 } else { 1 << 13 };
    let keys = workloads::uniform_fixed(n, 96, 31);
    let modes = [("plain", WireCodec::Plain), ("compact", WireCodec::Compact)];

    // skew-family LCP batches (same shapes and seeds as `skew`)
    let batches: Vec<(&str, Vec<BitStr>)> = vec![
        ("uniform", workloads::uniform_fixed(bsz, 96, 32)),
        ("zipf1.2", zipf_over_keys(&keys, bsz, 1.2, 34)),
        (
            "same-path",
            workloads::same_path_queries(&keys[7], bsz, 32, 35),
        ),
    ];
    let mut rows = Vec::new();
    for (tag, batch) in &batches {
        for (mode, codec) in modes {
            let cfg = PimTrieConfig::for_modules(p)
                .with_seed(36)
                .with_codec(codec);
            let mut t = PimTrie::build(cfg, &keys, &values_for(&keys));
            let snap = t.system().metrics().snapshot();
            let _ = t.lcp_batch(batch);
            let d = t.system().metrics().since(&snap);
            rows.push(
                delta_cols(Row::new(format!("{tag}/{mode}")), &d, batch.len())
                    .col("space/key", t.space_words() as f64 / t.len().max(1) as f64)
                    .col("ratio", t.codec_stats().ratio()),
            );
        }
    }

    rows
}

// ---------------------------------------------------------------------
// X-serve — overload-safe multi-client serving front-end
// ---------------------------------------------------------------------

/// Closed-loop multi-client serving through the overload-safe front-end
/// (`crates/serve`): three scenarios on the same stored key set and
/// client scripts, varying only pressure.
///
/// * `steady` — queue deep enough for the population, unbounded
///   deadlines: every request completes, nothing is shed;
/// * `overload` — the same clients against `queue_cap` admission slots
///   and tiny epochs: admission control sheds (`rejected`), but every
///   admitted request still settles;
/// * `deadline` — overload plus a finite latency budget: queue-delayed
///   requests expire with a typed error before dispatch (`expired`).
///
/// Every column is an exact count (the serving schedule is a pure
/// function of seed, P and config — thread-count invariant), so the cost-guard gates all of them at tolerance 0.
/// Latencies are p50/p99 of completed replies per op class in simulated
/// PIM time. ISSUE: overload-safe serving; DESIGN.md "X-serve".
pub fn serve(p: usize, quick: bool, clients: usize, deadline: u64, queue_cap: usize) -> Vec<Row> {
    use serve::{run_closed_loop, ServeConfig, Server};
    use workloads::{closed_loop_scripts, ClosedLoopSpec};

    let n = if quick { 1 << 10 } else { 1 << 12 };
    let ops = if quick { 15 } else { 40 };
    let keys = workloads::uniform_var(n, 8, 64, 71);
    let vals = values_for(&keys);

    let scenarios: [(&str, usize, usize, u64, f64); 3] = [
        ("steady", clients.max(1) * 2, 8, u64::MAX, 200.0),
        ("overload", queue_cap, 2, u64::MAX, 25.0),
        ("deadline", queue_cap, 2, deadline, 25.0),
    ];
    let mut rows = Vec::new();
    for (tag, cap, epoch_max, dl, think) in scenarios {
        let mut trie = PimTrie::new(PimTrieConfig::for_modules(p).with_seed(42));
        trie.insert_batch(&keys, &vals);
        let spec = ClosedLoopSpec {
            clients,
            ops_per_client: ops,
            theta: 0.9,
            mean_think: think,
            deadline: dl,
            write_frac: 0.1,
        };
        let scripts = closed_loop_scripts(&spec, &keys, 73);
        let mut srv = Server::new(
            trie,
            ServeConfig::default()
                .with_queue_cap(cap)
                .with_epoch_max(epoch_max),
        );
        srv.install_alarms(serve::default_board());
        let rep = run_closed_loop(&mut srv, &scripts);
        assert_eq!(rep.violations, 0, "{tag}: double outcome recorded");
        assert_eq!(rep.unresolved, 0, "{tag}: admitted request dropped");
        assert_eq!(
            rep.stats.admitted,
            rep.stats.settled(),
            "{tag}: settlement invariant broken"
        );

        let s = &rep.stats;
        let mut row = Row::new(tag)
            .col("clients", clients as f64)
            .col("submitted", s.submitted as f64)
            .col("admitted", s.admitted as f64)
            .col("rejected", s.rejected as f64)
            .col("expired", s.expired as f64)
            .col("completed", s.completed as f64)
            .col("failed", s.failed as f64)
            .col("epochs", s.epochs as f64)
            .col("alarms", s.alarms as f64);
        let lat_cols: [(&'static str, &'static str); 4] = [
            ("lcp_p50", "lcp_p99"),
            ("get_p50", "get_p99"),
            ("insert_p50", "insert_p99"),
            ("delete_p50", "delete_p99"),
        ];
        for (&(p50n, p99n), l) in lat_cols.iter().zip(rep.latency.iter()) {
            row = row.col(p50n, l.p50 as f64).col(p99n, l.p99 as f64);
        }
        rows.push(row);
    }
    rows
}

/// Render experiment rows as a single-line JSON summary (hand-rolled:
/// column values are finite f64s, labels are plain ASCII tags).
pub fn rows_json(experiment: &str, rows: &[Row]) -> String {
    let mut s = String::new();
    s.push_str("{\"experiment\":\"");
    s.push_str(experiment);
    s.push_str("\",\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"label\":\"");
        s.push_str(&r.label);
        s.push('"');
        for (name, v) in &r.cols {
            s.push_str(",\"");
            s.push_str(name);
            s.push_str("\":");
            if *v == v.trunc() && v.abs() < 1e15 {
                s.push_str(&format!("{}", *v as i64));
            } else {
                s.push_str(&format!("{v}"));
            }
        }
        s.push('}');
    }
    s.push_str("]}");
    s
}
