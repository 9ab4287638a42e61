//! The three batch workloads: set-up, the per-cycle schedule, the
//! oracle check of every reply, and — in the traced run — the probes
//! that time each layer's public functions from outside.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use bitstr::hash::{IncrementalHash, PolyHasher};
use bitstr::BitStr;
use pim_sim::{Json, MetricsDelta};
use pim_trie::{MatchStats, PimTrie, PimTrieConfig, WireCodec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use trie_core::query::QueryTrie;
use trie_core::Trie;
use workloads::Zipf;

use crate::simsplit::PhaseTotals;
use crate::spans::Spans;
use crate::spec::{OpKind, Sizes, Workload, P};
use crate::stats::{median, ratio, tail, SimSum};
use crate::{layers, Measured, RunArgs};

/// Derive an independent generator seed from the run seed.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The stored key set of `w`, distinct, in generation order.
pub fn stored_keys(w: Workload, n: usize, seed: u64) -> Vec<BitStr> {
    let seed = mix(seed, 1, 0);
    let mut keys = match w {
        Workload::UniformRead | Workload::ServeMixed => workloads::uniform_fixed(n, 64, seed),
        Workload::UrlZipfCompact => workloads::urls(n, seed),
        Workload::WriteChurn => workloads::uniform_var(n, 32, 256, seed),
    };
    let mut seen = HashSet::with_capacity(keys.len());
    keys.retain(|k| seen.insert(k.clone()));
    keys
}

/// The index configuration of `w`: P = 64, paper parameters, every
/// opt-in feature off; Compact codec on `url-zipf-compact` only.
pub fn config(w: Workload, seed: u64) -> PimTrieConfig {
    let cfg = PimTrieConfig::for_modules(P).with_seed(seed);
    if w == Workload::UrlZipfCompact {
        cfg.with_codec(WireCodec::Compact)
    } else {
        cfg
    }
}

/// One set-up: generated keys, built index, and how long each took.
pub struct Setup {
    /// the stored keys; key `i` holds value `i`
    pub keys: Vec<BitStr>,
    /// the index built over them
    pub index: PimTrie,
    /// key generation, ns
    pub gen_ns: f64,
    /// `PimTrie::build`, ns
    pub build_ns: f64,
}

impl Setup {
    /// Generate the keys of `w` and build its index.
    pub fn run(w: Workload, n: usize, seed: u64, spans: &mut Spans) -> Setup {
        let (keys, gen_ns) = spans.timed("setup.gen", 0, || stored_keys(w, n, seed));
        let values: Vec<u64> = (0..keys.len() as u64).collect();
        let (index, build_ns) = spans.timed("setup.build", 0, || {
            PimTrie::build(config(w, seed), &keys, &values)
        });
        Setup {
            keys,
            index,
            gen_ns,
            build_ns,
        }
    }

    /// Set the `workloads.gen_*` and `core.build_*` metrics; call before
    /// the index serves anything, while its totals are the build's.
    pub fn set_build_metrics(&self, m: &mut Measured) {
        let n = self.keys.len() as f64;
        let built = self.index.system().metrics();
        m.set("workloads.gen_ns_per_key", self.gen_ns / n);
        m.set("core.build_ns_per_key", self.build_ns / n);
        m.set("core.build_rounds", built.io_rounds() as f64);
        m.set("core.build_words_per_key", built.io_volume() as f64 / n);
    }

    /// Set up `times` times (same seed, so the same index each time),
    /// keep the last, and return the set-up time of each in seconds.
    pub fn repeat(
        w: Workload,
        n: usize,
        seed: u64,
        times: usize,
        spans: &mut Spans,
    ) -> (Setup, Vec<f64>) {
        let mut secs = Vec::with_capacity(times);
        let mut last = None;
        for _ in 0..times.max(1) {
            // drop the previous index first so peak memory holds one
            drop(last.take());
            let s = Setup::run(w, n, seed, spans);
            secs.push((s.gen_ns + s.build_ns) / 1e9);
            last = Some(s);
        }
        (last.expect("at least one set-up ran"), secs)
    }
}

/// The sequential oracle over `keys` (key `i` → value `i`).
pub fn oracle_of(keys: &[BitStr]) -> Trie {
    let mut t = Trie::new();
    for (i, k) in keys.iter().enumerate() {
        t.insert(k, i as u64);
    }
    t
}

/// One batch call of a cycle.
pub struct Step {
    /// which operation
    pub kind: OpKind,
    /// its keys, queries or prefixes
    pub keys: Vec<BitStr>,
}

/// Generates each cycle's steps from the seed and the cycle number.
pub struct CycleGen {
    workload: Workload,
    seed: u64,
    sizes: Sizes,
    /// `url-zipf-compact`: popularity rank → stored-key index
    perm: Vec<u32>,
    zipf: Option<Zipf>,
}

impl CycleGen {
    /// A generator for `w` over `n_stored` stored keys.
    pub fn new(w: Workload, seed: u64, sizes: Sizes, n_stored: usize) -> CycleGen {
        let (perm, zipf) = if w == Workload::UrlZipfCompact {
            let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, 2, 0));
            let mut perm: Vec<u32> = (0..n_stored as u32).collect();
            for i in (1..perm.len()).rev() {
                perm.swap(i, rng.gen_range(0..=i));
            }
            (perm, Some(Zipf::new(n_stored, 0.99)))
        } else {
            (Vec::new(), None)
        };
        CycleGen {
            workload: w,
            seed,
            sizes,
            perm,
            zipf,
        }
    }

    fn rng(&self, cycle: u64, step: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(mix(self.seed, 16 + cycle, step))
    }

    fn drawn_uniformly(&self, stored: &[BitStr], cycle: u64, step: u64) -> Vec<BitStr> {
        let mut rng = self.rng(cycle, step);
        (0..self.sizes.batch)
            .map(|_| stored[rng.gen_range(0..stored.len())].clone())
            .collect()
    }

    fn drawn_zipf(&self, stored: &[BitStr], rng: &mut ChaCha8Rng) -> BitStr {
        let zipf = self.zipf.as_ref().expect("zipf workload");
        stored[self.perm[zipf.sample(rng)] as usize].clone()
    }

    /// The steps of cycle `cycle` over the `stored` key set.
    pub fn steps(&self, cycle: u64, stored: &[BitStr]) -> Vec<Step> {
        let batch = self.sizes.batch;
        let step = |kind, keys| Step { kind, keys };
        match self.workload {
            Workload::UniformRead => {
                let fresh = workloads::uniform_fixed(batch, 64, mix(self.seed, 16 + cycle, 0));
                let mut rng = self.rng(cycle, 2);
                let bits = self.sizes.subtree_bits;
                let mut all: Vec<u64> = (0..1u64 << bits).collect();
                for i in (1..all.len()).rev() {
                    all.swap(i, rng.gen_range(0..=i));
                }
                let prefixes = all[..self.sizes.subtree_prefixes]
                    .iter()
                    .map(|&v| BitStr::from_u64(v, bits))
                    .collect();
                vec![
                    step(OpKind::Lcp, fresh),
                    step(OpKind::Get, self.drawn_uniformly(stored, cycle, 1)),
                    step(OpKind::Subtree, prefixes),
                ]
            }
            Workload::UrlZipfCompact => {
                let mut rng = self.rng(cycle, 0);
                let lcp = (0..batch)
                    .map(|i| {
                        let mut q = self.drawn_zipf(stored, &mut rng);
                        if i % 2 == 1 {
                            // near-miss: leaves the stored key in its last byte
                            q.truncate(q.len().saturating_sub(8));
                            q.push_chunk(rng.gen::<u64>(), 16);
                        }
                        q
                    })
                    .collect();
                let mut rng = self.rng(cycle, 1);
                let get = (0..batch)
                    .map(|_| self.drawn_zipf(stored, &mut rng))
                    .collect();
                vec![step(OpKind::Lcp, lcp), step(OpKind::Get, get)]
            }
            Workload::WriteChurn => {
                let mut fresh =
                    workloads::uniform_var(batch, 32, 256, mix(self.seed, 16 + cycle, 0));
                fresh.sort();
                fresh.dedup();
                vec![
                    step(OpKind::Insert, fresh.clone()),
                    step(OpKind::Get, fresh.clone()),
                    step(OpKind::Delete, fresh),
                    step(OpKind::Get, self.drawn_uniformly(stored, cycle, 1)),
                ]
            }
            Workload::ServeMixed => unreachable!("serve-mixed is not a batch workload"),
        }
    }
}

/// Outside timings of the layers under one op, taken just before it on
/// unchanged state.
struct Probe {
    hash_ns: f64,
    query_build_ns: f64,
    unique: usize,
    match_ns: f64,
    stats: MatchStats,
}

/// What one executed step measured.
struct StepSample {
    kind: OpKind,
    keys: u64,
    /// keys served; for subtree, keys returned
    ops: u64,
    ns: f64,
    delta: MetricsDelta,
    probe: Option<Probe>,
    seq_lcp_ns: f64,
}

/// The index under test beside its oracle, with the failure tally.
struct Engine<'a> {
    index: PimTrie,
    oracle: Trie,
    spans: &'a mut Spans,
    hasher: PolyHasher,
    attempted: u64,
    failed: u64,
}

impl<'a> Engine<'a> {
    /// The engine over a finished set-up with its oracle built and the
    /// warm-up cycles (cycles `0..warmup_cycles`) already run; also the
    /// cycle generator and the stored keys.
    fn warmed_up(
        args: &RunArgs,
        sizes: Sizes,
        setup: Setup,
        spans: &'a mut Spans,
    ) -> (Engine<'a>, CycleGen, Vec<BitStr>) {
        let gen = CycleGen::new(args.workload, args.seed, sizes, setup.keys.len());
        let stored = setup.keys;
        let mut eng = Engine {
            oracle: oracle_of(&stored),
            index: setup.index,
            spans,
            hasher: PolyHasher::with_seed(args.seed),
            attempted: 0,
            failed: 0,
        };
        for c in 0..sizes.warmup_cycles as u64 {
            eng.cycle(&gen, &stored, c, false);
        }
        (eng, gen, stored)
    }

    /// Run one step: probes (if asked), the timed op, then the oracle
    /// check outside the timed region.
    fn exec(&mut self, cycle: u64, step: &Step, probe: bool) -> StepSample {
        let keys = &step.keys;
        let probe = (probe && step.kind != OpKind::Subtree).then(|| self.probe(cycle, keys));
        let snap = self.index.system().metrics().snapshot();
        let index = &mut self.index;
        let spans = &mut *self.spans;
        let mut seq_lcp_ns = 0.0;
        self.attempted += keys.len() as u64;
        let (ops, ns, bad) = match step.kind {
            OpKind::Lcp => {
                let (got, ns) = spans.timed("op.lcp", cycle, || index.try_lcp_batch(keys));
                let oracle = &self.oracle;
                let (want, seq_ns) = spans.timed("oracle.seq_lcp", cycle, || {
                    keys.iter()
                        .map(|q| oracle.lcp(q.as_slice()).lcp_bits)
                        .collect::<Vec<_>>()
                });
                seq_lcp_ns = seq_ns;
                (keys.len(), ns, mismatches(got.ok(), &want))
            }
            OpKind::Get => {
                let (got, ns) = spans.timed("op.get", cycle, || index.try_get_batch(keys));
                let want: Vec<Option<u64>> =
                    keys.iter().map(|k| self.oracle.get(k.as_slice())).collect();
                (keys.len(), ns, mismatches(got.ok(), &want))
            }
            OpKind::Insert => {
                let values: Vec<u64> = (0..keys.len() as u64).map(|i| cycle << 32 | i).collect();
                let (got, ns) =
                    spans.timed("op.insert", cycle, || index.try_insert_batch(keys, &values));
                for (k, v) in keys.iter().zip(&values) {
                    self.oracle.insert(k, *v);
                }
                (keys.len(), ns, if got.is_ok() { 0 } else { keys.len() })
            }
            OpKind::Delete => {
                let (got, ns) = spans.timed("op.delete", cycle, || index.try_delete_batch(keys));
                let want = keys
                    .iter()
                    .filter(|k| self.oracle.delete(k.as_slice()).is_some())
                    .count();
                (keys.len(), ns, got.map_or(keys.len(), |n| n.abs_diff(want)))
            }
            OpKind::Subtree => {
                let (got, ns) = spans.timed("op.subtree", cycle, || index.try_subtree_batch(keys));
                let mut returned = 0;
                let bad = match got {
                    Err(_) => keys.len(),
                    Ok(subs) => keys
                        .iter()
                        .zip(subs)
                        .filter(|(prefix, sub)| {
                            returned += sub.as_ref().map_or(0, Trie::n_keys);
                            let want = self.oracle.subtree(prefix.as_slice());
                            sorted_items(sub.as_ref()) != sorted_items(want.as_ref())
                        })
                        .count(),
                };
                (returned, ns, bad)
            }
        };
        self.failed += bad as u64;
        StepSample {
            kind: step.kind,
            keys: keys.len() as u64,
            ops: ops as u64,
            ns,
            delta: self.index.system().metrics().since(&snap),
            probe,
            seq_lcp_ns,
        }
    }

    fn probe(&mut self, cycle: u64, keys: &[BitStr]) -> Probe {
        let hasher = &self.hasher;
        let (_, hash_ns) = self.spans.timed("probe.hash", cycle, || {
            for k in keys {
                black_box(hasher.hash_str(k));
            }
        });
        let (qt, query_build_ns) = self
            .spans
            .timed("probe.query_build", cycle, || QueryTrie::build(keys));
        let index = &mut self.index;
        let (matched, match_ns) = self
            .spans
            .timed("probe.match", cycle, || index.match_batch(keys));
        Probe {
            hash_ns,
            query_build_ns,
            unique: qt.trie.n_keys(),
            match_ns,
            stats: matched.map(|m| m.stats).unwrap_or_default(),
        }
    }

    /// Run every step of one cycle inside a `cycle` span.
    fn cycle(
        &mut self,
        gen: &CycleGen,
        stored: &[BitStr],
        cycle: u64,
        probe: bool,
    ) -> Vec<StepSample> {
        let steps = gen.steps(cycle, stored);
        let span = self.spans.begin("cycle", cycle);
        let samples = steps.iter().map(|s| self.exec(cycle, s, probe)).collect();
        self.spans.end(span);
        samples
    }

    /// End-of-run invariants; each breach counts as a failed op.
    fn audit(&mut self) -> u64 {
        let mut issues = self.index.audit_debug().len() as u64;
        issues += u64::from(self.index.count_keys_debug() != self.index.len());
        issues += u64::from(self.index.len() != self.oracle.n_keys());
        self.attempted += 1;
        self.failed += issues;
        issues
    }
}

fn mismatches<T: PartialEq>(got: Option<Vec<T>>, want: &[T]) -> usize {
    match got {
        Some(got) if got.len() == want.len() => {
            got.iter().zip(want).filter(|(g, w)| g != w).count()
        }
        _ => want.len(),
    }
}

fn sorted_items(t: Option<&Trie>) -> Vec<(BitStr, u64)> {
    let mut items = t.map(Trie::items).unwrap_or_default();
    items.sort();
    items
}

/// ops ÷ host seconds of one cycle's timed calls.
fn cycle_rate(samples: &[StepSample]) -> f64 {
    let ops: u64 = samples.iter().map(|s| s.ops).sum();
    let ns: f64 = samples.iter().map(|s| s.ns).sum();
    ops as f64 / (ns / 1e9)
}

fn sim_sum(cycles: &[Vec<StepSample>]) -> SimSum {
    let mut sum = SimSum::default();
    for s in cycles.iter().flatten() {
        sum.add(&s.delta, s.ops, 1);
    }
    sum
}

/// Per-op host summary for the printed report: median rate, the tail
/// of per-batch time, and the sample count.
fn per_op_notes(cycles: &[Vec<StepSample>]) -> Json {
    let mut rows = Vec::new();
    for kind in OpKind::ALL {
        let of_kind: Vec<&StepSample> =
            cycles.iter().flatten().filter(|s| s.kind == kind).collect();
        if of_kind.is_empty() {
            continue;
        }
        let rates: Vec<f64> = of_kind
            .iter()
            .map(|s| s.ops as f64 / (s.ns / 1e9))
            .collect();
        let batch_ms: Vec<f64> = of_kind.iter().map(|s| s.ns / 1e6).collect();
        let mut row = vec![
            ("ops_per_s", Json::num(median(&rates))),
            ("batch_ms_p50", Json::num(median(&batch_ms))),
            ("samples", Json::num(of_kind.len() as f64)),
        ];
        if let Some((pct, ms)) = tail(&batch_ms) {
            row.push(("tail_percentile", Json::num(pct)));
            row.push(("batch_ms_tail", Json::num(ms)));
        }
        rows.push((kind.label().to_string(), Json::obj(row)));
    }
    Json::Obj(rows)
}

/// Run a batch workload with tracing off: the end-to-end metrics.
pub fn run_untraced(args: &RunArgs, spans: &mut Spans) -> Measured {
    let sizes = Sizes::of(args.workload, args.scale);
    let (setup, setup_secs) = Setup::repeat(args.workload, sizes.n, args.seed, sizes.setups, spans);
    let space_per_key = setup.index.space_words() as f64 / setup.index.len() as f64;
    let (mut eng, gen, stored) = Engine::warmed_up(args, sizes, setup, spans);
    let warmup = sizes.warmup_cycles as u64;

    // Measure for `--seconds`, but never fewer than the counted cycles
    // the simulated metrics are summed over.
    let started = Instant::now();
    let mut cycles: Vec<Vec<StepSample>> = Vec::new();
    while cycles.len() < sizes.counted_cycles || started.elapsed().as_secs_f64() < args.seconds {
        cycles.push(eng.cycle(&gen, &stored, warmup + cycles.len() as u64, false));
    }
    eng.audit();

    let sim = sim_sum(&cycles[..sizes.counted_cycles]);
    let rates: Vec<f64> = cycles.iter().map(|c| cycle_rate(c)).collect();
    let mut m = Measured::end_to_end(
        eng.attempted,
        eng.failed,
        &setup_secs,
        &rates,
        &sim,
        space_per_key,
    );
    m.note("per_op", per_op_notes(&cycles));
    m
}

/// Run a batch workload traced: the per-layer metrics.
///
/// The counted cycles run with the simulator's tracer on and nothing
/// else added, so their `sim_*` sums equal the untraced run's exactly.
/// The layer probes come after, on the continued schedule: a
/// `match_batch` call draws from the index's placement RNG, so probing
/// inside the counted cycles would shift later ops' per-module traffic.
pub fn run_traced(args: &RunArgs, spans: &mut Spans) -> Measured {
    let w = args.workload;
    let sizes = Sizes::of(w, args.scale);
    let setup = Setup::run(w, sizes.n, args.seed, spans);
    let mut m = Measured::new(0, 0);
    setup.set_build_metrics(&mut m);
    let (mut eng, gen, stored) = Engine::warmed_up(args, sizes, setup, spans);
    let warmup = sizes.warmup_cycles as u64;

    let started = Instant::now();
    let codec_before = eng.index.codec_stats().clone();
    eng.index.enable_tracing();
    let traced: Vec<Vec<StepSample>> = (0..sizes.counted_cycles as u64)
        .map(|c| eng.cycle(&gen, &stored, warmup + c, false))
        .collect();
    let tracer = eng.index.system_mut().metrics_mut().take_tracer();
    let codec_after = eng.index.codec_stats().clone();

    // Tracer off, probes before each op; the ops of these cycles are
    // also the untraced reference for the tracing overhead.
    let mut probed: Vec<Vec<StepSample>> = Vec::new();
    let mut next = warmup + traced.len() as u64;
    while probed.len() < sizes.counted_cycles || started.elapsed().as_secs_f64() < args.seconds {
        probed.push(eng.cycle(&gen, &stored, next, true));
        next += 1;
    }
    let audit_issues = eng.audit();

    m.set("core.audit_issues", audit_issues as f64);

    // Host time per layer, from the probed cycles.
    let with_probe: Vec<(&StepSample, &Probe)> = probed
        .iter()
        .flatten()
        .filter_map(|s| s.probe.as_ref().map(|p| (s, p)))
        .collect();
    let per_key = |kind: Option<OpKind>, f: &dyn Fn(&StepSample, &Probe) -> f64| {
        let v: Vec<f64> = with_probe
            .iter()
            .filter(|(s, _)| kind.is_none_or(|k| s.kind == k))
            .map(|(s, p)| f(s, p) / s.keys as f64)
            .collect();
        median(&v)
    };
    m.set("bitstr.hash_ns_per_key", per_key(None, &|_, p| p.hash_ns));
    m.set(
        "trie.query_build_ns_per_key",
        per_key(None, &|_, p| p.query_build_ns),
    );
    // unique keys "per key" is the unique fraction
    m.set(
        "trie.query_unique_frac",
        per_key(None, &|_, p| p.unique as f64),
    );
    m.set("core.match_ns_per_key", per_key(None, &|_, p| p.match_ns));
    let probed_keys: u64 = with_probe.iter().map(|(s, _)| s.keys).sum();
    let total = |f: &dyn Fn(&MatchStats) -> u64| {
        with_probe.iter().map(|(_, p)| f(&p.stats)).sum::<u64>() as f64
    };
    m.set(
        "core.match_pushes_per_key",
        ratio(total(&|s| s.pushes), probed_keys as f64),
    );
    m.set(
        "core.match_pulls_per_key",
        ratio(total(&|s| s.pulls), probed_keys as f64),
    );
    m.set(
        "core.match_descend_rounds_per_batch",
        ratio(total(&|s| s.descend_rounds), with_probe.len() as f64),
    );
    m.set("core.match_redo_paths", total(&|s| s.redo_paths));
    for kind in [OpKind::Lcp, OpKind::Get, OpKind::Insert, OpKind::Delete] {
        if !with_probe.iter().any(|(s, _)| s.kind == kind) {
            continue;
        }
        let label = kind.label();
        m.set(
            &format!("core.{label}_ns_per_key"),
            per_key(Some(kind), &|s, _| s.ns),
        );
        m.set(
            &format!("core.{label}_post_match_ns_per_key"),
            per_key(Some(kind), &|s, p| s.ns - p.match_ns),
        );
    }
    let of_kind = |cycles: &[Vec<StepSample>], kind: OpKind, f: &dyn Fn(&StepSample) -> f64| {
        let v: Vec<f64> = cycles
            .iter()
            .flatten()
            .filter(|s| s.kind == kind)
            .map(f)
            .collect();
        median(&v)
    };
    m.set(
        "core.match_share_of_lcp",
        ratio(
            per_key(Some(OpKind::Lcp), &|_, p| p.match_ns),
            per_key(Some(OpKind::Lcp), &|s, _| s.ns),
        ),
    );
    m.set(
        "trie.seq_lcp_ns_per_key",
        of_kind(&probed, OpKind::Lcp, &|s| s.seq_lcp_ns / s.keys as f64),
    );
    m.set(
        "core.subtree_ns_per_returned_key",
        of_kind(&probed, OpKind::Subtree, &|s| s.ns / s.ops.max(1) as f64),
    );
    // get after churn: last third of the counted cycles over the first
    let third = (traced.len() / 3).max(1);
    let get_ns =
        |cycles: &[Vec<StepSample>]| of_kind(cycles, OpKind::Get, &|s| s.ns / s.keys as f64);
    m.set(
        "core.get_after_churn_ratio",
        ratio(
            get_ns(&traced[traced.len() - third..]),
            get_ns(&traced[..third]),
        ),
    );
    m.set(
        "trace.overhead_pct",
        100.0 * (ratio(pooled_ns_per_op(&traced), pooled_ns_per_op(&probed)) - 1.0),
    );

    // Simulated counters, exact: the summed deltas (which must equal
    // the untraced run's `sim_*`) and the tracer's per-op/phase split.
    let sim = sim_sum(&traced);
    sim.set_metrics(&mut m, "trace.");
    let mut denominators = [(0u64, 0u64); 5];
    for s in traced.iter().flatten() {
        denominators[s.kind.idx()].0 += s.ops;
        denominators[s.kind.idx()].1 += 1;
    }
    let mut totals = PhaseTotals::default();
    if let Some(t) = tracer {
        totals.add(&t.phase_summaries());
    }
    // the tracer's op spans and the metrics deltas must account for
    // the same words
    let traced_words = totals.set_metrics(&mut m, &denominators);
    m.attempted += 1;
    m.failed += u64::from(traced_words != sim.io_per_module.iter().sum::<u64>());

    let frames = codec_after.frames - codec_before.frames;
    let encoded = codec_after.encoded_words - codec_before.encoded_words;
    let plain = codec_after.plain_words - codec_before.plain_words;
    m.set(
        "codec.encoded_over_plain",
        ratio(encoded as f64, plain as f64),
    );
    m.set("codec.frames_per_op", ratio(frames as f64, sim.ops as f64));

    // Probes on the side: scaling in threads and in n, on lcp batches.
    let lcp_batch = |g: &CycleGen, stored: &[BitStr], c: u64| {
        g.steps(c, stored)
            .into_iter()
            .find(|s| s.kind == OpKind::Lcp)
    };
    if lcp_batch(&gen, &stored, next).is_some() {
        let reps = sizes.counted_cycles.min(8) as u64;
        let lcp_ns = |index: &mut PimTrie, g: &CycleGen, stored: &[BitStr], spans: &mut Spans| {
            let v: Vec<f64> = (0..reps)
                .filter_map(|i| lcp_batch(g, stored, next + i))
                .map(|s| {
                    let (r, ns) = spans.timed("probe.lcp", 0, || index.try_lcp_batch(&s.keys));
                    black_box(r.is_ok());
                    ns / s.keys.len() as f64
                })
                .collect();
            median(&v)
        };
        let one = pim_trie::with_threads(1, || lcp_ns(&mut eng.index, &gen, &stored, eng.spans));
        let two = pim_trie::with_threads(2, || lcp_ns(&mut eng.index, &gen, &stored, eng.spans));
        m.set("threads.lcp_speedup_t2", ratio(one, two));

        let small_keys = &stored[..stored.len() / 8];
        let small_gen = CycleGen::new(w, args.seed, sizes, small_keys.len());
        let values: Vec<u64> = (0..small_keys.len() as u64).collect();
        let mut small = PimTrie::build(config(w, args.seed), small_keys, &values);
        let at_small = lcp_ns(&mut small, &small_gen, small_keys, eng.spans);
        let at_n = lcp_ns(&mut eng.index, &gen, &stored, eng.spans);
        m.set("core.lcp_n_scaling", ratio(at_n, at_small));
    }
    layers::microbench(&mut m, &stored[..sizes.batch.min(stored.len())], eng.spans);

    m.attempted += eng.attempted;
    m.failed += eng.failed;
    m.note("traced_cycles", Json::num(traced.len() as f64));
    m.note("probed_cycles", Json::num(probed.len() as f64));
    m
}

fn pooled_ns_per_op(cycles: &[Vec<StepSample>]) -> f64 {
    median(
        &cycles
            .iter()
            .map(|c| 1e9 / cycle_rate(c))
            .collect::<Vec<_>>(),
    )
}
