//! Workload generators for the PIM-trie experiments.
//!
//! The paper's adversary controls both the *data* (which keys are stored)
//! and the *queries* (which keys a batch asks about); its claims are that
//! PIM-trie stays load-balanced whp under any such choice, while
//! range-partitioned indexes serialize (§3.2) and randomly-distributed
//! radix trees suffer contention on shared search paths (§3.3). The
//! generators here produce exactly those stress shapes, plus benign
//! baselines:
//!
//! * [`uniform_fixed`] / [`uniform_var`] — benign uniform bit-strings;
//! * [`seq_ints`] — dense sequential integers (deep shared prefixes);
//! * [`zipf_prefixes`] — keys whose high bits follow a Zipf(θ) bucket
//!   distribution: the knob that sweeps benign → skewed;
//! * [`hotspot_chase`] — one hot bucket advancing faster than any fixed
//!   decay half-life, the adversary for *decayed* frequency trackers;
//! * [`shared_prefix`] — the range-partition killer: every key in the batch
//!   falls in one tiny key range;
//! * [`path_chain`] — a degenerate trie: each key extends the previous one,
//!   producing the maximally unbalanced (height `n`) trie;
//! * [`same_path_queries`] — queries that all share one search path
//!   (the paper's "predecessor queries with the same answer" example);
//! * [`genome`] — 2-bit alphabet reads with planted repeats;
//! * [`urls`] — synthetic URL-like ASCII keys with heavy prefix sharing;
//! * [`closed_loop_scripts`] — per-client closed-loop serving scripts
//!   (Zipf key popularity, exponential think times, deadline budgets)
//!   for the `crates/serve` front-end.
//!
//! All generators are deterministic in `seed`.
//!
//! # Paper references
//!
//! Section marks (§x.y) cite the PIM-trie paper (Kang et al.);
//! generators built for one specific experiment close their docs with a
//! `Paper:` line naming the section(s).

// lint: allow-file(float-determinism) — workload generators: the
// zipf/powf draws are seeded and their outputs committed via the
// cost baseline; converting to fixed point would regenerate every
// workload and invalidate all recorded experiment numbers

#![warn(missing_docs)]

mod closed_loop;

pub use closed_loop::{
    closed_loop_scripts, ClientOp, ClientScript, ClosedLoopSpec, ScriptedRequest,
};

use bitstr::BitStr;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn random_bits(rng: &mut ChaCha8Rng, len: usize) -> BitStr {
    let mut s = BitStr::with_capacity(len);
    let mut remaining = len;
    while remaining > 0 {
        let k = remaining.min(64);
        s.push_chunk(rng.gen::<u64>(), k);
        remaining -= k;
    }
    s
}

/// `n` uniform keys of exactly `len` bits (duplicates possible for tiny
/// `len`; callers dedupe if needed).
pub fn uniform_fixed(n: usize, len: usize, seed: u64) -> Vec<BitStr> {
    let mut r = rng(seed);
    (0..n).map(|_| random_bits(&mut r, len)).collect()
}

/// `n` uniform keys of uniform length in `min_len..=max_len`.
pub fn uniform_var(n: usize, min_len: usize, max_len: usize, seed: u64) -> Vec<BitStr> {
    assert!(min_len <= max_len);
    let mut r = rng(seed);
    (0..n)
        .map(|_| {
            let len = r.gen_range(min_len..=max_len);
            random_bits(&mut r, len)
        })
        .collect()
}

/// The integers `start..start+n` as `width`-bit keys — dense sequential
/// data with long shared prefixes.
pub fn seq_ints(n: usize, width: usize, start: u64) -> Vec<BitStr> {
    (0..n as u64)
        .map(|i| BitStr::from_u64(start + i, width))
        .collect()
}

/// A Zipf(θ) sampler over ranks `0..m` (θ = 0 is uniform; θ ≥ 1 is heavy).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precompute the CDF for `m` ranks with exponent `theta`.
    pub fn new(m: usize, theta: f64) -> Self {
        assert!(m > 0);
        let mut cdf = Vec::with_capacity(m);
        let mut acc = 0.0;
        for i in 0..m {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = *cdf.last().unwrap();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Sample a rank.
    pub fn sample(&self, rng: &mut ChaCha8Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// `n` keys of `len` bits whose top `prefix_bits` follow a Zipf(θ)
/// distribution over buckets (bucket ids bit-reversed so hot buckets are
/// spread across the key space like real hot keys), with uniform tails.
/// Paper: §6.1's Zipf query workloads.
pub fn zipf_prefixes(
    n: usize,
    len: usize,
    prefix_bits: usize,
    theta: f64,
    seed: u64,
) -> Vec<BitStr> {
    assert!(prefix_bits <= len && prefix_bits <= 20);
    let zipf = Zipf::new(1 << prefix_bits, theta);
    let mut r = rng(seed);
    (0..n)
        .map(|_| {
            let rank = zipf.sample(&mut r) as u64;
            let bucket = rank.reverse_bits() >> (64 - prefix_bits.max(1));
            let mut s = BitStr::from_u64(bucket, prefix_bits);
            s.append(&random_bits(&mut r, len - prefix_bits).as_slice());
            s
        })
        .collect()
}

/// The adversary for *decayed* frequency trackers: a single hot bucket
/// holds `hot_frac` of the traffic, but it advances to the next bucket
/// every `period` keys — pick `period` below the tracker's decay
/// half-life (in batches × batch size) and the tracker is always
/// chasing a hotspot that has already moved. The remaining
/// `1 - hot_frac` of the keys are uniform over all buckets, so the
/// stream never goes fully degenerate. Tails are uniform; bucket ids
/// are bit-reversed like [`zipf_prefixes`]'s so consecutive hot
/// buckets land in distant parts of the key space.
///
/// Paper: the skew model follows §6.1; the rotation schedule is tuned to
/// outpace op-counter decay rather than merely to move between phases.
pub fn hotspot_chase(
    n: usize,
    len: usize,
    prefix_bits: usize,
    period: usize,
    hot_frac: f64,
    seed: u64,
) -> Vec<BitStr> {
    assert!(prefix_bits <= len && prefix_bits <= 20 && period >= 1);
    assert!((0.0..=1.0).contains(&hot_frac));
    let buckets = 1u64 << prefix_bits;
    let mut r = rng(seed);
    (0..n)
        .map(|i| {
            let hot_bucket = (i / period) as u64 % buckets;
            let rank = if r.gen_bool(hot_frac) {
                hot_bucket
            } else {
                r.gen_range(0..buckets)
            };
            let bucket = rank.reverse_bits() >> (64 - prefix_bits.max(1));
            let mut s = BitStr::from_u64(bucket, prefix_bits);
            s.append(&random_bits(&mut r, len - prefix_bits).as_slice());
            s
        })
        .collect()
}

/// Every key extends one common `prefix_len`-bit prefix — all traffic lands
/// in a single key range, the worst case for range partitioning.
/// Paper: §3.2.
pub fn shared_prefix(n: usize, prefix_len: usize, total_len: usize, seed: u64) -> Vec<BitStr> {
    assert!(prefix_len <= total_len);
    let mut r = rng(seed);
    let prefix = random_bits(&mut r, prefix_len);
    (0..n)
        .map(|_| {
            let mut s = prefix.clone();
            s.append(&random_bits(&mut r, total_len - prefix_len).as_slice());
            s
        })
        .collect()
}

/// A chain of `n` keys where each is a strict extension of the previous
/// one: the stored trie degenerates into a path of height `n·step`.
pub fn path_chain(n: usize, step: usize, seed: u64) -> Vec<BitStr> {
    assert!(step >= 1);
    let mut r = rng(seed);
    let mut cur = BitStr::new();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        cur.append(&random_bits(&mut r, step).as_slice());
        out.push(cur.clone());
    }
    out
}

/// `n` distinct queries that all share the search path of `base` (the
/// paper's "many queries, one answer" contention case): each is `base`
/// extended by a distinct uniform tail.
pub fn same_path_queries(base: &BitStr, n: usize, tail_len: usize, seed: u64) -> Vec<BitStr> {
    let mut r = rng(seed);
    (0..n)
        .map(|i| {
            let mut s = base.clone();
            // distinct counter + random padding for uniqueness
            s.append(&BitStr::from_u64(i as u64, 32).as_slice());
            s.append(&random_bits(&mut r, tail_len).as_slice());
            s
        })
        .collect()
}

/// Genome-like reads: 2 bits per symbol over {A,C,G,T}, with a planted
/// repeat motif occurring at random offsets in `repeat_frac` of the reads —
/// mimics the shared substrings that make suffix structures skewed.
pub fn genome(n: usize, symbols: usize, repeat_frac: f64, seed: u64) -> Vec<BitStr> {
    let mut r = rng(seed);
    let motif = random_bits(&mut r, 2 * (symbols / 3).max(1));
    (0..n)
        .map(|_| {
            if r.gen_bool(repeat_frac) {
                let mut s = motif.clone();
                s.append(&random_bits(&mut r, 2 * symbols - motif.len()).as_slice());
                s
            } else {
                random_bits(&mut r, 2 * symbols)
            }
        })
        .collect()
}

/// Synthetic URL-like ASCII keys: a handful of schemes/domains (heavy
/// shared prefixes) with random paths of varying depth.
pub fn urls(n: usize, seed: u64) -> Vec<BitStr> {
    const DOMAINS: [&str; 6] = [
        "https://example.com/",
        "https://api.example.com/v2/",
        "https://cdn.example.org/assets/",
        "http://mirror.example.net/",
        "https://example.com/user/",
        "https://docs.example.io/",
    ];
    const SEGMENTS: [&str; 8] = [
        "index", "item", "search", "static", "img", "data", "page", "x",
    ];
    let mut r = rng(seed);
    (0..n)
        .map(|i| {
            let mut url = String::from(DOMAINS[r.gen_range(0..DOMAINS.len())]);
            for _ in 0..r.gen_range(1..5) {
                url.push_str(SEGMENTS[r.gen_range(0..SEGMENTS.len())]);
                url.push('/');
            }
            url.push_str(&format!("{i}"));
            BitStr::from_ascii(&url)
        })
        .collect()
}

/// A named workload specification for the bench harness.
#[derive(Clone, Debug)]
pub enum Spec {
    /// Uniform fixed-length keys.
    UniformFixed {
        /// key length in bits
        len: usize,
    },
    /// Uniform variable-length keys.
    UniformVar {
        /// minimum length in bits
        min_len: usize,
        /// maximum length in bits
        max_len: usize,
    },
    /// Sequential integers.
    SeqInts {
        /// key width in bits
        width: usize,
    },
    /// Zipf-skewed prefixes.
    Zipf {
        /// key length in bits
        len: usize,
        /// number of prefix bits forming the bucket id
        prefix_bits: usize,
        /// Zipf exponent
        theta: f64,
    },
    /// One shared prefix.
    SharedPrefix {
        /// shared prefix length in bits
        prefix_len: usize,
        /// total key length in bits
        total_len: usize,
    },
    /// Degenerate path trie.
    PathChain {
        /// bits added per key
        step: usize,
    },
    /// Genome-like reads.
    Genome {
        /// symbols per read (2 bits each)
        symbols: usize,
    },
    /// URL-like ASCII keys.
    Urls,
}

impl Spec {
    /// Generate `n` keys deterministically from `seed`.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<BitStr> {
        match *self {
            Spec::UniformFixed { len } => uniform_fixed(n, len, seed),
            Spec::UniformVar { min_len, max_len } => uniform_var(n, min_len, max_len, seed),
            Spec::SeqInts { width } => seq_ints(n, width, 0),
            Spec::Zipf {
                len,
                prefix_bits,
                theta,
            } => zipf_prefixes(n, len, prefix_bits, theta, seed),
            Spec::SharedPrefix {
                prefix_len,
                total_len,
            } => shared_prefix(n, prefix_len, total_len, seed),
            Spec::PathChain { step } => path_chain(n, step, seed),
            Spec::Genome { symbols } => genome(n, symbols, 0.3, seed),
            Spec::Urls => urls(n, seed),
        }
    }

    /// Short label for report rows.
    pub fn label(&self) -> String {
        match self {
            Spec::UniformFixed { len } => format!("uniform{len}"),
            Spec::UniformVar { min_len, max_len } => format!("var{min_len}-{max_len}"),
            Spec::SeqInts { width } => format!("seq{width}"),
            Spec::Zipf { theta, .. } => format!("zipf{theta}"),
            Spec::SharedPrefix { prefix_len, .. } => format!("shared{prefix_len}"),
            Spec::PathChain { step } => format!("path{step}"),
            Spec::Genome { symbols } => format!("genome{symbols}"),
            Spec::Urls => "urls".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(uniform_fixed(10, 100, 7), uniform_fixed(10, 100, 7));
        assert_ne!(uniform_fixed(10, 100, 7), uniform_fixed(10, 100, 8));
    }

    #[test]
    fn lengths_respected() {
        for k in uniform_var(50, 3, 99, 1) {
            assert!((3..=99).contains(&k.len()));
        }
        for k in uniform_fixed(20, 257, 2) {
            assert_eq!(k.len(), 257);
        }
    }

    #[test]
    fn seq_ints_sorted_and_dense() {
        let keys = seq_ints(100, 32, 5);
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(keys[0].to_u64(), 5);
    }

    #[test]
    fn zipf_skew_concentrates() {
        let z = Zipf::new(1024, 1.2);
        let mut r = rng(3);
        let mut counts = vec![0usize; 1024];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        // rank 0 should dominate rank 512 by a wide margin
        assert!(counts[0] > 50 * counts[512].max(1) / 10);
        // and uniform (θ=0) should not
        let z0 = Zipf::new(1024, 0.0);
        let mut c0 = vec![0usize; 1024];
        for _ in 0..20_000 {
            c0[z0.sample(&mut r)] += 1;
        }
        let max = *c0.iter().max().unwrap();
        assert!(max < 100, "uniform sampler too skewed: {max}");
    }

    #[test]
    fn hotspot_chase_rotates_faster_than_phases() {
        let prefix_bits = 4;
        let period = 256;
        let keys = hotspot_chase(2048, 64, prefix_bits, period, 0.9, 9);
        assert_eq!(keys.len(), 2048);
        // within each period, one bucket dominates; across consecutive
        // periods the dominating bucket differs
        let hottest = |w: usize| -> u64 {
            let mut counts = std::collections::BTreeMap::new();
            for k in &keys[w * period..(w + 1) * period] {
                *counts
                    .entry(k.slice(0..prefix_bits).to_bitstr().to_u64())
                    .or_insert(0usize) += 1;
            }
            let (&b, &c) = counts.iter().max_by_key(|(_, &c)| c).unwrap();
            assert!(c > period / 2, "window {w} not skewed enough: {c}");
            b
        };
        let heads: Vec<u64> = (0..8).map(hottest).collect();
        for w in heads.windows(2) {
            assert_ne!(w[0], w[1], "hot bucket failed to advance: {heads:?}");
        }
        assert_eq!(keys, hotspot_chase(2048, 64, prefix_bits, period, 0.9, 9));
    }

    #[test]
    fn shared_prefix_shares() {
        let keys = shared_prefix(40, 64, 128, 11);
        let p = keys[0].slice(0..64).to_bitstr();
        for k in &keys {
            assert!(k.starts_with(&p));
            assert_eq!(k.len(), 128);
        }
    }

    #[test]
    fn path_chain_is_a_chain() {
        let keys = path_chain(30, 5, 13);
        for w in keys.windows(2) {
            assert!(w[1].starts_with(&w[0]));
            assert_eq!(w[1].len(), w[0].len() + 5);
        }
    }

    #[test]
    fn same_path_queries_distinct_and_share_base() {
        let base = BitStr::from_bin_str("10110");
        let qs = same_path_queries(&base, 50, 16, 17);
        for q in &qs {
            assert!(q.starts_with(&base));
        }
        let set: std::collections::BTreeSet<_> = qs.iter().collect();
        assert_eq!(set.len(), 50);
    }

    #[test]
    fn genome_has_repeats() {
        let reads = genome(200, 30, 0.5, 19);
        let motif_len = 2 * 10;
        let mut with_common = 0;
        for i in 1..reads.len() {
            if reads[0].lcp(&reads[i]) >= motif_len {
                with_common += 1;
            }
        }
        // reads[0] may or may not carry the motif; just require structure
        assert!(reads.iter().all(|x| x.len() == 60));
        let _ = with_common;
    }

    #[test]
    fn urls_are_ascii_prefix_heavy() {
        let keys = urls(100, 23);
        let mut shared = 0;
        for w in keys.windows(2) {
            if w[0].lcp(&w[1]) >= 8 {
                shared += 1;
            }
        }
        assert!(shared > 0);
    }

    #[test]
    fn spec_roundtrip() {
        let spec = Spec::Zipf {
            len: 64,
            prefix_bits: 10,
            theta: 0.99,
        };
        let a = spec.generate(100, 1);
        let b = spec.generate(100, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert_eq!(spec.label(), "zipf0.99");
    }
}
