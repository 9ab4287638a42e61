//! Distributed x-fast trie (Table 1, row 2).
//!
//! Fixed 64-bit integer keys. Every prefix of every stored key lives in a
//! per-level hash table; tables are distributed by hashing `(level,
//! prefix)` to a uniformly random module (the "PIM hash table" adaptation
//! of \[30\] the paper describes). A batch LCP/longest-prefix query binary
//! searches the levels: `O(log w)` BSP rounds, one table probe per query
//! per round. Inserts write all `w` prefixes: `O(w)` messages per key and
//! `O(n·w)` total space — exactly the costs Table 1 charges this design.

use pim_sim::{PimSystem, Scatter, Wire};
use std::collections::BTreeMap;

/// Module-local state: a shard of the per-level prefix tables.
pub struct XFastModule {
    /// (level, prefix) present?
    table: BTreeMap<(u8, u64), ()>,
}

/// The distributed x-fast trie (host handle).
pub struct DistXFastTrie {
    sys: PimSystem<XFastModule>,
    width: u32,
    n_keys: usize,
    /// placement salt: module of (level, prefix)
    salt: u64,
}

fn place(p: usize, salt: u64, level: u8, prefix: u64) -> usize {
    // splitmix-style mix of (level, prefix, salt)
    let mut z = prefix ^ salt ^ ((level as u64) << 56);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as usize % p
}

struct Probe {
    level: u8,
    prefix: u64,
}

impl Wire for Probe {
    fn wire_words(&self) -> u64 {
        1
    }
}

impl DistXFastTrie {
    /// Empty trie over `width`-bit integers on `p` modules.
    pub fn new(p: usize, width: u32, salt: u64) -> Self {
        assert!((1..=64).contains(&width));
        DistXFastTrie {
            sys: PimSystem::new(p, |_| XFastModule {
                table: BTreeMap::new(),
            }),
            width,
            n_keys: 0,
            salt,
        }
    }

    /// Build and bulk-insert.
    pub fn build(p: usize, width: u32, salt: u64, keys: &[u64]) -> Self {
        let mut t = Self::new(p, width, salt);
        t.insert_batch(keys);
        t
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.n_keys
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.n_keys == 0
    }

    /// The simulator (metrics).
    pub fn system(&self) -> &PimSystem<XFastModule> {
        &self.sys
    }

    /// Mutable simulator access.
    pub fn system_mut(&mut self) -> &mut PimSystem<XFastModule> {
        &mut self.sys
    }

    /// Space across modules in words (one word per table entry — the
    /// `O(n·w)` cost Table 1 charges).
    pub fn space_words(&self) -> u64 {
        self.sys.modules().map(|m| m.table.len() as u64 * 2).sum()
    }

    fn prefix(&self, x: u64, level: u8) -> u64 {
        if level == 0 {
            0
        } else {
            x >> (self.width - level as u32)
        }
    }

    /// Insert a batch: every key writes one entry per level — `O(w)` words
    /// per key, the Table 1 insert cost.
    pub fn insert_batch(&mut self, keys: &[u64]) {
        crate::traced(
            self,
            |s| s.sys.metrics_mut(),
            "insert",
            "level-tables",
            |s| s.insert_batch_inner(keys),
        )
    }

    fn insert_batch_inner(&mut self, keys: &[u64]) {
        let p = self.sys.p();
        let mut out = Scatter::new(p);
        for &x in keys {
            for level in 0..=self.width as u8 {
                let prefix = self.prefix(x, level);
                out.push(
                    place(p, self.salt, level, prefix),
                    (),
                    Probe { level, prefix },
                );
            }
        }
        let replies = self
            .sys
            .round("xfast.insert", out.take_boxes(), |ctx, msgs| {
                let mut fresh = 0u64;
                ctx.work(msgs.len() as u64);
                for m in msgs {
                    if ctx.state.table.insert((m.level, m.prefix), ()).is_none()
                        && m.level as u32 == 64
                    {
                        fresh += 1;
                    }
                }
                vec![fresh]
            });
        // count distinct new full keys (level == width entries)
        if self.width == 64 {
            self.n_keys += replies.iter().flatten().sum::<u64>() as usize;
        } else {
            // recount via full-level probes is overkill; track via a host
            // set-free approximation: issue a count round
            let w = self.width as u8;
            let counts = self.sys.gather("xfast.count", |ctx| {
                vec![ctx.state.table.keys().filter(|(l, _)| *l == w).count() as u64]
            });
            self.n_keys = counts.iter().flatten().sum::<u64>() as usize;
        }
    }

    /// Batch longest-common-prefix lengths against the stored key set —
    /// the x-fast binary search over levels, `O(log w)` BSP rounds for the
    /// whole batch.
    pub fn lcp_batch(&mut self, queries: &[u64]) -> Vec<usize> {
        crate::traced(
            self,
            |s| s.sys.metrics_mut(),
            "lcp",
            "binary-search",
            |s| s.lcp_batch_inner(queries),
        )
    }

    fn lcp_batch_inner(&mut self, queries: &[u64]) -> Vec<usize> {
        let p = self.sys.p();
        let n = queries.len();
        if n == 0 {
            return Vec::new();
        }
        // per-query binary search interval [lo, hi] over levels; invariant:
        // prefix at `lo` is present (level 0 always matches once nonempty)
        let mut lo = vec![0u8; n];
        let mut hi = vec![self.width as u8; n];
        if self.n_keys == 0 {
            return vec![0; n];
        }
        while (0..n).any(|i| lo[i] < hi[i]) {
            let mut sent = Scatter::new(p);
            for i in 0..n {
                if lo[i] >= hi[i] {
                    continue;
                }
                let mid = (lo[i] + hi[i]).div_ceil(2);
                let prefix = self.prefix(queries[i], mid);
                let m = place(p, self.salt, mid, prefix);
                sent.push(m, i, Probe { level: mid, prefix });
            }
            let replies = self
                .sys
                .round("xfast.probe", sent.take_boxes(), |ctx, msgs| {
                    ctx.work(msgs.len() as u64);
                    msgs.into_iter()
                        .map(|m| ctx.state.table.contains_key(&(m.level, m.prefix)))
                        .collect::<Vec<bool>>()
                });
            for (_, i, hit) in crate::gathered(sent, replies) {
                let mid = (lo[i] + hi[i]).div_ceil(2);
                if hit {
                    lo[i] = mid;
                } else {
                    hi[i] = mid - 1;
                }
            }
        }
        lo.into_iter().map(|l| l as usize).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn lcp_bits(a: u64, b: u64, w: u32) -> usize {
        (((a ^ b) << (64 - w)).leading_zeros() as usize).min(w as usize)
    }

    #[test]
    fn lcp_matches_brute_force() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for width in [16u32, 64] {
            let lim = if width == 64 {
                u64::MAX
            } else {
                (1 << width) - 1
            };
            let keys: Vec<u64> = (0..300).map(|_| rng.gen_range(0..=lim)).collect();
            let mut t = DistXFastTrie::build(8, width, 11, &keys);
            let queries: Vec<u64> = (0..200).map(|_| rng.gen_range(0..=lim)).collect();
            let got = t.lcp_batch(&queries);
            for (q, g) in queries.iter().zip(got) {
                let want = keys.iter().map(|k| lcp_bits(*q, *k, width)).max().unwrap();
                assert_eq!(g, want, "width {width} query {q:#x}");
            }
        }
    }

    #[test]
    fn rounds_are_logarithmic_in_width() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let keys: Vec<u64> = (0..500).map(|_| rng.gen()).collect();
        let mut t = DistXFastTrie::build(8, 64, 13, &keys);
        let queries: Vec<u64> = (0..500).map(|_| rng.gen()).collect();
        let snap = t.system().metrics().snapshot();
        let _ = t.lcp_batch(&queries);
        let d = t.system().metrics().since(&snap);
        // log2(64) = 6 rounds of probes (+1 slack)
        assert!(d.io_rounds <= 8, "too many rounds: {}", d.io_rounds);
    }

    #[test]
    fn insert_cost_is_linear_in_width() {
        // Table 1: O(l) words per insert for the x-fast design
        let keys: Vec<u64> = (0..100u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut t = DistXFastTrie::new(4, 64, 17);
        let snap = t.system().metrics().snapshot();
        t.insert_batch(&keys);
        let d = t.system().metrics().since(&snap);
        let per_key = d.io_volume() as f64 / keys.len() as f64;
        assert!(
            per_key >= 64.0,
            "insert volume should be ~w words/key, got {per_key:.1}"
        );
    }

    #[test]
    fn space_is_n_times_w() {
        let keys: Vec<u64> = (0..256).map(|i| i << 32 | i).collect();
        let t = DistXFastTrie::build(4, 64, 19, &keys);
        let space = t.space_words();
        assert!(
            space as usize >= keys.len() * 32,
            "space {space} should be Θ(n·w)"
        );
    }

    #[test]
    fn empty_and_duplicates() {
        let mut t = DistXFastTrie::new(4, 64, 23);
        assert_eq!(t.lcp_batch(&[5]), vec![0]);
        t.insert_batch(&[7, 7, 7]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lcp_batch(&[7]), vec![64]);
    }

    #[test]
    fn lcp_on_an_empty_trie_closes_its_span() {
        let mut t = DistXFastTrie::new(4, 64, 29);
        t.system_mut().metrics_mut().enable_tracing();
        // the early return for a trie with no keys
        assert_eq!(t.lcp_batch(&[5, 6]), vec![0, 0]);
        let tracer = t.system().metrics().tracer().expect("tracing on");
        assert_eq!(tracer.current_op(), "-");
        assert!(tracer.events().is_empty());
    }
}
