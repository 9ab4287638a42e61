//! Range-partitioned index (paper §3.2) — the skew strawman.
//!
//! The key space is cut at `P−1` separator keys held in the CPU cache;
//! module `i` owns the `i`-th range as a plain local trie. A query costs
//! `O(1)` communication: the CPU binary-searches the separators locally
//! and ships the query to the owning module (plus its neighbour, because a
//! bit-LCP answer can sit on either side of a separator).
//!
//! The failure mode the paper calls out: *adversarial* batches aim every
//! query into one range, so a single module receives the whole batch —
//! `io_balance → P` — while PIM-trie stays flat. The skew experiments
//! measure exactly that.

use bitstr::BitStr;
use pim_sim::{words_for_bits, PimSystem, Scatter, Wire};
use trie_core::{Trie, Value};

/// Module-local state: the local trie of one key range.
pub struct RangeModule {
    trie: Trie,
}

struct QueryMsg(BitStr);

impl Wire for QueryMsg {
    fn wire_words(&self) -> u64 {
        1 + words_for_bits(self.0.len())
    }
}

struct InsertMsg(BitStr, Value);

impl Wire for InsertMsg {
    fn wire_words(&self) -> u64 {
        2 + words_for_bits(self.0.len())
    }
}

/// The range-partitioned index (host handle).
pub struct RangePartitioned {
    sys: PimSystem<RangeModule>,
    /// `P−1` separators kept in CPU cache; range `i` = [sep[i-1], sep[i])
    separators: Vec<BitStr>,
    n_keys: usize,
}

impl RangePartitioned {
    /// Build over `p` modules: separators are the `p`-quantiles of the
    /// *initial* keys (the paper's design has the CPU manage a small
    /// separator set; re-balancing on skewed growth is exactly what the
    /// design lacks).
    pub fn build(p: usize, keys: &[BitStr], values: &[Value]) -> Self {
        assert_eq!(keys.len(), values.len());
        let mut sorted: Vec<&BitStr> = keys.iter().collect();
        sorted.sort();
        sorted.dedup();
        let mut separators = Vec::with_capacity(p.saturating_sub(1));
        for i in 1..p {
            let idx = i * sorted.len() / p;
            if idx < sorted.len() {
                separators.push(sorted[idx].clone());
            }
        }
        separators.dedup();
        let mut t = RangePartitioned {
            sys: PimSystem::new(p, |_| RangeModule { trie: Trie::new() }),
            separators,
            n_keys: 0,
        };
        t.insert_batch(keys, values);
        // Replicate each separator key into the range *below* it so an LCP
        // query needs only its own range's module: the best match is the
        // query's predecessor (in range) or successor (at worst the next
        // separator, now replicated here). One message per query.
        let mut out = Scatter::new(t.sys.p());
        for (i, s) in t.separators.iter().enumerate() {
            out.push(i, (), InsertMsg(s.clone(), 0));
        }
        t.sys
            .round("range.replicate", out.take_boxes(), |ctx, msgs| {
                ctx.work(msgs.len() as u64 * 2);
                for InsertMsg(k, v) in msgs {
                    ctx.state.trie.insert(&k, v);
                }
                Vec::<u64>::new()
            });
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
    pub fn system(&self) -> &PimSystem<RangeModule> {
        &self.sys
    }

    /// Mutable simulator access.
    pub fn system_mut(&mut self) -> &mut PimSystem<RangeModule> {
        &mut self.sys
    }

    /// Space across modules in words.
    pub fn space_words(&self) -> u64 {
        self.sys.modules().map(|m| m.trie.size_words() as u64).sum()
    }

    /// The range a key belongs to (CPU-local binary search, `O(log P)`
    /// cached work — no communication).
    fn range_of(&self, key: &BitStr) -> usize {
        self.separators.partition_point(|s| s <= key)
    }

    /// Insert a batch: each key ships to its range's module only.
    pub fn insert_batch(&mut self, keys: &[BitStr], values: &[Value]) {
        crate::traced(
            self,
            |s| s.sys.metrics_mut(),
            "insert",
            "range-scatter",
            |s| s.insert_batch_inner(keys, values),
        )
    }

    fn insert_batch_inner(&mut self, keys: &[BitStr], values: &[Value]) {
        let mut out = Scatter::new(self.sys.p());
        for (k, v) in keys.iter().zip(values) {
            out.push(self.range_of(k), (), InsertMsg(k.clone(), *v));
        }
        let replies = self
            .sys
            .round("range.insert", out.take_boxes(), |ctx, msgs| {
                ctx.work(msgs.len() as u64 * 2);
                let mut fresh = 0u64;
                for InsertMsg(k, v) in msgs {
                    if ctx.state.trie.insert(&k, v).is_none() {
                        fresh += 1;
                    }
                }
                vec![fresh]
            });
        self.n_keys += replies.iter().flatten().sum::<u64>() as usize;
    }

    /// Batch LCP: each query ships to exactly its range's module (the next
    /// separator is replicated locally, so the answer never crosses a
    /// boundary) — the O(1)-communication design whose skewed batches
    /// serialize on one module.
    pub fn lcp_batch(&mut self, queries: &[BitStr]) -> Vec<usize> {
        crate::traced(
            self,
            |s| s.sys.metrics_mut(),
            "lcp",
            "local-scan",
            |s| s.lcp_batch_inner(queries),
        )
    }

    fn lcp_batch_inner(&mut self, queries: &[BitStr]) -> Vec<usize> {
        let mut sent = Scatter::new(self.sys.p());
        for (i, q) in queries.iter().enumerate() {
            sent.push(self.range_of(q), i, QueryMsg(q.clone()));
        }
        let replies = self.sys.round("range.lcp", sent.take_boxes(), |ctx, msgs| {
            ctx.work(msgs.len() as u64 * 2);
            msgs.into_iter()
                .map(|QueryMsg(q)| ctx.state.trie.lcp(q.as_slice()).lcp_bits as u64)
                .collect::<Vec<u64>>()
        });
        let mut out = vec![0usize; queries.len()];
        for (_, i, r) in crate::gathered(sent, replies) {
            out[i] = out[i].max(r as usize);
        }
        out
    }

    /// Batch exact lookup (single-range shipping).
    pub fn get_batch(&mut self, keys: &[BitStr]) -> Vec<Option<Value>> {
        crate::traced(
            self,
            |s| s.sys.metrics_mut(),
            "get",
            "range-lookup",
            |s| s.get_batch_inner(keys),
        )
    }

    fn get_batch_inner(&mut self, keys: &[BitStr]) -> Vec<Option<Value>> {
        let mut sent = Scatter::new(self.sys.p());
        for (i, k) in keys.iter().enumerate() {
            sent.push(self.range_of(k), i, QueryMsg(k.clone()));
        }
        let replies = self.sys.round("range.get", sent.take_boxes(), |ctx, msgs| {
            ctx.work(msgs.len() as u64 * 2);
            msgs.into_iter()
                .map(|QueryMsg(k)| ctx.state.trie.get(k.as_slice()))
                .collect::<Vec<Option<Value>>>()
        });
        let mut out = vec![None; keys.len()];
        for (_, i, r) in crate::gathered(sent, replies) {
            out[i] = r;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_keys(seed: u64, n: usize, max_len: usize) -> Vec<BitStr> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let len = rng.gen_range(1..max_len);
                BitStr::from_bits((0..len).map(|_| rng.gen_bool(0.5)))
            })
            .collect()
    }

    #[test]
    fn lcp_matches_oracle_single_trie() {
        let keys = random_keys(1, 400, 80);
        let values: Vec<u64> = (0..keys.len() as u64).collect();
        let mut t = RangePartitioned::build(8, &keys, &values);
        let mut oracle = Trie::new();
        for (k, v) in keys.iter().zip(&values) {
            oracle.insert(k, *v);
        }
        assert_eq!(t.len(), oracle.n_keys());
        let queries = random_keys(2, 300, 90);
        for (q, got) in queries.iter().zip(t.lcp_batch(&queries)) {
            assert_eq!(got, oracle.lcp(q.as_slice()).lcp_bits, "query {q}");
        }
        let got = t.get_batch(&keys);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(got[i], oracle.get(k.as_slice()));
        }
    }

    #[test]
    fn uniform_queries_balance() {
        let keys = random_keys(3, 2000, 64);
        let values: Vec<u64> = (0..keys.len() as u64).collect();
        let mut t = RangePartitioned::build(8, &keys, &values);
        let queries = random_keys(4, 2000, 64);
        let snap = t.system().metrics().snapshot();
        let _ = t.lcp_batch(&queries);
        let d = t.system().metrics().since(&snap);
        assert!(
            d.io_balance() < 3.0,
            "uniform should balance, got {:.2}",
            d.io_balance()
        );
    }

    #[test]
    fn adversarial_queries_serialize_one_module() {
        // every query lands in one key range → one module absorbs the batch
        let keys = random_keys(5, 2000, 64);
        let values: Vec<u64> = (0..keys.len() as u64).collect();
        let mut t = RangePartitioned::build(8, &keys, &values);
        // aim at the range of one stored key: extend it with random tails
        let base = keys[100].clone();
        let queries = workloads::same_path_queries(&base, 1000, 16, 6);
        let snap = t.system().metrics().snapshot();
        let _ = t.lcp_batch(&queries);
        let d = t.system().metrics().since(&snap);
        assert!(
            d.io_balance() > 2.0,
            "adversarial batch should imbalance: {:.2}",
            d.io_balance()
        );
    }
}
