//! The exact slow path: block-by-block pointer chasing.
//!
//! This is the "Distributed Radix Tree" style descent the paper's fast path
//! avoids — `O(depth / K_B)` rounds per batch instead of `O(log P)` — kept
//! for two jobs:
//!
//! * **verification redo** (§4.4.3): when a hash collision is detected
//!   anywhere along a path, the affected path is recomputed exactly here;
//! * a **correctness oracle** for the test suite and the ablation benches.
//!
//! Each round sends every active query's remaining bits to the module
//! holding its current block; the module walks them bit-exactly and either
//! finishes or hands over the child block behind a mirror leaf.

use crate::error::PimTrieError;
use crate::matching::Anchor;
use crate::module::{Req, Resp};
use crate::refs::{BitsMsg, BlockRef};
use crate::PimTrie;
use bitstr::BitStr;
use pim_sim::Scatter;

/// Exact result of one slow-path descent.
#[derive(Clone, Copy, Debug)]
pub struct SlowResult {
    /// longest common prefix with the stored set, in bits
    pub depth: u64,
    /// data position where matching stopped
    pub anchor: Anchor,
}

impl PimTrie {
    /// Exact LCP + anchor for each query, by block-by-block descent.
    /// `O(max path blocks)` rounds for the whole batch. Panics if fault
    /// recovery gives up; [`PimTrie::try_slow_descend`] reports it instead.
    pub fn slow_descend(&mut self, queries: &[BitStr]) -> Vec<SlowResult> {
        self.try_slow_descend(queries)
            .unwrap_or_else(|e| panic!("slow_descend: {e}"))
    }

    /// Fallible form of [`PimTrie::slow_descend`].
    pub fn try_slow_descend(
        &mut self,
        queries: &[BitStr],
    ) -> Result<Vec<SlowResult>, PimTrieError> {
        self.t_phase("slow-redo");
        let p = self.sys.p();
        struct Active {
            block: BlockRef,
            consumed: u64,
        }
        let root = self.root_block;
        let mut states: Vec<Active> = queries
            .iter()
            .map(|_| Active {
                block: root,
                consumed: 0,
            })
            .collect();
        let mut out: Vec<Option<SlowResult>> = queries.iter().map(|_| None).collect();
        let mut active: Vec<usize> = (0..queries.len()).collect();
        let mut guard = 0;
        while !active.is_empty() {
            guard += 1;
            if guard >= 100_000 {
                return Err(PimTrieError::Protocol(
                    "slowpath: descent did not terminate".into(),
                ));
            }
            let mut step = Scatter::new(p);
            for &qi in &active {
                let st = &states[qi];
                let rest = queries[qi]
                    .slice(st.consumed as usize..queries[qi].len())
                    .to_bitstr();
                let req = Req::DescendBlock {
                    slot: st.block.slot,
                    bits: BitsMsg(rest),
                };
                step.push(st.block.module as usize, qi, req);
            }
            let mut next_active = Vec::new();
            for (m, qi, resp) in self.rounds("slowpath", step)? {
                let Resp::Descend(d) = resp else {
                    return Err(PimTrieError::Protocol(format!(
                        "slowpath: unexpected response variant from module {m}"
                    )));
                };
                states[qi].consumed += d.consumed;
                match d.next {
                    Some(child) => {
                        states[qi].block = child;
                        next_active.push(qi);
                    }
                    None => {
                        out[qi] = Some(SlowResult {
                            depth: states[qi].consumed,
                            anchor: Anchor {
                                block: states[qi].block,
                                node: d.anchor_node,
                                off: d.anchor_off,
                            },
                        });
                    }
                }
            }
            active = next_active;
        }
        out.into_iter()
            .enumerate()
            .map(|(qi, o)| {
                o.ok_or_else(|| {
                    PimTrieError::Protocol(format!("slowpath: query {qi} never completed"))
                })
            })
            .collect()
    }

    /// Exact LCP lengths via the slow path (oracle / baseline).
    pub fn lcp_batch_slow(&mut self, queries: &[BitStr]) -> Vec<usize> {
        self.slow_descend(queries)
            .into_iter()
            .map(|r| r.depth as usize)
            .collect()
    }
}
