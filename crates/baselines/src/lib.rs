//! Baseline PIM indexes from the PIM-trie paper's Table 1 and §3.2/§3.4.
//!
//! Three comparators, each running on the same [`pim_sim::PimSystem`]
//! simulator with the same cost accounting as the PIM-trie itself:
//!
//! * [`DistRadixTree`] — Table 1 row 1: a span-`s` compressed radix tree
//!   whose nodes are hashed uniformly at random to modules; queries chase
//!   pointers level by level, one BSP round per tree level, `O(l/s)` rounds
//!   and words per operation. Random placement gives space balance but
//!   *not* contention balance: queries sharing a path hit the same nodes.
//! * [`DistXFastTrie`] — Table 1 row 2: an x-fast trie for fixed 64-bit
//!   keys whose per-level prefix tables are distributed by hashing
//!   `(level, prefix)` to modules; an LCP/predecessor query binary-searches
//!   the levels in `O(log w)` rounds, but the structure costs `O(n·w)`
//!   space and `O(w)` messages per insert.
//! * [`RangePartitioned`] — §3.2: the key space is split at `P` separator
//!   keys kept on the CPU; each module owns one contiguous range as a
//!   local trie. Constant communication per query — and catastrophic load
//!   imbalance when the adversary aims all queries at one range.

#![warn(missing_docs)]

pub mod dist_radix;
pub mod dist_xfast;
pub mod range_part;

pub use dist_radix::DistRadixTree;
pub use dist_xfast::DistXFastTrie;
pub use range_part::RangePartitioned;

/// Pair a round's replies with the tags of the messages that caused
/// them. The baselines build their own simulator, install no
/// [`pim_sim::FaultPlan`] and answer every message, so a miscount is a
/// bug in this crate (Table 1's comparators have no recovery to fall
/// back on), not a condition to report.
pub(crate) fn gathered<T, M, R>(
    sent: pim_sim::Scatter<T, M>,
    replies: Vec<Vec<R>>,
) -> pim_sim::Scatter<T, R> {
    sent.gather(replies)
        .unwrap_or_else(|e| unreachable!("baseline round: {e}"))
}

/// Run one baseline batch op as a traced span with its single stage
/// (baseline batch ops are one logical phase each, traced as
/// `<op>/<stage>`). With tracing off only `body` runs — the metered
/// counters are untouched either way.
pub(crate) fn traced<S, R>(
    owner: &mut S,
    metrics: impl Fn(&mut S) -> &mut pim_sim::Metrics,
    op: &'static str,
    stage: &'static str,
    body: impl FnOnce(&mut S) -> R,
) -> R {
    pim_sim::in_op(owner, &metrics, op, |s| {
        if let Some(t) = metrics(s).tracer_mut() {
            t.set_phase(stage);
        }
        body(s)
    })
}
