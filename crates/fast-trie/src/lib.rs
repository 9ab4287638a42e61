//! Fast tries: hash-assisted tries with query cost logarithmic in the key
//! length (paper §3.1) plus the two-layer index of §4.4.2.
//!
//! * [`XFastTrie`] — Willard's x-fast trie over fixed-width integers:
//!   per-level prefix hash tables + a sorted leaf list give
//!   `O(log w)` predecessor/successor via binary search on prefix lengths,
//!   at `O(n·w)` space and `O(w)` update cost.
//! * [`YFastTrie`] — x-fast over `Θ(w)`-sized buckets of a comparison-based
//!   structure: `O(n)` space, `O(log w)` queries, amortised `O(log w)`
//!   updates.
//! * [`RemIndex`] — the paper's second-layer index per meta-block
//!   (§4.4.2, Figure 5): a set of strings shorter than `w` bits, each
//!   padded with 0s and 1s into the y-fast trie, plus per-integer
//!   *validity vectors*; a query returns the stored string with the
//!   longest LCP such that no equally-matching stored string is a proper
//!   prefix of it — i.e. the critical block root or one of its direct
//!   children. `pim_trie`'s own second layer is an exact sorted search
//!   (`pim_trie::hvm`); this one is the reference its tests compare to.

#![warn(missing_docs)]

mod rem_index;
mod xfast;
mod yfast;

pub use rem_index::RemIndex;
pub use xfast::XFastTrie;
pub use yfast::YFastTrie;
