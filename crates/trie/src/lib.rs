//! Compressed binary tries (Patricia tries) and the tree machinery the
//! PIM-trie builds on.
//!
//! This crate is the *sequential* trie substrate (paper §3.1 and the "Basic
//! Structures and Terminology" part of §4):
//!
//! * [`Trie`] — a binary radix tree with path compression. Only *compressed
//!   nodes* (branching nodes, key endpoints, and the root) are materialised;
//!   the prefixes elided by compression are *hidden nodes*, addressed as an
//!   (edge, offset) pair through [`TriePos`].
//! * [`query`] — batch query-trie construction (Algorithm 1): sort the
//!   batch, take adjacent LCPs, and generate the Patricia trie in one linear
//!   pass.
//! * [`euler`] — Euler tours of a trie, the backbone of the parallel
//!   blocking algorithm.
//! * [`partition`] — the weighted tree-partitioning of §4.2 (base nodes on
//!   weight-prefix-sum boundaries plus LCAs of adjacent base nodes) and the
//!   decomposition of a trie into stand-alone blocks with mirror roots.
//!
//! Everything here runs on the host CPU in the PIM Model; the distributed
//! wrapper lives in the `pim-trie` crate.
//!
//! # Paper references
//!
//! Section marks (§x.y), lemmas and algorithms cite the PIM-trie paper
//! (Kang et al.); items implementing one specific construct close their
//! docs with a `Paper:` line naming the section(s).

#![warn(missing_docs)]

pub mod euler;
pub mod partition;
pub mod query;
mod trie;

pub use trie::{DeleteInfo, InsertInfo, LcpResult, Node, NodeId, Trie, TriePos, Value};
