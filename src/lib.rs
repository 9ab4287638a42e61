//! Facade crate for the PIM-trie reproduction workspace.
//!
//! Re-exports every member crate under one roof so that the workspace-level
//! integration tests (`tests/`) and runnable examples (`examples/`) can use a
//! single dependency. Library users should depend on the individual crates
//! (`pim-trie`, `pimtrie-sim`, ...) directly.

pub use baselines;
pub use bitstr;
pub use pim_sim;
pub use pim_trie;
pub use trie_core;
pub use workloads;
