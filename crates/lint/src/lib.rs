//! `pimtrie-lint`: workspace-native static analysis for the PIM-trie
//! reproduction.
//!
//! Every bound this workspace validates rests on counters that are
//! *exact functions of (seed, P, workload)*. The toolchain guards most of
//! that: the workspace lints forbid `unsafe` and deny `clippy.toml`'s
//! hash-ordered collections, interior mutability, atomics and clock
//! reads, and `pim_sim::in_op` closes every tracer span it opens. This
//! crate checks what no compiler lint can state — float use on metered
//! paths, stat counters bumped only through the metering API, per-crate
//! panic and waiver budgets, and docs that name only live experiments
//! and wire identifiers — and CI runs it as the `lint-invariants` gate.
//!
//! See [`rules`] for the rule set and the waiver syntax, [`lexer`] for
//! the token model, [`ratchet`] for the panic budget, and [`walk`] for
//! what is scanned. The binary front-end lives in `src/main.rs`
//! (`cargo run -p pimtrie-lint`).

#![warn(missing_docs)]

pub mod analysis;
pub mod lexer;
pub mod parser;
pub mod ratchet;
pub mod report;
pub mod rules;
pub mod walk;
