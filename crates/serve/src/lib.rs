//! Overload-safe multi-client serving front-end for the PIM-trie.
//!
//! The batch API of [`pim_trie::PimTrie`] assumes one caller with one
//! big batch. Real deployments look different: many clients each
//! submit single-key operations and wait for replies. This crate
//! bridges the two worlds with an *epoch coalescer*: client requests
//! enter a bounded queue, a scheduler drains them into epochs, each
//! epoch runs as one batched PIM operation per op class, and per-client
//! replies are scattered back. Three robustness mechanisms ride on top:
//!
//! * **admission control** — the queue is bounded
//!   ([`ServeConfig::queue_cap`]); when it is full the *newest* request
//!   is shed with a typed [`ServeError::Overloaded`] before it is ever
//!   admitted, and an admitted request is never silently dropped: every
//!   one reaches exactly one terminal [`Outcome`];
//! * **deadlines** — each request may carry a budget in simulated PIM
//!   time; the epoch scheduler sheds already-expired requests *before*
//!   dispatching the batch ([`ServeError::DeadlineExceeded`]), so a
//!   backlogged server stops burning rounds on answers nobody is
//!   waiting for;
//! * **per-key failure scoping** — epochs run through the
//!   `try_*_batch_scoped` front-ends, so a module that exhausts its
//!   recovery budget mid-epoch fails only the requests routed through
//!   it ([`ServeError::Failed`]); every other client's reply is
//!   byte-identical to a fault-free run.
//!
//! All serving counters live in [`pim_sim::ServeStats`] (reachable via
//! `Metrics::serve_stats`), and the whole crate follows the repo's
//! determinism contract: outcomes, latencies and counters are exact
//! functions of (trie seed, scripts, config), independent of thread
//! count.
//!
//! An optional [`AlarmBoard`] (from `pim-obs`, re-exported here) can be
//! installed with [`Server::install_alarms`]: the dispatcher evaluates
//! it once per epoch — balance of the epoch's IO window, shed rate,
//! quarantined modules, descent rounds — and surfaces rising-edge
//! firings in [`pim_sim::ServeStats::alarms`]. Evaluation never charges
//! simulated cost, so installing a board changes no other counter.
//!
//! # Example
//!
//! ```
//! use bitstr::BitStr;
//! use pim_trie::{PimTrie, PimTrieConfig};
//! use serve::{Op, Reply, ServeConfig, Server};
//!
//! let mut trie = PimTrie::new(PimTrieConfig::for_modules(4));
//! trie.insert_batch(&[BitStr::from_bin_str("1010")], &[7]);
//! let mut srv = Server::new(trie, ServeConfig::default());
//! let id = srv
//!     .submit(0, 0, Op::Get(BitStr::from_bin_str("1010")), u64::MAX)
//!     .expect("queue has room");
//! srv.step();
//! let (_, outcome) = srv.outcome(id).expect("epoch ran");
//! assert_eq!(*outcome, Ok(Reply::Got(Some(7))));
//! ```

#![warn(missing_docs)]

mod driver;
mod server;

pub use driver::{run_closed_loop, LatencySummary, ServeReport};
pub use obs::{default_board, AlarmBoard, AlarmEvent, AlarmSpec, Threshold};
pub use server::{
    EpochBatch, Op, OpClass, Outcome, PreppedEpoch, Reply, ServeConfig, ServeError, Server,
    OP_CLASSES,
};
