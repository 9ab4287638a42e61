//! A deterministic simulator of the **PIM Model** (Kang et al., SPAA '21),
//! the cost model in which every PIM-trie bound is stated.
//!
//! The model: a host CPU plus `P` PIM modules, each pairing a small local
//! memory with a weak general-purpose processor. Execution proceeds in
//! BSP-style synchronous rounds; in each round the CPU (1) computes locally,
//! (2) writes a buffer to each module, (3) launches the module programs and
//! waits, and (4) reads a buffer back from each module. Modules can only
//! touch their own memory.
//!
//! Measured quantities (paper §2):
//!
//! * **IO rounds** — number of BSP super-steps,
//! * **IO time**   — per round, the *maximum* over modules of words
//!   written + read; summed over rounds,
//! * **IO volume** — total words moved (the "communication" columns of
//!   Table 1 divide this by the batch size),
//! * **PIM time**  — per round, the maximum over modules of the work
//!   metered by the module handlers; summed over rounds,
//! * **CPU work**  — work units charged by host-side code.
//!
//! Because IO time and PIM time take per-round maxima, *load balance is the
//! whole game* — a skewed algorithm can have small total volume yet terrible
//! IO time. [`MetricsDelta::io_balance`] exposes exactly that ratio.
//!
//! Modules run concurrently on the rayon pool (real `std::thread` workers
//! — see the in-tree `rayon` crate); since a module handler only sees its
//! own state and inbox, execution is data-race-free, and because results
//! and work meters are collected by module index and reduced on the host
//! in module order, every counter is bit-identical for any thread count —
//! the simulation is deterministic for a fixed input (module RNG must be
//! seeded per module by the caller).
//!
//! The simulator can additionally inject *faults* — wire bit flips, lost or
//! mangled replies, module crashes and stragglers — from a seeded, fully
//! deterministic [`FaultPlan`] (see the [`fault`](crate::FaultPlan) docs).
//! With no plan installed the fault layer costs nothing and changes nothing.
//!
//! # Example
//!
//! ```
//! use pim_sim::PimSystem;
//!
//! // 4 modules, each holding a Vec<u64>.
//! let mut sys = PimSystem::new(4, |_id| Vec::<u64>::new());
//! // Scatter values to modules, one BSP round.
//! let inbox: Vec<Vec<u64>> = (0..4).map(|m| vec![m as u64, 100 + m as u64]).collect();
//! let replies = sys.round("load", inbox, |ctx, msgs| {
//!     ctx.work(msgs.len() as u64);
//!     ctx.state.extend(&msgs);
//!     vec![ctx.state.len() as u64]
//! });
//! assert_eq!(replies[3], vec![2]);
//! assert_eq!(sys.metrics().io_rounds(), 1);
//! ```
//!
//! # Example: inject faults and read a trace
//!
//! A seeded [`FaultPlan`] flips wire words deterministically, and an
//! attached [`Tracer`] records one event per round with per-phase
//! attribution:
//!
//! ```
//! use pim_sim::{FaultPlan, PimSystem};
//!
//! let mut sys = PimSystem::new(2, |_id| 0u64);
//! sys.metrics_mut().enable_tracing();
//! sys.install_faults(FaultPlan::new(7).with_flip_rate(1.0), None); // flip everything
//! sys.metrics_mut().tracer_mut().unwrap().set_phase("demo");
//! let _ = sys.round("noisy", vec![vec![1u64], vec![2u64]], |ctx, msgs| {
//!     ctx.work(1);
//!     msgs
//! });
//! assert!(sys.metrics().fault_stats().flips_injected > 0);
//! let tracer = sys.metrics_mut().take_tracer().unwrap();
//! assert_eq!(tracer.events().len(), 1);
//! assert_eq!(tracer.events()[0].phase, "demo");
//! assert_eq!(tracer.events()[0].round, "noisy");
//! ```
//!
//! # Paper references
//!
//! Section marks (§x.y) cite the PIM-trie paper (Kang et al.) unless a
//! doc says otherwise; §2 is its statement of this cost model. Items
//! implementing one specific construct close their docs with a `Paper:`
//! line naming the section(s).

#![warn(missing_docs)]

mod fault;
pub mod json;
mod metrics;
mod route;
mod system;
pub mod trace;
mod wire;

pub use fault::{CrashSpec, FaultPlan, JamSpec};
pub use json::Json;
pub use metrics::{
    balance, CodecStats, FaultStats, Metrics, MetricsDelta, ResidentStats, RoundRecord, ServeStats,
    Snapshot,
};
// The compact wire codec's vocabulary (`WIRE_FORMAT.md`): the bit-level
// encoder/decoder pair `Enc`/`Dec`, the negotiated `WireCodec` version,
// `CodecError`, and the delta/label stream indices. Re-exported so
// protocol crates implement `Wire::encode_frame` against `pim_sim`
// alone.
pub use pim_codec::{stream as codec_stream, CodecError, Dec, Enc, WireCodec};
pub use route::{GatherError, Scatter};
pub use system::{CrashHandler, PimCtx, PimSystem};
pub use trace::{in_op, Dist, PhaseSummary, TraceEvent, Tracer, RETRANSMIT_PHASE};
pub use wire::{words_for_bits, Wire};

/// A machine word — the unit of all communication accounting.
pub type Word = u64;
