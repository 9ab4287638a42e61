//! `pim-obs`: diagnosis-grade observability over the PIM-trie stack.
//!
//! The simulator's [`Metrics`](pim_sim::Metrics) and
//! [`Tracer`](pim_sim::Tracer) answer *how much* and *where*; this crate
//! answers *why was it slow*: which module set each round's barrier, which
//! phase dominates the latency, whether the imbalance is skew or a
//! straggler fault, and whether any of it crossed a declared threshold.
//!
//! Everything here is a **pure function of what the simulator already
//! produces** — summing a timeline, ranking the critical path, or
//! evaluating an alarm board never charges simulated cost, draws
//! randomness, or reads a clock, so every metered counter is bit-identical
//! with observability fully on or fully off, at any thread count. The
//! only notion of time is simulated PIM time carried by the trace
//! itself. Rounds are attributed to phases and modules once, by
//! [`Tracer::phase_summaries`](pim_sim::Tracer::phase_summaries); the
//! timeline and the critical-path table read its rows, and nothing in
//! this crate reads the raw round events.
//!
//! The pieces:
//!
//! * [`Timeline`] — per-module utilization (words in/out, busy vs. idle
//!   PIM time, straggler delay, barriers set): a column sum of the phase
//!   rows.
//! * [`critical::analyze`] — critical-path attribution over the
//!   op → phase → round hierarchy: phases ranked by barrier time, with
//!   each phase's balance score, worst module and the barriers it set.
//! * [`AlarmBoard`] — declarative thresholds (balance, shed rate,
//!   quarantine, descent rounds) evaluated per epoch by the serving
//!   layer and surfaced in [`ServeStats`](pim_sim::ServeStats).
//! * [`report`] — shared table renderer and the folded-stack
//!   (flamegraph-compatible) exporter behind `pimtrie-report`.
//!
//! # Example
//!
//! ```
//! use pim_sim::PimSystem;
//! use obs::{critical, Timeline};
//!
//! let mut sys = PimSystem::new(2, |_id| 0u64);
//! sys.metrics_mut().enable_tracing();
//! sys.metrics_mut().tracer_mut().unwrap().set_phase("demo");
//! let _ = sys.round("work", vec![vec![1u64], vec![2u64, 3u64]], |ctx, msgs| {
//!     ctx.work(msgs.len() as u64);
//!     msgs
//! });
//! let tracer = sys.metrics_mut().take_tracer().unwrap();
//!
//! let rows = tracer.phase_summaries();
//! let tl = Timeline::from_phases(&rows);
//! assert_eq!(tl.modules(), 2);
//! // m1 did the most work, so it set the round's barrier
//! assert_eq!(tl.bottleneck(), Some(1));
//!
//! let crit = critical::analyze(&rows);
//! assert_eq!(crit.top_phase().unwrap().phase, "demo");
//! ```

#![warn(missing_docs)]

pub mod alarms;
pub mod critical;
pub mod report;
pub mod timeline;

pub use alarms::{
    default_board, AlarmBoard, AlarmEvent, AlarmSpec, ObsSample, Threshold,
    BALANCE_MIN_WORDS_PER_MODULE,
};
pub use critical::{CriticalReport, PhaseCost};
pub use timeline::{ModuleLane, Timeline};
