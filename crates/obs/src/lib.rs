//! `pim-obs`: diagnosis-grade observability over the PIM-trie stack.
//!
//! The simulator's [`Metrics`](pim_sim::Metrics) and
//! [`Tracer`](pim_sim::Tracer) answer *how much* and *where*; this crate
//! answers *why was it slow*: which module set each round's barrier, which
//! phase dominates an op's latency, whether the imbalance is skew or a
//! straggler fault, and whether any of it crossed a declared threshold.
//!
//! Everything here is a **pure function of streams the simulator already
//! produces** — publishing into the registry, reconstructing a timeline,
//! or evaluating an alarm board never charges simulated cost, draws
//! randomness, or reads a clock, so every metered counter is bit-identical
//! with observability fully on or fully off, at any thread count. The
//! only notion of time is simulated PIM time carried by the trace events
//! themselves.
//!
//! The pieces:
//!
//! * [`Registry`] — a deterministic metrics registry (counters, gauges,
//!   fixed-bucket log₂ histograms) with a closed name set
//!   ([`names`]) and a Prometheus-style text [`Registry::expose`].
//! * [`Timeline`] — per-module, per-round utilization (words in/out,
//!   busy vs. idle PIM time, straggler delay) reconstructed from
//!   [`TraceEvent`](pim_sim::TraceEvent)s.
//! * [`critical::analyze`] — critical-path attribution over the
//!   op → phase → round hierarchy: dominant phase per op, barrier-setting
//!   module per round, balance score per phase.
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
//! use obs::{critical, Registry, Timeline};
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
//! let tl = Timeline::from_events(tracer.events());
//! assert_eq!(tl.modules(), 2);
//!
//! let crit = critical::analyze(tracer.events());
//! assert_eq!(crit.top_phase().unwrap().phase, "demo");
//!
//! let mut reg = Registry::new();
//! reg.publish_metrics(sys.metrics());
//! assert!(reg.expose().contains("pimtrie_io_rounds_total 1"));
//! ```

#![warn(missing_docs)]

pub mod alarms;
pub mod critical;
pub mod registry;
pub mod report;
pub mod timeline;

pub use alarms::{
    default_board, AlarmBoard, AlarmEvent, AlarmSpec, ObsSample, Threshold,
    BALANCE_MIN_WORDS_PER_MODULE,
};
pub use critical::{CriticalReport, OpCost, PhaseCost};
pub use registry::{names, Log2Hist, MetricKind, Registry};
pub use timeline::{ModuleLane, Timeline};
