//! Critical-path attribution over the op → phase → round hierarchy.
//!
//! In the PIM Model an op's latency is the sum of its rounds' barrier
//! costs (`io_time + pim_time` per round), so the *critical path* is the
//! chain of per-round maxima — and attributing it means answering, per
//! phase: how much barrier time did it contribute, which module set
//! those barriers, and was the load balanced or skewed while it ran?
//! [`analyze`] reads exactly that off the rows of
//! [`Tracer::phase_summaries`](pim_sim::Tracer::phase_summaries), the
//! one fold over a trace, and ranks the phases by barrier time.
//!
//! Balance here is the same max/mean ratio as
//! [`MetricsDelta::io_balance`](pim_sim::MetricsDelta::io_balance),
//! computed over the phase's cumulative per-module words + work, so a
//! phase whose score approaches `P` serialized on one module — the
//! skew signature the paper's Figures 2–4 plot.

// lint: allow-file(float-determinism) — diagnosis-side thresholds
// and ratios: alarms and reports read the metered counters, render
// them as f64 and compare against advisory thresholds; nothing here
// feeds back into the metered execution

use pim_sim::{balance, Dist, PhaseSummary};

use crate::report;

/// Barrier-time attribution of one (op, phase) scope.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseCost {
    /// Op span the phase ran under.
    pub op: String,
    /// Phase label.
    pub phase: String,
    /// Rounds attributed to the phase.
    pub rounds: u64,
    /// Σ per-round max module words.
    pub io_time: u64,
    /// Σ per-round max module work.
    pub pim_time: u64,
    /// Total barrier time: `io_time + pim_time`.
    pub time: u64,
    /// max/mean over per-module (words + work) totals; 1.0 = balanced.
    pub balance: f64,
    /// Module with the largest (words + work) total in this phase.
    pub worst_module: u64,
    /// Rounds whose PIM barrier `worst_module` set
    /// ([`PhaseSummary::barriers`]).
    pub barrier_rounds: u64,
    /// Straggler-fault delay injected while this phase ran.
    pub straggler_delay: u64,
}

/// The full attribution: per-phase costs, ranked.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CriticalReport {
    /// Phase costs of every phase that ran a round, sorted by barrier
    /// time descending (ties → op, phase ascending, so the order is
    /// total and deterministic).
    pub phases: Vec<PhaseCost>,
    /// Σ barrier time over all rounds.
    pub total_time: u64,
}

impl CriticalReport {
    /// The phase with the most barrier time, if any round ran.
    pub fn top_phase(&self) -> Option<&PhaseCost> {
        self.phases.first()
    }

    /// The phase with the worst balance score (ties → more barrier
    /// time, then sort order).
    pub fn worst_balance(&self) -> Option<&PhaseCost> {
        self.phases.iter().max_by(|a, b| {
            a.balance
                .partial_cmp(&b.balance)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.time.cmp(&b.time))
                .then(b.op.cmp(&a.op))
                .then(b.phase.cmp(&a.phase))
        })
    }

    /// Render the phase table (`op/phase`, rounds, io/pim/total time,
    /// share of total, balance, worst module, straggler delay), aligned
    /// and byte-deterministic.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .phases
            .iter()
            .map(|p| {
                let share = if self.total_time == 0 {
                    0.0
                } else {
                    p.time as f64 / self.total_time as f64 * 100.0
                };
                vec![
                    format!("{}:{}", p.op, p.phase),
                    p.rounds.to_string(),
                    p.io_time.to_string(),
                    p.pim_time.to_string(),
                    p.time.to_string(),
                    format!("{share:.1}%"),
                    format!("{:.2}", p.balance),
                    format!("m{}", p.worst_module),
                    p.barrier_rounds.to_string(),
                    p.straggler_delay.to_string(),
                ]
            })
            .collect();
        report::table(
            &[
                "op:phase",
                "rounds",
                "io",
                "pim",
                "time",
                "share",
                "balance",
                "worst",
                "barriers",
                "straggler",
            ],
            &rows,
        )
    }
}

/// Attribute a trace's phase rows. Pure and deterministic: same rows
/// in, same report out, byte for byte.
pub fn analyze(rows: &[PhaseSummary]) -> CriticalReport {
    let mut phases: Vec<PhaseCost> = rows
        .iter()
        .filter(|s| s.rounds > 0)
        .map(|s| {
            let per_module: Vec<u64> = s
                .io_per_module()
                .iter()
                .zip(&s.work)
                .map(|(io, work)| io + work)
                .collect();
            let worst = Dist::from_samples(&per_module).argmax;
            PhaseCost {
                op: s.op.clone(),
                phase: s.phase.clone(),
                rounds: s.rounds,
                io_time: s.io_time,
                pim_time: s.pim_time,
                time: s.io_time + s.pim_time,
                balance: balance(&per_module),
                worst_module: worst,
                barrier_rounds: s.barriers.get(worst as usize).copied().unwrap_or(0),
                straggler_delay: s.straggler_delay.iter().sum(),
            }
        })
        .collect();
    phases.sort_by(|a, b| {
        b.time
            .cmp(&a.time)
            .then(a.op.cmp(&b.op))
            .then(a.phase.cmp(&b.phase))
    });
    let total_time = phases.iter().map(|p| p.time).sum();
    CriticalReport { phases, total_time }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pim_sim::PimSystem;

    /// Trace one round per `(op, stage, sent words, work)` on a system
    /// with one module per entry of `sent`, and fold the trace.
    pub(crate) fn rows(
        rounds: &[(&'static str, &'static str, Vec<u64>, Vec<u64>)],
    ) -> Vec<PhaseSummary> {
        let mut sys = PimSystem::new(rounds[0].2.len(), |_| ());
        sys.metrics_mut().enable_tracing();
        for (op, stage, sent, work) in rounds {
            pim_sim::in_op(&mut sys, PimSystem::metrics_mut, op, |sys| {
                let t = sys.metrics_mut().tracer_mut().expect("tracing on");
                t.set_phase(stage);
                let inbox = sent.iter().map(|&n| vec![0u64; n as usize]).collect();
                sys.round("r", inbox, |ctx, _: Vec<u64>| {
                    ctx.work(work[ctx.id]);
                    Vec::<u64>::new()
                });
            });
        }
        sys.metrics()
            .tracer()
            .expect("tracing on")
            .phase_summaries()
    }

    #[test]
    fn phases_rank_by_time_and_attribute_modules() {
        let r = analyze(&rows(&[
            ("get", "read", vec![10, 0], vec![5, 0]),
            ("get", "read", vec![8, 0], vec![4, 0]),
            ("insert", "graft", vec![1, 1], vec![1, 1]),
        ]));
        assert_eq!(r.total_time, 10 + 5 + 8 + 4 + 1 + 1);
        let top = r.top_phase().expect("rounds ran");
        assert_eq!((top.op.as_str(), top.phase.as_str()), ("get", "get/read"));
        assert_eq!(top.time, 27);
        assert_eq!(top.worst_module, 0);
        assert_eq!(top.barrier_rounds, 2);
        assert!((top.balance - 2.0).abs() < 1e-9); // [27, 0] → 27/13.5
                                                   // worst balance is the skewed get phase, not the balanced graft
        assert_eq!(r.worst_balance().expect("phases").phase, "get/read");
    }

    #[test]
    fn dominant_phase_picks_biggest_share() {
        let r = analyze(&rows(&[
            ("lcp", "hash-probe", vec![2, 2], vec![2, 2]),
            ("lcp", "block-match", vec![9, 9], vec![9, 9]),
        ]));
        let top = r.top_phase().expect("rounds ran");
        assert_eq!(top.phase, "lcp/block-match");
        assert!(top.time * 2 > r.total_time);
    }

    #[test]
    fn render_deterministic_and_empty_safe() {
        let r = analyze(&[]);
        assert_eq!(r.total_time, 0);
        assert!(r.top_phase().is_none());
        let rs = rows(&[("get", "read", vec![3, 1], vec![1, 1])]);
        assert_eq!(analyze(&rs).render(), analyze(&rs).render());
        assert!(analyze(&rs).render().contains("get:get/read"));
    }
}
