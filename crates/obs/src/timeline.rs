//! Per-module utilization timelines.
//!
//! A column sum over the rows of
//! [`Tracer::phase_summaries`](pim_sim::Tracer::phase_summaries), the one
//! fold over a trace: each row already carries per-module words
//! sent/received, metered work, straggler delay and barriers set. The
//! timeline keeps the barrier structure the PIM Model defines: within a
//! round every module waits for the slowest one, so a module's **idle**
//! time is the barrier's PIM time minus its own work. Summing lanes gives
//! each module's utilization and answers "which module was the
//! bottleneck, and was it skew or a straggler fault?" directly.
//!
//! The clock is simulated PIM time: round `k` starts when round `k-1`'s
//! barrier closed (`t_end = t_start + io_time + pim_time`). Host CPU
//! work is not on this clock — it is attributed per phase by the
//! critical-path analyzer instead.

// lint: allow-file(float-determinism) — diagnosis-side thresholds
// and ratios: alarms and reports read the metered counters, render
// them as f64 and compare against advisory thresholds; nothing here
// feeds back into the metered execution

use pim_sim::PhaseSummary;

use crate::report;

/// One module's cumulative lane over a timeline window.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ModuleLane {
    /// Words written to the module (CPU→module).
    pub sent: u64,
    /// Words read back from the module.
    pub received: u64,
    /// Work the module actually executed (includes straggler delay).
    pub busy: u64,
    /// Time spent waiting on other modules at round barriers
    /// (Σ over rounds of `round pim_time − own work`).
    pub idle: u64,
    /// Portion of `busy` injected by straggler faults.
    pub straggler_delay: u64,
    /// Rounds in which this module set the PIM-time barrier
    /// ([`PhaseSummary::barriers`]).
    pub barriers_set: u64,
}

impl ModuleLane {
    /// busy / (busy + idle); 1.0 for an empty lane (vacuously utilized).
    pub fn utilization(&self) -> f64 {
        let total = self.busy + self.idle;
        if total == 0 {
            1.0
        } else {
            self.busy as f64 / total as f64
        }
    }
}

/// A reconstructed utilization timeline over a trace window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Timeline {
    lanes: Vec<ModuleLane>,
    rounds: u64,
    io_time: u64,
    pim_time: u64,
}

impl Timeline {
    /// Sum a trace's phase rows into module lanes. Rows of differing
    /// module counts widen the lane set; absent modules accrue nothing.
    pub fn from_phases(rows: &[PhaseSummary]) -> Timeline {
        let mut tl = Timeline::default();
        for row in rows {
            if row.work.len() > tl.lanes.len() {
                tl.lanes.resize(row.work.len(), ModuleLane::default());
            }
            tl.rounds += row.rounds;
            tl.io_time += row.io_time;
            tl.pim_time += row.pim_time;
            for (m, &work) in row.work.iter().enumerate() {
                let lane = &mut tl.lanes[m];
                lane.sent += row.sent[m];
                lane.received += row.received[m];
                lane.busy += work;
                lane.idle += row.pim_time - work;
                lane.straggler_delay += row.straggler_delay[m];
                lane.barriers_set += row.barriers[m];
            }
        }
        tl
    }

    /// Number of module lanes.
    pub fn modules(&self) -> usize {
        self.lanes.len()
    }

    /// Rounds covered by the window.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Σ per-round IO time over the window.
    pub fn io_time(&self) -> u64 {
        self.io_time
    }

    /// Σ per-round PIM time over the window (the barrier clock).
    pub fn pim_time(&self) -> u64 {
        self.pim_time
    }

    /// The per-module lanes, indexed by module id.
    pub fn lanes(&self) -> &[ModuleLane] {
        &self.lanes
    }

    /// Module that set the most barriers (ties → lowest id); `None` for
    /// an empty timeline.
    pub fn bottleneck(&self) -> Option<usize> {
        self.lanes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.barriers_set.cmp(&b.1.barriers_set).then(b.0.cmp(&a.0)))
            .map(|(m, _)| m)
    }

    /// Total straggler-fault delay across all lanes.
    pub fn straggler_delay(&self) -> u64 {
        self.lanes.iter().map(|l| l.straggler_delay).sum()
    }

    /// Render the lanes as an aligned table (one row per module),
    /// byte-deterministic. `util` is busy/(busy+idle) to 1 decimal; a
    /// `*` marks the bottleneck lane.
    pub fn render(&self) -> String {
        let bottleneck = self.bottleneck();
        let rows: Vec<Vec<String>> = self
            .lanes
            .iter()
            .enumerate()
            .map(|(m, l)| {
                vec![
                    format!("m{m}{}", if Some(m) == bottleneck { "*" } else { "" }),
                    l.sent.to_string(),
                    l.received.to_string(),
                    l.busy.to_string(),
                    l.idle.to_string(),
                    format!("{:.1}%", l.utilization() * 100.0),
                    l.barriers_set.to_string(),
                    l.straggler_delay.to_string(),
                ]
            })
            .collect();
        report::table(
            &[
                "module",
                "sent",
                "received",
                "busy",
                "idle",
                "util",
                "barriers",
                "straggler",
            ],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical::tests::rows;
    use pim_sim::{FaultPlan, PimSystem};

    #[test]
    fn lanes_accumulate_busy_idle_and_barriers() {
        let rs = rows(&[
            ("op", "a", vec![4, 1], vec![6, 2]),
            ("op", "b", vec![1, 1], vec![1, 5]),
        ]);
        let tl = Timeline::from_phases(&rs);
        assert_eq!(tl.modules(), 2);
        assert_eq!(tl.rounds(), 2);
        assert_eq!(tl.pim_time(), 6 + 5);
        let m0 = &tl.lanes()[0];
        let m1 = &tl.lanes()[1];
        assert_eq!((m0.sent, m1.sent), (5, 2));
        assert_eq!((m0.busy, m0.idle), (7, 4)); // 6+1 busy, 0+4 idle
        assert_eq!((m1.busy, m1.idle), (7, 4)); // 2+5 busy, 4+0 idle
        assert_eq!(m0.barriers_set, 1);
        assert_eq!(m1.barriers_set, 1);
        // tie on barriers: lowest module id wins
        assert_eq!(tl.bottleneck(), Some(0));
        assert!((m0.utilization() - 7.0 / 11.0).abs() < 1e-9);
    }

    /// The critical table and the timeline read barriers off the same
    /// rows, so they credit the same module: the lowest-id module at the
    /// round's PIM time, never the one with the most words, and only one
    /// module per round on a tie.
    #[test]
    fn critical_and_timeline_credit_the_same_barrier_module() {
        let rs = rows(&[
            // most words on m0, most work on m1
            ("get", "read", vec![9, 0], vec![1, 5]),
            // m0 and m1 tie on work
            ("get", "probe", vec![4, 0], vec![3, 3]),
        ]);
        let crit = crate::critical::analyze(&rs);
        let lane_barriers = |phase: &str| -> Vec<u64> {
            let row = rs.iter().filter(|r| r.phase == phase);
            let tl = Timeline::from_phases(&row.cloned().collect::<Vec<_>>());
            tl.lanes().iter().map(|l| l.barriers_set).collect()
        };
        assert_eq!(lane_barriers("get/read"), vec![0, 1]);
        assert_eq!(lane_barriers("get/probe"), vec![1, 0]);
        for cost in &crit.phases {
            assert_eq!(cost.worst_module, 0, "{}", cost.phase);
            let want = lane_barriers(&cost.phase)[cost.worst_module as usize];
            assert_eq!(cost.barrier_rounds, want, "{}", cost.phase);
        }
        let tl = Timeline::from_phases(&rs);
        assert_eq!(tl.lanes()[0].barriers_set + tl.lanes()[1].barriers_set, 2);
    }

    #[test]
    fn straggler_delay_sums_into_lanes() {
        let mut sys = PimSystem::new(2, |_| ());
        sys.metrics_mut().enable_tracing();
        sys.install_faults(FaultPlan::new(1).with_stragglers(1.0, 2), None);
        sys.round("r", vec![vec![0u64], vec![]], |ctx, _: Vec<u64>| {
            ctx.work(3 - 2 * ctx.id as u64);
            Vec::<u64>::new()
        });
        let rows = sys
            .metrics()
            .tracer()
            .expect("tracing on")
            .phase_summaries();
        let tl = Timeline::from_phases(&rows);
        let (m0, m1) = (&tl.lanes()[0], &tl.lanes()[1]);
        assert_eq!((m0.straggler_delay, m1.straggler_delay), (3, 1));
        assert_eq!(tl.straggler_delay(), 4);
        assert_eq!((m0.busy, m1.busy, m1.idle), (6, 2, 4));
    }

    #[test]
    fn render_is_deterministic_and_marks_bottleneck() {
        let tl = Timeline::from_phases(&rows(&[("op", "a", vec![2, 0], vec![3, 1])]));
        let (a, b) = (tl.render(), tl.render());
        assert_eq!(a, b);
        assert!(a.contains("m0*"));
        assert!(a.lines().count() == 3); // header + 2 lanes
    }

    #[test]
    fn empty_timeline() {
        let tl = Timeline::from_phases(&[]);
        assert_eq!(tl.modules(), 0);
        assert_eq!(tl.bottleneck(), None);
        assert_eq!(tl.pim_time(), 0);
    }
}
