//! The simulator's own op → phase attribution (`pim_sim::Tracer`),
//! turned into the `sim.*.<op>` and `sim.phase.<op>.<phase>.*` metrics.

use std::collections::BTreeMap;

use pim_sim::PhaseSummary;

use crate::spec::OpKind;
use crate::stats::ratio;
use crate::Measured;

/// Rounds, words, PIM time and CPU work per `(op, phase)` scope, summed
/// over every tracer folded in.
#[derive(Default)]
pub struct PhaseTotals(BTreeMap<(String, String), [u64; 4]>);

impl PhaseTotals {
    /// Fold one tracer's phase summaries in.
    pub fn add(&mut self, summaries: &[PhaseSummary]) {
        for s in summaries {
            let t = self.0.entry((s.op.clone(), s.phase.clone())).or_default();
            for (acc, v) in t
                .iter_mut()
                .zip([s.rounds, s.io_volume, s.pim_time, s.cpu_work])
            {
                *acc += v;
            }
        }
    }

    /// Set the per-op and per-phase metrics; `denominators[op]` is the
    /// `(ops, batches)` the op served while traced. Calls made outside
    /// any op span (the probes) are left out. Returns the words the op
    /// spans moved in total.
    pub fn set_metrics(&self, m: &mut Measured, denominators: &[(u64, u64); 5]) -> u64 {
        let mut all_words = 0;
        for kind in OpKind::ALL {
            let (ops, batches) = denominators[kind.idx()];
            if batches == 0 {
                continue;
            }
            let label = kind.label();
            let (ops, batches) = (ops as f64, batches as f64);
            let mut op_total = [0u64; 4];
            let mut other = [0u64; 4];
            for ((_, phase), t) in self.0.iter().filter(|((op, _), _)| op == label) {
                for (acc, v) in op_total.iter_mut().zip(t) {
                    *acc += v;
                }
                let named = phase
                    .strip_prefix(label)
                    .and_then(|p| p.strip_prefix('/'))
                    .filter(|p| kind.phases().contains(p));
                match named {
                    Some(p) => {
                        m.set(
                            &format!("sim.phase.{label}.{p}.rounds_per_batch"),
                            t[0] as f64 / batches,
                        );
                        m.set(
                            &format!("sim.phase.{label}.{p}.words_per_op"),
                            ratio(t[1] as f64, ops),
                        );
                    }
                    None => {
                        for (acc, v) in other.iter_mut().zip(t) {
                            *acc += v;
                        }
                    }
                }
            }
            all_words += op_total[1];
            m.set(
                &format!("sim.rounds_per_batch.{label}"),
                op_total[0] as f64 / batches,
            );
            m.set(
                &format!("sim.words_per_op.{label}"),
                ratio(op_total[1] as f64, ops),
            );
            m.set(
                &format!("sim.pim_time_per_op.{label}"),
                ratio(op_total[2] as f64, ops),
            );
            m.set(
                &format!("sim.cpu_work_per_op.{label}"),
                ratio(op_total[3] as f64, ops),
            );
            m.set(
                &format!("sim.phase.{label}.other.rounds_per_batch"),
                other[0] as f64 / batches,
            );
            m.set(
                &format!("sim.phase.{label}.other.words_per_op"),
                ratio(other[1] as f64, ops),
            );
        }
        all_words
    }
}
