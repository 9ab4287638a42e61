//! Sample summaries and the summed simulated counters.

use pim_sim::MetricsDelta;

use crate::Measured;

/// Median of the samples (mean of the middle two for an even count);
/// 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond
/// it, as `(percentile, value)`; `None` with fewer than 20 samples
/// (the median is then all there is to say).
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 20 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = n - 11;
    Some((100.0 * (idx + 1) as f64 / n as f64, v[idx]))
}

/// `num / den`, or 0 when nothing was counted (a layer the workload
/// does not run).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics [`SimSum`] yields; the traced run reports the
/// same four as `trace.<name>`, and they must be equal.
pub const SIM_TRAFFIC: [&str; 4] = [
    "sim_words_per_op",
    "sim_io_time_per_op",
    "sim_rounds_per_batch",
    "sim_io_balance",
];

/// Simulated PIM-Model counters summed over the per-call
/// [`MetricsDelta`]s of the counted cycles. Per-module vectors are
/// summed too, so the balance is that of the whole counted phase.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimSum {
    /// ops (keys, queries, returned keys, requests) the calls served
    pub ops: u64,
    /// batch calls (epochs on the serving workload)
    pub batches: u64,
    /// BSP rounds
    pub rounds: u64,
    /// Σ per-round max-module words
    pub io_time: u64,
    /// per-module IO words
    pub io_per_module: Vec<u64>,
}

impl SimSum {
    /// Add one call's delta.
    pub fn add(&mut self, d: &MetricsDelta, ops: u64, batches: u64) {
        self.ops += ops;
        self.batches += batches;
        self.rounds += d.io_rounds;
        self.io_time += d.io_time;
        if self.io_per_module.is_empty() {
            self.io_per_module = vec![0; d.io_per_module.len()];
        }
        for (a, b) in self.io_per_module.iter_mut().zip(&d.io_per_module) {
            *a += b;
        }
    }

    /// Metered IO words per op (encoded words under the Compact codec).
    pub fn words_per_op(&self) -> f64 {
        ratio(
            self.io_per_module.iter().sum::<u64>() as f64,
            self.ops as f64,
        )
    }

    /// IO time (Σ round maxima) per op.
    pub fn io_time_per_op(&self) -> f64 {
        ratio(self.io_time as f64, self.ops as f64)
    }

    /// IO rounds per batch call.
    pub fn rounds_per_batch(&self) -> f64 {
        ratio(self.rounds as f64, self.batches as f64)
    }

    /// Max ÷ mean module IO over the counted phase.
    pub fn io_balance(&self) -> f64 {
        pim_sim::balance(&self.io_per_module)
    }

    /// Set the [`SIM_TRAFFIC`] metrics under `prefix` (empty for the
    /// end-to-end set, `trace.` for the traced run's copy).
    pub fn set_metrics(&self, m: &mut Measured, prefix: &str) {
        let values = [
            self.words_per_op(),
            self.io_time_per_op(),
            self.rounds_per_batch(),
            self.io_balance(),
        ];
        for (name, value) in SIM_TRAFFIC.into_iter().zip(values) {
            m.set(&format!("{prefix}{name}"), value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail(&[1.0; 19]), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // ten samples (91..=100) lie beyond the 90th
        assert_eq!(tail(&v), Some((90.0, 90.0)));
    }
}
