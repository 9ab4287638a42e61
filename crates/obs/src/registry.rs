//! A deterministic metrics registry with a closed name set.
//!
//! Three instrument kinds — monotone counters, last-write gauges, and
//! fixed-bucket log₂ histograms — all keyed by `&'static str` names from
//! the [`names`] module. The name set is *closed*: publishing under a
//! name absent from [`names::REGISTERED`] is a programming error and
//! panics, which is what keeps label cardinality bounded; the
//! `&'static str` parameter keeps data-built names out at compile time.
//! Every instrument exists from construction with a zero value,
//! so an exposition's line set never depends on which code paths ran —
//! only the numbers differ.
//!
//! Determinism: the registry is plain data updated by explicit calls
//! from host-side code; it never reads a clock (histogram samples are
//! *simulated* PIM-time quantities), so a snapshot is a pure function of
//! the counters published into it and [`Registry::expose`] is
//! byte-identical across runs and thread counts.

// lint: allow-file(float-determinism) — diagnosis-side thresholds
// and ratios: alarms and reports read the metered counters, render
// them as f64 and compare against advisory thresholds; nothing here
// feeds back into the metered execution

use std::collections::BTreeMap;

use pim_sim::{balance, Metrics, MetricsDelta, ResidentStats, TraceEvent};

/// Registered metric names. All publishing goes through these consts —
/// never a formatted string — so the exposition's cardinality is fixed
/// at compile time.
pub mod names {
    /// BSP rounds executed.
    pub const IO_ROUNDS: &str = "pimtrie_io_rounds_total";
    /// Σ per-round maxima of module traffic (words).
    pub const IO_TIME: &str = "pimtrie_io_time_total";
    /// Total words moved CPU↔modules.
    pub const IO_VOLUME: &str = "pimtrie_io_volume_words_total";
    /// Σ per-round maxima of module work.
    pub const PIM_TIME: &str = "pimtrie_pim_time_total";
    /// Total work metered inside module handlers.
    pub const PIM_WORK: &str = "pimtrie_pim_work_total";
    /// Host-side work charged.
    pub const CPU_WORK: &str = "pimtrie_cpu_work_total";
    /// Faults injected by the simulator's fault layer (all classes).
    pub const FAULTS_INJECTED: &str = "pimtrie_faults_injected_total";
    /// Faults the recovery protocol detected (corrupt + missing).
    pub const FAULTS_DETECTED: &str = "pimtrie_faults_detected_total";
    /// Recovery retries issued.
    pub const RETRIES: &str = "pimtrie_retries_total";
    /// Extra module work injected by straggler faults.
    pub const STRAGGLER_DELAY: &str = "pimtrie_straggler_delay_total";
    /// Words of meta-block copies the host holds resident.
    pub const RESIDENT_WORDS: &str = "pimtrie_resident_words";
    /// The most words the resident copies ever held.
    pub const RESIDENT_WORDS_HIGH_WATER: &str = "pimtrie_resident_words_high_water";
    /// Meta-blocks pulled and kept resident.
    pub const RESIDENT_FILLS: &str = "pimtrie_resident_fills_total";
    /// Reply words of those pulls.
    pub const RESIDENT_FILL_WORDS: &str = "pimtrie_resident_fill_words_total";
    /// Resident copies dropped because a request rewrote their source.
    pub const RESIDENT_INVALIDATIONS: &str = "pimtrie_resident_invalidations_total";
    /// Matching targets answered from a resident copy.
    pub const RESIDENT_HOST_MATCHES: &str = "pimtrie_resident_host_matches_total";
    /// Requests clients attempted to submit.
    pub const SERVE_SUBMITTED: &str = "pimtrie_serve_submitted_total";
    /// Requests accepted into the bounded queue.
    pub const SERVE_ADMITTED: &str = "pimtrie_serve_admitted_total";
    /// Requests shed at admission.
    pub const SERVE_REJECTED: &str = "pimtrie_serve_rejected_total";
    /// Admitted requests shed pre-dispatch on deadline.
    pub const SERVE_EXPIRED: &str = "pimtrie_serve_expired_total";
    /// Admitted requests completed.
    pub const SERVE_COMPLETED: &str = "pimtrie_serve_completed_total";
    /// Admitted requests failed with a typed per-key error.
    pub const SERVE_FAILED: &str = "pimtrie_serve_failed_total";
    /// Coalesced epochs dispatched.
    pub const SERVE_EPOCHS: &str = "pimtrie_serve_epochs_total";
    /// Observability alarms fired during epoch evaluation.
    pub const SERVE_ALARMS: &str = "pimtrie_serve_alarms_total";
    /// Cumulative IO load balance (max module / mean module).
    pub const IO_BALANCE: &str = "pimtrie_io_balance";
    /// Cumulative PIM-work load balance.
    pub const PIM_BALANCE: &str = "pimtrie_pim_balance";
    /// Simulated time elapsed: io_time + pim_time + cpu_work.
    pub const SIM_TIME: &str = "pimtrie_sim_time";
    /// Per-round IO time (max module words that round).
    pub const ROUND_IO_TIME: &str = "pimtrie_round_io_time";
    /// Per-round PIM time (max module work that round).
    pub const ROUND_PIM_TIME: &str = "pimtrie_round_pim_time";

    use super::MetricKind as K;

    /// The closed instrument set: `(name, kind, help)`. [`super::Registry::new`]
    /// pre-registers exactly these; publishing under any other name panics.
    pub const REGISTERED: &[(&str, K, &str)] = &[
        (IO_ROUNDS, K::Counter, "BSP rounds executed"),
        (IO_TIME, K::Counter, "sum of per-round max module words"),
        (IO_VOLUME, K::Counter, "total words moved CPU<->modules"),
        (PIM_TIME, K::Counter, "sum of per-round max module work"),
        (PIM_WORK, K::Counter, "total module work metered"),
        (CPU_WORK, K::Counter, "host-side work charged"),
        (FAULTS_INJECTED, K::Counter, "faults injected, all classes"),
        (FAULTS_DETECTED, K::Counter, "faults detected by recovery"),
        (RETRIES, K::Counter, "recovery retries issued"),
        (
            STRAGGLER_DELAY,
            K::Counter,
            "module work added by straggler faults",
        ),
        (RESIDENT_FILLS, K::Counter, "meta-blocks pulled and kept"),
        (RESIDENT_FILL_WORDS, K::Counter, "words of those pulls"),
        (
            RESIDENT_INVALIDATIONS,
            K::Counter,
            "resident copies dropped by a mutation",
        ),
        (
            RESIDENT_HOST_MATCHES,
            K::Counter,
            "targets matched from a resident copy",
        ),
        (SERVE_SUBMITTED, K::Counter, "requests submitted by clients"),
        (SERVE_ADMITTED, K::Counter, "requests admitted to the queue"),
        (SERVE_REJECTED, K::Counter, "requests shed at admission"),
        (SERVE_EXPIRED, K::Counter, "requests shed on deadline"),
        (SERVE_COMPLETED, K::Counter, "requests completed"),
        (SERVE_FAILED, K::Counter, "requests failed per-key"),
        (SERVE_EPOCHS, K::Counter, "coalesced epochs dispatched"),
        (SERVE_ALARMS, K::Counter, "observability alarms fired"),
        (IO_BALANCE, K::Gauge, "IO load balance, max/mean module"),
        (
            PIM_BALANCE,
            K::Gauge,
            "PIM-work load balance, max/mean module",
        ),
        (RESIDENT_WORDS, K::Gauge, "words of resident meta copies"),
        (
            RESIDENT_WORDS_HIGH_WATER,
            K::Gauge,
            "most words the resident copies held",
        ),
        (SIM_TIME, K::Gauge, "simulated time: io+pim+cpu"),
        (
            ROUND_IO_TIME,
            K::Histogram,
            "per-round IO time distribution",
        ),
        (
            ROUND_PIM_TIME,
            K::Histogram,
            "per-round PIM time distribution",
        ),
    ];
}

/// The instrument kind a registered name carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone sum; exposition suffix convention `_total`.
    Counter,
    /// Last-written value.
    Gauge,
    /// Fixed-bucket log₂ histogram of `u64` samples.
    Histogram,
}

/// A log₂-bucketed histogram of `u64` samples.
///
/// Bucket `i` holds samples whose bit length is `i` — bucket 0 holds
/// exactly the zeros, bucket 1 holds `1`, bucket 2 holds `2..=3`, bucket
/// `i` holds `2^(i-1) ..= 2^i - 1`. Bucket boundaries are fixed at
/// compile time, so exposition never depends on the data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Log2Hist {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            buckets: [0; 65],
            count: 0,
            sum: 0,
        }
    }
}

impl Log2Hist {
    /// The bucket index a sample lands in (its bit length).
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i` (`2^i - 1`; saturates at
    /// `u64::MAX` for the last bucket).
    pub fn bucket_bound(i: usize) -> u64 {
        if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Record one sample.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples recorded.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Samples in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }
}

/// The registry: every instrument in [`names::REGISTERED`], pre-created
/// at zero. See the module docs for the determinism contract.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, Log2Hist>,
}

impl Registry {
    /// A registry holding every registered instrument at zero.
    pub fn new() -> Registry {
        let mut r = Registry::default();
        for &(name, kind, _help) in names::REGISTERED {
            match kind {
                MetricKind::Counter => {
                    r.counters.insert(name, 0);
                }
                MetricKind::Gauge => {
                    r.gauges.insert(name, 0.0);
                }
                MetricKind::Histogram => {
                    r.hists.insert(name, Log2Hist::default());
                }
            }
        }
        r
    }

    /// Add to a counter. Panics if `name` is not a registered counter.
    pub fn counter_add(&mut self, name: &'static str, v: u64) {
        let c = self.counters.get_mut(name);
        assert!(c.is_some(), "unregistered counter: {name}");
        *c.unwrap_or_else(|| unreachable!()) += v;
    }

    /// Set a gauge. Panics if `name` is not a registered gauge.
    pub fn gauge_set(&mut self, name: &'static str, v: f64) {
        let g = self.gauges.get_mut(name);
        assert!(g.is_some(), "unregistered gauge: {name}");
        if let Some(g) = g {
            *g = v;
        }
    }

    /// Record a histogram sample. Panics if `name` is not a registered
    /// histogram.
    pub fn observe(&mut self, name: &'static str, v: u64) {
        let h = self.hists.get_mut(name);
        assert!(h.is_some(), "unregistered histogram: {name}");
        if let Some(h) = h {
            h.observe(v);
        }
    }

    /// Read a counter (panics on unregistered names, like the writers).
    pub fn counter(&self, name: &'static str) -> u64 {
        let c = self.counters.get(name);
        assert!(c.is_some(), "unregistered counter: {name}");
        c.copied().unwrap_or(0)
    }

    /// Read a gauge.
    pub fn gauge(&self, name: &'static str) -> f64 {
        let g = self.gauges.get(name);
        assert!(g.is_some(), "unregistered gauge: {name}");
        g.copied().unwrap_or(0.0)
    }

    /// Read a histogram.
    pub fn hist(&self, name: &'static str) -> &Log2Hist {
        let h = self.hists.get(name);
        assert!(h.is_some(), "unregistered histogram: {name}");
        h.unwrap_or_else(|| unreachable!())
    }

    /// Publish a [`Metrics`] snapshot: all cumulative counters, the
    /// balance gauges, and the simulated clock. Counters are
    /// *set-to-current* via add-over-zero, so publish into a fresh
    /// registry (or accept summation across publishes).
    pub fn publish_metrics(&mut self, m: &Metrics) {
        self.counter_add(names::IO_ROUNDS, m.io_rounds());
        self.counter_add(names::IO_TIME, m.io_time());
        self.counter_add(names::IO_VOLUME, m.io_volume());
        self.counter_add(names::PIM_TIME, m.pim_time());
        self.counter_add(names::PIM_WORK, m.pim_work());
        self.counter_add(names::CPU_WORK, m.cpu_work());
        let f = m.fault_stats();
        self.counter_add(names::FAULTS_INJECTED, f.total_injected());
        self.counter_add(names::FAULTS_DETECTED, f.total_detected());
        self.counter_add(names::RETRIES, f.retries);
        self.publish_resident(m.resident_stats());
        let s = m.serve_stats();
        self.counter_add(names::SERVE_SUBMITTED, s.submitted);
        self.counter_add(names::SERVE_ADMITTED, s.admitted);
        self.counter_add(names::SERVE_REJECTED, s.rejected);
        self.counter_add(names::SERVE_EXPIRED, s.expired);
        self.counter_add(names::SERVE_COMPLETED, s.completed);
        self.counter_add(names::SERVE_FAILED, s.failed);
        self.counter_add(names::SERVE_EPOCHS, s.epochs);
        self.counter_add(names::SERVE_ALARMS, s.alarms);
        self.gauge_set(names::IO_BALANCE, balance(m.io_per_module()));
        self.gauge_set(names::PIM_BALANCE, balance(m.pim_per_module()));
        let t = m.io_time() + m.pim_time() + m.cpu_work();
        self.gauge_set(names::SIM_TIME, t as f64);
    }

    /// Publish the host-resident meta copies' counters: fills,
    /// invalidations and host matches accumulate across publishes, the
    /// two word gauges hold the last published index's values.
    pub fn publish_resident(&mut self, r: &ResidentStats) {
        self.counter_add(names::RESIDENT_FILLS, r.fills);
        self.counter_add(names::RESIDENT_FILL_WORDS, r.fill_words);
        self.counter_add(names::RESIDENT_INVALIDATIONS, r.invalidations);
        self.counter_add(names::RESIDENT_HOST_MATCHES, r.host_matches);
        self.gauge_set(names::RESIDENT_WORDS, r.words as f64);
        self.gauge_set(names::RESIDENT_WORDS_HIGH_WATER, r.words_high_water as f64);
    }

    /// Publish a windowed [`MetricsDelta`] (e.g. one experiment's batch):
    /// the core cost counters accumulate across publishes, the balance
    /// gauge holds the last window's value.
    pub fn publish_delta(&mut self, d: &MetricsDelta) {
        self.counter_add(names::IO_ROUNDS, d.io_rounds);
        self.counter_add(names::IO_TIME, d.io_time);
        self.counter_add(names::IO_VOLUME, d.io_volume());
        self.counter_add(names::PIM_TIME, d.pim_time);
        self.counter_add(names::PIM_WORK, d.pim_work());
        self.counter_add(names::CPU_WORK, d.cpu_work);
        self.gauge_set(names::IO_BALANCE, d.io_balance());
        self.gauge_set(names::PIM_BALANCE, balance(&d.pim_per_module));
        let t = d.io_time + d.pim_time + d.cpu_work;
        self.gauge_set(names::SIM_TIME, t as f64);
    }

    /// Publish trace events: per-round IO/PIM time histograms and the
    /// total straggler delay counter.
    pub fn publish_events(&mut self, events: &[TraceEvent]) {
        for ev in events {
            self.observe(names::ROUND_IO_TIME, ev.io_time);
            self.observe(names::ROUND_PIM_TIME, ev.pim_time);
            self.counter_add(
                names::STRAGGLER_DELAY,
                ev.straggler_delay.iter().sum::<u64>(),
            );
        }
    }

    /// Prometheus-style text exposition: `# HELP` / `# TYPE` preamble
    /// per instrument, histograms as cumulative `_bucket{le="..."}`
    /// series (empty log₂ buckets elided; `+Inf` always present) plus
    /// `_sum` / `_count`. Instruments appear in registration order;
    /// byte-deterministic for fixed published values.
    pub fn expose(&self) -> String {
        let mut out = String::new();
        for &(name, kind, help) in names::REGISTERED {
            out.push_str(&format!("# HELP {name} {help}\n"));
            match kind {
                MetricKind::Counter => {
                    out.push_str(&format!("# TYPE {name} counter\n"));
                    out.push_str(&format!("{name} {}\n", self.counter(name)));
                }
                MetricKind::Gauge => {
                    out.push_str(&format!("# TYPE {name} gauge\n"));
                    out.push_str(&format!("{name} {}\n", fmt_f64(self.gauge(name))));
                }
                MetricKind::Histogram => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let h = self.hist(name);
                    let mut cum = 0u64;
                    for i in 0..=64usize {
                        if h.bucket(i) == 0 {
                            continue;
                        }
                        cum += h.bucket(i);
                        out.push_str(&format!(
                            "{name}_bucket{{le=\"{}\"}} {cum}\n",
                            Log2Hist::bucket_bound(i)
                        ));
                    }
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
                    out.push_str(&format!("{name}_sum {}\n", h.sum()));
                    out.push_str(&format!("{name}_count {}\n", h.count()));
                }
            }
        }
        out
    }
}

/// Deterministic gauge formatting: 6 decimal places, trailing zeros
/// trimmed (`1.5`, `2`, `0.333333`).
fn fmt_f64(v: f64) -> String {
    let s = format!("{v:.6}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() || s == "-" {
        "0".to_string()
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets() {
        assert_eq!(Log2Hist::bucket_of(0), 0);
        assert_eq!(Log2Hist::bucket_of(1), 1);
        assert_eq!(Log2Hist::bucket_of(2), 2);
        assert_eq!(Log2Hist::bucket_of(3), 2);
        assert_eq!(Log2Hist::bucket_of(4), 3);
        assert_eq!(Log2Hist::bucket_of(u64::MAX), 64);
        assert_eq!(Log2Hist::bucket_bound(0), 0);
        assert_eq!(Log2Hist::bucket_bound(2), 3);
        assert_eq!(Log2Hist::bucket_bound(64), u64::MAX);
        let mut h = Log2Hist::default();
        for v in [0, 1, 2, 3, 7, 8] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 21);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(2), 2);
        assert_eq!(h.bucket(3), 1);
    }

    #[test]
    fn registry_is_closed_and_pre_registered() {
        let r = Registry::new();
        // every registered instrument exists at zero
        assert_eq!(r.counter(names::IO_ROUNDS), 0);
        assert_eq!(r.gauge(names::IO_BALANCE), 0.0);
        assert_eq!(r.hist(names::ROUND_IO_TIME).count(), 0);
        // and the exposition lists them all even when untouched
        let text = r.expose();
        for &(name, _, _) in names::REGISTERED {
            assert!(text.contains(name), "missing {name}");
        }
    }

    #[test]
    #[should_panic(expected = "unregistered counter")]
    fn unknown_name_panics() {
        Registry::new().counter_add("pimtrie_made_up_total", 1);
    }

    #[test]
    fn exposition_is_deterministic_and_histograms_cumulative() {
        let build = || {
            let mut r = Registry::new();
            r.counter_add(names::IO_ROUNDS, 13);
            r.gauge_set(names::IO_BALANCE, 1.5);
            r.observe(names::ROUND_IO_TIME, 0);
            r.observe(names::ROUND_IO_TIME, 3);
            r.observe(names::ROUND_IO_TIME, 3);
            r.observe(names::ROUND_IO_TIME, 100);
            r
        };
        let (a, b) = (build(), build());
        assert_eq!(a.expose(), b.expose());
        let text = a.expose();
        assert!(text.contains("pimtrie_io_rounds_total 13"));
        assert!(text.contains("pimtrie_io_balance 1.5"));
        // cumulative buckets: le=0 →1, le=3 →3, le=127 →4, +Inf = count
        assert!(text.contains("pimtrie_round_io_time_bucket{le=\"0\"} 1"));
        assert!(text.contains("pimtrie_round_io_time_bucket{le=\"3\"} 3"));
        assert!(text.contains("pimtrie_round_io_time_bucket{le=\"127\"} 4"));
        assert!(text.contains("pimtrie_round_io_time_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("pimtrie_round_io_time_sum 106"));
        assert!(text.contains("pimtrie_round_io_time_count 4"));
    }

    #[test]
    fn gauge_formatting_trims() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(2.0), "2");
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(1.0 / 3.0), "0.333333");
    }
}
