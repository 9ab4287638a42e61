//! Declarative threshold alarms over the observability sample stream.
//!
//! An [`AlarmBoard`] holds named [`AlarmSpec`]s; the serving layer (or a
//! bench harness) feeds it one [`ObsSample`] per epoch and the board
//! records an [`AlarmEvent`] on every **rising edge** — the evaluation
//! at which a condition crosses from quiet to firing. Edge-triggering
//! keeps the event log proportional to the number of incidents, not the
//! number of epochs spent inside one.
//!
//! Determinism contract: evaluating a board only *reads* counters — it
//! never charges simulated cost, draws randomness, or reads a clock —
//! so installing a board perturbs no metered counter, and for a fixed
//! sample stream the fired-event log is byte-identical across runs and
//! thread counts (values are stabilized to 6 decimal places, mirroring
//! the trace summaries).

// lint: allow-file(float-determinism) — diagnosis-side thresholds
// and ratios: alarms and reports read the metered counters, render
// them as f64 and compare against advisory thresholds; nothing here
// feeds back into the metered execution

use pim_sim::{balance, json::round6, ServeStats};

use crate::report;

/// A threshold condition over one epoch's sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Threshold {
    /// Fire when the window's IO balance (max/mean module words)
    /// exceeds the bound — the skew signature. Quiet when the window
    /// moved fewer than [`BALANCE_MIN_WORDS_PER_MODULE`] words per
    /// module on average: balance over a near-empty window (a serving
    /// epoch of a handful of single-key ops) is sampling noise, not
    /// skew.
    IoBalanceAbove(f64),
    /// Fire when cumulative shed rate `rejected / submitted` exceeds
    /// the bound (quiet until anything is submitted).
    ShedRateAbove(f64),
    /// Fire when more than this many modules are quarantined.
    QuarantinedAbove(u64),
    /// Fire when a batch's meta descent took more IO rounds than
    /// `c · ⌈log₂ P⌉` — the paper's `O(log P)` round bound (Table 1) with
    /// its constant written out, `P` being the window's module count. A
    /// descent that grows with `log n` instead crosses it as the index
    /// grows; one through the host's master table (at most one round)
    /// does not.
    DescentRoundsAbove(u64),
}

/// A named alarm: `name` is `&'static str`, which holds alarm names to
/// the same closed-set discipline as metric names.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AlarmSpec {
    /// Stable alarm name, e.g. `"io-balance"`.
    pub name: &'static str,
    /// The condition.
    pub threshold: Threshold,
}

/// One rising-edge firing.
#[derive(Clone, Debug, PartialEq)]
pub struct AlarmEvent {
    /// The spec's name.
    pub name: &'static str,
    /// Epoch number at which the condition became true.
    pub epoch: u64,
    /// Observed value at the edge (6-decimal stabilized).
    pub value: f64,
    /// The configured bound.
    pub threshold: f64,
}

/// One epoch's observability inputs, assembled by the caller from
/// whatever window it considers an epoch (the serving layer uses its
/// dispatch window for `io_per_module` and cumulative stats for the
/// rest).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsSample {
    /// Per-module words moved in the evaluation window.
    pub io_per_module: Vec<u64>,
    /// Serving counters (cumulative).
    pub serve: ServeStats,
    /// Modules currently quarantined.
    pub quarantined: u64,
    /// IO rounds of the latest batch's meta descent
    /// (`MatchStats::descend_rounds`).
    pub descend_rounds: u64,
}

struct SpecState {
    spec: AlarmSpec,
    active: bool,
}

/// A set of alarm specs plus their firing history.
pub struct AlarmBoard {
    specs: Vec<SpecState>,
    fired: Vec<AlarmEvent>,
}

impl AlarmBoard {
    /// A board evaluating `specs` (in the given, stable order).
    pub fn new(specs: Vec<AlarmSpec>) -> AlarmBoard {
        AlarmBoard {
            specs: specs
                .into_iter()
                .map(|spec| SpecState {
                    spec,
                    active: false,
                })
                .collect(),
            fired: Vec::new(),
        }
    }

    /// Evaluate every spec against one epoch's sample; returns how many
    /// *new* firings (rising edges) this evaluation produced.
    pub fn evaluate(&mut self, epoch: u64, s: &ObsSample) -> u64 {
        let mut new = 0;
        for st in &mut self.specs {
            let (value, bound, firing) = match st.spec.threshold {
                Threshold::IoBalanceAbove(b) => {
                    let v = balance(&s.io_per_module);
                    let vol: u64 = s.io_per_module.iter().sum();
                    let support =
                        vol >= BALANCE_MIN_WORDS_PER_MODULE * s.io_per_module.len() as u64;
                    (v, b, support && v > b)
                }
                Threshold::ShedRateAbove(b) => {
                    let v = if s.serve.submitted == 0 {
                        0.0
                    } else {
                        s.serve.rejected as f64 / s.serve.submitted as f64
                    };
                    (v, b, v > b)
                }
                Threshold::QuarantinedAbove(b) => {
                    let v = s.quarantined;
                    (v as f64, b as f64, v > b)
                }
                Threshold::DescentRoundsAbove(c) => {
                    let b = c * ceil_log2(s.io_per_module.len());
                    (s.descend_rounds as f64, b as f64, s.descend_rounds > b)
                }
            };
            if firing && !st.active {
                self.fired.push(AlarmEvent {
                    name: st.spec.name,
                    epoch,
                    value: round6(value),
                    threshold: round6(bound),
                });
                new += 1;
            }
            st.active = firing;
        }
        new
    }

    /// All rising-edge firings, in evaluation order.
    pub fn fired(&self) -> &[AlarmEvent] {
        &self.fired
    }

    /// Total firings so far (what `ServeStats::alarms` accumulates).
    pub fn count(&self) -> u64 {
        self.fired.len() as u64
    }

    /// Render the firing log as an aligned table; `"(no alarms fired)"`
    /// when quiet.
    pub fn render(&self) -> String {
        if self.fired.is_empty() {
            return "(no alarms fired)\n".to_string();
        }
        let rows: Vec<Vec<String>> = self
            .fired
            .iter()
            .map(|e| {
                vec![
                    e.name.to_string(),
                    e.epoch.to_string(),
                    format!("{:.3}", e.value),
                    format!("{:.3}", e.threshold),
                ]
            })
            .collect();
        report::table(&["alarm", "epoch", "value", "threshold"], &rows)
    }
}

/// Minimum average words per module a window must move before
/// [`Threshold::IoBalanceAbove`] evaluates — balance over a near-empty
/// window is noise (one busy module out of P is "imbalance P" even
/// when the whole window was a dozen words).
pub const BALANCE_MIN_WORDS_PER_MODULE: u64 = 64;

/// The stock board the serving layer and `pimtrie-report` install:
/// skew (`io-balance > 3`), overload (`shed-rate > 0.2`) and fault
/// quarantine (`quarantined > 0`). Calibrated against X-skew / X-serve:
/// uniform batches sit near balance 1 and steady serving sheds nothing,
/// so the stock board is silent there; a Zipf batch on a
/// range-partitioned layout (balance 4+) or an overloaded queue (69 %
/// shed) crosses immediately.
/// [`Threshold::DescentRoundsAbove`] is not on it: the host matches
/// every batch against its master table and sends one `match.meta` round
/// straight to the deepest meta-blocks, so a healthy descent takes at
/// most one round at any `n` and the alarm could only fire on a broken
/// index. It is a monitor to install where that bound is the question,
/// not a stock alarm.
pub fn default_board() -> AlarmBoard {
    AlarmBoard::new(vec![
        AlarmSpec {
            name: "io-balance",
            threshold: Threshold::IoBalanceAbove(3.0),
        },
        AlarmSpec {
            name: "shed-rate",
            threshold: Threshold::ShedRateAbove(0.2),
        },
        AlarmSpec {
            name: "quarantine",
            threshold: Threshold::QuarantinedAbove(0),
        },
    ])
}

/// `⌈log₂ p⌉`, at least 1 (the figure `PimTrieConfig::for_modules` sizes
/// its thresholds by).
fn ceil_log2(p: usize) -> u64 {
    u64::from(p.max(2).next_power_of_two().trailing_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(io: Vec<u64>, submitted: u64, rejected: u64) -> ObsSample {
        let mut s = ObsSample {
            io_per_module: io,
            ..ObsSample::default()
        };
        s.serve.submitted = submitted;
        s.serve.rejected = rejected;
        s
    }

    #[test]
    fn edges_fire_once_per_incident() {
        let mut b = AlarmBoard::new(vec![AlarmSpec {
            name: "shed-rate",
            threshold: Threshold::ShedRateAbove(0.2),
        }]);
        assert_eq!(b.evaluate(0, &sample(vec![], 10, 0)), 0);
        assert_eq!(b.evaluate(1, &sample(vec![], 10, 5)), 1); // rising edge
        assert_eq!(b.evaluate(2, &sample(vec![], 10, 6)), 0); // still firing
        assert_eq!(b.evaluate(3, &sample(vec![], 100, 1)), 0); // recovered
        assert_eq!(b.evaluate(4, &sample(vec![], 10, 9)), 1); // new incident
        assert_eq!(b.count(), 2);
        assert_eq!(b.fired()[0].epoch, 1);
        assert_eq!(b.fired()[1].epoch, 4);
    }

    #[test]
    fn balance_and_quarantine_conditions() {
        let mut b = default_board();
        // balanced, unshed, healthy: silent
        assert_eq!(b.evaluate(0, &sample(vec![5, 5, 5, 5], 10, 0)), 0);
        // one module carrying everything: io-balance fires
        assert_eq!(b.evaluate(1, &sample(vec![2000, 0, 0, 0], 10, 0)), 1);
        assert_eq!(b.fired()[0].name, "io-balance");
        assert!((b.fired()[0].value - 4.0).abs() < 1e-9);
        // quarantine edge
        let mut s = sample(vec![5, 5, 5, 5], 10, 0);
        s.quarantined = 2;
        assert_eq!(b.evaluate(2, &s), 1);
        assert_eq!(b.fired().last().map(|e| e.name), Some("quarantine"));
        assert_eq!(b.count(), 2);
        // skewed but near-empty window: below the support floor, quiet
        let mut fresh = default_board();
        assert_eq!(fresh.evaluate(0, &sample(vec![20, 0, 0, 0], 10, 0)), 0);
    }

    /// `uniform-read` at P = 64, n = 131 072: the meta-block tree is 8
    /// levels high. Walking all of them by IO (every commit before the
    /// host held the top) is 8 > 1 · ⌈log₂ 64⌉ = 6 rounds; with levels
    /// 0–2 resident it was 5, and through the master table it is 1.
    #[test]
    fn descent_rounds_fire_past_log_p() {
        let mut b = AlarmBoard::new(vec![AlarmSpec {
            name: "descent-rounds",
            threshold: Threshold::DescentRoundsAbove(1),
        }]);
        let mut s = sample(vec![100; 64], 0, 0);
        s.descend_rounds = 5;
        assert_eq!(b.evaluate(0, &s), 0);
        s.descend_rounds = 8;
        assert_eq!(b.evaluate(1, &s), 1);
        assert_eq!((b.fired()[0].value, b.fired()[0].threshold), (8.0, 6.0));
        // the bound moves with P, not with the sample
        assert_eq!((ceil_log2(1), ceil_log2(8), ceil_log2(9)), (1, 3, 4));
    }

    #[test]
    fn render_formats() {
        let mut b = default_board();
        assert_eq!(b.render(), "(no alarms fired)\n");
        b.evaluate(7, &sample(vec![900, 0, 0, 0], 0, 0));
        let r = b.render();
        assert!(r.contains("io-balance"));
        assert!(r.contains("3.000"));
        assert_eq!(r, b.render());
    }
}
