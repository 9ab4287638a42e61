//! `pim-trace`: a hierarchical span/event layer over the cost meters.
//!
//! The meters in [`Metrics`] answer *how much* — rounds,
//! words, work. This module answers *where*: every BSP round is attributed
//! to an **op → phase → round** hierarchy so a trace can say "the `lcp`
//! batch spent 3 rounds and 41 words in `lcp/block-match`" instead of just
//! bumping a global counter.
//!
//! * **op** — one public batch operation (`lcp`, `insert`, `delete`,
//!   `subtree`, `get`, `build`, `recovery`, …). A span is opened only
//!   by [`in_op`], which closes it when its body returns. Ops nest: a
//!   rebuild triggered inside an insert records as the innermost op.
//! * **phase** — a named stage within the op (`lcp/hash-probe`,
//!   `insert/graft`, `recovery/retransmit`). Callers name the stage only
//!   (`hash-probe`); the tracer prefixes the innermost op. If no phase is
//!   set the round's own name is used, so no event is ever attributed to
//!   an *unknown* phase.
//!
//! Op and stage names are `&'static str`: the label set of a trace is
//! whatever the code spells out, never a function of the data.
//! * **round** — the BSP round label already carried by
//!   [`RoundRecord`].
//!
//! The tracer is owned by `Metrics` behind an `Option<Box<_>>`: when
//! tracing is off (the default) the hooks are a null-pointer check and the
//! metered counters are bit-identical to an uninstrumented run.
//!
//! Output: [`Tracer::to_jsonl`] dumps one JSON object per round event
//! (byte-deterministic for a fixed seed), and [`Tracer::summary_json`]
//! aggregates per-phase distributions — min/mean/max/p50/p99 of per-round
//! words and work, plus per-module skew ratios — matching the
//! load-balance lens of the paper's Figures 2–4.

// lint: allow-file(float-determinism) — report-side exposition: f64
// here only renders counters and ratios for humans and JSON; no
// metered decision branches on a float in this file

use std::collections::BTreeMap;

use crate::json::{round6, Json};
use crate::metrics::{balance, Metrics, RoundRecord};

/// Phase label resolved for a BSP round announced by
/// [`Tracer::note_retries`]: a round spent re-asking modules for replies
/// that were lost or corrupted on the wire.
pub const RETRANSMIT_PHASE: &str = "recovery/retransmit";

/// Fallback label when no op span is open (e.g. rounds run directly
/// against the raw simulator by tests).
const NO_OP: &str = "-";

/// Phase label for CPU work charged outside any explicit phase.
const HOST_PHASE: &str = "host";

/// One traced BSP round, attributed to its op/phase scope.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Monotone event number (0-based) within the tracer's lifetime.
    pub seq: u64,
    /// Innermost open op span when the round ran, or `"-"`.
    pub op: String,
    /// Resolved phase (explicit phase, retry phase, or the round name).
    pub phase: String,
    /// The round label from [`RoundRecord`].
    pub round: String,
    /// Max over modules of sent + received words this round.
    pub io_time: u64,
    /// Total words moved this round.
    pub io_volume: u64,
    /// Max module work this round.
    pub pim_time: u64,
    /// Words written CPU→module, per module.
    pub sent: Vec<u64>,
    /// Words read module→CPU, per module.
    pub received: Vec<u64>,
    /// Work units metered inside each module handler.
    pub pim_work: Vec<u64>,
    /// Extra work injected into each module by straggler faults this
    /// round (all zeros when no fault plan is active).
    pub straggler_delay: Vec<u64>,
}

impl TraceEvent {
    /// The event as a JSON object (one JSONL line, sans newline).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seq", Json::num(self.seq as f64)),
            ("op", Json::str(&*self.op)),
            ("phase", Json::str(&*self.phase)),
            ("round", Json::str(&*self.round)),
            ("io_time", Json::num(self.io_time as f64)),
            ("io_volume", Json::num(self.io_volume as f64)),
            ("pim_time", Json::num(self.pim_time as f64)),
            ("sent", nums(&self.sent)),
            ("received", nums(&self.received)),
            ("pim_work", nums(&self.pim_work)),
            ("straggler_delay", nums(&self.straggler_delay)),
        ])
    }

    /// The module that set this round's PIM barrier: the lowest-id module
    /// whose work equals the round's `pim_time`, or `None` when no module
    /// worked. Every barrier count in a report uses this one definition.
    pub fn barrier_module(&self) -> Option<usize> {
        if self.pim_time == 0 {
            return None;
        }
        self.pim_work.iter().position(|&w| w == self.pim_time)
    }
}

fn nums(v: &[u64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::num(x as f64)).collect())
}

/// Distribution summary of a per-round quantity within one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Dist {
    /// Number of samples summarized (0 ⇒ empty distribution).
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Smallest per-round value.
    pub min: u64,
    /// Largest per-round value.
    pub max: u64,
    /// Index of the sample holding `max` — when the samples are indexed
    /// by module id this is the id of the slowest (straggling) module.
    /// Ties resolve to the lowest index.
    pub argmax: u64,
    /// Arithmetic mean over rounds.
    pub mean: f64,
    /// Median (nearest-rank on the sorted values).
    pub p50: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
}

impl Dist {
    /// Summarize a set of per-round samples (empty ⇒ all zeros).
    pub fn from_samples(samples: &[u64]) -> Dist {
        if samples.is_empty() {
            return Dist::default();
        }
        let argmax = samples
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i as u64)
            .unwrap_or(0);
        let mut s = samples.to_vec();
        s.sort_unstable();
        let n = s.len();
        let pct = |q: f64| s[(((n - 1) as f64) * q).round() as usize];
        let sum = s.iter().sum::<u64>();
        Dist {
            count: n as u64,
            sum,
            min: s[0],
            max: s[n - 1],
            argmax,
            mean: sum as f64 / n as f64,
            p50: pct(0.50),
            p99: pct(0.99),
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("count", Json::num(self.count as f64)),
            ("sum", Json::num(self.sum as f64)),
            ("min", Json::num(self.min as f64)),
            ("max", Json::num(self.max as f64)),
            ("argmax", Json::num(self.argmax as f64)),
            ("mean", Json::num(self.mean)),
            ("p50", Json::num(self.p50 as f64)),
            ("p99", Json::num(self.p99 as f64)),
        ])
    }
}

/// Aggregated costs of one (op, phase) scope across a trace. The
/// per-module vectors are indexed by module id and empty for a row that
/// ran no round.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSummary {
    /// Op span the phase ran under.
    pub op: String,
    /// Phase label.
    pub phase: String,
    /// BSP rounds attributed to this phase.
    pub rounds: u64,
    /// Σ per-round maxima of module traffic.
    pub io_time: u64,
    /// Total words moved.
    pub io_volume: u64,
    /// Σ per-round maxima of module work.
    pub pim_time: u64,
    /// Host work charged while this phase was current.
    pub cpu_work: u64,
    /// Recovery retries issued while this phase was current.
    pub retries: u64,
    /// Distribution of per-round IO time (max module words).
    pub words_per_round: Dist,
    /// Distribution of per-round PIM time (max module work).
    pub work_per_round: Dist,
    /// Words written CPU→module, per module.
    pub sent: Vec<u64>,
    /// Words read module→CPU, per module.
    pub received: Vec<u64>,
    /// Work metered inside each module handler (straggler delay included).
    pub work: Vec<u64>,
    /// Straggler-fault delay injected into each module.
    pub straggler_delay: Vec<u64>,
    /// Rounds whose PIM barrier each module set
    /// ([`TraceEvent::barrier_module`]).
    pub barriers: Vec<u64>,
}

impl PhaseSummary {
    /// Words each module moved: sent + received.
    pub fn io_per_module(&self) -> Vec<u64> {
        self.sent
            .iter()
            .zip(&self.received)
            .map(|(s, r)| s + r)
            .collect()
    }

    /// The summary as a JSON object. `io_skew`/`pim_skew` are the
    /// [`balance`] of per-module words and work, and
    /// `io_worst_module`/`pim_worst_module` the module holding each
    /// maximum (ties → lowest id; 0 for a round-less row).
    pub fn to_json(&self) -> Json {
        let io = self.io_per_module();
        Json::obj(vec![
            ("op", Json::str(&*self.op)),
            ("phase", Json::str(&*self.phase)),
            ("rounds", Json::num(self.rounds as f64)),
            ("io_time", Json::num(self.io_time as f64)),
            ("io_volume", Json::num(self.io_volume as f64)),
            ("pim_time", Json::num(self.pim_time as f64)),
            ("cpu_work", Json::num(self.cpu_work as f64)),
            ("retries", Json::num(self.retries as f64)),
            ("words_per_round", self.words_per_round.to_json()),
            ("work_per_round", self.work_per_round.to_json()),
            ("io_skew", Json::num(round6(balance(&io)))),
            ("pim_skew", Json::num(round6(balance(&self.work)))),
            (
                "io_worst_module",
                Json::num(Dist::from_samples(&io).argmax as f64),
            ),
            (
                "pim_worst_module",
                Json::num(Dist::from_samples(&self.work).argmax as f64),
            ),
            (
                "straggler_delay",
                Json::num(self.straggler_delay.iter().sum::<u64>() as f64),
            ),
        ])
    }
}

/// Records op/phase-attributed round events and scope-attributed CPU and
/// retry counters. Owned by [`Metrics`]; obtain one via
/// [`Metrics::enable_tracing`].
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    events: Vec<TraceEvent>,
    op_stack: Vec<&'static str>,
    /// the stage set by [`Tracer::set_phase`], without its op prefix
    phase: Option<&'static str>,
    /// set by [`Tracer::note_retries`]; the next round consumes it
    retransmit: bool,
    cpu_by_scope: BTreeMap<(String, String), u64>,
    retries_by_scope: BTreeMap<(String, String), u64>,
    seq: u64,
}

impl Tracer {
    /// A fresh tracer with no open spans.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Open an op span. Clears any phase left over from a previous op.
    /// Spans are opened only through [`in_op`], which closes them.
    pub(crate) fn begin_op(&mut self, op: &'static str) {
        self.op_stack.push(op);
        self.phase = None;
    }

    /// Close the innermost op span (and clear the current phase).
    pub(crate) fn end_op(&mut self) {
        self.op_stack.pop();
        self.phase = None;
    }

    /// Set the sticky stage of the current op; subsequent rounds resolve
    /// to `<op>/<stage>` (bare `stage` outside any op span). Opening or
    /// closing an op clears it.
    pub fn set_phase(&mut self, stage: &'static str) {
        self.phase = Some(stage);
    }

    /// Clear the sticky phase; rounds fall back to their own names.
    pub fn clear_phase(&mut self) {
        self.phase = None;
    }

    /// Innermost open op, or `"-"` when none.
    pub fn current_op(&self) -> &'static str {
        self.op_stack.last().copied().unwrap_or(NO_OP)
    }

    /// The phase label rounds and charges resolve to now, with `fallback`
    /// standing in when no stage is set.
    fn resolve_phase(&self, fallback: &str) -> String {
        match (self.retransmit, self.phase, self.op_stack.last()) {
            (true, _, _) => RETRANSMIT_PHASE.to_string(),
            (false, Some(stage), Some(op)) => format!("{op}/{stage}"),
            (false, Some(stage), None) => stage.to_string(),
            (false, None, _) => fallback.to_string(),
        }
    }

    fn scope(&self) -> (String, String) {
        (
            self.current_op().to_string(),
            self.resolve_phase(HOST_PHASE),
        )
    }

    pub(crate) fn on_round(&mut self, rec: &RoundRecord) {
        let ev = TraceEvent {
            seq: self.seq,
            op: self.current_op().to_string(),
            phase: self.resolve_phase(&rec.name),
            round: rec.name.clone(),
            io_time: rec.io_time(),
            io_volume: rec.io_volume(),
            pim_time: rec.pim_time(),
            sent: rec.sent.clone(),
            received: rec.received.clone(),
            pim_work: rec.pim_work.clone(),
            straggler_delay: rec.straggler_delay.clone(),
        };
        self.retransmit = false;
        self.seq += 1;
        self.events.push(ev);
    }

    pub(crate) fn on_cpu(&mut self, units: u64) {
        *self.cpu_by_scope.entry(self.scope()).or_insert(0) += units;
    }

    /// Announce that the next round re-sends `n` messages whose replies
    /// were lost or corrupted. That one round resolves to
    /// [`RETRANSMIT_PHASE`] *without* disturbing the sticky phase, so a
    /// recovery ladder nested inside `insert/graft` tags its retries as
    /// `recovery/retransmit` and the round after resumes graft
    /// attribution. The `n` retries count under that scope too.
    pub fn note_retries(&mut self, n: u64) {
        self.retransmit = true;
        if n > 0 {
            *self.retries_by_scope.entry(self.scope()).or_insert(0) += n;
        }
    }

    /// All round events so far, in execution order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The event log as JSONL: one compact JSON object per line,
    /// byte-deterministic for a fixed seed and module count.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_json().dump());
            out.push('\n');
        }
        out
    }

    /// Per-(op, phase) aggregates over the whole trace, sorted by op then
    /// phase. Scopes that only charged CPU (no rounds) still appear. This
    /// is the one fold over the events: reports attribute rounds, time
    /// and barriers to phases and modules from its rows.
    pub fn phase_summaries(&self) -> Vec<PhaseSummary> {
        #[derive(Default)]
        struct Acc {
            io_times: Vec<u64>,
            pim_times: Vec<u64>,
            io_volume: u64,
            sent: Vec<u64>,
            received: Vec<u64>,
            work: Vec<u64>,
            straggler_delay: Vec<u64>,
            barriers: Vec<u64>,
        }
        let add = |acc: &mut Vec<u64>, v: &[u64]| {
            acc.resize(acc.len().max(v.len()), 0);
            acc.iter_mut().zip(v).for_each(|(a, x)| *a += x);
        };
        let mut accs: BTreeMap<(String, String), Acc> = BTreeMap::new();
        for ev in &self.events {
            let acc = accs.entry((ev.op.clone(), ev.phase.clone())).or_default();
            acc.io_times.push(ev.io_time);
            acc.pim_times.push(ev.pim_time);
            acc.io_volume += ev.io_volume;
            add(&mut acc.sent, &ev.sent);
            add(&mut acc.received, &ev.received);
            add(&mut acc.work, &ev.pim_work);
            add(&mut acc.straggler_delay, &ev.straggler_delay);
            acc.barriers.resize(acc.work.len(), 0);
            if let Some(m) = ev.barrier_module() {
                acc.barriers[m] += 1;
            }
        }
        // CPU-only and retry-only scopes still get a (round-less) row.
        for key in self.cpu_by_scope.keys().chain(self.retries_by_scope.keys()) {
            accs.entry(key.clone()).or_default();
        }
        accs.into_iter()
            .map(|((op, phase), acc)| {
                let key = (op.clone(), phase.clone());
                PhaseSummary {
                    rounds: acc.io_times.len() as u64,
                    io_time: acc.io_times.iter().sum(),
                    io_volume: acc.io_volume,
                    pim_time: acc.pim_times.iter().sum(),
                    cpu_work: self.cpu_by_scope.get(&key).copied().unwrap_or(0),
                    retries: self.retries_by_scope.get(&key).copied().unwrap_or(0),
                    words_per_round: Dist::from_samples(&acc.io_times),
                    work_per_round: Dist::from_samples(&acc.pim_times),
                    sent: acc.sent,
                    received: acc.received,
                    work: acc.work,
                    straggler_delay: acc.straggler_delay,
                    barriers: acc.barriers,
                    op,
                    phase,
                }
            })
            .collect()
    }

    /// The phase summaries as one JSON document:
    /// `{"events": N, "phases": [...]}`.
    pub fn summary_json(&self) -> Json {
        Json::obj(vec![
            ("events", Json::num(self.events.len() as f64)),
            (
                "phases",
                Json::Arr(self.phase_summaries().iter().map(|s| s.to_json()).collect()),
            ),
        ])
    }
}

/// Run `body` inside the op span `op` on the tracer that `metrics`
/// reaches from `owner` — the one way to open a span. The span opens
/// before `body` runs and closes once it returns, on every return path
/// of `body`, so a span can never be left open. Ops nest: a span opened
/// inside `body` records as the innermost op. With tracing off this is
/// a plain call of `body`.
pub fn in_op<S, R>(
    owner: &mut S,
    metrics: impl Fn(&mut S) -> &mut Metrics,
    op: &'static str,
    body: impl FnOnce(&mut S) -> R,
) -> R {
    if let Some(t) = metrics(owner).tracer_mut() {
        t.begin_op(op);
    }
    let out = body(owner);
    if let Some(t) = metrics(owner).tracer_mut() {
        t.end_op();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, sent: Vec<u64>, received: Vec<u64>, pim: Vec<u64>) -> RoundRecord {
        let delay = vec![0; pim.len()];
        RoundRecord {
            name: name.into(),
            sent,
            received,
            pim_work: pim,
            straggler_delay: delay,
        }
    }

    #[test]
    fn rounds_resolve_op_and_phase() {
        let mut t = Tracer::new();
        t.on_round(&rec("raw", vec![1], vec![0], vec![0]));
        t.begin_op("lcp");
        t.set_phase("hash-probe");
        t.on_round(&rec("match.meta.pull", vec![2], vec![2], vec![1]));
        t.clear_phase();
        t.on_round(&rec("match.meta.pull", vec![1], vec![1], vec![0]));
        t.end_op();
        let ev = t.events();
        assert_eq!((ev[0].op.as_str(), ev[0].phase.as_str()), ("-", "raw"));
        assert_eq!(ev[1].op, "lcp");
        assert_eq!(ev[1].phase, "lcp/hash-probe");
        // cleared phase falls back to the round's own name
        assert_eq!(ev[2].phase, "match.meta.pull");
        assert_eq!((ev[0].seq, ev[1].seq, ev[2].seq), (0, 1, 2));
    }

    #[test]
    fn retry_mode_overrides_but_preserves_phase() {
        let mut t = Tracer::new();
        t.begin_op("insert");
        t.set_phase("graft");
        t.note_retries(2);
        t.on_round(&rec("insert.graft", vec![1], vec![1], vec![1]));
        // the mark covers one round only
        t.on_round(&rec("insert.graft", vec![1], vec![1], vec![1]));
        assert_eq!(t.events()[0].phase, RETRANSMIT_PHASE);
        assert_eq!(t.events()[1].phase, "insert/graft");
        let sums = t.phase_summaries();
        let retry_row = sums.iter().find(|s| s.phase == RETRANSMIT_PHASE).unwrap();
        assert_eq!(retry_row.retries, 2);
        assert_eq!(retry_row.rounds, 1);
    }

    #[test]
    fn ops_nest() {
        let mut t = Tracer::new();
        t.begin_op("insert");
        t.begin_op("recovery");
        t.set_phase("rebuild");
        t.on_round(&rec("recover.reset", vec![1], vec![0], vec![0]));
        t.end_op();
        assert_eq!(t.events()[0].op, "recovery");
        // the stage is prefixed with the op it was set under
        assert_eq!(t.events()[0].phase, "recovery/rebuild");
        assert_eq!(t.current_op(), "insert");
    }

    #[test]
    fn in_op_closes_its_span_on_every_return() {
        let mut m = Metrics::new(1);
        m.enable_tracing();
        let op = |m: &mut Metrics| m.tracer().map(Tracer::current_op);
        let early: Result<u32, ()> = in_op(
            &mut m,
            |m| m,
            "insert",
            |m| {
                let seen = in_op(m, |m| m, "recovery", |m| op(m));
                assert_eq!(seen, Some("recovery"));
                assert_eq!(op(m), Some("insert"));
                Err(())
            },
        );
        assert!(early.is_err());
        assert_eq!(op(&mut m), Some("-"));
        // tracing off: the body still runs, nothing is recorded
        let mut off = Metrics::new(1);
        assert_eq!(in_op(&mut off, |m| m, "get", |_| 7), 7);
        assert!(off.tracer().is_none());
    }

    #[test]
    fn dist_and_skew() {
        let d = Dist::from_samples(&[4, 1, 3, 2]);
        assert_eq!((d.min, d.max, d.p50, d.p99), (1, 4, 3, 4));
        assert_eq!((d.count, d.sum, d.argmax), (4, 10, 0));
        assert!((d.mean - 2.5).abs() < 1e-9);
        assert_eq!(Dist::from_samples(&[]), Dist::default());
        // argmax is the original index of the max; ties pick the lowest
        assert_eq!(Dist::from_samples(&[1, 9, 9, 2]).argmax, 1);
        assert_eq!(Dist::from_samples(&[0, 0, 7]).argmax, 2);

        let mut t = Tracer::new();
        t.begin_op("get");
        t.set_phase("read");
        t.on_round(&rec("get.read", vec![3, 1], vec![3, 1], vec![4, 0]));
        let s = t.phase_summaries()[0].to_json();
        let num = |k: &str| s.get(k).and_then(Json::as_num);
        assert_eq!(num("io_skew"), Some(1.5)); // [6,2] → 6/4
        assert_eq!(num("pim_skew"), Some(2.0)); // [4,0] → 4/2
        assert_eq!(num("io_worst_module"), Some(0.0));
        assert_eq!(num("pim_worst_module"), Some(0.0));
    }

    #[test]
    fn barrier_goes_to_the_lowest_id_module_at_pim_time() {
        let mut t = Tracer::new();
        // most words on m0, most work on m1: m1 set the barrier
        t.on_round(&rec("a", vec![9, 0, 0], vec![0, 0, 0], vec![1, 5, 0]));
        // m1 and m2 tie on work: the lower id alone is credited
        t.on_round(&rec("a", vec![0, 0, 0], vec![0, 0, 0], vec![2, 3, 3]));
        // no module worked: nobody set a PIM barrier
        t.on_round(&rec("a", vec![1, 1, 1], vec![0, 0, 0], vec![0, 0, 0]));
        let ev = t.events();
        let set: Vec<Option<usize>> = ev.iter().map(TraceEvent::barrier_module).collect();
        assert_eq!(set, vec![Some(1), Some(1), None]);
        let s = &t.phase_summaries()[0];
        assert_eq!(s.barriers, vec![0, 2, 0]);
        assert_eq!(s.work, vec![3, 8, 3]);
        assert_eq!(s.io_per_module(), vec![10, 1, 1]);
    }

    #[test]
    fn jsonl_is_parseable_and_deterministic() {
        let build = || {
            let mut t = Tracer::new();
            t.begin_op("lcp");
            t.set_phase("block-match");
            t.on_round(&rec("match.block.pull", vec![5, 0], vec![2, 1], vec![3, 3]));
            t.on_cpu(7);
            t
        };
        let (a, b) = (build(), build());
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.summary_json().dump(), b.summary_json().dump());
        for line in a.to_jsonl().lines() {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.get("op").unwrap().as_str(), Some("lcp"));
        }
        let sum = a.summary_json();
        let row = &sum.get("phases").unwrap().as_arr().unwrap()[0];
        assert_eq!(row.get("cpu_work").unwrap().as_num(), Some(7.0));
    }

    #[test]
    fn cpu_only_scope_appears_in_summary() {
        let mut t = Tracer::new();
        t.begin_op("delete");
        t.on_cpu(5);
        let sums = t.phase_summaries();
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].op, "delete");
        assert_eq!(sums[0].phase, "host");
        assert_eq!(sums[0].cpu_work, 5);
        assert_eq!(sums[0].rounds, 0);
        assert!(sums[0].work.is_empty() && sums[0].barriers.is_empty());
        assert_eq!(
            sums[0].to_json().get("io_skew").and_then(Json::as_num),
            Some(1.0)
        );
    }
}
