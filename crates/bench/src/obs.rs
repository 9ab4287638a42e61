//! X-obs — diagnosis-grade observability over the canonical skew and
//! serve experiments.
//!
//! Re-runs the two scenarios whose contrast carries the paper's story —
//! LCP batches under skew (pim-trie vs. the range-partitioned baseline)
//! and closed-loop serving (steady vs. overload) — with tracing and a
//! [`obs::AlarmBoard`] enabled, then renders what the `obs` crate
//! diagnoses: per-phase critical paths, per-module timelines, alarm
//! firings, and folded stacks for flamegraph tooling. Everything is byte-deterministic for fixed
//! `(p, quick)` at any thread count.
//!
//! Coverage note: the report traces pim-trie and range-part only; the
//! dist-radix baseline and the θ=0.8/1.2 skew levels stay in the plain
//! `skew` experiment so the report stays readable and CI-fast.

use crate::{values_for, zipf_over_keys, Row};
use baselines::RangePartitioned;
use bitstr::BitStr;
use obs::{critical, default_board, report, ObsSample, Timeline};
use pim_sim::{MetricsDelta, ResidentStats, Tracer};
use pim_trie::{PimTrie, PimTrieConfig};

/// Everything one `pimtrie-report` invocation produces.
pub struct ObsReport {
    /// The human-readable report (critical paths, timelines, alarms) —
    /// byte-deterministic across runs and thread counts.
    pub text: String,
    /// Folded stacks (`root;op;phase time` per line), flamegraph.pl /
    /// speedscope compatible.
    pub folded: String,
    /// Summary rows for the skew section (one per structure × workload).
    pub skew_rows: Vec<Row>,
    /// Summary rows for the serve section (one per scenario).
    pub serve_rows: Vec<Row>,
}

/// One traced run's raw material for the report.
struct TracedRun {
    tag: String,
    tracer: Box<Tracer>,
    delta: MetricsDelta,
    alarms: u64,
    alarm_text: String,
    /// the index's resident-top counters (pim-trie runs only)
    resident: Option<ResidentStats>,
}

fn run_skew_case(
    tag: &str,
    tracer: Box<Tracer>,
    delta: MetricsDelta,
    resident: Option<ResidentStats>,
) -> TracedRun {
    let mut board = default_board();
    let fired = board.evaluate(
        0,
        &ObsSample {
            io_per_module: delta.io_per_module.clone(),
            ..ObsSample::default()
        },
    );
    TracedRun {
        tag: tag.to_string(),
        tracer,
        delta,
        alarms: fired,
        alarm_text: board.render(),
        resident,
    }
}

/// Trace both structures' LCP batches under the X-obs workloads and
/// evaluate the default alarm board on each window.
fn skew_runs(p: usize, quick: bool) -> Vec<TracedRun> {
    let n = if quick { 1 << 13 } else { 1 << 14 };
    let bsz = if quick { 1 << 12 } else { 1 << 13 };
    let keys = workloads::uniform_fixed(n, 96, 31);
    let vals = values_for(&keys);

    let batches: Vec<(&str, Vec<BitStr>)> = vec![
        ("uniform", workloads::uniform_fixed(bsz, 96, 32)),
        ("zipf0.99", zipf_over_keys(&keys, bsz, 0.99, 33)),
        (
            "same-path",
            workloads::same_path_queries(&keys[7], bsz, 32, 35),
        ),
    ];

    let mut runs = Vec::new();
    for (tag, batch) in &batches {
        let mut pim = PimTrie::build(PimTrieConfig::for_modules(p).with_seed(36), &keys, &vals);
        pim.enable_tracing();
        let snap = pim.system().metrics().snapshot();
        let _ = pim.lcp_batch(batch);
        let delta = pim.system().metrics().since(&snap);
        let tracer = pim
            .system_mut()
            .metrics_mut()
            .take_tracer()
            .unwrap_or_default();
        runs.push(run_skew_case(
            &format!("pim-trie/{tag}"),
            tracer,
            delta,
            Some(pim.resident_stats().clone()),
        ));

        let mut range = RangePartitioned::build(p, &keys, &vals);
        range.system_mut().metrics_mut().enable_tracing();
        let snap = range.system().metrics().snapshot();
        let _ = range.lcp_batch(batch);
        let delta = range.system().metrics().since(&snap);
        let tracer = range
            .system_mut()
            .metrics_mut()
            .take_tracer()
            .unwrap_or_default();
        runs.push(run_skew_case(
            &format!("range-part/{tag}"),
            tracer,
            delta,
            None,
        ));
    }
    runs
}

/// One serve scenario run with the default alarm board installed.
struct ServeRun {
    tag: &'static str,
    stats: pim_sim::ServeStats,
    alarm_text: String,
}

/// Re-run the steady and overload serving scenarios with the default
/// alarm board installed (the deadline scenario adds nothing the alarm
/// board watches, so it stays in the plain `serve` experiment).
fn serve_runs(p: usize, quick: bool) -> Vec<ServeRun> {
    use serve::{run_closed_loop, ServeConfig, Server};
    use workloads::{closed_loop_scripts, ClosedLoopSpec};

    let n = if quick { 1 << 10 } else { 1 << 12 };
    let ops = if quick { 15 } else { 40 };
    let clients = 16;
    let keys = workloads::uniform_var(n, 8, 64, 71);
    let vals = values_for(&keys);

    let scenarios: [(&str, usize, usize, f64); 2] =
        [("steady", clients * 2, 8, 200.0), ("overload", 4, 2, 25.0)];
    let mut runs = Vec::new();
    for (tag, cap, epoch_max, think) in scenarios {
        let mut trie = PimTrie::new(PimTrieConfig::for_modules(p).with_seed(42));
        trie.insert_batch(&keys, &vals);
        let spec = ClosedLoopSpec {
            clients,
            ops_per_client: ops,
            theta: 0.9,
            mean_think: think,
            deadline: u64::MAX,
            write_frac: 0.1,
        };
        let scripts = closed_loop_scripts(&spec, &keys, 73);
        let mut srv = Server::new(
            trie,
            ServeConfig::default()
                .with_queue_cap(cap)
                .with_epoch_max(epoch_max),
        );
        srv.install_alarms(default_board());
        let rep = run_closed_loop(&mut srv, &scripts);
        let alarm_text = match srv.take_alarms() {
            Some(board) => board.render(),
            None => String::new(),
        };
        runs.push(ServeRun {
            tag,
            stats: rep.stats,
            alarm_text,
        });
    }
    runs
}

fn diagnosis_lines(crit: &critical::CriticalReport, tl: &Timeline) -> String {
    let mut out = String::new();
    match crit.top_phase() {
        Some(top) => {
            let share = if crit.total_time > 0 {
                top.time as f64 / crit.total_time as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "top phase: {}:{} ({} of {} time units, share {:.3})\n",
                top.op, top.phase, top.time, crit.total_time, share
            ));
        }
        None => out.push_str("top phase: (no rounds traced)\n"),
    }
    if let Some(w) = crit.worst_balance() {
        out.push_str(&format!(
            "worst balance: {}:{} at {:.6} (module m{})\n",
            w.op, w.phase, w.balance, w.worst_module
        ));
    }
    if let Some(m) = tl.bottleneck() {
        out.push_str(&format!(
            "bottleneck module: m{m} (sets the most barriers)\n"
        ));
    }
    if tl.straggler_delay() > 0 {
        out.push_str(&format!(
            "straggler delay: {} time units of injected slowdown\n",
            tl.straggler_delay()
        ));
    }
    out
}

/// Build the full X-obs report: skew + serve sections, folded stacks,
/// and the summary rows `repro --json` records.
pub fn obs_report(p: usize, quick: bool) -> ObsReport {
    let mut text = String::new();
    let mut folded = String::new();
    let mut skew_rows = Vec::new();
    let mut serve_rows = Vec::new();

    text.push_str(&format!(
        "pimtrie-report (P = {p}{})\n",
        if quick { ", quick" } else { "" }
    ));

    text.push_str("\n== X-obs/skew — critical paths and timelines under skew ==\n");
    for run in skew_runs(p, quick) {
        let rows = run.tracer.phase_summaries();
        let crit = critical::analyze(&rows);
        let tl = Timeline::from_phases(&rows);

        text.push_str(&format!("\n-- {} --\n", run.tag));
        text.push_str(&diagnosis_lines(&crit, &tl));
        if let Some(r) = &run.resident {
            text.push_str(&format!(
                "resident top: {} words held (high-water {}), {} fills of {} words, \
                 {} invalidations, {} targets matched on the host\n",
                r.words, r.words_high_water, r.fills, r.fill_words, r.invalidations, r.host_matches
            ));
        }
        if run.alarms > 0 {
            text.push_str("alarms:\n");
        }
        text.push_str(&run.alarm_text);
        text.push_str(&crit.render());
        text.push_str(&tl.render());

        folded.push_str(&report::folded(&run.tag, &crit.phases));
        skew_rows.push(
            Row::new(run.tag)
                .col("io_rounds", run.delta.io_rounds as f64)
                .col("io_time", run.delta.io_time as f64)
                .col("pim_time", run.delta.pim_time as f64)
                .col("balance", run.delta.io_balance())
                .col("alarms", run.alarms as f64),
        );
    }

    text.push_str("\n== X-obs/serve — alarm board over serving scenarios ==\n");
    for run in serve_runs(p, quick) {
        let s = &run.stats;
        let shed = if s.submitted > 0 {
            s.rejected as f64 / s.submitted as f64
        } else {
            0.0
        };
        text.push_str(&format!(
            "\n-- {} --\nsubmitted {} rejected {} (shed rate {:.6}) epochs {} alarms {}\n",
            run.tag, s.submitted, s.rejected, shed, s.epochs, s.alarms
        ));
        text.push_str(&run.alarm_text);
        serve_rows.push(
            Row::new(run.tag)
                .col("submitted", s.submitted as f64)
                .col("rejected", s.rejected as f64)
                .col("shed_rate", shed)
                .col("epochs", s.epochs as f64)
                .col("alarms", s.alarms as f64),
        );
    }

    ObsReport {
        text,
        folded,
        skew_rows,
        serve_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_diagnoses_and_alarms() {
        let r = obs_report(8, true);
        // names a top phase and a worst-balance module per traced run
        assert!(r.text.contains("top phase: lcp:"));
        assert!(r.text.contains("worst balance:"));
        // the balance alarm fires on the skewed range-part runs and the
        // shed-rate alarm on overload, and both stay quiet on the
        // benign counterparts
        let skew_alarm = |label: &str| {
            r.skew_rows
                .iter()
                .find(|row| row.label == label)
                .and_then(|row| row.cols.iter().find(|(n, _)| *n == "alarms").map(|c| c.1))
        };
        assert_eq!(skew_alarm("pim-trie/uniform"), Some(0.0));
        assert_eq!(skew_alarm("range-part/uniform"), Some(0.0));
        assert_eq!(skew_alarm("range-part/same-path"), Some(1.0));
        let serve_alarm = |label: &str| {
            r.serve_rows
                .iter()
                .find(|row| row.label == label)
                .and_then(|row| row.cols.iter().find(|(n, _)| *n == "alarms").map(|c| c.1))
        };
        assert_eq!(serve_alarm("steady"), Some(0.0));
        assert!(serve_alarm("overload").unwrap_or(0.0) >= 1.0);
        // folded stacks carry every traced structure/workload root
        assert!(r.folded.contains("pim-trie/zipf0.99;lcp;"));
        assert!(r.folded.contains("range-part/same-path;"));
    }

    #[test]
    fn report_is_deterministic_across_runs() {
        let a = obs_report(4, true);
        let b = obs_report(4, true);
        assert_eq!(a.text, b.text);
        assert_eq!(a.folded, b.folded);
    }
}
