//! The repository's benchmark.
//!
//! It reads two clocks and always says which: **host** wall-clock of
//! this simulator and serving stack, and **sim**ulated PIM-Model cost.
//! A run with tracing off gives the end-to-end metrics; a traced run of
//! the same schedule gives the per-layer metrics by timing calls into
//! each layer's public functions from outside. Every reply is checked
//! against the sequential `trie_core::Trie` oracle, outside the timed
//! regions. `README.md` in this directory has the tables.

#![warn(missing_docs)]

pub mod batch;
pub mod compare;
pub mod layers;
pub mod machine;
pub mod serving;
pub mod simsplit;
pub mod spans;
pub mod spec;
pub mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use pim_sim::Json;

use spans::Spans;
use spec::{Scale, Workload};

/// What one run is asked to do.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// which workload
    pub workload: Workload,
    /// feeds the generators only; the program under test sees keys
    pub seed: u64,
    /// how long to measure, in host seconds
    pub seconds: f64,
    /// traced run (per-layer metrics) or not (end-to-end metrics)
    pub trace: bool,
    /// problem size
    pub scale: Scale,
    /// rayon threads; never more than the machine has
    pub threads: usize,
    /// where `result-*.json` and `trace-*.jsonl` go
    pub out_dir: PathBuf,
}

impl RunArgs {
    /// Full scale, tracing off, seed 1, two threads (or one on a
    /// one-core machine), output under this package's `out/`.
    pub fn new(workload: Workload) -> RunArgs {
        RunArgs {
            workload,
            seed: 1,
            seconds: 10.0,
            trace: false,
            scale: Scale::Full,
            threads: machine::nproc().min(2),
            out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        }
    }
}

/// What a run measured: ops attempted and failed, metrics by name, and
/// notes that go into the result file but not the metric set.
#[derive(Debug)]
pub struct Measured {
    /// ops whose outcome was checked
    pub attempted: u64,
    /// ops whose outcome differed from the oracle, or erred
    pub failed: u64,
    metrics: BTreeMap<String, f64>,
    notes: Vec<(String, Json)>,
}

impl Measured {
    /// No metrics yet.
    pub fn new(attempted: u64, failed: u64) -> Measured {
        Measured {
            attempted,
            failed,
            metrics: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// The end-to-end metrics every untraced run reports (all but
    /// `peak_rss_mib`, read when the run ends): `setup_secs` one per
    /// set-up, `rates` ops per host second of each timed cycle, `sim`
    /// the counters summed over the counted cycles.
    pub fn end_to_end(
        attempted: u64,
        failed: u64,
        setup_secs: &[f64],
        rates: &[f64],
        sim: &stats::SimSum,
        space_words_per_key: f64,
    ) -> Measured {
        let mut m = Measured::new(attempted, failed);
        m.set("setup_s", stats::median(setup_secs));
        m.set("ops_per_s", stats::median(rates));
        sim.set_metrics(&mut m, "");
        m.set("sim_space_words_per_key", space_words_per_key);
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::num(x)).collect());
        m.note("setup_s_samples", nums(setup_secs));
        m.note("cycles", Json::num(rates.len() as f64));
        m.note("cycle_ops_per_s", nums(rates));
        m
    }

    /// Record a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// The metric's value, if the run set it.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Attach a note to the result file.
    pub fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_string(), value));
    }
}

/// A finished run: the line the driver reads and the full record.
pub struct RunOutput {
    /// `{"correct", "attempted", "failed", "metrics"}` — the last line
    /// of standard output
    pub summary: Json,
    /// the summary plus machine, arguments and notes
    pub record: Json,
}

/// The declared metrics of this kind of run, each with the measured
/// value (0 for a layer the workload does not run).
fn declared_metrics(measured: &Measured, trace: bool) -> Json {
    let declared: Vec<(String, &str)> = if trace {
        spec::per_layer()
    } else {
        spec::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for name in measured.metrics.keys() {
        assert!(
            declared.iter().any(|(d, _)| d == name),
            "metric {name} is not declared in spec.rs"
        );
    }
    Json::Obj(
        declared
            .into_iter()
            .map(|(name, unit)| {
                let value = measured.get(&name).unwrap_or(0.0);
                let entry = Json::obj(vec![("value", Json::num(value)), ("unit", Json::str(unit))]);
                (name, entry)
            })
            .collect(),
    )
}

/// Run one workload once and write its result (and, traced, its span)
/// files.
pub fn run(args: &RunArgs) -> std::io::Result<RunOutput> {
    let mut spans = Spans::new(args.trace);
    let mut measured = pim_trie::with_threads(args.threads, || match (args.workload, args.trace) {
        (Workload::ServeMixed, false) => serving::run_untraced(args, &mut spans),
        (Workload::ServeMixed, true) => serving::run_traced(args, &mut spans),
        (_, false) => batch::run_untraced(args, &mut spans),
        (_, true) => batch::run_traced(args, &mut spans),
    });
    if !args.trace {
        measured.set("peak_rss_mib", machine::peak_rss_mib());
    }

    let summary = Json::obj(vec![
        ("correct", Json::Bool(measured.failed == 0)),
        ("attempted", Json::num(measured.attempted as f64)),
        ("failed", Json::num(measured.failed as f64)),
        ("metrics", declared_metrics(&measured, args.trace)),
    ]);
    let mut record = vec![
        ("workload".to_string(), Json::str(args.workload.name())),
        ("seed".to_string(), Json::num(args.seed as f64)),
        ("seconds".to_string(), Json::num(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("scale".to_string(), Json::str(args.scale.name())),
        ("machine".to_string(), machine::record(args.threads)),
        ("result".to_string(), summary.clone()),
    ];
    record.push(("notes".to_string(), Json::Obj(measured.notes)));
    if args.trace {
        record.push(("span_self_ms".to_string(), spans.self_ms_by_name()));
    }
    let record = Json::Obj(record);

    std::fs::create_dir_all(&args.out_dir)?;
    let suffix = if args.trace { "-traced" } else { "" };
    let result_path = args
        .out_dir
        .join(format!("result-{}{suffix}.json", args.workload));
    std::fs::write(result_path, record.dump() + "\n")?;
    if args.trace {
        let trace_path = args.out_dir.join(format!("trace-{}.jsonl", args.workload));
        std::fs::write(trace_path, spans.to_jsonl())?;
    }
    Ok(RunOutput { summary, record })
}

/// Print the record for people: machine, arguments, then every metric
/// by name with its unit, then the notes and span self times.
pub fn print_human(record: &Json) {
    let field = |k: &str| record.get(k).map(Json::dump).unwrap_or_default();
    println!(
        "workload {} seed {} scale {} trace {} seconds {}",
        field("workload"),
        field("seed"),
        field("scale"),
        field("trace"),
        field("seconds")
    );
    println!("machine {}", field("machine"));
    if let Some(Json::Obj(metrics)) = record.get("result").and_then(|r| r.get("metrics")) {
        for (name, entry) in metrics {
            let value = entry.get("value").and_then(Json::as_num).unwrap_or(0.0);
            let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("  {name:<48} {value:>16.4} {unit}");
        }
    }
    for key in ["notes", "span_self_ms"] {
        if let Some(Json::Obj(pairs)) = record.get(key) {
            for (k, v) in pairs {
                println!("{key} {k} {}", v.dump());
            }
        }
    }
    let result = record.get("result");
    let count = |k: &str| {
        result
            .and_then(|r| r.get(k))
            .map(Json::dump)
            .unwrap_or_default()
    };
    println!(
        "attempted {} failed {}",
        count("attempted"),
        count("failed")
    );
}
