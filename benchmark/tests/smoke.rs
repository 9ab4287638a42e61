//! The benchmark's own test: all four workloads at `--scale smoke`,
//! untraced and traced, in seconds.

use pim_sim::Json;
use pimtrie_benchmark::spec::{self, Scale, Workload};
use pimtrie_benchmark::stats::SIM_TRAFFIC;
use pimtrie_benchmark::{run, RunArgs};

fn smoke_run(workload: Workload, trace: bool) -> Json {
    let mut args = RunArgs::new(workload);
    args.scale = Scale::Smoke;
    args.seconds = 0.2;
    args.trace = trace;
    args.out_dir =
        std::env::temp_dir().join(format!("pimtrie-benchmark-smoke-{}", std::process::id()));
    let out = run(&args).expect("result files are writable");
    std::fs::remove_dir_all(&args.out_dir).expect("the run created its output directory");
    out.summary
}

fn metric(summary: &Json, name: &str) -> f64 {
    summary
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|e| e.get("value"))
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("metric {name} is missing"))
}

fn names(summary: &Json) -> Vec<String> {
    match summary.get("metrics") {
        Some(Json::Obj(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("no metrics object"),
    }
}

#[test]
fn every_workload_is_correct_complete_and_trace_neutral() {
    let per_layer: Vec<String> = spec::per_layer().into_iter().map(|(n, _)| n).collect();
    let end_to_end: Vec<String> = spec::END_TO_END
        .iter()
        .map(|(n, _)| n.to_string())
        .collect();
    for w in Workload::ALL {
        let plain = smoke_run(w, false);
        let traced = smoke_run(w, true);
        for s in [&plain, &traced] {
            assert_eq!(
                s.get("failed").and_then(Json::as_num),
                Some(0.0),
                "{w}: failed ops"
            );
            assert_eq!(s.get("correct"), Some(&Json::Bool(true)), "{w}");
            assert!(
                s.get("attempted").and_then(Json::as_num).unwrap_or(0.0) >= 1.0,
                "{w}"
            );
        }
        assert_eq!(names(&plain), end_to_end, "{w}: end-to-end metric set");
        assert_eq!(names(&traced), per_layer, "{w}: per-layer metric set");
        for name in &end_to_end {
            let v = metric(&plain, name);
            assert!(v.is_finite() && v > 0.0, "{w}: {name} = {v}");
        }
        for name in &per_layer {
            assert!(metric(&traced, name).is_finite(), "{w}: {name}");
        }
        // tracing and the probes move no simulated counter
        for name in SIM_TRAFFIC {
            assert_eq!(
                metric(&plain, name),
                metric(&traced, &format!("trace.{name}")),
                "{w}: {name} differs between the untraced and the traced run"
            );
        }
    }
}

#[test]
fn benchmark_json_declares_what_the_runs_print() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc =
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses");
    let declared = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: Vec<(String, &str)>| -> Vec<(String, String)> {
        list.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    assert_eq!(declared("per_layer"), own(spec::per_layer()));
    assert_eq!(
        declared("end_to_end"),
        own(spec::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect())
    );
    let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
}
