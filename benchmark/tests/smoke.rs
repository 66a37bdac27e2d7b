//! Runs all four workloads in `--quick` mode, untraced and traced, and
//! holds what they print against `BENCHMARK.json`: every metric named
//! there is emitted exactly once with its unit, nothing unnamed is
//! emitted, no operation fails, and the trace file is well formed.

use snap_benchmark::json::{parse, Value};
use snap_benchmark::report::{END_TO_END, PER_LAYER, WORKLOADS};
use std::process::Command;

const SEED: &str = "7";

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

/// `(name, unit)` of every metric under `section` of the manifest.
fn named(manifest: &Value, section: &str) -> Vec<(String, String)> {
    let text = |m: &Value, key: &str| m.get(key).and_then(Value::as_str).unwrap().to_string();
    manifest
        .get(section)
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_snap-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

/// Runs one quick workload and checks its result line against `section`.
fn run_and_check(workload: &str, trace: &str, section: &str) {
    let out = bench(&[
        "run",
        "--workload",
        workload,
        "--seed",
        SEED,
        "--seconds",
        "2",
        "--quick",
        "--trace",
        trace,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {stderr}"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let result = parse(stdout.lines().last().unwrap()).unwrap();

    let keys: Vec<&str> = result
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);

    // Keys keep file order, so a repeated name would show up twice here.
    let mut emitted: Vec<(String, String)> = result
        .get("metrics")
        .and_then(Value::as_object)
        .unwrap()
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).unwrap();
            assert!(value.is_finite(), "{workload}: {name} is {value}");
            (
                name.clone(),
                m.get("unit").and_then(Value::as_str).unwrap().to_string(),
            )
        })
        .collect();
    let mut expected = named(&manifest(), section);
    emitted.sort();
    expected.sort();
    assert_eq!(emitted, expected, "{workload} trace {trace}");
}

fn check_trace_file(workload: &str) {
    let path = format!(
        "{}/traces/{workload}-{SEED}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let spans = parse(&std::fs::read_to_string(&path).expect("trace file written")).unwrap();
    let spans = spans.as_array().unwrap();
    assert!(!spans.is_empty());
    let field = |s: &Value, key: &str| s.get(key).and_then(Value::as_f64).unwrap();
    for (i, span) in spans.iter().enumerate() {
        assert_eq!(field(span, "id"), i as f64, "ids are positions");
        assert!(field(span, "end_ns") >= field(span, "start_ns"));
        assert!(span.get("name").and_then(Value::as_str).is_some());
        assert!(span.get("count").and_then(Value::as_f64).is_some());
        match span.get("parent").unwrap() {
            Value::Null => {}
            parent => {
                let p = parent.as_f64().unwrap() as usize;
                assert!(p < i, "span {i}: parent {p} must exist before it");
                let parent = &spans[p];
                assert!(field(parent, "start_ns") <= field(span, "start_ns"));
                assert!(field(parent, "end_ns") >= field(span, "end_ns"));
            }
        }
    }
}

fn smoke(workload: &str) {
    run_and_check(workload, "0", "end_to_end");
    run_and_check(workload, "1", "per_layer");
    check_trace_file(workload);
}

#[test]
fn build_bulk() {
    smoke("build-bulk");
}

#[test]
fn serve_insert() {
    smoke("serve-insert");
}

#[test]
fn serve_churn() {
    smoke("serve-churn");
}

#[test]
fn serve_mixed() {
    smoke("serve-mixed");
}

#[test]
fn manifest_names_the_benchmark_the_code_runs() {
    let m = manifest();
    let workloads: Vec<&str> = m
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let paths = m.get("paths").and_then(Value::as_array).unwrap();
    assert_eq!(paths, [Value::Str("benchmark".into())]);

    let e2e = m.get("end_to_end").and_then(Value::as_array).unwrap();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (listed, coded) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(listed.get("name").and_then(Value::as_str), Some(coded.name));
        assert_eq!(listed.get("unit").and_then(Value::as_str), Some(coded.unit));
        let better = if coded.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(listed.get("better").and_then(Value::as_str), Some(better));
        assert_eq!(
            listed.get("bound").and_then(Value::as_f64),
            Some(coded.bound)
        );
    }
    let per_layer: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(named(&m, "per_layer"), per_layer);
}

#[test]
fn more_threads_than_cores_is_refused_unless_forced() {
    let out = bench(&[
        "run",
        "--workload",
        "serve-churn",
        "--quick",
        "--threads",
        "4096",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--force"));
    assert!(out.stdout.is_empty(), "a refused run prints no result");
}
