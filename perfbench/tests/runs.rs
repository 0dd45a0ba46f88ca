//! Short runs of the benchmark binaries: every workload emits every
//! end-to-end metric `BENCHMARK.json` names, with its unit, and passes
//! its correctness check; a traced run emits every per-layer metric and
//! writes its span file.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(value: &'a Value, field: &str) -> &'a [Value] {
    match value.get_field(field) {
        Some(Value::Array(items)) => items,
        other => panic!("{field} is not an array: {other:?}"),
    }
}

fn string<'a>(value: &'a Value, field: &str) -> &'a str {
    match value.get_field(field) {
        Some(Value::String(s)) => s,
        other => panic!("{field} is not a string: {other:?}"),
    }
}

/// Runs `binary` and returns its parsed last stdout line.
fn run(binary: &str, args: &[&str]) -> Value {
    let output = Command::new(binary)
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{binary} {args:?} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    serde_json::from_str(line).expect("the result line is JSON")
}

/// Checks the result's shape and that every metric in `expected` is
/// present with its unit.
fn assert_result(result: &Value, expected: &[Value]) {
    assert_eq!(result.get_field("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get_field("failed"), Some(&Value::Number(0.0)));
    match result.get_field("attempted") {
        Some(Value::Number(n)) => assert!(*n >= 1.0),
        other => panic!("attempted is {other:?}"),
    }
    let metrics = result.get_field("metrics").expect("metrics");
    for metric in expected {
        let name = string(metric, "name");
        let got = metrics
            .get_field(name)
            .unwrap_or_else(|| panic!("{name} is missing"));
        assert_eq!(
            string(got, "unit"),
            string(metric, "unit"),
            "unit of {name}"
        );
        match got.get_field("value") {
            Some(Value::Number(v)) => assert!(v.is_finite(), "{name} is {v}"),
            other => panic!("{name} has value {other:?}"),
        }
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric_and_is_correct() {
    let benchmark = benchmark_json();
    let end_to_end = array(&benchmark, "end_to_end");
    for workload in array(&benchmark, "workloads") {
        let name = string(workload, "name");
        let result = run(
            env!("CARGO_BIN_EXE_perfbench"),
            &[
                "--workload",
                name,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
        );
        assert_result(&result, end_to_end);
    }
}

#[test]
fn the_traced_run_emits_every_per_layer_metric_and_its_span_file() {
    let benchmark = benchmark_json();
    let trace_out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/trace-reads_cached.json");
    let _ = std::fs::remove_file(&trace_out);
    let result = run(
        env!("CARGO_BIN_EXE_perfbench-traced"),
        &[
            "--workload",
            "reads_cached",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "1",
        ],
    );
    assert_result(&result, array(&benchmark, "per_layer"));
    let trace = std::fs::read_to_string(&trace_out).expect("the span file was written");
    assert!(trace.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
    assert!(trace.contains("\"name\":\"core.proxy.request\""));
    assert!(trace.trim_end().ends_with("]}"));
}

#[test]
fn a_bad_argument_fails_without_a_result() {
    for binary in [
        env!("CARGO_BIN_EXE_perfbench"),
        env!("CARGO_BIN_EXE_perfbench-traced"),
    ] {
        let output = Command::new(binary)
            .args([
                "--workload",
                "no_such_workload",
                "--seed",
                "1",
                "--seconds",
                "1",
            ])
            .output()
            .expect("the benchmark binary runs");
        assert!(!output.status.success());
        assert!(output.stdout.is_empty());
    }
}
