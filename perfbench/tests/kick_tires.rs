//! The benchmark run end to end at kick-tires size (N ≈ 2000, a few steps,
//! the campaign set once at reduced scale): every workload finishes in
//! seconds, emits exactly the metrics `BENCHMARK.json` lists, balances its
//! traced budget, and repeats its exact counts for a repeated seed.

use energy_aware_sim::telemetry::json::{self, Value};
use std::collections::BTreeMap;
use std::process::Command;

/// Run the benchmark binary; returns the record line and the result line.
fn run(workload: &str, traced: bool, seed: u64) -> (Value, Value) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--kick-tires", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary starts");
    assert!(
        output.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{workload}: one record line and one result line");
    (
        json::parse(lines[0]).expect("record line"),
        json::parse(lines[1]).expect("result line"),
    )
}

fn metrics(line: &Value) -> BTreeMap<String, (f64, String)> {
    let entries = line.get("metrics").and_then(Value::as_object).expect("a metrics object");
    entries
        .iter()
        .map(|(name, entry)| {
            let value = entry.get("value").and_then(Value::as_f64).expect("a value");
            let unit = entry.get("unit").and_then(Value::as_str).expect("a unit").to_string();
            (name.clone(), (value, unit))
        })
        .collect()
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")).expect("valid JSON")
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn listed(doc: &Value, list: &str) -> BTreeMap<String, String> {
    let entries = doc.get(list).and_then(Value::as_array).expect("a metric list");
    entries
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect("a string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn workload_names(doc: &Value) -> Vec<String> {
    let entries = doc.get("workloads").and_then(Value::as_array).expect("a workload list");
    entries
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("a name").to_string())
        .collect()
}

#[test]
fn every_workload_emits_exactly_the_listed_metrics() {
    let doc = benchmark_json();
    let names = workload_names(&doc);
    assert_eq!(names.len(), 5);
    for workload in &names {
        for (traced, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let (record, result) = run(workload, traced, 7);
            let units = |line: &Value| -> BTreeMap<String, String> {
                metrics(line).into_iter().map(|(name, (_, unit))| (name, unit)).collect()
            };
            assert_eq!(units(&result), listed(&doc, list), "{workload} --trace {traced}");
            assert_eq!(units(&record), units(&result));
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}: {record:?}"
            );
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64).expect("attempted") >= 1.0);
            assert_eq!(
                result.as_object().expect("an object").keys().collect::<Vec<_>>(),
                ["attempted", "correct", "failed", "metrics"]
            );
            for (name, (value, _)) in metrics(&result) {
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                // (A kick-tires loop can be shorter than one 10 ms CPU tick.)
                if !traced && name != "cpu_s_to_solution" {
                    assert!(value > 0.0, "{workload}: {name} = {value}");
                }
            }
            let manifest = record.get("manifest").and_then(Value::as_object).expect("a manifest");
            for key in [
                "git_revision",
                "nproc",
                "ranks",
                "sphsim_threads",
                "worker_threads",
                "transport",
                "bins",
            ] {
                assert!(manifest.contains_key(key), "{workload}: manifest lacks {key}");
            }
            for key in ["seed", "budget", "warmup_steps", "rustc"] {
                assert!(manifest.contains_key(key), "{workload}: manifest lacks {key}");
            }
            assert_eq!(manifest["worker_threads"], manifest["sphsim_threads"], "{workload}");
        }
    }
}

#[test]
fn traced_budget_rows_and_residual_sum_to_the_step_time() {
    for workload in workload_names(&benchmark_json()) {
        let (record, _) = run(&workload, true, 7);
        let m = metrics(&record);
        let value = |name: &str| m[name].0;
        let rows: f64 = m
            .iter()
            .filter(|(name, _)| name.ends_with("_s") && (name.starts_with("stage.") || name.starts_with("campaign.")))
            .map(|(_, (v, _))| v)
            .sum();
        assert!(value("driver.steps") >= 1.0, "{workload} took no traced step");
        assert!(value("driver.step_s") > 0.0, "{workload}");
        assert!(
            value("driver.residual_s") >= 0.0,
            "{workload}: residual {}",
            value("driver.residual_s")
        );
        let gap = rows + value("driver.residual_s") - value("driver.step_s");
        assert!(gap.abs() <= 1e-9, "{workload}: rows + residual - step = {gap}");
        assert_eq!(value("pmt.dropped"), 0.0, "{workload}");
        assert!(value("pmt.regions") > value("driver.steps"), "{workload}");
    }
}

#[test]
fn exact_counts_repeat_for_a_seed_and_move_with_it() {
    let counts = |seed: u64| -> Vec<(String, u64)> {
        let (record, _) = run("turb_ranks_instrumented", true, seed);
        let exact = [
            "driver.steps",
            "comm.calls",
            "comm.messages",
            "comm.bytes",
            "comm.ghosts",
            "pmt.regions",
        ];
        metrics(&record)
            .into_iter()
            .filter(|(name, _)| exact.contains(&name.as_str()))
            .map(|(name, (value, _))| (name, value.to_bits()))
            .collect()
    };
    let first = counts(7);
    assert_eq!(first.len(), 6);
    assert!(first.iter().all(|(_, bits)| f64::from_bits(*bits) > 0.0), "{first:?}");
    assert_eq!(first, counts(7), "same seed, same counts");
    assert_ne!(first, counts(8), "another seed, another ghost layer");
}

#[test]
fn benchmark_json_matches_the_tables() {
    let doc = benchmark_json();
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--describe")
        .output()
        .expect("the benchmark binary starts");
    assert!(output.status.success());
    let described = json::parse(String::from_utf8_lossy(&output.stdout).trim()).expect("a description");
    for key in ["run_seconds", "workloads", "end_to_end", "per_layer"] {
        assert_eq!(
            doc.get(key),
            described.get(key),
            "BENCHMARK.json disagrees with the source on {key}"
        );
    }
}

#[test]
fn an_unknown_workload_is_refused_by_name() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the benchmark binary starts");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("no_such_workload"));
    assert!(output.stdout.is_empty());
}
