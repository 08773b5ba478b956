//! `replicate` from the outside: the real binary in a scratch working
//! directory, so what is checked is what CI and a reader of the README run —
//! the files it leaves in `experiments_output/`, the manifest, the exit status.

use std::path::PathBuf;
use std::process::{Command, Output};
use telemetry::json::{self, Value};

/// Run `replicate <args>` in a fresh directory of its own; returns the
/// directory and the finished process.
fn replicate(test: &str, args: &[&str]) -> (PathBuf, Output) {
    let dir = std::env::temp_dir().join(format!("replicate_cli_{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch working directory");
    let output = Command::new(env!("CARGO_BIN_EXE_replicate"))
        .args(args)
        .current_dir(&dir)
        .env_remove("SPHSIM_TRACE")
        .output()
        .expect("run replicate");
    (dir, output)
}

fn files_written(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir.join("experiments_output"))
        .expect("experiments_output/ exists")
        .map(|entry| entry.expect("directory entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

fn manifest_rows(dir: &std::path::Path) -> (Value, Vec<Value>) {
    let text = std::fs::read_to_string(dir.join("experiments_output/manifest.json")).expect("manifest.json");
    let manifest = json::parse(&text).expect("the manifest is JSON");
    let rows = manifest
        .get("artefacts")
        .and_then(Value::as_array)
        .expect("artefact rows")
        .to_vec();
    (manifest, rows)
}

fn text<'a>(value: &'a Value, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("string field {key}"))
}

/// The `files` a manifest row lists.
fn files_listed(row: &Value) -> Vec<&str> {
    let files = row.get("files").and_then(Value::as_array).expect("files");
    files.iter().filter_map(Value::as_str).collect()
}

#[test]
fn two_named_artefacts_write_exactly_their_csvs_and_one_manifest() {
    let (dir, output) = replicate("two", &["kick-tires", "table1", "fig4-5"]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    assert_eq!(
        files_written(&dir),
        [
            "fig4_edp_frequency.csv",
            "fig5_function_edp.csv",
            "manifest.json",
            "table1_simulations.csv",
            "table1_systems.csv"
        ]
    );
    let (manifest, rows) = manifest_rows(&dir);
    assert_eq!(text(&manifest, "tier"), "kick-tires");
    assert!(manifest.get("nproc").and_then(Value::as_f64).is_some_and(|n| n >= 1.0));
    assert_eq!(rows.len(), 2);
    for (row, (name, files)) in rows.iter().zip([
        ("table1", &["table1_simulations.csv", "table1_systems.csv"][..]),
        ("fig4-5", &["fig4_edp_frequency.csv", "fig5_function_edp.csv"][..]),
    ]) {
        assert_eq!(text(row, "artefact"), name);
        assert_eq!(text(row, "status"), "ok");
        assert_eq!(row.get("exit_status").and_then(Value::as_f64), Some(0.0));
        assert!(row.get("seconds").and_then(Value::as_f64).is_some_and(|s| s >= 0.0));
        assert_eq!(files_listed(row), files);
    }
    // The 1410 MHz row of Figure 4 normalises to exactly 100 %.
    let fig4 = std::fs::read_to_string(dir.join("experiments_output/fig4_edp_frequency.csv")).expect("fig4 CSV");
    assert!(
        fig4.lines().any(|l| l.starts_with("200^3,1410,") && l.ends_with(",100.0")),
        "{fig4}"
    );
    // ...and so does every function's 1410 MHz row of Figure 5, read from the
    // same campaigns.
    let fig5 = std::fs::read_to_string(dir.join("experiments_output/fig5_function_edp.csv")).expect("fig5 CSV");
    let at_1410: Vec<&str> = fig5.lines().filter(|l| l.contains(",1410,")).collect();
    assert!(!at_1410.is_empty(), "{fig5}");
    assert!(at_1410.iter().all(|l| l.ends_with(",1410,100.0")), "{fig5}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_reaches_the_artefact_and_skipped_gates_say_why() {
    // One artefact with `--trace` runs in a process of its own, pinned to the
    // one kernel thread its gate was calibrated at, with the sink attached
    // through the environment.
    let (dir, output) = replicate(
        "trace",
        &["kick-tires", "weak-scaling", "--trace", "--transport", "socket"],
    );
    let (manifest, rows) = manifest_rows(&dir);
    assert_eq!(text(&manifest, "transport"), "socket");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get("worker_threads").and_then(Value::as_f64), Some(1.0));
    assert_eq!(files_listed(&rows[0]), ["weak-scaling.trace.json"]);
    let trace = std::fs::read_to_string(dir.join("experiments_output/weak-scaling.trace.json")).expect("trace");
    let digest = telemetry::trace::validate_chrome_trace(&trace).expect("a valid Chrome trace");
    assert!(digest.span_names.iter().any(|n| n == "Step") && digest.ranks.contains(&1));

    // Two gates per scenario, each with its threshold. The per-rank
    // governors must score the dies' energy on any host. The throughput gate
    // is enforced or skipped by what the host is, never silently. Where the
    // host has the cores it is live (and this is a debug build on a shared
    // machine): the exit status must say exactly whether one failed.
    let cores = manifest.get("nproc").and_then(Value::as_f64).expect("nproc");
    let gates = rows[0].get("gates").and_then(Value::as_array).expect("gates");
    assert_eq!(gates.len(), 2 * sphsim::scenario::all().len());
    let (governors, throughputs): (Vec<&Value>, Vec<&Value>) =
        gates.iter().partition(|gate| text(gate, "name").contains("rank governors"));
    assert_eq!(governors.len(), sphsim::scenario::all().len());
    for gate in governors {
        assert_eq!(text(gate, "verdict"), "passed", "{}", text(gate, "name"));
    }
    for gate in throughputs {
        assert_eq!(text(gate, "threshold"), ">= 2");
        if cores >= 4.0 {
            assert_ne!(text(gate, "verdict"), "skipped");
        } else {
            assert_eq!(text(gate, "verdict"), "skipped");
            assert!(text(gate, "why").contains(&format!("host has {cores} core(s)")));
        }
    }
    let failed = gates.iter().any(|gate| text(gate, "verdict") == "failed");
    assert_eq!(
        output.status.code(),
        Some(i32::from(failed)),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_command_line_that_cannot_be_honoured_exits_2_naming_what_can() {
    for (test, args, named) in [
        ("tier", &["lite"][..], "kick-tires, full"),
        (
            "artefact",
            &["kick-tires", "fig6"][..],
            "table1, fig1, fig2-3, fig4-5, gallery",
        ),
        (
            "flag",
            &["kick-tires", "table1", "--out", "x"][..],
            "--trace, --transport shm|socket",
        ),
        (
            "trace_value",
            &["full", "--trace=x.json"][..],
            "--trace, --transport shm|socket",
        ),
        (
            "transport",
            &["kick-tires", "overlap", "--transport"][..],
            "'shm' or 'socket'",
        ),
        (
            "transport_value",
            &["kick-tires", "overlap", "--transport", "tcp"][..],
            "'shm' or 'socket'",
        ),
    ] {
        let (dir, output) = replicate(test, args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(!dir.join("experiments_output").exists(), "{args:?} ran something");
        std::fs::remove_dir_all(&dir).ok();
    }
}
