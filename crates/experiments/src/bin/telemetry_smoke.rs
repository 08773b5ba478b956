//! telemetry_smoke — the observability gate run by CI.
//!
//! Drives two instrumented runs into **one** shared telemetry sink:
//!
//! 1. a 3-step single-rank Sedov simulation (stage spans + per-step health
//!    gauges from the CPU propagator), and
//! 2. a 2-step 4-rank Kelvin–Helmholtz distributed run (rank-tagged spans,
//!    global health gauges from rank 0, per-rank comm totals),
//!
//! then re-reads the exported Chrome trace from disk and validates it:
//!
//! * the document parses and is structurally a Chrome trace;
//! * every pipeline stage label of both scenarios appears as a span;
//! * all four ranks appear, and the merged sequence numbers are strictly
//!   monotonic (one total order across ranks);
//! * every step published the health gauges;
//! * the JSONL sibling stream round-trips line by line.
//!
//! Honours `--trace <path>` / `SPHSIM_TRACE`; defaults to
//! `experiments_output/telemetry_smoke.trace.json`. Exits non-zero on any
//! failure, printing each one.

use cluster::TransportKind;
use sphsim::distributed::run_distributed_traced;
use sphsim::{scenario, Simulation};
use std::sync::Arc;

fn main() {
    if experiments::apply_trace_flag().is_none()
        && std::env::var("SPHSIM_TRACE").ok().filter(|v| !v.is_empty()).is_none()
    {
        std::env::set_var(
            "SPHSIM_TRACE",
            experiments::output_dir().join("telemetry_smoke.trace.json"),
        );
    }
    let trace_path = std::path::PathBuf::from(std::env::var("SPHSIM_TRACE").unwrap());
    // The JSONL exporter appends across processes by design; this binary
    // validates exact line counts, so it must start from fresh artefacts.
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(format!("{}.jsonl", trace_path.display()));
    let sink = telemetry::from_env().expect("SPHSIM_TRACE is set above");

    let sedov = scenario::get("Sedov").expect("built-in scenario");
    let kh = scenario::get("KH").expect("built-in scenario");

    println!(
        "telemetry_smoke: 3-step Sedov (1 rank) + 2-step KH (4 ranks) -> {}",
        trace_path.display()
    );
    let mut sim = Simulation::from_scenario(sedov.clone(), 500, 7);
    assert!(
        sim.telemetry().is_some(),
        "SPHSIM_TRACE must attach the process-wide sink"
    );
    sim.run(3);
    run_distributed_traced(kh.clone(), 4, 600, 7, 2, TransportKind::Shm, Arc::clone(&sink));
    sink.flush();

    let mut failures: Vec<String> = Vec::new();

    // Re-read the exported trace from disk — the validation must hold on the
    // artefact a human would open in ui.perfetto.dev, not on in-memory state.
    let doc =
        std::fs::read_to_string(&trace_path).unwrap_or_else(|e| panic!("cannot read {}: {e}", trace_path.display()));
    match telemetry::trace::validate_chrome_trace(&doc) {
        Err(e) => failures.push(format!("Chrome trace invalid: {e}")),
        Ok(digest) => {
            for stage in sedov.pipeline().iter().chain(kh.pipeline().iter()) {
                if !digest.span_names.iter().any(|n| n == stage.label()) {
                    failures.push(format!("missing stage span: {}", stage.label()));
                }
            }
            if !digest.span_names.iter().any(|n| n == "Step") {
                failures.push("missing Step span".to_string());
            }
            for rank in 0..4u32 {
                if !digest.ranks.contains(&rank) {
                    failures.push(format!("missing rank {rank} in the merged trace"));
                }
            }
            if !digest.seqs_strictly_monotonic() {
                failures.push("merged sequence numbers are not strictly monotonic".to_string());
            }
            println!(
                "trace ok: {} events, {} span names, ranks {:?}",
                digest.events,
                digest.span_names.len(),
                digest.ranks
            );
        }
    }

    // Health gauges: once per step of each run (3 Sedov + 2 KH).
    let events = sink.events_snapshot();
    for gauge in [
        "health.total_energy",
        "health.energy_drift",
        "health.mass_drift",
        "health.momentum_drift",
        "health.dt",
    ] {
        let samples = events.iter().filter(|e| e.name == gauge).count();
        if samples != 5 {
            failures.push(format!("gauge {gauge}: {samples} samples, expected 5 (one per step)"));
        }
    }

    // The JSONL sibling stream round-trips line by line.
    let jsonl_path = format!("{}.jsonl", trace_path.display());
    match std::fs::read_to_string(&jsonl_path) {
        Err(e) => failures.push(format!("cannot read {jsonl_path}: {e}")),
        Ok(stream) => {
            let lines: Vec<&str> = stream.lines().collect();
            if lines.len() != events.len() {
                failures.push(format!(
                    "JSONL stream has {} lines for {} recorded events",
                    lines.len(),
                    events.len()
                ));
            }
            for (i, line) in lines.iter().enumerate() {
                if telemetry::Event::from_jsonl(line).is_none() {
                    failures.push(format!("JSONL line {i} does not round-trip: {line}"));
                    break;
                }
            }
        }
    }

    experiments::print_telemetry_summary("telemetry_smoke");

    if failures.is_empty() {
        println!(
            "telemetry smoke passed: trace at {} (open in ui.perfetto.dev)",
            trace_path.display()
        );
    } else {
        eprintln!("{} telemetry smoke check(s) FAILED:", failures.len());
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
