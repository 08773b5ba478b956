//! The acceptance gate for telemetry's "near-zero cost when disabled" claim.
//!
//! An attached-but-disabled sink must add at most **2%** to the per-step wall
//! time of the real CPU propagator at N = 4000 — the disabled fast path is a
//! single relaxed atomic load per instrumentation point, so anything above
//! that bound means a span guard started doing work before checking the flag.
//!
//! Methodology: two simulations on the identical trajectory (same scenario,
//! N, seed), one bare and one with a disabled sink attached, stepped in an
//! interleaved A/B pattern so drift (thermal, scheduler) hits both arms
//! equally. The minimum per arm over the repetitions rejects noise, and the
//! gate compares minima. CI runs this test in release mode
//! (`cargo test --release --test telemetry_overhead`); a debug-mode run
//! measures unoptimised code, so the bound is only asserted when optimised.

use energy_aware_sim::sphsim::{scenario, Simulation};
use energy_aware_sim::telemetry::Telemetry;
use std::sync::Arc;
use std::time::Instant;

const N: usize = 4000;
const REPS: usize = 7;
const STEPS_PER_REP: u64 = 2;
const MAX_OVERHEAD: f64 = 1.02;

fn time_steps(sim: &mut Simulation, steps: u64) -> f64 {
    let start = Instant::now();
    sim.run(steps);
    start.elapsed().as_secs_f64()
}

#[test]
fn disabled_sink_costs_at_most_two_percent_per_step() {
    let sedov = scenario::get("Sedov").expect("built-in scenario");
    let sink = Arc::new(Telemetry::disabled());

    let mut bare = Simulation::from_scenario(sedov, N, 7);
    let mut traced = Simulation::from_scenario(sedov, N, 7).with_telemetry(Arc::clone(&sink));
    assert!(!sink.enabled());

    // Warm up both arms (first step pays workspace/tree construction).
    bare.run(1);
    traced.run(1);

    let (mut best_bare, mut best_traced) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        // Interleaved A/B: both arms advance through the same trajectory
        // window inside each repetition, so slow machine phases hit both.
        best_bare = best_bare.min(time_steps(&mut bare, STEPS_PER_REP));
        best_traced = best_traced.min(time_steps(&mut traced, STEPS_PER_REP));
    }

    assert_eq!(sink.event_count(), 0, "a disabled sink must record nothing");

    let ratio = best_traced / best_bare;
    eprintln!(
        "disabled-sink overhead: bare {:.3} ms/rep, traced {:.3} ms/rep, ratio {ratio:.4}",
        best_bare * 1e3,
        best_traced * 1e3
    );
    // The 2% bound is about optimised code; debug builds measure something
    // else entirely (no inlining of the atomic check), so report but don't
    // gate there. CI enforces this test with --release.
    if cfg!(debug_assertions) {
        eprintln!("debug build: overhead bound reported, not enforced");
    } else {
        assert!(
            ratio <= MAX_OVERHEAD,
            "attached-but-disabled telemetry costs {:.2}% per step (bound: {:.0}%)",
            (ratio - 1.0) * 100.0,
            (MAX_OVERHEAD - 1.0) * 100.0
        );
    }
}
