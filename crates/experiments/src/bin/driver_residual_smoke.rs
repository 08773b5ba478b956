//! driver_residual_smoke — do the instrumented stages account for the step?
//!
//! The paper's premise is that a handful of instrumented functions carry an
//! application's time and energy. This smoke checks it from outside the
//! library, the way the repository benchmark does: `pmt::ProfilingHooks` on a
//! wall-clock meter (a constant 1 W dummy sensor, so regions measure time)
//! record every pipeline stage, an outer `Step` region of the smoke's own
//! wraps each `step()`, and
//!
//! ```text
//! Σ stage regions / Σ Step regions
//! ```
//!
//! must reach 85 % over 3 Evrard steps at N = 8000 on one thread. Evrard is
//! the scenario that runs every stage kind including Gravity; what the ratio
//! leaves out is driver work no stage owns (finite-state scans, the step
//! summary, telemetry). With the O(N²) potential sum in the step summary the
//! ratio was ≈ 60 % at this size; with the potential fused into the Gravity
//! walk it is ≈ 99 %. A ratio inside one process is host-independent, so the
//! gate is enforced on every runner — and it catches the next O(N²) that
//! creeps into a step driver.

use pmt::backends::dummy::DummySensor;
use pmt::{Domain, PowerMeter, ProfilingHooks};
use sphsim::Simulation;
use std::sync::Arc;

const STEP_LABEL: &str = "Step";
const MIN_STAGE_SHARE: f64 = 0.85;

fn main() {
    std::env::set_var("SPHSIM_THREADS", "1");
    let (n, steps) = (8000usize, 3u64);
    let meter = Arc::new(PowerMeter::builder().sensor(DummySensor::new(Domain::cpu(0), 1.0)).build());
    let mut sim = Simulation::evrard(n, 7).with_hooks(ProfilingHooks::new(Arc::clone(&meter)));
    // Warm-up: first-touch allocation of the workspace, first Morton reorder.
    sim.step();
    meter.take_records();
    for _ in 0..steps {
        meter
            .measure(STEP_LABEL, || sim.step())
            .expect("the smoke's regions start and end in pairs");
    }

    let records = meter.report().records;
    let step_s: f64 = records.iter().filter(|r| r.label == STEP_LABEL).map(|r| r.duration_s()).sum();
    let mut stages: Vec<(String, f64)> = Vec::new();
    for r in records.iter().filter(|r| r.label != STEP_LABEL) {
        match stages.iter_mut().find(|(label, _)| *label == r.label) {
            Some((_, t)) => *t += r.duration_s(),
            None => stages.push((r.label.to_string(), r.duration_s())),
        }
    }
    let stage_s: f64 = stages.iter().map(|(_, t)| t).sum();

    println!(
        "driver_residual_smoke: Evr | {} particles | {steps} steps | 1 thread\n",
        sim.particles().len()
    );
    for (label, t) in &stages {
        println!("  {label:<22} {:>9.3} ms  {:>5.1}%", t * 1e3, 100.0 * t / step_s);
    }
    let share = stage_s / step_s;
    println!(
        "  {:<22} {:>9.3} ms  {:>5.1}%",
        "(driver residual)",
        (step_s - stage_s) * 1e3,
        100.0 * (1.0 - share)
    );
    println!(
        "\n  stages {:.3} ms of {:.3} ms stepped -> {:.1}% attributed",
        stage_s * 1e3,
        step_s * 1e3,
        share * 100.0
    );
    if share < MIN_STAGE_SHARE {
        eprintln!(
            "\ndriver residual gate FAILED: the instrumented stages cover {:.1}% of the step; \
             >= {:.0}% required — some step driver does unattributed work that scales with N",
            share * 100.0,
            MIN_STAGE_SHARE * 100.0
        );
        std::process::exit(1);
    }
    println!("\ndriver residual gate passed.");
}
