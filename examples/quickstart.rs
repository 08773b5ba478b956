//! Quickstart: measure the energy of code regions with PMT.
//!
//! This example builds a PMT meter over one simulated miniHPC node, read
//! through `SimNodeSensor` — the in-memory equivalent of Cray `pm_counters`:
//! node, CPU, memory and one counter per GPU card — runs a small real SPH simulation
//! with the profiling hooks attached, and prints the per-function energy
//! summary.
//!
//! Run with: `cargo run --example quickstart [scenario]` where `scenario` is
//! any scenario name (Turb, Evr, Sedov, Noh, KH, Gresho, short or full;
//! defaults to Turb).

use energy_aware_sim::cluster::{Cluster, SimClockAdapter, SimNodeSensor};
use energy_aware_sim::hwmodel::arch::SystemKind;
use energy_aware_sim::pmt::units::{format_duration, format_energy};
use energy_aware_sim::pmt::{aggregate_by_label, DomainKind, PowerMeter, ProfilingHooks};
use energy_aware_sim::sphsim::{scenario, Simulation};
use std::sync::Arc;

fn main() {
    // Pick a scenario by name (any of its short or full names,
    // case-insensitively).
    let requested = std::env::args().nth(1).unwrap_or_else(|| "Turb".to_string());
    let Some(chosen) = scenario::get(&requested) else {
        eprintln!(
            "unknown scenario {requested:?}; scenarios: {}",
            scenario::names().join(", ")
        );
        std::process::exit(2);
    };
    // One simulated miniHPC node (2x Xeon + 2x A100-PCIE) and a meter over it.
    let cluster = Cluster::new(SystemKind::MiniHpc, 1);
    let node = cluster.node(0).clone();
    let meter = Arc::new(
        PowerMeter::builder()
            .sensor(SimNodeSensor::per_card(node.clone()))
            .clock(SimClockAdapter::new(cluster.clock().clone()))
            .hostname(node.hostname())
            .build(),
    );

    // A small, real SPH run of the chosen scenario on the CPU with hooks
    // attached. (The simulated clock is advanced alongside the real work so
    // the meter integrates over a realistic time base.)
    let hooks = ProfilingHooks::new(meter.clone());
    let mut sim = Simulation::from_scenario(chosen, 512, 42).with_hooks(hooks);

    println!(
        "Running 5 timesteps of {} ({} particles)...\n",
        chosen.name,
        sim.particles().len()
    );
    for _ in 0..5 {
        // Pretend each step keeps the node busy for ~2 simulated seconds.
        for gpu in node.gpus() {
            gpu.set_load(0.9);
        }
        cluster.advance(2.0);
        sim.step();
        cluster.set_idle();
    }

    // Per-function summary.
    let records = meter.records();
    println!("{:<22} {:>6} {:>14} {:>14}", "function", "calls", "time", "gpu energy");
    for agg in aggregate_by_label(&records) {
        println!(
            "{:<22} {:>6} {:>14} {:>14}",
            agg.label,
            agg.calls,
            format_duration(agg.total_time_s),
            format_energy(agg.energy_by_kind(DomainKind::GpuCard)),
        );
    }

    let report = meter.report();
    let total: f64 = report.total_by_domain().values().sum();
    println!("\nTotal measured energy across all domains: {}", format_energy(total));
    println!("Rank report rows (CSV): {}", report.to_csv().lines().count() - 1);
}
