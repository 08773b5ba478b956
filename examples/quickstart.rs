//! Quickstart: measure the energy of each function of a real SPH run with PMT.
//!
//! One rank of the step driver runs a small simulation of the chosen scenario
//! on a simulated miniHPC GPU die. A PMT meter over that die records every
//! stage as a region, and the example prints each function's calls, time and
//! GPU energy. It exits non-zero when any function, or the total, reads 0 J.
//!
//! Run with: `cargo run --example quickstart [scenario]` where `scenario` is
//! any scenario name (Turb, Evr, Sedov, Noh, KH, Gresho, short or full;
//! defaults to Turb).

use energy_aware_sim::comm::TransportKind;
use energy_aware_sim::experiments::{run_distributed_campaign, DistributedCampaignConfig};
use energy_aware_sim::hwmodel::arch::SystemKind;
use energy_aware_sim::pmt::units::{format_duration, format_energy};
use energy_aware_sim::pmt::{aggregate_by_label, DomainKind};
use energy_aware_sim::sphsim::scenario;

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
    let config = DistributedCampaignConfig {
        system: SystemKind::MiniHpc,
        scenario: chosen,
        n_ranks: 1,
        n_per_rank: 512,
        steps: 5,
        seed: 42,
        transport: TransportKind::Shm,
    };
    let result = run_distributed_campaign(&config, |_, _| {});
    println!(
        "5 timesteps of {} ({} particles) in {}\n",
        chosen.name,
        result.total_particles(),
        format_duration(result.elapsed_s)
    );

    // Per-function summary.
    let report = &result.per_rank[0].report;
    println!("{:<22} {:>6} {:>14} {:>14}", "function", "calls", "time", "gpu energy");
    let mut unmetered = Vec::new();
    for f in aggregate_by_label(&report.records) {
        let gpu_j = f.energy_by_kind(DomainKind::Gpu);
        println!(
            "{:<22} {:>6} {:>14} {:>14}",
            f.label,
            f.calls,
            format_duration(f.total_time_s),
            format_energy(gpu_j)
        );
        if f.total_time_s <= 0.0 || gpu_j <= 0.0 {
            unmetered.push(f.label);
        }
    }
    let total: f64 = report.total_by_domain().values().sum();
    println!("\nTotal measured energy across all domains: {}", format_energy(total));
    if total <= 0.0 || !unmetered.is_empty() {
        eprintln!("no time or energy metered for {unmetered:?}, total {total} J");
        std::process::exit(1);
    }
}
