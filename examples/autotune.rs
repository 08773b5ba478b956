//! Online per-stage DVFS governance demo: a campaign where the `autotune`
//! governor rides the PMT region boundaries, tuning each pipeline stage to its
//! own min-EDP GPU frequency while the simulation runs.
//!
//! Run with: `cargo run --example autotune`

use energy_aware_sim::autotune::{ClusterActuator, Governor, GovernorConfig};
use energy_aware_sim::hwmodel::arch::SystemKind;
use energy_aware_sim::sphsim::{run_campaign, run_campaign_governed, scenario, CampaignConfig};
use std::sync::Arc;

fn main() {
    let case = scenario::get("Turb").expect("built-in scenario");
    let mut config = CampaignConfig::paper_defaults(SystemKind::MiniHpc, case.clone(), 2);
    config.particles_per_rank = 25.0e6;
    config.timesteps = 80;
    config.setup_seconds = 10.0;
    config.teardown_seconds = 2.0;

    println!(
        "Governed campaign: {} on miniHPC, {} ranks, {} timesteps",
        case.name(),
        config.n_ranks,
        config.timesteps
    );
    println!("Objective: per-stage EDP, hill-climb search over the A100 DVFS grid\n");

    // Baseline: the same campaign pinned at the nominal frequency.
    let baseline = run_campaign(&config);

    let mut governor_slot: Option<Arc<Governor>> = None;
    let governed = run_campaign_governed(&config, |cluster| {
        let actuator = Arc::new(ClusterActuator::new(cluster.clone()));
        let governor = Arc::new(Governor::new(
            GovernorConfig::edp_hill_climb(case.stage_labels()),
            actuator,
        ));
        governor_slot = Some(Arc::clone(&governor));
        vec![governor]
    });
    let governor = governor_slot.expect("wire closure ran");

    println!(
        "{:>22} {:>12} {:>13} {:>10}",
        "stage", "best [MHz]", "observations", "converged"
    );
    for stage in governor.report() {
        println!(
            "{:>22} {:>12.0} {:>13} {:>10}",
            stage.label,
            stage.best_frequency_hz.unwrap_or(0.0) / 1.0e6,
            stage.observations,
            stage.converged
        );
    }

    let e0 = baseline.true_main_loop_energy_j;
    let t0 = baseline.main_loop_duration_s();
    let e1 = governed.true_main_loop_energy_j;
    let t1 = governed.main_loop_duration_s();
    println!(
        "\n{:>24} {:>12} {:>10} {:>14}",
        "run", "energy [kJ]", "time [s]", "EDP [kJ*s]"
    );
    println!(
        "{:>24} {:>12.1} {:>10.1} {:>14.1}",
        "nominal 1410 MHz",
        e0 / 1.0e3,
        t0,
        e0 * t0 / 1.0e3
    );
    println!(
        "{:>24} {:>12.1} {:>10.1} {:>14.1}",
        "governed (per stage)",
        e1 / 1.0e3,
        t1,
        e1 * t1 / 1.0e3
    );
    println!(
        "\nPer-stage EDP governance cut energy to {:.0}% of nominal at {:.2}x the runtime \
         (whole-loop EDP: {:.0}% of nominal, including the search transient).",
        100.0 * e1 / e0,
        t1 / t0,
        100.0 * (e1 * t1) / (e0 * t0)
    );
    println!(
        "Each stage minimises its own E*T, so memory-bound stages tune very low and trade \
         runtime for energy; for the whole-loop Figure-4 optimum see the \
         `replicate kick-tires autotune` artefact."
    );
}
