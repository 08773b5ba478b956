//! Shared helpers for the Criterion benchmark suite.
//!
//! One bench target exists per paper table/figure (`table1_scenarios`,
//! `fig1_validation`, ..., `fig5_function_edp`) plus micro-benchmarks of the
//! hot measurement and simulation paths (`energy_integration`,
//! `sensor_sampling`, `octree`, `sph_kernels`) and the `step_throughput`
//! per-stage benchmark of the SPH hot path.

use hwmodel::arch::SystemKind;
use slurm::AcctGatherEnergyType;
use sphsim::{run_campaign, CampaignConfig, CampaignResult, ScenarioRef};

/// Look up a built-in scenario by name (panicking helper for benches).
pub fn bench_scenario(name: &str) -> ScenarioRef {
    sphsim::scenario::get(name).expect("built-in scenario")
}

/// A reduced-size campaign configuration suitable for benchmarking: the same
/// code path as the paper-scale experiments, small enough to iterate quickly.
pub fn bench_campaign_config(system: SystemKind, scenario: ScenarioRef, ranks: usize, steps: u64) -> CampaignConfig {
    CampaignConfig {
        system,
        scenario,
        n_ranks: ranks,
        particles_per_rank: 10.0e6,
        timesteps: steps,
        gpu_frequency_hz: None,
        setup_seconds: 10.0,
        teardown_seconds: 2.0,
        slurm_backend: AcctGatherEnergyType::PmCounters,
    }
}

/// Run a reduced campaign (helper shared by the per-figure benches).
pub fn run_bench_campaign(system: SystemKind, scenario: ScenarioRef, ranks: usize, steps: u64) -> CampaignResult {
    run_campaign(&bench_campaign_config(system, scenario, ranks, steps))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_campaign_runs() {
        let result = run_bench_campaign(SystemKind::CscsA100, bench_scenario("Turb"), 2, 2);
        assert_eq!(result.n_ranks(), 2);
        assert!(result.true_main_loop_energy_j > 0.0);
    }
}
