//! End-to-end test of the open scenario system: a scenario registered by a
//! *downstream* crate — this test — flows through every consumer (name
//! lookup, CPU propagator, paper-scale campaign executor with stage gating)
//! without any further plumbing.
//!
//! This file is its own test binary (own process), so mutating the
//! process-wide registry here cannot perturb other test binaries.

use energy_aware_sim::experiments::{run_campaign, CampaignConfig};
use energy_aware_sim::hwmodel::arch::SystemKind;
use energy_aware_sim::sphsim::{scenario, CostScale, ParticleSet, Scenario, Simulation, SphStage, ValidationCheck};
use std::sync::Arc;

/// A gravitating variant of the blast wave — deliberately a stage mix no
/// built-in scenario has (gravity without stirring, on blast ICs).
#[derive(Debug)]
struct GravitatingBlast;

impl Scenario for GravitatingBlast {
    fn name(&self) -> &'static str {
        "Gravitating Blast"
    }

    fn short_name(&self) -> &'static str {
        "GravBlast"
    }

    fn particles_per_gpu(&self) -> f64 {
        50.0e6
    }

    fn global_particle_options(&self) -> Vec<f64> {
        vec![0.5e9, 1.0e9]
    }

    fn has_gravity(&self) -> bool {
        true
    }

    fn stage_cost_scale(&self, stage: SphStage) -> CostScale {
        match stage {
            SphStage::Gravity => CostScale { flops: 1.3, bytes: 1.1 },
            _ => CostScale::UNIT,
        }
    }

    fn initial_conditions(&self, n_target: usize, seed: u64) -> ParticleSet {
        scenario::get("Sedov")
            .expect("built-in scenario")
            .initial_conditions(n_target, seed)
    }

    fn validate(&self) -> ValidationCheck {
        // A real check is out of scope for the test double; the gallery only
        // sweeps what is registered at its own runtime.
        ValidationCheck {
            scenario: self.short_name().to_string(),
            observable: "trivial",
            measured: 1.0,
            expected: 1.0,
            acceptance: (0.5, 1.5),
            detail: String::new(),
        }
    }
}

#[test]
fn downstream_registration_flows_through_every_consumer() {
    scenario::register(Arc::new(GravitatingBlast));

    // Name lookup (short, full, case-insensitive) and enumeration.
    let found = scenario::get("gravblast").expect("registered scenario resolvable by name");
    assert_eq!(found.name(), "Gravitating Blast");
    assert!(scenario::get("Gravitating Blast").is_some());
    assert!(scenario::names().contains(&"GravBlast"));
    assert!(scenario::all().iter().any(|s| s.short_name() == "GravBlast"));

    // The CPU propagator runs it, including the gated Gravity stage.
    let mut sim = Simulation::from_scenario(found.clone(), 300, 3);
    let summary = sim.step();
    assert!(summary.dt > 0.0 && summary.total_energy.is_finite());

    // The paper-scale campaign executor runs it with the correct stage gating:
    // Gravity present (gravitating), Turbulence absent (not stirred).
    let mut config = CampaignConfig::paper_defaults(SystemKind::CscsA100, found.clone(), 2);
    config.particles_per_rank = 10.0e6;
    config.timesteps = 2;
    config.setup_seconds = 5.0;
    config.teardown_seconds = 1.0;
    let result = run_campaign(&config);
    let labels: std::collections::BTreeSet<&str> =
        result.rank_reports[0].records.iter().map(|r| r.label.as_str()).collect();
    assert!(labels.contains("Gravity"));
    assert!(!labels.contains("Turbulence"));
    assert!(result.sacct.job_name.contains("gravblast"));
}
