//! End-to-end test of the online DVFS governor inside a paper-scale campaign:
//! the governor rides the rank-0 meter's region boundaries, actuates the
//! campaign's own cluster, and converges every pipeline stage to an on-grid
//! operating point — with the compute-dominant stage settling at a higher
//! clock than the memory/communication-bound ones (the paper's Figure 5
//! structure, discovered online).

use energy_aware_sim::autotune::{ClusterActuator, Governor};
use energy_aware_sim::comm::TransportKind;
use energy_aware_sim::experiments::{
    run_campaign_governed, run_distributed_campaign, CampaignConfig, DistributedCampaignConfig,
};
use energy_aware_sim::hwmodel::arch::SystemKind;
use energy_aware_sim::sphsim::{scenario, Scenario};
use std::sync::{Arc, Mutex};

fn governed_campaign(case: &'static Scenario, timesteps: u64) -> (Arc<Governor>, f64) {
    let mut config = CampaignConfig::paper_defaults(SystemKind::MiniHpc, case, 2);
    config.particles_per_rank = 20.0e6;
    config.timesteps = timesteps;
    config.setup_seconds = 5.0;
    config.teardown_seconds = 1.0;

    let mut governor_slot: Option<Arc<Governor>> = None;
    let result = run_campaign_governed(&config, |cluster| {
        let actuator = Arc::new(ClusterActuator::new(cluster.clone()));
        let governor = Arc::new(Governor::new(case.stage_labels(), actuator));
        governor_slot = Some(Arc::clone(&governor));
        vec![governor]
    });
    (governor_slot.expect("wire closure ran"), result.true_main_loop_energy_j)
}

#[test]
fn governor_converges_every_stage_on_grid() {
    let case = scenario::get("Turb").unwrap();
    let (governor, energy) = governed_campaign(case, 60);
    assert!(energy > 0.0);

    let model = governor.dvfs().clone();
    let requested = governor.requested_frequencies();
    assert!(!requested.is_empty());
    for f in requested {
        assert!(f >= model.f_min_hz && f <= model.f_max_hz, "out of range: {f} Hz");
        let steps = (f - model.f_min_hz) / model.f_step_hz;
        assert!((steps - steps.round()).abs() < 1e-6, "off grid: {f} Hz");
    }

    let report = governor.report();
    assert_eq!(report.len(), case.stage_labels().len());
    for stage in &report {
        assert!(stage.converged, "stage {} did not converge", stage.label);
        assert!(stage.best_frequency_hz.is_some());
    }
}

#[test]
fn compute_bound_stage_tunes_higher_than_memory_bound_stage() {
    let (governor, _) = governed_campaign(scenario::get("Evr").unwrap(), 60);
    let best = |label: &str| {
        governor
            .best_frequency(label)
            .unwrap_or_else(|| panic!("no tuning state for {label}"))
    };
    let f_momentum = best("MomentumEnergy");
    let f_sync = best("DomainDecompAndSync");
    assert!(
        f_momentum > f_sync,
        "MomentumEnergy ({:.0} MHz) should tune above DomainDecompAndSync ({:.0} MHz)",
        f_momentum / 1.0e6,
        f_sync / 1.0e6
    );
}

/// Each rank of a metered multi-rank run reads a `GpuDiePowerSensor`, which
/// reports per-die `Domain::gpu(i)` energy, not card energy: the per-rank
/// governors must score that energy and move the clock.
#[test]
fn die_metered_rank_governors_score_and_actuate() {
    let config = DistributedCampaignConfig {
        system: SystemKind::MiniHpc,
        scenario: scenario::get("Sedov").unwrap(),
        n_ranks: 2,
        n_per_rank: 400,
        steps: 4,
        seed: 7,
        transport: TransportKind::Shm,
    };
    let labels = config.scenario.stage_labels();
    let governors = Mutex::new(Vec::new());
    let result = run_distributed_campaign(&config, |ctx, meter| {
        let governor = Arc::new(Governor::new(labels.clone(), Arc::new(ctx.gpu.clone())));
        meter.add_region_observer(governor.clone());
        governors.lock().unwrap().push(governor);
    });
    assert_eq!(result.per_rank.len(), 2);
    let governors = governors.into_inner().unwrap();
    assert_eq!(governors.len(), 2);
    for governor in &governors {
        let scored: usize = governor.report().iter().map(|s| s.observations).sum();
        assert_eq!(governor.invalid_observations(), 0);
        assert!(scored > 0, "a rank's governor scored no observation");
        assert!(
            governor.frequency_changes() > 0,
            "a rank's governor never moved the clock"
        );
    }
}
