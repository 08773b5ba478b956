//! End-to-end integration tests spanning PMT, hwmodel (its cluster and
//! Slurm), sphsim and the analysis: the full measurement chain of the paper
//! on small, fast configurations.

use energy_aware_sim::experiments::device_breakdown::device_breakdown;
use energy_aware_sim::experiments::function_breakdown::function_breakdown;
use energy_aware_sim::experiments::{run_campaign, CampaignConfig, CampaignResult, MAIN_LOOP_LABEL};
use energy_aware_sim::hwmodel::arch::SystemKind;
use energy_aware_sim::hwmodel::VirtualSysfs;
use energy_aware_sim::hwmodel::{Cluster, RankMapping, SimClockAdapter, SimNodeSensor};
use energy_aware_sim::pmt::backends::{CrayPmCountersSensor, RaplSensor};
use energy_aware_sim::pmt::{DomainKind, PowerMeter, RankReport};
use energy_aware_sim::sphsim::{scenario, Scenario};

fn turb() -> &'static Scenario {
    scenario::get("Turb").expect("built-in scenario")
}

fn quick_campaign(system: SystemKind, case: &'static Scenario, ranks: usize, steps: u64) -> CampaignResult {
    let mut config = CampaignConfig::paper_defaults(system, case, ranks);
    config.timesteps = steps;
    run_campaign(&config)
}

#[test]
fn campaign_energy_is_conserved_across_measurement_paths() {
    let result = quick_campaign(SystemKind::CscsA100, turb(), 8, 5);
    // PMT node-level energy over the loop must match the simulator ground truth.
    let pmt = device_breakdown(&result.rank_reports, &result.mapping, MAIN_LOOP_LABEL).node_j;
    let truth = result.true_main_loop_energy_j;
    assert!((pmt - truth).abs() / truth < 0.02, "PMT {pmt} vs truth {truth}");
    // Slurm covers a strictly larger window.
    assert!(result.sacct.consumed_energy_j > truth);
    // And the job energy ground truth matches sacct within the plugin quantisation.
    assert!((result.sacct.consumed_energy_j - result.true_job_energy_j).abs() / result.true_job_energy_j < 0.02);
}

#[test]
fn device_breakdown_shape_matches_figure2() {
    for system in [SystemKind::LumiG, SystemKind::CscsA100] {
        let ranks = if system == SystemKind::LumiG { 8 } else { 4 };
        let result = quick_campaign(system, turb(), ranks, 5);
        let b = device_breakdown(&result.rank_reports, &result.mapping, MAIN_LOOP_LABEL);
        let p = b.percentages();
        // GPU dominates with roughly three quarters of the node energy.
        assert!(p[0] > 55.0 && p[0] < 92.0, "{}: GPU share {}", system.name(), p[0]);
        // Shares sum to 100 %.
        assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-6);
        // Memory is only separately attributed on LUMI-G.
        if system == SystemKind::LumiG {
            assert!(p[2] > 0.0);
        } else {
            assert_eq!(p[2], 0.0);
        }
        // "Other" is present and smaller than the GPU share.
        assert!(p[3] > 0.0 && p[3] < p[0]);
    }
}

#[test]
fn function_breakdown_shape_matches_figure3() {
    let lumi = quick_campaign(SystemKind::LumiG, turb(), 8, 5);
    let cscs = quick_campaign(SystemKind::CscsA100, turb(), 4, 5);
    let fb_lumi = function_breakdown(&lumi.rank_reports, &lumi.mapping, &[MAIN_LOOP_LABEL]);
    let fb_cscs = function_breakdown(&cscs.rank_reports, &cscs.mapping, &[MAIN_LOOP_LABEL]);

    // MomentumEnergy is the top GPU energy consumer on both systems...
    let top_lumi = fb_lumi.labels_by_energy();
    assert_eq!(top_lumi[0], "MomentumEnergy");
    // ...and its *share* of GPU energy is clearly larger on the AMD system,
    // the paper's indication that the HIP port is less optimised.
    let share_lumi = fb_lumi.gpu_share_percent("MomentumEnergy");
    let share_cscs = fb_cscs.gpu_share_percent("MomentumEnergy");
    assert!(
        share_lumi > share_cscs + 5.0,
        "LUMI share {share_lumi} should exceed CSCS share {share_cscs}"
    );
    assert!(share_cscs > 10.0 && share_cscs < 45.0, "CSCS share {share_cscs}");
    assert!(share_lumi > 30.0 && share_lumi < 65.0, "LUMI share {share_lumi}");
}

#[test]
fn lumi_run_consumes_more_energy_than_cscs_run() {
    // Same global problem (16 x 20M particles vs 8+8), same steps: the LUMI job
    // draws more total energy, as in Figure 2.
    let mut lumi_cfg = CampaignConfig::paper_defaults(SystemKind::LumiG, turb(), 16);
    lumi_cfg.particles_per_rank = 20.0e6;
    lumi_cfg.timesteps = 5;
    let mut cscs_cfg = CampaignConfig::paper_defaults(SystemKind::CscsA100, turb(), 8);
    cscs_cfg.particles_per_rank = 40.0e6;
    cscs_cfg.timesteps = 5;
    let lumi = run_campaign(&lumi_cfg);
    let cscs = run_campaign(&cscs_cfg);
    assert!(
        lumi.true_main_loop_energy_j > cscs.true_main_loop_energy_j,
        "LUMI {} J vs CSCS {} J",
        lumi.true_main_loop_energy_j,
        cscs.true_main_loop_energy_j
    );
}

#[test]
fn frequency_downscaling_improves_domain_sync_but_not_momentum_energy() {
    // The Figure 5 contrast, checked end to end on a tiny sweep.
    let edp_of = |freq: f64| {
        let mut config = CampaignConfig::paper_defaults(SystemKind::MiniHpc, turb(), 2);
        config.particles_per_rank = 450.0f64.powi(3);
        config.timesteps = 3;
        config.gpu_frequency_hz = Some(freq);
        let result = run_campaign(&config);
        let fb = function_breakdown(&result.rank_reports, &result.mapping, &[MAIN_LOOP_LABEL]);
        let edp = |label: &str| {
            let f = fb.function(label).unwrap();
            (f.gpu_j + f.cpu_j + f.mem_j) * f.time_s
        };
        (edp("DomainDecompAndSync"), edp("MomentumEnergy"))
    };
    let (sync_hi, momentum_hi) = edp_of(1410.0e6);
    let (sync_lo, momentum_lo) = edp_of(1005.0e6);
    assert!(
        sync_lo < sync_hi * 0.95,
        "DomainDecompAndSync EDP should improve: {sync_lo} vs {sync_hi}"
    );
    assert!(
        momentum_lo > momentum_hi * 0.95,
        "MomentumEnergy EDP should not improve much: {momentum_lo} vs {momentum_hi}"
    );
}

#[test]
fn rank_reports_round_trip_through_csv_files() {
    let result = quick_campaign(SystemKind::MiniHpc, turb(), 2, 3);
    let dir = std::env::temp_dir().join(format!("energy-aware-sim-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for report in &result.rank_reports {
        let path = dir.join(format!("rank{}.csv", report.rank));
        report.write_csv(&path).unwrap();
        let parsed = RankReport::read_csv(&path).unwrap();
        // The CSV stores fixed-precision values, so compare structurally and
        // numerically within the serialisation precision.
        assert_eq!(parsed.rank, report.rank);
        assert_eq!(parsed.hostname, report.hostname);
        assert_eq!(parsed.records.len(), report.records.len());
        for (a, b) in parsed.records.iter().zip(&report.records) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.iteration, b.iteration);
            assert!((a.duration_s() - b.duration_s()).abs() < 1e-6);
            assert_eq!(a.energy_j.len(), b.energy_j.len());
            for (domain, energy) in &b.energy_j {
                assert!((a.energy(*domain) - energy).abs() < 1e-3);
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn file_based_backends_read_the_virtual_sysfs_of_a_running_node() {
    // Exercise the full file-based path: simulated node -> virtual sysfs ->
    // RAPL + pm_counters back-ends -> meter -> measured region.
    let cluster = Cluster::new(SystemKind::LumiG, 1);
    let node = cluster.node(0).clone();
    let dir = std::env::temp_dir().join(format!("energy-aware-sim-sysfs-{}", std::process::id()));
    let sysfs = VirtualSysfs::new(&dir, node.clone(), cluster.clock().clone());
    sysfs.materialize().unwrap();

    let meter = PowerMeter::builder()
        .sensor(CrayPmCountersSensor::discover(sysfs.pm_counters_root()).unwrap())
        .sensor(RaplSensor::discover(sysfs.powercap_root()).unwrap())
        .clock(SimClockAdapter::new(cluster.clock().clone()))
        .build();

    meter.start_region("busy").unwrap();
    for gpu in node.gpus() {
        gpu.set_load(1.0);
    }
    cluster.advance(30.0);
    sysfs.refresh().unwrap();
    meter.end_region("busy").unwrap();
    let record = &meter.records()[0];

    // 8 GCDs at ~280 W for 30 s ≈ 67 kJ of GPU-card energy.
    let gpu = record.energy_by_kind(DomainKind::GpuCard);
    assert!(gpu > 30_000.0 && gpu < 120_000.0, "gpu card energy {gpu}");
    let cpu = record.energy_by_kind(DomainKind::Cpu);
    assert!(cpu > 1_000.0, "cpu energy {cpu}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn per_rank_meters_report_identical_node_counters_on_shared_nodes() {
    // §2: all ranks of a node report the same CPU/node measurement; only one
    // must be counted. Verify the duplication is really there in the raw data.
    let cluster = Cluster::new(SystemKind::CscsA100, 1);
    let mapping = RankMapping::one_rank_per_die_limited(&cluster, cluster.gpu_die_count());
    let meters: Vec<PowerMeter> = mapping
        .placements()
        .iter()
        .map(|p| {
            PowerMeter::builder()
                .sensor(SimNodeSensor::per_card(cluster.node(p.node_index).clone()))
                .clock(SimClockAdapter::new(cluster.clock().clone()))
                .rank(p.rank)
                .build()
        })
        .collect();
    for m in &meters {
        m.start_region("step").unwrap();
    }
    cluster.node(0).set_host_load(0.5, 0.0, 0.0);
    cluster.advance(10.0);
    for m in &meters {
        m.end_region("step").unwrap();
    }
    let records: Vec<_> = meters.iter().map(|m| m.records()[0].clone()).collect();
    let cpu0 = records[0].energy_by_kind(DomainKind::Cpu);
    assert!(cpu0 > 0.0);
    for r in &records[1..] {
        assert!((r.energy_by_kind(DomainKind::Cpu) - cpu0).abs() < 1e-9);
    }
}
