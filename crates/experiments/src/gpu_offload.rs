//! Paper-scale campaign executor: the GPU-offloaded time-stepping loop over a
//! simulated cluster, with per-rank PMT instrumentation and Slurm accounting.
//!
//! The executor reproduces the measurement setup of the paper end to end:
//!
//! 1. a Slurm job is submitted over a cluster of simulated nodes — Slurm's
//!    energy window starts here;
//! 2. a setup phase runs with idle GPUs (job launch, building the simulation's
//!    data structures: the Morton key sort, the octree node arena and the CSR
//!    neighbour buffers that [`crate::workload`]'s per-stage flops/bytes
//!    assume);
//! 3. the time-stepping loop runs: every pipeline stage of every timestep is
//!    executed on every rank's GPU through the workload model, bracketed by
//!    PMT regions on that rank's meter (which reads `pm_counters`-equivalent
//!    node sensors, i.e. GPU **cards**, CPU package, memory, node);
//! 4. teardown runs, the job completes and `sacct` reports the job energy.
//!
//! The result carries everything the analysis crate needs for Figures 1–5.

use crate::workload::{
    cpu_load_during, memory_load_during, network_load_during, scenario_stage_workload, stage_comm_time,
};
use cluster::{Cluster, RankMapping, SimClockAdapter, SimNodeSensor};
use hwmodel::arch::SystemKind;
use pmt::{PowerMeter, RankReport, RegionObserver};
use slurm::{AcctGatherEnergyType, SlurmJob};
use sphsim::{Scenario, SphStage};
use std::sync::Arc;

/// Label of the region wrapping the whole time-stepping loop (what PMT reports
/// as the application energy in Figure 1).
pub const MAIN_LOOP_LABEL: &str = "TimeSteppingLoop";

/// Configuration of one paper-scale run.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// System architecture to run on.
    pub system: SystemKind,
    /// Scenario (workload mix), a row of [`sphsim::scenario::all`].
    pub scenario: &'static Scenario,
    /// Number of MPI ranks (= GPU dies used).
    pub n_ranks: usize,
    /// Particles owned by each rank.
    pub particles_per_rank: f64,
    /// Number of timesteps.
    pub timesteps: u64,
    /// GPU compute frequency override in Hz (None = architecture nominal).
    pub gpu_frequency_hz: Option<f64>,
    /// Duration of the job setup phase in simulated seconds.
    pub setup_seconds: f64,
    /// Duration of the teardown phase in simulated seconds.
    pub teardown_seconds: f64,
    /// Slurm energy-accounting back-end.
    pub slurm_backend: AcctGatherEnergyType,
}

impl CampaignConfig {
    /// A configuration with the paper's defaults for the given system,
    /// scenario and rank count (particles per rank from the scenario's
    /// Table-1-style parameters, pm_counters accounting).
    pub fn paper_defaults(system: SystemKind, scenario: &'static Scenario, n_ranks: usize) -> Self {
        Self {
            system,
            scenario,
            n_ranks,
            particles_per_rank: scenario.particles_per_gpu,
            timesteps: sphsim::scenario::TIMESTEPS,
            gpu_frequency_hz: None,
            setup_seconds: 90.0,
            teardown_seconds: 10.0,
            slurm_backend: AcctGatherEnergyType::PmCounters,
        }
    }
}

/// Everything measured during one campaign.
pub struct CampaignResult {
    /// The configuration that produced this result.
    pub config: CampaignConfig,
    /// The rank-to-hardware mapping used.
    pub mapping: RankMapping,
    /// Per-rank PMT measurement reports (function-level records plus the
    /// whole-loop region).
    pub rank_reports: Vec<RankReport>,
    /// The Slurm accounting record of the job.
    pub sacct: slurm::SacctRecord,
    /// Simulated `(start, end)` of the time-stepping loop.
    pub main_loop_window: (f64, f64),
    /// Ground-truth cluster energy consumed inside the main loop, in joules
    /// (node-level view including PSU losses). Used to validate both
    /// measurement paths.
    pub true_main_loop_energy_j: f64,
    /// Ground-truth cluster energy over the whole job, in joules.
    pub true_job_energy_j: f64,
    /// Total sensor polls across all rank meters (the measurement cost of the
    /// run — what an online tuner spends to learn, cf. the offline sweep).
    pub total_meter_polls: u64,
}

impl CampaignResult {
    /// Duration of the time-stepping loop in simulated seconds.
    pub fn main_loop_duration_s(&self) -> f64 {
        self.main_loop_window.1 - self.main_loop_window.0
    }
}

/// Execute one paper-scale campaign.
pub fn run_campaign(config: &CampaignConfig) -> CampaignResult {
    run_campaign_governed(config, |_| Vec::new())
}

/// Execute one campaign under closed-loop control.
///
/// `wire` receives the campaign's freshly built [`Cluster`] — so a controller
/// can construct its actuator over the actual devices of the run (e.g.
/// `autotune::ClusterActuator`) — and returns the [`RegionObserver`]s to
/// attach to the rank-0 meter.
///
/// Stages run in lock-step across ranks, so one rank's region boundaries see
/// every stage exactly once per timestep — which is what a closed-loop
/// controller such as the `autotune` DVFS governor needs: it adjusts the GPU
/// clock at `start_region` (before the stage's kernels execute) and scores the
/// stage's measured energy at `end_region`. Attaching to a single rank keeps
/// one decision per stage execution even on multi-rank runs.
pub fn run_campaign_governed(
    config: &CampaignConfig,
    wire: impl FnOnce(&Cluster) -> Vec<Arc<dyn RegionObserver>>,
) -> CampaignResult {
    assert!(config.n_ranks >= 1);
    assert!(config.timesteps >= 1);

    let cluster = Cluster::with_gpu_dies(config.system, config.n_ranks);
    let mapping = RankMapping::one_rank_per_die_limited(&cluster, config.n_ranks);
    if let Some(f) = config.gpu_frequency_hz {
        cluster.set_gpu_frequency(f);
    }

    // One PMT meter per rank, reading the pm_counters-equivalent sensor of the
    // rank's node (card-granularity GPUs, as on the real systems), its record
    // list sized for every stage of every step plus the main loop.
    let pipeline = config.scenario.pipeline();
    let records_per_rank = config.timesteps as usize * pipeline.len() + 1;
    let meters: Vec<PowerMeter> = mapping
        .placements()
        .iter()
        .map(|p| {
            let node = cluster.node(p.node_index).clone();
            let meter = PowerMeter::builder()
                .sensor(SimNodeSensor::per_card(node))
                .clock(SimClockAdapter::new(cluster.clock().clone()))
                .rank(p.rank)
                .hostname(p.hostname.clone())
                .build();
            meter.reserve_records(records_per_rank);
            meter
        })
        .collect();

    for observer in wire(&cluster) {
        meters[0].add_region_observer(observer);
    }

    // Slurm submits the job: its energy window opens here.
    let job = SlurmJob::submit(
        1000 + config.n_ranks as u64,
        format!("sphexa-{}", config.scenario.short_name.to_lowercase()),
        cluster.clone(),
        config.slurm_backend,
    );
    let job_energy_start = cluster.total_energy_j();
    job.run_setup(config.setup_seconds);

    // The PMT window opens only now, at the start of the time-stepping loop.
    job.mark_main_loop_start();
    let loop_start = cluster.clock().now();
    let loop_energy_start = cluster.total_energy_j();
    for meter in &meters {
        meter.start_region(MAIN_LOOP_LABEL).expect("main loop region failed to start");
    }

    let vendor = cluster.node(0).gpus()[0].spec().vendor;
    for step in 0..config.timesteps {
        for meter in &meters {
            meter.set_iteration(Some(step));
        }
        for &stage in &pipeline {
            run_stage(&cluster, &mapping, &meters, config, stage, vendor);
        }
    }

    for meter in &meters {
        meter.set_iteration(None);
        meter.end_region(MAIN_LOOP_LABEL).expect("main loop region failed to end");
    }
    let loop_end = cluster.clock().now();
    let loop_energy_end = cluster.total_energy_j();
    job.mark_main_loop_end();
    job.run_teardown(config.teardown_seconds);
    job.complete();
    let job_energy_end = cluster.total_energy_j();

    // The meters are done: their records move into the reports.
    let total_meter_polls = meters.iter().map(PowerMeter::poll_count).sum();
    let rank_reports: Vec<RankReport> = meters.into_iter().map(PowerMeter::into_report).collect();

    CampaignResult {
        config: config.clone(),
        mapping,
        rank_reports,
        sacct: job.sacct(),
        main_loop_window: (loop_start, loop_end),
        true_main_loop_energy_j: loop_energy_end - loop_energy_start,
        true_job_energy_j: job_energy_end - job_energy_start,
        total_meter_polls,
    }
}

/// Execute one pipeline stage across all ranks in lock-step.
fn run_stage(
    cluster: &Cluster,
    mapping: &RankMapping,
    meters: &[PowerMeter],
    config: &CampaignConfig,
    stage: SphStage,
    vendor: hwmodel::gpu::GpuVendor,
) {
    for meter in meters {
        meter.start_region(stage.label()).expect("stage region failed to start");
    }

    // Every rank executes the same per-rank workload on its own GPU die, at
    // the scenario's per-stage cost scaling.
    let work = scenario_stage_workload(config.scenario, stage, config.particles_per_rank, vendor);
    let mut gpu_time = 0.0f64;
    for placement in mapping.placements() {
        let gpu = cluster
            .node(placement.node_index)
            .gpu(placement.gpu_die)
            .expect("mapped GPU missing");
        gpu_time = gpu_time.max(gpu.execute(&work));
    }
    let comm_time = stage_comm_time(stage, config.particles_per_rank, config.n_ranks);
    let duration = gpu_time + comm_time;

    // Host-side activity while the stage runs.
    let cpu_load = cpu_load_during(stage);
    let mem_load = memory_load_during(stage);
    let net_load = network_load_during(stage);
    for node in cluster.nodes() {
        node.set_host_load(cpu_load, mem_load, net_load);
    }

    cluster.advance(duration);

    for node in cluster.nodes() {
        node.set_gpus_idle();
    }

    for meter in meters {
        meter.end_region(stage.label()).expect("stage region failed to end");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmt::{aggregate_by_label, DomainKind};
    use sphsim::scenario;

    fn tiny_config(system: SystemKind) -> CampaignConfig {
        CampaignConfig {
            system,
            scenario: scenario::get("Turb").unwrap(),
            n_ranks: 4,
            particles_per_rank: 20.0e6,
            timesteps: 3,
            gpu_frequency_hz: None,
            setup_seconds: 20.0,
            teardown_seconds: 5.0,
            slurm_backend: AcctGatherEnergyType::PmCounters,
        }
    }

    #[test]
    fn campaign_produces_reports_for_every_rank_and_stage() {
        let result = run_campaign(&tiny_config(SystemKind::CscsA100));
        assert_eq!(result.rank_reports.len(), 4);
        for report in &result.rank_reports {
            let aggs = aggregate_by_label(&report.records);
            let labels: Vec<&str> = aggs.iter().map(|a| a.label.as_str()).collect();
            assert!(labels.contains(&"MomentumEnergy"));
            assert!(labels.contains(&"DomainDecompAndSync"));
            assert!(labels.contains(&MAIN_LOOP_LABEL));
            let me = aggs.iter().find(|a| a.label == "MomentumEnergy").unwrap();
            assert_eq!(me.calls, 3);
            assert!(me.total_time_s > 0.0);
            assert!(me.energy_by_kind(DomainKind::GpuCard) > 0.0);
        }
    }

    #[test]
    fn slurm_window_exceeds_pmt_window() {
        let result = run_campaign(&tiny_config(SystemKind::CscsA100));
        // Slurm measured from submission (includes 20 s setup) -> more energy
        // than the true main-loop energy, which in turn matches the PMT region.
        assert!(result.sacct.consumed_energy_j > result.true_main_loop_energy_j);
        assert!(result.sacct.elapsed_s > result.main_loop_duration_s());
    }

    #[test]
    fn pmt_main_loop_node_energy_matches_ground_truth() {
        let result = run_campaign(&tiny_config(SystemKind::CscsA100));
        // Sum the node-domain energy of the main-loop region over one rank per
        // node (all ranks of a node report the same node counter).
        let mut seen_nodes = std::collections::BTreeSet::new();
        let mut pmt_total = 0.0;
        for (report, placement) in result.rank_reports.iter().zip(result.mapping.placements()) {
            if !seen_nodes.insert(placement.node_index) {
                continue;
            }
            let main = report
                .records
                .iter()
                .find(|r| r.label == MAIN_LOOP_LABEL)
                .expect("main loop record");
            pmt_total += main.energy(pmt::Domain::node());
        }
        let truth = result.true_main_loop_energy_j;
        let rel = (pmt_total - truth).abs() / truth;
        assert!(rel < 0.02, "PMT {pmt_total} vs truth {truth} (rel {rel})");
    }

    #[test]
    fn gcd_sharing_is_visible_on_lumi() {
        let mut cfg = tiny_config(SystemKind::LumiG);
        cfg.n_ranks = 4; // 2 cards, 2 ranks per card
        let result = run_campaign(&cfg);
        let p0 = &result.mapping.placements()[0];
        let p1 = &result.mapping.placements()[1];
        assert_eq!(p0.gpu_card, p1.gpu_card);
        assert_eq!(p0.ranks_per_card, 2);
    }

    #[test]
    fn observers_see_every_stage_of_every_timestep() {
        use std::sync::Mutex;

        struct Counter {
            starts: Mutex<Vec<String>>,
            ends: Mutex<Vec<String>>,
        }
        impl RegionObserver for Counter {
            fn on_region_start(&self, label: &str, _time_s: f64) {
                self.starts.lock().unwrap().push(label.to_string());
            }
            fn on_region_end(&self, record: &pmt::MeasurementRecord) {
                self.ends.lock().unwrap().push(record.label.to_string());
            }
        }

        let config = tiny_config(SystemKind::CscsA100);
        let counter = Arc::new(Counter {
            starts: Mutex::new(Vec::new()),
            ends: Mutex::new(Vec::new()),
        });
        let observer = counter.clone() as Arc<dyn RegionObserver>;
        let result = run_campaign_governed(&config, |_| vec![observer]);
        let stages = config.scenario.pipeline().len() as u64;
        // Per timestep each stage starts and ends once, plus the main loop.
        let expected = (stages * config.timesteps + 1) as usize;
        assert_eq!(counter.starts.lock().unwrap().len(), expected);
        assert_eq!(counter.ends.lock().unwrap().len(), expected);
        let me = counter.ends.lock().unwrap().iter().filter(|l| *l == "MomentumEnergy").count();
        assert_eq!(me as u64, config.timesteps);
        assert!(result.total_meter_polls > 0);
        // Every rank's record list was sized once, for exactly these records.
        for report in &result.rank_reports {
            assert_eq!(report.records.len(), expected);
            assert_eq!(report.records.capacity(), expected, "rank {}", report.rank);
        }
    }

    #[test]
    fn campaign_stage_gating_matches_every_registered_scenario() {
        // Gravity records must appear only for gravitating scenarios and
        // Turbulence records only for stirred ones — for every scenario, not
        // just the Table-1 pair — and every job is named after its scenario.
        for scenario in scenario::all() {
            let mut config = tiny_config(SystemKind::CscsA100);
            config.scenario = scenario;
            config.n_ranks = 2;
            config.timesteps = 2;
            let result = run_campaign(&config);
            let report = &result.rank_reports[0];
            let labels: std::collections::BTreeSet<&str> = report.records.iter().map(|r| r.label.as_str()).collect();
            assert_eq!(
                labels.contains("Gravity"),
                scenario.has_gravity,
                "{}: Gravity gating",
                scenario.short_name
            );
            assert_eq!(
                labels.contains("Turbulence"),
                scenario.has_stirring,
                "{}: Turbulence gating",
                scenario.short_name
            );
            // Ungated stages always run.
            for always in ["MomentumEnergy", "DomainDecompAndSync", "Timestep"] {
                assert!(labels.contains(always), "{}: missing {always}", scenario.short_name);
            }
            assert!(
                result.sacct.job_name.contains(&scenario.short_name.to_lowercase()),
                "{}: job name {:?}",
                scenario.short_name,
                result.sacct.job_name
            );
        }
    }

    #[test]
    fn lower_frequency_long_runs_use_less_gpu_power() {
        let mut base = tiny_config(SystemKind::MiniHpc);
        base.n_ranks = 2;
        let nominal = run_campaign(&base);
        base.gpu_frequency_hz = Some(1005.0e6);
        let scaled = run_campaign(&base);
        // Down-scaled run takes longer but draws less average power in the loop.
        assert!(scaled.main_loop_duration_s() > nominal.main_loop_duration_s());
        let p_nom = nominal.true_main_loop_energy_j / nominal.main_loop_duration_s();
        let p_scaled = scaled.true_main_loop_energy_j / scaled.main_loop_duration_s();
        assert!(p_scaled < p_nom);
    }
}
