//! Paper-scale campaign executor: the GPU-offloaded time-stepping loop over a
//! simulated cluster, with PMT instrumentation reported per rank and Slurm
//! accounting.
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
//!    PMT regions on the meter of that rank's node (which reads
//!    `pm_counters`-equivalent node sensors, i.e. GPU **cards**, CPU package,
//!    memory, node);
//! 4. teardown runs and the job completes: its `sacct` record is the node
//!    counters' difference between submission and completion, the whole-job
//!    energy Figure 1 holds PMT's loop energy against.
//!
//! The result carries everything the post-hoc analysis needs for Figures 1–5,
//! including one report per rank, as when every rank instruments itself. The
//! reports of one node's ranks share that node's one record list.
//!
//! One meter per node stands for the PMT instances of all of the node's
//! ranks. That is exact because every sensor a campaign reads is node-wide
//! and the ranks run each stage in lock-step: every rank of a node would read
//! the same counters at the same simulated instant and record the same
//! records. A sensor of one rank's own die would need a meter per rank again.

use crate::workload::{
    cpu_load_during, memory_load_during, network_load_during, scenario_stage_workload, stage_comm_time,
};
use hwmodel::arch::SystemKind;
use hwmodel::{Cluster, RankMapping, SimClockAdapter, SimNodeSensor, SlurmJob};
use pmt::{PowerMeter, RankReport, RegionObserver};
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
}

impl CampaignConfig {
    /// A configuration with the paper's defaults for the given system,
    /// scenario and rank count (particles per rank from the scenario's
    /// Table-1-style parameters).
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
    pub sacct: hwmodel::SacctRecord,
    /// Simulated `(start, end)` of the time-stepping loop.
    pub main_loop_window: (f64, f64),
    /// Ground-truth cluster energy consumed inside the main loop, in joules
    /// (node-level view including PSU losses). Used to validate both
    /// measurement paths.
    pub true_main_loop_energy_j: f64,
    /// Ground-truth cluster energy over the whole job, in joules.
    pub true_job_energy_j: f64,
    /// Total sensor polls of the ranks' PMT instances: each node meter's polls
    /// once per rank on that node (the measurement cost of the run — what an
    /// online tuner spends to learn, cf. the offline sweep).
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
/// attach to the meter of node 0, which is rank 0's.
///
/// Stages run in lock-step across ranks, so one meter's region boundaries see
/// every stage exactly once per timestep — which is what a closed-loop
/// controller such as the `autotune` DVFS governor needs: it adjusts the GPU
/// clock at `start_region` (before the stage's kernels execute) and scores the
/// stage's measured energy at `end_region`. Attaching to a single meter keeps
/// one decision per stage execution even on multi-node runs.
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

    // One PMT meter per used node, reading the node's pm_counters-equivalent
    // sensor (card-granularity GPUs, as on the real systems) as the node's
    // first rank, its record list sized for every stage of every step plus
    // the main loop. `node_ranks[i]` are the placements of node meter `i`.
    let pipeline = config.scenario.pipeline();
    let records_per_node = config.timesteps as usize * pipeline.len() + 1;
    let node_ranks: Vec<_> = mapping.placements().chunk_by(|a, b| a.node_index == b.node_index).collect();
    let meters: Vec<PowerMeter> = node_ranks
        .iter()
        .map(|ranks| {
            let first = &ranks[0];
            let meter = PowerMeter::builder()
                .sensor(SimNodeSensor::per_card(cluster.node(first.node_index).clone()))
                .clock(SimClockAdapter::new(cluster.clock().clone()))
                .rank(first.rank)
                .hostname(first.hostname.clone())
                .build();
            meter.reserve_records(records_per_node);
            meter
        })
        .collect();

    for observer in wire(&cluster) {
        meters[0].add_region_observer(observer);
    }

    // Slurm submits the job: its energy window opens here.
    let job = SlurmJob::submit(cluster.clone());
    let job_energy_start = cluster.total_energy_j();
    job.run_setup(config.setup_seconds);

    // The PMT window opens only now, at the start of the time-stepping loop.
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
    job.run_teardown(config.teardown_seconds);
    let sacct = job.complete();
    let job_energy_end = cluster.total_energy_j();

    // The meters are done. Every rank of a node shares the node's one record
    // list. Polls count as every rank's PMT instance would have made them.
    let mut total_meter_polls = 0;
    let mut rank_reports = Vec::with_capacity(config.n_ranks);
    for (meter, ranks) in meters.into_iter().zip(&node_ranks) {
        total_meter_polls += meter.poll_count() * ranks.len() as u64;
        let records = meter.into_report().records;
        for p in ranks.iter() {
            rank_reports.push(RankReport {
                rank: p.rank,
                hostname: p.hostname.clone(),
                records: records.clone(),
            });
        }
    }

    CampaignResult {
        config: config.clone(),
        mapping,
        rank_reports,
        sacct,
        main_loop_window: (loop_start, loop_end),
        true_main_loop_energy_j: loop_energy_end - loop_energy_start,
        true_job_energy_j: job_energy_end - job_energy_start,
        total_meter_polls,
    }
}

/// Execute one pipeline stage across all ranks in lock-step, bracketed by a
/// region on every node meter.
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
        let gpu = &cluster.node(placement.node_index).gpus()[placement.gpu_die];
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
        // Every rank reports these records, and every node meter's record
        // list was sized once, for exactly them.
        for report in &result.rank_reports {
            assert_eq!(report.records.len(), expected, "rank {}", report.rank);
        }
        for list in node_lists(result.rank_reports) {
            assert_eq!(list.capacity(), expected);
        }
    }

    /// Each node's one record list, taken back from its ranks' reports: the
    /// reports of a node hold one allocation, and once all but one are
    /// dropped the list is the node meter's own `Vec`, not a copy of it.
    fn node_lists(reports: Vec<RankReport>) -> Vec<Vec<pmt::MeasurementRecord>> {
        let mut lists: Vec<pmt::report::Records> = Vec::new();
        for report in reports {
            if lists.last().is_none_or(|list| list.as_ptr() != report.records.as_ptr()) {
                lists.push(report.records);
            }
        }
        lists
            .into_iter()
            .map(|list| {
                let at = list.as_ptr();
                let list = Vec::from(list);
                assert_eq!(list.as_ptr(), at, "a node's list is shared, not copied");
                list
            })
            .collect()
    }

    #[test]
    fn the_ranks_of_a_node_share_its_record_list() {
        // Two LUMI-G nodes, the second holding 2 of its 8 ranks.
        let mut config = tiny_config(SystemKind::LumiG);
        config.n_ranks = 10;
        let result = run_campaign(&config);
        let at: Vec<_> = result.rank_reports.iter().map(|r| r.records.as_ptr()).collect();
        assert!(!result.rank_reports[0].records.is_empty());
        assert_eq!(at[..8], [at[0]; 8]);
        assert_eq!(at[8..], [at[8]; 2]);
        assert_ne!(at[0], at[8]);
    }

    /// One meter per rank over its node's sensor, each region opened and
    /// closed at the boundaries of node 0's meter: what every rank records
    /// when it meters itself.
    struct PerRankMeters {
        meters: Vec<PowerMeter>,
        stages: u64,
        stage_starts: std::sync::atomic::AtomicU64,
    }

    impl RegionObserver for PerRankMeters {
        fn on_region_start(&self, label: &str, _time_s: f64) {
            use std::sync::atomic::Ordering::Relaxed;
            let iteration = (label != MAIN_LOOP_LABEL).then(|| self.stage_starts.fetch_add(1, Relaxed) / self.stages);
            for meter in &self.meters {
                meter.set_iteration(iteration);
                meter.start_region(label).unwrap();
            }
        }
        fn on_region_end(&self, record: &pmt::MeasurementRecord) {
            for meter in &self.meters {
                meter.end_region(record.label.as_str()).unwrap();
            }
        }
    }

    /// Label, iteration, start, end and energies of a record, floats as bits.
    type RecordBits = (String, Option<u64>, u64, u64, Vec<(pmt::Domain, u64)>);

    /// Every field of every record, floats as bits.
    fn record_bits(report: &RankReport) -> Vec<RecordBits> {
        let records = report.records.iter();
        records
            .map(|r| {
                let energies = r.energy_j.iter().map(|(d, j)| (*d, j.to_bits())).collect();
                (
                    r.label.to_string(),
                    r.iteration,
                    r.start_s.to_bits(),
                    r.end_s.to_bits(),
                    energies,
                )
            })
            .collect()
    }

    #[test]
    fn node_meters_record_what_a_meter_per_rank_records() {
        // Two LUMI-G nodes, the second holding 2 of its 8 ranks.
        let mut config = tiny_config(SystemKind::LumiG);
        config.n_ranks = 10;
        let stages = config.scenario.pipeline().len() as u64;
        let mut reference = None;
        let result = run_campaign_governed(&config, |cluster| {
            let mapping = RankMapping::one_rank_per_die_limited(cluster, config.n_ranks);
            let meters = mapping
                .placements()
                .iter()
                .map(|p| {
                    PowerMeter::builder()
                        .sensor(SimNodeSensor::per_card(cluster.node(p.node_index).clone()))
                        .clock(SimClockAdapter::new(cluster.clock().clone()))
                        .rank(p.rank)
                        .hostname(cluster.node(p.node_index).hostname())
                        .build()
                })
                .collect();
            let observer = Arc::new(PerRankMeters {
                meters,
                stages,
                stage_starts: Default::default(),
            });
            reference = Some(observer.clone());
            vec![observer as Arc<dyn RegionObserver>]
        });
        let reference = reference.unwrap();

        assert_eq!(result.rank_reports.len(), 10);
        let hosts: Vec<&str> = result.rank_reports.iter().map(|r| r.hostname.as_str()).collect();
        assert_eq!(hosts[..8], [hosts[0]; 8]);
        assert_eq!(hosts[8..], [hosts[8]; 2]);
        assert_ne!(hosts[0], hosts[8]);
        for (report, meter) in result.rank_reports.iter().zip(&reference.meters) {
            let expected = meter.report();
            assert_eq!((report.rank, &report.hostname), (expected.rank, &expected.hostname));
            assert_eq!(record_bits(report), record_bits(&expected), "rank {}", report.rank);
        }
        let polls_per_rank = 2 * stages * config.timesteps + 2;
        assert_eq!(result.total_meter_polls, 10 * polls_per_rank);
        assert_eq!(
            result.total_meter_polls,
            reference.meters.iter().map(PowerMeter::poll_count).sum()
        );
        // One list per node, holding no spare capacity.
        let lists = node_lists(result.rank_reports);
        assert_eq!(lists.len(), 2);
        for list in lists {
            assert_eq!(list.capacity(), list.len());
        }
    }

    #[test]
    fn campaign_stage_gating_matches_every_registered_scenario() {
        // Gravity records must appear only for gravitating scenarios and
        // Turbulence records only for stirred ones — for every scenario, not
        // just the Table-1 pair.
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
