//! Metered multi-rank runs of the real step driver: one rank of
//! [`DistributedSimulation`] per simulated GPU die, every stage of every rank
//! under its own PMT meter, the reports gathered at rank 0 — the per-rank
//! table of the paper's §2. The mini-app knows nothing of the hardware it is
//! placed on; the placement, the sensors and the gathering are done here.

use comm::TransportKind;
use hwmodel::arch::SystemKind;
use hwmodel::{Cluster, RankContext, RankMapping};
use pmt::ProfilingHooks;
use sphsim::{DistributedRankReport, DistributedSimulation, Scenario, StepSummary};

/// Configuration of a metered multi-rank run.
#[derive(Clone, Debug)]
pub struct DistributedCampaignConfig {
    /// System architecture providing the GPU dies the ranks map onto.
    pub system: SystemKind,
    /// Scenario to run.
    pub scenario: &'static Scenario,
    /// Number of ranks (= GPU dies used).
    pub n_ranks: usize,
    /// Owned particles per rank (weak scaling: total = `n_ranks · n_per_rank`).
    pub n_per_rank: usize,
    /// Number of timesteps.
    pub steps: u64,
    /// IC seed.
    pub seed: u64,
    /// Transport backend the ranks communicate over.
    pub transport: TransportKind,
}

/// Everything gathered from a metered multi-rank run.
pub struct DistributedCampaignResult {
    /// The configuration that produced this result.
    pub config: DistributedCampaignConfig,
    /// Per-rank reports in rank order (rank 0's §2-style gathering).
    pub per_rank: Vec<DistributedRankReport>,
    /// Per-step global summaries (from rank 0).
    pub summaries: Vec<StepSummary>,
    /// Wall-clock duration of the whole run in seconds.
    pub elapsed_s: f64,
}

impl DistributedCampaignResult {
    /// Total particles owned across ranks at the end of the run.
    pub fn total_particles(&self) -> usize {
        self.per_rank.iter().map(|r| r.owned).sum()
    }

    /// Summed wall-time of one stage across steps, on its slowest rank.
    fn stage_time_slowest_rank_s(&self, label: &str) -> f64 {
        self.per_rank
            .iter()
            .map(|r| {
                r.report
                    .records
                    .iter()
                    .filter(|rec| rec.label == label)
                    .map(|rec| rec.duration_s())
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }

    /// Aggregate throughput of a set of stages: particles that complete the
    /// whole stage *group* per second of the group's summed wall-time, charged
    /// at the slowest rank (lock-step execution). One particle-step counts
    /// once no matter how many stages are in the group, so the number is
    /// comparable to a per-stage `particles/s` figure only when the group has
    /// one stage.
    pub fn stages_throughput_pps(&self, labels: &[&str]) -> f64 {
        let time: f64 = labels.iter().map(|l| self.stage_time_slowest_rank_s(l)).sum();
        if time <= 0.0 {
            return 0.0;
        }
        (self.total_particles() as f64) * (self.config.steps as f64) / time
    }
}

/// Run a metered distributed campaign: one rank per GPU die of a freshly built
/// [`Cluster`], each with its own per-stage meter (and whatever observers
/// `wire` attaches — e.g. a per-rank DVFS governor over the rank's die), then
/// gather every rank's report at rank 0 into a [`DistributedCampaignResult`].
///
/// `wire` runs once per rank, on that rank's thread, after the meter exists
/// and before the simulation starts.
pub fn run_distributed_campaign(
    config: &DistributedCampaignConfig,
    wire: impl Fn(&RankContext, &pmt::PowerMeter) + Sync,
) -> DistributedCampaignResult {
    assert!(config.n_ranks >= 1);
    let cluster = Cluster::with_gpu_dies(config.system, config.n_ranks);
    let mapping = RankMapping::one_rank_per_die_limited(&cluster, config.n_ranks);
    let start = std::time::Instant::now();
    let n_target = config.n_per_rank * config.n_ranks;
    let mut outcomes = hwmodel::run_ranks_with(&cluster, &mapping, config.transport, |ctx| {
        // The rank's die is busy for the duration of the run; its modelled
        // power (at whatever frequency an attached governor picks per stage)
        // is integrated over the wall clock by the per-rank meter.
        ctx.gpu.set_load(1.0);
        let meter = std::sync::Arc::new(
            pmt::PowerMeter::builder()
                .sensor(hwmodel::GpuDiePowerSensor::new(ctx.gpu.clone()))
                .rank(ctx.rank)
                .hostname(ctx.placement.hostname.clone())
                .build(),
        );
        wire(&ctx, &meter);
        let hooks = ProfilingHooks::new(meter.clone());
        let mut sim =
            DistributedSimulation::from_scenario(ctx.comm, config.scenario, n_target, config.seed).with_hooks(hooks);
        let summaries = sim.run(config.steps);
        let payload = DistributedRankReport {
            rank: ctx.rank,
            hostname: ctx.placement.hostname.clone(),
            owned: sim.n_owned(),
            ghosts: sim.ghost_count(),
            report: meter.report(),
        };
        let gathered = sim.comm().gather(payload, 0);
        (gathered, summaries)
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let (gathered, summaries) = outcomes.remove(0);
    DistributedCampaignResult {
        config: config.clone(),
        per_rank: gathered.expect("rank 0 gathers every report"),
        summaries,
        elapsed_s,
    }
}
