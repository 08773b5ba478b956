//! Metered multi-rank runs of the real step driver: one rank of
//! [`DistributedSimulation`] per simulated GPU die, every stage of every rank
//! under its own PMT meter, the reports gathered at rank 0 — the per-rank
//! table of the paper's §2. The mini-app knows nothing of the hardware it is
//! placed on, and the machine nothing of the communicator: the launcher that
//! places ranks on the machine ([`run_ranks_with`]), the sensors and the
//! gathering are done here.

use comm::{Comm, TransportKind};
use hwmodel::arch::SystemKind;
use hwmodel::mapping::RankPlacement;
use hwmodel::{Cluster, GpuHandle, RankMapping};
use pmt::ProfilingHooks;
use sphsim::{DistributedRankReport, DistributedSimulation, Scenario, StepSummary};

/// Everything a rank function needs: identity, placement, its GPU die and
/// the communicator.
pub struct RankContext {
    /// Global rank id.
    pub rank: u32,
    /// Placement information (node, die, card sharing).
    pub placement: RankPlacement,
    /// The GPU die this rank drives (shared handle).
    pub gpu: GpuHandle,
    /// MPI-like communicator.
    pub comm: Comm,
}

/// Run `f` once per rank of `mapping`, each on its own OS thread of a
/// [`comm::run_world`], and return the per-rank results in rank order.
///
/// The closure receives a [`RankContext`]; it may use the communicator for
/// barriers/gathers exactly like an MPI program would. `Shm` connects the
/// ranks by in-process channels; `Socket` gives every rank thread a real
/// Unix-socket connection to its peers (the `--transport socket` experiment
/// axis).
pub fn run_ranks_with<T, F>(cluster: &Cluster, mapping: &RankMapping, transport: TransportKind, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(RankContext) -> T + Sync,
{
    comm::run_world(mapping.n_ranks(), transport, |comm| {
        let rank = comm.rank() as u32;
        let placement = mapping.placement(rank).expect("placement missing").clone();
        let gpu = cluster.node(placement.node_index).gpus()[placement.gpu_die].clone();
        f(RankContext {
            rank,
            placement,
            gpu,
            comm,
        })
    })
}

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
    let mut outcomes = run_ranks_with(&cluster, &mapping, config.transport, |ctx| {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_see_their_own_gpu() {
        let cluster = Cluster::new(SystemKind::CscsA100, 2);
        let mapping = RankMapping::one_rank_per_die_limited(&cluster, cluster.gpu_die_count());
        let results = run_ranks_with(&cluster, &mapping, TransportKind::Shm, |ctx| {
            (ctx.rank, ctx.placement.node_index, ctx.gpu.index())
        });
        assert_eq!(results.len(), 8);
        assert_eq!(results[0], (0, 0, 0));
        assert_eq!(results[5], (5, 1, 1));
    }

    #[test]
    fn ranks_can_use_collectives() {
        let cluster = Cluster::new(SystemKind::MiniHpc, 1);
        let mapping = RankMapping::one_rank_per_die_limited(&cluster, cluster.gpu_die_count());
        let results = run_ranks_with(&cluster, &mapping, TransportKind::Shm, |ctx| {
            ctx.comm.barrier();
            ctx.comm.allreduce_sum(1.0)
        });
        assert!(results.iter().all(|&v| (v - 2.0).abs() < 1e-12));
    }

    #[test]
    fn rank_loads_accumulate_on_shared_nodes() {
        let cluster = Cluster::new(SystemKind::LumiG, 1);
        let mapping = RankMapping::one_rank_per_die_limited(&cluster, cluster.gpu_die_count());
        run_ranks_with(&cluster, &mapping, TransportKind::Shm, |ctx| {
            ctx.gpu.set_load(1.0);
        });
        // All 8 GCDs were set busy by their ranks.
        let busy: usize = cluster.node(0).gpus().iter().filter(|g| g.occupancy() > 0.0).count();
        assert_eq!(busy, 8);
        cluster.advance(1.0);
        assert!(cluster.node(0).gpus().iter().all(|g| g.energy_j() > 0.0));
    }

    #[test]
    fn gather_reports_to_rank_zero() {
        let cluster = Cluster::new(SystemKind::CscsA100, 1);
        let mapping = RankMapping::one_rank_per_die_limited(&cluster, cluster.gpu_die_count());
        let results = run_ranks_with(&cluster, &mapping, TransportKind::Shm, |ctx| {
            ctx.comm.gather(ctx.placement.hostname, 0).map(|v| v.len())
        });
        assert_eq!(results[0], Some(4));
        assert!(results[1..].iter().all(|r| r.is_none()));
    }
}
