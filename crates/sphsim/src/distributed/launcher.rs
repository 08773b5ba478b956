//! Running a whole world: one [`DistributedSimulation`] shard per rank on
//! plain threads, and the report a metered rank sends to rank 0.

use super::{DistributedSimulation, OverlapStats};
use crate::particle::ParticleSet;
use crate::propagator::StepSummary;
use crate::scenario::Scenario;
use comm::{CommWorld, TransportKind, Wire, WireError, WireReader};
use pmt::RankReport;
use std::sync::Arc;
use telemetry::Telemetry;

/// One rank's final state from [`run_distributed`].
pub struct ShardResult {
    /// Rank id.
    pub rank: usize,
    /// Global construction-order id of each owned particle.
    pub ids: Vec<u32>,
    /// The rank's owned particles (no ghosts).
    pub particles: ParticleSet,
    /// Per-step global summaries (identical on every rank up to round-off).
    pub summaries: Vec<StepSummary>,
    /// How many splitter re-balances this rank observed.
    pub rebalances: u64,
    /// Ghost-exchange overlap accounting accumulated over the run.
    pub overlap: OverlapStats,
}

/// Drive one [`DistributedSimulation`] shard per rank on plain threads over
/// `transport` and return every rank's final shard — the hardware-free
/// physics path the decomposition/equivalence tests and the CI smoke gate run
/// through. `Socket` runs the identical rank threads over real Unix-socket
/// connections and the hand-rolled wire codec.
///
/// With a `sink`, the same one is attached to every rank: per-rank
/// `Step`/stage spans interleave into one totally ordered stream (the shared
/// sequence atomic), each rank publishes its communication totals at the end,
/// and the exporters are flushed once after the last rank joins.
pub fn run_distributed(
    scenario: &'static Scenario,
    n_ranks: usize,
    n_target: usize,
    seed: u64,
    steps: u64,
    transport: TransportKind,
    sink: Option<Arc<Telemetry>>,
) -> Vec<ShardResult> {
    let comms = CommWorld::create_with(n_ranks, transport);
    let shards = std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .enumerate()
            .map(|(rank, comm)| {
                let sink = sink.clone();
                scope.spawn(move || {
                    let mut sim = DistributedSimulation::from_scenario(comm, scenario, n_target, seed);
                    if let Some(sink) = sink {
                        sim = sim.with_telemetry(sink);
                    }
                    let summaries = sim.run(steps);
                    sim.publish_comm_stats();
                    let rebalances = sim.rebalance_count();
                    let overlap = sim.overlap_stats();
                    let (ids, particles) = sim.into_shard();
                    ShardResult {
                        rank,
                        ids,
                        particles,
                        summaries,
                        rebalances,
                        overlap,
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
    });
    if let Some(sink) = sink {
        sink.flush();
    }
    shards
}

/// One rank's gathered measurement, à la the paper's per-rank energy tables:
/// what a metered rank hands to `Comm::gather` at the end of a run.
pub struct DistributedRankReport {
    /// Rank id.
    pub rank: u32,
    /// Hostname of the node the rank ran on.
    pub hostname: String,
    /// Particles owned at the end of the run.
    pub owned: usize,
    /// Ghosts held at the end of the run.
    pub ghosts: usize,
    /// The rank's full PMT report (per-stage records).
    pub report: RankReport,
}

impl Wire for DistributedRankReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rank.encode(out);
        self.hostname.encode(out);
        self.owned.encode(out);
        self.ghosts.encode(out);
        self.report.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            rank: Wire::decode(r)?,
            hostname: Wire::decode(r)?,
            owned: Wire::decode(r)?,
            ghosts: Wire::decode(r)?,
            report: Wire::decode(r)?,
        })
    }
    fn min_wire_size() -> usize {
        4 + 8 + 8 + 8 + RankReport::min_wire_size()
    }
}
