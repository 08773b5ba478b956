//! Rank launcher: run one closure per rank, each on its own thread, with the
//! rank's hardware context and communicator.

use crate::comm::{Comm, CommWorld};
use crate::mapping::{RankMapping, RankPlacement};
use crate::topology::Cluster;
use crate::transport::TransportKind;
use hwmodel::{GpuHandle, Node, SimClock};

/// Everything a rank function needs: identity, placement, hardware handles and
/// the communicator.
pub struct RankContext {
    /// Global rank id.
    pub rank: u32,
    /// Total number of ranks.
    pub size: u32,
    /// Placement information (node, die, card sharing).
    pub placement: RankPlacement,
    /// The node this rank runs on (shared handle).
    pub node: Node,
    /// The GPU die this rank drives (shared handle).
    pub gpu: GpuHandle,
    /// The cluster-wide simulated clock.
    pub clock: SimClock,
    /// MPI-like communicator.
    pub comm: Comm,
}

/// Run `f` once per rank of `mapping`, each on its own OS thread, and return
/// the per-rank results in rank order.
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
    let n = mapping.n_ranks();
    let comms = CommWorld::create_with(n, transport);
    let mut contexts: Vec<RankContext> = comms
        .into_iter()
        .enumerate()
        .map(|(rank, comm)| {
            let placement = mapping.placement(rank as u32).expect("placement missing").clone();
            let node = cluster.node(placement.node_index).clone();
            let gpu = node.gpu(placement.gpu_die).expect("GPU die missing").clone();
            RankContext {
                rank: rank as u32,
                size: n as u32,
                placement,
                node,
                gpu,
                clock: cluster.clock().clone(),
                comm,
            }
        })
        .collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = contexts.drain(..).map(|ctx| scope.spawn(|| f(ctx))).collect();
        handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwmodel::arch::SystemKind;

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
            let hostname = ctx.node.hostname().to_string();
            ctx.comm.gather(hostname, 0).map(|v| v.len())
        });
        assert_eq!(results[0], Some(4));
        assert!(results[1..].iter().all(|r| r.is_none()));
    }
}
