//! Rank-to-GPU assignment.
//!
//! The paper follows the GPU-centric rule of thumb: **one MPI rank drives one
//! GPU** (§2). On LUMI-G "one GPU" from the application's point of view is one
//! GCD — half an MI250X card — so two ranks share the physical card whose power
//! `pm_counters` report. On the CSCS A100 system and miniHPC, one rank maps to
//! one single-die card. [`RankMapping`] encodes these rules so the analysis can
//! attribute card-level measurements without double counting.

use crate::topology::Cluster;
use hwmodel::GpuHandle;
use hwmodel::Node;

/// Where one rank runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankPlacement {
    /// Global MPI rank.
    pub rank: u32,
    /// Node index within the cluster.
    pub node_index: usize,
    /// Hostname of that node.
    pub hostname: String,
    /// GPU die index within the node driven by this rank.
    pub gpu_die: usize,
    /// Physical GPU card index within the node that die belongs to.
    pub gpu_card: usize,
    /// Number of ranks sharing that physical card (2 on MI250X, 1 on A100).
    pub ranks_per_card: u32,
    /// Rank-local index on the node (0-based).
    pub local_rank: u32,
}

/// The full rank-to-hardware assignment of a job.
#[derive(Clone, Debug, Default)]
pub struct RankMapping {
    placements: Vec<RankPlacement>,
}

impl RankMapping {
    /// Build the one-rank-per-die mapping limited to the first `n_ranks` dies
    /// (e.g. a job that does not fill its last node).
    pub fn one_rank_per_die_limited(cluster: &Cluster, n_ranks: usize) -> Self {
        assert!(n_ranks >= 1, "at least one rank required");
        assert!(
            n_ranks <= cluster.gpu_die_count(),
            "cannot place {n_ranks} ranks on {} GPU dies",
            cluster.gpu_die_count()
        );
        let mut placements = Vec::with_capacity(n_ranks);
        let mut rank = 0u32;
        'outer: for (node_index, node) in cluster.nodes().iter().enumerate() {
            let dies_per_card = node.spec().dies_per_card();
            for (die, gpu) in node.gpus().iter().enumerate() {
                if rank as usize >= n_ranks {
                    break 'outer;
                }
                placements.push(RankPlacement {
                    rank,
                    node_index,
                    hostname: node.hostname().to_string(),
                    gpu_die: die,
                    gpu_card: gpu.card_index(),
                    ranks_per_card: dies_per_card as u32,
                    local_rank: die as u32,
                });
                rank += 1;
            }
        }
        Self { placements }
    }

    /// All placements in rank order.
    pub fn placements(&self) -> &[RankPlacement] {
        &self.placements
    }

    /// Number of ranks.
    pub(crate) fn n_ranks(&self) -> usize {
        self.placements.len()
    }

    /// Placement of a specific rank.
    pub fn placement(&self, rank: u32) -> Option<&RankPlacement> {
        self.placements.get(rank as usize)
    }

    /// The node a rank runs on.
    #[cfg_attr(not(test), expect(dead_code, reason = "the mapping and sensor tests use it"))]
    fn node<'c>(&self, cluster: &'c Cluster, rank: u32) -> Option<&'c Node> {
        self.placement(rank).map(|p| cluster.node(p.node_index))
    }

    /// The GPU die a rank drives.
    #[cfg_attr(not(test), expect(dead_code, reason = "the mapping and sensor tests use it"))]
    fn gpu<'c>(&self, cluster: &'c Cluster, rank: u32) -> Option<&'c GpuHandle> {
        let p = self.placement(rank)?;
        cluster.node(p.node_index).gpu(p.gpu_die)
    }

    /// Number of distinct nodes used by the mapping.
    #[cfg_attr(not(test), expect(dead_code, reason = "the mapping tests count a mapping's nodes"))]
    fn node_count(&self) -> usize {
        self.placements
            .iter()
            .map(|p| p.node_index)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwmodel::arch::SystemKind;

    #[test]
    fn lumi_mapping_shares_cards_between_two_ranks() {
        let cluster = Cluster::new(SystemKind::LumiG, 2);
        let mapping = RankMapping::one_rank_per_die_limited(&cluster, cluster.gpu_die_count());
        assert_eq!(mapping.n_ranks(), 16); // 8 GCDs per node
        let p0 = mapping.placement(0).unwrap();
        let p1 = mapping.placement(1).unwrap();
        assert_eq!(p0.gpu_card, p1.gpu_card);
        assert_eq!(p0.ranks_per_card, 2);
        // Ranks 0 and 1, and nobody else, drive card 0 of node 0.
        let on_first_card = mapping.placements().iter().filter(|p| (p.node_index, p.gpu_card) == (0, 0));
        let sharing: Vec<u32> = on_first_card.map(|p| p.rank).collect();
        assert_eq!(sharing, vec![0, 1]);
    }

    #[test]
    fn cscs_mapping_is_one_rank_per_card() {
        let cluster = Cluster::new(SystemKind::CscsA100, 2);
        let mapping = RankMapping::one_rank_per_die_limited(&cluster, cluster.gpu_die_count());
        assert_eq!(mapping.n_ranks(), 8);
        assert!(mapping.placements().iter().all(|p| p.ranks_per_card == 1));
    }

    #[test]
    fn node_leaders_are_first_rank_of_each_node() {
        let cluster = Cluster::new(SystemKind::LumiG, 3);
        let mapping = RankMapping::one_rank_per_die_limited(&cluster, cluster.gpu_die_count());
        assert_eq!(mapping.node_count(), 3);
        // Ranks fill the nodes in order: the first rank of node k is 8·k.
        for (rank, p) in mapping.placements().iter().enumerate() {
            assert_eq!((p.rank as usize, p.node_index), (rank, rank / 8));
        }
    }

    #[test]
    fn limited_mapping_stops_early() {
        let cluster = Cluster::new(SystemKind::CscsA100, 2);
        let mapping = RankMapping::one_rank_per_die_limited(&cluster, 5);
        assert_eq!(mapping.n_ranks(), 5);
        assert_eq!(mapping.node_count(), 2);
        assert_eq!(mapping.placement(4).unwrap().node_index, 1);
    }

    #[test]
    fn accessors_resolve_hardware() {
        let cluster = Cluster::new(SystemKind::MiniHpc, 1);
        let mapping = RankMapping::one_rank_per_die_limited(&cluster, cluster.gpu_die_count());
        assert_eq!(mapping.n_ranks(), 2);
        let node = mapping.node(&cluster, 1).unwrap();
        assert_eq!(node.index(), 0);
        let gpu = mapping.gpu(&cluster, 1).unwrap();
        assert_eq!(gpu.index(), 1);
        assert!(mapping.placement(99).is_none());
    }

    #[test]
    #[should_panic]
    fn too_many_ranks_panics() {
        let cluster = Cluster::new(SystemKind::MiniHpc, 1);
        RankMapping::one_rank_per_die_limited(&cluster, 100);
    }
}
