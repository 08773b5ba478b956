//! Cluster topology: N nodes of one architecture sharing one simulated clock.

use hwmodel::arch::SystemKind;
use hwmodel::{Node, SimClock};

/// A set of identical simulated nodes driven by a shared simulated clock.
#[derive(Clone)]
pub struct Cluster {
    nodes: Vec<Node>,
    clock: SimClock,
}

impl Cluster {
    /// Build a cluster of `n_nodes` nodes of the given system architecture.
    pub fn new(system: SystemKind, n_nodes: usize) -> Self {
        assert!(n_nodes >= 1, "a cluster needs at least one node");
        let clock = SimClock::new();
        let nodes = (0..n_nodes)
            .map(|i| system.node_builder().hostname(format!("nid{:06}", i + 1)).index(i).build())
            .collect();
        Self { nodes, clock }
    }

    /// Build a cluster sized to hold `gpu_dies` GPU dies (rounded up to whole nodes).
    pub fn with_gpu_dies(system: SystemKind, gpu_dies: usize) -> Self {
        assert!(gpu_dies >= 1);
        let per_node = system.node_builder().spec().gpu_dies();
        let nodes = gpu_dies.div_ceil(per_node);
        Self::new(system, nodes)
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// One node by index.
    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of GPU dies in the cluster.
    pub fn gpu_die_count(&self) -> usize {
        self.nodes.iter().map(|n| n.gpus().len()).sum()
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Advance simulated time by `dt` seconds on the clock and on every node
    /// (energy accumulates at the current device loads).
    pub fn advance(&self, dt: f64) {
        self.clock.advance(dt);
        for node in &self.nodes {
            node.advance(dt);
        }
    }

    /// Set every device on every node to idle.
    pub fn set_idle(&self) {
        for node in &self.nodes {
            node.set_idle();
        }
    }

    /// Set the GPU compute frequency on every die of every node; returns the
    /// applied frequency.
    pub fn set_gpu_frequency(&self, f_hz: f64) -> f64 {
        let mut applied = f_hz;
        for node in &self.nodes {
            applied = node.set_gpu_frequency(f_hz);
        }
        applied
    }

    /// Total energy drawn by the whole cluster so far, in joules
    /// (node-level view, i.e. including PSU losses).
    pub fn total_energy_j(&self) -> f64 {
        self.nodes.iter().map(|n| n.read().node().1).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_by_cards_and_dies() {
        // 96 GCDs -> 48 MI250X cards -> 12 LUMI-G nodes (4 cards each).
        let c = Cluster::with_gpu_dies(SystemKind::LumiG, 96);
        assert_eq!(c.node_count(), 12);
        assert_eq!(c.gpu_die_count(), 96);

        // 8 A100 cards -> 2 CSCS nodes.
        let c = Cluster::with_gpu_dies(SystemKind::CscsA100, 8);
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.gpu_die_count(), 8);

        let c = Cluster::with_gpu_dies(SystemKind::LumiG, 10);
        assert_eq!(c.node_count(), 2);
    }

    #[test]
    fn hostnames_are_unique() {
        let c = Cluster::new(SystemKind::CscsA100, 3);
        let names: Vec<&str> = c.nodes().iter().map(|n| n.hostname()).collect();
        assert_eq!(names.len(), 3);
        assert_ne!(names[0], names[1]);
        assert_eq!(c.node(2).index(), 2);
    }

    #[test]
    fn advance_moves_clock_and_accumulates_energy() {
        let c = Cluster::new(SystemKind::MiniHpc, 2);
        c.advance(10.0);
        assert_eq!(c.clock().now(), 10.0);
        assert!(c.total_energy_j() > 0.0);
    }

    #[test]
    fn frequency_applies_cluster_wide() {
        let c = Cluster::new(SystemKind::MiniHpc, 2);
        let applied = c.set_gpu_frequency(1200.0e6);
        for node in c.nodes() {
            for g in node.gpus() {
                assert_eq!(g.compute_frequency(), applied);
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_nodes_panics() {
        Cluster::new(SystemKind::LumiG, 0);
    }
}
