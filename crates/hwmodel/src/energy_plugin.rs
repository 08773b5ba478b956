//! Slurm `AcctGatherEnergyType` back-ends.
//!
//! Depending on the system, Slurm gathers job energy through IPMI (the BMC),
//! the HPE/Cray `pm_counters`, or RAPL. The back-ends differ in coverage and
//! fidelity, and those differences are modelled here:
//!
//! * **`pm_counters`** — node-level counter, essentially exact, 1 J resolution
//!   (what LUMI-G and the CSCS A100 system use);
//! * **`ipmi`** — node-level but read through the BMC: ±2 % noise and coarse
//!   quantisation;
//! * **`rapl`** — covers only CPU packages and DRAM, so it *misses the GPUs
//!   entirely*; included because Slurm supports it and it illustrates why
//!   node-level validation needs a node-level source.

use crate::noise::NoiseModel;
use crate::Node;

/// The energy-gathering back-end configured for a (simulated) Slurm cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AcctGatherEnergyType {
    /// BMC readings via IPMI.
    Ipmi,
    /// HPE/Cray `pm_counters` node counter.
    PmCounters,
    /// RAPL: CPU packages + DRAM only.
    Rapl,
}

impl AcctGatherEnergyType {
    /// Noise model applied to readings from this back-end.
    pub(crate) fn noise(&self, seed: u64) -> NoiseModel {
        match self {
            AcctGatherEnergyType::Ipmi => NoiseModel::new(0.02, 10.0, seed),
            AcctGatherEnergyType::PmCounters => NoiseModel::new(0.0, 1.0, seed),
            AcctGatherEnergyType::Rapl => NoiseModel::new(0.0, 0.0, seed),
        }
    }

    /// Read the cumulative energy counter of one node, in joules, through this
    /// back-end (before noise/quantisation).
    fn read_node_energy_j(&self, node: &Node) -> f64 {
        let r = node.read();
        match self {
            AcctGatherEnergyType::Ipmi | AcctGatherEnergyType::PmCounters => r.node().1,
            AcctGatherEnergyType::Rapl => r.cpus().1 + r.memory().1,
        }
    }

    /// Read and degrade (noise + quantisation) one node's counter.
    pub(crate) fn sample_node_energy_j(&self, node: &Node, noise: &mut NoiseModel) -> f64 {
        noise.apply(self.read_node_energy_j(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch;

    #[test]
    fn rapl_misses_gpu_energy() {
        let node = arch::cscs_a100().build();
        for g in node.gpus() {
            g.set_load(1.0);
        }
        node.advance(100.0);
        let full = AcctGatherEnergyType::PmCounters.read_node_energy_j(&node);
        let rapl = AcctGatherEnergyType::Rapl.read_node_energy_j(&node);
        assert!(
            rapl < full * 0.3,
            "RAPL ({rapl} J) should see far less than pm_counters ({full} J)"
        );
    }

    #[test]
    fn ipmi_is_noisy_but_unbiased() {
        let node = arch::lumi_g().build();
        node.advance(1000.0);
        let truth = node.read().node().1;
        let mut noise = AcctGatherEnergyType::Ipmi.noise(1);
        let mut sum = 0.0;
        for _ in 0..200 {
            sum += AcctGatherEnergyType::Ipmi.sample_node_energy_j(&node, &mut noise);
        }
        let mean = sum / 200.0;
        assert!((mean - truth).abs() / truth < 0.01, "mean {mean} vs truth {truth}");
    }

    #[test]
    fn pm_counters_quantises_to_joules() {
        let node = arch::lumi_g().build();
        node.advance(0.001); // sub-joule energy
        let mut noise = AcctGatherEnergyType::PmCounters.noise(0);
        let e = AcctGatherEnergyType::PmCounters.sample_node_energy_j(&node, &mut noise);
        assert_eq!(e, e.round());
    }
}
