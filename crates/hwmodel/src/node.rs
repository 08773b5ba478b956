//! Compute-node composition.
//!
//! A [`Node`] groups CPU sockets, GPU dies, memory and auxiliary components and
//! exposes aggregate power/energy, mirroring what a node-level sensor (Cray
//! `pm_counters` `power`/`energy`, IPMI via the BMC) would report. The node-level
//! value includes a power-supply conversion loss on top of the component sum,
//! which is why the paper's "Other" category (node − GPU − CPU − MEM) is larger
//! than the auxiliary baseline alone.

use crate::aux::{AuxHandle, AuxSpec};
use crate::cpu::{CpuHandle, CpuSpec};
use crate::device::{DeviceKind, PowerDevice};
use crate::gpu::{GpuHandle, GpuSpec};
use crate::memory::{MemoryHandle, MemorySpec};
use std::sync::Arc;

/// Static description of a node: its component specs and measurement quirks.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    /// System family name, e.g. `"LUMI-G"`.
    pub system: String,
    /// CPU sockets.
    pub cpus: Vec<CpuSpec>,
    /// GPU dies (one entry per die/GCD, not per card).
    pub gpus: Vec<GpuSpec>,
    /// Node DRAM.
    pub memory: MemorySpec,
    /// Auxiliary components.
    pub aux: AuxSpec,
    /// Whether the platform exposes a separate memory power sensor
    /// (`true` on LUMI-G, `false` on the CSCS A100 system, per the paper §3.1).
    pub has_memory_sensor: bool,
}

impl NodeSpec {
    /// Number of GPU dies per node.
    pub fn gpu_dies(&self) -> usize {
        self.gpus.len()
    }

    /// Number of physical GPU cards per node.
    pub fn gpu_cards(&self) -> usize {
        if self.gpus.is_empty() {
            return 0;
        }
        let dies_per_card = self.gpus[0].dies_per_card as usize;
        self.gpus.len().div_ceil(dies_per_card)
    }

    /// Dies per card of the installed GPUs (assumed homogeneous).
    pub fn dies_per_card(&self) -> usize {
        self.gpus.first().map(|g| g.dies_per_card as usize).unwrap_or(1)
    }
}

/// Builder for [`Node`] instances.
#[derive(Clone, Debug)]
pub struct NodeBuilder {
    spec: NodeSpec,
    hostname: String,
    index: usize,
}

impl NodeBuilder {
    /// Start building a node from a spec.
    pub fn new(spec: NodeSpec) -> Self {
        Self {
            spec,
            hostname: "nid000001".to_string(),
            index: 0,
        }
    }

    /// Set the hostname reported by this node.
    pub fn hostname(mut self, hostname: impl Into<String>) -> Self {
        self.hostname = hostname.into();
        self
    }

    /// Set the node index within its cluster.
    pub fn index(mut self, index: usize) -> Self {
        self.index = index;
        self
    }

    /// Access the spec being built.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// Construct the node.
    pub fn build(self) -> Node {
        let NodeBuilder { spec, hostname, index } = self;
        assert!(!spec.cpus.is_empty(), "a node needs at least one CPU socket");
        let cpus: Vec<CpuHandle> = spec
            .cpus
            .iter()
            .enumerate()
            .map(|(i, s)| CpuHandle::new(s.clone(), i))
            .collect();
        let gpus: Vec<GpuHandle> = spec
            .gpus
            .iter()
            .enumerate()
            .map(|(i, s)| GpuHandle::new(s.clone(), i))
            .collect();
        let memory = MemoryHandle::new(spec.memory.clone());
        let aux = AuxHandle::new(spec.aux.clone());
        Node {
            spec: Arc::new(spec),
            hostname,
            index,
            cpus,
            gpus,
            memory,
            aux,
        }
    }
}

/// One simulated compute node.
///
/// `Node` is cheaply cloneable: clones share the same underlying device state.
#[derive(Clone, Debug)]
pub struct Node {
    spec: Arc<NodeSpec>,
    hostname: String,
    index: usize,
    cpus: Vec<CpuHandle>,
    gpus: Vec<GpuHandle>,
    memory: MemoryHandle,
    aux: AuxHandle,
}

impl Node {
    /// Static description of the node.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// Hostname of this node.
    pub fn hostname(&self) -> &str {
        &self.hostname
    }

    /// Index of this node within its cluster.
    pub fn index(&self) -> usize {
        self.index
    }

    /// All CPU sockets.
    pub fn cpus(&self) -> &[CpuHandle] {
        &self.cpus
    }

    /// All GPU dies.
    pub fn gpus(&self) -> &[GpuHandle] {
        &self.gpus
    }

    /// One CPU socket by index.
    pub fn cpu(&self, i: usize) -> Option<&CpuHandle> {
        self.cpus.get(i)
    }

    /// One GPU die by index.
    pub fn gpu(&self, i: usize) -> Option<&GpuHandle> {
        self.gpus.get(i)
    }

    /// Node DRAM handle.
    pub fn memory(&self) -> &MemoryHandle {
        &self.memory
    }

    /// Auxiliary components handle.
    pub fn aux(&self) -> &AuxHandle {
        &self.aux
    }

    /// GPU dies grouped by physical card, in card order.
    pub fn gpu_cards(&self) -> Vec<Vec<GpuHandle>> {
        let cards = self.spec.gpu_cards();
        let mut out: Vec<Vec<GpuHandle>> = vec![Vec::new(); cards];
        for gpu in &self.gpus {
            out[gpu.card_index()].push(gpu.clone());
        }
        out
    }

    /// Total power of one physical GPU card (sum of its dies) in watts. This is
    /// what HPE/Cray `pm_counters` `accelN_power` reports on MI250X systems.
    pub fn card_power_w(&self, card: usize) -> f64 {
        self.gpus.iter().filter(|g| g.card_index() == card).map(|g| g.power_w()).sum()
    }

    /// Total energy of one physical GPU card in joules.
    pub fn card_energy_j(&self, card: usize) -> f64 {
        self.gpus.iter().filter(|g| g.card_index() == card).map(|g| g.energy_j()).sum()
    }

    /// Aggregate instantaneous power of one device class in watts (without PSU loss).
    pub fn power_by_kind_w(&self, kind: DeviceKind) -> f64 {
        match kind {
            DeviceKind::Cpu => self.cpus.iter().map(|d| d.power_w()).sum(),
            DeviceKind::Gpu => self.gpus.iter().map(|d| d.power_w()).sum(),
            DeviceKind::Memory => self.memory.power_w(),
            DeviceKind::Aux => self.aux.power_w(),
            DeviceKind::Node => self.power_w(),
        }
    }

    /// Aggregate energy of one device class in joules (without PSU loss).
    pub fn energy_by_kind_j(&self, kind: DeviceKind) -> f64 {
        match kind {
            DeviceKind::Cpu => self.cpus.iter().map(|d| d.energy_j()).sum(),
            DeviceKind::Gpu => self.gpus.iter().map(|d| d.energy_j()).sum(),
            DeviceKind::Memory => self.memory.energy_j(),
            DeviceKind::Aux => self.aux.energy_j(),
            DeviceKind::Node => self.energy_j(),
        }
    }

    /// Node-level power in watts: component sum scaled by the PSU conversion loss.
    /// This is what the BMC / `pm_counters` `power` file reports.
    pub fn power_w(&self) -> f64 {
        let component_sum: f64 = DeviceKind::concrete().iter().map(|k| self.power_by_kind_w(*k)).sum();
        component_sum * (1.0 + self.spec.aux.psu_loss_fraction)
    }

    /// Node-level cumulative energy in joules (component sum + PSU loss).
    pub fn energy_j(&self) -> f64 {
        let component_sum: f64 = DeviceKind::concrete().iter().map(|k| self.energy_by_kind_j(*k)).sum();
        component_sum * (1.0 + self.spec.aux.psu_loss_fraction)
    }

    /// Advance every device of the node by `dt` seconds at its current load.
    pub fn advance(&self, dt: f64) {
        for c in &self.cpus {
            c.advance(dt);
        }
        for g in &self.gpus {
            g.advance(dt);
        }
        self.memory.advance(dt);
        self.aux.advance(dt);
    }

    /// Set every device of the node to its idle state.
    pub fn set_idle(&self) {
        for c in &self.cpus {
            c.set_idle();
        }
        for g in &self.gpus {
            g.set_idle();
        }
        self.memory.set_idle();
        self.aux.set_idle();
    }

    /// Set the compute clock of every GPU die; returns the applied frequency.
    pub fn set_gpu_frequency(&self, f_hz: f64) -> f64 {
        let mut applied = f_hz;
        for g in &self.gpus {
            applied = g.set_compute_frequency(f_hz);
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch;

    #[test]
    fn lumi_node_has_8_gcds_on_4_cards() {
        let node = arch::lumi_g().build();
        assert_eq!(node.spec().gpu_dies(), 8);
        assert_eq!(node.spec().gpu_cards(), 4);
        assert_eq!(node.gpu_cards().len(), 4);
        assert!(node.gpu_cards().iter().all(|c| c.len() == 2));
    }

    #[test]
    fn cscs_node_has_4_single_die_cards() {
        let node = arch::cscs_a100().build();
        assert_eq!(node.spec().gpu_dies(), 4);
        assert_eq!(node.spec().gpu_cards(), 4);
    }

    #[test]
    fn node_power_exceeds_component_sum_by_psu_loss() {
        let node = arch::cscs_a100().build();
        let comp: f64 = DeviceKind::concrete().iter().map(|k| node.power_by_kind_w(*k)).sum();
        assert!(node.power_w() > comp);
        let loss = node.power_w() / comp - 1.0;
        assert!((loss - node.spec().aux.psu_loss_fraction).abs() < 1e-9);
    }

    #[test]
    fn advance_accumulates_energy_in_all_devices() {
        let node = arch::mini_hpc().build();
        node.gpus()[0].set_load(1.0);
        node.cpus()[0].set_load(0.2);
        node.advance(10.0);
        assert!(node.energy_by_kind_j(DeviceKind::Gpu) > 0.0);
        assert!(node.energy_by_kind_j(DeviceKind::Cpu) > 0.0);
        assert!(node.energy_by_kind_j(DeviceKind::Memory) > 0.0);
        assert!(node.energy_by_kind_j(DeviceKind::Aux) > 0.0);
        assert!(node.energy_j() > node.energy_by_kind_j(DeviceKind::Gpu));
    }

    #[test]
    fn card_energy_sums_both_gcds() {
        let node = arch::lumi_g().build();
        node.gpu(0).unwrap().set_load(1.0);
        node.gpu(1).unwrap().set_load(1.0);
        node.advance(5.0);
        let card0 = node.card_energy_j(0);
        let die0 = node.gpu(0).unwrap().energy_j();
        let die1 = node.gpu(1).unwrap().energy_j();
        assert!((card0 - (die0 + die1)).abs() < 1e-9);
        // Idle card draws less.
        assert!(node.card_energy_j(1) < card0);
    }

    #[test]
    fn a_reading_is_the_power_and_the_energy() {
        let node = arch::lumi_g().build();
        node.gpus()[2].set_load(0.8);
        node.cpus()[0].set_load(0.4);
        node.memory().set_load(0.5);
        node.aux().set_load(0.3);
        node.advance(3.0);
        let mut devices: Vec<&dyn PowerDevice> = vec![node.memory(), node.aux()];
        devices.extend(node.cpus().iter().map(|c| c as &dyn PowerDevice));
        devices.extend(node.gpus().iter().map(|g| g as &dyn PowerDevice));
        for device in devices {
            assert_eq!(
                device.reading(),
                (device.power_w(), device.energy_j()),
                "{}",
                device.id()
            );
            assert!(device.energy_j() > 0.0);
        }
    }

    #[test]
    fn set_gpu_frequency_applies_to_all_dies() {
        let node = arch::mini_hpc().build();
        let applied = node.set_gpu_frequency(1200.0e6);
        for g in node.gpus() {
            assert_eq!(g.compute_frequency(), applied);
        }
    }

    #[test]
    fn clones_share_device_state() {
        let node = arch::cscs_a100().build();
        let clone = node.clone();
        node.gpus()[0].set_load(1.0);
        node.advance(1.0);
        assert_eq!(clone.energy_j(), node.energy_j());
    }

    #[test]
    fn set_idle_resets_loads() {
        let node = arch::cscs_a100().build();
        node.gpus()[0].set_load(1.0);
        node.cpus()[0].set_load(1.0);
        node.set_idle();
        assert_eq!(node.gpus()[0].occupancy(), 0.0);
        assert_eq!(node.cpus()[0].load(), 0.0);
    }
}
