//! Compute-node composition.
//!
//! A [`Node`] groups CPU sockets, GPU dies, memory and auxiliary components and
//! exposes aggregate power/energy, mirroring what a node-level sensor (Cray
//! `pm_counters` `power`/`energy`, IPMI via the BMC) would report. The node-level
//! value includes a power-supply conversion loss on top of the component sum,
//! which is why the paper's "Other" category (node − GPU − CPU − MEM) is larger
//! than the auxiliary baseline alone.
//!
//! The mutable state of every device of a node — loads, clocks, the power
//! they draw, energy counters, kernel counts — sits behind one lock, the
//! node's: a device handle is the node's shared state plus its slot, and a
//! whole-node read ([`Node::read`]) or step ([`Node::advance`]) takes that
//! lock once.
//!
//! A device's power is stored state, not a read-time evaluation: every write
//! to a load or a clock (the handles' setters, [`GpuHandle::execute`], the
//! node-wide setters) runs the device's power formula once and stores the
//! result next to the energy counter. Every rank on a node reads it at every
//! region boundary, while loads and clocks change a few times per stage, so a
//! node read is only a lock, a copy and the sums; an advance integrates the
//! stored power.

use crate::aux::{self, AuxHandle, AuxSpec, AuxState};
use crate::cpu::{self, CpuHandle, CpuSpec, CpuState};
use crate::device::DeviceKind;
use crate::gpu::{self, GpuHandle, GpuSpec, GpuState};
use crate::memory::{self, MemoryHandle, MemorySpec, MemoryState};
use parking_lot::{Mutex, MutexGuard};
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

/// The mutable state of every device of one node. The `*_in` methods of the
/// device handles read and write their slot of it; their callers hold the
/// node's lock, and none of them takes it again.
#[derive(Debug)]
pub(crate) struct NodeState {
    pub(crate) cpus: Vec<CpuState>,
    pub(crate) gpus: Vec<GpuState>,
    pub(crate) memory: MemoryState,
    pub(crate) aux: AuxState,
}

/// What a node and every handle into it share: the spec and the one lock
/// over the state of all of its devices.
#[derive(Debug)]
pub(crate) struct SharedNode {
    pub(crate) spec: NodeSpec,
    pub(crate) state: Mutex<NodeState>,
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
        let state = NodeState {
            cpus: spec.cpus.iter().map(cpu::idle_state).collect(),
            gpus: spec.gpus.iter().map(gpu::idle_state).collect(),
            memory: memory::idle_state(&spec.memory),
            aux: aux::idle_state(&spec.aux),
        };
        let shared = Arc::new(SharedNode {
            spec,
            state: Mutex::new(state),
        });
        Node {
            hostname,
            index,
            cpus: (0..shared.spec.cpus.len()).map(|i| CpuHandle::new(shared.clone(), i)).collect(),
            gpus: (0..shared.spec.gpus.len()).map(|i| GpuHandle::new(shared.clone(), i)).collect(),
            memory: MemoryHandle::new(shared.clone()),
            aux: AuxHandle::new(shared.clone()),
            shared,
        }
    }
}

/// One simulated compute node.
///
/// `Node` is cheaply cloneable: clones, and every device handle of either,
/// share the one lock and the device state behind it.
#[derive(Clone, Debug)]
pub struct Node {
    shared: Arc<SharedNode>,
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
        &self.shared.spec
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
        let cards = self.spec().gpu_cards();
        let mut out: Vec<Vec<GpuHandle>> = vec![Vec::new(); cards];
        for gpu in &self.gpus {
            out[gpu.card_index()].push(gpu.clone());
        }
        out
    }

    /// Every device's `(power_w, energy_j)` under one acquisition of the
    /// node's lock, held until the reading is dropped: while it holds one, a
    /// caller must not ask the node or any of its handles for device state
    /// (the lock is not reentrant). Both values are stored state, so a
    /// reading evaluates no power formula.
    pub fn read(&self) -> NodeReading<'_> {
        NodeReading {
            node: self,
            state: self.shared.state.lock(),
        }
    }

    /// Total power of one physical GPU card (sum of its dies) in watts. This is
    /// what HPE/Cray `pm_counters` `accelN_power` reports on MI250X systems.
    pub fn card_power_w(&self, card: usize) -> f64 {
        let r = self.read();
        self.gpus
            .iter()
            .filter(|g| g.card_index() == card)
            .map(|g| r.gpu(g.index()).0)
            .sum()
    }

    /// Total energy of one physical GPU card in joules.
    pub fn card_energy_j(&self, card: usize) -> f64 {
        let r = self.read();
        self.gpus
            .iter()
            .filter(|g| g.card_index() == card)
            .map(|g| r.gpu(g.index()).1)
            .sum()
    }

    /// Aggregate instantaneous power of one device class in watts (without PSU loss).
    pub fn power_by_kind_w(&self, kind: DeviceKind) -> f64 {
        self.read().sum_of(kind, |r| r.0)
    }

    /// Aggregate energy of one device class in joules (without PSU loss).
    pub fn energy_by_kind_j(&self, kind: DeviceKind) -> f64 {
        self.read().sum_of(kind, |r| r.1)
    }

    /// Node-level power in watts: component sum scaled by the PSU conversion loss.
    /// This is what the BMC / `pm_counters` `power` file reports.
    pub fn power_w(&self) -> f64 {
        self.read().sum_of(DeviceKind::Node, |r| r.0)
    }

    /// Node-level cumulative energy in joules (component sum + PSU loss).
    pub fn energy_j(&self) -> f64 {
        self.read().sum_of(DeviceKind::Node, |r| r.1)
    }

    /// Advance every device of the node by `dt` seconds at its current load.
    pub fn advance(&self, dt: f64) {
        assert!(dt >= 0.0 && dt.is_finite(), "dt must be non-negative");
        let mut s = self.shared.state.lock();
        for c in &self.cpus {
            c.advance_in(&mut s, dt);
        }
        for g in &self.gpus {
            g.advance_in(&mut s, dt);
        }
        self.memory.advance_in(&mut s, dt);
        self.aux.advance_in(&mut s, dt);
    }

    /// Set every device of the node to its idle state.
    pub fn set_idle(&self) {
        self.set_host_load(0.0, 0.0, 0.0);
        self.set_gpus_idle();
    }

    /// Set the host side of the node at once: every CPU socket's busy
    /// fraction, the memory's bandwidth utilisation and the network's
    /// utilisation, each in `[0, 1]`.
    pub fn set_host_load(&self, cpu: f64, memory: f64, network: f64) {
        let mut s = self.shared.state.lock();
        for c in &self.cpus {
            c.set_load_in(&mut s, cpu);
        }
        self.memory.set_load_in(&mut s, memory);
        self.aux.set_load_in(&mut s, network);
    }

    /// Set every GPU die of the node idle.
    pub fn set_gpus_idle(&self) {
        let mut s = self.shared.state.lock();
        for g in &self.gpus {
            g.set_load_in(&mut s, 0.0);
        }
    }

    /// Set the compute clock of every GPU die; returns the applied frequency.
    pub fn set_gpu_frequency(&self, f_hz: f64) -> f64 {
        let mut s = self.shared.state.lock();
        let mut applied = f_hz;
        for g in &self.gpus {
            applied = g.set_compute_frequency_in(&mut s, f_hz);
        }
        applied
    }
}

/// One consistent reading of every device of a node, from [`Node::read`]:
/// it holds the node's lock until dropped. Each accessor copies a device's
/// stored power (refreshed by every mutator) and energy counter.
pub struct NodeReading<'a> {
    node: &'a Node,
    state: MutexGuard<'a, NodeState>,
}

impl NodeReading<'_> {
    /// `(power_w, energy_j)` of CPU socket `i`.
    pub fn cpu(&self, i: usize) -> (f64, f64) {
        self.node.cpus[i].reading_in(&self.state)
    }

    /// `(power_w, energy_j)` of GPU die `i`.
    pub fn gpu(&self, i: usize) -> (f64, f64) {
        self.node.gpus[i].reading_in(&self.state)
    }

    /// `(power_w, energy_j)` of the node DRAM.
    pub fn memory(&self) -> (f64, f64) {
        self.node.memory.reading_in(&self.state)
    }

    /// `(power_w, energy_j)` of the auxiliary components.
    pub fn aux(&self) -> (f64, f64) {
        self.node.aux.reading_in(&self.state)
    }

    /// One part (`pick`) of the readings of a device class, summed over its
    /// devices in index order; the node's is the sum over the concrete
    /// classes, scaled by the PSU loss.
    fn sum_of(&self, kind: DeviceKind, pick: fn((f64, f64)) -> f64) -> f64 {
        match kind {
            DeviceKind::Cpu => (0..self.node.cpus.len()).map(|i| pick(self.cpu(i))).sum(),
            DeviceKind::Gpu => (0..self.node.gpus.len()).map(|i| pick(self.gpu(i))).sum(),
            DeviceKind::Memory => pick(self.memory()),
            DeviceKind::Aux => pick(self.aux()),
            DeviceKind::Node => {
                let component_sum: f64 = DeviceKind::concrete().iter().map(|k| self.sum_of(*k, pick)).sum();
                component_sum * (1.0 + self.node.spec().aux.psu_loss_fraction)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch;
    use crate::device::PowerDevice;

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
    fn a_node_read_is_every_device_reading() {
        let node = arch::lumi_g().build();
        node.gpus()[5].set_load(0.6);
        node.set_host_load(0.4, 0.5, 0.3);
        node.advance(3.0);
        let expected = (
            node.cpus().iter().map(PowerDevice::reading).collect::<Vec<_>>(),
            node.gpus().iter().map(PowerDevice::reading).collect::<Vec<_>>(),
            node.memory().reading(),
            node.aux().reading(),
        );
        let r = node.read();
        let read = (
            (0..node.cpus().len()).map(|i| r.cpu(i)).collect::<Vec<_>>(),
            (0..node.gpus().len()).map(|i| r.gpu(i)).collect::<Vec<_>>(),
            r.memory(),
            r.aux(),
        );
        drop(r);
        assert_eq!(read, expected);
        assert_eq!(node.cpus()[0].load(), 0.4);
        assert_eq!((node.memory().load(), node.aux().load()), (0.5, 0.3));
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
        node.memory().set_load(1.0);
        node.aux().set_load(1.0);
        node.set_idle();
        assert_eq!(node.gpus()[0].occupancy(), 0.0);
        assert_eq!(node.cpus()[0].load(), 0.0);
        assert_eq!((node.memory().load(), node.aux().load()), (0.0, 0.0));
    }
}
