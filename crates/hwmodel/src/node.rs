//! Compute-node composition.
//!
//! A [`Node`] groups CPU sockets, GPU dies, memory and auxiliary components.
//! Its [`NodeReading`] is what a node-level sensor (Cray `pm_counters`
//! `power`/`energy`, IPMI via the BMC) reports. The node-level value includes
//! a power-supply conversion loss on top of the component sum, which is why
//! the paper's "Other" category (node − GPU − CPU − MEM) is larger than the
//! auxiliary baseline alone.
//!
//! The mutable state of every device of a node — loads, clocks, the power
//! they draw, energy counters — sits behind one lock, the node's: a GPU die's
//! handle is the node's shared state plus its slot, and a whole-node read
//! ([`Node::read`]) or step ([`Node::advance`]) takes that lock once. The
//! host side — the CPU sockets, the DRAM and the board — has no handles: its
//! loads are written by [`Node::set_host_load`] alone, all three under one
//! acquisition.
//!
//! A device's power is stored state, not a read-time evaluation: every write
//! to a load or a clock ([`Node::set_host_load`], the die's setters,
//! [`GpuHandle::execute`], the node-wide die setters) runs the device's power
//! formula once and stores the result next to the energy counter. A meter
//! reads the whole node at every region boundary (in a campaign, one meter
//! per node stands for all of the node's ranks), while loads and clocks
//! change a few times per stage, so a node read is only a lock, a copy and
//! the sums; an advance integrates the stored power.
//!
//! # Association order of the node and card sums
//!
//! [`NodeReading`] is the one place that adds device readings up: the
//! `pm_counters` sensor of crate `cluster`, the virtual sysfs and the Slurm
//! energy plugins all read their sums from it. Floating-point addition does
//! not associate, and the PMT/Slurm ratios of Figure 1 are pinned to the last
//! bit, so each sum is taken in one fixed order:
//!
//! * node = `(((cpu + gpu) + mem) + aux) · (1 + psu_loss)`, where `cpu` adds
//!   the sockets and `gpu` the dies in index order ([`NodeReading::node`]);
//! * CPU = the sockets in index order ([`NodeReading::cpus`]);
//! * GPU card *k* = its dies in index order ([`NodeReading::card`]); a die
//!   sits on card `GpuHandle::card_index`, and every die of a node sits on
//!   cards of the same size ([`NodeBuilder::build`] rejects any other node).
//!
//! `the_sums_are_the_device_readings_added_left_to_right` holds each of them
//! to an explicit left-to-right sum.

use crate::aux::{self, AuxSpec, AuxState};
use crate::cpu::{self, CpuSpec, CpuState};
use crate::device::DeviceState;
use crate::gpu::{self, GpuHandle, GpuSpec, GpuState};
use crate::memory::{self, MemorySpec, MemoryState};
use parking_lot::{Mutex, MutexGuard};
use std::sync::Arc;

/// Static description of a node: its component specs and measurement quirks.
#[derive(Clone, Debug)]
pub struct NodeSpec {
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
    pub(crate) fn gpu_dies(&self) -> usize {
        self.gpus.len()
    }

    /// Number of physical GPU cards per node.
    pub fn gpu_cards(&self) -> usize {
        self.gpus.len().div_ceil(self.dies_per_card())
    }

    /// Dies per card of the installed GPUs ([`NodeBuilder::build`] rejects a
    /// node whose dies disagree on it).
    pub fn dies_per_card(&self) -> usize {
        self.gpus.first().map(|g| g.dies_per_card as usize).unwrap_or(1)
    }
}

/// The mutable state of every device of one node. [`Node::set_host_load`]
/// writes the host slots; the `*_in` methods of the die handles read and
/// write a die's slot, their callers hold the node's lock, and none of them
/// takes it again.
#[derive(Debug)]
pub(crate) struct NodeState {
    pub(crate) cpus: Vec<CpuState>,
    pub(crate) gpus: Vec<GpuState>,
    pub(crate) memory: MemoryState,
    pub(crate) aux: AuxState,
}

/// What a node and every die handle into it share: the spec and the one lock
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
    pub(crate) fn new(spec: NodeSpec) -> Self {
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

    /// Construct the node. Panics on an invalid device spec, and on dies
    /// that disagree on `dies_per_card`: a card-level counter sums the dies
    /// of one card, so every card of a node holds the same number of them.
    pub fn build(self) -> Node {
        let NodeBuilder { spec, hostname, index } = self;
        assert!(!spec.cpus.is_empty(), "a node needs at least one CPU socket");
        let state = NodeState {
            cpus: spec.cpus.iter().map(cpu::idle_state).collect(),
            gpus: spec.gpus.iter().map(gpu::idle_state).collect(),
            memory: memory::idle_state(&spec.memory),
            aux: aux::idle_state(&spec.aux),
        };
        let dies_per_card: Vec<u32> = spec.gpus.iter().map(|g| g.dies_per_card).collect();
        assert!(
            dies_per_card.windows(2).all(|w| w[0] == w[1]),
            "the GPU dies of a node must agree on dies_per_card, got {dies_per_card:?}"
        );
        let shared = Arc::new(SharedNode {
            spec,
            state: Mutex::new(state),
        });
        Node {
            hostname,
            index,
            gpus: (0..shared.spec.gpus.len()).map(|i| GpuHandle::new(shared.clone(), i)).collect(),
            shared,
        }
    }
}

/// One simulated compute node.
///
/// `Node` is cheaply cloneable: clones, and every die handle of either,
/// share the one lock and the device state behind it.
#[derive(Clone, Debug)]
pub struct Node {
    shared: Arc<SharedNode>,
    hostname: String,
    index: usize,
    gpus: Vec<GpuHandle>,
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

    /// All GPU dies.
    pub fn gpus(&self) -> &[GpuHandle] {
        &self.gpus
    }

    /// Every device's `(power_w, energy_j)` and their sums under one
    /// acquisition of the node's lock, held until the reading is dropped:
    /// while it holds one, a caller must not ask the node or any of its
    /// handles for device state (the lock is not reentrant). Both values are
    /// stored state, so a reading evaluates no power formula.
    pub fn read(&self) -> NodeReading<'_> {
        NodeReading {
            spec: self.spec(),
            state: self.shared.state.lock(),
        }
    }

    /// Advance every device of the node by `dt` seconds at its current load.
    pub fn advance(&self, dt: f64) {
        assert!(dt >= 0.0 && dt.is_finite(), "dt must be non-negative");
        let mut s = self.shared.state.lock();
        for cpu in &mut s.cpus {
            cpu.advance(dt);
        }
        for gpu in &mut s.gpus {
            gpu.advance(dt);
        }
        s.memory.advance(dt);
        s.aux.advance(dt);
    }

    /// Set every device of the node to its idle state.
    pub fn set_idle(&self) {
        self.set_host_load(0.0, 0.0, 0.0);
        self.set_gpus_idle();
    }

    /// Set the host side of the node at once: every CPU socket's busy
    /// fraction, the DRAM's bandwidth utilisation and the network's
    /// utilisation, each in `[0, 1]`. This is the only writer of the host
    /// loads: it stores each with the power it draws, under one acquisition
    /// of the node's lock.
    pub fn set_host_load(&self, cpu: f64, memory: f64, network: f64) {
        assert!(
            [cpu, memory, network].iter().all(|load| (0.0..=1.0).contains(load)),
            "host loads must be in [0, 1], got CPU {cpu}, memory {memory}, network {network}"
        );
        let spec = self.spec();
        let mut s = self.shared.state.lock();
        for (socket, socket_spec) in s.cpus.iter_mut().zip(&spec.cpus) {
            socket.set(cpu, |load| cpu::power(socket_spec, load));
        }
        s.memory.set(memory, |util| memory::power(&spec.memory, util));
        s.aux.set(network, |util| aux::power(&spec.aux, util));
    }

    /// The DRAM's bandwidth utilisation, as the last [`Node::set_host_load`]
    /// left it.
    pub(crate) fn memory_load(&self) -> f64 {
        self.shared.state.lock().memory.inputs()
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
/// it holds the node's lock until dropped. Each device's `(power_w,
/// energy_j)` is a copy of its stored power (refreshed by every mutator) and
/// energy counter; every sum of them — node, CPUs, card — is formed here, in
/// the order of the module docs.
pub struct NodeReading<'a> {
    spec: &'a NodeSpec,
    state: MutexGuard<'a, NodeState>,
}

/// `(power_w, energy_j)` readings added left to right.
fn sum(readings: impl IntoIterator<Item = (f64, f64)>) -> (f64, f64) {
    readings.into_iter().fold((0.0, 0.0), |(p, e), (dp, de)| (p + dp, e + de))
}

impl NodeReading<'_> {
    /// `(power_w, energy_j)` of CPU socket `i`.
    pub fn cpu(&self, i: usize) -> (f64, f64) {
        self.state.cpus[i].reading()
    }

    /// `(power_w, energy_j)` of GPU die `i`.
    pub fn gpu(&self, i: usize) -> (f64, f64) {
        self.state.gpus[i].reading()
    }

    /// `(power_w, energy_j)` of the node DRAM.
    pub fn memory(&self) -> (f64, f64) {
        self.state.memory.reading()
    }

    /// `(power_w, energy_j)` of the auxiliary components.
    pub fn aux(&self) -> (f64, f64) {
        self.state.aux.reading()
    }

    /// Every CPU socket, added in index order (`pm_counters`
    /// `cpu_power` / `cpu_energy`).
    pub fn cpus(&self) -> (f64, f64) {
        sum(self.state.cpus.iter().map(DeviceState::reading))
    }

    /// GPU card `k` — the dies whose `GpuHandle::card_index` is `k` —
    /// added in index order (`pm_counters` `accelK_power` /
    /// `accelK_energy`). Panics past the node's last card.
    pub fn card(&self, k: usize) -> (f64, f64) {
        let dies = self.spec.dies_per_card();
        let end = self.state.gpus.len().min((k + 1) * dies);
        sum(self.state.gpus[k * dies..end].iter().map(|g| g.reading()))
    }

    /// The whole node (`pm_counters` `power` / `energy`, IPMI):
    /// `(((cpu + gpu) + mem) + aux) · (1 + psu_loss)`, the GPU dies added in
    /// index order.
    pub fn node(&self) -> (f64, f64) {
        let gpus = sum(self.state.gpus.iter().map(|g| g.reading()));
        let (power_w, energy_j) = sum([self.cpus(), gpus, self.memory(), self.aux()]);
        let psu = 1.0 + self.spec.aux.psu_loss_fraction;
        (power_w * psu, energy_j * psu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{self, SystemKind};

    /// Put socket `i` of `node` on `load` alone. [`Node::set_host_load`]
    /// gives every socket the same load; this writes one socket's slot, so
    /// that a node's sockets can hold distinct readings.
    fn set_socket_load(node: &Node, i: usize, load: f64) {
        let spec = &node.spec().cpus[i];
        node.shared.state.lock().cpus[i].set(load, |load| cpu::power(spec, load));
    }

    /// The host loads a node holds: socket 0's, the DRAM's and the network's.
    fn host_loads(node: &Node) -> (f64, f64, f64) {
        let s = node.shared.state.lock();
        (s.cpus[0].inputs(), s.memory.inputs(), s.aux.inputs())
    }

    /// A node of `system` under uneven loads after two advances, so that no
    /// two devices hold the same counter and a sum taken in another order
    /// rounds differently.
    fn unevenly_loaded(system: SystemKind) -> Node {
        let node = system.node_builder().build();
        for (i, gpu) in node.gpus().iter().enumerate() {
            gpu.set_load(0.13 + 0.1 * i as f64);
        }
        node.set_host_load(0.37, 0.61, 0.29);
        for i in 0..node.spec().cpus.len() {
            set_socket_load(&node, i, 0.37 + 0.05 * i as f64);
        }
        node.advance(1.0 / 3.0);
        node.gpus()[0].set_compute_frequency(0.7 * node.gpus()[0].spec().dvfs.f_max_hz);
        node.advance(0.7);
        node
    }

    fn bits((power_w, energy_j): (f64, f64)) -> (u64, u64) {
        (power_w.to_bits(), energy_j.to_bits())
    }

    #[test]
    fn the_sums_are_the_device_readings_added_left_to_right() {
        let add = |(p, e): (f64, f64), (dp, de): (f64, f64)| (p + dp, e + de);
        for system in SystemKind::all() {
            let node = unevenly_loaded(system);
            let r = node.read();
            let mut cpus = r.cpu(0);
            for i in 1..node.spec().cpus.len() {
                cpus = add(cpus, r.cpu(i));
            }
            let mut gpus = r.gpu(0);
            for i in 1..node.gpus().len() {
                gpus = add(gpus, r.gpu(i));
            }
            let (memory, aux) = (r.memory(), r.aux());
            let psu = 1.0 + node.spec().aux.psu_loss_fraction;
            let whole = (
                (((cpus.0 + gpus.0) + memory.0) + aux.0) * psu,
                (((cpus.1 + gpus.1) + memory.1) + aux.1) * psu,
            );
            let name = system.name();
            assert_eq!(bits(r.node()), bits(whole), "{name} node");
            assert_eq!(bits(r.cpus()), bits(cpus), "{name} cpus");
            // The DRAM is one device: its reading is its stored power and the
            // two advances integrated in turn.
            let dram = &node.spec().memory;
            let p = dram.idle_power_w() + dram.active_w_max * 0.61;
            assert_eq!(bits(memory), bits((p, p * (1.0 / 3.0) + p * 0.7)), "{name} memory");
            for card in 0..node.spec().gpu_cards() {
                let mut dies = node.gpus().iter().filter(|g| g.card_index() == card);
                let mut expected = r.gpu(dies.next().unwrap().index());
                for die in dies {
                    expected = add(expected, r.gpu(die.index()));
                }
                assert_eq!(bits(r.card(card)), bits(expected), "{name} card {card}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must agree on dies_per_card")]
    fn a_node_whose_dies_disagree_on_dies_per_card_is_rejected() {
        let mut spec = arch::mini_hpc().spec().clone();
        let die = spec.gpus[0].clone();
        spec.gpus = [1, 2, 2]
            .into_iter()
            .map(|dies_per_card| GpuSpec {
                dies_per_card,
                ..die.clone()
            })
            .collect();
        NodeBuilder::new(spec).build();
    }

    #[test]
    fn lumi_node_has_8_gcds_on_4_cards() {
        let node = arch::lumi_g().build();
        assert_eq!(node.spec().gpu_dies(), 8);
        assert_eq!(node.spec().gpu_cards(), 4);
        let cards: Vec<usize> = node.gpus().iter().map(GpuHandle::card_index).collect();
        assert_eq!(cards, [0, 0, 1, 1, 2, 2, 3, 3]);
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
        let r = node.read();
        let gpus: f64 = (0..node.gpus().len()).map(|i| r.gpu(i).0).sum();
        let comp = r.cpus().0 + gpus + r.memory().0 + r.aux().0;
        assert!(r.node().0 > comp);
        let loss = r.node().0 / comp - 1.0;
        assert!((loss - node.spec().aux.psu_loss_fraction).abs() < 1e-9);
    }

    #[test]
    fn advance_accumulates_energy_in_all_devices() {
        let node = arch::mini_hpc().build();
        node.gpus()[0].set_load(1.0);
        node.set_host_load(0.2, 0.0, 0.0);
        node.advance(10.0);
        let r = node.read();
        let gpus: f64 = (0..node.gpus().len()).map(|i| r.gpu(i).1).sum();
        assert!(gpus > 0.0);
        assert!(r.cpus().1 > 0.0);
        assert!(r.memory().1 > 0.0);
        assert!(r.aux().1 > 0.0);
        assert!(r.node().1 > gpus);
    }

    #[test]
    fn card_energy_sums_both_gcds() {
        let node = arch::lumi_g().build();
        node.gpus()[0].set_load(1.0);
        node.gpus()[1].set_load(1.0);
        node.advance(5.0);
        let r = node.read();
        let card0 = r.card(0).1;
        assert!((card0 - (r.gpu(0).1 + r.gpu(1).1)).abs() < 1e-9);
        // Idle card draws less.
        assert!(r.card(1).1 < card0);
    }

    #[test]
    fn a_reading_is_the_power_and_the_energy() {
        let node = arch::lumi_g().build();
        node.gpus()[2].set_load(0.8);
        node.set_host_load(0.4, 0.5, 0.3);
        node.advance(3.0);
        let read: Vec<(f64, f64)> = {
            let r = node.read();
            (0..node.gpus().len()).map(|i| r.gpu(i)).collect()
        };
        for (gpu, reading) in node.gpus().iter().zip(read) {
            assert_eq!((gpu.power_w(), gpu.energy_j()), reading, "gpu{}", gpu.index());
            assert!(gpu.energy_j() > 0.0);
        }
    }

    #[test]
    fn a_node_read_is_every_device_reading() {
        let node = arch::lumi_g().build();
        node.gpus()[5].set_load(0.6);
        node.set_host_load(0.4, 0.5, 0.3);
        node.advance(3.0);
        // Each device's stored power on its inputs, and that power over 3 s.
        let mut powers: Vec<f64> = node.spec().cpus.iter().map(|c| cpu::power(c, 0.4)).collect();
        powers.extend(node.gpus().iter().map(|g| g.power_at(g.occupancy(), g.compute_frequency())));
        let (dram, board) = (&node.spec().memory, &node.spec().aux);
        powers.push(dram.idle_power_w() + dram.active_w_max * 0.5);
        powers.push(board.baseline_w + board.network_active_w * 0.3);
        let expected: Vec<(f64, f64)> = powers.into_iter().map(|p| (p, p * 3.0)).collect();
        let r = node.read();
        let mut read: Vec<(f64, f64)> = (0..node.spec().cpus.len()).map(|i| r.cpu(i)).collect();
        read.extend((0..node.gpus().len()).map(|i| r.gpu(i)));
        read.extend([r.memory(), r.aux()]);
        drop(r);
        assert_eq!(read, expected);
        assert_eq!(host_loads(&node), (0.4, 0.5, 0.3));
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
        let through_clone = clone.read().node();
        assert_eq!(through_clone, node.read().node());
    }

    #[test]
    fn set_idle_resets_loads() {
        let node = arch::cscs_a100().build();
        node.gpus()[0].set_load(1.0);
        node.set_host_load(1.0, 1.0, 1.0);
        node.set_idle();
        assert_eq!(node.gpus()[0].occupancy(), 0.0);
        assert_eq!(host_loads(&node), (0.0, 0.0, 0.0));
    }
}
