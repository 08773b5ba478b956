//! Common device abstraction.
//!
//! Every simulated hardware component (CPU socket, GPU die, memory, auxiliary
//! board electronics) exposes the same minimal interface: an instantaneous power
//! draw and a cumulative energy counter that advances with simulated time.
//! The cumulative counters are what the vendor interfaces (RAPL `energy_uj`,
//! Cray `pm_counters` `energy`) expose on real machines.

use std::fmt;

/// The class of a simulated device. Mirrors the device categories reported in
/// the paper's Figure 2 (GPU / CPU / MEM / Other) plus the whole node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceKind {
    /// A CPU socket (package domain in RAPL terms).
    Cpu,
    /// A GPU die (a GCD on AMD MI250X, a full die on NVIDIA A100).
    Gpu,
    /// Node DRAM.
    Memory,
    /// Everything else on the board: NIC, fans, VRs, SSD, baseboard.
    Aux,
    /// The whole node (sum of the above). Used by node-level sensors such as the
    /// Cray `pm_counters` `power`/`energy` files and IPMI.
    Node,
}

impl DeviceKind {
    /// Short lower-case label used in file names and report columns.
    pub fn label(&self) -> &'static str {
        match self {
            DeviceKind::Cpu => "cpu",
            DeviceKind::Gpu => "gpu",
            DeviceKind::Memory => "mem",
            DeviceKind::Aux => "other",
            DeviceKind::Node => "node",
        }
    }

    /// All concrete (non-node) device kinds.
    pub fn concrete() -> [DeviceKind; 4] {
        [DeviceKind::Cpu, DeviceKind::Gpu, DeviceKind::Memory, DeviceKind::Aux]
    }
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Interface shared by every simulated power-drawing component.
pub trait PowerDevice: Send + Sync {
    /// Stable identifier, unique within a node (e.g. `"gpu0"`, `"cpu0"`, `"mem"`).
    fn id(&self) -> String;

    /// Device class.
    fn kind(&self) -> DeviceKind;

    /// Instantaneous power draw in watts for the current load state.
    fn power_w(&self) -> f64;

    /// Cumulative energy in joules since the device was created.
    fn energy_j(&self) -> f64;

    /// `(power_w, energy_j)` as one consistent reading, taken under a single
    /// acquisition of the lock of the device's node. Both are stored state
    /// (the power is refreshed by every write to a load or a clock), so a
    /// reading is a copy. A sensor over the whole node (Cray `pm_counters`)
    /// reads every device of the node under one acquisition instead:
    /// [`Node::read`](crate::node::Node::read).
    fn reading(&self) -> (f64, f64);

    /// Advance the device's internal energy counter by `dt` seconds at the
    /// current power draw.
    fn advance(&self, dt: f64);
}

/// The inputs of a clocked device's power formula: its load in `[0, 1]` (a
/// socket's busy fraction, a die's occupancy) and its clock in Hz.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LoadAndClock {
    pub(crate) load: f64,
    pub(crate) freq_hz: f64,
}

/// The mutable state of one device, a slot of its node's state: the inputs
/// of its power formula (`I`), the power they draw, and the energy
/// integrated so far.
///
/// Power is state, not a read-time evaluation. The fields are private to
/// this module, so the inputs change only through [`DeviceState::set`],
/// which runs the formula on them once: a reading is a copy and an advance a
/// multiply-add, and the formula runs only when a load or a clock changes.
#[derive(Debug)]
pub(crate) struct DeviceState<I> {
    inputs: I,
    power_w: f64,
    energy_j: f64,
}

impl<I: Copy> DeviceState<I> {
    /// A device on `inputs`, drawing `power_of(inputs)`, with nothing
    /// integrated yet.
    pub(crate) fn new(inputs: I, power_of: impl FnOnce(I) -> f64) -> Self {
        Self {
            inputs,
            power_w: power_of(inputs),
            energy_j: 0.0,
        }
    }

    /// The inputs of the power formula.
    pub(crate) fn inputs(&self) -> I {
        self.inputs
    }

    /// Put the device on `inputs`, drawing `power_of(inputs)` from now on.
    pub(crate) fn set(&mut self, inputs: I, power_of: impl FnOnce(I) -> f64) {
        self.inputs = inputs;
        self.power_w = power_of(inputs);
    }

    /// `(power_w, energy_j)`.
    pub(crate) fn reading(&self) -> (f64, f64) {
        (self.power_w, self.energy_j)
    }

    /// Integrate the stored power over `dt` seconds.
    pub(crate) fn advance(&mut self, dt: f64) {
        self.energy_j += self.power_w * dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(DeviceKind::Cpu.label(), "cpu");
        assert_eq!(DeviceKind::Gpu.label(), "gpu");
        assert_eq!(DeviceKind::Memory.label(), "mem");
        assert_eq!(DeviceKind::Aux.label(), "other");
        assert_eq!(DeviceKind::Node.label(), "node");
        assert_eq!(DeviceKind::Gpu.to_string(), "gpu");
    }

    #[test]
    fn concrete_excludes_node() {
        let all = DeviceKind::concrete();
        assert_eq!(all.len(), 4);
        assert!(!all.contains(&DeviceKind::Node));
    }

    #[test]
    fn kinds_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let set: BTreeSet<_> = DeviceKind::concrete().into_iter().collect();
        assert_eq!(set.len(), 4);
    }
}
