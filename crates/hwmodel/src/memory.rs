//! Node DRAM power model.
//!
//! Memory power has a capacity-proportional background component (refresh,
//! standby) and a bandwidth-proportional active component. LUMI-G exposes memory
//! power through `pm_counters`; on the CSCS A100 system no separate memory
//! measurement exists and memory ends up inside "Other" (paper §3.1) — that
//! distinction is handled by the node description, not here.

use crate::device::DeviceState;
use crate::node::{NodeState, SharedNode};
use std::sync::Arc;

/// Static description of the node DRAM.
#[derive(Clone, Debug, PartialEq)]
pub struct MemorySpec {
    /// Installed capacity in bytes.
    pub capacity_bytes: f64,
    /// Background power per gigabyte in watts (refresh/standby).
    pub idle_w_per_gb: f64,
    /// Additional power at full bandwidth utilisation, in watts.
    pub active_w_max: f64,
}

impl MemorySpec {
    /// Validate invariants.
    pub fn validate(&self) {
        assert!(self.capacity_bytes > 0.0);
        assert!(self.idle_w_per_gb >= 0.0);
        assert!(self.active_w_max >= 0.0);
    }

    /// Background (idle) power of the full capacity in watts.
    pub fn idle_power_w(&self) -> f64 {
        self.idle_w_per_gb * self.capacity_bytes / 1.0e9
    }
}

/// `spec`'s draw at `bandwidth_util`: the background power plus the active
/// power in proportion.
fn power(spec: &MemorySpec, bandwidth_util: f64) -> f64 {
    spec.idle_power_w() + spec.active_w_max * bandwidth_util
}

/// The mutable state of the node DRAM, a slot of its node's [`NodeState`]:
/// its bandwidth utilisation with the power it draws.
pub(crate) type MemoryState = DeviceState<f64>;

/// Idle DRAM with nothing integrated yet.
pub(crate) fn idle_state(spec: &MemorySpec) -> MemoryState {
    spec.validate();
    DeviceState::new(0.0, |util| power(spec, util))
}

/// Shareable handle to the node DRAM: a view into its
/// node's state, so clones and the node see the same device.
#[derive(Clone, Debug)]
pub struct MemoryHandle {
    node: Arc<SharedNode>,
}

impl MemoryHandle {
    /// The view of the memory device of `node`.
    pub(crate) fn new(node: Arc<SharedNode>) -> Self {
        Self { node }
    }

    /// Static description.
    pub fn spec(&self) -> &MemorySpec {
        &self.node.spec.memory
    }

    /// Set the fraction of peak bandwidth currently in use (0..=1).
    pub fn set_load(&self, bandwidth_util: f64) {
        self.set_load_in(&mut self.node.state.lock(), bandwidth_util);
    }

    /// Mark the memory idle.
    pub fn set_idle(&self) {
        self.set_load(0.0);
    }

    /// Current bandwidth utilisation.
    pub fn load(&self) -> f64 {
        self.node.state.lock().memory.inputs()
    }
}

// The caller of each `*_in` holds the node's lock and hands over its state.
impl MemoryHandle {
    pub(crate) fn set_load_in(&self, s: &mut NodeState, bandwidth_util: f64) {
        assert!((0.0..=1.0).contains(&bandwidth_util), "utilisation must be in [0, 1]");
        s.memory.set(bandwidth_util, |util| power(self.spec(), util));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch;
    use crate::node::{Node, NodeBuilder};

    /// A node whose memory is `spec`.
    fn node_with(spec: MemorySpec) -> Node {
        let mut node = arch::mini_hpc().spec().clone();
        node.memory = spec;
        NodeBuilder::new(node).build()
    }

    fn spec() -> MemorySpec {
        MemorySpec {
            capacity_bytes: 512.0e9,
            idle_w_per_gb: 0.08,
            active_w_max: 30.0,
        }
    }

    #[test]
    fn idle_power_scales_with_capacity() {
        let node = node_with(spec());
        assert!((node.read().memory().0 - 0.08 * 512.0).abs() < 1e-9);
    }

    #[test]
    fn active_power_adds_on_top() {
        let node = node_with(spec());
        node.memory().set_load(1.0);
        assert!((node.read().memory().0 - (0.08 * 512.0 + 30.0)).abs() < 1e-9);
    }

    #[test]
    fn energy_integrates() {
        let node = node_with(spec());
        node.memory().set_load(0.5);
        let p = node.read().memory().0;
        node.advance(10.0);
        assert!((node.read().memory().1 - 10.0 * p).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn overload_panics() {
        node_with(spec()).memory().set_load(2.0);
    }
}
