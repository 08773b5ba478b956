//! Node DRAM power model.
//!
//! Memory power has a capacity-proportional background component (refresh,
//! standby) and a bandwidth-proportional active component. LUMI-G exposes memory
//! power through `pm_counters`; on the CSCS A100 system no separate memory
//! measurement exists and memory ends up inside "Other" (paper §3.1) — that
//! distinction is handled by the node description, not here.

use crate::device::DeviceState;

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
    fn validate(&self) {
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
pub(crate) fn power(spec: &MemorySpec, bandwidth_util: f64) -> f64 {
    spec.idle_power_w() + spec.active_w_max * bandwidth_util
}

/// The mutable state of the node DRAM, a slot of its node's `NodeState`: its
/// bandwidth utilisation with the power it draws.
pub(crate) type MemoryState = DeviceState<f64>;

/// Idle DRAM with nothing integrated yet.
pub(crate) fn idle_state(spec: &MemorySpec) -> MemoryState {
    spec.validate();
    DeviceState::new(0.0, |util| power(spec, util))
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
        node.set_host_load(0.0, 1.0, 0.0);
        assert!((node.read().memory().0 - (0.08 * 512.0 + 30.0)).abs() < 1e-9);
    }

    #[test]
    fn energy_integrates() {
        let node = node_with(spec());
        node.set_host_load(0.0, 0.5, 0.0);
        let p = node.read().memory().0;
        node.advance(10.0);
        assert!((node.read().memory().1 - 10.0 * p).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "host loads must be in [0, 1]")]
    fn overload_panics() {
        node_with(spec()).set_host_load(0.0, 2.0, 0.0);
    }
}
