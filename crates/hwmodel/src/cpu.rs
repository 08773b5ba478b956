//! CPU socket power model.
//!
//! In the paper's GPU-centric runs the CPUs mostly orchestrate GPU work, so their
//! power sits between idle and a light-load level, and their *energy* per function
//! is proportional to the function's duration (§3.1). The paper reads a socket
//! only through node-level counters and never changes its clock, so the model is
//!
//! ```text
//! P(load) = P_idle + (P_tdp − P_idle) · load
//! ```
//!
//! where `load` is the busy fraction across all cores, set for the whole host
//! by [`Node::set_host_load`](crate::node::Node::set_host_load).

use crate::device::DeviceState;

/// Static description of one CPU socket.
#[derive(Clone, Debug, PartialEq)]
pub struct CpuSpec {
    /// Marketing name, e.g. `"AMD EPYC 7A53"`.
    pub name: String,
    /// Physical core count of the socket.
    pub cores: u32,
    /// Idle package power in watts.
    pub idle_power_w: f64,
    /// Package TDP in watts (all cores busy).
    pub tdp_w: f64,
}

impl CpuSpec {
    /// Validate invariants.
    pub(crate) fn validate(&self) {
        assert!(self.cores >= 1, "a CPU needs at least one core");
        assert!(self.idle_power_w >= 0.0);
        assert!(self.tdp_w > self.idle_power_w, "TDP must exceed idle power");
    }
}

/// The model of the module docs: `spec`'s draw at `load`.
pub(crate) fn power(spec: &CpuSpec, load: f64) -> f64 {
    spec.idle_power_w + (spec.tdp_w - spec.idle_power_w) * load
}

/// The mutable state of one socket, a slot of its node's `NodeState`: its
/// busy fraction with the power it draws.
pub(crate) type CpuState = DeviceState<f64>;

/// An idle socket with nothing integrated yet.
pub(crate) fn idle_state(spec: &CpuSpec) -> CpuState {
    spec.validate();
    DeviceState::new(0.0, |load| power(spec, load))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch;
    use crate::node::{Node, NodeBuilder};

    /// A node whose only socket is `spec`.
    fn node_with(spec: CpuSpec) -> Node {
        let mut node = arch::mini_hpc().spec().clone();
        node.cpus = vec![spec];
        NodeBuilder::new(node).build()
    }

    fn spec() -> CpuSpec {
        CpuSpec {
            name: "Test EPYC".into(),
            cores: 64,
            idle_power_w: 65.0,
            tdp_w: 280.0,
        }
    }

    #[test]
    fn idle_power_matches_spec() {
        let node = node_with(spec());
        assert!((node.read().cpu(0).0 - 65.0).abs() < 1e-9);
    }

    #[test]
    fn full_load_reaches_tdp() {
        let node = node_with(spec());
        node.set_host_load(1.0, 0.0, 0.0);
        assert!((node.read().cpu(0).0 - 280.0).abs() < 1e-9);
    }

    #[test]
    fn energy_is_power_times_time() {
        let node = node_with(spec());
        node.set_host_load(0.5, 0.0, 0.0);
        let p = node.read().cpu(0).0;
        node.advance(100.0);
        assert!((node.read().cpu(0).1 - p * 100.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn invalid_spec_panics() {
        let mut s = spec();
        s.tdp_w = 10.0; // below idle
        node_with(s);
    }
}
