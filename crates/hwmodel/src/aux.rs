//! Auxiliary node components: NIC, fans, voltage regulators, SSD, baseboard.
//!
//! In the paper this is the "Other" category of Figure 2 — calculated by
//! subtracting GPU, CPU and memory from the node-level measurement. The paper
//! notes it is the second-most energy-consuming part and that a per-component
//! breakdown (e.g. network interface) would be valuable future information. Here
//! we model it as a baseline power plus a communication-activity component so that
//! communication-heavy functions (halo exchange, domain sync) show up in "Other".

use crate::device::DeviceState;

/// Static description of the auxiliary components of a node.
#[derive(Clone, Debug, PartialEq)]
pub struct AuxSpec {
    /// Constant baseline power in watts (fans, VRs, board, SSD).
    pub baseline_w: f64,
    /// Additional power at full network utilisation, in watts.
    pub network_active_w: f64,
    /// Power-supply conversion loss as a fraction of the total node power
    /// (applied by the node model, reported here for documentation).
    pub psu_loss_fraction: f64,
}

impl AuxSpec {
    /// Validate invariants.
    fn validate(&self) {
        assert!(self.baseline_w >= 0.0);
        assert!(self.network_active_w >= 0.0);
        assert!(
            (0.0..0.5).contains(&self.psu_loss_fraction),
            "PSU loss must be a small fraction"
        );
    }
}

/// `spec`'s draw at `network_util`: the baseline plus the network's active
/// power in proportion.
pub(crate) fn power(spec: &AuxSpec, network_util: f64) -> f64 {
    spec.baseline_w + spec.network_active_w * network_util
}

/// The mutable state of the auxiliary components, a slot of its node's
/// `NodeState`: the network utilisation with the power it draws.
pub(crate) type AuxState = DeviceState<f64>;

/// Idle auxiliary components with nothing integrated yet.
pub(crate) fn idle_state(spec: &AuxSpec) -> AuxState {
    spec.validate();
    DeviceState::new(0.0, |util| power(spec, util))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch;
    use crate::node::{Node, NodeBuilder};

    /// A node whose auxiliary components are `spec`.
    fn node_with(spec: AuxSpec) -> Node {
        let mut node = arch::mini_hpc().spec().clone();
        node.aux = spec;
        NodeBuilder::new(node).build()
    }

    fn spec() -> AuxSpec {
        AuxSpec {
            baseline_w: 120.0,
            network_active_w: 40.0,
            psu_loss_fraction: 0.06,
        }
    }

    #[test]
    fn baseline_power() {
        let node = node_with(spec());
        assert!((node.read().aux().0 - 120.0).abs() < 1e-9);
    }

    #[test]
    fn network_activity_adds_power() {
        let node = node_with(spec());
        node.set_host_load(0.0, 0.0, 0.5);
        assert!((node.read().aux().0 - 140.0).abs() < 1e-9);
    }

    #[test]
    fn energy_integrates() {
        let node = node_with(spec());
        node.advance(5.0);
        assert!((node.read().aux().1 - 600.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn absurd_psu_loss_panics() {
        let mut s = spec();
        s.psu_loss_fraction = 0.9;
        node_with(s);
    }
}
