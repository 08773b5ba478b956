//! Auxiliary node components: NIC, fans, voltage regulators, SSD, baseboard.
//!
//! In the paper this is the "Other" category of Figure 2 — calculated by
//! subtracting GPU, CPU and memory from the node-level measurement. The paper
//! notes it is the second-most energy-consuming part and that a per-component
//! breakdown (e.g. network interface) would be valuable future information. Here
//! we model it as a baseline power plus a communication-activity component so that
//! communication-heavy functions (halo exchange, domain sync) show up in "Other".

use crate::device::{DeviceKind, PowerDevice};
use parking_lot::Mutex;
use std::sync::Arc;

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
    pub fn validate(&self) {
        assert!(self.baseline_w >= 0.0);
        assert!(self.network_active_w >= 0.0);
        assert!(
            (0.0..0.5).contains(&self.psu_loss_fraction),
            "PSU loss must be a small fraction"
        );
    }
}

#[derive(Debug)]
struct AuxState {
    network_util: f64,
    energy_j: f64,
}

/// Shareable handle to the auxiliary components of a node.
#[derive(Clone, Debug)]
pub struct AuxHandle {
    spec: Arc<AuxSpec>,
    state: Arc<Mutex<AuxState>>,
}

impl AuxHandle {
    /// Create the auxiliary device.
    pub fn new(spec: AuxSpec) -> Self {
        spec.validate();
        Self {
            spec: Arc::new(spec),
            state: Arc::new(Mutex::new(AuxState {
                network_util: 0.0,
                energy_j: 0.0,
            })),
        }
    }

    /// Static description.
    pub fn spec(&self) -> &AuxSpec {
        &self.spec
    }

    /// Set the network utilisation (0..=1).
    pub fn set_load(&self, network_util: f64) {
        assert!((0.0..=1.0).contains(&network_util), "utilisation must be in [0, 1]");
        self.state.lock().network_util = network_util;
    }

    /// Mark the network idle.
    pub fn set_idle(&self) {
        self.set_load(0.0);
    }

    /// Current network utilisation.
    pub fn load(&self) -> f64 {
        self.state.lock().network_util
    }
}

impl AuxHandle {
    /// Power draw in the load state `s` (the caller holds the state lock).
    fn power_in(&self, s: &AuxState) -> f64 {
        self.spec.baseline_w + self.spec.network_active_w * s.network_util
    }
}

impl PowerDevice for AuxHandle {
    fn id(&self) -> String {
        "aux".to_string()
    }

    fn kind(&self) -> DeviceKind {
        DeviceKind::Aux
    }

    fn power_w(&self) -> f64 {
        self.power_in(&self.state.lock())
    }

    fn energy_j(&self) -> f64 {
        self.state.lock().energy_j
    }

    fn reading(&self) -> (f64, f64) {
        let s = self.state.lock();
        (self.power_in(&s), s.energy_j)
    }

    fn advance(&self, dt: f64) {
        assert!(dt >= 0.0 && dt.is_finite());
        let mut s = self.state.lock();
        s.energy_j += self.power_in(&s) * dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> AuxSpec {
        AuxSpec {
            baseline_w: 120.0,
            network_active_w: 40.0,
            psu_loss_fraction: 0.06,
        }
    }

    #[test]
    fn baseline_power() {
        let a = AuxHandle::new(spec());
        assert!((a.power_w() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn network_activity_adds_power() {
        let a = AuxHandle::new(spec());
        a.set_load(0.5);
        assert!((a.power_w() - 140.0).abs() < 1e-9);
    }

    #[test]
    fn energy_integrates() {
        let a = AuxHandle::new(spec());
        a.advance(5.0);
        assert!((a.energy_j() - 600.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn absurd_psu_loss_panics() {
        let mut s = spec();
        s.psu_loss_fraction = 0.9;
        AuxHandle::new(s);
    }
}
