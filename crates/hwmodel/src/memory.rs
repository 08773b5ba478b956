//! Node DRAM power model.
//!
//! Memory power has a capacity-proportional background component (refresh,
//! standby) and a bandwidth-proportional active component. LUMI-G exposes memory
//! power through `pm_counters`; on the CSCS A100 system no separate memory
//! measurement exists and memory ends up inside "Other" (paper §3.1) — that
//! distinction is handled by the node description, not here.

use crate::device::{DeviceKind, PowerDevice};
use parking_lot::Mutex;
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

#[derive(Debug)]
struct MemoryState {
    bandwidth_util: f64,
    energy_j: f64,
}

/// Shareable handle to the node DRAM.
#[derive(Clone, Debug)]
pub struct MemoryHandle {
    spec: Arc<MemorySpec>,
    state: Arc<Mutex<MemoryState>>,
}

impl MemoryHandle {
    /// Create the DRAM device.
    pub fn new(spec: MemorySpec) -> Self {
        spec.validate();
        Self {
            spec: Arc::new(spec),
            state: Arc::new(Mutex::new(MemoryState {
                bandwidth_util: 0.0,
                energy_j: 0.0,
            })),
        }
    }

    /// Static description.
    pub fn spec(&self) -> &MemorySpec {
        &self.spec
    }

    /// Set the fraction of peak bandwidth currently in use (0..=1).
    pub fn set_load(&self, bandwidth_util: f64) {
        assert!((0.0..=1.0).contains(&bandwidth_util), "utilisation must be in [0, 1]");
        self.state.lock().bandwidth_util = bandwidth_util;
    }

    /// Mark the memory idle.
    pub fn set_idle(&self) {
        self.set_load(0.0);
    }

    /// Current bandwidth utilisation.
    pub fn load(&self) -> f64 {
        self.state.lock().bandwidth_util
    }
}

impl MemoryHandle {
    /// Power draw in the load state `s` (the caller holds the state lock).
    fn power_in(&self, s: &MemoryState) -> f64 {
        self.spec.idle_power_w() + self.spec.active_w_max * s.bandwidth_util
    }
}

impl PowerDevice for MemoryHandle {
    fn id(&self) -> String {
        "mem".to_string()
    }

    fn kind(&self) -> DeviceKind {
        DeviceKind::Memory
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

    fn spec() -> MemorySpec {
        MemorySpec {
            capacity_bytes: 512.0e9,
            idle_w_per_gb: 0.08,
            active_w_max: 30.0,
        }
    }

    #[test]
    fn idle_power_scales_with_capacity() {
        let m = MemoryHandle::new(spec());
        assert!((m.power_w() - 0.08 * 512.0).abs() < 1e-9);
    }

    #[test]
    fn active_power_adds_on_top() {
        let m = MemoryHandle::new(spec());
        m.set_load(1.0);
        assert!((m.power_w() - (0.08 * 512.0 + 30.0)).abs() < 1e-9);
    }

    #[test]
    fn energy_integrates() {
        let m = MemoryHandle::new(spec());
        m.set_load(0.5);
        let p = m.power_w();
        m.advance(10.0);
        assert!((m.energy_j() - 10.0 * p).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn overload_panics() {
        MemoryHandle::new(spec()).set_load(2.0);
    }
}
