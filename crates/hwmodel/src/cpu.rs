//! CPU socket power model.
//!
//! In the paper's GPU-centric runs the CPUs mostly orchestrate GPU work, so their
//! power sits between idle and a light-load level, and their *energy* per function
//! is proportional to the function's duration (§3.1). The model is
//!
//! ```text
//! P(load, f) = P_idle + (P_tdp − P_idle) · load · s(f)
//! ```
//!
//! where `load` is the busy fraction across all cores and `s(f)` the DVFS dynamic
//! power scale.

use crate::device::{DeviceKind, PowerDevice};
use crate::dvfs::DvfsModel;
use parking_lot::Mutex;
use std::sync::Arc;

/// Static description of one CPU socket.
#[derive(Clone, Debug, PartialEq)]
pub struct CpuSpec {
    /// Marketing name, e.g. `"AMD EPYC 7A53"`.
    pub name: String,
    /// Physical core count of the socket.
    pub cores: u32,
    /// Nominal all-core frequency in Hz.
    pub nominal_freq_hz: f64,
    /// Idle package power in watts.
    pub idle_power_w: f64,
    /// Package TDP in watts (all cores busy at nominal frequency).
    pub tdp_w: f64,
    /// DVFS model of the package.
    pub dvfs: DvfsModel,
}

impl CpuSpec {
    /// Validate invariants.
    pub fn validate(&self) {
        assert!(self.cores >= 1, "a CPU needs at least one core");
        assert!(self.nominal_freq_hz > 0.0);
        assert!(self.idle_power_w >= 0.0);
        assert!(self.tdp_w > self.idle_power_w, "TDP must exceed idle power");
    }
}

#[derive(Debug)]
struct CpuState {
    load: f64,
    freq_hz: f64,
    energy_j: f64,
    total_time_s: f64,
    busy_time_s: f64,
}

/// Shareable handle to one simulated CPU socket.
#[derive(Clone, Debug)]
pub struct CpuHandle {
    spec: Arc<CpuSpec>,
    index: usize,
    state: Arc<Mutex<CpuState>>,
}

impl CpuHandle {
    /// Create a socket with the given spec and index within its node.
    pub fn new(spec: CpuSpec, index: usize) -> Self {
        spec.validate();
        let f0 = spec.nominal_freq_hz;
        Self {
            spec: Arc::new(spec),
            index,
            state: Arc::new(Mutex::new(CpuState {
                load: 0.0,
                freq_hz: f0,
                energy_j: 0.0,
                total_time_s: 0.0,
                busy_time_s: 0.0,
            })),
        }
    }

    /// Static description.
    pub fn spec(&self) -> &CpuSpec {
        &self.spec
    }

    /// Socket index within the node.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Set the busy fraction across all cores (0 = idle, 1 = all cores busy).
    pub fn set_load(&self, load: f64) {
        assert!((0.0..=1.0).contains(&load), "load must be in [0, 1]");
        self.state.lock().load = load;
    }

    /// Set the busy fraction from a number of busy cores.
    // sphlint::allow(dead-pub, pending deletion)
    pub fn set_busy_cores(&self, cores: u32) {
        let load = (cores.min(self.spec.cores) as f64) / self.spec.cores as f64;
        self.set_load(load);
    }

    /// Mark the socket idle.
    pub fn set_idle(&self) {
        self.set_load(0.0);
    }

    /// Current busy fraction.
    pub fn load(&self) -> f64 {
        self.state.lock().load
    }

    /// Set the package frequency (clamped to the DVFS range).
    pub fn set_frequency(&self, f_hz: f64) -> f64 {
        let f = self.spec.dvfs.clamp(f_hz);
        self.state.lock().freq_hz = f;
        f
    }

    /// Current package frequency.
    pub fn frequency(&self) -> f64 {
        self.state.lock().freq_hz
    }

    /// Fraction of simulated time with non-zero load.
    // sphlint::allow(dead-pub, pending deletion)
    pub fn utilization(&self) -> f64 {
        let s = self.state.lock();
        if s.total_time_s <= 0.0 {
            0.0
        } else {
            s.busy_time_s / s.total_time_s
        }
    }

    /// Instantaneous power for an explicit load/frequency (model formula).
    pub fn power_at(&self, load: f64, f_hz: f64) -> f64 {
        let s = self.spec.dvfs.dynamic_power_scale(self.spec.dvfs.clamp(f_hz));
        self.spec.idle_power_w + (self.spec.tdp_w - self.spec.idle_power_w) * load.clamp(0.0, 1.0) * s
    }
}

impl CpuHandle {
    /// Power draw in the load state `s` (the caller holds the state lock).
    fn power_in(&self, s: &CpuState) -> f64 {
        self.power_at(s.load, s.freq_hz)
    }
}

impl PowerDevice for CpuHandle {
    fn id(&self) -> String {
        format!("cpu{}", self.index)
    }

    fn kind(&self) -> DeviceKind {
        DeviceKind::Cpu
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
        s.total_time_s += dt;
        if s.load > 0.0 {
            s.busy_time_s += dt;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CpuSpec {
        CpuSpec {
            name: "Test EPYC".into(),
            cores: 64,
            nominal_freq_hz: 2.4e9,
            idle_power_w: 65.0,
            tdp_w: 280.0,
            dvfs: DvfsModel::generic_cpu(2.4e9),
        }
    }

    #[test]
    fn idle_power_matches_spec() {
        let c = CpuHandle::new(spec(), 0);
        assert!((c.power_w() - 65.0).abs() < 1e-9);
    }

    #[test]
    fn full_load_reaches_tdp() {
        let c = CpuHandle::new(spec(), 0);
        c.set_load(1.0);
        assert!((c.power_w() - 280.0).abs() < 1e-9);
    }

    #[test]
    fn busy_cores_scale_load() {
        let c = CpuHandle::new(spec(), 0);
        c.set_busy_cores(16);
        assert!((c.load() - 0.25).abs() < 1e-12);
        c.set_busy_cores(1000);
        assert!((c.load() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn energy_is_power_times_time() {
        let c = CpuHandle::new(spec(), 0);
        c.set_load(0.5);
        let p = c.power_w();
        c.advance(100.0);
        assert!((c.energy_j() - p * 100.0).abs() < 1e-6);
    }

    #[test]
    fn lower_frequency_reduces_active_power() {
        let c = CpuHandle::new(spec(), 0);
        c.set_load(1.0);
        let p_hi = c.power_w();
        c.set_frequency(1.2e9);
        let p_lo = c.power_w();
        assert!(p_lo < p_hi);
        assert!(p_lo > c.spec().idle_power_w);
    }

    #[test]
    fn utilization_tracks_busy_time() {
        let c = CpuHandle::new(spec(), 0);
        c.set_load(1.0);
        c.advance(1.0);
        c.set_idle();
        c.advance(3.0);
        assert!((c.utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn invalid_spec_panics() {
        let mut s = spec();
        s.tdp_w = 10.0; // below idle
        CpuHandle::new(s, 0);
    }
}
