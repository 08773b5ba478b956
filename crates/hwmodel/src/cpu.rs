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

use crate::device::{DeviceState, LoadAndClock};
use crate::dvfs::DvfsModel;
use crate::node::{NodeState, SharedNode};
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
    pub(crate) fn validate(&self) {
        assert!(self.cores >= 1, "a CPU needs at least one core");
        assert!(self.nominal_freq_hz > 0.0);
        assert!(self.idle_power_w >= 0.0);
        assert!(self.tdp_w > self.idle_power_w, "TDP must exceed idle power");
    }
}

/// The model of the module docs: `spec`'s draw at `load` and the clock
/// `f_hz` snaps to.
fn power(spec: &CpuSpec, load: f64, f_hz: f64) -> f64 {
    let s = spec.dvfs.dynamic_power_scale(spec.dvfs.clamp(f_hz));
    spec.idle_power_w + (spec.tdp_w - spec.idle_power_w) * load.clamp(0.0, 1.0) * s
}

/// The mutable state of one socket, a slot of its node's [`NodeState`]: its
/// busy fraction and package clock with the power they draw.
pub(crate) type CpuState = DeviceState<LoadAndClock>;

/// An idle socket at its nominal frequency with nothing integrated yet.
pub(crate) fn idle_state(spec: &CpuSpec) -> CpuState {
    spec.validate();
    let idle = LoadAndClock {
        load: 0.0,
        freq_hz: spec.nominal_freq_hz,
    };
    DeviceState::new(idle, |i| power(spec, i.load, i.freq_hz))
}

/// Shareable handle to one simulated CPU socket: a view into its node's
/// state, so clones and the node see the same socket.
#[derive(Clone, Debug)]
pub struct CpuHandle {
    node: Arc<SharedNode>,
    index: usize,
}

impl CpuHandle {
    /// The view of socket `index` of `node`.
    pub(crate) fn new(node: Arc<SharedNode>, index: usize) -> Self {
        Self { node, index }
    }

    /// Static description.
    pub fn spec(&self) -> &CpuSpec {
        &self.node.spec.cpus[self.index]
    }

    /// Set the busy fraction across all cores (0 = idle, 1 = all cores busy).
    pub fn set_load(&self, load: f64) {
        self.set_load_in(&mut self.node.state.lock(), load);
    }

    /// Mark the socket idle.
    pub fn set_idle(&self) {
        self.set_load(0.0);
    }

    /// Current busy fraction.
    pub fn load(&self) -> f64 {
        self.node.state.lock().cpus[self.index].inputs().load
    }

    /// Set the package frequency (clamped to the DVFS range).
    pub fn set_frequency(&self, f_hz: f64) -> f64 {
        let f = self.spec().dvfs.clamp(f_hz);
        let mut s = self.node.state.lock();
        let load = s.cpus[self.index].inputs().load;
        self.refresh_in(&mut s, LoadAndClock { load, freq_hz: f });
        f
    }

    /// Current package frequency.
    pub fn frequency(&self) -> f64 {
        self.node.state.lock().cpus[self.index].inputs().freq_hz
    }

    /// Instantaneous power for an explicit load/frequency (model formula).
    pub fn power_at(&self, load: f64, f_hz: f64) -> f64 {
        power(self.spec(), load, f_hz)
    }
}

// The caller of each `*_in` holds the node's lock and hands over its state.
impl CpuHandle {
    pub(crate) fn set_load_in(&self, s: &mut NodeState, load: f64) {
        assert!((0.0..=1.0).contains(&load), "load must be in [0, 1]");
        let freq_hz = s.cpus[self.index].inputs().freq_hz;
        self.refresh_in(s, LoadAndClock { load, freq_hz });
    }

    /// The one write to the socket's load and clock: stores them with the
    /// power they draw.
    fn refresh_in(&self, s: &mut NodeState, inputs: LoadAndClock) {
        s.cpus[self.index].set(inputs, |i| self.power_at(i.load, i.freq_hz));
    }
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
            nominal_freq_hz: 2.4e9,
            idle_power_w: 65.0,
            tdp_w: 280.0,
            dvfs: DvfsModel::generic_cpu(2.4e9),
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
        node.cpus()[0].set_load(1.0);
        assert!((node.read().cpu(0).0 - 280.0).abs() < 1e-9);
    }

    #[test]
    fn energy_is_power_times_time() {
        let node = node_with(spec());
        node.cpus()[0].set_load(0.5);
        let p = node.read().cpu(0).0;
        node.advance(100.0);
        assert!((node.read().cpu(0).1 - p * 100.0).abs() < 1e-6);
    }

    #[test]
    fn lower_frequency_reduces_active_power() {
        let node = node_with(spec());
        let c = &node.cpus()[0];
        c.set_load(1.0);
        let p_hi = node.read().cpu(0).0;
        c.set_frequency(1.2e9);
        let p_lo = node.read().cpu(0).0;
        assert!(p_lo < p_hi);
        assert!(p_lo > c.spec().idle_power_w);
    }

    #[test]
    #[should_panic]
    fn invalid_spec_panics() {
        let mut s = spec();
        s.tdp_w = 10.0; // below idle
        node_with(s);
    }
}
