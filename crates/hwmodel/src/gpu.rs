//! GPU power and performance model.
//!
//! Each [`GpuHandle`] models one GPU *die*: a full die on NVIDIA A100, or a single
//! GCD (Graphics Compute Die) on AMD MI250X. The distinction matters for the
//! paper's measurement methodology (§2): HPE/Cray `pm_counters` report power per
//! *card*, i.e. per **two** GCDs on LUMI-G, while one MPI rank drives one GCD.
//!
//! The power model is
//!
//! ```text
//! P(f, occ) = P_static + P_clock·s(f) + (P_peak − P_static − P_clock)·occ·s(f)
//! s(f)      = (f/f_max) · (V(f)/V(f_max))²
//! ```
//!
//! and the execution-time model for a kernel with `flops` floating-point
//! operations, `bytes` of memory traffic and `L` launches is a no-overlap
//! roofline:
//!
//! ```text
//! t(f) = flops / (peak_flops · eff_c · f/f_max)  +  bytes / (bandwidth · eff_m)  +  L·t_launch
//! ```

use crate::device::{DeviceState, LoadAndClock};
use crate::dvfs::DvfsModel;
use crate::kernel::{KernelExecution, KernelWorkload};
use crate::node::{NodeState, SharedNode};
use std::sync::Arc;

/// GPU vendor, used to select measurement back-ends and per-architecture kernel
/// efficiency factors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GpuVendor {
    Nvidia,
    Amd,
}

/// Static description of a GPU die.
#[derive(Clone, Debug, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"A100-SXM4-80GB"` or `"MI250X GCD"`.
    pub name: String,
    pub vendor: GpuVendor,
    /// Peak double-precision throughput in flop/s at the maximum compute clock.
    pub peak_flops: f64,
    /// Peak device-memory bandwidth in byte/s.
    pub mem_bandwidth: f64,
    /// Device memory capacity in bytes.
    pub mem_bytes: f64,
    /// Static (leakage + board) power in watts, drawn even when fully idle.
    pub static_power_w: f64,
    /// Clock-tree power at the maximum frequency in watts: drawn whenever the
    /// device is powered, scales with the DVFS state but not with occupancy.
    pub clock_power_w: f64,
    /// Board power limit (TDP) in watts at full occupancy and maximum clock.
    pub peak_power_w: f64,
    /// Compute-clock DVFS model.
    pub dvfs: DvfsModel,
    /// Memory clock in Hz (reported but not scaled in this work, as in the paper).
    pub memory_freq_hz: f64,
    /// Achievable fraction of peak flop/s for well-optimised kernels.
    pub compute_efficiency: f64,
    /// Achievable fraction of peak bandwidth for streaming kernels.
    pub memory_efficiency: f64,
    /// Fixed host-side + device-side cost of one kernel launch, in seconds.
    pub launch_overhead_s: f64,
    /// Number of resident work items needed to saturate the die (occupancy = 1).
    pub saturation_parallelism: f64,
    /// Dies per physical card (2 for MI250X, 1 for A100). Needed by card-level
    /// sensors such as Cray `pm_counters`.
    pub dies_per_card: u32,
}

impl GpuSpec {
    /// Validate invariants; panics with a descriptive message on nonsense specs.
    pub(crate) fn validate(&self) {
        assert!(self.peak_flops > 0.0, "peak_flops must be positive");
        assert!(self.mem_bandwidth > 0.0, "mem_bandwidth must be positive");
        assert!(self.static_power_w >= 0.0);
        assert!(self.clock_power_w >= 0.0);
        assert!(
            self.peak_power_w > self.static_power_w + self.clock_power_w,
            "peak power must exceed static + clock power"
        );
        assert!(self.compute_efficiency > 0.0 && self.compute_efficiency <= 1.0);
        assert!(self.memory_efficiency > 0.0 && self.memory_efficiency <= 1.0);
        assert!(self.saturation_parallelism > 0.0);
        assert!(self.dies_per_card >= 1);
    }
}

/// The power model of the module docs: `spec`'s draw at `occupancy` and the
/// clock `f_hz` snaps to.
fn power(spec: &GpuSpec, occupancy: f64, f_hz: f64) -> f64 {
    let s = spec.dvfs.dynamic_power_scale(spec.dvfs.clamp(f_hz));
    let dynamic_span = spec.peak_power_w - spec.static_power_w - spec.clock_power_w;
    // Dynamic power rises sub-linearly with occupancy: even a kernel that
    // keeps only part of the SMs busy drives the full clock tree, L2 and
    // HBM interface, so a lightly-loaded GPU draws far more than idle.
    let occ = occupancy.clamp(0.0, 1.0);
    let occ_power = if occ > 0.0 { occ.powf(0.35) } else { 0.0 };
    spec.static_power_w + spec.clock_power_w * s + dynamic_span * occ_power * s
}

/// The mutable state of one die, a slot of its node's [`NodeState`]: its
/// occupancy and compute clock with the power they draw, and its kernel count.
#[derive(Debug)]
pub(crate) struct GpuState {
    pub(crate) device: DeviceState<LoadAndClock>,
    kernels_executed: u64,
}

/// An idle die at its maximum clock with nothing integrated yet.
pub(crate) fn idle_state(spec: &GpuSpec) -> GpuState {
    spec.validate();
    let idle = LoadAndClock {
        load: 0.0,
        freq_hz: spec.dvfs.f_max_hz,
    };
    GpuState {
        device: DeviceState::new(idle, |i| power(spec, i.load, i.freq_hz)),
        kernels_executed: 0,
    }
}

/// A shareable handle to one simulated GPU die: a view into its node's
/// state, so clones and the node see the same die.
#[derive(Clone, Debug)]
pub struct GpuHandle {
    node: Arc<SharedNode>,
    index: usize,
}

impl GpuHandle {
    /// The view of die `index` of `node`.
    pub(crate) fn new(node: Arc<SharedNode>, index: usize) -> Self {
        Self { node, index }
    }

    /// Static description of this die.
    pub fn spec(&self) -> &GpuSpec {
        &self.node.spec.gpus[self.index]
    }

    /// Index of the die within its node (0-based).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Index of the physical card this die sits on: every card of a node
    /// holds [`NodeSpec::dies_per_card`](crate::node::NodeSpec::dies_per_card)
    /// consecutive dies.
    pub fn card_index(&self) -> usize {
        self.index / self.node.spec.dies_per_card()
    }

    /// Set the compute clock. The request is clamped and snapped to the DVFS grid;
    /// the applied frequency is returned (mirrors `nvidia-smi -lgc` semantics).
    pub fn set_compute_frequency(&self, f_hz: f64) -> f64 {
        self.set_compute_frequency_in(&mut self.node.state.lock(), f_hz)
    }

    /// Currently applied compute clock in Hz.
    pub fn compute_frequency(&self) -> f64 {
        self.node.state.lock().gpus[self.index].device.inputs().freq_hz
    }

    /// Set the current occupancy (0 = idle, 1 = fully busy).
    pub fn set_load(&self, occupancy: f64) {
        self.set_load_in(&mut self.node.state.lock(), occupancy);
    }

    /// Mark the device idle.
    pub fn set_idle(&self) {
        self.set_load(0.0);
    }

    /// Current occupancy.
    pub fn occupancy(&self) -> f64 {
        self.node.state.lock().gpus[self.index].device.inputs().load
    }

    /// Number of kernels executed so far.
    pub fn kernels_executed(&self) -> u64 {
        self.node.state.lock().gpus[self.index].kernels_executed
    }

    /// Predict the execution of `work` at the current compute clock without
    /// changing the device state.
    fn estimate(&self, work: &KernelWorkload) -> KernelExecution {
        let f = self.compute_frequency();
        self.estimate_at(work, f)
    }

    /// Predict the execution of `work` at an explicit compute clock.
    fn estimate_at(&self, work: &KernelWorkload, f_hz: f64) -> KernelExecution {
        let spec = self.spec();
        let f = spec.dvfs.clamp(f_hz);
        let occupancy = (work.parallelism / spec.saturation_parallelism).clamp(0.0, 1.0);
        let throughput = spec.peak_flops * spec.compute_efficiency * spec.dvfs.throughput_scale(f);
        // Low occupancy leaves the memory system latency-bound: the achievable
        // bandwidth fraction drops, making the kernel *less* sensitive to the
        // core clock (the regime the paper's 200³-per-GPU case sits in).
        let bandwidth = spec.mem_bandwidth * spec.memory_efficiency * (0.40 + 0.60 * occupancy);
        let t_compute = if work.flops > 0.0 { work.flops / throughput } else { 0.0 };
        let t_memory = if work.bytes > 0.0 { work.bytes / bandwidth } else { 0.0 };
        let t_launch = work.launches as f64 * spec.launch_overhead_s;
        let duration = t_compute + t_memory + t_launch;
        let compute_fraction = if duration > 0.0 { t_compute / duration } else { 0.0 };
        KernelExecution {
            duration_s: duration,
            occupancy,
            compute_fraction,
        }
    }

    /// Begin executing `work`: the device load is set to the workload's occupancy
    /// and the predicted duration is returned. The caller is responsible for
    /// advancing simulated time and calling [`GpuHandle::set_idle`] afterwards.
    pub fn execute(&self, work: &KernelWorkload) -> f64 {
        let exec = self.estimate(work);
        let mut s = self.node.state.lock();
        self.set_load_in(&mut s, exec.occupancy);
        s.gpus[self.index].kernels_executed += 1;
        exec.duration_s
    }

    /// Instantaneous power at an explicit occupancy and frequency (model formula
    /// exposed for analysis and testing).
    pub fn power_at(&self, occupancy: f64, f_hz: f64) -> f64 {
        power(self.spec(), occupancy, f_hz)
    }

    /// The die's stored power draw in watts (what NVML / ROCm-SMI report).
    pub fn power_w(&self) -> f64 {
        self.node.state.lock().gpus[self.index].device.reading().0
    }

    /// The die's cumulative energy in joules.
    pub fn energy_j(&self) -> f64 {
        self.node.state.lock().gpus[self.index].device.reading().1
    }

    /// Integrate the die's stored power over `dt` seconds, leaving the other
    /// devices of the node as they are.
    pub fn advance(&self, dt: f64) {
        assert!(dt >= 0.0 && dt.is_finite(), "dt must be non-negative");
        self.node.state.lock().gpus[self.index].device.advance(dt);
    }
}

// The caller of each `*_in` holds the node's lock and hands over its state.
impl GpuHandle {
    pub(crate) fn set_compute_frequency_in(&self, s: &mut NodeState, f_hz: f64) -> f64 {
        let f = self.spec().dvfs.clamp(f_hz);
        let load = s.gpus[self.index].device.inputs().load;
        self.refresh_in(s, LoadAndClock { load, freq_hz: f });
        f
    }

    pub(crate) fn set_load_in(&self, s: &mut NodeState, occupancy: f64) {
        assert!((0.0..=1.0).contains(&occupancy), "occupancy must be in [0, 1]");
        let freq_hz = s.gpus[self.index].device.inputs().freq_hz;
        self.refresh_in(
            s,
            LoadAndClock {
                load: occupancy,
                freq_hz,
            },
        );
    }

    /// The one write to the die's occupancy and clock: stores them with the
    /// power they draw.
    fn refresh_in(&self, s: &mut NodeState, inputs: LoadAndClock) {
        s.gpus[self.index].device.set(inputs, |i| self.power_at(i.load, i.freq_hz));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch;
    use crate::node::NodeBuilder;

    /// Die `index` of a node of `index + 1` dies of `spec`.
    fn die(spec: GpuSpec, index: usize) -> GpuHandle {
        let mut node = arch::mini_hpc().spec().clone();
        node.gpus = vec![spec; index + 1];
        NodeBuilder::new(node).build().gpus()[index].clone()
    }

    fn test_spec() -> GpuSpec {
        GpuSpec {
            name: "TestGPU".to_string(),
            vendor: GpuVendor::Nvidia,
            peak_flops: 9.7e12,
            mem_bandwidth: 1.6e12,
            mem_bytes: 40.0e9,
            static_power_w: 40.0,
            clock_power_w: 20.0,
            peak_power_w: 400.0,
            dvfs: DvfsModel::nvidia_a100(),
            memory_freq_hz: 1593.0e6,
            compute_efficiency: 0.6,
            memory_efficiency: 0.75,
            launch_overhead_s: 10.0e-6,
            saturation_parallelism: 30.0e6,
            dies_per_card: 1,
        }
    }

    #[test]
    fn idle_power_is_static_plus_clock() {
        let g = die(test_spec(), 0);
        let p = g.power_w();
        assert!(
            (p - 60.0).abs() < 1e-9,
            "idle power at max clock = static + clock ({p})"
        );
    }

    #[test]
    fn full_load_power_equals_tdp_at_max_clock() {
        let g = die(test_spec(), 0);
        g.set_load(1.0);
        assert!((g.power_w() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn lower_frequency_lowers_power() {
        let g = die(test_spec(), 0);
        g.set_load(1.0);
        let p_max = g.power_w();
        g.set_compute_frequency(1005.0e6);
        let p_low = g.power_w();
        assert!(p_low < p_max);
        // Super-linear: power ratio below frequency ratio.
        assert!(p_low / p_max < 1005.0 / 1410.0 + 0.05);
    }

    #[test]
    fn lower_frequency_slows_compute_bound_kernels() {
        let g = die(test_spec(), 0);
        let work = KernelWorkload::new("k", 1.0e13, 1.0e9).with_parallelism(1.0e8);
        let fast = g.estimate_at(&work, 1410.0e6);
        let slow = g.estimate_at(&work, 1005.0e6);
        assert!(slow.duration_s > fast.duration_s);
        assert!(fast.compute_fraction > 0.8, "this workload should be compute bound");
    }

    #[test]
    fn memory_bound_kernels_are_frequency_insensitive() {
        let g = die(test_spec(), 0);
        let work = KernelWorkload::new("k", 1.0e9, 1.0e12).with_parallelism(1.0e8);
        let fast = g.estimate_at(&work, 1410.0e6);
        let slow = g.estimate_at(&work, 1005.0e6);
        let ratio = slow.duration_s / fast.duration_s;
        assert!(ratio < 1.05, "memory-bound kernel should barely slow down, got {ratio}");
    }

    #[test]
    fn energy_accumulates_with_time() {
        let g = die(test_spec(), 0);
        g.set_load(0.5);
        g.advance(10.0);
        let e = g.energy_j();
        assert!(e > 0.0);
        g.advance(10.0);
        assert!((g.energy_j() - 2.0 * e).abs() < 1e-9);
    }

    #[test]
    fn occupancy_scales_with_parallelism() {
        let g = die(test_spec(), 0);
        let small = KernelWorkload::new("s", 1e9, 1e9).with_parallelism(3.0e6);
        let large = KernelWorkload::new("l", 1e9, 1e9).with_parallelism(3.0e8);
        assert!(g.estimate(&small).occupancy < 0.2);
        assert!((g.estimate(&large).occupancy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn execute_sets_load_and_counts_kernels() {
        let g = die(test_spec(), 0);
        let work = KernelWorkload::new("k", 1e12, 1e10).with_parallelism(3.0e7);
        let dt = g.execute(&work);
        assert!(dt > 0.0);
        assert!(g.occupancy() > 0.9);
        assert_eq!(g.kernels_executed(), 1);
        g.advance(dt);
        g.set_idle();
        assert_eq!(g.occupancy(), 0.0);
    }

    #[test]
    fn card_index_accounts_for_dies_per_card() {
        let mut spec = test_spec();
        spec.dies_per_card = 2;
        let g0 = die(spec.clone(), 0);
        let g1 = die(spec.clone(), 1);
        let g2 = die(spec, 2);
        assert_eq!(g0.card_index(), 0);
        assert_eq!(g1.card_index(), 0);
        assert_eq!(g2.card_index(), 1);
    }

    #[test]
    fn set_frequency_reports_applied_value() {
        let g = die(test_spec(), 0);
        let applied = g.set_compute_frequency(1.0e6);
        assert_eq!(applied, g.spec().dvfs.f_min_hz);
        assert_eq!(g.compute_frequency(), applied);
    }

    #[test]
    #[should_panic]
    fn invalid_occupancy_panics() {
        let g = die(test_spec(), 0);
        g.set_load(1.5);
    }
}
