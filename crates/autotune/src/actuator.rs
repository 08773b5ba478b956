//! Frequency actuation: how the governor's decisions reach the hardware.
//!
//! The governor only ever talks to a [`FrequencyActuator`]; the concrete
//! implementation decides whether that means one simulated GPU die
//! ([`GpuHandle`]), every die of a cluster in lock-step ([`ClusterActuator`],
//! the `nvidia-smi -lgc`-across-all-nodes equivalent of the paper's sweep), or
//! a pure software model (`ModelActuator`) for the tests.

use cluster::Cluster;
use hwmodel::dvfs::DvfsModel;
use hwmodel::gpu::GpuHandle;
use parking_lot::Mutex;

/// A device (or device group) whose compute clock the governor can set.
///
/// Implementations clamp and snap requests onto the device's DVFS grid and
/// report the frequency actually applied, mirroring `nvidia-smi -lgc`
/// semantics.
pub trait FrequencyActuator: Send + Sync {
    /// The DVFS model describing the supported range and step granularity.
    fn dvfs(&self) -> DvfsModel;

    /// Request a compute frequency; returns the clamped/snapped value applied.
    fn set_frequency(&self, f_hz: f64) -> f64;

    /// The currently applied compute frequency.
    fn frequency(&self) -> f64;
}

impl FrequencyActuator for GpuHandle {
    fn dvfs(&self) -> DvfsModel {
        self.spec().dvfs.clone()
    }

    fn set_frequency(&self, f_hz: f64) -> f64 {
        self.set_compute_frequency(f_hz)
    }

    fn frequency(&self) -> f64 {
        self.compute_frequency()
    }
}

/// Actuator driving every GPU die of a [`Cluster`] in lock-step, as the
/// paper's frequency sweeps do across all nodes of a job allocation.
pub struct ClusterActuator {
    cluster: Cluster,
    dvfs: DvfsModel,
    current: Mutex<f64>,
}

impl ClusterActuator {
    /// Wrap a cluster; the DVFS model and the initial frequency are taken from
    /// the first GPU die (which may already be pinned below nominal, e.g. by a
    /// campaign's `gpu_frequency_hz` override).
    pub fn new(cluster: Cluster) -> Self {
        let first_gpu = &cluster.node(0).gpus()[0];
        let dvfs = first_gpu.spec().dvfs.clone();
        let current = first_gpu.compute_frequency();
        Self {
            cluster,
            dvfs,
            current: Mutex::new(current),
        }
    }
}

impl FrequencyActuator for ClusterActuator {
    fn dvfs(&self) -> DvfsModel {
        self.dvfs.clone()
    }

    fn set_frequency(&self, f_hz: f64) -> f64 {
        let applied = self.cluster.set_gpu_frequency(f_hz);
        *self.current.lock() = applied;
        applied
    }

    fn frequency(&self) -> f64 {
        *self.current.lock()
    }
}

/// Pure-model actuator: tracks the applied frequency without any device.
///
/// Used by unit/property tests and by offline searches where the evaluation
/// function itself knows how to cost a frequency.
pub(crate) struct ModelActuator {
    dvfs: DvfsModel,
    current: Mutex<f64>,
}

impl ModelActuator {
    /// Start at the model's maximum (nominal) frequency.
    #[cfg_attr(not(test), expect(dead_code, reason = "the strategy and governor tests drive it"))]
    pub(crate) fn new(dvfs: DvfsModel) -> Self {
        let current = dvfs.f_max_hz;
        Self {
            dvfs,
            current: Mutex::new(current),
        }
    }
}

impl FrequencyActuator for ModelActuator {
    fn dvfs(&self) -> DvfsModel {
        self.dvfs.clone()
    }

    fn set_frequency(&self, f_hz: f64) -> f64 {
        let applied = self.dvfs.clamp(f_hz);
        *self.current.lock() = applied;
        applied
    }

    fn frequency(&self) -> f64 {
        *self.current.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwmodel::arch::SystemKind;

    #[test]
    fn model_actuator_clamps_to_grid() {
        let a = ModelActuator::new(DvfsModel::nvidia_a100());
        assert_eq!(a.frequency(), 1410.0e6);
        let applied = a.set_frequency(1007.0e6);
        assert!(applied <= 1007.0e6);
        let steps = (applied - a.dvfs().f_min_hz) / a.dvfs().f_step_hz;
        assert!((steps - steps.round()).abs() < 1e-9);
        assert_eq!(a.frequency(), applied);
    }

    #[test]
    fn gpu_handle_acts_as_actuator() {
        let cluster = Cluster::with_gpu_dies(SystemKind::MiniHpc, 1);
        let gpu = cluster.node(0).gpus()[0].clone();
        let actuator: &dyn FrequencyActuator = &gpu;
        let applied = actuator.set_frequency(1005.0e6);
        assert_eq!(applied, gpu.compute_frequency());
    }

    #[test]
    fn cluster_actuator_reports_prepinned_frequency() {
        let cluster = Cluster::with_gpu_dies(SystemKind::MiniHpc, 2);
        cluster.set_gpu_frequency(1005.0e6);
        let actuator = ClusterActuator::new(cluster.clone());
        assert_eq!(actuator.frequency(), cluster.node(0).gpus()[0].compute_frequency());
        assert!((actuator.frequency() - 1005.0e6).abs() < 1.0);
    }

    #[test]
    fn cluster_actuator_moves_every_die() {
        let cluster = Cluster::with_gpu_dies(SystemKind::MiniHpc, 2);
        let actuator = ClusterActuator::new(cluster.clone());
        let applied = actuator.set_frequency(1110.0e6);
        assert_eq!(actuator.frequency(), applied);
        for node in cluster.nodes() {
            for gpu in node.gpus() {
                assert_eq!(gpu.compute_frequency(), applied);
            }
        }
    }
}
