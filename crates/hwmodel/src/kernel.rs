//! Kernel workload descriptions.
//!
//! A [`KernelWorkload`] is the architecture-independent description of one
//! offloaded computation: how many floating-point operations it performs, how
//! many bytes it moves through device memory, how much parallelism it exposes and
//! how many kernel launches it is split into. The GPU model turns a workload into
//! an execution time and an occupancy for a given compute frequency (a
//! roofline-style model, see [`crate::gpu`]).

/// Description of one device-side computation.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelWorkload {
    /// Total floating-point operations.
    pub flops: f64,
    /// Total bytes moved to/from device memory.
    pub bytes: f64,
    /// Number of independent work items (e.g. particles); determines occupancy.
    pub parallelism: f64,
    /// Number of kernel launches the computation is split into (fixed per-launch
    /// overhead applies to each).
    pub launches: u32,
}

impl KernelWorkload {
    /// Create a workload with default parallelism (derived from the flop count)
    /// and a single launch.
    pub fn new(flops: f64, bytes: f64) -> Self {
        assert!(flops >= 0.0 && bytes >= 0.0, "workload sizes must be non-negative");
        Self {
            flops,
            bytes,
            parallelism: (flops / 100.0).max(1.0),
            launches: 1,
        }
    }

    /// Set the exposed parallelism (e.g. the number of particles).
    pub fn with_parallelism(mut self, parallelism: f64) -> Self {
        assert!(parallelism > 0.0, "parallelism must be positive");
        self.parallelism = parallelism;
        self
    }

    /// Set the number of kernel launches.
    pub fn with_launches(mut self, launches: u32) -> Self {
        assert!(launches >= 1, "at least one launch is required");
        self.launches = launches;
        self
    }
}

/// Result of mapping a [`KernelWorkload`] onto a specific GPU at a specific
/// compute frequency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct KernelExecution {
    /// Predicted wall-clock duration of the kernel in seconds.
    pub duration_s: f64,
    /// Achieved occupancy of the device, in `[0, 1]`.
    pub occupancy: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic]
    fn negative_flops_panics() {
        KernelWorkload::new(-1.0, 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_launches_panics() {
        KernelWorkload::new(1.0, 1.0).with_launches(0);
    }
}
