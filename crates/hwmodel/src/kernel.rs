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
    /// Human-readable kernel name (e.g. `"MomentumEnergy"`).
    pub name: String,
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
    pub fn new(name: impl Into<String>, flops: f64, bytes: f64) -> Self {
        assert!(flops >= 0.0 && bytes >= 0.0, "workload sizes must be non-negative");
        Self {
            name: name.into(),
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

    /// Arithmetic intensity in flop/byte. Returns infinity for pure-compute
    /// workloads that move no data.
    #[cfg_attr(not(test), expect(dead_code, reason = "the kernel tests check flops per byte"))]
    fn arithmetic_intensity(&self) -> f64 {
        if self.bytes <= 0.0 {
            if self.flops <= 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.flops / self.bytes
        }
    }

    /// Combine two workloads executed back-to-back into one aggregate workload.
    #[cfg_attr(not(test), expect(dead_code, reason = "merge_adds_sizes is its only caller"))]
    fn merge(&self, other: &KernelWorkload, name: impl Into<String>) -> KernelWorkload {
        KernelWorkload {
            name: name.into(),
            flops: self.flops + other.flops,
            bytes: self.bytes + other.bytes,
            parallelism: self.parallelism.max(other.parallelism),
            launches: self.launches + other.launches,
        }
    }

    /// Scale the workload size (flops, bytes, parallelism) by a factor, e.g. to
    /// derive a per-rank slice from a global workload.
    #[cfg_attr(not(test), expect(dead_code, reason = "only scaled_preserves_intensity calls it"))]
    fn scaled(&self, factor: f64) -> KernelWorkload {
        assert!(factor >= 0.0, "scale factor must be non-negative");
        KernelWorkload {
            name: self.name.clone(),
            flops: self.flops * factor,
            bytes: self.bytes * factor,
            parallelism: (self.parallelism * factor).max(1.0),
            launches: self.launches,
        }
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
    /// Fraction of the duration attributable to compute (frequency-sensitive).
    pub compute_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensity_is_flops_per_byte() {
        let w = KernelWorkload::new("k", 100.0, 25.0);
        assert!((w.arithmetic_intensity() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn intensity_handles_zero_bytes() {
        let w = KernelWorkload::new("k", 100.0, 0.0);
        assert!(w.arithmetic_intensity().is_infinite());
        let z = KernelWorkload::new("k", 0.0, 0.0);
        assert_eq!(z.arithmetic_intensity(), 0.0);
    }

    #[test]
    fn merge_adds_sizes() {
        let a = KernelWorkload::new("a", 10.0, 20.0).with_launches(2);
        let b = KernelWorkload::new("b", 30.0, 40.0).with_launches(3);
        let m = a.merge(&b, "ab");
        assert_eq!(m.flops, 40.0);
        assert_eq!(m.bytes, 60.0);
        assert_eq!(m.launches, 5);
        assert_eq!(m.name, "ab");
    }

    #[test]
    fn scaled_preserves_intensity() {
        let w = KernelWorkload::new("k", 1.0e9, 4.0e8).with_parallelism(1.0e6);
        let s = w.scaled(0.25);
        assert!((s.arithmetic_intensity() - w.arithmetic_intensity()).abs() < 1e-9);
        assert!((s.parallelism - 2.5e5).abs() < 1.0);
    }

    #[test]
    #[should_panic]
    fn negative_flops_panics() {
        KernelWorkload::new("bad", -1.0, 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_launches_panics() {
        KernelWorkload::new("bad", 1.0, 1.0).with_launches(0);
    }
}
