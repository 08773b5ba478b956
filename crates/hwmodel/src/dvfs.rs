//! Dynamic voltage and frequency scaling (DVFS) model.
//!
//! GPU dynamic power follows the classic CMOS model
//! `P_dyn ∝ C · V² · f`. Voltage itself scales roughly linearly with frequency
//! within the supported range, which is why down-scaling the compute clock
//! reduces power super-linearly — the effect exploited in the paper's
//! Section 3.2 (Figures 4 and 5).
//!
//! [`DvfsModel`] captures a die's supported frequency range, its
//! voltage–frequency curve and the split between frequency-dependent (dynamic)
//! and frequency-independent (static/idle) power.

/// Voltage/frequency operating model for one clock domain.
#[derive(Clone, Debug, PartialEq)]
pub struct DvfsModel {
    /// Minimum supported compute frequency in Hz.
    pub f_min_hz: f64,
    /// Maximum (nominal/boost) compute frequency in Hz. This is the paper's
    /// baseline frequency (1410 MHz on A100, 1700 MHz on MI250X).
    pub f_max_hz: f64,
    /// Granularity of frequency steps in Hz (e.g. 15 MHz on A100).
    pub f_step_hz: f64,
    /// Core voltage at `f_min_hz`, in volts.
    pub v_min: f64,
    /// Core voltage at `f_max_hz`, in volts.
    pub v_max: f64,
}

impl DvfsModel {
    /// A100-like DVFS range: 210–1410 MHz in 15 MHz steps, 0.70–1.00 V.
    pub fn nvidia_a100() -> Self {
        Self {
            f_min_hz: 210.0e6,
            f_max_hz: 1410.0e6,
            f_step_hz: 15.0e6,
            v_min: 0.70,
            v_max: 1.00,
        }
    }

    /// MI250X-like DVFS range: 500–1700 MHz in 100 MHz steps, 0.73–1.05 V.
    pub fn amd_mi250x() -> Self {
        Self {
            f_min_hz: 500.0e6,
            f_max_hz: 1700.0e6,
            f_step_hz: 100.0e6,
            v_min: 0.73,
            v_max: 1.05,
        }
    }

    /// Clamp an arbitrary frequency request into the supported range and snap it
    /// to the step granularity (rounding down, as `nvidia-smi -lgc` does).
    pub fn clamp(&self, f_hz: f64) -> f64 {
        if f_hz >= self.f_max_hz {
            return self.f_max_hz;
        }
        let f = f_hz.clamp(self.f_min_hz, self.f_max_hz);
        if self.f_step_hz <= 0.0 {
            return f;
        }
        let steps = ((f - self.f_min_hz) / self.f_step_hz).floor();
        (self.f_min_hz + steps * self.f_step_hz).min(self.f_max_hz)
    }

    /// Operating voltage at frequency `f_hz` (linear V–f curve, clamped).
    fn voltage(&self, f_hz: f64) -> f64 {
        let f = f_hz.clamp(self.f_min_hz, self.f_max_hz);
        if (self.f_max_hz - self.f_min_hz).abs() < f64::EPSILON {
            return self.v_max;
        }
        let x = (f - self.f_min_hz) / (self.f_max_hz - self.f_min_hz);
        self.v_min + x * (self.v_max - self.v_min)
    }

    /// Dynamic-power scale factor at `f_hz` relative to running at `f_max_hz`:
    /// `(f/f_max) · (V(f)/V(f_max))²`. Equals 1.0 at the maximum frequency and
    /// decreases super-linearly as the clock is lowered.
    pub fn dynamic_power_scale(&self, f_hz: f64) -> f64 {
        let f = f_hz.clamp(self.f_min_hz, self.f_max_hz);
        let v = self.voltage(f);
        let v0 = self.voltage(self.f_max_hz);
        (f / self.f_max_hz) * (v / v0).powi(2)
    }

    /// Throughput scale factor for purely compute-bound work: `f / f_max`.
    pub fn throughput_scale(&self, f_hz: f64) -> f64 {
        f_hz.clamp(self.f_min_hz, self.f_max_hz) / self.f_max_hz
    }

    /// Enumerate the supported frequencies between `lo_hz` and `hi_hz` inclusive.
    pub fn supported_range(&self, lo_hz: f64, hi_hz: f64) -> Vec<f64> {
        let lo = self.clamp(lo_hz);
        let hi = self.clamp(hi_hz);
        let mut out = Vec::new();
        let mut f = lo;
        while f <= hi + 1e-3 {
            out.push(f);
            f += self.f_step_hz;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_nominal_is_1410mhz() {
        let d = DvfsModel::nvidia_a100();
        assert_eq!(d.f_max_hz, 1410.0e6);
        assert!((d.dynamic_power_scale(d.f_max_hz) - 1.0).abs() < 1e-12);
        assert!((d.throughput_scale(d.f_max_hz) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clamp_snaps_to_steps() {
        let d = DvfsModel::nvidia_a100();
        // 1007 MHz -> snapped down onto the 15 MHz grid starting at 210 MHz.
        let f = d.clamp(1007.0e6);
        assert!(f <= 1007.0e6);
        let steps = (f - d.f_min_hz) / d.f_step_hz;
        assert!((steps - steps.round()).abs() < 1e-9);
    }

    #[test]
    fn clamp_respects_bounds() {
        let d = DvfsModel::nvidia_a100();
        assert_eq!(d.clamp(10.0e6), d.f_min_hz);
        assert_eq!(d.clamp(99.0e9), d.f_max_hz);
    }

    #[test]
    fn voltage_monotonic_in_frequency() {
        let d = DvfsModel::amd_mi250x();
        let mut prev = 0.0;
        for mhz in (500..=1700).step_by(50) {
            let v = d.voltage(mhz as f64 * 1e6);
            assert!(v >= prev);
            prev = v;
        }
        assert!((d.voltage(d.f_min_hz) - d.v_min).abs() < 1e-12);
        assert!((d.voltage(d.f_max_hz) - d.v_max).abs() < 1e-12);
    }

    #[test]
    fn power_scale_is_superlinear() {
        let d = DvfsModel::nvidia_a100();
        // At ~71% of the max frequency the dynamic power should be well below 71%.
        let f = 1005.0e6;
        let scale = d.dynamic_power_scale(f);
        let linear = f / d.f_max_hz;
        assert!(scale < linear);
        assert!(scale > 0.3);
    }

    #[test]
    fn supported_range_includes_endpoints() {
        let d = DvfsModel::nvidia_a100();
        let fs = d.supported_range(1005.0e6, 1410.0e6);
        assert!(!fs.is_empty());
        assert!(fs.windows(2).all(|w| w[1] > w[0]));
        assert!(*fs.last().unwrap() <= d.f_max_hz + 1.0);
    }

    #[test]
    fn degenerate_voltage_range() {
        let d = DvfsModel {
            f_min_hz: 1.0e9,
            f_max_hz: 1.0e9,
            f_step_hz: 0.0,
            v_min: 0.9,
            v_max: 0.9,
        };
        assert_eq!(d.voltage(1.0e9), 0.9);
        assert_eq!(d.clamp(2.0e9), 1.0e9);
    }
}
