//! Power→energy integration.
//!
//! Sensors expose either cumulative energy counters (RAPL, Cray `pm_counters`,
//! NVML total-energy) or instantaneous power readings (NVML power, ROCm SMI).
//! The [`EnergyAccumulator`] turns a stream of timestamped readings of one
//! domain into a single monotone cumulative energy estimate:
//!
//! * counter readings are differenced (the back-ends unwrap hardware counter
//!   wrap-around, so the counter seen here is monotone);
//! * power readings are integrated with the trapezoidal rule;
//! * when both are present the counter wins (it is exact).

use crate::sample::DomainSample;

/// Incremental power→energy integrator for one measurement domain.
#[derive(Clone, Debug, Default)]
pub struct EnergyAccumulator {
    cumulative_j: f64,
    last_time_s: Option<f64>,
    last_power_w: Option<f64>,
    last_counter_j: Option<f64>,
}

impl EnergyAccumulator {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative energy attributed to this domain so far, in joules.
    pub fn energy_j(&self) -> f64 {
        self.cumulative_j
    }

    /// Fold in one timestamped reading. Timestamps must be monotone
    /// non-decreasing; out-of-order samples are ignored (a warning-level
    /// situation on real systems, where sensors occasionally return stale data).
    pub fn update(&mut self, time_s: f64, sample: &DomainSample) {
        if let Some(last_t) = self.last_time_s {
            if time_s < last_t {
                return; // stale/out-of-order reading
            }
        }
        let dt = self.last_time_s.map(|t| time_s - t).unwrap_or(0.0);

        if let Some(counter) = sample.energy_j {
            // Exact path: difference of the cumulative hardware counter.
            if let Some(last_counter) = self.last_counter_j {
                let delta = counter - last_counter;
                if delta >= 0.0 {
                    self.cumulative_j += delta;
                }
                // A negative delta would mean the back-end failed to unwrap a
                // counter overflow; we drop it rather than subtract energy.
            }
            self.last_counter_j = Some(counter);
            // Keep the power reading even when the counter is used: a later
            // power-only reading integrates from it.
            if sample.power_w.is_some() {
                self.last_power_w = sample.power_w;
            }
        } else if let Some(p) = sample.power_w {
            // Approximate path: trapezoidal integration of power.
            if dt > 0.0 {
                let p_prev = self.last_power_w.unwrap_or(p);
                self.cumulative_j += 0.5 * (p + p_prev) * dt;
            }
            self.last_power_w = Some(p);
        }

        self.last_time_s = Some(time_s);
    }
}

/// Integrate a standalone series of `(time_s, power_w)` samples with the
/// trapezoidal rule: what the accumulator computes from the same power-only
/// readings.
// sphlint::allow(dead-pub, the reference tests/property_based.rs holds the accumulator to)
pub fn integrate_power_trace(trace: &[(f64, f64)]) -> f64 {
    trace
        .windows(2)
        .map(|w| {
            let (t0, p0) = w[0];
            let (t1, p1) = w[1];
            if t1 > t0 {
                0.5 * (p0 + p1) * (t1 - t0)
            } else {
                0.0
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;

    #[test]
    fn counter_deltas_are_exact() {
        let mut acc = EnergyAccumulator::new();
        let d = Domain::cpu(0);
        acc.update(0.0, &DomainSample::energy(d, 100.0));
        acc.update(1.0, &DomainSample::energy(d, 150.0));
        acc.update(2.0, &DomainSample::energy(d, 175.0));
        assert!((acc.energy_j() - 75.0).abs() < 1e-12);
    }

    #[test]
    fn constant_power_integrates_to_p_times_t() {
        let mut acc = EnergyAccumulator::new();
        let d = Domain::gpu(0);
        for i in 0..=10 {
            acc.update(i as f64, &DomainSample::power(d, 200.0));
        }
        assert!((acc.energy_j() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn ramping_power_uses_trapezoid() {
        let mut acc = EnergyAccumulator::new();
        let d = Domain::gpu(0);
        // Power ramps linearly 0..100 W over 10 s -> energy = 500 J exactly
        // under the trapezoidal rule.
        for i in 0..=10 {
            acc.update(i as f64, &DomainSample::power(d, 10.0 * i as f64));
        }
        assert!((acc.energy_j() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn counter_wins_over_power() {
        let mut acc = EnergyAccumulator::new();
        let d = Domain::gpu(0);
        acc.update(0.0, &DomainSample::both(d, 1000.0, 0.0));
        acc.update(10.0, &DomainSample::both(d, 1000.0, 50.0));
        // Counter says 50 J even though power integration would say 10 kJ.
        assert!((acc.energy_j() - 50.0).abs() < 1e-12);
        // The power read beside the counter is kept: a power-only reading
        // integrates from it (1 s ramping 1000 W -> 0 W).
        acc.update(11.0, &DomainSample::power(d, 0.0));
        assert!((acc.energy_j() - 550.0).abs() < 1e-12);
    }

    #[test]
    fn negative_counter_delta_is_dropped() {
        let mut acc = EnergyAccumulator::new();
        let d = Domain::cpu(0);
        acc.update(0.0, &DomainSample::energy(d, 100.0));
        acc.update(1.0, &DomainSample::energy(d, 40.0)); // bogus
        acc.update(2.0, &DomainSample::energy(d, 90.0));
        assert!((acc.energy_j() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_order_samples_are_ignored() {
        let mut acc = EnergyAccumulator::new();
        let d = Domain::cpu(0);
        acc.update(5.0, &DomainSample::power(d, 100.0));
        acc.update(1.0, &DomainSample::power(d, 9999.0));
        acc.update(6.0, &DomainSample::power(d, 100.0));
        assert!((acc.energy_j() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn first_sample_contributes_nothing() {
        let mut acc = EnergyAccumulator::new();
        acc.update(3.0, &DomainSample::power(Domain::node(), 500.0));
        assert_eq!(acc.energy_j(), 0.0);
    }

    #[test]
    fn trace_integration_matches_accumulator() {
        let trace: Vec<(f64, f64)> = (0..=20).map(|i| (i as f64 * 0.5, 150.0 + 10.0 * (i % 3) as f64)).collect();
        let direct = integrate_power_trace(&trace);
        let mut acc = EnergyAccumulator::new();
        for (t, p) in &trace {
            acc.update(*t, &DomainSample::power(Domain::node(), *p));
        }
        assert!((direct - acc.energy_j()).abs() < 1e-9);
    }

    #[test]
    fn empty_and_single_point_traces_integrate_to_zero() {
        assert_eq!(integrate_power_trace(&[]), 0.0);
        assert_eq!(integrate_power_trace(&[(0.0, 100.0)]), 0.0);
    }
}
