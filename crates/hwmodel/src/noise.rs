//! Measurement noise model.
//!
//! Real power sensors quantise and jitter: `pm_counters` updates at ~10 Hz with
//! watt-level resolution, NVML at ~20–50 Hz with ±5 % accuracy on some boards.
//! The [`NoiseModel`] adds deterministic, seedable Gaussian relative noise and
//! quantisation to simulated readings so that validation experiments (Figure 1)
//! see realistic disagreement between measurement paths rather than exact
//! equality.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seedable sensor noise model.
#[derive(Clone, Debug)]
pub struct NoiseModel {
    /// Standard deviation of the relative Gaussian noise (e.g. 0.02 = 2 %).
    pub relative_sigma: f64,
    /// Quantisation step of the reported value (e.g. 1.0 W); 0 disables it.
    pub quantum: f64,
    seed: u64,
    counter: u64,
}

impl NoiseModel {
    /// Create a noise model. `relative_sigma` is the relative standard deviation,
    /// `quantum` the reporting resolution, `seed` makes the noise reproducible.
    pub fn new(relative_sigma: f64, quantum: f64, seed: u64) -> Self {
        assert!((0.0..0.5).contains(&relative_sigma));
        assert!(quantum >= 0.0);
        Self {
            relative_sigma,
            quantum,
            seed,
            counter: 0,
        }
    }

    /// Apply noise and quantisation to a reading. Each call draws fresh noise but
    /// the sequence is deterministic for a given seed.
    pub fn apply(&mut self, value: f64) -> f64 {
        self.counter += 1;
        let mut out = value;
        if self.relative_sigma > 0.0 {
            // Derive a per-sample RNG from (seed, counter) so the model stays
            // deterministic even if calls interleave across threads.
            let mut rng = StdRng::seed_from_u64(self.seed ^ self.counter.wrapping_mul(0x9E3779B97F4A7C15));
            let gauss = gaussian(&mut rng);
            out *= 1.0 + self.relative_sigma * gauss;
        }
        if self.quantum > 0.0 {
            out = (out / self.quantum).round() * self.quantum;
        }
        out.max(0.0)
    }
}

/// Standard normal sample via Box–Muller.
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_noise_is_identity() {
        let mut n = NoiseModel::new(0.0, 0.0, 0);
        assert_eq!(n.apply(123.456), 123.456);
    }

    #[test]
    fn quantisation_rounds() {
        let mut n = NoiseModel::new(0.0, 1.0, 0);
        assert_eq!(n.apply(123.4), 123.0);
        assert_eq!(n.apply(123.6), 124.0);
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let mut a = NoiseModel::new(0.05, 0.0, 42);
        let mut b = NoiseModel::new(0.05, 0.0, 42);
        for _ in 0..10 {
            assert_eq!(a.apply(100.0), b.apply(100.0));
        }
    }

    #[test]
    fn noise_stays_near_value() {
        let mut n = NoiseModel::new(0.02, 0.0, 7);
        let mut sum = 0.0;
        let trials = 2000;
        for _ in 0..trials {
            let v = n.apply(100.0);
            assert!(v > 80.0 && v < 120.0, "6-sigma outlier unexpected: {v}");
            sum += v;
        }
        let mean = sum / trials as f64;
        assert!(
            (mean - 100.0).abs() < 1.0,
            "mean should stay near the true value, got {mean}"
        );
    }

    #[test]
    fn never_negative() {
        let mut n = NoiseModel::new(0.4, 0.0, 3);
        for _ in 0..100 {
            assert!(n.apply(0.01) >= 0.0);
        }
    }
}
