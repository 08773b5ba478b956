//! Turbulence stirring (`Turbulence` stage).
//!
//! The subsonic-turbulence test case drives the gas with a large-scale,
//! approximately solenoidal forcing field, keeping the RMS Mach number below
//! one. The driver here superposes a handful of low-wavenumber Fourier modes
//! with deterministic (seeded) random amplitudes and phases, projected to
//! remove the compressive component — a simplified Ornstein–Uhlenbeck stirring
//! module in the spirit of the one used by SPH-EXA.

use crate::parallel::for_each_row;
use crate::particle::ParticleSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

/// One driven Fourier mode.
#[derive(Clone, Debug)]
struct StirMode {
    k: (f64, f64, f64),
    amplitude: (f64, f64, f64),
    phase: f64,
}

/// Large-scale solenoidal stirring driver.
#[derive(Clone, Debug)]
pub struct TurbulenceDriver {
    modes: Vec<StirMode>,
    box_size: f64,
    strength: f64,
}

impl TurbulenceDriver {
    /// Create a driver for a periodic box of size `box_size`, with forcing
    /// amplitude `strength` and a deterministic `seed`.
    pub fn new(box_size: f64, strength: f64, seed: u64) -> Self {
        assert!(box_size > 0.0 && strength >= 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut modes = Vec::new();
        // Drive the largest scales: |k| in {1, 2} (units of 2π/L).
        for kx in -2i64..=2 {
            for ky in -2i64..=2 {
                for kz in -2i64..=2 {
                    let k2 = kx * kx + ky * ky + kz * kz;
                    if k2 == 0 || k2 > 4 {
                        continue;
                    }
                    let k = (
                        2.0 * PI * kx as f64 / box_size,
                        2.0 * PI * ky as f64 / box_size,
                        2.0 * PI * kz as f64 / box_size,
                    );
                    // Random direction, then project out the component parallel
                    // to k to make the forcing solenoidal (divergence-free).
                    let raw: (f64, f64, f64) = (
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                    );
                    let k_norm2 = k.0 * k.0 + k.1 * k.1 + k.2 * k.2;
                    let dot = (raw.0 * k.0 + raw.1 * k.1 + raw.2 * k.2) / k_norm2;
                    let sol = (raw.0 - dot * k.0, raw.1 - dot * k.1, raw.2 - dot * k.2);
                    // Weight larger scales more strongly (k⁻²-ish spectrum).
                    let w = 1.0 / k2 as f64;
                    modes.push(StirMode {
                        k,
                        amplitude: (sol.0 * w, sol.1 * w, sol.2 * w),
                        phase: rng.gen_range(0.0..2.0 * PI),
                    });
                }
            }
        }
        Self {
            modes,
            box_size,
            strength,
        }
    }

    /// The box size the driver was built for.
    pub fn box_size(&self) -> f64 {
        self.box_size
    }

    /// Forcing acceleration at a position and time.
    pub fn acceleration_at(&self, pos: (f64, f64, f64), time: f64) -> (f64, f64, f64) {
        let mut a = (0.0, 0.0, 0.0);
        for mode in &self.modes {
            let arg = mode.k.0 * pos.0 + mode.k.1 * pos.1 + mode.k.2 * pos.2 + mode.phase + 0.7 * time;
            let s = arg.sin();
            a.0 += mode.amplitude.0 * s;
            a.1 += mode.amplitude.1 * s;
            a.2 += mode.amplitude.2 * s;
        }
        (a.0 * self.strength, a.1 * self.strength, a.2 * self.strength)
    }

    /// Add the stirring acceleration onto `rows` (`None`: every particle) in
    /// place.
    pub fn apply(&self, particles: &mut ParticleSet, time: f64, rows: Option<&[u32]>) {
        let ParticleSet {
            x, y, z, ax, ay, az, ..
        } = particles;
        for_each_row(rows, [&mut ax[..], &mut ay[..], &mut az[..]], |i, [ax, ay, az]| {
            let a = self.acceleration_at((x[i], y[i], z[i]), time);
            *ax += a.0;
            *ay += a.1;
            *az += a.2;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::lattice_cube;

    #[test]
    fn driver_is_deterministic_for_a_seed() {
        let a = TurbulenceDriver::new(1.0, 0.5, 42);
        let b = TurbulenceDriver::new(1.0, 0.5, 42);
        let pa = a.acceleration_at((0.3, 0.4, 0.5), 1.0);
        let pb = b.acceleration_at((0.3, 0.4, 0.5), 1.0);
        assert_eq!(pa, pb);
        let c = TurbulenceDriver::new(1.0, 0.5, 7);
        assert_ne!(pa, c.acceleration_at((0.3, 0.4, 0.5), 1.0));
    }

    #[test]
    fn forcing_scales_with_strength() {
        let weak = TurbulenceDriver::new(1.0, 0.1, 1);
        let strong = TurbulenceDriver::new(1.0, 1.0, 1);
        let pw = weak.acceleration_at((0.2, 0.2, 0.2), 0.0);
        let ps = strong.acceleration_at((0.2, 0.2, 0.2), 0.0);
        assert!((ps.0 / pw.0 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn mean_force_over_box_is_small() {
        // A solenoidal low-k field should have a near-zero volume average.
        let d = TurbulenceDriver::new(1.0, 1.0, 3);
        let mut mean = (0.0, 0.0, 0.0);
        let n = 12;
        for ix in 0..n {
            for iy in 0..n {
                for iz in 0..n {
                    let p = (
                        (ix as f64 + 0.5) / n as f64,
                        (iy as f64 + 0.5) / n as f64,
                        (iz as f64 + 0.5) / n as f64,
                    );
                    let a = d.acceleration_at(p, 0.0);
                    mean.0 += a.0;
                    mean.1 += a.1;
                    mean.2 += a.2;
                }
            }
        }
        let count = (n * n * n) as f64;
        let rms_scale = d.acceleration_at((0.25, 0.5, 0.75), 0.0).0.abs().max(0.1);
        assert!((mean.0 / count).abs() < rms_scale);
        assert!(d.modes.len() > 10);
    }

    #[test]
    fn apply_adds_kinetic_stirring() {
        let mut p = lattice_cube(5, 1.0, 1.0, 1.3);
        let d = TurbulenceDriver::new(1.0, 2.0, 11);
        d.apply(&mut p, 0.0, None);
        let total_a: f64 = (0..p.len()).map(|i| p.ax[i].abs() + p.ay[i].abs() + p.az[i].abs()).sum();
        assert!(total_a > 0.0);
    }
}
