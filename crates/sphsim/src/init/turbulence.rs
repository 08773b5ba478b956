//! Subsonic turbulence initial conditions.
//!
//! A periodic unit box of uniform gas with a small-amplitude, large-scale
//! solenoidal velocity perturbation; the stirring driver then maintains the
//! turbulence at a subsonic RMS Mach number. This mirrors the "Subsonic
//! Turbulence" production runs of the paper (Table 1).

use crate::init::lattice_cube;
use crate::particle::ParticleSet;
use crate::physics::turbulence::TurbulenceDriver;

/// Target initial RMS Mach number of the velocity perturbation.
pub(crate) const TARGET_MACH: f64 = 0.3;

/// Build a subsonic-turbulence box with `n³` particles in a unit box of unit
/// mass, internal energy chosen so the sound speed is ≈ 1, and an initial
/// solenoidal velocity field at Mach ≈ [`TARGET_MACH`].
pub(crate) fn turbulence_box(n: usize, seed: u64) -> ParticleSet {
    let mut particles = lattice_cube(n, 1.0, 1.0, 1.3);
    // u such that c = sqrt(gamma (gamma-1) u) ≈ 1.
    let gamma = crate::physics::eos::GAMMA;
    let u0 = 1.0 / (gamma * (gamma - 1.0));
    for u in particles.u.iter_mut() {
        *u = u0;
    }
    // Seed a large-scale velocity field using the stirring driver's mode set.
    let driver = TurbulenceDriver::new(1.0, 1.0, seed);
    let mut v2_sum = 0.0;
    let mut velocities = Vec::with_capacity(particles.len());
    for i in 0..particles.len() {
        let v = driver.acceleration_at((particles.x[i], particles.y[i], particles.z[i]), 0.0);
        v2_sum += v.0 * v.0 + v.1 * v.1 + v.2 * v.2;
        velocities.push(v);
    }
    let rms = (v2_sum / particles.len() as f64).sqrt().max(1e-12);
    let scale = TARGET_MACH / rms; // sound speed ≈ 1 by construction
    for (i, v) in velocities.into_iter().enumerate() {
        particles.vx[i] = v.0 * scale;
        particles.vy[i] = v.1 * scale;
        particles.vz[i] = v.2 * scale;
    }
    particles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physics::eos::tests::sound_speed;

    #[test]
    fn box_is_subsonic() {
        let p = turbulence_box(8, 1);
        assert_eq!(p.len(), 512);
        let v_rms = (2.0 * p.kinetic_energy() / p.total_mass()).sqrt();
        let c = sound_speed(1.0, p.u[0]);
        let mach = v_rms / c;
        assert!((mach - TARGET_MACH).abs() < 0.05, "Mach {mach}");
        assert!(mach < 1.0, "flow must be subsonic");
    }

    #[test]
    fn sound_speed_is_near_unity() {
        let p = turbulence_box(4, 2);
        let c = sound_speed(1.0, p.u[0]);
        assert!((c - 1.0).abs() < 1e-9);
    }

    #[test]
    fn velocity_field_has_structure_not_noise() {
        // Neighbouring particles should have correlated velocities (large-scale
        // modes), unlike white noise.
        let p = turbulence_box(8, 3);
        let n = 8usize;
        let idx = |ix: usize, iy: usize, iz: usize| (ix * n + iy) * n + iz;
        let mut corr = 0.0;
        let mut count = 0.0;
        for ix in 0..n - 1 {
            for iy in 0..n {
                for iz in 0..n {
                    let a = idx(ix, iy, iz);
                    let b = idx(ix + 1, iy, iz);
                    corr += p.vx[a] * p.vx[b] + p.vy[a] * p.vy[b] + p.vz[a] * p.vz[b];
                    count += 1.0;
                }
            }
        }
        let v2_mean = 2.0 * p.kinetic_energy() / p.total_mass() / 1.0;
        assert!(corr / count > 0.2 * v2_mean, "neighbouring velocities should correlate");
    }
}
