//! Evrard collapse initial conditions.
//!
//! The Evrard (1988) test: a cold, initially static gas sphere of mass `M = 1`
//! and radius `R = 1` with density profile `ρ(r) ∝ 1/r`, specific internal
//! energy `u = 0.05`, and `G = 1`. Gravity overwhelms pressure and the sphere
//! collapses, converting potential energy into heat — the standard strong test
//! for coupled SPH + gravity, and one of the two production runs of the paper.

use crate::particle::ParticleSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Initial specific internal energy of the Evrard sphere.
const EVRARD_U0: f64 = 0.05;

/// Build an Evrard sphere with approximately `n_target` particles of equal
/// mass, total mass 1 and radius 1, via rejection sampling of the `ρ ∝ 1/r`
/// profile (deterministic for a given `seed`).
pub(crate) fn evrard_sphere(n_target: usize, seed: u64) -> ParticleSet {
    assert!(n_target >= 8);
    let mut rng = StdRng::seed_from_u64(seed);
    let m = 1.0 / n_target as f64;
    // Mean interparticle spacing for h: sphere volume / n, cube-rooted.
    let volume = 4.0 / 3.0 * std::f64::consts::PI;
    let spacing = (volume / n_target as f64).cbrt();
    let h = 1.4 * spacing;
    let mut particles = ParticleSet::with_capacity(n_target);
    while particles.len() < n_target {
        // For ρ ∝ 1/r the enclosed mass is M(r) ∝ r², so r = √ξ samples the
        // profile exactly.
        let xi: f64 = rng.gen_range(0.0..1.0f64);
        let r = xi.sqrt();
        let cos_theta: f64 = rng.gen_range(-1.0..1.0);
        let sin_theta = (1.0 - cos_theta * cos_theta).sqrt();
        let phi: f64 = rng.gen_range(0.0..2.0 * std::f64::consts::PI);
        let x = r * sin_theta * phi.cos();
        let y = r * sin_theta * phi.sin();
        let z = r * cos_theta;
        particles.push(x, y, z, 0.0, 0.0, 0.0, m, h, EVRARD_U0);
    }
    particles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sphere_has_unit_mass_and_radius() {
        let p = evrard_sphere(2000, 1);
        assert_eq!(p.len(), 2000);
        assert!((p.total_mass() - 1.0).abs() < 1e-9);
        let max_r = (0..p.len())
            .map(|i| (p.x[i].powi(2) + p.y[i].powi(2) + p.z[i].powi(2)).sqrt())
            .fold(0.0f64, f64::max);
        assert!(max_r <= 1.0 + 1e-9);
    }

    #[test]
    fn density_profile_is_centrally_concentrated() {
        let p = evrard_sphere(4000, 2);
        // Count particles inside r < 0.5: for ρ ∝ 1/r, M(<0.5) = 0.25 of the mass,
        // which is much more than the 0.125 a uniform sphere would give... wait:
        // M(r) ∝ r² -> M(<0.5) = 0.25. Uniform would give 0.125. Check we are
        // closer to 0.25 than to 0.125.
        let inner = (0..p.len())
            .filter(|&i| (p.x[i].powi(2) + p.y[i].powi(2) + p.z[i].powi(2)).sqrt() < 0.5)
            .count() as f64
            / p.len() as f64;
        assert!((inner - 0.25).abs() < 0.03, "inner fraction {inner}");
    }

    #[test]
    fn initial_state_is_cold_and_static() {
        let p = evrard_sphere(500, 3);
        assert!(p.kinetic_energy() == 0.0);
        assert!((p.internal_energy() - EVRARD_U0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = evrard_sphere(100, 9);
        let b = evrard_sphere(100, 9);
        assert_eq!(a.x, b.x);
        let c = evrard_sphere(100, 10);
        assert_ne!(a.x, c.x);
    }
}
