//! Noh implosion initial conditions.
//!
//! A cold, uniform gas sphere with a uniform radially inward velocity
//! `v = -v₀ r̂`. An infinitely strong accretion shock forms at the centre and
//! moves outward at `v₀/3`; ahead of the shock the flow stays smooth and the
//! density follows the exact pre-shock solution
//! `ρ(r, t) = ρ₀ (1 + v₀ t / r)²`, which is the analytic observable the
//! scenario validation checks (the post-shock plateau of
//! `ρ₀ ((γ+1)/(γ−1))³ = 64 ρ₀` needs far more resolution than a laptop-scale
//! run can afford, the smooth upstream profile does not).

use crate::particle::ParticleSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform initial density of the sphere.
pub const NOH_RHO0: f64 = 1.0;

/// Magnitude of the uniform inward radial velocity.
pub const NOH_V0: f64 = 1.0;

/// Specific internal energy of the cold initial gas.
pub const NOH_U0: f64 = 1.0e-6;

/// Exact pre-shock (upstream) density of the Noh flow at radius `r`, time `t`.
pub fn noh_preshock_density(rho0: f64, t: f64, r: f64) -> f64 {
    rho0 * (1.0 + NOH_V0 * t / r).powi(2)
}

/// Mean ratio of the SPH density to [`noh_preshock_density`] over the
/// particles of the mid-radius shell `r ∈ [0.2, 0.3)` — ahead of the accretion
/// shock (at `r = t/3`) for `t < 0.6` — and the number of particles in that
/// shell. The ratio is `NaN` on an empty shell.
pub fn noh_measured_preshock_ratio(p: &ParticleSet, t: f64) -> (f64, usize) {
    let mut ratio_sum = 0.0;
    let mut count = 0usize;
    for i in 0..p.len() {
        let r = (p.x[i].powi(2) + p.y[i].powi(2) + p.z[i].powi(2)).sqrt();
        if (0.2..0.3).contains(&r) && p.rho[i] > 0.0 {
            ratio_sum += p.rho[i] / noh_preshock_density(NOH_RHO0, t, r);
            count += 1;
        }
    }
    let ratio = if count > 0 { ratio_sum / count as f64 } else { f64::NAN };
    (ratio, count)
}

/// Build a Noh implosion: approximately `n_target` equal-mass particles
/// uniformly sampling the unit sphere at density [`NOH_RHO0`], all moving
/// radially inward at [`NOH_V0`]. Deterministic for a given `seed`.
pub fn noh_sphere(n_target: usize, seed: u64) -> ParticleSet {
    assert!(n_target >= 8);
    let mut rng = StdRng::seed_from_u64(seed);
    let volume = 4.0 / 3.0 * std::f64::consts::PI;
    let m = NOH_RHO0 * volume / n_target as f64;
    let spacing = (volume / n_target as f64).cbrt();
    let h = 1.4 * spacing;
    let mut particles = ParticleSet::with_capacity(n_target);
    while particles.len() < n_target {
        // Uniform density: enclosed mass ∝ r³, so r = ξ^{1/3}.
        let xi: f64 = rng.gen_range(0.0..1.0f64);
        let r = xi.cbrt();
        let cos_theta: f64 = rng.gen_range(-1.0..1.0);
        let sin_theta = (1.0 - cos_theta * cos_theta).sqrt();
        let phi: f64 = rng.gen_range(0.0..2.0 * std::f64::consts::PI);
        let x = r * sin_theta * phi.cos();
        let y = r * sin_theta * phi.sin();
        let z = r * cos_theta;
        // Inward unit radial velocity; the exact centre stays at rest.
        let (vx, vy, vz) = if r > 1e-12 {
            (-NOH_V0 * x / r, -NOH_V0 * y / r, -NOH_V0 * z / r)
        } else {
            (0.0, 0.0, 0.0)
        };
        particles.push(x, y, z, vx, vy, vz, m, h, NOH_U0);
    }
    particles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sphere_is_uniform_and_inflowing() {
        let p = noh_sphere(3000, 1);
        assert_eq!(p.len(), 3000);
        let volume = 4.0 / 3.0 * std::f64::consts::PI;
        assert!((p.total_mass() - NOH_RHO0 * volume).abs() < 1e-9);
        // Uniform density: half the mass inside r = 0.5^{1/3} ≈ 0.794.
        let r_half = 0.5f64.cbrt();
        let inner = (0..p.len())
            .filter(|&i| (p.x[i].powi(2) + p.y[i].powi(2) + p.z[i].powi(2)).sqrt() < r_half)
            .count() as f64
            / p.len() as f64;
        assert!((inner - 0.5).abs() < 0.05, "inner mass fraction {inner}");
        // Every particle moves radially inward at unit speed.
        for i in 0..p.len() {
            let r = (p.x[i].powi(2) + p.y[i].powi(2) + p.z[i].powi(2)).sqrt();
            if r > 1e-6 {
                let v_r = (p.vx[i] * p.x[i] + p.vy[i] * p.y[i] + p.vz[i] * p.z[i]) / r;
                assert!((v_r + NOH_V0).abs() < 1e-9, "radial velocity {v_r}");
            }
        }
    }

    #[test]
    fn preshock_density_profile() {
        // At t = 0 the profile is the initial density everywhere.
        assert_eq!(noh_preshock_density(1.0, 0.0, 0.3), 1.0);
        // (1 + 0.15/0.25)² = 1.6² = 2.56.
        assert!((noh_preshock_density(1.0, 0.15, 0.25) - 2.56).abs() < 1e-12);
        // The upstream density diverges towards the origin.
        assert!(noh_preshock_density(1.0, 0.1, 0.05) > noh_preshock_density(1.0, 0.1, 0.5));
    }

    #[test]
    fn deterministic_for_seed() {
        let a = noh_sphere(200, 5);
        let b = noh_sphere(200, 5);
        assert_eq!(a.x, b.x);
        assert_eq!(a.vx, b.vx);
        let c = noh_sphere(200, 6);
        assert_ne!(a.x, c.x);
    }
}
