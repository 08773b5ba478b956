//! Sedov–Taylor blast wave initial conditions.
//!
//! A point-like energy deposition `E₀` in a cold, uniform medium of density
//! `ρ₀`: the classic self-similar strong-shock test. The shock front expands
//! as `R(t) = ξ₀ (E₀ t² / ρ₀)^{1/5}` with `ξ₀ ≈ 1.152` for `γ = 5/3`, which
//! is the analytic observable the scenario validation checks against.

use crate::init::lattice_cube;
use crate::particle::ParticleSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Blast energy deposited at the centre.
pub const SEDOV_E0: f64 = 1.0;

/// Uniform background density (unit box of unit mass).
pub const SEDOV_RHO0: f64 = 1.0;

/// Specific internal energy of the cold background medium.
const SEDOV_U_BACKGROUND: f64 = 1.0e-6;

/// Sedov similarity constant `ξ₀` for `γ = 5/3`.
const SEDOV_XI0: f64 = 1.152;

/// Analytic shock-front radius `R(t) = ξ₀ (E₀ t² / ρ₀)^{1/5}`.
pub fn sedov_shock_radius(e0: f64, rho0: f64, t: f64) -> f64 {
    SEDOV_XI0 * (e0 * t * t / rho0).powf(0.2)
}

/// Measured shock-front radius of a blast centred in the unit box: the
/// radius of the outward-streaming particles weighted by their radial
/// momentum, which the swept-up shell carries essentially all of — robust at
/// kernel-smoothed laptop resolutions. `NaN` when nothing streams outward.
pub fn sedov_measured_shock_radius(p: &ParticleSet) -> f64 {
    let mut weighted_r = 0.0;
    let mut weight = 0.0;
    for i in 0..p.len() {
        let dx = p.x[i] - 0.5;
        let dy = p.y[i] - 0.5;
        let dz = p.z[i] - 0.5;
        let r = (dx * dx + dy * dy + dz * dz).sqrt().max(1e-9);
        let v_r = (p.vx[i] * dx + p.vy[i] * dy + p.vz[i] * dz) / r;
        let w = (p.m[i] * v_r).max(0.0);
        weighted_r += w * r;
        weight += w;
    }
    if weight > 0.0 {
        weighted_r / weight
    } else {
        f64::NAN
    }
}

/// Build a Sedov blast: `n³` particles on a jittered lattice filling the unit
/// box (total mass 1, so `ρ₀ = 1`), cold everywhere except a kernel-weighted
/// deposition of [`SEDOV_E0`] into the particles within ~1.5 lattice spacings
/// of the box centre. Deterministic for a given `seed`.
pub(crate) fn sedov_blast(n_per_dim: usize, seed: u64) -> ParticleSet {
    assert!(n_per_dim >= 4, "the blast needs a resolved centre");
    let mut particles = lattice_cube(n_per_dim, 1.0, SEDOV_RHO0, 1.3);
    let spacing = 1.0 / n_per_dim as f64;
    // A small deterministic jitter breaks the perfect lattice symmetry that
    // would otherwise channel the shock along the grid axes.
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..particles.len() {
        particles.x[i] += rng.gen_range(-0.05..0.05) * spacing;
        particles.y[i] += rng.gen_range(-0.05..0.05) * spacing;
        particles.z[i] += rng.gen_range(-0.05..0.05) * spacing;
        particles.u[i] = SEDOV_U_BACKGROUND;
    }
    // Deposit E0 as internal energy, weighted towards the centre so the hot
    // spot is smooth at the particle scale.
    let r_inj = 1.5 * spacing;
    let centre = 0.5;
    let weights: Vec<f64> = (0..particles.len())
        .map(|i| {
            let dx = particles.x[i] - centre;
            let dy = particles.y[i] - centre;
            let dz = particles.z[i] - centre;
            let q2 = (dx * dx + dy * dy + dz * dz) / (r_inj * r_inj);
            (1.0 - q2).max(0.0)
        })
        .collect();
    let total_weight: f64 = weights.iter().sum();
    if total_weight > 0.0 {
        for (i, w) in weights.iter().enumerate() {
            if *w > 0.0 {
                particles.u[i] += SEDOV_E0 * w / (total_weight * particles.m[i]);
            }
        }
    } else {
        // Degenerate jitter left no particle inside r_inj: put everything on
        // the particle closest to the centre.
        let i = (0..particles.len())
            .min_by(|&a, &b| {
                let da = (particles.x[a] - centre).powi(2)
                    + (particles.y[a] - centre).powi(2)
                    + (particles.z[a] - centre).powi(2);
                let db = (particles.x[b] - centre).powi(2)
                    + (particles.y[b] - centre).powi(2)
                    + (particles.z[b] - centre).powi(2);
                da.total_cmp(&db)
            })
            .expect("non-empty particle set");
        particles.u[i] += SEDOV_E0 / particles.m[i];
    }
    particles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blast_deposits_the_full_energy() {
        let p = sedov_blast(10, 1);
        assert_eq!(p.len(), 1000);
        assert!((p.total_mass() - 1.0).abs() < 1e-9);
        // Internal energy = background + E0.
        let background = SEDOV_U_BACKGROUND; // Σ m u0 with Σ m = 1
        assert!((p.internal_energy() - background - SEDOV_E0).abs() < 1e-9);
        assert_eq!(p.kinetic_energy(), 0.0);
    }

    #[test]
    fn energy_is_concentrated_at_the_centre() {
        let p = sedov_blast(12, 2);
        let hottest = (0..p.len()).max_by(|&a, &b| p.u[a].total_cmp(&p.u[b])).unwrap();
        let r = ((p.x[hottest] - 0.5).powi(2) + (p.y[hottest] - 0.5).powi(2) + (p.z[hottest] - 0.5).powi(2)).sqrt();
        assert!(r < 2.0 / 12.0, "hottest particle at r = {r}");
        assert!(p.u[hottest] > 1e3 * SEDOV_U_BACKGROUND);
    }

    #[test]
    fn shock_radius_follows_the_similarity_law() {
        let r1 = sedov_shock_radius(1.0, 1.0, 0.01);
        let r2 = sedov_shock_radius(1.0, 1.0, 0.04);
        // R ∝ t^{2/5}: quadrupling t multiplies R by 4^{0.4}.
        assert!((r2 / r1 - 4.0f64.powf(0.4)).abs() < 1e-12);
        // More energy -> larger radius at fixed time.
        assert!(sedov_shock_radius(8.0, 1.0, 0.01) > r1);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = sedov_blast(8, 9);
        let b = sedov_blast(8, 9);
        assert_eq!(a.x, b.x);
        assert_eq!(a.u, b.u);
        let c = sedov_blast(8, 10);
        assert_ne!(a.x, c.x);
    }
}
