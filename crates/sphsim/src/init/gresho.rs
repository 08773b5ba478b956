//! Gresho–Chan vortex initial conditions.
//!
//! A rotating column of gas in exact hydrostatic equilibrium (Gresho & Chan
//! 1990): the azimuthal velocity rises linearly to its peak `v_φ = 1` at
//! `r = 0.2`, falls back to zero at `r = 0.4`, and the pressure profile
//! balances the centrifugal force exactly, so the flow is a steady state of
//! the Euler equations. The box is **fully periodic** — the background
//! pressure (`p = 3 + 4 ln 2` outside the vortex) has nothing to push
//! against on an open boundary, so the equilibrium survives only with a
//! working periodic wrap. That makes the scenario the pipeline's periodicity
//! canary: its analytic check (peak azimuthal velocity retention) cannot pass
//! with open-box neighbour search, kernels or ghost exchange.

use crate::init::lattice_cube;
use crate::particle::ParticleSet;
use crate::physics::eos::GAMMA;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Peak azimuthal velocity of the vortex, reached at [`GRESHO_R_PEAK`].
pub(crate) const GRESHO_V_PEAK: f64 = 1.0;

/// Radius of the azimuthal-velocity peak.
const GRESHO_R_PEAK: f64 = 0.2;

/// Outer radius of the vortex; the gas is at rest beyond it.
const GRESHO_R_OUTER: f64 = 0.4;

/// Azimuthal velocity profile `v_φ(r)` of the equilibrium vortex; its
/// maximum is [`GRESHO_V_PEAK`] at [`GRESHO_R_PEAK`].
fn gresho_azimuthal_velocity(r: f64) -> f64 {
    if r < GRESHO_R_PEAK {
        5.0 * r
    } else if r < GRESHO_R_OUTER {
        2.0 - 5.0 * r
    } else {
        0.0
    }
}

/// Pressure profile `p(r)` balancing the centrifugal force of
/// [`gresho_azimuthal_velocity`] at unit density (`dp/dr = v_φ²/r`).
fn gresho_pressure(r: f64) -> f64 {
    if r < GRESHO_R_PEAK {
        5.0 + 12.5 * r * r
    } else if r < GRESHO_R_OUTER {
        9.0 + 12.5 * r * r - 20.0 * r + 4.0 * (5.0 * r).ln()
    } else {
        3.0 + 4.0 * 2.0f64.ln()
    }
}

/// Mass-weighted mean azimuthal speed in the annulus around the velocity
/// peak (`r ∈ [0.15, 0.25]` from the vortex axis). The scenario validation
/// compares this before and after a run: the vortex is a steady state, so
/// the ratio measures how much of the peak SPH dissipates.
pub(crate) fn gresho_peak_speed(particles: &ParticleSet) -> f64 {
    let mut sum = 0.0;
    let mut weight = 0.0;
    for i in 0..particles.len() {
        let dx = particles.x[i] - 0.5;
        let dy = particles.y[i] - 0.5;
        let r = (dx * dx + dy * dy).sqrt();
        if !(0.15..0.25).contains(&r) {
            continue;
        }
        // Azimuthal unit vector is (-dy, dx)/r.
        let v_phi = (-particles.vx[i] * dy + particles.vy[i] * dx) / r.max(1e-12);
        sum += particles.m[i] * v_phi;
        weight += particles.m[i];
    }
    if weight > 0.0 {
        sum / weight
    } else {
        0.0
    }
}

/// Build a Gresho–Chan vortex: `n³` particles on a lightly jittered lattice
/// filling the periodic unit box (total mass 1, so `ρ = 1`), the vortex
/// column along `z` centred at `(0.5, 0.5)`, with the equilibrium velocity
/// and pressure profiles above. Deterministic for a given `seed`.
pub(crate) fn gresho_chan(n_per_dim: usize, seed: u64) -> ParticleSet {
    assert!(n_per_dim >= 8, "the vortex core needs a few particles of resolution");
    let mut particles = lattice_cube(n_per_dim, 1.0, 1.0, 1.3);
    let spacing = 1.0 / n_per_dim as f64;
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..particles.len() {
        particles.x[i] += rng.gen_range(-0.02..0.02) * spacing;
        particles.y[i] += rng.gen_range(-0.02..0.02) * spacing;
        let dx = particles.x[i] - 0.5;
        let dy = particles.y[i] - 0.5;
        let r = (dx * dx + dy * dy).sqrt().max(1e-12);
        let v_phi = gresho_azimuthal_velocity(r);
        particles.vx[i] = -v_phi * dy / r;
        particles.vy[i] = v_phi * dx / r;
        particles.vz[i] = 0.0;
        // Ideal gas at unit density: u = p / ((γ − 1) ρ).
        particles.u[i] = gresho_pressure(r) / (GAMMA - 1.0);
    }
    particles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_match_the_closed_form() {
        assert_eq!(gresho_azimuthal_velocity(0.0), 0.0);
        assert!((gresho_azimuthal_velocity(GRESHO_R_PEAK) - 1.0).abs() < 1e-12);
        assert!((gresho_azimuthal_velocity(0.3) - 0.5).abs() < 1e-12);
        assert_eq!(gresho_azimuthal_velocity(0.5), 0.0);
        // Pressure is continuous at both profile breaks.
        for r in [GRESHO_R_PEAK, GRESHO_R_OUTER] {
            let below = gresho_pressure(r - 1e-9);
            let above = gresho_pressure(r + 1e-9);
            assert!((below - above).abs() < 1e-6, "pressure jump at r = {r}");
        }
        // dp/dr = v² / r (centrifugal balance), sampled inside both branches.
        for r in [0.1, 0.3] {
            let eps = 1e-6;
            let dpdr = (gresho_pressure(r + eps) - gresho_pressure(r - eps)) / (2.0 * eps);
            let expect = gresho_azimuthal_velocity(r).powi(2) / r;
            assert!((dpdr - expect).abs() < 1e-4, "r = {r}: dp/dr {dpdr} vs {expect}");
        }
    }

    #[test]
    fn vortex_rotates_about_the_box_centre() {
        let p = gresho_chan(12, 1);
        assert_eq!(p.len(), 12 * 12 * 12);
        assert!((p.total_mass() - 1.0).abs() < 1e-9);
        // Angular momentum about the z axis through the centre is positive;
        // net linear momentum vanishes by symmetry (to lattice discreteness).
        let mut lz = 0.0;
        let mut px = 0.0;
        for i in 0..p.len() {
            let dx = p.x[i] - 0.5;
            let dy = p.y[i] - 0.5;
            lz += p.m[i] * (dx * p.vy[i] - dy * p.vx[i]);
            px += p.m[i] * p.vx[i];
        }
        assert!(lz > 0.0, "vortex must carry angular momentum, got {lz}");
        assert!(px.abs() < 0.01, "net momentum should nearly vanish, got {px}");
        // The measured peak speed is close to the seeded profile average.
        let peak = gresho_peak_speed(&p);
        assert!((0.8..=1.05).contains(&peak), "annulus mean v_phi = {peak}");
    }

    #[test]
    fn gas_beyond_the_vortex_is_at_rest_and_pressurised() {
        let p = gresho_chan(10, 2);
        for i in 0..p.len() {
            let dx = p.x[i] - 0.5;
            let dy = p.y[i] - 0.5;
            if (dx * dx + dy * dy).sqrt() > GRESHO_R_OUTER {
                assert_eq!(p.vx[i], 0.0);
                assert_eq!(p.vy[i], 0.0);
                let expect = (3.0 + 4.0 * 2.0f64.ln()) / (GAMMA - 1.0);
                assert!((p.u[i] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = gresho_chan(9, 3);
        let b = gresho_chan(9, 3);
        assert_eq!(a.x, b.x);
        assert_eq!(a.vy, b.vy);
        let c = gresho_chan(9, 4);
        assert_ne!(a.x, c.x);
    }
}
