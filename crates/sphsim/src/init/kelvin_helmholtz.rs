//! Kelvin–Helmholtz shear instability initial conditions.
//!
//! A **fully periodic** unit box with two counter-streaming horizontal slabs
//! (`|y − 0.5| < 0.25` streams at `+Δv/2` in `x`, the rest at `−Δv/2`) in
//! pressure equilibrium. The interfaces are smoothed with `tanh` ramps of
//! width `KH_DELTA` (the McNally et al. 2012 discipline — a sharp velocity
//! discontinuity is an unresolved vorticity sheet that SPH's artificial
//! viscosity shreds immediately), and a sinusoidal transverse velocity
//! perturbation of one box wavelength is seeded at both interfaces.
//!
//! In the inviscid linear theory the seeded mode grows at
//! `σ = k Δv / 2 = π Δv / λ`; at the lattice resolutions the CPU propagator
//! runs, SPH damping cancels that growth almost exactly (Agertz et al. 2007),
//! leaving a *neutrally persistent* oscillating mode. The scenario validation
//! therefore pins the quantity that is robust at this scale and brutally
//! sensitive to the boundary handling: the envelope-weighted mode amplitude
//! must **retain** its seeded value through a full shear time. With periodic
//! wrap the retention sits near 0.9; with open faces (or any broken image
//! search / ghost wrap) the slabs decompress off the box and the mode
//! collapses to ~0.2 within a fraction of a crossing.

use crate::init::lattice_cube;
use crate::particle::ParticleSet;
use crate::physics::eos::GAMMA;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

/// Velocity jump across the shear interfaces.
const KH_DELTA_V: f64 = 1.0;

/// Sound speed of the gas (Mach 0.5 shear: subsonic, near-incompressible).
const KH_SOUND_SPEED: f64 = 2.0;

/// Wavelength of the seeded perturbation (one wavelength per box — the
/// best-resolved mode the lattice can carry).
const KH_LAMBDA: f64 = 1.0;

/// Amplitude of the seeded transverse velocity perturbation.
const KH_AMPLITUDE: f64 = 0.05;

/// Gaussian width of the interface-localised perturbation envelope.
const KH_SIGMA_Y: f64 = 0.1;

/// `tanh` half-width of the smoothed shear interfaces.
const KH_DELTA: f64 = 0.05;

/// Incompressible equal-density KH growth rate `σ = k Δv / 2`.
pub(crate) fn kh_growth_rate() -> f64 {
    PI * KH_DELTA_V / KH_LAMBDA
}

/// The smoothed streamwise velocity profile `v_x(y)`: `+Δv/2` inside the
/// central slab, `−Δv/2` outside, with `tanh` ramps of width `KH_DELTA` at
/// the `y = 0.25` and `y = 0.75` interfaces. Periodic across `y = 0 ↔ 1` by
/// construction (both outer ends stream at `−Δv/2`).
fn kh_velocity_profile(y: f64) -> f64 {
    0.5 * KH_DELTA_V * (((y - 0.25) / KH_DELTA).tanh() - ((y - 0.75) / KH_DELTA).tanh() - 1.0)
}

fn interface_envelope(y: f64) -> f64 {
    let g = |y0: f64| (-((y - y0) / KH_SIGMA_Y).powi(2)).exp();
    g(0.25) + g(0.75)
}

/// Amplitude of the seeded `sin(kx)` mode in the transverse velocity field,
/// measured by projecting `v_y` onto the mode (in quadrature, so phase drift
/// cannot hide it) with the same interface envelope used to seed it.
pub(crate) fn kh_mode_amplitude(particles: &ParticleSet) -> f64 {
    let k = 2.0 * PI / KH_LAMBDA;
    let mut s = 0.0;
    let mut c = 0.0;
    let mut norm = 0.0;
    for i in 0..particles.len() {
        let w = interface_envelope(particles.y[i]);
        if w < 1e-4 {
            continue;
        }
        s += w * particles.vy[i] * (k * particles.x[i]).sin();
        c += w * particles.vy[i] * (k * particles.x[i]).cos();
        norm += w;
    }
    if norm <= 0.0 {
        return 0.0;
    }
    2.0 * (s * s + c * c).sqrt() / norm
}

/// Build a Kelvin–Helmholtz box: `n³` particles in a periodic unit box of
/// unit mass, two counter-streaming slabs at `±Δv/2` behind `tanh`-smoothed
/// interfaces, uniform pressure (sound speed [`KH_SOUND_SPEED`]), and a
/// seeded interface perturbation. Deterministic for a given `seed`.
pub(crate) fn kelvin_helmholtz(n_per_dim: usize, seed: u64) -> ParticleSet {
    assert!(
        n_per_dim >= 8,
        "the interfaces need at least a few particles of separation"
    );
    let mut particles = lattice_cube(n_per_dim, 1.0, 1.0, 1.3);
    // Internal energy such that c = sqrt(γ(γ−1)u) = KH_SOUND_SPEED.
    let u0 = KH_SOUND_SPEED * KH_SOUND_SPEED / (GAMMA * (GAMMA - 1.0));
    let k = 2.0 * PI / KH_LAMBDA;
    // Tiny jitter decorrelates the lattice from the seeded mode.
    let mut rng = StdRng::seed_from_u64(seed);
    let spacing = 1.0 / n_per_dim as f64;
    for i in 0..particles.len() {
        particles.x[i] += rng.gen_range(-0.02..0.02) * spacing;
        particles.y[i] += rng.gen_range(-0.02..0.02) * spacing;
        particles.u[i] = u0;
        particles.vx[i] = kh_velocity_profile(particles.y[i]);
        particles.vy[i] = KH_AMPLITUDE * (k * particles.x[i]).sin() * interface_envelope(particles.y[i]);
    }
    particles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_has_two_counter_streaming_slabs() {
        let p = kelvin_helmholtz(10, 1);
        assert_eq!(p.len(), 1000);
        let inner: Vec<usize> = (0..p.len()).filter(|&i| (p.y[i] - 0.5).abs() < 0.2).collect();
        let outer: Vec<usize> = (0..p.len()).filter(|&i| (p.y[i] - 0.5).abs() > 0.3).collect();
        assert!(!inner.is_empty() && !outer.is_empty());
        assert!(inner.iter().all(|&i| p.vx[i] > 0.0));
        assert!(outer.iter().all(|&i| p.vx[i] < 0.0));
    }

    #[test]
    fn seeded_mode_amplitude_matches_the_seed() {
        let p = kelvin_helmholtz(12, 2);
        let a0 = kh_mode_amplitude(&p);
        // The envelope-weighted projection recovers the seeded amplitude to
        // within lattice discreteness.
        assert!(
            (a0 - KH_AMPLITUDE).abs() < 0.5 * KH_AMPLITUDE,
            "measured {a0} vs seeded {KH_AMPLITUDE}"
        );
    }

    #[test]
    fn shear_is_subsonic_and_growth_rate_positive() {
        let mach = KH_DELTA_V / KH_SOUND_SPEED;
        assert!(mach < 1.0, "shear Mach {mach} must stay subsonic");
        assert!((kh_growth_rate() - PI).abs() < 1e-12);
    }

    #[test]
    fn velocity_profile_is_smooth_and_periodic() {
        // Slab centres stream at ±Δv/2 (to within the tanh(5) tail)...
        assert!((kh_velocity_profile(0.5) - 0.5 * KH_DELTA_V).abs() < 1e-3);
        assert!((kh_velocity_profile(0.0) + 0.5 * KH_DELTA_V).abs() < 1e-3);
        // ...the interfaces sit at the profile's zero crossings...
        assert!(kh_velocity_profile(0.25).abs() < 1e-6);
        assert!(kh_velocity_profile(0.75).abs() < 1e-6);
        // ...and the profile matches itself across the periodic wrap.
        assert!((kh_velocity_profile(0.0) - kh_velocity_profile(1.0)).abs() < 1e-6);
        // The tanh ramp is resolvable: |dv/dy| stays below Δv/δ.
        let dv = (kh_velocity_profile(0.26) - kh_velocity_profile(0.24)) / 0.02;
        assert!(dv > 0.0 && dv < KH_DELTA_V / KH_DELTA);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = kelvin_helmholtz(9, 3);
        let b = kelvin_helmholtz(9, 3);
        assert_eq!(a.x, b.x);
        assert_eq!(a.vy, b.vy);
        let c = kelvin_helmholtz(9, 4);
        assert_ne!(a.x, c.x);
    }
}
