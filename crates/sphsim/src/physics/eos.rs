//! Equation of state (`EquationOfState` stage).
//!
//! Ideal-gas EOS `P = (γ − 1) ρ u`, sound speed `c = √(γ P / ρ)`, with
//! `γ = 5/3` as used for both the Evrard collapse and the subsonic turbulence
//! test cases.

use crate::parallel::for_each_row;
use crate::particle::ParticleSet;

/// Adiabatic index used throughout.
pub(crate) const GAMMA: f64 = 5.0 / 3.0;

/// Update pressure and sound speed of `rows` (`None`: every particle) from
/// density and internal energy, in place. The EOS is purely row-local (`P_i`,
/// `c_i` from `ρ_i`, `u_i`), so any partition of the rows reproduces the full
/// pass exactly.
pub fn apply_eos(particles: &mut ParticleSet, rows: Option<&[u32]>) {
    let ParticleSet { rho, u, p, c, .. } = particles;
    for_each_row(rows, [&mut p[..], &mut c[..]], |i, [p, c]| {
        *p = (GAMMA - 1.0) * rho[i].max(1e-30) * u[i].max(0.0);
        *c = (GAMMA * *p / rho[i].max(1e-30)).max(0.0).sqrt();
    });
}

/// Pressure of one fluid element (scalar helper).
#[cfg_attr(not(test), expect(dead_code, reason = "the scalar reference for the pressure lane"))]
fn pressure(rho: f64, u: f64) -> f64 {
    (GAMMA - 1.0) * rho * u
}

/// Sound speed of one fluid element (scalar helper).
#[cfg_attr(not(test), expect(dead_code, reason = "the EOS and turbulence tests' reference"))]
pub(crate) fn sound_speed(rho: f64, u: f64) -> f64 {
    (GAMMA * ((GAMMA - 1.0) * rho * u) / rho.max(1e-30)).max(0.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_eos_matches_ideal_gas() {
        let p = pressure(2.0, 3.0);
        assert!((p - (GAMMA - 1.0) * 6.0).abs() < 1e-12);
        let c = sound_speed(2.0, 3.0);
        assert!((c - (GAMMA * p / 2.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn apply_eos_fills_all_particles() {
        let mut particles = ParticleSet::with_capacity(3);
        for i in 0..3 {
            particles.push(i as f64, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.1, 1.0 + i as f64);
        }
        particles.rho = vec![1.0, 2.0, 3.0];
        apply_eos(&mut particles, None);
        for i in 0..3 {
            assert!((particles.p[i] - pressure(particles.rho[i], particles.u[i])).abs() < 1e-12);
            assert!(particles.c[i] > 0.0);
        }
    }

    #[test]
    fn zero_internal_energy_gives_zero_pressure() {
        let mut particles = ParticleSet::with_capacity(1);
        particles.push(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.1, 0.0);
        particles.rho = vec![5.0];
        apply_eos(&mut particles, None);
        assert_eq!(particles.p[0], 0.0);
        assert_eq!(particles.c[0], 0.0);
    }
}
