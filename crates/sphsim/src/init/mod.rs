//! Initial conditions for every scenario: the two production test
//! cases of the paper (subsonic turbulence, Evrard collapse) plus the
//! Sedov–Taylor blast, the Noh implosion, the Kelvin–Helmholtz shear
//! instability and the Gresho–Chan vortex.

pub mod evrard;
pub mod gresho;
pub mod kelvin_helmholtz;
pub mod noh;
pub mod sedov;
pub mod turbulence;

use crate::particle::ParticleSet;

/// Build a uniform cubic lattice of `n³` particles filling `[0, box_size]³`
/// with total mass `total_mass`. The smoothing length is set to
/// `eta ×` the lattice spacing.
pub fn lattice_cube(n: usize, box_size: f64, total_mass: f64, eta: f64) -> ParticleSet {
    assert!(n >= 1 && box_size > 0.0 && total_mass > 0.0 && eta > 0.0);
    let count = n * n * n;
    let spacing = box_size / n as f64;
    let m = total_mass / count as f64;
    let h = eta * spacing;
    let mut particles = ParticleSet::with_capacity(count);
    for ix in 0..n {
        for iy in 0..n {
            for iz in 0..n {
                particles.push(
                    (ix as f64 + 0.5) * spacing,
                    (iy as f64 + 0.5) * spacing,
                    (iz as f64 + 0.5) * spacing,
                    0.0,
                    0.0,
                    0.0,
                    m,
                    h,
                    1.0,
                );
            }
        }
    }
    particles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_has_requested_count_and_mass() {
        let p = lattice_cube(5, 2.0, 10.0, 1.2);
        assert_eq!(p.len(), 125);
        assert!((p.total_mass() - 10.0).abs() < 1e-9);
        let (min, max) = p.bounding_box();
        assert!(min.0 > 0.0 && max.0 < 2.0);
        assert!(p.is_consistent());
    }

    #[test]
    fn lattice_spacing_sets_smoothing_length() {
        let p = lattice_cube(4, 1.0, 1.0, 1.5);
        assert!((p.h[0] - 1.5 * 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn invalid_lattice_panics() {
        lattice_cube(0, 1.0, 1.0, 1.0);
    }
}
