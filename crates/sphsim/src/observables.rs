//! Physical observables and conservation checks for the CPU reference runs.

use crate::particle::ParticleSet;
use crate::physics::gravity::potential_energy_direct;

/// Energy budget of a particle set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct EnergyBudget {
    /// Total kinetic energy.
    pub kinetic: f64,
    /// Total internal (thermal) energy.
    pub internal: f64,
    /// Gravitational potential energy (0 when self-gravity is off).
    pub potential: f64,
}

impl EnergyBudget {
    /// Compute the budget; include gravity when `with_gravity` is set.
    pub(crate) fn of(particles: &ParticleSet, with_gravity: bool, softening: f64) -> Self {
        Self {
            kinetic: particles.kinetic_energy(),
            internal: particles.internal_energy(),
            potential: if with_gravity {
                potential_energy_direct(particles, softening)
            } else {
                0.0
            },
        }
    }

    /// Total energy.
    pub(crate) fn total(&self) -> f64 {
        self.kinetic + self.internal + self.potential
    }

    /// Relative drift of the total energy with respect to a reference budget.
    pub(crate) fn relative_drift(&self, reference: &EnergyBudget) -> f64 {
        let scale = reference.total().abs().max(1e-12);
        (self.total() - reference.total()).abs() / scale
    }
}

/// Root-mean-square Mach number of the flow assuming a uniform sound speed
/// taken from the particle data.
pub(crate) fn rms_mach_number(particles: &ParticleSet) -> f64 {
    if particles.is_empty() {
        return 0.0;
    }
    let v_rms = (2.0 * particles.kinetic_energy() / particles.total_mass().max(1e-30)).sqrt();
    let c_mean: f64 = particles.c.iter().sum::<f64>() / particles.len() as f64;
    if c_mean <= 0.0 {
        0.0
    } else {
        v_rms / c_mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::lattice_cube;

    #[test]
    fn budget_sums_components() {
        let p = lattice_cube(3, 1.0, 1.0, 1.2);
        let b = EnergyBudget::of(&p, true, 0.05);
        assert!(b.kinetic.abs() < 1e-12);
        assert!(b.internal > 0.0);
        assert!(b.potential < 0.0);
        assert!((b.total() - (b.kinetic + b.internal + b.potential)).abs() < 1e-12);
    }

    #[test]
    fn drift_of_identical_budgets_is_zero() {
        let p = lattice_cube(3, 1.0, 1.0, 1.2);
        let a = EnergyBudget::of(&p, false, 0.0);
        let b = a;
        assert_eq!(a.relative_drift(&b), 0.0);
    }

    #[test]
    fn mach_number_zero_for_static_gas() {
        let mut p = lattice_cube(3, 1.0, 1.0, 1.2);
        p.c = vec![1.0; p.len()];
        assert_eq!(rms_mach_number(&p), 0.0);
        for v in p.vx.iter_mut() {
            *v = 0.5;
        }
        assert!((rms_mach_number(&p) - 0.5).abs() < 1e-9);
    }
}
