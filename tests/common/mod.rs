//! Shared by the digest-pinning tests: FNV-1a over every lane of a particle,
//! and the construction order a digest visits particles in.

use energy_aware_sim::sphsim::{ParticleSet, Simulation};

/// A running FNV-1a digest over 64-bit words.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn mix(&mut self, bits: u64) {
        self.0 ^= bits;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Mix in **every** lane of particle `i`: the 20 `f64` lanes, the rung
    /// and the neighbour-count diagnostic. Any single changed bit anywhere in
    /// the particle's state changes the digest.
    #[allow(dead_code)] // `campaign_digest` shares the digest but mixes no particle
    pub fn mix_particle(&mut self, p: &ParticleSet, i: usize) {
        for v in [
            p.x[i],
            p.y[i],
            p.z[i],
            p.vx[i],
            p.vy[i],
            p.vz[i],
            p.m[i],
            p.h[i],
            p.rho[i],
            p.u[i],
            p.p[i],
            p.c[i],
            p.omega[i],
            p.div_v[i],
            p.curl_v[i],
            p.alpha[i],
            p.ax[i],
            p.ay[i],
            p.az[i],
            p.du[i],
        ] {
            self.mix(v.to_bits());
        }
        self.mix(p.rung[i] as u64);
        self.mix(p.neighbor_count[i] as u64);
    }
}

/// Every particle's storage slot, listed in construction order: `slots[o]`
/// is the slot `s` with `sim.original_index_of(s) == o`. The inverse of the
/// simulation's slot → construction-index map, built once, when a test needs
/// it.
#[allow(dead_code)] // not every test binary sharing this module steps a `Simulation`
pub fn slots_in_construction_order(sim: &Simulation) -> Vec<usize> {
    let mut slots = vec![0; sim.particles().len()];
    for current in 0..slots.len() {
        slots[sim.original_index_of(current)] = current;
    }
    slots
}
