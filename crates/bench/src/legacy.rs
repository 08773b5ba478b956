//! The pre-refactor ("before") SPH neighbour pipeline, preserved for the
//! `step_throughput` before/after benchmark.
//!
//! Until the flat-path refactor, `sphsim` materialised neighbour lists as
//! `Vec<Vec<usize>>` — one heap allocation (plus growth reallocations) per
//! particle per step — rebuilt the octree into a freshly allocated arena every
//! step, and streamed particles in construction order with no spatial
//! locality. This module keeps the neighbour-list and kernel data path alive
//! verbatim as the benchmark baseline. One caveat: the baseline's *tree build*
//! goes through today's `Octree::build` (fresh arena each step, but the new
//! iterative splitter — the old recursive 8-`Vec`-per-node splitter is gone),
//! so the reported `DomainDecompAndSync` speedup understates the true
//! before/after gap. Production code in `sphsim` uses the CSR + Morton +
//! workspace pipeline instead.

use sphsim::kernels::{dwdh_cubic, grad_w_cubic, w_cubic, KERNEL_SUPPORT};
use sphsim::parallel::parallel_map;
use sphsim::{Octree, ParticleSet};

/// Per-particle neighbour lists in the old one-`Vec`-per-particle layout.
#[derive(Clone, Debug, Default)]
pub struct VecNeighborLists {
    /// `lists[i]` holds the indices of the particles within `2 h_i` of
    /// particle `i` (including `i` itself).
    pub lists: Vec<Vec<usize>>,
}

/// The old `FindNeighbors` stage: one freshly allocated `Vec` per particle,
/// followed by a serial post-pass writing the neighbour-count diagnostic.
pub fn find_neighbors(particles: &mut ParticleSet, tree: &Octree) -> VecNeighborLists {
    let n = particles.len();
    let lists: Vec<Vec<usize>> = parallel_map(n, |i| {
        let mut out = Vec::new();
        let radius = KERNEL_SUPPORT * particles.h[i];
        tree.neighbors_within(
            (particles.x[i], particles.y[i], particles.z[i]),
            radius,
            &particles.x,
            &particles.y,
            &particles.z,
            &mut out,
        );
        out
    });
    for (i, list) in lists.iter().enumerate() {
        particles.neighbor_count[i] = list.len().saturating_sub(1) as u32;
    }
    VecNeighborLists { lists }
}

/// The old `XMass` density summation over `Vec<Vec<usize>>` lists.
pub fn compute_density(particles: &mut ParticleSet, neighbors: &VecNeighborLists) {
    let n = particles.len();
    let rho: Vec<f64> = parallel_map(n, |i| {
        let hi = particles.h[i];
        let mut sum = 0.0;
        for &j in &neighbors.lists[i] {
            let dx = particles.x[i] - particles.x[j];
            let dy = particles.y[i] - particles.y[j];
            let dz = particles.z[i] - particles.z[j];
            let r = (dx * dx + dy * dy + dz * dz).sqrt();
            sum += particles.m[j] * w_cubic(r, hi);
        }
        sum
    });
    particles.rho = rho;
}

/// The old `NormalizationGradh` stage over `Vec<Vec<usize>>` lists.
pub fn compute_gradh(particles: &mut ParticleSet, neighbors: &VecNeighborLists) {
    let n = particles.len();
    let omega: Vec<f64> = parallel_map(n, |i| {
        let hi = particles.h[i];
        let rho_i = particles.rho[i].max(1e-30);
        let mut sum = 0.0;
        for &j in &neighbors.lists[i] {
            let dx = particles.x[i] - particles.x[j];
            let dy = particles.y[i] - particles.y[j];
            let dz = particles.z[i] - particles.z[j];
            let r = (dx * dx + dy * dy + dz * dz).sqrt();
            sum += particles.m[j] * dwdh_cubic(r, hi);
        }
        (1.0 + hi / (3.0 * rho_i) * sum).clamp(0.2, 5.0)
    });
    particles.omega = omega;
}

/// The old `IADVelocityDivCurl` stage over `Vec<Vec<usize>>` lists.
pub fn compute_div_curl(particles: &mut ParticleSet, neighbors: &VecNeighborLists) {
    let n = particles.len();
    let results: Vec<(f64, f64)> = parallel_map(n, |i| {
        let hi = particles.h[i];
        let rho_i = particles.rho[i].max(1e-30);
        let mut div = 0.0;
        let mut curl = (0.0, 0.0, 0.0);
        for &j in &neighbors.lists[i] {
            if j == i {
                continue;
            }
            let dx = particles.x[i] - particles.x[j];
            let dy = particles.y[i] - particles.y[j];
            let dz = particles.z[i] - particles.z[j];
            let dvx = particles.vx[i] - particles.vx[j];
            let dvy = particles.vy[i] - particles.vy[j];
            let dvz = particles.vz[i] - particles.vz[j];
            let (gx, gy, gz) = grad_w_cubic(dx, dy, dz, hi);
            let mj = particles.m[j];
            div -= mj * (dvx * gx + dvy * gy + dvz * gz);
            curl.0 -= mj * (dvy * gz - dvz * gy);
            curl.1 -= mj * (dvz * gx - dvx * gz);
            curl.2 -= mj * (dvx * gy - dvy * gx);
        }
        let curl_mag = (curl.0 * curl.0 + curl.1 * curl.1 + curl.2 * curl.2).sqrt() / rho_i;
        (div / rho_i, curl_mag)
    });
    for (i, (div, curl)) in results.into_iter().enumerate() {
        particles.div_v[i] = div;
        particles.curl_v[i] = curl;
    }
}

/// The old `MomentumEnergy` stage over `Vec<Vec<usize>>` lists.
pub fn compute_momentum_energy(particles: &mut ParticleSet, neighbors: &VecNeighborLists) {
    let n = particles.len();
    let results: Vec<(f64, f64, f64, f64)> = parallel_map(n, |i| {
        let rho_i = particles.rho[i].max(1e-30);
        let p_over_rho2_i = particles.p[i] / (particles.omega[i] * rho_i * rho_i);
        let mut acc = (0.0, 0.0, 0.0);
        let mut du = 0.0;
        for &j in &neighbors.lists[i] {
            if j == i {
                continue;
            }
            let dx = particles.x[i] - particles.x[j];
            let dy = particles.y[i] - particles.y[j];
            let dz = particles.z[i] - particles.z[j];
            let dvx = particles.vx[i] - particles.vx[j];
            let dvy = particles.vy[i] - particles.vy[j];
            let dvz = particles.vz[i] - particles.vz[j];
            let h_ij = 0.5 * (particles.h[i] + particles.h[j]);
            let (gx, gy, gz) = grad_w_cubic(dx, dy, dz, h_ij);
            let rho_j = particles.rho[j].max(1e-30);
            let p_over_rho2_j = particles.p[j] / (particles.omega[j] * rho_j * rho_j);
            let v_dot_r = dvx * dx + dvy * dy + dvz * dz;
            let visc = if v_dot_r < 0.0 {
                let r2 = dx * dx + dy * dy + dz * dz;
                let mu = h_ij * v_dot_r / (r2 + 0.01 * h_ij * h_ij);
                let c_ij = 0.5 * (particles.c[i] + particles.c[j]);
                let rho_ij = 0.5 * (rho_i + rho_j);
                let alpha_ij = 0.5 * (particles.alpha[i] + particles.alpha[j]);
                (-alpha_ij * c_ij * mu + 2.0 * alpha_ij * mu * mu) / rho_ij
            } else {
                0.0
            };
            let mj = particles.m[j];
            let term = p_over_rho2_i + p_over_rho2_j + visc;
            acc.0 -= mj * term * gx;
            acc.1 -= mj * term * gy;
            acc.2 -= mj * term * gz;
            du += mj * (p_over_rho2_i + 0.5 * visc) * (dvx * gx + dvy * gy + dvz * gz);
        }
        (acc.0, acc.1, acc.2, du)
    });
    for (i, (ax, ay, az, du)) in results.into_iter().enumerate() {
        particles.ax[i] = ax;
        particles.ay[i] = ay;
        particles.az[i] = az;
        particles.du[i] = du;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sphsim::init::lattice_cube;
    use sphsim::physics::neighbors::{build_tree, find_neighbors as csr_find_neighbors};

    #[test]
    fn legacy_pipeline_matches_the_csr_pipeline() {
        let mut a = lattice_cube(6, 1.0, 1.0, 1.3);
        let mut b = a.clone();
        let tree = build_tree(&a, 16);

        let legacy_nl = find_neighbors(&mut a, &tree);
        compute_density(&mut a, &legacy_nl);
        compute_gradh(&mut a, &legacy_nl);
        sphsim::physics::eos::apply_eos(&mut a, None);
        compute_div_curl(&mut a, &legacy_nl);
        compute_momentum_energy(&mut a, &legacy_nl);

        let csr_nl = csr_find_neighbors(&mut b, &tree);
        sphsim::physics::density::compute_density(&mut b, &csr_nl, None);
        sphsim::physics::gradh::compute_gradh(&mut b, &csr_nl, None);
        sphsim::physics::eos::apply_eos(&mut b, None);
        sphsim::physics::iad::compute_div_curl(&mut b, &csr_nl, None);
        sphsim::physics::momentum::compute_momentum_energy(&mut b, &csr_nl, None);

        for i in 0..a.len() {
            assert_eq!(legacy_nl.lists[i].len(), csr_nl.count(i), "row {i} length");
            assert_eq!(a.neighbor_count[i], b.neighbor_count[i]);
            assert!((a.rho[i] - b.rho[i]).abs() < 1e-13, "rho {i}");
            assert!((a.omega[i] - b.omega[i]).abs() < 1e-13, "omega {i}");
            assert!((a.div_v[i] - b.div_v[i]).abs() < 1e-13, "div {i}");
            assert!((a.ax[i] - b.ax[i]).abs() < 1e-12, "ax {i}");
            assert!((a.du[i] - b.du[i]).abs() < 1e-12, "du {i}");
        }
    }
}
