//! Density summation (`XMass` stage).
//!
//! `ρ_i = Σ_j m_j W(|r_i − r_j|, h_i)` over the neighbour lists, followed by an
//! update of the smoothing length towards the target neighbour count
//! (`h ∝ (m/ρ)^{1/3}`), which is how SPH-EXA keeps the neighbour count roughly
//! constant as the fluid compresses or expands.

use crate::boundary::MinImage;
use crate::kernels::{fold_lanes, for_each_chunk, gather, w_shape, LANE_WIDTH};
use crate::parallel::for_each_row;
use crate::particle::ParticleSet;
use crate::physics::neighbors::NeighborLists;
use std::f64::consts::PI;

/// Compute the SPH density of `rows` (`None`: every particle), writing `ρ` in
/// place. Pair separations go through the shared minimum-image map, so
/// periodic boxes sum over the nearest images; open boxes take a compile-time
/// specialisation with no image arithmetic.
///
/// Each row reads only static neighbour fields (`x`, `m`) plus its own `h`,
/// so any partition of the rows into passes produces exactly the values of
/// one full pass — which is what lets a rank with peers compute the
/// exported (halo-bound) rows first and overlap the rest with the ghost
/// exchange.
pub fn compute_density(particles: &mut ParticleSet, neighbors: &NeighborLists, rows: Option<&[u32]>) {
    assert_eq!(neighbors.len(), particles.len(), "neighbour lists out of date");
    let mi = MinImage::of(&particles.boundary);
    let mut rho = std::mem::take(&mut particles.rho);
    let p = &*particles;
    if mi.is_identity() {
        for_each_row(
            rows,
            [&mut rho[..]],
            #[inline(always)]
            |i, [rho]| *rho = density_row::<false>(p, neighbors, mi, i),
        );
    } else {
        for_each_row(
            rows,
            [&mut rho[..]],
            #[inline(always)]
            |i, [rho]| *rho = density_row::<true>(p, neighbors, mi, i),
        );
    }
    particles.rho = rho;
}

/// One CSR row of the density sum, `ρ_i = Σ_j m_j w_shape(r_ij/h_i) / (π h_i³)`.
#[inline(always)]
fn density_row<const PERIODIC: bool>(
    particles: &ParticleSet,
    neighbors: &NeighborLists,
    mi: MinImage,
    i: usize,
) -> f64 {
    let n = particles.len();
    let (x, y, z) = (&particles.x[..n], &particles.y[..n], &particles.z[..n]);
    let m = &particles.m[..n];
    let (xi, yi, zi, hi) = (x[i], y[i], z[i], particles.h[i]);
    let inv_h = 1.0 / hi;
    let mut acc = [0.0; LANE_WIDTH];
    for_each_chunk(
        neighbors.neighbors(i),
        i as u32,
        n,
        #[inline(always)]
        |idx, live| {
            let (lx, ly, lz, lm) = (gather(x, idx), gather(y, idx), gather(z, idx), gather(m, idx));
            for k in 0..LANE_WIDTH {
                let (dx, dy, dz) = (xi - lx[k], yi - ly[k], zi - lz[k]);
                let (dx, dy, dz) = if PERIODIC { mi.map(dx, dy, dz) } else { (dx, dy, dz) };
                let r = (dx * dx + dy * dy + dz * dz).sqrt();
                let term = lm[k] * w_shape(r * inv_h);
                acc[k] += if k < live { term } else { 0.0 };
            }
        },
    );
    fold_lanes(acc) / (PI * hi * hi * hi)
}

/// Nudge the smoothing length of `rows` (`None`: every particle) towards the
/// value that would give it `target_neighbors` neighbours, assuming locally
/// uniform density. The change is capped at ±20 % per step for stability (as
/// real SPH codes do). Purely row-local.
pub fn update_smoothing_length(particles: &mut ParticleSet, target_neighbors: f64, rows: Option<&[u32]>) {
    let ParticleSet { h, neighbor_count, .. } = particles;
    for_each_row(rows, [&mut h[..]], |i, [h]| {
        let current = neighbor_count[i].max(1) as f64;
        let ratio = (target_neighbors / current).cbrt();
        let bounded = ratio.clamp(0.8, 1.2);
        *h *= bounded;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::lattice_cube;
    use crate::physics::neighbors::find_neighbors;

    #[test]
    fn uniform_lattice_recovers_uniform_density() {
        // Unit cube, unit total mass -> density 1 everywhere (away from edges).
        let mut p = lattice_cube(8, 1.0, 1.0, 1.3);
        let nl = find_neighbors(&mut p);
        compute_density(&mut p, &nl, None);
        // Check an interior particle: index near the cube centre.
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for i in 0..p.len() {
            let d = (p.x[i] - 0.5).powi(2) + (p.y[i] - 0.5).powi(2) + (p.z[i] - 0.5).powi(2);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        let rho = p.rho[best];
        assert!((rho - 1.0).abs() < 0.15, "interior density {rho} should be ≈ 1");
        // Edge particles see fewer neighbours -> lower density.
        assert!(p.rho[0] < rho);
    }

    #[test]
    fn density_scales_with_mass() {
        let mut p = lattice_cube(6, 1.0, 2.0, 1.3);
        let nl = find_neighbors(&mut p);
        compute_density(&mut p, &nl, None);
        let mut q = lattice_cube(6, 1.0, 1.0, 1.3);
        let nl_q = find_neighbors(&mut q);
        compute_density(&mut q, &nl_q, None);
        for i in 0..p.len() {
            assert!((p.rho[i] - 2.0 * q.rho[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn smoothing_length_moves_towards_target() {
        let mut p = lattice_cube(6, 1.0, 1.0, 1.3);
        find_neighbors(&mut p);
        let h_before = p.h.clone();
        // Ask for far more neighbours than present -> h must grow (within cap).
        update_smoothing_length(&mut p, 1000.0, None);
        assert!(p.h.iter().zip(&h_before).all(|(a, b)| a > b));
        // Ask for almost none -> h must shrink.
        update_smoothing_length(&mut p, 1.0, None);
        let h_after = p.h.clone();
        assert!(h_after.iter().zip(&p.h).all(|(a, b)| a <= b));
    }
}
