//! Density summation (`XMass` stage).
//!
//! `ρ_i = Σ_j m_j W(|r_i − r_j|, h_i)` over the neighbour lists, followed by an
//! update of the smoothing length towards the target neighbour count
//! (`h ∝ (m/ρ)^{1/3}`), which is how SPH-EXA keeps the neighbour count roughly
//! constant as the fluid compresses or expands.

use crate::boundary::MinImage;
use crate::kernels::{w_cubic, LANE_WIDTH};
use crate::parallel::for_each_row;
use crate::particle::ParticleSet;
use crate::physics::neighbors::NeighborLists;

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

/// One CSR row of the density sum.
#[inline(always)]
fn density_row<const PERIODIC: bool>(
    particles: &ParticleSet,
    neighbors: &NeighborLists,
    mi: MinImage,
    i: usize,
) -> f64 {
    let hi = particles.h[i];
    let (xi, yi, zi) = (particles.x[i], particles.y[i], particles.z[i]);
    let mut sum = 0.0;
    // SoA lanes: gather each LANE_WIDTH-wide chunk of the CSR row into
    // fixed-width stack buffers, run a fixed-trip-count compute loop over
    // them, then accumulate the per-lane terms in row order — the same
    // operations in the same order as a scalar sweep, so the sum is
    // bit-identical to one.
    let mut lx = [0.0f64; LANE_WIDTH];
    let mut ly = [0.0f64; LANE_WIDTH];
    let mut lz = [0.0f64; LANE_WIDTH];
    let mut lm = [0.0f64; LANE_WIDTH];
    let mut lt = [0.0f64; LANE_WIDTH];
    let row = neighbors.neighbors(i);
    let mut chunks = row.chunks_exact(LANE_WIDTH);
    for chunk in chunks.by_ref() {
        for (k, &j) in chunk.iter().enumerate() {
            let j = j as usize;
            lx[k] = particles.x[j];
            ly[k] = particles.y[j];
            lz[k] = particles.z[j];
            lm[k] = particles.m[j];
        }
        for k in 0..LANE_WIDTH {
            let dx = xi - lx[k];
            let dy = yi - ly[k];
            let dz = zi - lz[k];
            let (dx, dy, dz) = if PERIODIC { mi.map(dx, dy, dz) } else { (dx, dy, dz) };
            let r = (dx * dx + dy * dy + dz * dz).sqrt();
            lt[k] = lm[k] * w_cubic(r, hi);
        }
        for &t in &lt {
            sum += t;
        }
    }
    for &j in chunks.remainder() {
        let j = j as usize;
        let dx = xi - particles.x[j];
        let dy = yi - particles.y[j];
        let dz = zi - particles.z[j];
        let (dx, dy, dz) = if PERIODIC { mi.map(dx, dy, dz) } else { (dx, dy, dz) };
        let r = (dx * dx + dy * dy + dz * dz).sqrt();
        sum += particles.m[j] * w_cubic(r, hi);
    }
    sum
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
