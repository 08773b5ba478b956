//! Grad-h normalisation terms (`NormalizationGradh` stage).
//!
//! Variable-smoothing-length SPH corrects the momentum and energy equations by
//! the factor `Ω_i = 1 + (h_i / 3 ρ_i) Σ_j m_j ∂W/∂h(r_ij, h_i)` (Springel &
//! Hernquist 2002). `Ω → 1` for a perfectly uniform particle distribution.

use crate::boundary::MinImage;
use crate::kernels::{dwdh_shape, fold_lanes, for_each_chunk, gather, LANE_WIDTH};
use crate::parallel::for_each_row;
use crate::particle::ParticleSet;
use crate::physics::neighbors::NeighborLists;
use std::f64::consts::PI;

/// Compute the grad-h normalisation `Ω` of `rows` (`None`: every particle) in
/// place (minimum-image pair separations under periodic boundaries; open
/// boxes take a compile-time specialisation with no image arithmetic).
pub fn compute_gradh(particles: &mut ParticleSet, neighbors: &NeighborLists, rows: Option<&[u32]>) {
    assert_eq!(neighbors.len(), particles.len(), "neighbour lists out of date");
    let mi = MinImage::of(&particles.boundary);
    let mut omega = std::mem::take(&mut particles.omega);
    let p = &*particles;
    if mi.is_identity() {
        for_each_row(
            rows,
            [&mut omega[..]],
            #[inline(always)]
            |i, [omega]| *omega = gradh_row::<false>(p, neighbors, mi, i),
        );
    } else {
        for_each_row(
            rows,
            [&mut omega[..]],
            #[inline(always)]
            |i, [omega]| *omega = gradh_row::<true>(p, neighbors, mi, i),
        );
    }
    particles.omega = omega;
}

/// One CSR row of the Ω sum. Reads only static neighbour fields (`x`, `m`)
/// plus the row's own `h` and `ρ`. With `∂W/∂h = −dwdh_shape(q) / (π h⁴)`,
/// `Ω_i = 1 − Σ_j m_j dwdh_shape(r_ij/h_i) / (3 π h_i³ ρ_i)`.
#[inline(always)]
fn gradh_row<const PERIODIC: bool>(particles: &ParticleSet, neighbors: &NeighborLists, mi: MinImage, i: usize) -> f64 {
    let n = particles.len();
    let (x, y, z) = (&particles.x[..n], &particles.y[..n], &particles.z[..n]);
    let m = &particles.m[..n];
    let (xi, yi, zi, hi) = (x[i], y[i], z[i], particles.h[i]);
    let rho_i = particles.rho[i].max(1e-30);
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
                let term = lm[k] * dwdh_shape(r * inv_h);
                acc[k] += if k < live { term } else { 0.0 };
            }
        },
    );
    let omega = 1.0 - fold_lanes(acc) / (3.0 * PI * hi * hi * hi * rho_i);
    // Guard against pathological values near free surfaces.
    omega.clamp(0.2, 5.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::lattice_cube;
    use crate::physics::density::compute_density;
    use crate::physics::neighbors::find_neighbors;

    #[test]
    fn omega_is_near_one_for_uniform_lattice() {
        let mut p = lattice_cube(8, 1.0, 1.0, 1.3);
        let nl = find_neighbors(&mut p);
        compute_density(&mut p, &nl, None);
        compute_gradh(&mut p, &nl, None);
        // Interior particle: omega should be within ~30 % of unity.
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for i in 0..p.len() {
            let d = (p.x[i] - 0.5).powi(2) + (p.y[i] - 0.5).powi(2) + (p.z[i] - 0.5).powi(2);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        assert!((p.omega[best] - 1.0).abs() < 0.3, "Ω = {}", p.omega[best]);
    }

    #[test]
    fn omega_stays_within_guards() {
        let mut p = lattice_cube(4, 1.0, 1.0, 1.3);
        let nl = find_neighbors(&mut p);
        compute_density(&mut p, &nl, None);
        compute_gradh(&mut p, &nl, None);
        assert!(p.omega.iter().all(|&o| (0.2..=5.0).contains(&o)));
    }
}
