//! Grad-h normalisation terms (`NormalizationGradh` stage).
//!
//! Variable-smoothing-length SPH corrects the momentum and energy equations by
//! the factor `Ω_i = 1 + (h_i / 3 ρ_i) Σ_j m_j ∂W/∂h(r_ij, h_i)` (Springel &
//! Hernquist 2002). `Ω → 1` for a perfectly uniform particle distribution.

use crate::boundary::MinImage;
use crate::kernels::{dwdh_cubic, LANE_WIDTH};
use crate::parallel::for_each_row;
use crate::particle::ParticleSet;
use crate::physics::neighbors::NeighborLists;

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
/// plus the row's own `h` and `ρ`.
#[inline(always)]
fn gradh_row<const PERIODIC: bool>(particles: &ParticleSet, neighbors: &NeighborLists, mi: MinImage, i: usize) -> f64 {
    let hi = particles.h[i];
    let (xi, yi, zi) = (particles.x[i], particles.y[i], particles.z[i]);
    let rho_i = particles.rho[i].max(1e-30);
    let mut sum = 0.0;
    // SoA lanes (see `density_impl`): gather, fixed-width compute,
    // in-row-order accumulate — bit-identical to a scalar sweep.
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
            lt[k] = lm[k] * dwdh_cubic(r, hi);
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
        sum += particles.m[j] * dwdh_cubic(r, hi);
    }
    let omega = 1.0 + hi / (3.0 * rho_i) * sum;
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
