//! Velocity divergence and curl (`IADVelocityDivCurl` stage).
//!
//! SPH-EXA computes integral-approximation-derivative (IAD) gradients; for the
//! mini-framework we use the standard SPH estimators
//!
//! ```text
//! (∇·v)_i = -(1/ρ_i) Σ_j m_j (v_i − v_j) · ∇W_ij
//! (∇×v)_i = -(1/ρ_i) Σ_j m_j (v_i − v_j) × ∇W_ij
//! ```
//!
//! which feed the artificial-viscosity switches.

use crate::boundary::MinImage;
use crate::kernels::{grad_w_cubic, LANE_WIDTH};
use crate::parallel::for_each_row;
use crate::particle::ParticleSet;
use crate::physics::neighbors::NeighborLists;

/// Compute the velocity divergence and curl magnitude of `rows` (`None`:
/// every particle) in place (minimum-image pair separations under periodic
/// boundaries; open boxes take a compile-time specialisation with no image
/// arithmetic).
pub fn compute_div_curl(particles: &mut ParticleSet, neighbors: &NeighborLists, rows: Option<&[u32]>) {
    assert_eq!(neighbors.len(), particles.len(), "neighbour lists out of date");
    let mi = MinImage::of(&particles.boundary);
    let mut div_v = std::mem::take(&mut particles.div_v);
    let mut curl_v = std::mem::take(&mut particles.curl_v);
    let p = &*particles;
    let lanes = [&mut div_v[..], &mut curl_v[..]];
    if mi.is_identity() {
        for_each_row(
            rows,
            lanes,
            #[inline(always)]
            |i, [div, curl]| (*div, *curl) = div_curl_row::<false>(p, neighbors, mi, i),
        );
    } else {
        for_each_row(
            rows,
            lanes,
            #[inline(always)]
            |i, [div, curl]| (*div, *curl) = div_curl_row::<true>(p, neighbors, mi, i),
        );
    }
    particles.div_v = div_v;
    particles.curl_v = curl_v;
}

/// One CSR row of the divergence/curl estimate. Reads only static neighbour
/// fields (`x`, `v`, `m`) plus the row's own `h` and `ρ`.
#[inline(always)]
fn div_curl_row<const PERIODIC: bool>(
    particles: &ParticleSet,
    neighbors: &NeighborLists,
    mi: MinImage,
    i: usize,
) -> (f64, f64) {
    {
        let hi = particles.h[i];
        let (xi, yi, zi) = (particles.x[i], particles.y[i], particles.z[i]);
        let (vxi, vyi, vzi) = (particles.vx[i], particles.vy[i], particles.vz[i]);
        let rho_i = particles.rho[i].max(1e-30);
        let mut div = 0.0;
        let mut curl = (0.0, 0.0, 0.0);
        // SoA lanes (see `density_impl`): gather, fixed-width compute,
        // in-row-order accumulate. The former `j == i` skip is gone — the
        // self lane has a zero kernel gradient and zero velocity deltas, so
        // every self term is exactly `+0.0` and subtracting it preserves
        // each accumulator bit-for-bit; dropping the branch keeps the lanes
        // uniform.
        let mut lx = [0.0f64; LANE_WIDTH];
        let mut ly = [0.0f64; LANE_WIDTH];
        let mut lz = [0.0f64; LANE_WIDTH];
        let mut lvx = [0.0f64; LANE_WIDTH];
        let mut lvy = [0.0f64; LANE_WIDTH];
        let mut lvz = [0.0f64; LANE_WIDTH];
        let mut lm = [0.0f64; LANE_WIDTH];
        let mut ld = [0.0f64; LANE_WIDTH];
        let mut lc0 = [0.0f64; LANE_WIDTH];
        let mut lc1 = [0.0f64; LANE_WIDTH];
        let mut lc2 = [0.0f64; LANE_WIDTH];
        let row = neighbors.neighbors(i);
        let mut chunks = row.chunks_exact(LANE_WIDTH);
        for chunk in chunks.by_ref() {
            for (k, &j) in chunk.iter().enumerate() {
                let j = j as usize;
                lx[k] = particles.x[j];
                ly[k] = particles.y[j];
                lz[k] = particles.z[j];
                lvx[k] = particles.vx[j];
                lvy[k] = particles.vy[j];
                lvz[k] = particles.vz[j];
                lm[k] = particles.m[j];
            }
            for k in 0..LANE_WIDTH {
                let dx = xi - lx[k];
                let dy = yi - ly[k];
                let dz = zi - lz[k];
                let (dx, dy, dz) = if PERIODIC { mi.map(dx, dy, dz) } else { (dx, dy, dz) };
                let dvx = vxi - lvx[k];
                let dvy = vyi - lvy[k];
                let dvz = vzi - lvz[k];
                let (gx, gy, gz) = grad_w_cubic(dx, dy, dz, hi);
                let mj = lm[k];
                ld[k] = mj * (dvx * gx + dvy * gy + dvz * gz);
                lc0[k] = mj * (dvy * gz - dvz * gy);
                lc1[k] = mj * (dvz * gx - dvx * gz);
                lc2[k] = mj * (dvx * gy - dvy * gx);
            }
            for k in 0..LANE_WIDTH {
                div -= ld[k];
                curl.0 -= lc0[k];
                curl.1 -= lc1[k];
                curl.2 -= lc2[k];
            }
        }
        for &j in chunks.remainder() {
            let j = j as usize;
            let dx = xi - particles.x[j];
            let dy = yi - particles.y[j];
            let dz = zi - particles.z[j];
            let (dx, dy, dz) = if PERIODIC { mi.map(dx, dy, dz) } else { (dx, dy, dz) };
            let dvx = vxi - particles.vx[j];
            let dvy = vyi - particles.vy[j];
            let dvz = vzi - particles.vz[j];
            let (gx, gy, gz) = grad_w_cubic(dx, dy, dz, hi);
            let mj = particles.m[j];
            div -= mj * (dvx * gx + dvy * gy + dvz * gz);
            curl.0 -= mj * (dvy * gz - dvz * gy);
            curl.1 -= mj * (dvz * gx - dvx * gz);
            curl.2 -= mj * (dvx * gy - dvy * gx);
        }
        let curl_mag = (curl.0 * curl.0 + curl.1 * curl.1 + curl.2 * curl.2).sqrt() / rho_i;
        (div / rho_i, curl_mag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::lattice_cube;
    use crate::physics::density::compute_density;
    use crate::physics::neighbors::find_neighbors;

    fn interior_particle(p: &ParticleSet) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for i in 0..p.len() {
            let d = (p.x[i] - 0.5).powi(2) + (p.y[i] - 0.5).powi(2) + (p.z[i] - 0.5).powi(2);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    fn prepared_lattice(n: usize) -> (ParticleSet, NeighborLists) {
        let mut p = lattice_cube(n, 1.0, 1.0, 1.3);
        let nl = find_neighbors(&mut p);
        compute_density(&mut p, &nl, None);
        (p, nl)
    }

    #[test]
    fn uniform_expansion_has_positive_divergence_and_no_curl() {
        let (mut p, nl) = prepared_lattice(8);
        // Hubble-like flow v = r (relative to the cube centre): div v = 3, curl = 0.
        for i in 0..p.len() {
            p.vx[i] = p.x[i] - 0.5;
            p.vy[i] = p.y[i] - 0.5;
            p.vz[i] = p.z[i] - 0.5;
        }
        compute_div_curl(&mut p, &nl, None);
        let i = interior_particle(&p);
        assert!(p.div_v[i] > 1.5, "expected positive divergence, got {}", p.div_v[i]);
        assert!(p.curl_v[i].abs() < 0.7, "expected small curl, got {}", p.curl_v[i]);
    }

    #[test]
    fn rigid_rotation_has_curl_and_no_divergence() {
        let (mut p, nl) = prepared_lattice(8);
        // Rotation about z: v = ω × r with ω = (0,0,1): curl = 2, div = 0.
        for i in 0..p.len() {
            p.vx[i] = -(p.y[i] - 0.5);
            p.vy[i] = p.x[i] - 0.5;
            p.vz[i] = 0.0;
        }
        compute_div_curl(&mut p, &nl, None);
        let i = interior_particle(&p);
        assert!(p.div_v[i].abs() < 0.7, "expected ~zero divergence, got {}", p.div_v[i]);
        assert!(p.curl_v[i] > 1.0, "expected positive curl, got {}", p.curl_v[i]);
    }

    #[test]
    fn static_fluid_has_neither() {
        let (mut p, nl) = prepared_lattice(6);
        compute_div_curl(&mut p, &nl, None);
        assert!(p.div_v.iter().all(|d| d.abs() < 1e-10));
        assert!(p.curl_v.iter().all(|c| c.abs() < 1e-10));
    }
}
