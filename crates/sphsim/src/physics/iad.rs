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
use crate::kernels::{dw_shape, fold_lanes, for_each_chunk, gather, LANE_WIDTH};
use crate::parallel::for_each_row;
use crate::particle::ParticleSet;
use crate::physics::neighbors::NeighborLists;
use std::f64::consts::PI;

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
/// fields (`x`, `v`, `m`) plus the row's own `h` and `ρ`. Every pair's kernel
/// gradient is `∇W = dw_shape(q) / (π h_i⁴) · (dx, dy, dz) / r`: a pair pays
/// the one divide `dw_shape(q) / r`, the row the scale `1/(π h_i⁴ ρ_i)`. A
/// coincident pair (`r < 10⁻¹² h_i`, the self entry among them) has no
/// direction and selects a zero term.
#[inline(always)]
fn div_curl_row<const PERIODIC: bool>(
    particles: &ParticleSet,
    neighbors: &NeighborLists,
    mi: MinImage,
    i: usize,
) -> (f64, f64) {
    let n = particles.len();
    let (x, y, z) = (&particles.x[..n], &particles.y[..n], &particles.z[..n]);
    let m = &particles.m[..n];
    let (vx, vy, vz) = (&particles.vx[..n], &particles.vy[..n], &particles.vz[..n]);
    let (xi, yi, zi, hi) = (x[i], y[i], z[i], particles.h[i]);
    let (vxi, vyi, vzi) = (vx[i], vy[i], vz[i]);
    let inv_h = 1.0 / hi;
    let [mut div, mut curl_x, mut curl_y, mut curl_z] = [[0.0; LANE_WIDTH]; 4];
    for_each_chunk(
        neighbors.neighbors(i),
        i as u32,
        n,
        #[inline(always)]
        |idx, live| {
            let (lx, ly, lz, lm) = (gather(x, idx), gather(y, idx), gather(z, idx), gather(m, idx));
            let (lvx, lvy, lvz) = (gather(vx, idx), gather(vy, idx), gather(vz, idx));
            for k in 0..LANE_WIDTH {
                let (dx, dy, dz) = (xi - lx[k], yi - ly[k], zi - lz[k]);
                let (dx, dy, dz) = if PERIODIC { mi.map(dx, dy, dz) } else { (dx, dy, dz) };
                let (dvx, dvy, dvz) = (vxi - lvx[k], vyi - lvy[k], vzi - lvz[k]);
                let r = (dx * dx + dy * dy + dz * dz).sqrt();
                let coincident = r < 1e-12 * hi;
                let weight = if coincident || k >= live {
                    0.0
                } else {
                    lm[k] * dw_shape(r * inv_h) / r
                };
                div[k] -= weight * (dvx * dx + dvy * dy + dvz * dz);
                curl_x[k] -= weight * (dvy * dz - dvz * dy);
                curl_y[k] -= weight * (dvz * dx - dvx * dz);
                curl_z[k] -= weight * (dvx * dy - dvy * dx);
            }
        },
    );
    let scale = 1.0 / (PI * hi * hi * hi * hi * particles.rho[i].max(1e-30));
    let (cx, cy, cz) = (fold_lanes(curl_x), fold_lanes(curl_y), fold_lanes(curl_z));
    (fold_lanes(div) * scale, (cx * cx + cy * cy + cz * cz).sqrt() * scale)
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
