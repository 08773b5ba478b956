//! Momentum and energy equations (`MomentumEnergy` stage).
//!
//! The most expensive kernel of the pipeline in the paper (up to ~46 % of the
//! GPU energy on LUMI-G). Grad-h SPH in the SPH-EXA form — each pressure term
//! pairs with the kernel gradient taken at *that* particle's smoothing length,
//! matching the `Ω` it is divided by — with Monaghan artificial viscosity on
//! the symmetrised gradient:
//!
//! ```text
//! dv_i/dt = -Σ_j m_j [ P_i/(Ω_i ρ_i²) ∇W_ij(h_i) + P_j/(Ω_j ρ_j²) ∇W_ij(h_j) + Π_ij ∇W̄_ij ]
//! du_i/dt = Σ_j m_j [ P_i/(Ω_i ρ_i²) (v_i − v_j)·∇W_ij(h_i) + (Π_ij/2) (v_i − v_j)·∇W̄_ij ]
//! Π_ij    = -α_ij c̄_ij μ_ij / ρ̄_ij + 2 α_ij μ_ij² / ρ̄_ij      (μ_ij < 0 only)
//! ∇W̄_ij   = (∇W_ij(h_i) + ∇W_ij(h_j)) / 2
//! ```
//!
//! (A previous version used the single averaged-`h̄` gradient for *all* terms
//! while still dividing by the per-particle `Ω_i`/`Ω_j` — inconsistent with the
//! grad-h derivation, in which each `Ω` corrects exactly the `∂W/∂h` of its own
//! kernel. The per-pair force is antisymmetric under `i ↔ j`, so with
//! symmetrised neighbour lists total momentum is conserved to round-off; see
//! the conservation integration test.)

use crate::boundary::MinImage;
use crate::kernels::{dw_shape, fold_lanes, for_each_chunk, gather, LANE_WIDTH};
use crate::parallel::for_each_row;
use crate::particle::ParticleSet;
use crate::physics::neighbors::NeighborLists;
use std::f64::consts::PI;

/// The hoisted per-particle reciprocals of the pair loop — `1/h`, the kernel
/// derivative scale `1/(π h⁴)` and the pressure prefactor `P/(Ω ρ²)` — with
/// which the two per-particle kernel gradients and the pressure terms cost
/// one sqrt and one divide per *pair* instead of ~7 divides. The lanes live
/// across calls (the step driver's sit in its `StepWorkspace`), so a warm
/// [`compute_momentum_energy`] allocates nothing.
#[derive(Debug, Default)]
pub struct MomentumScratch {
    inv_h: Vec<f64>,
    dw_scale: Vec<f64>,
    pref: Vec<f64>,
}

impl MomentumScratch {
    /// Recompute every particle's entry in place: a row reads the entries of
    /// all its neighbours, active or not, so a row subset does not narrow
    /// this pass.
    fn fill(&mut self, particles: &ParticleSet) {
        let n = particles.len();
        let Self { inv_h, dw_scale, pref } = self;
        for lane in [&mut *inv_h, &mut *dw_scale, &mut *pref] {
            resize_dead(lane, n);
        }
        for_each_row(
            None,
            [&mut inv_h[..], &mut dw_scale[..], &mut pref[..]],
            #[inline(always)]
            |i, [inv_h, dw_scale, pref]| {
                let h = particles.h[i];
                *inv_h = 1.0 / h;
                *dw_scale = 1.0 / (PI * h * h * h * h);
                let rho = particles.rho[i].max(1e-30);
                *pref = particles.p[i] / (particles.omega[i] * rho * rho);
            },
        );
    }
}

/// Size `lane` to `n` entries whose old values are dead, so growing (a rank's
/// `n` moves with its ghost count) frees the block first rather than carrying
/// it through a doubling `realloc`.
fn resize_dead(lane: &mut Vec<f64>, n: usize) {
    if lane.capacity() < n {
        lane.clear();
        lane.shrink_to_fit();
    }
    lane.resize(n, 0.0);
}

/// Compute accelerations and internal-energy rates of `rows` (`None`: every
/// particle) in place. Pair separations are minimum-image, so the pairwise
/// antisymmetry (and with it momentum conservation to round-off) holds across
/// periodic box faces too; open boxes take a compile-time specialisation with
/// no image arithmetic.
///
/// Unlike the earlier pipeline stages, a momentum row *does* read recomputed
/// neighbour fields (`ρ, h, P, c, Ω, α` of `j`), so the caller must ensure
/// those are final for every neighbour a selected row can reach — which is
/// exactly the interior/halo row split of a rank with peers:
/// interior rows reference no ghosts and run while the ghost refresh is in
/// flight; halo rows run after it completes. The prefactor hoist covers the
/// whole set on every call (into `scratch`, whose previous contents are
/// never read), so subset calls reproduce the full pass bit for bit on the
/// rows they touch.
pub fn compute_momentum_energy(
    particles: &mut ParticleSet,
    neighbors: &NeighborLists,
    scratch: &mut MomentumScratch,
    rows: Option<&[u32]>,
) {
    assert_eq!(neighbors.len(), particles.len(), "neighbour lists out of date");
    let mi = MinImage::of(&particles.boundary);
    scratch.fill(particles);
    let MomentumScratch { inv_h, dw_scale, pref } = &*scratch;
    let mut ax = std::mem::take(&mut particles.ax);
    let mut ay = std::mem::take(&mut particles.ay);
    let mut az = std::mem::take(&mut particles.az);
    let mut du = std::mem::take(&mut particles.du);
    let p = &*particles;
    let lanes = [&mut ax[..], &mut ay[..], &mut az[..], &mut du[..]];
    if mi.is_identity() {
        for_each_row(
            rows,
            lanes,
            #[inline(always)]
            |i, [ax, ay, az, du]| {
                (*ax, *ay, *az, *du) = momentum_row::<false>(p, neighbors, mi, inv_h, dw_scale, pref, i)
            },
        );
    } else {
        for_each_row(
            rows,
            lanes,
            #[inline(always)]
            |i, [ax, ay, az, du]| {
                (*ax, *ay, *az, *du) = momentum_row::<true>(p, neighbors, mi, inv_h, dw_scale, pref, i)
            },
        );
    }
    particles.ax = ax;
    particles.ay = ay;
    particles.az = az;
    particles.du = du;
}

/// One CSR row of the momentum/energy equations. Coincident pairs (the self
/// entry among them) have no direction: their lanes select a zero term.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn momentum_row<const PERIODIC: bool>(
    particles: &ParticleSet,
    neighbors: &NeighborLists,
    mi: MinImage,
    inv_h: &[f64],
    dw_scale: &[f64],
    pref: &[f64],
    i: usize,
) -> (f64, f64, f64, f64) {
    let n = particles.len();
    let (x, y, z) = (&particles.x[..n], &particles.y[..n], &particles.z[..n]);
    let (vx, vy, vz) = (&particles.vx[..n], &particles.vy[..n], &particles.vz[..n]);
    let (h, m, rho) = (&particles.h[..n], &particles.m[..n], &particles.rho[..n]);
    let (c, alpha) = (&particles.c[..n], &particles.alpha[..n]);
    let (inv_h, dw_scale, pref) = (&inv_h[..n], &dw_scale[..n], &pref[..n]);
    let (xi, yi, zi) = (x[i], y[i], z[i]);
    let (vxi, vyi, vzi) = (vx[i], vy[i], vz[i]);
    let (hi, ci, alpha_i, rho_i) = (h[i], c[i], alpha[i], rho[i].max(1e-30));
    let (pref_i, inv_h_i, dw_scale_i) = (pref[i], inv_h[i], dw_scale[i]);
    let [mut ax, mut ay, mut az, mut du] = [[0.0; LANE_WIDTH]; 4];
    for_each_chunk(
        neighbors.neighbors(i),
        i as u32,
        n,
        #[inline(always)]
        |idx, live| {
            let (ljx, ljy, ljz) = (gather(x, idx), gather(y, idx), gather(z, idx));
            let (ljvx, ljvy, ljvz) = (gather(vx, idx), gather(vy, idx), gather(vz, idx));
            let (ljh, ljm, ljrho) = (gather(h, idx), gather(m, idx), gather(rho, idx));
            let (ljc, lja) = (gather(c, idx), gather(alpha, idx));
            let (ljpref, ljih, ljdw) = (gather(pref, idx), gather(inv_h, idx), gather(dw_scale, idx));
            for k in 0..LANE_WIDTH {
                let (dx, dy, dz) = (xi - ljx[k], yi - ljy[k], zi - ljz[k]);
                let (dx, dy, dz) = if PERIODIC { mi.map(dx, dy, dz) } else { (dx, dy, dz) };
                let (dvx, dvy, dvz) = (vxi - ljvx[k], vyi - ljvy[k], vzi - ljvz[k]);
                // Per-particle kernel gradients: each grad-h pressure term
                // uses the gradient at its own particle's smoothing length
                // (the Ω it is divided by corrects exactly that kernel's
                // ∂W/∂h); the viscosity takes the symmetrised mean gradient
                // (∇W(h_i) + ∇W(h_j))/2. All gradients share the direction
                // (dx, dy, dz)/r, so the whole pairwise force collapses to a
                // single scalar times the separation vector — which also
                // makes the i ↔ j antisymmetry exact in floating point.
                let h_ij = 0.5 * (hi + ljh[k]);
                let r2 = dx * dx + dy * dy + dz * dz;
                let guard = 1e-12 * h_ij;
                let keep = r2 > guard * guard && k < live;
                let r = r2.sqrt();
                let inv_r = 1.0 / r;
                let dw_i = dw_scale_i * dw_shape(r * inv_h_i);
                let dw_j = ljdw[k] * dw_shape(r * ljih[k]);
                let dw_b = 0.5 * (dw_i + dw_j);

                // Monaghan artificial viscosity (approaching pairs only).
                let v_dot_r = dvx * dx + dvy * dy + dvz * dz;
                let visc = if v_dot_r < 0.0 {
                    let mu = h_ij * v_dot_r / (r2 + 0.01 * h_ij * h_ij);
                    let c_ij = 0.5 * (ci + ljc[k]);
                    let rho_j = ljrho[k].max(1e-30);
                    let rho_ij = 0.5 * (rho_i + rho_j);
                    let alpha_ij = 0.5 * (alpha_i + lja[k]);
                    (-alpha_ij * c_ij * mu + 2.0 * alpha_ij * mu * mu) / rho_ij
                } else {
                    0.0
                };

                let mj = ljm[k];
                let force = (pref_i * dw_i + ljpref[k] * dw_j + visc * dw_b) * inv_r;
                ax[k] -= if keep { mj * force * dx } else { 0.0 };
                ay[k] -= if keep { mj * force * dy } else { 0.0 };
                az[k] -= if keep { mj * force * dz } else { 0.0 };
                // dv·∇W = (dW/dr / r)(dv·dr) — the same dot product for all
                // terms.
                du[k] += if keep {
                    mj * (pref_i * dw_i + 0.5 * visc * dw_b) * inv_r * v_dot_r
                } else {
                    0.0
                };
            }
        },
    );
    (fold_lanes(ax), fold_lanes(ay), fold_lanes(az), fold_lanes(du))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::lattice_cube;
    use crate::physics::density::compute_density;
    use crate::physics::eos::apply_eos;
    use crate::physics::gradh::compute_gradh;
    use crate::physics::neighbors::{find_neighbors, Segment};

    fn prepared(n: usize) -> (ParticleSet, NeighborLists) {
        let mut p = lattice_cube(n, 1.0, 1.0, 1.3);
        let nl = find_neighbors(&mut p);
        compute_density(&mut p, &nl, None);
        apply_eos(&mut p, None);
        compute_gradh(&mut p, &nl, None);
        (p, nl)
    }

    #[test]
    fn uniform_static_fluid_has_small_interior_forces() {
        let (mut p, nl) = prepared(8);
        compute_momentum_energy(&mut p, &nl, &mut MomentumScratch::default(), None);
        // Interior particle: pressure gradients should nearly cancel.
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for i in 0..p.len() {
            let d = (p.x[i] - 0.5).powi(2) + (p.y[i] - 0.5).powi(2) + (p.z[i] - 0.5).powi(2);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        let a_mag = (p.ax[best].powi(2) + p.ay[best].powi(2) + p.az[best].powi(2)).sqrt();
        // Edge particles feel a strong outward pressure force; compare against that.
        let a_edge = (p.ax[0].powi(2) + p.ay[0].powi(2) + p.az[0].powi(2)).sqrt();
        assert!(a_mag < 0.2 * a_edge, "interior acc {a_mag} vs edge acc {a_edge}");
        // A static uniform fluid produces no heating.
        assert!(p.du[best].abs() < 1e-8);
    }

    #[test]
    fn edge_particles_accelerate_outwards() {
        let (mut p, nl) = prepared(6);
        compute_momentum_energy(&mut p, &nl, &mut MomentumScratch::default(), None);
        // The corner particle at (0,0,0)-ish should be pushed towards negative
        // coordinates (away from the bulk).
        let i = (0..p.len())
            .min_by(|&a, &b| {
                let da = p.x[a] + p.y[a] + p.z[a];
                let db = p.x[b] + p.y[b] + p.z[b];
                da.total_cmp(&db)
            })
            .unwrap();
        assert!(p.ax[i] < 0.0 && p.ay[i] < 0.0 && p.az[i] < 0.0);
    }

    #[test]
    fn pair_forces_are_antisymmetric_with_unequal_h() {
        // Two mutually visible particles with different h, ρ, P, Ω and an
        // approaching velocity (so the viscosity term is active too): the
        // pairwise momentum exchange must cancel to round-off, which is what
        // the per-particle-h gradient form guarantees.
        let mut p = ParticleSet::with_capacity(2);
        p.push(0.0, 0.0, 0.0, 0.2, 0.0, 0.0, 2.0, 0.3, 1.0);
        p.push(0.25, 0.1, 0.0, -0.5, 0.0, 0.0, 3.0, 0.5, 2.0);
        p.rho = vec![1.0, 1.5];
        p.p = vec![0.4, 0.9];
        p.c = vec![1.0, 1.2];
        p.omega = vec![0.9, 1.1];
        let nl = NeighborLists {
            offsets: vec![0, 2, 4],
            segments: vec![Segment {
                entries: vec![0, 1, 1, 0],
                ..Segment::default()
            }],
        };
        compute_momentum_energy(&mut p, &nl, &mut MomentumScratch::default(), None);
        for (a0, a1) in [(p.ax[0], p.ax[1]), (p.ay[0], p.ay[1]), (p.az[0], p.az[1])] {
            let imbalance = (p.m[0] * a0 + p.m[1] * a1).abs();
            let scale = (p.m[0] * a0).abs().max((p.m[1] * a1).abs()).max(1e-30);
            assert!(
                imbalance <= 1e-13 * scale,
                "pair momentum imbalance {imbalance} vs scale {scale}"
            );
        }
        // Both particles are heated by the head-on approach.
        assert!(p.du[0] > 0.0 && p.du[1] > 0.0);
    }

    #[test]
    fn pressure_gradient_uses_each_particles_own_h() {
        // Particle 1's smoothing length is large enough that particle 0 sits
        // inside h_1's support but outside h_0's: the force on 0 must then be
        // carried entirely by the P_j/(Ω_j ρ_j²) ∇W(h_j) term — nonzero, where
        // the old averaged-h kernel would misplace the cutoff.
        let mut p = ParticleSet::with_capacity(2);
        p.push(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.1, 1.0);
        p.push(0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.4, 1.0);
        p.rho = vec![1.0, 1.0];
        p.p = vec![1.0, 1.0];
        p.c = vec![1.0, 1.0];
        let nl = NeighborLists {
            offsets: vec![0, 2, 4],
            segments: vec![Segment {
                entries: vec![0, 1, 1, 0],
                ..Segment::default()
            }],
        };
        compute_momentum_energy(&mut p, &nl, &mut MomentumScratch::default(), None);
        // r = 0.5 > 2 h_0 = 0.2, so ∇W(h_0) = 0: no P_i term and no du for 0.
        assert_eq!(p.du[0], 0.0);
        // But r < 2 h_1 = 0.8: the P_j term pushes the pair apart.
        assert!(p.ax[0] < 0.0 && p.ax[1] > 0.0);
        assert!((p.m[0] * p.ax[0] + p.m[1] * p.ax[1]).abs() < 1e-15);
    }

    #[test]
    fn approaching_particles_heat_up() {
        // Two blobs colliding along x: viscosity must produce du > 0 somewhere.
        let (mut p, _) = prepared(6);
        for i in 0..p.len() {
            p.vx[i] = if p.x[i] < 0.5 { 1.0 } else { -1.0 };
        }
        let nl = find_neighbors(&mut p);
        compute_density(&mut p, &nl, None);
        apply_eos(&mut p, None);
        compute_gradh(&mut p, &nl, None);
        compute_momentum_energy(&mut p, &nl, &mut MomentumScratch::default(), None);
        let total_du: f64 = (0..p.len()).map(|i| p.m[i] * p.du[i]).sum();
        assert!(total_du > 0.0, "collision should heat the gas, Σ m du = {total_du}");
    }
}
