//! Particle storage.
//!
//! Structure-of-arrays layout, as used by SPH-EXA and every performance-minded
//! particle code: one contiguous `Vec<f64>` per field, so that kernels stream
//! through memory and parallel chunking is trivial.

use crate::boundary::Boundary;

/// Structure-of-arrays particle set.
#[derive(Clone, Debug, Default)]
pub struct ParticleSet {
    /// Boundary condition of the box the particles live in. Travels with the
    /// set so every consumer — neighbour search, pair kernels, Morton keys,
    /// domain decomposition — agrees on the same geometry.
    pub boundary: Boundary,
    /// Position, x component.
    pub x: Vec<f64>,
    /// Position, y component.
    pub y: Vec<f64>,
    /// Position, z component.
    pub z: Vec<f64>,
    /// Velocity, x component.
    pub vx: Vec<f64>,
    /// Velocity, y component.
    pub vy: Vec<f64>,
    /// Velocity, z component.
    pub vz: Vec<f64>,
    /// Particle masses.
    pub m: Vec<f64>,
    /// Smoothing lengths.
    pub h: Vec<f64>,
    /// Densities.
    pub rho: Vec<f64>,
    /// Specific internal energies.
    pub u: Vec<f64>,
    /// Pressures.
    pub p: Vec<f64>,
    /// Sound speeds.
    pub c: Vec<f64>,
    /// Grad-h normalisation terms (Omega).
    pub omega: Vec<f64>,
    /// Velocity divergence.
    pub div_v: Vec<f64>,
    /// Velocity curl magnitude.
    pub curl_v: Vec<f64>,
    /// Artificial-viscosity switch per particle.
    pub alpha: Vec<f64>,
    /// Acceleration, x component.
    pub ax: Vec<f64>,
    /// Acceleration, y component.
    pub ay: Vec<f64>,
    /// Acceleration, z component.
    pub az: Vec<f64>,
    /// Rate of change of internal energy.
    pub du: Vec<f64>,
    /// Number of neighbours within the particle's **own** `2h` support
    /// (diagnostic; what smoothing-length control consumes). Since the CSR
    /// builder symmetrises its rows, a row can hold *more* entries than this
    /// count — partners whose larger support reaches back — so do not equate
    /// the diagnostic with the row width; see `physics::neighbors`.
    pub neighbor_count: Vec<u32>,
    /// Individual-timestep rung `k`: the particle advances on
    /// `dt = dt_base / 2^k` (see `physics::timestep::TimestepBins`). `0` for
    /// every particle when block timesteps are disabled — the global-dt path
    /// never reads the lane. Travels with the particle through reorders,
    /// migration and ghost exchange, because the neighbour-rung limiter and
    /// the active-set schedule are defined over it.
    pub rung: Vec<u8>,
}

/// [`ParticleSet::lane_names`], for the table of [`crate::SphStage::output_lanes`].
pub(crate) const LANE_NAMES: [&str; 20] = [
    "x", "y", "z", "vx", "vy", "vz", "m", "h", "rho", "u", "p", "c", "omega", "div_v", "curl_v", "alpha", "ax", "ay",
    "az", "du",
];

/// Reusable scratch buffers for [`ParticleSet::reorder_with`] (one `f64`
/// lane, one `u32` lane and one `u8` lane — the permuted field is built here
/// and then swapped in, so a steady-state reorder allocates nothing).
#[derive(Clone, Debug, Default)]
pub(crate) struct ReorderScratch {
    f: Vec<f64>,
    u: Vec<u32>,
    b: Vec<u8>,
}

impl ParticleSet {
    /// Create an empty particle set with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        let mut s = Self::default();
        s.reserve(n);
        s
    }

    /// Field names of [`ParticleSet::lanes`], in the same order.
    pub fn lane_names() -> [&'static str; 20] {
        LANE_NAMES
    }

    /// The 20 `f64` lanes, in declaration order — the one place that order
    /// is written down (the migration wire format follows it too).
    pub fn lanes(&self) -> [&Vec<f64>; 20] {
        [
            &self.x,
            &self.y,
            &self.z,
            &self.vx,
            &self.vy,
            &self.vz,
            &self.m,
            &self.h,
            &self.rho,
            &self.u,
            &self.p,
            &self.c,
            &self.omega,
            &self.div_v,
            &self.curl_v,
            &self.alpha,
            &self.ax,
            &self.ay,
            &self.az,
            &self.du,
        ]
    }

    /// [`ParticleSet::lanes`], mutably.
    pub fn lanes_mut(&mut self) -> [&mut Vec<f64>; 20] {
        [
            &mut self.x,
            &mut self.y,
            &mut self.z,
            &mut self.vx,
            &mut self.vy,
            &mut self.vz,
            &mut self.m,
            &mut self.h,
            &mut self.rho,
            &mut self.u,
            &mut self.p,
            &mut self.c,
            &mut self.omega,
            &mut self.div_v,
            &mut self.curl_v,
            &mut self.alpha,
            &mut self.ax,
            &mut self.ay,
            &mut self.az,
            &mut self.du,
        ]
    }

    /// The first lane among `lanes` (names of [`ParticleSet::lane_names`], in
    /// declaration order) that holds a non-finite value on one of `rows`, as
    /// the first such row and the lane's name. Reads `rows × lanes` values,
    /// one lane after the other, and touches no heap.
    pub(crate) fn first_non_finite(
        &self,
        lanes: &[&str],
        rows: impl Iterator<Item = usize> + Clone,
    ) -> Option<(usize, &'static str)> {
        let named = LANE_NAMES
            .into_iter()
            .zip(self.lanes())
            .filter(|(name, _)| lanes.contains(name));
        // A lane is searched only once it is known to hold a bad value: the
        // pass without an exit costs half of what a search does.
        named
            .filter(|(_, lane)| rows.clone().fold(false, |bad, i| bad | !lane[i].is_finite()))
            .find_map(|(name, lane)| Some((rows.clone().find(|&i| !lane[i].is_finite())?, name)))
    }

    /// Reserve capacity in every field.
    fn reserve(&mut self, n: usize) {
        for lane in self.lanes_mut() {
            lane.reserve(n);
        }
        self.neighbor_count.reserve(n);
        self.rung.reserve(n);
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True if the set holds no particles.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Append one particle with position, velocity, mass, smoothing length and
    /// internal energy; derived fields start at zero.
    #[allow(clippy::too_many_arguments)]
    pub fn push(&mut self, x: f64, y: f64, z: f64, vx: f64, vy: f64, vz: f64, m: f64, h: f64, u: f64) {
        self.x.push(x);
        self.y.push(y);
        self.z.push(z);
        self.vx.push(vx);
        self.vy.push(vy);
        self.vz.push(vz);
        self.m.push(m);
        self.h.push(h);
        self.u.push(u);
        self.rho.push(0.0);
        self.p.push(0.0);
        self.c.push(0.0);
        self.omega.push(1.0);
        self.div_v.push(0.0);
        self.curl_v.push(0.0);
        self.alpha.push(1.0);
        self.ax.push(0.0);
        self.ay.push(0.0);
        self.az.push(0.0);
        self.du.push(0.0);
        self.neighbor_count.push(0);
        self.rung.push(0);
    }

    /// Total mass.
    pub(crate) fn total_mass(&self) -> f64 {
        self.m.iter().sum()
    }

    /// Total kinetic energy `Σ ½ m v²`.
    pub fn kinetic_energy(&self) -> f64 {
        (0..self.len())
            .map(|i| 0.5 * self.m[i] * (self.vx[i].powi(2) + self.vy[i].powi(2) + self.vz[i].powi(2)))
            .sum()
    }

    /// Total internal energy `Σ m u`.
    pub fn internal_energy(&self) -> f64 {
        (0..self.len()).map(|i| self.m[i] * self.u[i]).sum()
    }

    /// Axis-aligned bounding box `((xmin,ymin,zmin),(xmax,ymax,zmax))`.
    pub(crate) fn bounding_box(&self) -> ((f64, f64, f64), (f64, f64, f64)) {
        let mut min = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut max = (f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY);
        for i in 0..self.len() {
            min.0 = min.0.min(self.x[i]);
            min.1 = min.1.min(self.y[i]);
            min.2 = min.2.min(self.z[i]);
            max.0 = max.0.max(self.x[i]);
            max.1 = max.1.max(self.y[i]);
            max.2 = max.2.max(self.z[i]);
        }
        (min, max)
    }

    /// Apply the permutation `perm` to every field: after the call, slot `k`
    /// holds the particle that was previously at `perm[k]`. Used by the
    /// propagator to sort the storage into Morton order. The caller owns the
    /// scratch buffers, so a steady-state reorder performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `perm.len()` differs from the particle count (and, in debug
    /// builds, if `perm` is not a permutation of `0..len`).
    pub(crate) fn reorder_with(&mut self, perm: &[u32], scratch: &mut ReorderScratch) {
        let n = self.len();
        assert_eq!(perm.len(), n, "permutation length mismatch");
        scratch.f.resize(n, 0.0);
        scratch.u.resize(n, 0);
        #[cfg(debug_assertions)]
        {
            // Validate that `perm` is a permutation through the (about to be
            // overwritten) u32 scratch lane — no allocation even in debug.
            scratch.u.fill(0);
            for &p in perm {
                assert!(
                    std::mem::replace(&mut scratch.u[p as usize], 1) == 0,
                    "index {p} repeated in permutation"
                );
            }
        }
        for field in self.lanes_mut() {
            for (dst, &src) in scratch.f.iter_mut().zip(perm) {
                *dst = field[src as usize];
            }
            std::mem::swap(field, &mut scratch.f);
        }
        for (dst, &src) in scratch.u.iter_mut().zip(perm) {
            *dst = self.neighbor_count[src as usize];
        }
        std::mem::swap(&mut self.neighbor_count, &mut scratch.u);
        scratch.b.resize(n, 0);
        for (dst, &src) in scratch.b.iter_mut().zip(perm) {
            *dst = self.rung[src as usize];
        }
        std::mem::swap(&mut self.rung, &mut scratch.b);
    }

    /// Extract the particles at `indices` into a new set, copying the *full*
    /// per-particle state — every SoA lane, including accelerations, energy
    /// rates and the neighbour-count diagnostic. Used by the domain
    /// decomposition to shard, migrate and ghost particles without losing
    /// state mid-pipeline.
    pub fn gather(&self, indices: &[usize]) -> ParticleSet {
        let mut out = ParticleSet::with_capacity(indices.len());
        out.boundary = self.boundary;
        for &i in indices {
            out.push_copy_of(self, i);
        }
        out
    }

    /// Keep the particles at the ascending slots `keep`, moved down to slots
    /// `0..keep.len()` in that order — the set [`ParticleSet::gather`] would
    /// return, built in place lane by lane: no second set, no allocation.
    /// Used by migration to drop the particles that left the rank.
    pub(crate) fn retain_slots(&mut self, keep: &[usize]) {
        for lane in self.lanes_mut() {
            compact(lane, keep);
        }
        compact(&mut self.neighbor_count, keep);
        compact(&mut self.rung, keep);
    }

    /// Append a full copy of particle `i` of `src` (every SoA lane).
    pub fn push_copy_of(&mut self, src: &ParticleSet, i: usize) {
        for (lane, from) in self.lanes_mut().into_iter().zip(src.lanes()) {
            lane.push(from[i]);
        }
        self.neighbor_count.push(src.neighbor_count[i]);
        self.rung.push(src.rung[i]);
    }

    /// Shorten the set to its first `n` particles (every lane). No-op when the
    /// set is already at most `n` long. Used by the step driver to
    /// drop the ghost tail before rebuilding it.
    pub(crate) fn truncate(&mut self, n: usize) {
        for lane in self.lanes_mut() {
            lane.truncate(n);
        }
        self.neighbor_count.truncate(n);
        self.rung.truncate(n);
    }
}

/// Move `lane[keep[k]]` to slot `k` for every `k`, then cut the lane to
/// `keep.len()`. In place, because an ascending `keep` has `keep[k] ≥ k`: no
/// slot is read after it was overwritten. The leading slots that keep their
/// place are skipped.
pub(crate) fn compact<T: Copy>(lane: &mut Vec<T>, keep: &[usize]) {
    debug_assert!(keep.windows(2).all(|w| w[0] < w[1]), "kept slots must ascend");
    for (dst, &src) in keep.iter().enumerate().skip_while(|&(dst, &src)| dst == src) {
        lane[dst] = lane[src];
    }
    lane.truncate(keep.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ParticleSet {
        /// Verify that every field has the same length (structure invariant);
        /// the tests of every module that builds or reshapes a set hold it.
        pub(crate) fn is_consistent(&self) -> bool {
            let n = self.len();
            self.lanes().iter().all(|lane| lane.len() == n) && self.neighbor_count.len() == n && self.rung.len() == n
        }
    }

    fn sample_set() -> ParticleSet {
        let mut p = ParticleSet::with_capacity(4);
        p.push(0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 2.0, 0.1, 1.5);
        p.push(1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 3.0, 0.1, 0.5);
        p.push(0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 1.0, 0.1, 1.0);
        p
    }

    #[test]
    fn push_keeps_fields_consistent() {
        let p = sample_set();
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert!(p.is_consistent());
    }

    #[test]
    fn energies_and_mass() {
        let p = sample_set();
        assert!((p.total_mass() - 6.0).abs() < 1e-12);
        // KE = 0.5*(2*1 + 3*4 + 1*1) = 0.5*15 = 7.5
        assert!((p.kinetic_energy() - 7.5).abs() < 1e-12);
        // IE = 2*1.5 + 3*0.5 + 1*1 = 5.5
        assert!((p.internal_energy() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn bounding_box_covers_all() {
        let p = sample_set();
        let (min, max) = p.bounding_box();
        assert_eq!(min, (0.0, 0.0, 0.0));
        assert_eq!(max, (1.0, 1.0, 0.0));
    }

    #[test]
    fn gather_extracts_subset() {
        let p = sample_set();
        let sub = p.gather(&[2, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.x[0], 0.0);
        assert_eq!(sub.y[0], 1.0);
        assert_eq!(sub.m[1], 2.0);
        assert!(sub.is_consistent());
    }

    #[test]
    fn gather_copies_the_full_state() {
        let mut p = sample_set();
        p.ax = vec![1.0, 2.0, 3.0];
        p.du = vec![-0.1, 0.2, -0.3];
        p.alpha = vec![0.3, 0.6, 0.9];
        p.neighbor_count = vec![4, 5, 6];
        p.rung = vec![0, 1, 2];
        let sub = p.gather(&[1, 2]);
        assert_eq!(sub.ax, vec![2.0, 3.0]);
        assert_eq!(sub.du, vec![0.2, -0.3]);
        assert_eq!(sub.alpha, vec![0.6, 0.9]);
        assert_eq!(sub.neighbor_count, vec![5, 6]);
        assert_eq!(sub.rung, vec![1, 2]);
    }

    #[test]
    fn append_and_truncate_round_trip() {
        let mut p = sample_set();
        p.ax = vec![1.0, 2.0, 3.0];
        p.rung = vec![2, 0, 1];
        let q = p.clone();
        let extra = p.gather(&[0, 1]);
        for i in 0..extra.len() {
            p.push_copy_of(&extra, i);
        }
        assert_eq!(p.len(), 5);
        assert!(p.is_consistent());
        assert_eq!(p.ax[3], 1.0);
        assert_eq!(p.rung[3], 2);
        p.truncate(3);
        assert_eq!(p.len(), 3);
        assert!(p.is_consistent());
        assert_eq!(p.x, q.x);
        assert_eq!(p.ax, q.ax);
        assert_eq!(p.neighbor_count, q.neighbor_count);
        assert_eq!(p.rung, q.rung);
    }

    #[test]
    fn reorder_permutes_every_field() {
        let mut p = sample_set();
        p.neighbor_count = vec![5, 6, 7];
        p.rung = vec![1, 2, 3];
        p.rho = vec![1.0, 2.0, 3.0];
        let q = p.clone();
        p.reorder_with(&[2, 0, 1], &mut ReorderScratch::default());
        assert!(p.is_consistent());
        for (k, &src) in [2usize, 0, 1].iter().enumerate() {
            assert_eq!(p.x[k], q.x[src]);
            assert_eq!(p.vy[k], q.vy[src]);
            assert_eq!(p.m[k], q.m[src]);
            assert_eq!(p.rho[k], q.rho[src]);
            assert_eq!(p.u[k], q.u[src]);
            assert_eq!(p.neighbor_count[k], q.neighbor_count[src]);
            assert_eq!(p.rung[k], q.rung[src]);
        }
        // Applying the inverse permutation restores the original order.
        p.reorder_with(&[1, 2, 0], &mut ReorderScratch::default());
        assert_eq!(p.x, q.x);
        assert_eq!(p.neighbor_count, q.neighbor_count);
        assert_eq!(p.rung, q.rung);
    }

    #[test]
    #[should_panic(expected = "permutation length mismatch")]
    fn reorder_rejects_wrong_length() {
        let mut p = sample_set();
        p.reorder_with(&[0, 1], &mut ReorderScratch::default());
    }

    #[test]
    fn field_count_and_memory_bytes() {
        // 20 f64 lanes; the u32 neighbour count and the u8 rung are not lanes.
        assert_eq!(ParticleSet::lane_names().len(), 20);
    }

    #[test]
    fn first_non_finite_reads_the_named_lanes_of_the_given_rows_only() {
        let mut p = sample_set();
        for _ in 0..4 {
            p.push_copy_of(&sample_set(), 0);
        }
        let n = p.len();
        assert_eq!(p.first_non_finite(&ParticleSet::lane_names(), 0..n), None);
        p.vz[3] = f64::NAN;
        p.h[3] = f64::INFINITY;
        p.rho[1] = f64::NEG_INFINITY;
        // The first bad lane in declaration order wins, whatever its row and
        // whatever order the caller names the lanes in.
        assert_eq!(p.first_non_finite(&ParticleSet::lane_names(), 0..n), Some((3, "vz")));
        assert_eq!(p.first_non_finite(&["rho", "h"], 0..n), Some((3, "h")));
        assert_eq!(
            p.first_non_finite(&["rho", "du"], [0, 1, 4].into_iter()),
            Some((1, "rho"))
        );
        // Neither an unnamed lane nor an unlisted row is read.
        assert_eq!(p.first_non_finite(&["x", "du"], 0..n), None);
        assert_eq!(
            p.first_non_finite(&ParticleSet::lane_names(), [0, 2, 4].into_iter()),
            None
        );
    }

    #[test]
    fn empty_set_behaves() {
        let p = ParticleSet::default();
        assert!(p.is_empty());
        assert_eq!(p.total_mass(), 0.0);
        assert_eq!(p.kinetic_energy(), 0.0);
        assert!(p.is_consistent());
    }
}
