//! Domain decomposition and halo determination.
//!
//! SPH-EXA decomposes the global particle set across ranks along the Morton
//! space-filling curve (Cornerstone octree), then exchanges *halo* particles —
//! particles owned by another rank but within interaction range of the local
//! domain — before every force computation. This module provides the domain
//! map the step driver shards by, and the exact decomposition and ghost-set
//! oracles its halo exchange is tested against.

use crate::boundary::{Boundary, MinImage};
use crate::kernels::KERNEL_SUPPORT;
use crate::morton;
use crate::particle::ParticleSet;

/// A Morton-range domain map shared by every rank of a distributed run.
///
/// The key space is anchored to a **fixed** bounding box (normally the box of
/// the initial conditions): positions that later drift outside are clamped by
/// the Morton encoding, so a particle's key — and therefore its owner — is a
/// pure function of its position and the map, never of which rank evaluates
/// it. `boundaries` has `n_ranks + 1` entries with `boundaries[0] = 0` and
/// `boundaries[n_ranks] = u64::MAX`; rank `r` owns the key range
/// `[boundaries[r], boundaries[r + 1])`.
#[derive(Clone, Debug, PartialEq)]
pub struct DomainMap {
    min: (f64, f64, f64),
    max: (f64, f64, f64),
    boundaries: Vec<u64>,
}

impl DomainMap {
    /// Build the map with equal-count splitters from the sorted Morton codes
    /// of `particles`. Deterministic: every rank that evaluates this over the
    /// same particle set derives the same map.
    ///
    /// The key space anchors to the particles' **periodic box** when their
    /// boundary is periodic (so wrapped coordinates key consistently — a
    /// particle crossing the wrap seam re-keys to the far end of the curve),
    /// and to the bounding box of the initial conditions otherwise.
    pub fn new(particles: &ParticleSet, n_ranks: usize) -> Self {
        assert!(n_ranks >= 1);
        let (min, max) = match particles.boundary {
            Boundary::Periodic { box_min, box_max } => (box_min, box_max),
            Boundary::Open => particles.bounding_box(),
        };
        let mut codes = morton::encode_all(&particles.x, &particles.y, &particles.z, min, max);
        codes.sort_unstable();
        let mut map = Self {
            min,
            max,
            boundaries: Vec::new(),
        };
        map.boundaries = Self::splitters(&codes, n_ranks);
        map
    }

    fn splitters(sorted_codes: &[u64], n_ranks: usize) -> Vec<u64> {
        let n = sorted_codes.len();
        let mut boundaries = Vec::with_capacity(n_ranks + 1);
        boundaries.push(0);
        for r in 1..n_ranks {
            boundaries.push(if n == 0 {
                u64::MAX
            } else {
                sorted_codes[r * n / n_ranks]
            });
        }
        boundaries.push(u64::MAX);
        boundaries
    }

    /// Number of ranks the map splits the key space across.
    pub fn n_ranks(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// The fixed bounding box anchoring the key space.
    pub fn bounds(&self) -> ((f64, f64, f64), (f64, f64, f64)) {
        (self.min, self.max)
    }

    /// The rank boundaries in Morton-key space (`n_ranks + 1` entries).
    pub fn boundaries(&self) -> &[u64] {
        &self.boundaries
    }

    /// Morton key of a position (clamped into the fixed box).
    pub fn code_of(&self, pos: (f64, f64, f64)) -> u64 {
        morton::encode_position(pos, self.min, self.max)
    }

    /// The rank owning a Morton key.
    pub fn owner_of_code(&self, code: u64) -> usize {
        let upper = &self.boundaries[1..self.boundaries.len() - 1];
        upper.partition_point(|&b| b <= code)
    }

    /// The rank owning a position.
    pub fn owner_of(&self, pos: (f64, f64, f64)) -> usize {
        self.owner_of_code(self.code_of(pos))
    }

    /// Recompute equal-count splitters from the *sorted* Morton codes of the
    /// current global particle distribution, keeping the fixed box. Every rank
    /// must call this with the same codes (e.g. after an allgather) so the
    /// rebalanced map stays identical across the world.
    pub fn rebalance(&mut self, sorted_codes: &[u64]) {
        debug_assert!(sorted_codes.windows(2).all(|w| w[0] <= w[1]), "codes must be sorted");
        self.boundaries = Self::splitters(sorted_codes, self.n_ranks());
    }
}

/// True when particles `i` and `j` interact: `r_ij ≤ 2·max(h_i, h_j)`,
/// evaluated with the same minimum-image squared-distance comparison the
/// neighbour search uses (so pairs across a periodic wrap seam count). This
/// is the pair relation the halo exchange must cover — it is symmetric by
/// construction, so ghost sets are symmetric across rank pairs.
pub fn pair_interacts(particles: &ParticleSet, i: usize, j: usize) -> bool {
    let mi = MinImage::of(&particles.boundary);
    let r2 = mi.dist_sq(
        particles.x[i] - particles.x[j],
        particles.y[i] - particles.y[j],
        particles.z[i] - particles.z[j],
    );
    let si = KERNEL_SUPPORT * particles.h[i];
    let sj = KERNEL_SUPPORT * particles.h[j];
    r2 <= si * si || r2 <= sj * sj
}

/// The exact ghost set `G(a → b)`: particles owned by rank `a` that interact
/// with at least one particle owned by rank `b` (in `b`'s row order — i.e.
/// sorted by `a`'s owned order). Symmetric across pairs in the sense that
/// every interacting cross-rank pair `(i, j)` puts `i` into `G(a → b)` *and*
/// `j` into `G(b → a)` — the invariant the decomposition tests pin down.
// sphlint::allow(dead-pub, the reference halo tests/distributed.rs checks ghost sets against)
pub fn exact_ghosts(particles: &ParticleSet, owned: &[Vec<usize>], a: usize, b: usize) -> Vec<usize> {
    let mut out = Vec::new();
    if a == b {
        return out;
    }
    for &i in &owned[a] {
        if owned[b].iter().any(|&j| pair_interacts(particles, i, j)) {
            out.push(i);
        }
    }
    out
}

/// The result of decomposing a particle set across ranks.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// Owned particle indices per rank (into the original global set).
    pub owned: Vec<Vec<usize>>,
    /// Morton-code boundaries between ranks (length = ranks + 1).
    pub boundaries: Vec<u64>,
}

impl Decomposition {
    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.owned.len()
    }

    /// Total number of particles assigned.
    pub fn total_particles(&self) -> usize {
        self.owned.iter().map(|o| o.len()).sum()
    }
}

/// Decompose `particles` across `n_ranks` by splitting the Morton-sorted order
/// into (near-)equal contiguous chunks — the space-filling-curve partitioning
/// used by Cornerstone.
// sphlint::allow(dead-pub, the reference decomposition of tests/distributed.rs)
pub fn decompose(particles: &ParticleSet, n_ranks: usize) -> Decomposition {
    assert!(n_ranks >= 1);
    let n = particles.len();
    let (min, max) = particles.bounding_box();
    let codes = morton::encode_all(&particles.x, &particles.y, &particles.z, min, max);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| codes[i]);

    let mut owned: Vec<Vec<usize>> = vec![Vec::new(); n_ranks];
    let mut boundaries = Vec::with_capacity(n_ranks + 1);
    boundaries.push(0u64);
    for (rank_idx, owned_rank) in owned.iter_mut().enumerate() {
        let start = rank_idx * n / n_ranks;
        let end = (rank_idx + 1) * n / n_ranks;
        owned_rank.extend_from_slice(&order[start..end]);
        let boundary_code = if end < n { codes[order[end]] } else { u64::MAX };
        boundaries.push(boundary_code);
    }
    Decomposition { owned, boundaries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_particles(n: usize, seed: u64) -> ParticleSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = ParticleSet::with_capacity(n);
        for _ in 0..n {
            p.push(
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
                0.0,
                0.0,
                0.0,
                1.0 / n as f64,
                0.05,
                1.0,
            );
        }
        p
    }

    #[test]
    fn decomposition_partitions_all_particles() {
        let p = random_particles(1000, 1);
        let d = decompose(&p, 7);
        assert_eq!(d.n_ranks(), 7);
        assert_eq!(d.total_particles(), 1000);
        let mut seen = vec![false; 1000];
        for owned in &d.owned {
            for &i in owned {
                assert!(!seen[i], "particle {i} owned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn decomposition_is_balanced() {
        let p = random_particles(4096, 2);
        let d = decompose(&p, 8);
        let largest = d.owned.iter().map(Vec::len).max().unwrap();
        assert!(largest as f64 <= 1.01 * 512.0, "largest rank owns {largest}");
        assert_eq!(d.boundaries.len(), 9);
    }

    #[test]
    fn ranks_own_spatially_compact_regions() {
        let p = random_particles(2000, 3);
        let d = decompose(&p, 4);
        // The average intra-rank pairwise distance should be clearly smaller
        // than the global average (locality of the space-filling curve).
        let spread = |indices: &[usize]| -> f64 {
            let n = indices.len().min(100);
            let mut sum = 0.0;
            let mut count = 0.0;
            for a in 0..n {
                for b in (a + 1)..n {
                    let i = indices[a];
                    let j = indices[b];
                    sum += ((p.x[i] - p.x[j]).powi(2) + (p.y[i] - p.y[j]).powi(2) + (p.z[i] - p.z[j]).powi(2)).sqrt();
                    count += 1.0;
                }
            }
            sum / count
        };
        let global: Vec<usize> = (0..2000).collect();
        let global_spread = spread(&global);
        let rank_spread = spread(&d.owned[0]);
        assert!(rank_spread < global_spread, "{rank_spread} !< {global_spread}");
    }

    #[test]
    fn single_rank_has_no_halos() {
        let p = random_particles(200, 6);
        let d = decompose(&p, 1);
        assert_eq!(d.owned[0].len(), 200);
        assert!(exact_ghosts(&p, &d.owned, 0, 0).is_empty());
    }

    #[test]
    fn domain_map_is_deterministic_and_balanced() {
        let p = random_particles(4000, 11);
        let map = DomainMap::new(&p, 8);
        assert_eq!(map.n_ranks(), 8);
        assert_eq!(
            map,
            DomainMap::new(&p, 8),
            "map must be a pure function of the particle set"
        );
        assert_eq!(map.boundaries().len(), 9);
        assert!(map.boundaries().windows(2).all(|w| w[0] <= w[1]));
        let mut counts = [0usize; 8];
        for i in 0..p.len() {
            counts[map.owner_of((p.x[i], p.y[i], p.z[i]))] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 4000);
        let mean = 4000.0 / 8.0;
        assert!(counts.iter().all(|&c| (c as f64) < 1.2 * mean && (c as f64) > 0.8 * mean));
    }

    #[test]
    fn domain_map_clamps_escaped_positions() {
        let p = random_particles(100, 12);
        let map = DomainMap::new(&p, 4);
        // A particle far outside the fixed box still has a well-defined owner:
        // the first or last rank, depending on the side it escaped to.
        assert_eq!(map.owner_of((-100.0, -100.0, -100.0)), 0);
        assert_eq!(map.owner_of((100.0, 100.0, 100.0)), 3);
    }

    #[test]
    fn rebalance_restores_equal_counts() {
        let p = random_particles(2000, 13);
        let mut map = DomainMap::new(&p, 4);
        // Squash everything into one octant: the old splitters become badly
        // unbalanced for the squashed distribution.
        let squashed: Vec<(f64, f64, f64)> = (0..p.len()).map(|i| (p.x[i] * 0.3, p.y[i] * 0.3, p.z[i] * 0.3)).collect();
        let count_for = |m: &DomainMap| {
            let mut counts = [0usize; 4];
            for &pos in &squashed {
                counts[m.owner_of(pos)] += 1;
            }
            counts
        };
        let before = count_for(&map);
        assert!(
            *before.iter().max().unwrap() > 700,
            "squashing should unbalance: {before:?}"
        );
        let mut codes: Vec<u64> = squashed.iter().map(|&pos| map.code_of(pos)).collect();
        codes.sort_unstable();
        map.rebalance(&codes);
        let after = count_for(&map);
        assert!(
            after.iter().all(|&c| (400..=600).contains(&c)),
            "rebalance should roughly equalise: {after:?}"
        );
    }

    #[test]
    fn exact_ghost_sets_cover_every_cross_rank_interaction() {
        let p = random_particles(800, 14);
        let d = decompose(&p, 2);
        let g01 = exact_ghosts(&p, &d.owned, 0, 1);
        let g10 = exact_ghosts(&p, &d.owned, 1, 0);
        assert!(!g01.is_empty() && !g10.is_empty());
        assert!(exact_ghosts(&p, &d.owned, 1, 1).is_empty());
        for &i in &d.owned[0] {
            for &j in &d.owned[1] {
                if pair_interacts(&p, i, j) {
                    assert!(g01.contains(&i));
                    assert!(g10.contains(&j));
                }
            }
        }
    }
}
