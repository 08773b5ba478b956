//! Neighbour lists (`FindNeighbors` stage): the CSR container, the build
//! scratch, the tail of the build and an allocating helper.
//!
//! Neighbour lists are stored in CSR (compressed sparse row) form — global
//! per-particle `offsets` into the rows laid back to back — instead of a
//! `Vec<Vec<usize>>`, which cost one heap allocation (and several growth
//! reallocations) per particle per step. There is one builder, the cell-list
//! sweep of [`crate::celllist`]: each worker emits the rows of its block —
//! already the *symmetric union* `{ j : r ≤ 2h_i or r ≤ 2h_j }`, so every
//! interacting pair appears in both rows, which is what makes the
//! pairwise-antisymmetric momentum kernel conserve total momentum to
//! round-off — into a segment of the lists, lent to it for the sweep,
//! recording the row sizes and the `neighbor_count` diagnostic on the way;
//! `finish_csr` then prefix-sums the sizes into `offsets` and takes the
//! segments back. Every entry is held once, in one segment per sweep block,
//! with no concatenation at any thread count.
//! The entries of a row that lie outside the `2h` support of the row's own
//! particle leave the gather-type kernels (density, grad-h, IAD) untouched:
//! their kernel terms vanish there by compact support.
//!
//! All buffers live in a [`NeighborScratch`] (owned by
//! [`crate::workspace::StepWorkspace`]); after a warm-up step the whole stage
//! performs zero heap allocations (asserted by the sphsim
//! `alloc_free_neighbors` integration test).

use crate::celllist::{find_neighbors_cells, CellGrid};
use crate::parallel::BlockRows;
use crate::particle::ParticleSet;

/// Per-particle neighbour lists in CSR (compressed sparse row) form, the rows
/// held in one [`Segment`] per sweep block of the last build.
#[derive(Clone, Debug, Default)]
pub struct NeighborLists {
    /// `offsets[i] .. offsets[i + 1]` is the range of the neighbours of
    /// particle `i` in the segments laid back to back (`len() + 1` entries,
    /// monotone, starting at 0).
    pub offsets: Vec<u32>,
    /// The rows, in ascending runs: segment `s` holds the rows from its
    /// `first_row` up to the next live segment's, so a row never straddles two
    /// segments and the segments back to back are every row in order. Row
    /// `i` holds the particles within `2 h_i` of particle `i` (including `i`
    /// itself) plus any particle `j` whose own support `2 h_j` reaches `i`, so
    /// that `j ∈ N(i) ⟺ i ∈ N(j)`.
    ///
    /// Every index must be `< len()`. The pair kernels check this once per
    /// `LANE_WIDTH`-wide chunk of a row, not per read, and
    /// panic on a chunk that breaks it.
    pub segments: Vec<Segment>,
}

/// A run of consecutive rows of [`NeighborLists`], back to back.
#[derive(Clone, Debug, Default)]
pub struct Segment {
    /// The first row the segment holds; every segment after the first starts
    /// at a higher row. `u32::MAX` marks a spare: an empty segment past the
    /// last build's blocks, which keeps its buffer for a build with more.
    pub first_row: u32,
    /// Offset of the segment's first entry in the rows back to back.
    pub base: u32,
    /// The entries of the segment's rows.
    pub entries: Vec<u32>,
}

impl NeighborLists {
    /// Number of particles covered.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// True if no particle is covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The neighbours of particle `i` (including `i` itself).
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        let (s, range) = self.locate(i);
        &self.segments[s].entries[range]
    }

    /// Row `i`'s segment and its range there: the last segment starting at
    /// or before the row (with one segment, one compare).
    #[inline]
    fn locate(&self, i: usize) -> (usize, std::ops::Range<usize>) {
        let mut s = 0;
        while self.segments.get(s + 1).is_some_and(|next| next.first_row as usize <= i) {
            s += 1;
        }
        let base = self.segments[s].base;
        let (start, end) = (self.offsets[i] - base, self.offsets[i + 1] - base);
        (s, start as usize..end as usize)
    }

    /// Row `i`, writable — for a test seam that reorders rows.
    #[cfg(test)]
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [u32] {
        let (s, range) = self.locate(i);
        &mut self.segments[s].entries[range]
    }

    /// Every row in order, back to back.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> Vec<u32> {
        (0..self.len()).flat_map(|i| self.neighbors(i)).copied().collect()
    }

    /// Number of neighbours of particle `i` (including `i` itself).
    pub fn count(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Total number of stored neighbour entries.
    pub fn total_entries(&self) -> usize {
        self.offsets.last().map_or(0, |&end| end as usize)
    }
}

/// Reusable buffers of the CSR neighbour-list build: what the sweep workers of
/// [`crate::celllist::find_neighbors_cells`] stage and `finish_csr` folds
/// into the lists. "Requested row" `k` is particle `k` of a full build, the
/// `k`-th listed row of a subset build.
#[derive(Debug, Default)]
pub struct NeighborScratch {
    /// Size of each requested row (the symmetric union set).
    pub(crate) counts: Vec<u32>,
    /// Neighbours of each requested row within its **own** `2h` support, self
    /// excluded — the `neighbor_count` diagnostic.
    pub(crate) diag: Vec<u32>,
    /// One slot per sweep block: a worker gathers the rows of its block, back
    /// to back, into segment `t` of the lists, lent to slot `t` for the sweep
    /// and taken back by `finish_csr`. Between builds no slot holds a buffer.
    pub(crate) blocks: Vec<StagedBlock>,
    /// What the last build counted, over every block.
    pub(crate) tally: SweepTally,
}

impl NeighborScratch {
    /// Fresh (empty) scratch; buffers grow to steady-state size on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// What one sweep worker writes as it goes: its rows and its tallies.
/// Each block's slot sits on cache lines of its own: the `Vec` header of the
/// rows is written on every run the worker scans (the length, by every
/// candidate on the portable path), so headers sharing a line would have the
/// workers invalidate each other's copy of it all through the sweep.
#[repr(align(128))]
#[derive(Debug, Default)]
pub(crate) struct StagedBlock {
    /// The block's rows, back to back: the entries of the lists' segment of
    /// the same index, lent for the sweep (empty between builds).
    pub(crate) row: Vec<u32>,
    /// What the block's rows counted.
    pub(crate) tally: SweepTally,
}

/// The work of a sweep, counted row by row — so a sum over rows, the same at
/// any block split and on any SIMD tier.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SweepTally {
    /// Packed slots distance-tested: the lengths of the runs scanned.
    pub(crate) candidates: usize,
    /// Far-list entries visited past the rows' stencils.
    pub(crate) far_cells: usize,
}

/// Tail of the CSR build: fold what the sweep gathered for the requested
/// `rows` (`None`: every row of `0..n_rows`; `Some`: an ascending list) in
/// blocks of `chunk` requested rows into `out`, which covers the **full**
/// particle set either way — rows not requested come out zero-length, so
/// every kernel keeps indexing by absolute particle id — and write the
/// diagnostic of the requested rows into `neighbor_count` (one slot per
/// particle; the other slots are left alone). Every slot's buffer goes back
/// to the segment it was lent from, and nothing is copied: the requested rows
/// ascend and so do the blocks, so segment `t` holds block `t`'s rows and
/// starts at its first row (segment 0 at row 0, which also covers the rows
/// before the first requested one). Segments past the blocks are spares.
pub(crate) fn finish_csr(
    out: &mut NeighborLists,
    scratch: &mut NeighborScratch,
    n_rows: usize,
    rows: Option<&[u32]>,
    chunk: usize,
    neighbor_count: &mut [u32],
) {
    let n = neighbor_count.len();
    out.offsets.clear();
    out.offsets.resize(n + 1, 0);
    // Each row's size goes into the slot behind the row, then an inclusive
    // prefix sum turns sizes into offsets.
    for ((i, &count), &own) in BlockRows::within(rows, 0..n_rows).zip(&scratch.counts).zip(&scratch.diag) {
        out.offsets[i + 1] = count;
        neighbor_count[i] = own;
    }
    let mut acc = 0u64;
    for off in &mut out.offsets[1..] {
        acc += *off as u64;
        *off = acc as u32;
    }
    assert!(
        acc <= u32::MAX as u64,
        "neighbour entries exceed the u32 CSR offset range"
    );
    let blocks = scratch.counts.len().div_ceil(chunk);
    let staged = &scratch.blocks[..blocks];
    scratch.tally = SweepTally {
        candidates: staged.iter().map(|b| b.tally.candidates).sum(),
        far_cells: staged.iter().map(|b| b.tally.far_cells).sum(),
    };
    let mut base = 0u32;
    for (t, (segment, block)) in out.segments.iter_mut().zip(&mut scratch.blocks).enumerate() {
        segment.entries = std::mem::take(&mut block.row);
        segment.first_row = match (t, rows) {
            (0, _) => 0,
            _ if t >= blocks => u32::MAX,
            (_, None) => (t * chunk) as u32,
            (_, Some(list)) => list[t * chunk],
        };
        segment.base = base;
        base += segment.entries.len() as u32;
    }
    debug_assert_eq!(base as u64, acc, "the segments do not cover the CSR index range");
}

/// Find all neighbours of every particle (and record the per-particle
/// neighbour counts in `particles.neighbor_count`). Allocating convenience
/// wrapper — fresh grid, lists and scratch per call — for tests and one-off
/// callers; the step driver goes through
/// [`crate::workspace::StepWorkspace::find_neighbors`], which reuses them
/// across steps and produces the identical lists.
pub fn find_neighbors(particles: &mut ParticleSet) -> NeighborLists {
    let mut grid = CellGrid::new();
    grid.rebuild(particles);
    let mut out = NeighborLists::default();
    let n = particles.len();
    find_neighbors_cells(particles, &grid, n, None, &mut out, &mut NeighborScratch::new());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::lattice_cube;

    /// The sorted subset `rows` of `p` through a fresh grid, lists and scratch.
    fn find_neighbor_rows(p: &mut ParticleSet, rows: &[u32]) -> NeighborLists {
        let mut grid = CellGrid::new();
        grid.rebuild(p);
        let mut out = NeighborLists::default();
        let n = p.len();
        find_neighbors_cells(p, &grid, n, Some(rows), &mut out, &mut NeighborScratch::new());
        out
    }

    #[test]
    fn lattice_particles_have_symmetric_neighbour_counts() {
        let mut p = lattice_cube(6, 1.0, 1.0, 1.2);
        let nl = find_neighbors(&mut p);
        assert_eq!(nl.len(), p.len());
        assert!(!nl.is_empty());
        // Interior particles of a uniform lattice should have tens of neighbours.
        let others = nl.total_entries() - nl.len();
        assert!(others > 10 * nl.len(), "{others} neighbours over {} rows", nl.len());
        // Every row contains the particle itself.
        assert!((0..p.len()).all(|i| nl.neighbors(i).contains(&(i as u32))));
    }

    #[test]
    fn csr_offsets_are_monotone_and_cover_the_indices() {
        let mut p = lattice_cube(5, 1.0, 1.0, 1.2);
        let nl = find_neighbors(&mut p);
        assert_eq!(nl.offsets[0], 0);
        assert!(nl.offsets.windows(2).all(|w| w[0] <= w[1]));
        let held: usize = nl.segments.iter().map(|s| s.entries.len()).sum();
        assert_eq!(*nl.offsets.last().unwrap() as usize, held);
        assert_eq!(nl.total_entries(), held);
        // The recorded diagnostic matches the rows (self excluded).
        assert!((0..p.len()).all(|i| p.neighbor_count[i] as usize == nl.count(i) - 1));
    }

    #[test]
    fn reusing_the_scratch_reproduces_a_fresh_build() {
        let mut p = lattice_cube(5, 1.0, 1.0, 1.2);
        let fresh = find_neighbors(&mut p);
        // Warm the buffers on a different problem, then rebuild.
        let mut warm = ParticleSet::with_capacity(2);
        warm.push(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.1, 1.0);
        warm.push(0.05, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.1, 1.0);
        let mut grid = CellGrid::new();
        let mut out = NeighborLists::default();
        let mut scratch = NeighborScratch::new();
        grid.rebuild(&warm);
        find_neighbors_cells(&mut warm, &grid, 2, None, &mut out, &mut scratch);
        grid.rebuild(&p);
        let n = p.len();
        find_neighbors_cells(&mut p, &grid, n, None, &mut out, &mut scratch);
        assert_eq!(out.offsets, fresh.offsets);
        assert_eq!(out.entries(), fresh.entries());
    }

    #[test]
    fn rows_are_symmetrised_for_nonuniform_h() {
        use crate::kernels::KERNEL_SUPPORT;
        let mut p = lattice_cube(5, 1.0, 1.0, 1.2);
        // Perturb the smoothing lengths so plenty of pairs are one-sided
        // (inside 2h of one particle but outside 2h of the other).
        for (i, h) in p.h.iter_mut().enumerate() {
            *h *= 1.0 + 0.6 * ((i % 7) as f64) / 7.0;
        }
        let nl = find_neighbors(&mut p);
        let in_support = |i: usize, j: usize, h: f64| {
            let dx = p.x[i] - p.x[j];
            let dy = p.y[i] - p.y[j];
            let dz = p.z[i] - p.z[j];
            let s = KERNEL_SUPPORT * h;
            dx * dx + dy * dy + dz * dz <= s * s
        };
        let mut one_sided_pairs = 0usize;
        for i in 0..p.len() {
            // Membership is symmetric.
            for &j in nl.neighbors(i) {
                assert!(
                    nl.neighbors(j as usize).contains(&(i as u32)),
                    "asymmetric pair ({i}, {j})"
                );
            }
            // Each row is exactly { j : r ≤ 2h_i or r ≤ 2h_j }, with no duplicates.
            let mut got: Vec<u32> = nl.neighbors(i).to_vec();
            got.sort_unstable();
            got.dedup();
            assert_eq!(got.len(), nl.count(i), "row {i} contains duplicates");
            let expected: Vec<u32> = (0..p.len())
                .filter(|&j| in_support(i, j, p.h[i]) || in_support(i, j, p.h[j]))
                .map(|j| j as u32)
                .collect();
            assert_eq!(got, expected, "row {i} does not match the symmetric support set");
            // The diagnostic keeps counting only the own-support neighbours.
            let own = (0..p.len()).filter(|&j| j != i && in_support(i, j, p.h[i])).count();
            assert_eq!(p.neighbor_count[i] as usize, own);
            one_sided_pairs += nl.count(i) - 1 - own;
        }
        assert!(one_sided_pairs > 0, "perturbed h should produce one-sided pairs");
    }

    #[test]
    fn periodic_lattice_has_uniform_neighbour_counts() {
        // On an exact lattice in a periodic box every particle is equivalent
        // by translation symmetry: face and corner particles must see exactly
        // as many neighbours as interior ones (the open-box build gives the
        // corner particle ~1/8 of the interior count).
        let mut p = lattice_cube(6, 1.0, 1.0, 1.2);
        p.boundary = crate::boundary::Boundary::unit_box();
        let nl = find_neighbors(&mut p);
        let c0 = nl.count(0);
        assert!(
            (0..p.len()).all(|i| nl.count(i) == c0),
            "periodic lattice neighbour counts are not uniform"
        );
        // And membership stays symmetric across the wrap seam.
        for i in 0..p.len() {
            for &j in nl.neighbors(i) {
                assert!(nl.neighbors(j as usize).contains(&(i as u32)));
            }
        }
        // The same lattice without the wrap has depleted corners.
        let mut open = lattice_cube(6, 1.0, 1.0, 1.2);
        let open_nl = find_neighbors(&mut open);
        assert!(open_nl.count(0) < c0, "open corner should see fewer neighbours");
    }

    #[test]
    fn isolated_particle_has_only_itself() {
        let mut p = ParticleSet::with_capacity(2);
        p.push(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.01, 1.0);
        p.push(10.0, 10.0, 10.0, 0.0, 0.0, 0.0, 1.0, 0.01, 1.0);
        let nl = find_neighbors(&mut p);
        assert_eq!(nl.neighbors(0), &[0]);
        assert_eq!(p.neighbor_count[0], 0);
    }

    #[test]
    fn subset_rows_match_the_full_build_as_sets() {
        // Non-uniform h so one-sided pairs exist: the subset union test must
        // reproduce exactly the full builder's symmetrised row sets.
        let mut p = lattice_cube(5, 1.0, 1.0, 1.2);
        for (i, h) in p.h.iter_mut().enumerate() {
            *h *= 1.0 + 0.6 * ((i % 7) as f64) / 7.0;
        }
        let mut q = p.clone();
        let full = find_neighbors(&mut q);
        let rows: Vec<u32> = (0..p.len() as u32).filter(|i| i % 3 != 1).collect();
        p.neighbor_count.fill(u32::MAX); // sentinel: off-subset slots untouched
        let out = find_neighbor_rows(&mut p, &rows);
        assert_eq!(out.len(), p.len());
        let mut cursor = 0usize;
        for i in 0..p.len() {
            if cursor < rows.len() && rows[cursor] as usize == i {
                cursor += 1;
                let mut got: Vec<u32> = out.neighbors(i).to_vec();
                got.sort_unstable();
                let mut want: Vec<u32> = full.neighbors(i).to_vec();
                want.sort_unstable();
                assert_eq!(got, want, "subset row {i} differs from the full build");
                assert_eq!(p.neighbor_count[i], q.neighbor_count[i], "diagnostic of row {i}");
            } else {
                assert_eq!(out.count(i), 0, "off-subset row {i} must be empty");
                assert_eq!(p.neighbor_count[i], u32::MAX, "off-subset diagnostic {i} touched");
            }
        }
    }

    #[test]
    fn periodic_subset_rows_cross_the_wrap_seam() {
        let mut p = lattice_cube(6, 1.0, 1.0, 1.2);
        p.boundary = crate::boundary::Boundary::unit_box();
        let mut q = p.clone();
        let full = find_neighbors(&mut q);
        // Corner particle 0 has seam-crossing neighbours under the wrap.
        let rows: Vec<u32> = vec![0, 3, 7];
        let out = find_neighbor_rows(&mut p, &rows);
        for &i in &rows {
            let i = i as usize;
            let mut got: Vec<u32> = out.neighbors(i).to_vec();
            got.sort_unstable();
            let mut want: Vec<u32> = full.neighbors(i).to_vec();
            want.sort_unstable();
            assert_eq!(got, want, "periodic subset row {i}");
        }
    }

    #[test]
    fn empty_subset_builds_all_empty_rows() {
        let mut p = lattice_cube(4, 1.0, 1.0, 1.2);
        let out = find_neighbor_rows(&mut p, &[]);
        assert_eq!(out.len(), p.len());
        assert!(out.segments.iter().all(|s| s.entries.is_empty()));
        assert!((0..p.len()).all(|i| out.count(i) == 0));
    }

    #[test]
    fn empty_set_builds_an_empty_csr() {
        let mut p = ParticleSet::default();
        let nl = find_neighbors(&mut p);
        assert!(nl.is_empty());
        assert_eq!(nl.offsets, vec![0]);
        assert!(nl.segments.iter().all(|s| s.entries.is_empty()));
    }
}
