//! Reusable per-step buffers of the step driver's hot path.
//!
//! A step that builds its neighbour lists from scratch pays one `Vec` per
//! particle per step, and a gravity step a fresh octree node arena on top.
//! The [`StepWorkspace`] owns all of those buffers across steps (cell grid,
//! CSR neighbour lists and their build scratch, the octree arena of the
//! Gravity stage, Morton keys, sort permutation and reorder lanes, the
//! momentum kernel's prefactor lanes), so that after a warm-up step the whole
//! neighbour pipeline and every stage kernel perform zero heap allocations
//! (asserted by the `alloc_free_neighbors` integration test).

use crate::boundary::Boundary;
use crate::celllist::{find_neighbors_cells, CellGrid};
use crate::morton;
use crate::octree::Octree;
use crate::parallel::BlockRows;
use crate::particle::{ParticleSet, ReorderScratch};
use crate::physics::momentum::MomentumScratch;
use crate::physics::neighbors::{NeighborLists, NeighborScratch};

/// What the last [`StepWorkspace::find_neighbors`] call built — the telemetry
/// the step driver publishes each step.
#[derive(Clone, Copy, Debug, Default)]
pub struct NeighborBuildStats {
    /// Non-empty grid cells.
    pub occupied_cells: usize,
    /// Total grid cells.
    pub total_cells: usize,
    /// Mean particles per occupied cell. The grid is sized by the
    /// 99th-percentile `h`, so this climbs with `h_99 / h_min` — the gauge
    /// that shows a run leaving the range a uniform grid serves well
    /// (`crate::celllist`, "Limit").
    pub mean_occupancy: f64,
    /// CSR neighbour entries the build emitted: those of the rows it built,
    /// which on a rank with peers are owned rows only (ghost rows are empty).
    pub rows: usize,
    /// Candidates the build distance-tested: the packed slots of every run it
    /// scanned, over the rows it built. Exact, and the same at any thread
    /// count and on any SIMD tier.
    pub candidates: usize,
    /// Wide cells of the grid: cells holding a particle whose support spans
    /// more than one cell along some axis — one past the 99th-percentile `h`.
    pub wide_cells: usize,
    /// Far cells the rows built visited: entries of their cells' far lists
    /// past their own stencils, pruned or scanned.
    pub far_cells: usize,
}

/// The reusable buffers threaded through every stage of one timestep.
///
/// The fields the stage kernels of a step take are crate-visible so the step
/// driver can borrow them disjointly — the lists and row split shared, the
/// momentum lanes and the tree mutably — where the accessors would borrow the
/// whole workspace.
pub struct StepWorkspace {
    /// The node arena of the Gravity stage, which rebuilds it over its
    /// sources every (sub)step; no nodes before the first.
    pub(crate) tree: Octree,
    pub(crate) neighbors: NeighborLists,
    neighbor_scratch: NeighborScratch,
    grid: CellGrid,
    keys: Vec<u64>,
    perm: Vec<u32>,
    reorder_scratch: ReorderScratch,
    origin_scratch: Vec<u32>,
    pub(crate) interior_rows: Vec<u32>,
    pub(crate) halo_rows: Vec<u32>,
    pub(crate) momentum_scratch: MomentumScratch,
}

impl StepWorkspace {
    /// A fresh workspace; every buffer grows to its steady-state size during
    /// the first step it is used on.
    pub fn new() -> Self {
        Self {
            tree: Octree::empty(),
            neighbors: NeighborLists::default(),
            neighbor_scratch: NeighborScratch::new(),
            grid: CellGrid::new(),
            keys: Vec::new(),
            perm: Vec::new(),
            reorder_scratch: ReorderScratch::default(),
            origin_scratch: Vec::new(),
            interior_rows: Vec::new(),
            halo_rows: Vec::new(),
            momentum_scratch: MomentumScratch::default(),
        }
    }

    /// What the last [`StepWorkspace::find_neighbors`] call built.
    pub fn neighbor_build_stats(&self) -> NeighborBuildStats {
        NeighborBuildStats {
            occupied_cells: self.grid.occupied_cells(),
            total_cells: self.grid.total_cells(),
            mean_occupancy: self.grid.mean_occupancy(),
            rows: self.neighbors.total_entries(),
            candidates: self.neighbor_scratch.tally.candidates,
            wide_cells: self.grid.wide_cells(),
            far_cells: self.neighbor_scratch.tally.far_cells,
        }
    }

    /// The CSR neighbour lists of the current step (valid after
    /// [`StepWorkspace::find_neighbors`]).
    pub fn neighbors(&self) -> &NeighborLists {
        &self.neighbors
    }

    /// Build the CSR neighbour lists — re-bin the cell grid, sweep it — and
    /// record the per-particle neighbour counts in the same pass. Honours the
    /// particle set's [`Boundary`] (periodic boxes wrap the stencil and use
    /// minimum-image distances).
    ///
    /// Every particle is binned; rows are built for the first `n_rows` only.
    /// `rows = None` builds all of `0..n_rows` — every row of a lone rank
    /// (`n_rows = particles.len()`), the owned rows of a rank with peers
    /// (`n_rows = n_owned`). `Some(rows)` — a sorted subset of them, the
    /// active set of an individual-timestep substep — builds only those. The
    /// resulting lists still cover the full particle set (rows not built are
    /// zero-length), so every kernel keeps indexing by absolute particle id.
    pub fn find_neighbors(&mut self, particles: &mut ParticleSet, n_rows: usize, rows: Option<&[u32]>) {
        #[cfg(not(test))]
        self.grid.rebuild(particles);
        #[cfg(test)]
        let seam = tests::NEIGHBOR_SEAM.get();
        #[cfg(test)]
        match seam.quantile {
            Some(quantile) => self.grid.rebuild_sized_by(particles, quantile),
            None => self.grid.rebuild(particles),
        }
        find_neighbors_cells(
            particles,
            &self.grid,
            n_rows,
            rows,
            &mut self.neighbors,
            &mut self.neighbor_scratch,
        );
        #[cfg(test)]
        if seam.sorted_rows {
            for i in BlockRows::within(rows, 0..n_rows) {
                self.neighbors.row_mut(i).sort_unstable();
            }
        }
    }

    /// Split the owned rows `rows` (`None`: all of `0..n_owned`) of the
    /// current CSR lists into **interior** rows — referencing no slot at or
    /// past `n_owned` — and **halo** rows, which read at least one ghost. A
    /// rank with peers runs the momentum kernel over the interior rows
    /// while the mid-step ghost refresh is in flight and finishes the halo
    /// rows after it completes; the ghost rows themselves are in neither list
    /// — their owners compute them. Both buffers are reused across steps, so
    /// a warm call performs no heap allocation (part of the
    /// `alloc_free_neighbors` gate).
    pub fn partition_rows(&mut self, n_owned: usize, rows: Option<&[u32]>) {
        self.interior_rows.clear();
        self.halo_rows.clear();
        let n_rows = rows.map_or(n_owned, <[u32]>::len);
        self.interior_rows.reserve(n_rows);
        self.halo_rows.reserve(n_rows);
        for i in BlockRows::within(rows, 0..n_owned) {
            if self.neighbors.neighbors(i).iter().all(|&j| (j as usize) < n_owned) {
                self.interior_rows.push(i as u32);
            } else {
                self.halo_rows.push(i as u32);
            }
        }
    }

    /// Sort the particle storage into Morton (Z-order) order, so that grid
    /// cells and octree leaves — and therefore CSR neighbour rows — cover
    /// nearby memory.
    /// `origin` (the map `origin[current] = original` from storage slot to
    /// construction-order index) is permuted alongside, keeping
    /// externally-held indices resolvable across reorders.
    ///
    /// Keys anchor to the periodic box when the set's boundary is periodic
    /// (wrapped coordinates then key stably regardless of how the occupied
    /// volume breathes), and to the instantaneous bounding box otherwise.
    pub fn reorder_by_morton(&mut self, particles: &mut ParticleSet, origin: &mut Vec<u32>) {
        let n = particles.len();
        assert_eq!(origin.len(), n, "origin map out of sync with particle count");
        if n == 0 {
            return;
        }
        let (min, max) = match particles.boundary {
            Boundary::Periodic { box_min, box_max } => (box_min, box_max),
            Boundary::Open => particles.bounding_box(),
        };
        self.keys.clear();
        self.keys.reserve(n);
        for ((&x, &y), &z) in particles.x.iter().zip(&particles.y).zip(&particles.z) {
            self.keys.push(morton::encode_position((x, y, z), min, max));
        }
        self.perm.clear();
        self.perm.extend(0..n as u32);
        let keys = &self.keys;
        self.perm.sort_unstable_by_key(|&i| keys[i as usize]);
        particles.reorder_with(&self.perm, &mut self.reorder_scratch);
        self.origin_scratch.clear();
        self.origin_scratch.reserve(n);
        for &src in &self.perm {
            self.origin_scratch.push(origin[src as usize]);
        }
        std::mem::swap(origin, &mut self.origin_scratch);
    }
}

impl Default for StepWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::init::lattice_cube;
    use crate::physics::neighbors::find_neighbors;
    use std::cell::Cell;

    /// How the [`StepWorkspace::find_neighbors`] calls of a thread build
    /// their rows — the test seam of the reference runs in `distributed.rs`.
    #[derive(Clone, Copy, Debug, Default)]
    pub(crate) struct NeighborSeam {
        /// Size the grid by this quantile of `h` (`None`: as shipped).
        pub(crate) quantile: Option<f64>,
        /// Sort every row built, ascending.
        pub(crate) sorted_rows: bool,
        /// Sweep every build in this many blocks, at most one per requested
        /// row (`None`: as the size and the thread count decide).
        pub(crate) blocks: Option<usize>,
    }

    impl StepWorkspace {
        /// Capacity of each sweep block's slot between builds.
        pub(crate) fn staged_capacities(&self) -> Vec<usize> {
            self.neighbor_scratch.blocks.iter().map(|block| block.row.capacity()).collect()
        }
    }

    thread_local! {
        pub(crate) static NEIGHBOR_SEAM: Cell<NeighborSeam> = const {
            Cell::new(NeighborSeam { quantile: None, sorted_rows: false, blocks: None })
        };
    }

    #[test]
    fn workspace_pipeline_matches_the_allocating_path() {
        let mut a = lattice_cube(5, 1.0, 1.0, 1.2);
        let mut b = a.clone();
        let fresh = find_neighbors(&mut a);
        let mut ws = StepWorkspace::new();
        let n = b.len();
        ws.find_neighbors(&mut b, n, None);
        assert_eq!(ws.neighbors().offsets, fresh.offsets);
        assert_eq!(ws.neighbors().entries(), fresh.entries());
        assert_eq!(a.neighbor_count, b.neighbor_count);
    }

    #[test]
    fn morton_reorder_sorts_keys_and_tracks_origins() {
        let mut p = lattice_cube(4, 1.0, 1.0, 1.2);
        // Tag each particle through its internal energy so we can recognise it.
        for (i, u) in p.u.iter_mut().enumerate() {
            *u = i as f64 + 1.0;
        }
        let before = p.clone();
        let mut origin: Vec<u32> = (0..p.len() as u32).collect();
        let mut ws = StepWorkspace::new();
        ws.reorder_by_morton(&mut p, &mut origin);
        // Keys are non-decreasing after the sort.
        let (min, max) = p.bounding_box();
        let keys: Vec<u64> = (0..p.len())
            .map(|i| morton::encode_position((p.x[i], p.y[i], p.z[i]), min, max))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        // The origin map resolves every slot back to its construction index.
        for (current, &orig) in origin.iter().enumerate() {
            assert_eq!(p.u[current], before.u[orig as usize]);
            assert_eq!(p.x[current], before.x[orig as usize]);
        }
        // A second reorder keeps the composition correct.
        ws.reorder_by_morton(&mut p, &mut origin);
        for (current, &orig) in origin.iter().enumerate() {
            assert_eq!(p.u[current], before.u[orig as usize]);
        }
    }

    #[test]
    fn reorder_on_empty_set_is_a_noop() {
        let mut p = ParticleSet::default();
        let mut origin = Vec::new();
        let mut ws = StepWorkspace::new();
        ws.reorder_by_morton(&mut p, &mut origin);
        assert!(p.is_empty() && origin.is_empty());
    }
}
