//! Cell-list neighbour search — the one CSR builder of `FindNeighbors`.
//!
//! Particles are binned into a uniform grid whose cell side is at least the
//! interaction radius `r = KERNEL_SUPPORT · h` of the bulk of the set — the
//! 99th percentile of `h` (`BULK_QUANTILE`), not its maximum, wherever that
//! grid is substantially finer than the one `h_max` sizes
//! (`MIN_REFINEMENT`) — so every neighbour of a bulk particle lives in the
//! 27-cell stencil around its own cell and the per-particle query is a flat
//! sweep over a handful of packed coordinate runs — no tree descent.
//!
//! The sweep emits the *final symmetric* CSR rows in a single pass: row `i`
//! holds every `j` with `d² ≤ r_i²` **or** `d² ≤ r_j²`, so one union test per
//! candidate yields rows with `j ∈ N(i) ⟺ i ∈ N(j)`, provided the row scans
//! every cell such a `j` can sit in. Every candidate of every set takes that
//! test, bit-uniform `h` included: the sweep is compiled once per boundary
//! and SIMD tier, nothing more. The row's stencil covers its own support: the
//! 27 cells for a bulk row, `2K + 1` cells per axis for a row of the tail
//! whose support spans `K > 1` cells. It covers every `r_j` of the
//! bulk too, which fits in one cell; for the tail's, [`CellGrid::rebuild`]
//! links each cell to its **far wide cells** — the cells at Chebyshev offset
//! ≥ 2 whose longest support (`cell_pr2_max`) can reach its slab, each with
//! its offset and so its image. After its stencil a row visits the far cells
//! of its own cell that lie beyond that stencil, through the same prune and
//! the same run scanner, in list order. Membership is decided by the
//! expression the pair kernels evaluate, `dx² + dy² + dz²` of the
//! minimum-image displacement — but which image a candidate is seen through
//! is a property of its *stencil cell*, not of the pair, so the sweep never
//! calls [`crate::boundary::MinImage`]: a stencil cell reached by wrapping
//! around a periodic axis carries the image shift `±L` of that axis, and the
//! scan subtracts it from the raw displacement, `(p_j − x_i) − s`. That is
//! the value `MinImage::map` returns (`dx − L · round(dx / L)`, with `L · ±1`
//! exact) whenever the pair is within reach, and negating both operands
//! negates it exactly, so a pair gets the same `d²`, hence the same verdict,
//! from both of its rows. The `celllist_equivalence` suite holds the rows to
//! a brute-force O(n²) `MinImage::dist_sq` union test on every
//! scenario and on boxes with 1, 2, 3 and more cells per axis.
//!
//! The grid anchors to the periodic box when the set's boundary is periodic —
//! whose positions must then lie inside `[box_min, box_max)`, which
//! [`CellGrid::rebuild`] checks — and to the bounding box otherwise. All
//! buffers are owned by the grid and reused across steps: after a warm-up
//! step both the rebuild and the CSR emit are allocation-free (covered by the
//! `alloc_free_neighbors` counting-allocator gate).
//!
//! **Limit.** The grid is uniform and sized by the bulk of `h`, so the
//! candidates a row scans grow with `(h_q / h_i)³` where the small-`h`
//! particles sit. That helps a set with a few *wide* particles, such as the
//! rarefied centre of a Sedov blast: they scan their own larger stencils and
//! reach the bulk rows through the far lists, where a grid sized by `h_max`
//! made every row scan cells sized for them. It does not help a set with a few
//! *narrow* ones, such as the collapsing core of an Evrard sphere, whose bulk
//! sits at the top of the range. Measured on that collapse with the `h_max`
//! grid (README "Limits"), a uniform grid stays ahead of an adaptive tree
//! query up to `h_max / h_min` ≈ 18 and falls behind past it — a state no
//! test, experiment or benchmark reaches. The step driver's
//! `health.cell_occupancy` gauge (mean particles per occupied cell) shows a
//! run drifting there, and `health.neighbor_candidates` what the sweep
//! tested.

use crate::boundary::Boundary;
use crate::kernels::KERNEL_SUPPORT;
use crate::parallel::{simd_tier, worker_threads, BlockRows, SimdTier};
use crate::particle::ParticleSet;
use crate::physics::neighbors::{finish_csr, NeighborLists, NeighborScratch, StagedBlock, SweepTally};

/// Below this many requested rows the sweep stays on the calling thread: a
/// spawn costs more than the rows, and the serial path is the one the
/// allocation gate covers.
const SERIAL_CUTOFF: usize = 256;

/// Safety margin on the minimum cell side, so ulp-level rounding in the
/// binning arithmetic can never push a true neighbour out of the stencil.
const SIDE_MARGIN: f64 = 1.0 + 1e-9;

/// The quantile of the smoothing lengths whose support sizes the cells
/// (module docs). Swept on the cycle-start states of a Sedov run (N = 64 000,
/// seed 7, 4 dt bins), full builds at 1 thread, best of 7, ms, on a 2-vCPU
/// Intel Xeon (Sapphire Rapids, AVX-512); `1` is the grid sized by `h_max`:
///
/// | quantile | t = 0.0016 | 0.0116 | 0.0426 | 0.0635 |
/// |---|---|---|---|---|
/// | 0.9 | 29.4 | 30.0 | 37.0 | 41.7 |
/// | 0.97 | 31.5 | 31.7 | 38.0 | 42.4 |
/// | **0.99** | 30.5 | 31.8 | 35.7 | 40.1 |
/// | 0.999 | 34.4 | 32.5 | 43.5 | 54.1 |
/// | 1 | 33.4 | 41.6 | 94.0 | 95.2 |
const BULK_QUANTILE: f64 = 0.99;

/// How many times the cells of the grid sized by `h_max` the grid sized by
/// the bulk quantile must have to replace it. Where it is only one cell finer
/// per axis, its 27-cell scans save less than the tail's wider stencils and
/// far cells cost: on the Turb shards of a two-rank run (N = 64 000, 1 thread
/// per rank) a 16³ grid in place of 15³ (1.21×) took the full build from
/// 14.2–14.5 to 14.5–16.9 ms. Evrard at t ≈ 0.21 (8³ → 9³, 1.42×) read
/// 14.4 → 14.2 ms and the coarsest Sedov state above (10³ → 12³, 1.73×)
/// 29.6–30.7 → 29.1–29.9 ms, even; from 8³ → 12³ (3.4×) on it wins, 41.4 →
/// 31.8 ms.
const MIN_REFINEMENT: f64 = 1.5;

/// A far wide cell of some cell `C` (module docs): a cell at Chebyshev
/// offset ≥ 2 from `C` holding a support that can reach `C`'s slab.
#[derive(Clone, Copy, Debug, Default)]
struct FarCell {
    /// The wide cell's index.
    cell: u32,
    /// Its offset from `C` in cells per axis. The offset fixes the image the
    /// cell is seen through on a periodic axis: `C + offset` wrapped.
    offset: [i32; 3],
}

/// A uniform spatial grid over the particle set, rebuilt once per (sub)step
/// and swept by [`find_neighbors_cells`]. Owns every buffer it needs
/// (counting-sort arrays, packed per-entry coordinates, the far lists), so
/// steady-state rebuilds allocate nothing.
#[derive(Debug, Default)]
pub struct CellGrid {
    /// Grid dimensions (cells per axis).
    dims: (usize, usize, usize),
    /// Lower corner the binning anchors to (periodic box min, or bounding
    /// box min for open sets).
    lo: (f64, f64, f64),
    /// Inverse cell side per axis (`0` on a degenerate axis).
    inv_cell: (f64, f64, f64),
    /// Periodic box edge per axis — the image shift of a stencil cell reached
    /// by wrapping (unread on open sets).
    edge: (f64, f64, f64),
    /// CSR cell starts into `entries` (`total_cells + 1` entries).
    starts: Vec<u32>,
    /// Counting-sort write cursors (scratch, one per cell).
    cursor: Vec<u32>,
    /// Cell index of each particle (scratch, one per particle).
    cell_of: Vec<u32>,
    /// Particle indices grouped by cell (counting-sort output).
    entries: Vec<u32>,
    /// Packed coordinates in `entries` order, so the sweep reads them as
    /// contiguous runs instead of gathering through `entries`.
    px: Vec<f64>,
    py: Vec<f64>,
    pz: Vec<f64>,
    /// Packed squared support radius `(KERNEL_SUPPORT · h_j)²` in `entries`
    /// order — the expression a row squares for its own particle, so a pair
    /// gets the same verdict from both of its rows.
    pr2: Vec<f64>,
    /// Max of `pr2` over each cell's entries (`0` for empty cells): the
    /// largest reach *into* the cell any of its particles has, used to prune
    /// whole stencil cells that can touch neither `r_i` nor any `r_j`.
    cell_pr2_max: Vec<f64>,
    /// `(KERNEL_SUPPORT · h_q)²` of the bulk quantile `h_q`: a row at or
    /// under it reaches no further than the adjacent cells.
    bulk_pr2: f64,
    /// Number of wide cells after the last rebuild.
    wide: usize,
    /// CSR starts of each cell's far list into `far` (`total_cells + 1`
    /// entries; empty when `far` is).
    far_starts: Vec<u32>,
    /// The far wide cells of every cell, cell by cell.
    far: Vec<FarCell>,
    /// Number of non-empty cells after the last rebuild.
    occupied: usize,
}

impl CellGrid {
    /// Fresh (empty) grid; buffers grow to steady-state size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of grid cells after the last rebuild.
    pub fn total_cells(&self) -> usize {
        self.dims.0 * self.dims.1 * self.dims.2
    }

    /// Number of non-empty cells after the last rebuild.
    pub(crate) fn occupied_cells(&self) -> usize {
        self.occupied
    }

    /// Mean particles per *occupied* cell after the last rebuild.
    pub(crate) fn mean_occupancy(&self) -> f64 {
        if self.occupied == 0 {
            0.0
        } else {
            self.entries.len() as f64 / self.occupied as f64
        }
    }

    /// Number of wide cells after the last rebuild: cells holding a particle
    /// whose support spans more than one cell along some axis (module docs).
    pub fn wide_cells(&self) -> usize {
        self.wide
    }

    /// Re-bin the particle set into the grid: any set, at any `h_max / h_min`
    /// (module docs, "Limit"). The cells are sized by the support of the
    /// 99th-percentile `h` where that grid has at least 1.5× the cells of the
    /// one `h_max` sizes, by `h_max` otherwise, and each cell is linked to its
    /// far wide cells. An axis of zero extent — a single particle, coincident
    /// or coplanar particles — gets one cell. An empty set leaves an empty
    /// grid.
    ///
    /// # Panics
    ///
    /// Panics, naming the first offending particle, when a smoothing length is
    /// not positive and finite — no grid can be sized by it, and a kernel
    /// upstream has gone wrong — or when a position of a periodic set lies
    /// outside `[box_min, box_max)`: the sweep sees a wrapped stencil cell
    /// through one image, which is only the nearest one for wrapped positions
    /// (the step driver wraps before `FindNeighbors`). Panics when
    /// `2 · KERNEL_SUPPORT · h_max` reaches a periodic box edge: the
    /// minimum-image convention is ambiguous there.
    pub fn rebuild(&mut self, particles: &ParticleSet) {
        self.rebuild_sized_by(particles, BULK_QUANTILE);
    }

    /// [`CellGrid::rebuild`] with `quantile` in place of the 99th percentile
    /// (`1.0`: the grid `h_max` sizes, where no cell is wide).
    pub(crate) fn rebuild_sized_by(&mut self, particles: &ParticleSet, quantile: f64) {
        let n = particles.len();
        if n == 0 {
            self.dims = (0, 0, 0);
            self.entries.clear();
            self.far.clear();
            self.wide = 0;
            self.occupied = 0;
            return;
        }
        let periodic_box = match particles.boundary {
            Boundary::Periodic { box_min, box_max } => Some((box_min, box_max)),
            Boundary::Open => None,
        };
        let mut h_max = 0.0f64;
        // The bounding box an open set's grid anchors to, in the same pass.
        let mut min = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut max = (f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY);
        for (i, &h) in particles.h.iter().enumerate() {
            let (x, y, z) = (particles.x[i], particles.y[i], particles.z[i]);
            assert!(
                h > 0.0 && h.is_finite(),
                "particle {i} of {n} has smoothing length h = {h}: the neighbour search needs every h positive \
                 and finite (pos=({x}, {y}, {z}))"
            );
            if let Some((lo, hi)) = periodic_box {
                let inside = (lo.0..hi.0).contains(&x) && (lo.1..hi.1).contains(&y) && (lo.2..hi.2).contains(&z);
                assert!(
                    inside,
                    "particle {i} of {n} sits at ({x}, {y}, {z}), outside the periodic box: the neighbour search \
                     needs a periodic set wrapped into [box_min, box_max) (`wrap_positions`)"
                );
            }
            h_max = h_max.max(h);
            min = (min.0.min(x), min.1.min(y), min.2.min(z));
            max = (max.0.max(x), max.1.max(y), max.2.max(z));
        }
        let (lo, extent) = match periodic_box {
            Some((box_min, box_max)) => {
                let edge = (box_max.0 - box_min.0, box_max.1 - box_min.1, box_max.2 - box_min.2);
                let min_edge = edge.0.min(edge.1).min(edge.2);
                assert!(
                    2.0 * KERNEL_SUPPORT * h_max < min_edge,
                    "interaction diameter {} reaches the periodic box edge {} — the minimum-image \
                     convention is ambiguous; shrink the smoothing length or grow the box",
                    2.0 * KERNEL_SUPPORT * h_max,
                    min_edge
                );
                (box_min, edge)
            }
            None => (min, (max.0 - min.0, max.1 - min.1, max.2 - min.2)),
        };
        // The grid the support of `h` sizes: cells of side at least
        // `KERNEL_SUPPORT · h`. Capped at O(n) cells: on very dilute sets
        // halve the largest dimension until the cell arrays stay proportional
        // to the particle count. Halving only *grows* cells, so the stencil
        // stays sufficient.
        let dims_for = |h: f64| {
            let side_min = KERNEL_SUPPORT * h * SIDE_MARGIN;
            let dim = |l: f64| ((l / side_min).floor() as usize).max(1);
            let (mut gx, mut gy, mut gz) = (dim(extent.0), dim(extent.1), dim(extent.2));
            while gx * gy * gz > 4 * n + 1024 {
                if gx >= gy && gx >= gz {
                    gx = (gx / 2).max(1);
                } else if gy >= gz {
                    gy = (gy / 2).max(1);
                } else {
                    gz = (gz / 2).max(1);
                }
            }
            (gx, gy, gz)
        };
        // The `⌈quantile · n⌉`-th smallest h, selected in `px`: the scatter
        // below refills every slot of it. It sizes the grid only where that
        // grid is at least `MIN_REFINEMENT` times finer than the one `h_max`
        // sizes; `h_max` sizes it otherwise.
        let k = ((quantile * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.px.clear();
        self.px.extend_from_slice(&particles.h);
        let h_q = *self.px.select_nth_unstable_by(k, f64::total_cmp).1;
        let cells = |(gx, gy, gz): (usize, usize, usize)| (gx * gy * gz) as f64;
        let (q_dims, max_dims) = (dims_for(h_q), dims_for(h_max));
        let (h_q, (gx, gy, gz)) = if cells(q_dims) >= MIN_REFINEMENT * cells(max_dims) {
            (h_q, q_dims)
        } else {
            (h_max, max_dims)
        };
        let bulk_support = KERNEL_SUPPORT * h_q;
        self.bulk_pr2 = bulk_support * bulk_support;
        let inv = |l: f64, g: usize| {
            let cell = l / g as f64;
            if cell > 0.0 {
                1.0 / cell
            } else {
                0.0
            }
        };
        self.dims = (gx, gy, gz);
        self.lo = lo;
        self.inv_cell = (inv(extent.0, gx), inv(extent.1, gy), inv(extent.2, gz));
        self.edge = extent;

        // Counting sort: bin, prefix-sum (counting occupied cells), scatter.
        let total = gx * gy * gz;
        self.cell_of.resize(n, 0);
        self.starts.clear();
        self.starts.resize(total + 1, 0);
        for i in 0..n {
            let ((cx, cy, cz), _) = self.cell_coords(particles.x[i], particles.y[i], particles.z[i]);
            let c = (cz * gy + cy) * gx + cx;
            self.cell_of[i] = c as u32;
            self.starts[c + 1] += 1;
        }
        self.occupied = 0;
        for c in 0..total {
            self.occupied += usize::from(self.starts[c + 1] > 0);
            self.starts[c + 1] += self.starts[c];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..total]);

        // Scatter index, packed coordinates and squared support into the cell's
        // next slot: a cell's slots fill, and its maximum folds, in particle order.
        self.entries.resize(n, 0);
        self.px.resize(n, 0.0);
        self.py.resize(n, 0.0);
        self.pz.resize(n, 0.0);
        self.pr2.resize(n, 0.0);
        self.cell_pr2_max.clear();
        self.cell_pr2_max.resize(total, 0.0);
        for (i, &c) in self.cell_of.iter().enumerate() {
            let c = c as usize;
            let slot = self.cursor[c] as usize;
            self.cursor[c] += 1;
            self.entries[slot] = i as u32;
            self.px[slot] = particles.x[i];
            self.py[slot] = particles.y[i];
            self.pz[slot] = particles.z[i];
            let support = KERNEL_SUPPORT * particles.h[i];
            self.pr2[slot] = support * support;
            self.cell_pr2_max[c] = self.cell_pr2_max[c].max(self.pr2[slot]);
        }
        self.link_far_cells(periodic_box.is_some());
    }

    /// Build the far lists: count each cell's links, prefix-sum, fill. A
    /// cell's list comes out in wide-cell order, and per wide cell in offset
    /// order; a cell that holds no particle — hence no row — gets none.
    fn link_far_cells(&mut self, periodic: bool) {
        let (bulk_pr2, inv_cell) = (self.bulk_pr2, self.inv_cell);
        let wide = |r2: f64| wide_reach(r2, bulk_pr2, inv_cell).is_some();
        self.wide = self.cell_pr2_max.iter().filter(|&&r2| wide(r2)).count();
        self.far.clear();
        self.far_starts.clear();
        if self.wide == 0 {
            return;
        }
        let links = FarLinks {
            dims: self.dims,
            inv_cell: self.inv_cell,
            starts: &self.starts,
            cell_pr2_max: &self.cell_pr2_max,
            bulk_pr2,
            periodic,
        };
        let total = self.starts.len() - 1;
        self.far_starts.resize(total + 1, 0);
        links.for_each(|c, _| self.far_starts[c + 1] += 1);
        for c in 0..total {
            self.far_starts[c + 1] += self.far_starts[c];
        }
        self.far.resize(self.far_starts[total] as usize, FarCell::default());
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.far_starts[..total]);
        links.for_each(|c, link| {
            self.far[self.cursor[c] as usize] = link;
            self.cursor[c] += 1;
        });
        if self.far.is_empty() {
            self.far_starts.clear();
        }
    }

    /// Per-axis cell coordinates of a position, clamped into the grid, plus
    /// the in-cell fractional position per axis (cell units, relative to the
    /// *returned* index), from which the sweep derives lower-bound distances
    /// to the adjacent stencil slabs. Where the index was clamped — outside an
    /// open grid, or a position one ulp below a periodic `box_max` whose
    /// quotient rounds up to the cell count — the fraction runs out of
    /// `[0, 1)`; the gap arithmetic tolerates that (negative gaps clamp to
    /// zero).
    #[inline]
    #[allow(clippy::type_complexity)] // a coordinate triple and its fractions
    fn cell_coords(&self, xi: f64, yi: f64, zi: f64) -> ((usize, usize, usize), (f64, f64, f64)) {
        let axis = |v: f64, lo: f64, inv: f64, g: usize| -> (usize, f64) {
            let tf = (v - lo) * inv;
            // Truncation: `floor` wherever the clamp keeps its result (either
            // sends a negative quotient to cell 0), minus the baseline's libm call.
            let idx = (tf as i64).clamp(0, g as i64 - 1);
            (idx as usize, tf - idx as f64)
        };
        let (cx, fx) = axis(xi, self.lo.0, self.inv_cell.0, self.dims.0);
        let (cy, fy) = axis(yi, self.lo.1, self.inv_cell.1, self.dims.1);
        let (cz, fz) = axis(zi, self.lo.2, self.inv_cell.2, self.dims.2);
        ((cx, cy, cz), (fx, fy, fz))
    }
}

/// What [`CellGrid::link_far_cells`] reads of the grid, borrowed apart from
/// the far lists it writes.
struct FarLinks<'a> {
    dims: (usize, usize, usize),
    inv_cell: (f64, f64, f64),
    starts: &'a [u32],
    cell_pr2_max: &'a [f64],
    bulk_pr2: f64,
    periodic: bool,
}

impl FarLinks<'_> {
    /// Every link of a cell `C` to a far wide cell `W`, as `link(C, far)`:
    /// `W` at Chebyshev offset ≥ 2 from `C` (nearer cells are in every
    /// stencil), within `W`'s reach along each axis, with the slab gap
    /// between the two cells inside `W`'s longest support, and `C` not empty.
    /// Wide cells in index order, offsets `z`, `y`, `x` ascending.
    fn for_each(&self, mut link: impl FnMut(usize, FarCell)) {
        let (gx, gy, gz) = self.dims;
        let side = |inv: f64| if inv > 0.0 { 1.0 / inv } else { 0.0 };
        let sides = [side(self.inv_cell.0), side(self.inv_cell.1), side(self.inv_cell.2)];
        // The slab gap between two cells `d` apart along an axis.
        let gap = |d: i64, side: f64| (d.abs() - 1).max(0) as f64 * side;
        for (w, &pr2) in self.cell_pr2_max.iter().enumerate() {
            let Some([kx, ky, kz]) = wide_reach(pr2, self.bulk_pr2, self.inv_cell) else {
                continue;
            };
            // The cells within W's reach are `W + e`; W is `d = −e` away from
            // each. Walking `e` down walks `d` up.
            let axis = |c: usize, g: usize| RowAxis::new(c, g, 0.0, 0.0, 0.0);
            let (ax, ay, az) = (axis(w % gx, gx), axis(w / gx % gy, gy), axis(w / (gx * gy), gz));
            for ez in az.span(kz, self.periodic).rev() {
                let (cz, dz) = (az.cell(ez).0, -ez);
                for ey in ay.span(ky, self.periodic).rev() {
                    let (cy, dy) = (ay.cell(ey).0, -ey);
                    let gap_zy = gap(dz, sides[2]).powi(2) + gap(dy, sides[1]).powi(2);
                    for ex in ax.span(kx, self.periodic).rev() {
                        let dx = -ex;
                        if dx.abs().max(dy.abs()).max(dz.abs()) < 2
                            || (gap_zy + gap(dx, sides[0]).powi(2)) * PRUNE_SLACK > pr2
                        {
                            continue;
                        }
                        let c = (cz * gy + cy) * gx + ax.cell(ex).0;
                        if self.starts[c] < self.starts[c + 1] {
                            let offset = [dx as i32, dy as i32, dz as i32];
                            link(c, FarCell { cell: w as u32, offset });
                        }
                    }
                }
            }
        }
    }
}

/// The reach of a *wide* support of squared radius `r2` — one spanning more
/// than one cell along some axis of a grid of inverse cell sides `inv_cell`
/// — in cells per axis: the stencil that covers it. `None` for a support
/// that is not wide, which no support at or under the bulk's (`bulk_pr2`)
/// is. The one rule for a wide row and a wide cell.
#[inline]
fn wide_reach(r2: f64, bulk_pr2: f64, inv_cell: (f64, f64, f64)) -> Option<[i64; 3]> {
    if r2 <= bulk_pr2 {
        return None;
    }
    let r = r2.sqrt();
    let k = |inv: f64| ((r * inv * SIDE_MARGIN).ceil() as i64).max(1);
    let reach = [k(inv_cell.0), k(inv_cell.1), k(inv_cell.2)];
    (reach != [1; 3]).then_some(reach)
}

/// Conservative shrink applied to the squared cell-gap lower bound before
/// the prune comparison, so ulp-level rounding in the gap arithmetic can
/// never discard a cell holding a true boundary-distance neighbour.
const PRUNE_SLACK: f64 = 1.0 - 1e-9;

/// Candidate-scan batch width: distances for this many packed slots are
/// computed branch-free into a stack buffer before the accept loop runs, so
/// the compiler can vectorise the arithmetic over the contiguous SoA runs.
const SCAN_LANES: usize = 8;

/// One axis of the grid seen from cell `c` as offsets `d`: what a row's
/// stencil and far cells are on it, and what [`FarLinks`] walks around a
/// wide cell. A periodic axis of one or two cells names a cell more than
/// once, each time through a different image: `2 · KERNEL_SUPPORT · h_max <
/// L` (asserted by `rebuild`) lets a candidate pass through at most one, so
/// a row still holds no duplicate.
#[derive(Clone, Copy)]
struct RowAxis {
    /// The cell seen from.
    c: i64,
    /// Cells on the axis.
    g: i64,
    /// The row's in-cell fraction ([`CellGrid::cell_coords`]).
    frac: f64,
    /// Cell side (`0` on a degenerate axis disables the gap bound).
    side: f64,
    /// Periodic box edge.
    edge: f64,
}

impl RowAxis {
    /// Cell `c` of an axis of `g` cells, the row's in-cell fraction there,
    /// the cell side and the periodic edge.
    #[inline]
    fn new(c: usize, g: usize, frac: f64, side: f64, edge: f64) -> Self {
        let (c, g) = (c as i64, g as i64);
        Self { c, g, frac, side, edge }
    }

    /// Lower bound on the axis distance from the row's position to the slab
    /// of the cell `d` away (`0` for its own cell).
    #[inline]
    fn gap(self, d: i64) -> f64 {
        let gap = if d < 0 {
            (self.frac + (-d - 1) as f64) * self.side
        } else if d > 0 {
            ((1.0 - self.frac) + (d - 1) as f64) * self.side
        } else {
            0.0
        };
        gap.max(0.0)
    }

    /// The cell `d` away, wrapped onto the axis, and the image it is seen
    /// through: `+1` where it wrapped below cell 0, `−1` where it wrapped
    /// past the last cell (its shift is `image · L`). `|d| ≤ g`, so it wraps
    /// at most once: a reach is at most `g` cells on a periodic axis, where
    /// every support is under half the edge, and stays inside an open one.
    #[inline]
    fn cell(self, d: i64) -> (usize, i64) {
        let t = self.c + d;
        debug_assert!((-self.g..2 * self.g).contains(&t), "offset {d} wraps twice");
        let image = (t < 0) as i64 - (t >= self.g) as i64;
        ((t + image * self.g) as usize, image)
    }

    /// The offsets a stencil of reach `k` visits: all of `−k..=k` on a
    /// periodic axis, those inside the grid on an open one.
    #[inline]
    fn span(self, k: i64, periodic: bool) -> std::ops::RangeInclusive<i64> {
        if periodic {
            -k..=k
        } else {
            (-k).max(-self.c)..=k.min(self.g - 1 - self.c)
        }
    }

    /// The stencil of a bulk row on this axis: the offsets `−1, 0, +1` of
    /// [`RowAxis::span`]`(1)`, tabulated. The gaps are [`RowAxis::gap`]`(±1)`
    /// in closed form: through its branches the table cost the full build
    /// ≈ 1 ms more.
    #[inline(always)]
    fn adjacent(self, periodic: bool) -> Adjacent {
        let mut a = Adjacent::default();
        for (d, gap) in [
            (-1, self.frac * self.side),
            (0, 0.0),
            (1, (1.0 - self.frac) * self.side),
        ] {
            let (cell, image) = self.cell(d);
            if image != 0 && !periodic {
                continue;
            }
            (a.cell[a.len], a.gap[a.len], a.shift[a.len]) = (cell, gap.max(0.0), image as f64 * self.edge);
            a.len += 1;
        }
        a
    }

    /// The stencil of a tail row of reach `k` on this axis, evaluated on
    /// demand.
    #[inline]
    fn reach(self, k: i64, periodic: bool) -> Reach {
        let span = self.span(k, periodic);
        let len = (span.end() - span.start() + 1) as usize;
        Reach {
            axis: self,
            first: *span.start(),
            len,
        }
    }
}

/// One axis of a row's stencil as entries `0..len()`, in ascending offset
/// order: each a cell, the lower bound on the axis distance from the row to
/// its slab, and the image shift it is seen through (`0`, `+L` where the
/// offset wrapped below cell 0, `−L` where it wrapped past the last cell).
/// [`scan_stencil`] walks either source: a bulk row tabulates its three
/// cells per axis once ([`Adjacent`]), a tail row evaluates its `2K + 1` on
/// demand ([`Reach`]). Evaluated on demand, the bulk rows' nine x-walks took
/// a full build from 29.1 to 33.0 ms (Sedov, N = 64 000, global dt, t ≈
/// 0.002, 1 thread, 2-vCPU Intel Xeon with AVX-512) and `sedov_global` 2.9 %
/// slower in 8 of 10 benchmark pairs.
trait StencilAxis {
    /// Entries on the axis.
    fn len(&self) -> usize;
    /// Cell, gap and image shift of entry `k`.
    fn entry(&self, k: usize) -> (usize, f64, f64);
}

/// The stencil of a bulk row along one axis ([`RowAxis::adjacent`]).
#[derive(Default)]
struct Adjacent {
    cell: [usize; 3],
    gap: [f64; 3],
    shift: [f64; 3],
    /// Offsets visited (an open axis drops the out-of-range ones).
    len: usize,
}

impl StencilAxis for Adjacent {
    #[inline(always)]
    fn len(&self) -> usize {
        self.len
    }

    #[inline(always)]
    fn entry(&self, k: usize) -> (usize, f64, f64) {
        (self.cell[k], self.gap[k], self.shift[k])
    }
}

/// The stencil of a tail row along one axis ([`RowAxis::reach`]): `len`
/// offsets from `first`.
struct Reach {
    axis: RowAxis,
    first: i64,
    len: usize,
}

impl StencilAxis for Reach {
    #[inline(always)]
    fn len(&self) -> usize {
        self.len
    }

    #[inline(always)]
    fn entry(&self, k: usize) -> (usize, f64, f64) {
        let d = self.first + k as i64;
        let (cell, image) = self.axis.cell(d);
        (cell, self.axis.gap(d), image as f64 * self.axis.edge)
    }
}

/// Sweep worker: emit the final symmetric CSR row of every particle of
/// `block` into `staged.row`, back to back, recording each union row size in
/// `counts`, each own-support neighbour count (self excluded) in `diag` and
/// the block's candidates and far-cell visits in `staged`. The block is a
/// contiguous particle range (full build) or a slice of an ascending row
/// list (subset build — the active rows of an individual-timestep substep).
/// A row scans its stencil ([`scan_stencil`]): 27 cells for a bulk row,
/// wider for a tail row, whose support spans more than one cell along some
/// axis; then it visits the far cells of its cell ([`scan_far_cells`]).
///
/// The sweep is compiled once per boundary and SIMD tier. `PERIODIC` only
/// gates the three image-shift subtractions of the scan, so the open
/// instruction stream carries none: with the subtraction of a zero shift in
/// every open scan instead, `sedov_global` took 1.5 % longer (5.445 → 5.529
/// s, 2 of 10 benchmark pairs lower, seeds 5001–5010, a 2-vCPU Intel Xeon
/// with AVX-512).
#[inline(always)] // must inline into the AVX2 wrapper to compile at that width
fn gather_cell_rows<const PERIODIC: bool>(
    grid: &CellGrid,
    p: &ParticleSet,
    block: BlockRows<'_>,
    counts: &mut [u32],
    diag: &mut [u32],
    staged: &mut StagedBlock,
    avx512: bool,
) {
    let row = &mut staged.row;
    row.clear();
    let mut tally = SweepTally::default();
    let (gx, gy, gz) = grid.dims;
    let cell_side = |inv: f64| if inv > 0.0 { 1.0 / inv } else { 0.0 };
    let (csx, csy, csz) = (
        cell_side(grid.inv_cell.0),
        cell_side(grid.inv_cell.1),
        cell_side(grid.inv_cell.2),
    );
    for ((i, count), diag) in block.zip(counts.iter_mut()).zip(diag.iter_mut()) {
        let (xi, yi, zi) = (p.x[i], p.y[i], p.z[i]);
        let radius = KERNEL_SUPPORT * p.h[i];
        let ri2 = radius * radius;
        let ((cx, cy, cz), (fx, fy, fz)) = grid.cell_coords(xi, yi, zi);
        let before = row.len();
        let wide = wide_reach(ri2, grid.bulk_pr2, grid.inv_cell);
        let reach = wide.unwrap_or([1; 3]);
        let axes = [
            RowAxis::new(cx, gx, fx, csx, grid.edge.0),
            RowAxis::new(cy, gy, fy, csy, grid.edge.1),
            RowAxis::new(cz, gz, fz, csz, grid.edge.2),
        ];
        let at = [xi, yi, zi];
        let mut own = if wide.is_some() {
            scan_tail_stencil::<PERIODIC>(grid, at, axes, reach, ri2, row, avx512, &mut tally)
        } else {
            // Spelled out: `axes.map(..)` compiled to a call per axis per row.
            let [x, y, z] = [
                axes[0].adjacent(PERIODIC),
                axes[1].adjacent(PERIODIC),
                axes[2].adjacent(PERIODIC),
            ];
            scan_stencil::<PERIODIC, _>(grid, at, &x, &y, &z, ri2, row, avx512, &mut tally)
        };
        if !grid.far.is_empty() {
            let c = (cz * gy + cy) * gx + cx;
            let links = &grid.far[grid.far_starts[c] as usize..grid.far_starts[c + 1] as usize];
            if !links.is_empty() {
                own += scan_far_cells::<PERIODIC>(grid, at, axes, reach, ri2, links, row, avx512, &mut tally);
            }
        }
        *count = (row.len() - before) as u32;
        *diag = own.saturating_sub(1);
    }
    staged.tally = tally;
}

/// Scan a row's stencil, given one [`StencilAxis`] per axis: the 27 cells of
/// a bulk row, `2K + 1` cells along an axis a tail row's support spans `K`
/// cells of ([`wide_reach`]); an open axis drops those past the grid.
/// Scanned z, y, x ascending. Returns the own-support hits, self included;
/// adds the candidates it scanned to `tally`.
#[inline(always)] // every row takes it: keep it in the SIMD-tier instantiation
#[allow(clippy::too_many_arguments)] // the row, its stencil and the block's tallies
fn scan_stencil<const PERIODIC: bool, A: StencilAxis>(
    grid: &CellGrid,
    at: [f64; 3],
    sx: &A,
    sy: &A,
    sz: &A,
    ri2: f64,
    row: &mut Vec<u32>,
    avx512: bool,
    tally: &mut SweepTally,
) -> u32 {
    let (gx, gy) = (grid.dims.0, grid.dims.1);
    let mut own = 0;
    for kz in 0..sz.len() {
        let (cz, gap_z, shz) = sz.entry(kz);
        for ky in 0..sy.len() {
            let (cy, gap_y, shy) = sy.entry(ky);
            let base = (cz * gy + cy) * gx;
            let gap_zy = gap_z * gap_z + gap_y * gap_y;
            // Cell prune: the gaps lower-bound the distance from the row to
            // any point of stencil cell `k` of this x-row (exact geometric
            // slab gaps, valid under index wrapping because the stencil cell
            // *is* the geometrically adjacent slab). If even that bound
            // exceeds both `r_i` and the longest reach of the cell's own
            // particles, no candidate in it can pass the union test. The
            // slack keeps the bound conservative against rounding in the gap
            // arithmetic.
            let pruned = |k: usize| {
                let (cell, gap_x, _) = sx.entry(k);
                (gap_zy + gap_x * gap_x) * PRUNE_SLACK > ri2.max(grid.cell_pr2_max[base + cell])
            };
            let mut k = 0;
            while k < sx.len() {
                // x-adjacent stencil cells seen through the same image are
                // one contiguous run of packed slots: scan them as one, so
                // the row pays one remainder per run, not per cell. The prune
                // trims the run's ends (a pruned cell left inside a run holds
                // no candidate that passes).
                let shx = sx.entry(k).2;
                let (mut first, mut end) = (k, k + 1);
                while end < sx.len() && sx.entry(end).2 == shx {
                    end += 1;
                }
                k = end;
                while first < end && pruned(first) {
                    first += 1;
                }
                while first < end && pruned(end - 1) {
                    end -= 1;
                }
                if first == end {
                    continue;
                }
                let s = grid.starts[base + sx.entry(first).0] as usize;
                let e = grid.starts[base + sx.entry(end - 1).0 + 1] as usize;
                tally.candidates += e - s;
                own += scan_run::<PERIODIC>(grid, s, e, at, [shx, shy, shz], ri2, row, avx512);
            }
        }
    }
    own
}

/// [`scan_stencil`] of a tail row of reach `reach`, out of line: about one
/// row in a hundred takes it, and inlined beside the bulk rows' instance it
/// cost their full build 1–2 ms (on the Sedov state of [`StencilAxis`]).
#[inline(never)]
#[allow(clippy::too_many_arguments)] // the row, its stencil and the block's tallies
fn scan_tail_stencil<const PERIODIC: bool>(
    grid: &CellGrid,
    at: [f64; 3],
    axes: [RowAxis; 3],
    reach: [i64; 3],
    ri2: f64,
    row: &mut Vec<u32>,
    avx512: bool,
    tally: &mut SweepTally,
) -> u32 {
    let [x, y, z] = [0, 1, 2].map(|a| axes[a].reach(reach[a], PERIODIC));
    scan_stencil::<PERIODIC, _>(grid, at, &x, &y, &z, ri2, row, avx512, tally)
}

/// The far cells of a row's cell (`links`) past its stencil of reach
/// `reach`, in list order, each through the prune of the stencil cells and
/// then the same run scanner. Returns the own-support hits (none: a far cell
/// lies past the row's support); adds the candidates it scanned and the far
/// cells it visited to `tally`.
#[inline(never)]
#[allow(clippy::too_many_arguments)] // the row, its stencil and the block's tallies
fn scan_far_cells<const PERIODIC: bool>(
    grid: &CellGrid,
    at: [f64; 3],
    [ax, ay, az]: [RowAxis; 3],
    reach: [i64; 3],
    ri2: f64,
    links: &[FarCell],
    row: &mut Vec<u32>,
    avx512: bool,
    tally: &mut SweepTally,
) -> u32 {
    let mut own = 0;
    for link in links {
        let [dx, dy, dz] = link.offset.map(i64::from);
        if dx.abs() <= reach[0] && dy.abs() <= reach[1] && dz.abs() <= reach[2] {
            continue; // in the row's stencil
        }
        tally.far_cells += 1;
        let w = link.cell as usize;
        let d2min = ax.gap(dx) * ax.gap(dx) + ay.gap(dy) * ay.gap(dy) + az.gap(dz) * az.gap(dz);
        if d2min * PRUNE_SLACK > ri2.max(grid.cell_pr2_max[w]) {
            continue;
        }
        let shift = if PERIODIC {
            let image = |axis: RowAxis, d: i64| axis.cell(d).1 as f64 * axis.edge;
            [image(ax, dx), image(ay, dy), image(az, dz)]
        } else {
            [0.0; 3]
        };
        let (s, e) = (grid.starts[w] as usize, grid.starts[w + 1] as usize);
        tally.candidates += e - s;
        own += scan_run::<PERIODIC>(grid, s, e, at, shift, ri2, row, avx512);
    }
    own
}

/// Candidate scan of the packed slots `s..e` — one run of cells seen through
/// the image `shift` — for the row at `at` with squared support `ri2`,
/// appending the accepted ids to `row` in slot order; returns the
/// own-support hits (self included). The displacement is taken in the
/// j − i direction and the cell's image shift subtracted from it; row j
/// evaluates the exact negation on this pair, so both rows reach the same
/// verdict. Every candidate takes the union test `d² ≤ r_i² || d² ≤ r_j²`:
/// where `h_j == h_i` bit for bit, `pr2[slot]` and `ri2` are the same
/// expression, so the union returns the own-support verdict. On AVX-512
/// hosts the distance test and the "pack accepted ids contiguously" step are
/// single instructions ([`scan_cells_avx512`]); the portable form batches the
/// distance arithmetic into lanes (contiguous packed runs, no data-dependent
/// branch), then pushes qualifying entries via a compaction store — push
/// unconditionally, then truncate away a reject — so the unpredictable accept
/// decision becomes a length update instead of a mispredicted branch.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // one run and the row it extends
fn scan_run<const PERIODIC: bool>(
    grid: &CellGrid,
    s: usize,
    e: usize,
    at: [f64; 3],
    shift: [f64; 3],
    ri2: f64,
    row: &mut Vec<u32>,
    avx512: bool,
) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if avx512 {
        // SAFETY: `avx512` is only true when runtime feature detection
        // reported AVX512F+VL+POPCNT on this CPU; `s..e` are cell starts, so
        // `e` is at most the length of the packed lanes.
        return unsafe { scan_cells_avx512::<PERIODIC>(grid, s, e, at, shift, ri2, row) };
    }
    let _ = avx512; // only read on x86_64
    let ([xi, yi, zi], [shx, shy, shz]) = (at, shift);
    let d2_at = |slot: usize| {
        let (mut dx, mut dy, mut dz) = (grid.px[slot] - xi, grid.py[slot] - yi, grid.pz[slot] - zi);
        if PERIODIC {
            (dx, dy, dz) = (dx - shx, dy - shy, dz - shz);
        }
        dx * dx + dy * dy + dz * dz
    };
    let mut own = 0u32;
    let mut accept = |slot: usize, d2: f64| {
        let in_own = d2 <= ri2;
        let keep = in_own || d2 <= grid.pr2[slot];
        let len = row.len();
        row.push(grid.entries[slot]);
        row.truncate(len + keep as usize);
        own += in_own as u32;
    };
    let mut ld2 = [0.0f64; SCAN_LANES];
    let mut slot = s;
    while slot + SCAN_LANES <= e {
        for (l, d2) in ld2.iter_mut().enumerate() {
            *d2 = d2_at(slot + l);
        }
        for (l, &d2) in ld2.iter().enumerate() {
            accept(slot + l, d2);
        }
        slot += SCAN_LANES;
    }
    for slot in slot..e {
        accept(slot, d2_at(slot));
    }
    own
}

/// AVX-512 candidate scan of the packed slots `s..e` (one run of stencil
/// cells): the union test is two masked compares of eight doubles, `d²`
/// against `r_i²` and against the packed `r_j²`, and `vpcompressd` packs the
/// accepted ids contiguously in one instruction — the hardware form of the
/// portable path's compaction store — and the run's remainder is one more
/// iteration under a lane mask, not a scalar loop. The `simd_lanes` test
/// holds every instantiation to both instructions. The arithmetic is
/// plain IEEE sub/mul/add in the scalar association order `(dx² + dy²) + dz²`
/// with no FMA contraction, and mask-compression preserves lane order, so the
/// emitted row bytes are identical to the portable path's.
///
/// Returns the own-support hit count (self included, like the portable scan).
/// `popcnt` is enabled with the vector features: without it each of the two
/// mask `count_ones()` per chunk compiles to a six-instruction bit-twiddling
/// sequence.
///
/// # Safety
/// The caller must have verified at runtime that the CPU supports AVX512F,
/// AVX512VL and POPCNT, and `e` must not exceed the length of the grid's
/// packed lanes (`px`, `py`, `pz`, `pr2`, `entries`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,popcnt")]
unsafe fn scan_cells_avx512<const PERIODIC: bool>(
    grid: &CellGrid,
    s: usize,
    e: usize,
    at: [f64; 3],
    shift: [f64; 3],
    ri2: f64,
    row: &mut Vec<u32>,
) -> u32 {
    use std::arch::x86_64::*;
    row.reserve(e - s);
    let [vxi, vyi, vzi] = at.map(|v| _mm512_set1_pd(v));
    let [vsx, vsy, vsz] = shift.map(|v| _mm512_set1_pd(v));
    let vri2 = _mm512_set1_pd(ri2);
    let out = row.as_mut_ptr();
    let mut own = 0u32;
    let mut len = row.len();
    // Eight slots from `slot`, the lanes of `live` only: a masked load reads
    // (and can fault on) no lane outside its mask, and the compare is masked
    // too, so a dead lane is neither counted nor stored.
    let mut scan = |slot: usize, live: __mmask8| {
        // SAFETY: the live lanes are `slot..e` at most, in bounds of every
        // packed lane by the caller's contract; `reserve(e - s)` above left
        // room past `len` for every candidate of the run, and compress-store
        // writes exactly `keep.count_ones()` packed elements.
        unsafe {
            let mut dx = _mm512_sub_pd(_mm512_maskz_loadu_pd(live, grid.px.as_ptr().add(slot)), vxi);
            let mut dy = _mm512_sub_pd(_mm512_maskz_loadu_pd(live, grid.py.as_ptr().add(slot)), vyi);
            let mut dz = _mm512_sub_pd(_mm512_maskz_loadu_pd(live, grid.pz.as_ptr().add(slot)), vzi);
            if PERIODIC {
                dx = _mm512_sub_pd(dx, vsx);
                dy = _mm512_sub_pd(dy, vsy);
                dz = _mm512_sub_pd(dz, vsz);
            }
            let d2 = _mm512_add_pd(
                _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy)),
                _mm512_mul_pd(dz, dz),
            );
            let m_own = _mm512_mask_cmp_pd_mask::<_CMP_LE_OQ>(live, d2, vri2);
            own += m_own.count_ones();
            let vpr2 = _mm512_maskz_loadu_pd(live, grid.pr2.as_ptr().add(slot));
            let keep = m_own | _mm512_mask_cmp_pd_mask::<_CMP_LE_OQ>(live, d2, vpr2);
            let ids = _mm256_maskz_loadu_epi32(live, grid.entries.as_ptr().add(slot) as *const i32);
            _mm256_mask_compressstoreu_epi32(out.add(len) as *mut _, keep, ids);
            len += keep.count_ones() as usize;
        }
    };
    let mut slot = s;
    while slot + 8 <= e {
        scan(slot, 0xff);
        slot += 8;
    }
    if slot < e {
        scan(slot, (1u8 << (e - slot)) - 1);
    }
    // SAFETY: `len` grew only by elements compress-stored into reserved
    // capacity above.
    unsafe { row.set_len(len) };
    own
}

/// AVX2 instantiation of [`gather_cell_rows`]: the body is the same code,
/// but the widened target feature lets the autovectorizer run the candidate
/// d² lanes four doubles per instruction instead of baseline SSE2 pairs.
/// Per-lane arithmetic stays plain IEEE mul/add (no contraction), so the
/// emitted rows are bit-identical to the portable path — the specialization
/// only changes how many lanes retire per cycle.
///
/// # Safety
/// The caller must have verified at runtime that the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gather_cell_rows_avx2<const PERIODIC: bool>(
    grid: &CellGrid,
    p: &ParticleSet,
    block: BlockRows<'_>,
    counts: &mut [u32],
    diag: &mut [u32],
    staged: &mut StagedBlock,
    avx512: bool,
) {
    gather_cell_rows::<PERIODIC>(grid, p, block, counts, diag, staged, avx512);
}

/// Pick the widest sweep instantiation of the process's [`simd_tier`] (the
/// running CPU's, or the portable one under `SPHSIM_FORCE_PORTABLE_SWEEP`).
/// The choice only affects vector width, never results: both instantiations
/// execute the identical per-candidate arithmetic.
#[inline]
fn gather_cell_rows_dispatch<const PERIODIC: bool>(
    grid: &CellGrid,
    p: &ParticleSet,
    block: BlockRows<'_>,
    counts: &mut [u32],
    diag: &mut [u32],
    staged: &mut StagedBlock,
) {
    let SimdTier { avx2, avx512 } = simd_tier();
    #[cfg(target_arch = "x86_64")]
    if avx2 {
        // SAFETY: `avx2` is only true when runtime feature detection
        // reported AVX2 support on this CPU.
        unsafe { gather_cell_rows_avx2::<PERIODIC>(grid, p, block, counts, diag, staged, avx512) };
        return;
    }
    let _ = avx2;
    gather_cell_rows::<PERIODIC>(grid, p, block, counts, diag, staged, avx512);
}

/// Build the CSR neighbour lists by sweeping the cell grid, which must have
/// been [`CellGrid::rebuild`]-ed on this particle set, and record the
/// per-particle neighbour counts in `particles.neighbor_count` — all through
/// the reusable buffers of `scratch`.
///
/// Rows are requested out of the first `n_rows` particles; every particle is
/// binned and can be a neighbour. `rows = None` builds the rows `0..n_rows`:
/// all of them for `n_rows = particles.len()`, a rank's owned rows for
/// `n_rows = n_owned` — its ghosts are neighbours of owned rows through the
/// grid, and nothing reads a ghost's own row. `Some(rows)` — an ascending
/// list below `n_rows`, the active set of an individual-timestep substep —
/// sweeps only those rows' stencils. Either way `out` covers the **full**
/// particle set (rows not requested come out zero-length), a requested row
/// is byte for byte the row of a full build, and the diagnostic is refreshed
/// at the requested slots only. An empty set (or list) builds empty lists
/// without reading the grid.
pub fn find_neighbors_cells(
    particles: &mut ParticleSet,
    grid: &CellGrid,
    n_rows: usize,
    rows: Option<&[u32]>,
    out: &mut NeighborLists,
    scratch: &mut NeighborScratch,
) {
    let n = particles.len();
    assert_eq!(
        particles.neighbor_count.len(),
        n,
        "particle set inconsistent: neighbor_count lane out of sync"
    );
    assert!(n_rows <= n, "{n_rows} rows requested of a set of {n}");
    debug_assert!(
        rows.is_none_or(|list| list.windows(2).all(|w| w[0] < w[1])),
        "subset rows must ascend"
    );
    debug_assert!(
        rows.and_then(<[u32]>::last).is_none_or(|&i| (i as usize) < n_rows),
        "subset row out of range"
    );
    let m = rows.map_or(n_rows, <[u32]>::len);
    scratch.counts.clear();
    scratch.counts.resize(m, 0);
    scratch.diag.clear();
    scratch.diag.resize(m, 0);
    let threads = if m < SERIAL_CUTOFF { 1 } else { worker_threads().min(m) };
    let chunk = m.div_ceil(threads).max(1);
    let blocks = m.div_ceil(chunk);
    if scratch.blocks.len() < blocks {
        scratch.blocks.resize_with(blocks, StagedBlock::default);
    }
    {
        let p = &*particles;
        let periodic = p.boundary.is_periodic();
        // Block `t` covers the requested rows `t * chunk ..`, as many as its
        // count chunk is long.
        let sweep = |t: usize, counts: &mut [u32], diag: &mut [u32], staged: &mut StagedBlock| {
            let slots = t * chunk..t * chunk + counts.len();
            let block = match rows {
                None => BlockRows::All(slots),
                Some(list) => BlockRows::Listed(list[slots].iter()),
            };
            if periodic {
                gather_cell_rows_dispatch::<true>(grid, p, block, counts, diag, staged);
            } else {
                gather_cell_rows_dispatch::<false>(grid, p, block, counts, diag, staged);
            }
        };
        let work = scratch
            .counts
            .chunks_mut(chunk)
            .zip(scratch.diag.chunks_mut(chunk))
            .zip(&mut scratch.blocks)
            .enumerate();
        if threads == 1 {
            for (t, ((counts, diag), staged)) in work {
                sweep(t, counts, diag, staged);
            }
        } else {
            std::thread::scope(|scope| {
                for (t, ((counts, diag), staged)) in work {
                    let sweep = &sweep;
                    scope.spawn(move || sweep(t, counts, diag, staged));
                }
            });
        }
    }
    finish_csr(out, scratch, n_rows, rows, blocks, &mut particles.neighbor_count);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::lattice_cube;
    use crate::physics::neighbors::find_neighbors;

    #[test]
    fn grid_reports_occupancy() {
        let mut p = lattice_cube(6, 1.0, 1.0, 1.2);
        p.boundary = Boundary::unit_box();
        let mut grid = CellGrid::new();
        grid.rebuild(&p);
        assert!(grid.total_cells() >= 1);
        assert!(grid.occupied_cells() >= 1);
        assert!(grid.occupied_cells() <= grid.total_cells());
        assert!(grid.mean_occupancy() > 0.0);
        // Every particle is binned exactly once.
        let mut seen: Vec<u32> = grid.entries.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..p.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn subset_sweep_matches_the_full_sweep_rows() {
        // Mildly non-uniform h, periodic box: the subset sweep must emit
        // byte-identical rows for the requested subset (same stencil order)
        // and empty rows elsewhere.
        let mut a = lattice_cube(6, 1.0, 1.0, 1.2);
        a.boundary = Boundary::unit_box();
        for (i, h) in a.h.iter_mut().enumerate() {
            *h *= 1.0 + 0.3 * ((i % 5) as f64) / 5.0;
        }
        let mut b = a.clone();
        let full = find_neighbors(&mut a);
        let mut grid = CellGrid::new();
        grid.rebuild(&b);
        let rows: Vec<u32> = (0..b.len() as u32).filter(|i| i % 4 != 2).collect();
        let mut out = NeighborLists::default();
        let mut scratch = NeighborScratch::new();
        b.neighbor_count.fill(u32::MAX);
        let n = b.len();
        find_neighbors_cells(&mut b, &grid, n, Some(&rows), &mut out, &mut scratch);
        let mut cursor = 0usize;
        for i in 0..b.len() {
            if cursor < rows.len() && rows[cursor] as usize == i {
                cursor += 1;
                assert_eq!(out.neighbors(i), full.neighbors(i), "subset sweep row {i}");
                assert_eq!(b.neighbor_count[i], a.neighbor_count[i]);
            } else {
                assert_eq!(out.count(i), 0, "off-subset row {i} must be empty");
                assert_eq!(b.neighbor_count[i], u32::MAX);
            }
        }
    }

    #[test]
    fn empty_set_leaves_an_empty_grid_and_an_empty_csr() {
        // Warm the grid on a real set first: the empty rebuild must not leave
        // the old cells behind, and the build must not read them.
        let mut grid = CellGrid::new();
        grid.rebuild(&lattice_cube(4, 1.0, 1.0, 1.2));
        let mut p = ParticleSet::default();
        grid.rebuild(&p);
        assert_eq!((grid.total_cells(), grid.occupied_cells()), (0, 0));
        assert_eq!(grid.mean_occupancy(), 0.0);
        let mut out = NeighborLists::default();
        find_neighbors_cells(&mut p, &grid, 0, None, &mut out, &mut NeighborScratch::new());
        assert_eq!(out.offsets, vec![0]);
        assert!(out.indices.is_empty());
    }

    #[test]
    #[should_panic(expected = "particle 3 of 64 has smoothing length h = NaN")]
    fn bad_smoothing_length_panics_naming_the_particle() {
        // NaN slips through min/max folds unnoticed; zero, negative and
        // infinite h are refused by the same check.
        let mut p = lattice_cube(4, 1.0, 1.0, 1.2);
        p.h[3] = f64::NAN;
        p.h[9] = 0.0;
        CellGrid::new().rebuild(&p);
    }

    #[test]
    #[should_panic(expected = "minimum-image")]
    fn interaction_diameter_reaching_the_periodic_box_edge_panics() {
        // One support diameter of 2 · 2h = 1.2 box edges: that particle would
        // see two images of the same partner.
        let mut p = lattice_cube(6, 1.0, 1.0, 1.2);
        p.boundary = Boundary::unit_box();
        p.h[5] = 0.3;
        CellGrid::new().rebuild(&p);
    }
}
