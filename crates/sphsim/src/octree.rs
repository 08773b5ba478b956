//! Octree for Barnes–Hut gravity.
//!
//! A pointer-free octree over particle positions, in the spirit of SPH-EXA's
//! Cornerstone octree (Keller et al. 2023), reduced to what the Gravity stage
//! needs: node moments (mass, centre of mass and the traceless quadrupole
//! about it) and the opening-angle walk over them, which judges every node —
//! leaf or not — by the one criterion. (The neighbour search does not come
//! here: the SPH sums get their rows from the cell grid of
//! [`crate::celllist`].)
//!
//! The node arena, the particle index permutation and the build scratch are
//! all owned by the tree and reused across [`Octree::rebuild`] calls, and the
//! walk runs iteratively over a fixed-size stack — so a time-stepping loop
//! that rebuilds the tree every step performs no heap allocation once the
//! arena has warmed up to its steady-state size.

use crate::kernels::LANE_WIDTH;

/// Axis-aligned bounding box.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Aabb {
    /// Minimum corner.
    pub min: (f64, f64, f64),
    /// Maximum corner.
    pub max: (f64, f64, f64),
}

impl Aabb {
    /// Create a box; panics if any max < min.
    fn new(min: (f64, f64, f64), max: (f64, f64, f64)) -> Self {
        assert!(max.0 >= min.0 && max.1 >= min.1 && max.2 >= min.2, "invalid AABB");
        Self { min, max }
    }

    /// Bounding box of a point cloud, slightly padded.
    fn of_points(x: &[f64], y: &[f64], z: &[f64]) -> Self {
        let mut min = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut max = (f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY);
        for i in 0..x.len() {
            min.0 = min.0.min(x[i]);
            min.1 = min.1.min(y[i]);
            min.2 = min.2.min(z[i]);
            max.0 = max.0.max(x[i]);
            max.1 = max.1.max(y[i]);
            max.2 = max.2.max(z[i]);
        }
        if x.is_empty() {
            return Self::new((0.0, 0.0, 0.0), (1.0, 1.0, 1.0));
        }
        let pad = 1e-9 + 1e-9 * (max.0 - min.0).abs().max((max.1 - min.1).abs()).max((max.2 - min.2).abs());
        Self::new(
            (min.0 - pad, min.1 - pad, min.2 - pad),
            (max.0 + pad, max.1 + pad, max.2 + pad),
        )
    }

    /// Geometric centre.
    fn center(&self) -> (f64, f64, f64) {
        (
            0.5 * (self.min.0 + self.max.0),
            0.5 * (self.min.1 + self.max.1),
            0.5 * (self.min.2 + self.max.2),
        )
    }

    /// Longest edge length.
    fn longest_edge(&self) -> f64 {
        (self.max.0 - self.min.0)
            .max(self.max.1 - self.min.1)
            .max(self.max.2 - self.min.2)
    }

    /// True if the point is inside (inclusive).
    fn contains(&self, p: (f64, f64, f64)) -> bool {
        p.0 >= self.min.0
            && p.0 <= self.max.0
            && p.1 >= self.min.1
            && p.1 <= self.max.1
            && p.2 >= self.min.2
            && p.2 <= self.max.2
    }

    /// The `octant`-th child box (octant bits: x = 1, y = 2, z = 4).
    fn octant(&self, octant: usize) -> Aabb {
        let c = self.center();
        let (min, max) = (self.min, self.max);
        let x = if octant & 1 == 0 { (min.0, c.0) } else { (c.0, max.0) };
        let y = if octant & 2 == 0 { (min.1, c.1) } else { (c.1, max.1) };
        let z = if octant & 4 == 0 { (min.2, c.2) } else { (c.2, max.2) };
        Aabb::new((x.0, y.0, z.0), (x.1, y.1, z.1))
    }
}

/// One octree node.
#[derive(Clone, Debug)]
pub(crate) struct OctreeNode {
    /// Spatial extent of the node.
    pub bounds: Aabb,
    /// Longest edge of `bounds`, the `size` of the opening criterion.
    pub size: f64,
    /// First index into the tree's `indices` array covered by this node.
    pub start: u32,
    /// One past the last index covered by this node.
    pub end: u32,
    /// Index of the first of the eight children, which are consecutive in the
    /// node array; 0 (the root, nobody's child) for a leaf.
    pub first_child: u32,
    /// Total mass of the particles in the node.
    pub mass: f64,
    /// Centre of mass of the particles in the node.
    pub com: (f64, f64, f64),
    /// Traceless quadrupole about `com`, `Σ m (3 s sᵀ − |s|² 1)` with
    /// `s = x_p − com`, packed as `[xx, xy, xz, yy, yz, zz]`.
    pub quad: [f64; 6],
}

impl OctreeNode {
    /// A node over `indices[start..end]` with no children and no moments yet.
    fn new(bounds: Aabb, start: usize, end: usize) -> Self {
        Self {
            bounds,
            size: bounds.longest_edge(),
            start: start as u32,
            end: end as u32,
            first_child: 0,
            mass: 0.0,
            com: bounds.center(),
            quad: [0.0; 6],
        }
    }

    /// Number of particles in this node.
    fn count(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// True if the node has no children.
    fn is_leaf(&self) -> bool {
        self.first_child == 0
    }

    /// Node-array indices of the eight children (empty for a leaf).
    fn children(&self) -> std::ops::Range<usize> {
        let first = self.first_child as usize;
        first..first + if self.is_leaf() { 0 } else { 8 }
    }
}

/// Adds the quadrupole of a point mass `m` at `s` from the expansion centre,
/// `m (3 s sᵀ − |s|² 1)`, onto the packed `q = [xx, xy, xz, yy, yz, zz]`.
fn add_point_quadrupole(q: &mut [f64; 6], m: f64, s: (f64, f64, f64)) {
    let s2 = s.0 * s.0 + s.1 * s.1 + s.2 * s.2;
    q[0] += m * (3.0 * s.0 * s.0 - s2);
    q[1] += m * 3.0 * s.0 * s.1;
    q[2] += m * 3.0 * s.0 * s.2;
    q[3] += m * (3.0 * s.1 * s.1 - s2);
    q[4] += m * 3.0 * s.1 * s.2;
    q[5] += m * (3.0 * s.2 * s.2 - s2);
}

/// Octree over a set of particle positions.
pub struct Octree {
    /// All nodes (root is node 0; none before the first [`Octree::rebuild`]).
    pub(crate) nodes: Vec<OctreeNode>,
    indices: Vec<usize>,
    max_leaf_size: usize,
    /// Reusable scratch for the in-place octant partition of one node segment.
    partition_scratch: Vec<usize>,
    /// Reusable work stack of `(node index, depth)` pairs of the iterative build.
    build_stack: Vec<(usize, usize)>,
}

impl Octree {
    /// An empty tree (no nodes, no particles, nothing on the heap) — an arena
    /// waiting for its first [`Octree::rebuild`]. A walk over it finds no
    /// mass.
    pub fn empty() -> Self {
        Self {
            nodes: Vec::new(),
            indices: Vec::new(),
            max_leaf_size: 1,
            partition_scratch: Vec::new(),
            build_stack: Vec::new(),
        }
    }

    /// Build an octree over the given positions with at most `max_leaf_size`
    /// particles per leaf.
    pub fn build(x: &[f64], y: &[f64], z: &[f64], m: &[f64], max_leaf_size: usize) -> Self {
        let mut tree = Self::empty();
        tree.rebuild(x, y, z, m, max_leaf_size);
        tree
    }

    /// Rebuild the tree over new positions, reusing the node arena, the index
    /// permutation and the build scratch (no allocation once their capacity
    /// has reached the steady-state size).
    pub fn rebuild(&mut self, x: &[f64], y: &[f64], z: &[f64], m: &[f64], max_leaf_size: usize) {
        assert!(max_leaf_size >= 1);
        assert_eq!(x.len(), y.len());
        assert_eq!(x.len(), z.len());
        assert_eq!(x.len(), m.len());
        // Nodes index particles, and the traversal stacks nodes, as u32.
        assert!(x.len() <= u32::MAX as usize, "octree indexes particles as u32");
        self.max_leaf_size = max_leaf_size;
        let bounds = Aabb::of_points(x, y, z);
        self.nodes.clear();
        self.indices.clear();
        self.indices.extend(0..x.len());
        self.nodes.push(OctreeNode::new(bounds, 0, x.len()));
        if x.is_empty() {
            return;
        }
        self.build_stack.clear();
        self.build_stack.push((0, 0));
        while let Some((node_idx, depth)) = self.build_stack.pop() {
            self.split(node_idx, x, y, z, depth);
        }
        assert!(
            self.nodes.len() <= u32::MAX as usize,
            "octree arena exceeds u32 node indices"
        );
        self.compute_moments(x, y, z, m);
    }

    const MAX_DEPTH: usize = 21;

    /// Upper bound on the DFS stack of a traversal: popping an internal node
    /// pushes its 8 children, so at most 8 entries live per tree level and the
    /// tree is at most `MAX_DEPTH` levels deep.
    const TRAVERSAL_STACK: usize = 8 * (Self::MAX_DEPTH + 2);

    fn split(&mut self, node_idx: usize, x: &[f64], y: &[f64], z: &[f64], depth: usize) {
        let (start, end, bounds) = {
            let node = &self.nodes[node_idx];
            (node.start as usize, node.end as usize, node.bounds)
        };
        let count = end - start;
        if count <= self.max_leaf_size || depth >= Self::MAX_DEPTH {
            return;
        }
        let center = bounds.center();
        let octant_of = |p: usize| {
            let mut oct = 0usize;
            if x[p] > center.0 {
                oct |= 1;
            }
            if y[p] > center.1 {
                oct |= 2;
            }
            if z[p] > center.2 {
                oct |= 4;
            }
            oct
        };
        // Counting sort of the segment into the eight octants, through the
        // reusable scratch buffer — no per-node allocation.
        let mut counts = [0usize; 8];
        for &p in &self.indices[start..end] {
            counts[octant_of(p)] += 1;
        }
        // Degenerate case: all points identical -> stop splitting.
        if counts.iter().filter(|&&c| c > 0).count() <= 1 && depth > 0 {
            return;
        }
        let mut child_start = [0usize; 8];
        let mut cursor = start;
        for (oct, &c) in counts.iter().enumerate() {
            child_start[oct] = cursor;
            cursor += c;
        }
        self.partition_scratch.clear();
        self.partition_scratch.extend_from_slice(&self.indices[start..end]);
        let mut write = child_start;
        for k in 0..count {
            let p = self.partition_scratch[k];
            let oct = octant_of(p);
            self.indices[write[oct]] = p;
            write[oct] += 1;
        }
        // The eight children are consecutive in the arena.
        let first_child = self.nodes.len();
        self.nodes[node_idx].first_child = first_child as u32;
        for (oct, &cs) in child_start.iter().enumerate() {
            self.nodes.push(OctreeNode::new(bounds.octant(oct), cs, cs + counts[oct]));
            self.build_stack.push((first_child + oct, depth + 1));
        }
    }

    /// The slice of the particle permutation a node covers.
    fn particles_of(&self, node: &OctreeNode) -> &[usize] {
        &self.indices[node.start as usize..node.end as usize]
    }

    /// Mass, centre of mass and quadrupole of every node, into the arena.
    fn compute_moments(&mut self, x: &[f64], y: &[f64], z: &[f64], m: &[f64]) {
        // Process nodes in reverse creation order: children always come after
        // their parent, so reverse order sees children first.
        for i in (0..self.nodes.len()).rev() {
            let node = &self.nodes[i];
            let (mut mass, mut cx, mut cy, mut cz) = (0.0, 0.0, 0.0, 0.0);
            if node.is_leaf() {
                for &p in self.particles_of(node) {
                    mass += m[p];
                    cx += m[p] * x[p];
                    cy += m[p] * y[p];
                    cz += m[p] * z[p];
                }
            } else {
                for child in &self.nodes[node.children()] {
                    mass += child.mass;
                    cx += child.mass * child.com.0;
                    cy += child.mass * child.com.1;
                    cz += child.mass * child.com.2;
                }
            }
            if mass <= 0.0 {
                // `OctreeNode::new` left the cell centre and a zero quadrupole.
                continue;
            }
            let com = (cx / mass, cy / mass, cz / mass);
            let mut quad = [0.0; 6];
            if node.is_leaf() {
                for &p in self.particles_of(node) {
                    add_point_quadrupole(&mut quad, m[p], (x[p] - com.0, y[p] - com.1, z[p] - com.2));
                }
            } else {
                // Parallel-axis fold: a child's own tensor plus that of its
                // mass sitting at its centre of mass.
                for child in &self.nodes[node.children()] {
                    for (q, qc) in quad.iter_mut().zip(&child.quad) {
                        *q += qc;
                    }
                    let s = (child.com.0 - com.0, child.com.1 - com.1, child.com.2 - com.2);
                    add_point_quadrupole(&mut quad, child.mass, s);
                }
            }
            let node = &mut self.nodes[i];
            node.mass = mass;
            node.com = com;
            node.quad = quad;
        }
    }

    /// Barnes–Hut gravitational acceleration **and potential** at `pos` with
    /// opening angle `theta` and softening `eps`, excluding the particle
    /// `self_idx` (pass `usize::MAX` to include everything).
    ///
    /// Every node, leaf or not, is judged by the same criterion: it is accepted
    /// as one interaction when `size < theta · d` (`d² = r² + eps²` to its
    /// centre of mass) and `pos` lies outside its bounds — a cell is never
    /// accepted from inside, which is what keeps a particle's own leaf in the
    /// direct sum at any `theta`. A node that fails is opened: an internal
    /// node into its non-empty children, a leaf into its particles.
    ///
    /// Returns `(a_x, a_y, a_z, φ)` with `φ` summed over exactly the
    /// interactions the acceleration accepted — `−m/d` per leaf particle,
    /// `−M/d − ½ (r·Q r)/d⁵` per accepted node (monopole and quadrupole about
    /// its centre of mass) — so `½ Σ_i m_i φ_i` over all particles is the tree
    /// estimate of the pair potential `−Σ_{i<j} m_i m_j / d_ij`: equal to the
    /// direct sum up to round-off at `theta = 0`, within the octupole
    /// truncation error otherwise.
    #[allow(clippy::too_many_arguments)] // mirrors the flat SoA particle layout
    pub(crate) fn gravity_at(
        &self,
        pos: (f64, f64, f64),
        theta: f64,
        eps: f64,
        x: &[f64],
        y: &[f64],
        z: &[f64],
        m: &[f64],
        self_idx: usize,
    ) -> (f64, f64, f64, f64) {
        let mut acc = [0.0f64; 4];
        let mut stack = [0u32; Self::TRAVERSAL_STACK];
        // The root, if the tree was ever built over anything.
        let mut top = usize::from(self.nodes.first().is_some_and(|root| root.count() > 0));
        let (theta2, eps2) = (theta * theta, eps * eps);
        while top > 0 {
            top -= 1;
            let node = &self.nodes[stack[top] as usize];
            let rx = node.com.0 - pos.0;
            let ry = node.com.1 - pos.1;
            let rz = node.com.2 - pos.2;
            let d2 = rx * rx + ry * ry + rz * rz + eps2;
            // Squared, so a node that is opened costs no square root and no
            // divide.
            if node.size * node.size < theta2 * d2 && !node.bounds.contains(pos) {
                let q = &node.quad;
                let qx = q[0] * rx + q[1] * ry + q[2] * rz;
                let qy = q[1] * rx + q[3] * ry + q[4] * rz;
                let qz = q[2] * rx + q[4] * ry + q[5] * rz;
                let inv_d2 = 1.0 / d2;
                let inv_d = d2.sqrt() * inv_d2;
                let inv_d3 = inv_d * inv_d2;
                let inv_d5 = inv_d3 * inv_d2;
                let rqr = (rx * qx + ry * qy + rz * qz) * inv_d5;
                let f = node.mass * inv_d3 + 2.5 * rqr * inv_d2;
                acc[0] += f * rx - qx * inv_d5;
                acc[1] += f * ry - qy * inv_d5;
                acc[2] += f * rz - qz * inv_d5;
                acc[3] -= node.mass * inv_d + 0.5 * rqr;
            } else if node.is_leaf() {
                leaf_gravity(self.particles_of(node), pos, eps, x, y, z, m, self_idx, &mut acc);
            } else {
                debug_assert!(top + 8 <= Self::TRAVERSAL_STACK);
                for c in node.children() {
                    if self.nodes[c].count() > 0 {
                        stack[top] = c as u32;
                        top += 1;
                    }
                }
            }
        }
        (acc[0], acc[1], acc[2], acc[3])
    }
}

/// Direct interactions of one leaf, added onto `acc = [a_x, a_y, a_z, φ]`,
/// in [`LANE_WIDTH`] chunks. The leaves a walk opens — those its criterion
/// could not accept, some forty a row — hold eleven particles on average
/// (Evrard, N = 20 000, `max_leaf_size = 32`), so most chunks are short: one of
/// at most half a lane set runs the half-width instance and saves half the
/// packed square roots and divides.
///
/// Out of line, so the walk loop and the leaf lanes are register-allocated
/// apart. Inlined into [`Octree::gravity_at`], how much of the walk's state
/// spilled depended on which other functions of the crate shared its code
/// unit: an edit to an unrelated module cost the walk 7 %. Out of line it
/// runs within 1 % of the better of the two layouts, a call per opened leaf
/// included, on either.
#[allow(clippy::too_many_arguments)] // mirrors the flat SoA particle layout
#[inline(never)]
fn leaf_gravity(
    leaf: &[usize],
    pos: (f64, f64, f64),
    eps: f64,
    x: &[f64],
    y: &[f64],
    z: &[f64],
    m: &[f64],
    self_idx: usize,
    acc: &mut [f64; 4],
) {
    for chunk in leaf.chunks(LANE_WIDTH) {
        if chunk.len() <= LANE_WIDTH / 2 {
            chunk_gravity::<{ LANE_WIDTH / 2 }>(chunk, pos, eps, x, y, z, m, self_idx, acc);
        } else {
            chunk_gravity::<LANE_WIDTH>(chunk, pos, eps, x, y, z, m, self_idx, acc);
        }
    }
}

/// One chunk of `1..=W` leaf particles, in the shape of the pair kernels:
/// gather the sources into `W` stack lanes, run the square root and the
/// divide over a fixed trip count (packed `sqrt`/`div` after vectorisation),
/// then accumulate the chunk's own lanes **in leaf order** — so the sums are
/// bit-identical to a scalar loop over the leaf.
///
/// The gather has a fixed trip count too: a lane past the end of a short
/// chunk repeats the chunk's last particle (a variable-length gather costs a
/// mispredicted loop exit per leaf, measured at 5 % of the walk). Those
/// lanes and `self_idx` are skipped in the accumulate loop by index, never by
/// arithmetic: with `eps = 0` the self lane holds `inf · 0 = NaN`.
///
/// `φ` takes `f · d² = m/d` from the acceleration's own quotient instead of a
/// second divide (one rounding more; the divider is what bounds this loop).
#[allow(clippy::too_many_arguments)] // mirrors the flat SoA particle layout
#[inline(always)]
fn chunk_gravity<const W: usize>(
    chunk: &[usize],
    pos: (f64, f64, f64),
    eps: f64,
    x: &[f64],
    y: &[f64],
    z: &[f64],
    m: &[f64],
    self_idx: usize,
    acc: &mut [f64; 4],
) {
    let mut lx = [0.0f64; W];
    let mut ly = [0.0f64; W];
    let mut lz = [0.0f64; W];
    let mut lm = [0.0f64; W];
    let mut fx = [0.0f64; W];
    let mut fy = [0.0f64; W];
    let mut fz = [0.0f64; W];
    let mut fp = [0.0f64; W];
    let last = chunk.len() - 1;
    for k in 0..W {
        let p = chunk[k.min(last)];
        lx[k] = x[p];
        ly[k] = y[p];
        lz[k] = z[p];
        lm[k] = m[p];
    }
    for k in 0..W {
        let dx = lx[k] - pos.0;
        let dy = ly[k] - pos.1;
        let dz = lz[k] - pos.2;
        let d2 = dx * dx + dy * dy + dz * dz + eps * eps;
        let d = d2.sqrt();
        let f = lm[k] / (d2 * d);
        fx[k] = f * dx;
        fy[k] = f * dy;
        fz[k] = f * dz;
        fp[k] = f * d2;
    }
    for ((((&p, gx), gy), gz), gp) in chunk.iter().zip(&fx).zip(&fy).zip(&fz).zip(&fp) {
        if p == self_idx {
            continue;
        }
        acc[0] += gx;
        acc[1] += gy;
        acc[2] += gz;
        acc[3] -= gp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Maximum depth of the tree (root = depth 0).
    fn depth(tree: &Octree) -> usize {
        fn depth_of(tree: &Octree, node: usize) -> usize {
            let children = tree.nodes.get(node).map_or(0..0, OctreeNode::children);
            children.map(|c| 1 + depth_of(tree, c)).max().unwrap_or(0)
        }
        depth_of(tree, 0)
    }

    fn random_cloud(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let y: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let z: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let m: Vec<f64> = (0..n).map(|_| 1.0).collect();
        (x, y, z, m)
    }

    #[test]
    fn aabb_octants_partition_volume() {
        let b = Aabb::new((0.0, 0.0, 0.0), (2.0, 2.0, 2.0));
        let vol: f64 = (0..8)
            .map(|o| {
                let c = b.octant(o);
                (c.max.0 - c.min.0) * (c.max.1 - c.min.1) * (c.max.2 - c.min.2)
            })
            .sum();
        assert!((vol - 8.0).abs() < 1e-12);
        assert!(b.contains((1.0, 1.0, 1.0)));
        assert!(!b.contains((3.0, 0.0, 0.0)));
    }

    #[test]
    fn tree_indexes_every_particle_once() {
        let (x, y, z, m) = random_cloud(500, 1);
        let tree = Octree::build(&x, &y, &z, &m, 16);
        assert_eq!(tree.indices.len(), 500);
        // Leaves must partition the index set.
        let mut seen = vec![false; 500];
        for node in tree.nodes.iter().filter(|n| n.is_leaf()) {
            for &p in tree.particles_of(node) {
                assert!(!seen[p], "particle {p} appears in two leaves");
                seen[p] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert!(depth(&tree) >= 1);
        assert!(tree.nodes.iter().filter(|n| n.is_leaf()).count() >= 500 / 16);
    }

    #[test]
    fn leaves_respect_max_size() {
        let (x, y, z, m) = random_cloud(2000, 2);
        let tree = Octree::build(&x, &y, &z, &m, 32);
        for node in tree.nodes.iter().filter(|n| n.is_leaf()) {
            assert!(node.count() <= 32, "leaf with {} particles", node.count());
        }
    }

    #[test]
    fn leaf_particles_lie_inside_leaf_bounds() {
        let (x, y, z, m) = random_cloud(300, 3);
        let tree = Octree::build(&x, &y, &z, &m, 8);
        for node in tree.nodes.iter().filter(|n| n.is_leaf()) {
            for &p in tree.particles_of(node) {
                // Allow boundary tolerance: points exactly on a split plane may
                // land in the lower octant.
                let eps = 1e-9;
                assert!(x[p] >= node.bounds.min.0 - eps && x[p] <= node.bounds.max.0 + eps);
                assert!(y[p] >= node.bounds.min.1 - eps && y[p] <= node.bounds.max.1 + eps);
                assert!(z[p] >= node.bounds.min.2 - eps && z[p] <= node.bounds.max.2 + eps);
            }
        }
    }

    #[test]
    fn root_mass_is_total_mass() {
        let (x, y, z, m) = random_cloud(100, 5);
        let tree = Octree::build(&x, &y, &z, &m, 10);
        assert!((tree.nodes[0].mass - 100.0).abs() < 1e-9);
        let com = tree.nodes[0].com;
        assert!(com.0 > 0.3 && com.0 < 0.7);
    }

    #[test]
    fn gravity_matches_direct_sum_for_small_theta() {
        let (x, y, z, m) = random_cloud(200, 6);
        let tree = Octree::build(&x, &y, &z, &m, 8);
        let eps = 0.01;
        let pos = (0.5, 0.5, 0.5);
        let tree_acc = tree.gravity_at(pos, 0.0, eps, &x, &y, &z, &m, usize::MAX);
        let mut direct = (0.0, 0.0, 0.0);
        for j in 0..200 {
            let dx = x[j] - pos.0;
            let dy = y[j] - pos.1;
            let dz = z[j] - pos.2;
            let d2 = dx * dx + dy * dy + dz * dz + eps * eps;
            let d = d2.sqrt();
            let f = m[j] / (d2 * d);
            direct.0 += f * dx;
            direct.1 += f * dy;
            direct.2 += f * dz;
        }
        // theta = 0 forces full opening, so the tree walk must equal direct sum.
        assert!((tree_acc.0 - direct.0).abs() < 1e-9);
        assert!((tree_acc.1 - direct.1).abs() < 1e-9);
        assert!((tree_acc.2 - direct.2).abs() < 1e-9);
    }

    #[test]
    fn gravity_with_moderate_theta_is_close_to_direct() {
        let (x, y, z, m) = random_cloud(500, 7);
        let tree = Octree::build(&x, &y, &z, &m, 16);
        let eps = 0.02;
        let pos = (0.1, 0.9, 0.2);
        let approx = tree.gravity_at(pos, 0.5, eps, &x, &y, &z, &m, usize::MAX);
        let exact = tree.gravity_at(pos, 0.0, eps, &x, &y, &z, &m, usize::MAX);
        let mag = (exact.0 * exact.0 + exact.1 * exact.1 + exact.2 * exact.2).sqrt();
        let err = ((approx.0 - exact.0).powi(2) + (approx.1 - exact.1).powi(2) + (approx.2 - exact.2).powi(2)).sqrt();
        assert!(err / mag < 0.05, "relative BH error {}", err / mag);
    }

    #[test]
    fn every_node_stores_the_quadrupole_of_its_own_particles() {
        // Leaves sum their particles, internal nodes fold their children by
        // the parallel-axis term: both must equal the tensor of the node's
        // own particles about its own centre of mass.
        let (x, y, z, _) = random_cloud(700, 13);
        let m: Vec<f64> = (0..700).map(|i| 0.5 + 0.01 * (i % 97) as f64).collect();
        let tree = Octree::build(&x, &y, &z, &m, 8);
        assert!(depth(&tree) >= 2);
        // Six more numbers, in no more than the 168 B a node took when it
        // listed its children.
        assert!(std::mem::size_of::<OctreeNode>() <= 168);
        for node in &tree.nodes {
            let mut brute = [0.0; 6];
            for &p in tree.particles_of(node) {
                add_point_quadrupole(
                    &mut brute,
                    m[p],
                    (x[p] - node.com.0, y[p] - node.com.1, z[p] - node.com.2),
                );
            }
            let scale = node.mass * node.size * node.size;
            for (stored, brute) in node.quad.iter().zip(&brute) {
                assert!((stored - brute).abs() <= 1e-12 * scale, "stored {stored} vs {brute}");
            }
            let trace = node.quad[0] + node.quad[3] + node.quad[5];
            assert!(trace.abs() <= 1e-12 * scale, "trace {trace}");
        }
    }

    #[test]
    fn an_accepted_node_is_exact_to_quadrupole_order() {
        // The whole cloud accepted as one node from far away: against the
        // direct sum the potential is off by the octupole (∝ d⁻⁴) and the
        // acceleration by its gradient (∝ d⁻⁵); the bare monopole of the same
        // node is off by the quadrupole, one order lower.
        let (x, y, z, _) = random_cloud(40, 17);
        let m: Vec<f64> = (0..40).map(|i| 0.5 + 0.05 * i as f64).collect();
        let tree = Octree::build(&x, &y, &z, &m, 8);
        let root = &tree.nodes[0];
        let errors_at = |d: f64| {
            let pos = (root.com.0 + 0.6 * d, root.com.1 - 0.64 * d, root.com.2 + 0.48 * d);
            let node = tree.gravity_at(pos, 1.0, 0.0, &x, &y, &z, &m, usize::MAX);
            let exact = tree.gravity_at(pos, 0.0, 0.0, &x, &y, &z, &m, usize::MAX);
            let f = root.mass / (d * d * d);
            let monopole = (f * -0.6 * d, f * 0.64 * d, f * -0.48 * d, -root.mass / d);
            let off = |a: (f64, f64, f64, f64)| {
                let acc = ((a.0 - exact.0).powi(2) + (a.1 - exact.1).powi(2) + (a.2 - exact.2).powi(2)).sqrt();
                (acc, (a.3 - exact.3).abs())
            };
            (off(node), off(monopole))
        };
        let ((acc_near, phi_near), (mono_acc_near, mono_phi_near)) = errors_at(30.0);
        let ((acc_far, phi_far), (mono_acc_far, mono_phi_far)) = errors_at(60.0);
        for (what, ratio, order) in [
            ("quadrupole potential", phi_near / phi_far, 4),
            ("quadrupole acceleration", acc_near / acc_far, 5),
            ("monopole potential", mono_phi_near / mono_phi_far, 3),
            ("monopole acceleration", mono_acc_near / mono_acc_far, 4),
        ] {
            let expected = f64::powi(2.0, order);
            assert!(
                (ratio / expected - 1.0).abs() < 0.15,
                "{what}: doubling the distance divided the error by {ratio}, expected {expected}"
            );
        }
        assert!(phi_near < 0.05 * mono_phi_near && acc_near < 0.05 * mono_acc_near);
    }

    #[test]
    fn a_sink_on_a_face_of_its_own_leaf_is_never_inside_an_accepted_node() {
        // Five particles share the low octant of the unit cube: four huddle in
        // its corner and the sink sits on the face the octant shares with its
        // x-neighbour, `size / 0.9` away from the leaf's centre of mass — far
        // enough for the opening angle to accept the leaf, self included.
        let mut x = vec![0.0, 0.02, 0.04, 0.03, 0.5];
        let mut y = vec![0.0, 0.03, 0.01, 0.04, 0.49];
        let mut z = vec![0.0, 0.01, 0.03, 0.02, 0.49];
        let sink = 4;
        let (cx, cy, cz, _) = random_cloud(16, 19);
        for octant in 1..8 {
            for k in [2 * octant, 2 * octant + 1] {
                x.push(0.5 * cx[k] + if octant & 1 == 0 { 0.0 } else { 0.5 });
                y.push(0.5 * cy[k] + if octant & 2 == 0 { 0.0 } else { 0.5 });
                z.push(0.5 * cz[k] + if octant & 4 == 0 { 0.0 } else { 0.5 });
            }
        }
        x.push(1.0);
        y.push(1.0);
        z.push(1.0);
        let m = vec![1.0; x.len()];
        // The split plane is wherever the padded root box puts it.
        x[sink] = Aabb::of_points(&x, &y, &z).center().0;
        let tree = Octree::build(&x, &y, &z, &m, 8);
        let leaf = tree
            .nodes
            .iter()
            .find(|n| n.is_leaf() && tree.particles_of(n).contains(&sink))
            .unwrap();
        assert_eq!(leaf.bounds.max.0, x[sink]);
        assert_eq!(leaf.count(), 5);
        let pos = (x[sink], y[sink], z[sink]);
        let d = ((leaf.com.0 - pos.0).powi(2) + (leaf.com.1 - pos.1).powi(2) + (leaf.com.2 - pos.2).powi(2)).sqrt();
        assert!(leaf.size < 0.9 * d, "the criterion alone must accept the leaf");

        let tree_acc = tree.gravity_at(pos, 0.9, 0.0, &x, &y, &z, &m, sink);
        let direct = tree.gravity_at(pos, 0.0, 0.0, &x, &y, &z, &m, sink);
        for (got, want) in [
            (tree_acc.0, direct.0),
            (tree_acc.1, direct.1),
            (tree_acc.2, direct.2),
            (tree_acc.3, direct.3),
        ] {
            assert!(got.is_finite());
            assert!((got - want).abs() < 0.05 * direct.3.abs(), "{got} vs {want}");
        }
    }

    #[test]
    fn lane_batched_leaf_loop_is_bitwise_the_scalar_loop() {
        // Leaf sizes across the half-width instance, one full chunk, two full
        // chunks and their tails; the target inside the leaf (first, middle,
        // last — last makes the padded lanes repeat the self lane) and
        // outside it; with eps = 0 the self lane is inf·0 = NaN and must never
        // reach the accumulators.
        let (x, y, z, _) = random_cloud(17, 11);
        let m: Vec<f64> = (0..17).map(|i| 0.5 + 0.1 * i as f64).collect();
        for len in 1..=17usize {
            let leaf: Vec<usize> = (0..len).rev().collect();
            let targets = [Some(leaf[0]), Some(leaf[len / 2]), Some(leaf[len - 1]), None];
            for target in targets {
                for eps in [0.0, 0.02] {
                    let (pos, self_idx) = match target {
                        Some(i) => ((x[i], y[i], z[i]), i),
                        None => ((0.31, -0.2, 1.4), usize::MAX),
                    };
                    let mut lanes = [0.25, -1.5, 3.0, -0.125];
                    leaf_gravity(&leaf, pos, eps, &x, &y, &z, &m, self_idx, &mut lanes);
                    let mut scalar = [0.25, -1.5, 3.0, -0.125];
                    for &p in &leaf {
                        if p == self_idx {
                            continue;
                        }
                        let dx = x[p] - pos.0;
                        let dy = y[p] - pos.1;
                        let dz = z[p] - pos.2;
                        let d2 = dx * dx + dy * dy + dz * dz + eps * eps;
                        let d = d2.sqrt();
                        let f = m[p] / (d2 * d);
                        scalar[0] += f * dx;
                        scalar[1] += f * dy;
                        scalar[2] += f * dz;
                        scalar[3] -= f * d2;
                    }
                    assert!(scalar.iter().all(|v| v.is_finite()));
                    assert_eq!(
                        lanes.map(f64::to_bits),
                        scalar.map(f64::to_bits),
                        "len {len}, target {target:?}, eps {eps}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_singleton_trees() {
        let tree = Octree::build(&[], &[], &[], &[], 8);
        assert_eq!(tree.indices.len(), 0);
        let pull = tree.gravity_at((0.0, 0.0, 0.0), 0.5, 0.01, &[], &[], &[], &[], usize::MAX);
        assert_eq!(pull, (0.0, 0.0, 0.0, 0.0));

        let tree = Octree::build(&[0.5], &[0.5], &[0.5], &[2.0], 8);
        assert_eq!(tree.indices.len(), 1);
        assert!((tree.nodes[0].mass - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rebuild_reuses_the_arena_and_matches_a_fresh_build() {
        let (x, y, z, m) = random_cloud(800, 9);
        let fresh = Octree::build(&x, &y, &z, &m, 16);
        // Warm the arena on a different (smaller) problem, then rebuild.
        let mut reused = Octree::build(&x[..200], &y[..200], &z[..200], &m[..200], 8);
        reused.rebuild(&x, &y, &z, &m, 16);
        assert_eq!(reused.indices.len(), 800);
        assert_eq!(reused.nodes.len(), fresh.nodes.len());
        assert!((reused.nodes[0].mass - fresh.nodes[0].mass).abs() < 1e-12);
        let pos = (0.5, 0.5, 0.5);
        assert_eq!(
            reused.gravity_at(pos, 0.5, 0.01, &x, &y, &z, &m, usize::MAX),
            fresh.gravity_at(pos, 0.5, 0.01, &x, &y, &z, &m, usize::MAX)
        );
    }

    #[test]
    fn empty_arena_answers_queries_without_a_rebuild() {
        // A tree that was never built — what a scenario without gravity
        // keeps in its workspace — holds no node and exerts no pull.
        let tree = Octree::empty();
        assert_eq!(tree.indices.len(), 0);
        assert!(tree.nodes.is_empty());
        let pull = tree.gravity_at((0.5, 0.5, 0.5), 0.5, 0.01, &[], &[], &[], &[], usize::MAX);
        assert_eq!(pull, (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn identical_points_do_not_recurse_forever() {
        let n = 50;
        let x = vec![0.5; n];
        let y = vec![0.5; n];
        let z = vec![0.5; n];
        let m = vec![1.0; n];
        let tree = Octree::build(&x, &y, &z, &m, 4);
        assert_eq!(tree.indices.len(), n);
        assert!(depth(&tree) <= 21);
    }
}
