//! Boundary conditions: open boxes and fully periodic boxes.
//!
//! The paper's workload table is dominated by box scenarios (subsonic
//! turbulence, Kelvin–Helmholtz) that are physically periodic. A [`Boundary`]
//! travels with every [`crate::particle::ParticleSet`] and is honoured by the
//! whole pipeline:
//!
//! * the neighbour search ([`crate::celllist`]) anchors its cell grid to the
//!   box, wraps the stencil of a cell on a box face onto the opposite face and
//!   sees each wrapped cell through its image shift `±L`, so neighbourhoods
//!   are seamless across the faces (positions must be wrapped into the box);
//! * every pair kernel (density, grad-h, IAD, momentum/energy) maps raw
//!   displacements through the **minimum-image convention** via [`MinImage`]
//!   (scalar convenience: [`dx_periodic`]) — branch-free: the open-box case
//!   degenerates to the identity map, bit-for-bit;
//! * the step driver wraps positions back into the box at the start of every
//!   `DomainDecompAndSync`, so Morton keys (storage order, domain splitters,
//!   rank ownership) are always computed on wrapped coordinates;
//! * the distributed ghost exchange sends across the wrap seam: the
//!   send-list criterion measures the periodic distance to the destination
//!   rank's bounding box (`Boundary::dist_sq_to_box`).
//!
//! The minimum-image convention is only unambiguous while every interaction
//! radius stays below half the box edge; the neighbour search asserts this.

use crate::particle::ParticleSet;

/// Boundary condition of a simulation box.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Boundary {
    /// No boundaries: the gas is free to expand into vacuum (the default).
    #[default]
    Open,
    /// Fully periodic box `[box_min, box_max)` in all three dimensions.
    Periodic {
        /// Lower corner of the periodic box.
        box_min: (f64, f64, f64),
        /// Upper corner of the periodic box.
        box_max: (f64, f64, f64),
    },
}

impl Boundary {
    /// The periodic unit box `[0, 1)³` — what every built-in box scenario uses.
    pub const fn unit_box() -> Self {
        Boundary::Periodic {
            box_min: (0.0, 0.0, 0.0),
            box_max: (1.0, 1.0, 1.0),
        }
    }

    /// True for a periodic boundary.
    pub fn is_periodic(&self) -> bool {
        matches!(self, Boundary::Periodic { .. })
    }

    /// Edge lengths of the periodic box; `(0, 0, 0)` for an open box (the
    /// sentinel the branch-free minimum-image map keys on).
    fn lengths(&self) -> (f64, f64, f64) {
        match self {
            Boundary::Open => (0.0, 0.0, 0.0),
            Boundary::Periodic { box_min, box_max } => {
                (box_max.0 - box_min.0, box_max.1 - box_min.1, box_max.2 - box_min.2)
            }
        }
    }

    /// Half of the box space diagonal — the upper bound on any minimum-image
    /// distance. `+∞` for an open box.
    // sphlint::allow(dead-pub, the bound tests/property_based.rs holds minimum-image separations to)
    pub fn half_diagonal(&self) -> f64 {
        match self {
            Boundary::Open => f64::INFINITY,
            Boundary::Periodic { .. } => {
                let (lx, ly, lz) = self.lengths();
                0.5 * (lx * lx + ly * ly + lz * lz).sqrt()
            }
        }
    }

    /// Squared *periodic* distance from a point to an axis-aligned box
    /// (0 inside). The per-axis minimum over the image shifts is taken
    /// independently, which is exact because image shifts act per axis.
    pub(crate) fn dist_sq_to_box(&self, p: (f64, f64, f64), min: (f64, f64, f64), max: (f64, f64, f64)) -> f64 {
        let (lx, ly, lz) = self.lengths();
        let axis = |p: f64, lo: f64, hi: f64, l: f64| -> f64 {
            let direct = (lo - p).max(0.0).max(p - hi);
            if l <= 0.0 {
                return direct;
            }
            let shifted_up = (lo - (p + l)).max(0.0).max((p + l) - hi);
            let shifted_down = (lo - (p - l)).max(0.0).max((p - l) - hi);
            direct.min(shifted_up).min(shifted_down)
        };
        let dx = axis(p.0, min.0, max.0, lx);
        let dy = axis(p.1, min.1, max.1, ly);
        let dz = axis(p.2, min.2, max.2, lz);
        dx * dx + dy * dy + dz * dz
    }
}

/// Wrap one coordinate into `[lo, hi)`; positions that round exactly onto `hi`
/// are folded back to `lo`.
fn wrap_axis(x: f64, lo: f64, hi: f64) -> f64 {
    let l = hi - lo;
    if l <= 0.0 {
        return x;
    }
    let mut t = (x - lo) % l;
    if t < 0.0 {
        t += l;
    }
    let wrapped = lo + t;
    if wrapped >= hi {
        lo
    } else {
        wrapped
    }
}

/// Precomputed minimum-image map of a [`Boundary`], hoisted out of pair loops.
///
/// The map is **branch-free**: an open boundary stores edge length `0` and
/// inverse `0`, for which `dx − L · round(dx · L⁻¹)` reduces to `dx − 0` — the
/// identity, bit-for-bit on every finite displacement. For a periodic
/// boundary it returns the displacement to the nearest image, which is the
/// physical pair separation as long as interaction radii stay below half the
/// box edge. The four pair kernels and `pair_interacts` go through this one
/// formula. The cell-list sweep does not call it: it knows the image of a
/// whole stencil cell, subtracts that cell's `0` or `±L` from the raw
/// displacement, and gets the value this map returns for every pair within
/// reach (`L · ±1` is exact, so both are one rounded subtraction of the same
/// operands) — inclusion decisions still agree to the last bit across passes,
/// which `celllist_equivalence` holds against [`MinImage::dist_sq`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MinImage {
    l: (f64, f64, f64),
    inv: (f64, f64, f64),
}

impl MinImage {
    /// Build the map for a boundary.
    pub fn of(boundary: &Boundary) -> Self {
        let (lx, ly, lz) = boundary.lengths();
        let inv = |l: f64| if l > 0.0 { 1.0 / l } else { 0.0 };
        Self {
            l: (lx, ly, lz),
            inv: (inv(lx), inv(ly), inv(lz)),
        }
    }

    /// True when the map is the identity (open boundary). The pair kernels
    /// key their compile-time specialisation on this: the open path carries
    /// literally no minimum-image arithmetic, the periodic path stays
    /// branch-free per pair.
    pub(crate) fn is_identity(&self) -> bool {
        self.l == (0.0, 0.0, 0.0)
    }

    /// Map a raw displacement onto its minimum image.
    #[inline]
    pub fn map(&self, dx: f64, dy: f64, dz: f64) -> (f64, f64, f64) {
        (
            dx - self.l.0 * (dx * self.inv.0).round(),
            dy - self.l.1 * (dy * self.inv.1).round(),
            dz - self.l.2 * (dz * self.inv.2).round(),
        )
    }

    /// Squared length of the minimum image of a raw displacement.
    #[inline]
    pub fn dist_sq(&self, dx: f64, dy: f64, dz: f64) -> f64 {
        let (dx, dy, dz) = self.map(dx, dy, dz);
        dx * dx + dy * dy + dz * dz
    }
}

/// Minimum-image displacement of `(dx, dy, dz)` under `boundary` — the
/// scalar convenience form of [`MinImage`] for one-off callers (tests,
/// observables, downstream analysis). The pair kernels themselves hoist
/// [`MinImage::of`] out of their loops and call [`MinImage::map`] directly;
/// both routes evaluate the identical expression, so they agree to the bit.
#[inline]
// sphlint::allow(dead-pub, the scalar reference tests/property_based.rs holds MinImage to)
pub fn dx_periodic(boundary: &Boundary, dx: f64, dy: f64, dz: f64) -> (f64, f64, f64) {
    MinImage::of(boundary).map(dx, dy, dz)
}

impl ParticleSet {
    /// Wrap every position back into the box (no-op for open boundaries).
    /// Both propagators call this at the start of `DomainDecompAndSync`, so
    /// Morton keys are always computed on wrapped coordinates.
    pub fn wrap_positions(&mut self) {
        let Boundary::Periodic { box_min, box_max } = self.boundary else {
            return;
        };
        for x in self.x.iter_mut() {
            *x = wrap_axis(*x, box_min.0, box_max.0);
        }
        for y in self.y.iter_mut() {
            *y = wrap_axis(*y, box_min.1, box_max.1);
        }
        for z in self.z.iter_mut() {
            *z = wrap_axis(*z, box_min.2, box_max.2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_boundary_is_the_identity() {
        let b = Boundary::Open;
        assert!(!b.is_periodic());
        assert_eq!(b.lengths(), (0.0, 0.0, 0.0));
        let mi = MinImage::of(&b);
        for &(dx, dy, dz) in &[(0.3, -0.7, 1.9), (-12.0, 0.0, 1e-300), (4.2e9, -5.5e-200, 5.0)] {
            let (mx, my, mz) = mi.map(dx, dy, dz);
            assert_eq!(mx.to_bits(), dx.to_bits());
            assert_eq!(my.to_bits(), dy.to_bits());
            assert_eq!(mz.to_bits(), dz.to_bits());
        }
        // Signed zero may lose its sign through the identity map; numerically
        // it stays a zero, which is all the kernels rely on.
        let (mx, _, _) = mi.map(-0.0, 0.0, 0.0);
        assert_eq!(mx, 0.0);
        assert_eq!(b.half_diagonal(), f64::INFINITY);
    }

    #[test]
    fn wrap_folds_into_the_box() {
        let wrap = |pos: (f64, f64, f64)| {
            let mut p = ParticleSet::with_capacity(1);
            p.push(pos.0, pos.1, pos.2, 0.0, 0.0, 0.0, 1.0, 0.1, 1.0);
            p.boundary = Boundary::unit_box();
            p.wrap_positions();
            (p.x[0], p.y[0], p.z[0])
        };
        assert_eq!(wrap((0.25, 0.5, 0.75)), (0.25, 0.5, 0.75));
        let (x, y, z) = wrap((1.25, -0.25, 3.5));
        assert!((x - 0.25).abs() < 1e-12);
        assert!((y - 0.75).abs() < 1e-12);
        assert!((z - 0.5).abs() < 1e-12);
        // Exactly the upper face folds to the lower face; tiny negative
        // overshoots stay strictly inside [lo, hi).
        assert_eq!(wrap((1.0, 1.0, 1.0)), (0.0, 0.0, 0.0));
        let (x, _, _) = wrap((-1e-18, 0.0, 0.0));
        assert!((0.0..1.0).contains(&x));
    }

    #[test]
    fn min_image_picks_the_nearest_image() {
        let mi = MinImage::of(&Boundary::unit_box());
        let (dx, _, _) = mi.map(0.9, 0.0, 0.0);
        assert!((dx + 0.1).abs() < 1e-12, "0.9 across a unit box is -0.1, got {dx}");
        let (dx, dy, dz) = mi.map(-0.8, 0.3, 0.55);
        assert!((dx - 0.2).abs() < 1e-12);
        assert!((dy - 0.3).abs() < 1e-12);
        assert!((dz + 0.45).abs() < 1e-12);
    }

    #[test]
    fn periodic_distance_to_box_wraps() {
        let b = Boundary::unit_box();
        // A point at x = 0.95 is 0.05 away (through the seam) from a box
        // hugging the lower face.
        let d2 = b.dist_sq_to_box((0.95, 0.5, 0.5), (0.0, 0.0, 0.0), (0.2, 1.0, 1.0));
        assert!((d2 - 0.05 * 0.05).abs() < 1e-12, "d² = {d2}");
        // The open version of the same query measures the direct distance.
        let d2_open = Boundary::Open.dist_sq_to_box((0.95, 0.5, 0.5), (0.0, 0.0, 0.0), (0.2, 1.0, 1.0));
        assert!((d2_open - 0.75 * 0.75).abs() < 1e-12);
        // Inside the box both agree on zero.
        assert_eq!(b.dist_sq_to_box((0.1, 0.5, 0.5), (0.0, 0.0, 0.0), (0.2, 1.0, 1.0)), 0.0);
    }

    #[test]
    fn wrap_positions_respects_the_set_boundary() {
        let mut p = ParticleSet::with_capacity(2);
        p.push(1.2, -0.3, 0.5, 0.0, 0.0, 0.0, 1.0, 0.1, 1.0);
        p.push(0.4, 0.4, 0.4, 0.0, 0.0, 0.0, 1.0, 0.1, 1.0);
        // Open (default): wrapping is a no-op.
        p.wrap_positions();
        assert_eq!(p.x[0], 1.2);
        p.boundary = Boundary::unit_box();
        p.wrap_positions();
        assert!((p.x[0] - 0.2).abs() < 1e-12);
        assert!((p.y[0] - 0.7).abs() < 1e-12);
        assert_eq!(p.x[1], 0.4);
    }

    #[test]
    fn half_diagonal_bounds_every_min_image_distance() {
        let b = Boundary::Periodic {
            box_min: (0.0, -1.0, 2.0),
            box_max: (2.0, 1.0, 3.0),
        };
        let bound = b.half_diagonal();
        assert!((bound - 0.5 * (4.0f64 + 4.0 + 1.0).sqrt()).abs() < 1e-12);
        let mi = MinImage::of(&b);
        for &(dx, dy, dz) in &[(1.9, 1.9, 0.9), (-1.1, 0.7, -0.6), (5.0, -5.0, 2.5)] {
            let (mx, my, mz) = mi.map(dx, dy, dz);
            assert!((mx * mx + my * my + mz * mz).sqrt() <= bound + 1e-12);
        }
    }
}
