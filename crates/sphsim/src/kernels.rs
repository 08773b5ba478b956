//! SPH smoothing kernels, and the chunk walker of the pair kernels.
//!
//! The cubic B-spline kernel (Monaghan & Lattanzio 1985) in 3D with compact
//! support `2h`, plus its radial derivative. The kernel is normalised so that
//! `∫ W(r, h) d³r = 1`, which the property tests verify numerically.
//!
//! Each function comes in two forms. The `(r, h)` forms — [`w_cubic`],
//! [`dw_cubic`], [`grad_w_cubic`], [`dwdh_cubic`] — are the definitions, and
//! the reference `tests/pair_kernel_reference.rs` holds the pair kernels to.
//! The pair kernels evaluate the dimensionless shapes of `q = r · (1/h)` —
//! `w_shape`, `dw_shape`, `dwdh_shape` — and apply the powers of `1/h`
//! once per row, so no pair pays a divide for them.
//!
//! The four pair kernels (density, grad-h, IAD, momentum) share one loop
//! shape: `for_each_chunk` walks the CSR row, `gather` reads the
//! neighbour fields of a chunk, lane `k` adds its term into accumulator `k`,
//! and `fold_lanes` folds the accumulators at the end of the row (see
//! `LANE_WIDTH` for what that guarantees).

use std::f64::consts::PI;

/// Compact support radius of the cubic spline kernel, in units of `h`.
pub const KERNEL_SUPPORT: f64 = 2.0;

/// Number of `f64` lanes the pair kernels process per chunk. A kernel walks
/// its CSR row in `LANE_WIDTH`-wide chunks (`for_each_chunk`), gathers the
/// neighbour fields of a chunk into fixed-width stack arrays (`gather`),
/// runs a fixed-trip-count loop over them and adds lane `k`'s term into its
/// own accumulator `k`; the row's value is the accumulators folded in lane
/// order (`fold_lanes`). No lane waits on another lane's add.
///
/// The contract: a row's value depends on the row's entries, their order and
/// the state only — it is identical on both SIMD tiers, at every thread count
/// and whichever other rows run in the same call. It is *not* identical to a
/// serial loop over the row: it differs from one by how the sum is grouped
/// (per-lane partial sums over every `LANE_WIDTH`-th entry, then the fold).
///
/// The compute loop only becomes packed SIMD when its body is straight-line
/// code: the shape functions below are in select form and `#[inline(always)]`
/// for that reason, and the block runner (`crate::parallel::run_blocks`)
/// compiles the whole row body a second time four doubles wide for AVX2 hosts. Eight lanes
/// are two AVX2 vectors or four SSE2 ones per operand.
pub(crate) const LANE_WIDTH: usize = 8;

/// Walk a pair kernel's CSR `row` in [`LANE_WIDTH`]-wide chunks:
/// `body(idx, LANE_WIDTH)` once per full chunk, then `body(idx, live)` once on
/// the tail, if the row length is not a multiple of `LANE_WIDTH`. The tail's
/// `idx[live..]` is padded with `pad` — the row's own index, so every lane
/// reads valid data — and the body zeroes those lanes' terms with a
/// `k < live` select. Full chunks pass the constant `LANE_WIDTH`, so the
/// select folds away there, and a kernel writes its pair formula once.
///
/// Each chunk's largest index is asserted `< n`: an index past the set
/// panics, as a bounds-checked read would, and [`gather`] relies on it.
#[inline(always)]
pub(crate) fn for_each_chunk(row: &[u32], pad: u32, n: usize, mut body: impl FnMut(&[u32; LANE_WIDTH], usize)) {
    let mut chunks = row.chunks_exact(LANE_WIDTH);
    for chunk in chunks.by_ref() {
        let idx = chunk.try_into().expect("chunks_exact yields LANE_WIDTH entries");
        assert_in_range(idx, n);
        body(idx, LANE_WIDTH);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut idx = [pad; LANE_WIDTH];
        idx[..tail.len()].copy_from_slice(tail);
        assert_in_range(&idx, n);
        body(&idx, tail.len());
    }
}

#[inline(always)]
fn assert_in_range(idx: &[u32; LANE_WIDTH], n: usize) {
    let max = idx.iter().fold(0, |m, &j| m.max(j));
    assert!(
        (max as usize) < n,
        "neighbour index {max} out of range for {n} particles"
    );
}

/// `lane[idx[k]]` in lane `k`, for a `lane` pre-sliced to the set's length.
/// Each index is clamped to `lane.len() − 1`: after [`for_each_chunk`]'s range
/// check the clamp never binds, and it lets the compiler drop the bounds check
/// of every read.
#[inline(always)]
pub(crate) fn gather(lane: &[f64], idx: &[u32; LANE_WIDTH]) -> [f64; LANE_WIDTH] {
    let last = lane.len() - 1;
    std::array::from_fn(|k| lane[(idx[k] as usize).min(last)])
}

/// A row's value from its per-lane accumulators, folded in lane order.
#[inline(always)]
pub(crate) fn fold_lanes(acc: [f64; LANE_WIDTH]) -> f64 {
    acc.iter().fold(0.0, |sum, &a| sum + a)
}

/// Cubic-spline kernel value `W(r, h)` in 3D.
///
/// Select form: both polynomial pieces are evaluated and one is picked by
/// comparison, so a lane loop over this function has no per-lane branch and
/// compiles to packed arithmetic plus a blend. Do not reintroduce a branch
/// (an early `return`, a `powi` call): the pair kernels go scalar with it.
/// Each piece is the same sequence of IEEE operations as the branchy
/// original (kept under `cfg(test)` as the bit-for-bit reference).
#[inline(always)]
pub fn w_cubic(r: f64, h: f64) -> f64 {
    debug_assert!(h > 0.0);
    let sigma = 1.0 / (PI * h * h * h);
    let q = r / h;
    let inner = sigma * (1.0 - 1.5 * q * q + 0.75 * q * q * q);
    let t = 2.0 - q;
    let outer = sigma * 0.25 * (t * t * t);
    if q < 1.0 {
        inner
    } else if q < 2.0 {
        outer
    } else {
        0.0
    }
}

/// Dimensionless shape of the cubic spline: `W(r, h) = w_shape(r/h) / (π h³)`.
/// Select form, both pieces evaluated — do not reintroduce a branch (see
/// [`w_cubic`]).
#[inline(always)]
pub(crate) fn w_shape(q: f64) -> f64 {
    let inner = 1.0 - 1.5 * q * q + 0.75 * q * q * q;
    let t = 2.0 - q;
    let outer = 0.25 * (t * t * t);
    if q < 1.0 {
        inner
    } else if q < 2.0 {
        outer
    } else {
        0.0
    }
}

/// Dimensionless radial-derivative shape factor of the cubic spline:
/// `dW/dr (r, h) = dw_shape(r/h) / (π h⁴)`. Exposed so hot kernels can hoist
/// the `1/(π h⁴)` scale out of their pair loops while still sharing the one
/// polynomial definition with [`dw_cubic`]. Select form, both pieces
/// evaluated — do not reintroduce a branch (see [`w_cubic`]).
#[inline(always)]
pub(crate) fn dw_shape(q: f64) -> f64 {
    let inner = -3.0 * q + 2.25 * q * q;
    let t = 2.0 - q;
    let outer = -0.75 * t * t;
    if q < 1.0 {
        inner
    } else if q < 2.0 {
        outer
    } else {
        0.0
    }
}

/// Radial derivative `dW/dr (r, h)` of the cubic-spline kernel in 3D.
#[inline(always)]
pub fn dw_cubic(r: f64, h: f64) -> f64 {
    debug_assert!(h > 0.0);
    dw_shape(r / h) / (PI * h * h * h * h)
}

/// Kernel gradient `∇W` for the displacement `(dx, dy, dz)` with `r = |dx|`.
/// Returns the zero vector at `r = 0` (self-contribution).
///
/// Select form: the quotient is always evaluated (`0/0 = NaN` on a coincident
/// pair) and each component picks a literal `0.0` when `r < 1e-12·h` — do not
/// reintroduce the early `return` (see [`w_cubic`]).
#[inline(always)]
// sphlint::allow(dead-pub, the (r, h) formula pair_kernel_reference holds the kernels to)
pub fn grad_w_cubic(dx: f64, dy: f64, dz: f64, h: f64) -> (f64, f64, f64) {
    let r = (dx * dx + dy * dy + dz * dz).sqrt();
    let coincident = r < 1e-12 * h;
    let dw = dw_cubic(r, h);
    let pick = |g: f64| if coincident { 0.0 } else { g };
    (pick(dw * dx / r), pick(dw * dy / r), pick(dw * dz / r))
}

/// Derivative of the kernel with respect to `h` at fixed `r` (used by grad-h
/// normalisation terms): `∂W/∂h = -(3 W + r ∂W/∂r) / h` for a 3D kernel of the
/// form `h⁻³ f(r/h)`.
#[inline(always)]
// sphlint::allow(dead-pub, the (r, h) formula pair_kernel_reference holds the kernels to)
pub fn dwdh_cubic(r: f64, h: f64) -> f64 {
    -(3.0 * w_cubic(r, h) + r * dw_cubic(r, h)) / h
}

/// Dimensionless shape of the `h`-derivative: `∂W/∂h (r, h) =
/// −dwdh_shape(r/h) / (π h⁴)`. It is `3 w + q w′` of [`w_shape`]:
/// `3 − 7.5 q² + 4.5 q³` inside, `1.5 (2 − q)² (1 − q)` outside. Select
/// form (see [`w_cubic`]).
#[inline(always)]
pub(crate) fn dwdh_shape(q: f64) -> f64 {
    let inner = 3.0 - 7.5 * q * q + 4.5 * q * q * q;
    let t = 2.0 - q;
    let outer = 1.5 * (t * t) * (1.0 - q);
    if q < 1.0 {
        inner
    } else if q < 2.0 {
        outer
    } else {
        0.0
    }
}

/// Branchy forms of the select-form functions above, the reference the
/// bit-equivalence tests compare against.
#[cfg(test)]
mod branchy {
    use std::f64::consts::PI;

    pub fn w_cubic(r: f64, h: f64) -> f64 {
        let sigma = 1.0 / (PI * h * h * h);
        let q = r / h;
        if q < 1.0 {
            sigma * (1.0 - 1.5 * q * q + 0.75 * q * q * q)
        } else if q < 2.0 {
            sigma * 0.25 * (2.0 - q).powi(3)
        } else {
            0.0
        }
    }

    pub fn w_shape(q: f64) -> f64 {
        if q < 1.0 {
            1.0 - 1.5 * q * q + 0.75 * q * q * q
        } else if q < 2.0 {
            0.25 * (2.0 - q).powi(3)
        } else {
            0.0
        }
    }

    pub fn dwdh_shape(q: f64) -> f64 {
        if q < 1.0 {
            3.0 - 7.5 * q * q + 4.5 * q * q * q
        } else if q < 2.0 {
            1.5 * (2.0 - q).powi(2) * (1.0 - q)
        } else {
            0.0
        }
    }

    pub fn dw_shape(q: f64) -> f64 {
        if q < 1.0 {
            -3.0 * q + 2.25 * q * q
        } else if q < 2.0 {
            let t = 2.0 - q;
            -0.75 * t * t
        } else {
            0.0
        }
    }

    pub fn grad_w_cubic(dx: f64, dy: f64, dz: f64, h: f64) -> (f64, f64, f64) {
        let r = (dx * dx + dy * dy + dz * dz).sqrt();
        if r < 1e-12 * h {
            return (0.0, 0.0, 0.0);
        }
        let dw = dw_shape(r / h) / (PI * h * h * h * h);
        (dw * dx / r, dw * dy / r, dw * dz / r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `q` and the floats adjacent to it on both sides.
    fn around(q: f64) -> [f64; 3] {
        [f64::from_bits(q.to_bits() - 1), q, f64::from_bits(q.to_bits() + 1)]
    }

    fn assert_shapes_agree(q: f64, h: f64) {
        let r = q * h;
        assert_eq!(
            w_cubic(r, h).to_bits(),
            branchy::w_cubic(r, h).to_bits(),
            "w_cubic at r = {r:e}, h = {h}"
        );
        for (name, select, reference) in [
            ("w_shape", w_shape as fn(f64) -> f64, branchy::w_shape as fn(f64) -> f64),
            ("dw_shape", dw_shape, branchy::dw_shape),
            ("dwdh_shape", dwdh_shape, branchy::dwdh_shape),
        ] {
            assert_eq!(select(q).to_bits(), reference(q).to_bits(), "{name} at q = {q:e}");
        }
    }

    fn assert_gradients_agree(dx: f64, dy: f64, dz: f64, h: f64) {
        let (select, reference) = (grad_w_cubic(dx, dy, dz, h), branchy::grad_w_cubic(dx, dy, dz, h));
        assert_eq!(
            [select.0.to_bits(), select.1.to_bits(), select.2.to_bits()],
            [reference.0.to_bits(), reference.1.to_bits(), reference.2.to_bits()],
            "grad_w_cubic at ({dx:e}, {dy:e}, {dz:e}), h = {h}"
        );
    }

    #[test]
    fn select_form_shapes_are_bitwise_the_branchy_ones() {
        for &h in &[1.0, 0.37, 2.9] {
            // Dense sweep across both pieces and past the support.
            for step in 0..=25_000 {
                assert_shapes_agree(step as f64 * 1e-4, h);
            }
            // The piece boundaries, the floats next to them, and q = 0.
            for q in around(1.0).into_iter().chain(around(2.0)).chain([0.0, f64::MIN_POSITIVE]) {
                assert_shapes_agree(q, h);
            }
            // Non-finite input takes the same arm of both forms.
            for q in [f64::NAN, f64::INFINITY] {
                assert_shapes_agree(q, h);
                assert_gradients_agree(q, 0.1, -0.2, h);
            }
            // The coincident-pair guard of the gradient: r = 0 and r on both
            // sides of 1e-12·h, along one axis and spread over three.
            let guard = 1e-12 * h;
            for r in around(guard).into_iter().chain([0.0, 0.5 * guard, 2.0 * guard]) {
                assert_gradients_agree(r, 0.0, 0.0, h);
                assert_gradients_agree(0.0, -r, 0.0, h);
                let s = r / 3f64.sqrt();
                assert_gradients_agree(s, -s, s, h);
            }
        }
    }

    #[test]
    fn q_shapes_over_powers_of_h_are_the_r_h_forms() {
        let ulp = |got: f64, want: f64, magnitude: f64| (got - want).abs() / (f64::EPSILON * magnitude);
        for &h in &[1.0, 0.37, 2.9] {
            let (h3, h4) = (PI * h * h * h, PI * h * h * h * h);
            // Both pieces, their boundaries and past the support.
            for q in (0..=25_000)
                .map(|step| step as f64 * 1e-4)
                .chain(around(1.0))
                .chain(around(2.0))
            {
                let r = q * h;
                let q = r / h;
                let w = w_cubic(r, h);
                let off = ulp(w_shape(q) / h3, w, w);
                assert!(
                    off <= 2.0 || w == 0.0 && w_shape(q) == 0.0,
                    "w_shape at r = {r:e}, h = {h}: {off} ulp"
                );
                // ∂W/∂h is the difference of two terms that cancel at q = 1:
                // the error is measured against their magnitude.
                let terms = (3.0 * w + r * dw_cubic(r, h).abs()) / h;
                let (got, want) = (-dwdh_shape(q) / h4, dwdh_cubic(r, h));
                let off = ulp(got, want, terms);
                assert!(off <= 8.0 || got == want, "dwdh_shape at r = {r:e}, h = {h}: {off} ulp");
            }
        }
    }

    proptest! {
        #[test]
        fn select_form_gradient_is_bitwise_the_branchy_one(
            dx in -3.0f64..3.0,
            dy in -3.0f64..3.0,
            dz in -3.0f64..3.0,
            h in 0.05f64..2.0,
        ) {
            assert_gradients_agree(dx, dy, dz, h);
            assert_shapes_agree((dx * dx + dy * dy + dz * dz).sqrt() / h, h);
        }
    }

    /// Numerically integrate `W` over its support with spherical shells.
    fn integral(h: f64) -> f64 {
        let n = 4000;
        let rmax = KERNEL_SUPPORT * h;
        let dr = rmax / n as f64;
        let mut sum = 0.0;
        for i in 0..n {
            let r = (i as f64 + 0.5) * dr;
            sum += 4.0 * PI * r * r * w_cubic(r, h) * dr;
        }
        sum
    }

    #[test]
    fn kernel_is_normalised() {
        for &h in &[0.1, 1.0, 3.7] {
            let integ = integral(h);
            assert!((integ - 1.0).abs() < 1e-3, "∫W = {integ} for h = {h}");
        }
    }

    #[test]
    fn kernel_has_compact_support() {
        assert_eq!(w_cubic(2.01, 1.0), 0.0);
        assert_eq!(dw_cubic(2.01, 1.0), 0.0);
        assert!(w_cubic(1.99, 1.0) > 0.0);
    }

    #[test]
    fn kernel_peaks_at_origin_and_decreases() {
        let h = 1.0;
        let w0 = w_cubic(0.0, h);
        let mut prev = w0;
        for i in 1..=20 {
            let w = w_cubic(0.1 * i as f64, h);
            assert!(w <= prev + 1e-12, "kernel should be non-increasing");
            prev = w;
        }
        assert!(w0 > 0.3, "W(0,1) = 1/pi ≈ 0.318");
    }

    #[test]
    fn derivative_is_negative_inside_support() {
        for i in 1..20 {
            let r = 0.1 * i as f64;
            assert!(dw_cubic(r, 1.0) <= 0.0, "dW/dr must be ≤ 0 at r = {r}");
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let h = 1.3;
        for &r in &[0.2, 0.7, 1.1, 1.7] {
            let eps = 1e-6;
            let fd = (w_cubic(r + eps, h) - w_cubic(r - eps, h)) / (2.0 * eps);
            let an = dw_cubic(r, h);
            assert!((fd - an).abs() < 1e-5, "r={r}: fd {fd} vs analytic {an}");
        }
    }

    #[test]
    fn gradient_points_away_from_neighbour() {
        // For a neighbour in +x, dW/dr < 0 so the gradient points in -x... wait:
        // grad = dW/dr * (dx/r); with dx > 0 and dW/dr < 0 the x-component is negative.
        let (gx, gy, gz) = grad_w_cubic(0.5, 0.0, 0.0, 1.0);
        assert!(gx < 0.0);
        assert_eq!(gy, 0.0);
        assert_eq!(gz, 0.0);
        // Zero displacement gives a zero gradient.
        assert_eq!(grad_w_cubic(0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0));
    }

    #[test]
    fn dwdh_matches_finite_difference() {
        let r = 0.8;
        for &h in &[0.9, 1.4] {
            let eps = 1e-6;
            let fd = (w_cubic(r, h + eps) - w_cubic(r, h - eps)) / (2.0 * eps);
            let an = dwdh_cubic(r, h);
            assert!((fd - an).abs() < 1e-4, "h={h}: fd {fd} vs analytic {an}");
        }
    }
}
